import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from qdiscern import kernels
from qdiscern.channels import half_wave_plate
from qdiscern.linalg import NumericalError
from qdiscern.states import make_qc, qc_matrices
from qdiscern.witness import (discord_values, growth_values, marginal_axis, td_error_bound, td_values,
                              witness_Td, zero_line_lambda)


def general_td(lam, theta, phi):
    return witness_Td(make_qc(float(lam), float(theta)), phi).value


def td_points(lams, thetas, phi):
    """The kernel at the scattered points (lams[i], thetas[i]): the grid's diagonal."""
    return np.diagonal(kernels.td_qc_grid(lams, thetas, phi))


class TestKernelAgainstGeneralPath:
    @pytest.mark.parametrize("phi", [np.pi, np.pi / 2, 0.7])
    def test_random_points(self, phi):
        rng = np.random.default_rng(41)
        lams = rng.uniform(0, 1, 40)
        thetas = rng.uniform(0, np.pi / 2, 40)
        fast = td_points(lams, thetas, phi)
        slow = np.array([general_td(l, t, phi) for l, t in zip(lams, thetas)])
        assert_allclose(fast, slow, atol=1e-12)

    def test_degenerate_marginal_point(self):
        # theta = pi/2 and lam = 1/2 gives the maximally mixed marginal
        fast = kernels.td_qc_grid([0.5], [np.pi / 2], np.pi)[0, 0]
        assert abs(fast - general_td(0.5, np.pi / 2, np.pi)) < 1e-12

    def test_edges(self):
        for lam, theta in [(0.0, 0.3), (1.0, 0.3), (0.3, 0.0), (0.3, np.pi / 2)]:
            fast = kernels.td_qc_grid([lam], [theta], np.pi)[0, 0]
            assert abs(fast - general_td(lam, theta, np.pi)) < 1e-12


class TestKernelAgainstTheBlochCore:
    """The kernel evaluates Td at the parameters (lam, theta), the core at the
    rounded entries of the state, and the two differ within Td's
    forward-error bound; where |b| >= 0.1 that is within 1e-15."""

    @pytest.mark.parametrize("phi", [np.pi, 0.7, -3.0])
    def test_grid_with_its_edges(self, phi):
        lams = np.linspace(0, 1, 101)
        thetas = np.linspace(0, np.pi / 2, 103)
        rho = qc_matrices(lams[:, None], thetas)
        core = td_values(rho, phi)
        norm = marginal_axis(rho)[1]
        kernel = kernels.td_qc_grid(lams, thetas, phi)
        sharp = norm >= 0.1
        assert_allclose(kernel[sharp], core[sharp], rtol=0, atol=1e-15)
        assert np.all(np.abs(kernel - core) <= td_error_bound(norm))


class TestGrid:
    def test_shape_and_order(self):
        lams = np.linspace(0.1, 0.9, 3)
        thetas = np.linspace(0.1, 1.4, 5)
        g = kernels.td_qc_grid(lams, thetas, np.pi)
        assert g.shape == (3, 5)
        assert abs(g[1, 2] - general_td(lams[1], thetas[2], np.pi)) < 1e-12

    def test_row_chunks_concatenate_to_the_full_grid(self):
        lams = np.linspace(0, 1, 37)
        thetas = np.linspace(0, np.pi / 2, 23)
        chunks = [kernels.td_qc_grid(lams[i:i + 5], thetas, np.pi) for i in range(0, len(lams), 5)]
        assert np.array_equal(np.concatenate(chunks), kernels.td_qc_grid(lams, thetas, np.pi))

    def test_non_finite_output_rejected(self):
        with pytest.raises(NumericalError, match="finite"):
            kernels.td_qc_grid([0.1, 0.9], [0.1, 1.4], float("nan"))


def general_t(lams, thetas):
    rho = qc_matrices(lams, thetas)
    return discord_values(rho)


def bloch_norm(lam, theta):
    return np.hypot((1 - lam) * np.sin(2 * theta), lam + (1 - lam) * np.cos(2 * theta))


def exact_t(lam, theta):
    """T = lam |b_x| / |b| at the float inputs, in 50-digit arithmetic."""
    with mpmath.workdps(50):
        lam, theta = mpmath.mpf(lam), mpmath.mpf(theta)
        bx = (1 - lam) * mpmath.sin(2 * theta)
        bz = lam + (1 - lam) * mpmath.cos(2 * theta)
        return float(lam * abs(bx) / mpmath.hypot(bx, bz))


class TestTKernel:
    def test_random_points_against_the_general_path(self):
        rng = np.random.default_rng(43)
        lams = rng.uniform(0, 1, 400)
        thetas = rng.uniform(0, np.pi / 2, 400)
        # the general path takes T at the rounded entries of the state, the kernel at
        # (lam, theta); T is ill-conditioned where |b| is tiny, near (1/2, pi/2)
        keep = bloch_norm(lams, thetas) > 1e-6
        assert keep.sum() > 390
        lams, thetas = lams[keep], thetas[keep]
        fast = np.diagonal(kernels.t_qc_grid(lams, thetas))
        assert_allclose(fast, general_t(lams, thetas), rtol=0, atol=1e-12)

    def test_edges_and_degenerate_corner(self):
        # theta = pi/2 and lam = 1/2 gives the maximally mixed marginal: |H><H| branch
        points = [(0.0, 0.3), (1.0, 0.3), (0.3, 0.0), (0.3, np.pi / 2), (0.0, 0.0), (1.0, np.pi / 2),
                  (0.5, np.pi / 2)]
        for lam, theta in points:
            fast = kernels.t_qc_grid([lam], [theta])[0, 0]
            assert abs(fast - general_t(lam, theta)) < 1e-12, (lam, theta)

    def test_accurate_beside_the_degenerate_corner(self):
        # theta = pi/2 in floating point, just off the gap: eigh-based T reads 3.1e-17 here
        for lam, want in [(0.5 + 2e-9, 7.65e-9), (0.5 + 1e-6, 1.53e-11)]:
            value = kernels.t_qc_grid([lam], [np.pi / 2])[0, 0]
            assert abs(value - exact_t(lam, np.pi / 2)) <= 1e-15 * value
            assert abs(value - want) < 0.01 * want

    def test_zero_line_reads_lambda(self):
        thetas = np.linspace(np.pi / 4 + 0.02, np.pi / 2 - 0.02, 20)
        lams = np.array([zero_line_lambda(theta) for theta in thetas])
        assert_allclose(np.diagonal(kernels.t_qc_grid(lams, thetas)), lams, rtol=0, atol=1e-12)
        assert np.diagonal(kernels.td_qc_grid(lams, thetas, np.pi)).max() < 1e-12

    @pytest.mark.parametrize("phi", [np.pi, 0.7])
    def test_td_is_t_times_the_z_share(self, phi):
        # Td = |sin(phi/2)| T |b_z| / |b|
        lams = np.linspace(0, 1, 29)
        thetas = np.linspace(0, np.pi / 2, 31)
        bz = np.abs(lams[:, None] + (1 - lams[:, None]) * np.cos(2 * thetas))
        norm = bloch_norm(lams[:, None], thetas)
        off_gap = norm > 1e-6
        want = abs(np.sin(phi / 2)) * kernels.t_qc_grid(lams, thetas) * bz / np.where(off_gap, norm, 1.0)
        got = kernels.td_qc_grid(lams, thetas, phi)
        assert_allclose(got[off_gap], want[off_gap], rtol=0, atol=1e-15)

    def test_row_chunks_concatenate_to_the_full_grid(self):
        lams = np.linspace(0, 1, 37)
        thetas = np.linspace(0, np.pi / 2, 23)
        chunks = [kernels.t_qc_grid(lams[i:i + 5], thetas) for i in range(0, len(lams), 5)]
        assert np.array_equal(np.concatenate(chunks), kernels.t_qc_grid(lams, thetas))

    @pytest.mark.parametrize("lams, thetas", [([0.1, float("nan")], [0.1, 1.4]),
                                              ([0.1, 0.9], [float("nan"), 1.4])])
    def test_non_finite_input_rejected(self, lams, thetas):
        with pytest.raises(NumericalError, match="finite"):
            kernels.t_qc_grid(lams, thetas)

    def test_disagreeing_forms_raise(self, monkeypatch):
        monkeypatch.setattr(kernels, "CROSS_CHECK_TOL", -1.0)
        with pytest.raises(NumericalError, match="discord forms disagree"):
            kernels.t_qc_grid([0.3], [0.4])


GROWTH_ALPHAS = [np.pi / 8, 0.0, np.pi / 4, -1.2, 2.0]
GROWTH_PHIS = [np.pi, 0.7, -3.0, 9.0]


def exact_growth(lam, theta, alpha, phi):
    """Growth of QC(lam, theta) at plate angle alpha and phase phi, from its
    definition as in tests/oracle.growth: trace distances of the system
    marginals of the 4x4 states, in 50-digit arithmetic at the float inputs."""
    with mpmath.workdps(50):
        lam, theta, alpha, phi = (mpmath.mpf(float(x)) for x in (lam, theta, alpha, phi))
        ket = [mpmath.cos(theta), mpmath.sin(theta)]
        rho = mpmath.zeros(4)  # index 2 s + e, system first
        rho[0, 0] = lam
        for a in range(2):
            for b in range(2):
                rho[2 * a + 1, 2 * b + 1] = (1 - lam) * ket[a] * ket[b]
        c, s = mpmath.cos(2 * alpha), mpmath.sin(2 * alpha)
        plate = mpmath.matrix([[c, 0, s, 0], [0, c, 0, s], [s, 0, -c, 0], [0, s, 0, -c]])  # V x 1
        rotated = plate * rho * plate

        def marginal(r):
            return mpmath.matrix([[r[2 * a, 2 * b] + r[2 * a + 1, 2 * b + 1] for b in range(2)]
                                  for a in range(2)])

        def distance(angle):
            gate = mpmath.diag([1, mpmath.expj(angle), 1, 1])
            diff = marginal(gate * rotated * gate.H) - marginal(gate * rho * gate.H)
            return sum(abs(w) for w in mpmath.eighe(diff, eigvals_only=True)) / 2

        return float(distance(phi) - distance(0))


class TestGrowthKernel:
    @pytest.mark.parametrize("phi", GROWTH_PHIS)
    @pytest.mark.parametrize("alpha", GROWTH_ALPHAS)
    def test_random_grid_against_the_general_path(self, alpha, phi):
        rng = np.random.default_rng(47)
        lams = np.concatenate([[0.0, 1.0], rng.uniform(0, 1, 9)])
        thetas = np.concatenate([[0.0, np.pi / 2], rng.uniform(0, np.pi / 2, 11)])
        want = growth_values(qc_matrices(lams[:, None], thetas), half_wave_plate(alpha), phi)
        assert_allclose(kernels.growth_qc_grid(lams, thetas, alpha, phi), want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("alpha", GROWTH_ALPHAS)
    def test_within_an_ulp_or_two_of_the_definition(self, alpha):
        lams = np.array([0.0, 0.64, 0.5, 1.0 / 3, 1.0])
        thetas = np.array([0.0, 0.3, np.pi / 4, 1.2, np.pi / 2])
        for phi in GROWTH_PHIS:
            got = kernels.growth_qc_grid(lams, thetas, alpha, phi)
            want = [[exact_growth(lam, theta, alpha, phi) for theta in thetas] for lam in lams]
            assert_allclose(got, want, rtol=0, atol=1e-15, err_msg=f"phi = {phi}")

    def test_row_chunks_concatenate_to_the_full_grid(self):
        lams = np.linspace(0, 1, 37)
        thetas = np.linspace(0, np.pi / 2, 23)
        full = kernels.growth_qc_grid(lams, thetas, np.pi / 8, 2.5)
        chunks = [kernels.growth_qc_grid(lams[i:i + 5], thetas, np.pi / 8, 2.5) for i in range(0, len(lams), 5)]
        assert np.array_equal(np.concatenate(chunks), full)

    @pytest.mark.parametrize("lams, thetas, alpha, phi", [
        ([0.1, 0.9], [0.1, 1.4], np.pi / 8, float("nan")),
        ([0.1, float("nan")], [0.1, 1.4], np.pi / 8, np.pi),
        ([0.1, 0.9], [float("nan"), 1.4], np.pi / 8, np.pi),
        ([0.1, 0.9], [0.1, 1.4], float("nan"), np.pi),
    ], ids=["phase", "lambda", "theta", "plate-angle"])
    def test_non_finite_input_rejected(self, lams, thetas, alpha, phi):
        with pytest.raises(NumericalError, match="growth witness is not finite"):
            kernels.growth_qc_grid(lams, thetas, alpha, phi)
