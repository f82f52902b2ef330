import json

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import oracle
from qdiscern import kernels, witness
from qdiscern.channels import _gate_diagonal, eigenprojectors, half_wave_plate
from qdiscern.linalg import (DEGENERACY_GAP, DensityMatrix, NumericalError, kron, partial_trace,
                             trace_distances, trace_norm)
from qdiscern.states import make_cc, make_f, make_qc, qc_matrices
from qdiscern.witness import (
    CORRELATION_WITNESS,
    WitnessReport,
    discord_T,
    witness_Td,
    witness_growth,
    zero_line_lambda,
    zero_line_residual,
)
from random_states import random_density, random_unitary

# Golden values below were first confirmed against tests/oracle.py
GOLD_DISCORD_QC_HALF = np.sqrt(2) / 4
GOLD_TD_QC_HALF = 0.25
GOLD_GROWTH_CC_064 = np.sqrt(0.14 ** 2 + 0.25) - 0.14 * np.sqrt(2)
GOLD_GROWTH_F_065 = (1 - np.sqrt(2)) * 0.15


class TestDiscordT:
    def test_cc_is_discord_free(self):
        for lam in (0.1, 0.3, 0.64, 0.9):
            assert discord_T(make_cc(lam)).value < 1e-12

    def test_qc_golden_value(self):
        rho = make_qc(0.5, np.pi / 4)
        assert abs(oracle.discord(oracle.qc(0.5, np.pi / 4)) - GOLD_DISCORD_QC_HALF) < 1e-12
        assert abs(discord_T(rho).value - GOLD_DISCORD_QC_HALF) < 1e-9

    def test_f_is_discord_free(self):
        for lam in (0.0, 0.25, 0.65, 1.0):
            assert discord_T(make_f(lam)).value < 1e-12

    def test_matches_oracle_on_random_states(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            rho = random_density(rng, 4, (2, 2))
            assert abs(discord_T(rho).value - oracle.discord(rho.mat)) < 1e-9

    def test_rejects_a_one_qubit_state(self):
        with pytest.raises(ValueError, match="2x2-subsystem"):
            discord_T(DensityMatrix(np.eye(2) / 2, (2,)))

    def test_value_in_unit_interval(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            v = discord_T(random_density(rng, 4, (2, 2))).value
            assert 0.0 <= v <= 1.0


class TestWitnessTd:
    def test_qc_golden_value(self):
        assert abs(oracle.td_witness(oracle.qc(0.5, np.pi / 4), np.pi) - GOLD_TD_QC_HALF) < 1e-12
        assert abs(witness_Td(make_qc(0.5, np.pi / 4), np.pi).value - GOLD_TD_QC_HALF) < 1e-9

    def test_cc_blind(self):
        assert witness_Td(make_cc(0.64), np.pi).value < 1e-12

    def test_zero_line_point(self):
        # lambda=1/3, theta=pi/3 satisfies lam(cos 2t - 1) = cos 2t
        assert abs(zero_line_residual(1 / 3, np.pi / 3)) < 1e-15
        assert witness_Td(make_qc(1 / 3, np.pi / 3), np.pi).value < 1e-9
        assert oracle.td_witness(oracle.qc(1 / 3, np.pi / 3), np.pi) < 1e-9

    def test_zero_phase_sees_nothing(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            rho = random_density(rng, 4, (2, 2))
            assert witness_Td(rho, 0.0).value < 1e-12

    def test_bounded_by_discord(self):
        rng = np.random.default_rng(34)
        for lam in (0.2, 0.5, 0.8):
            for theta in (np.pi / 8, np.pi / 4, 3 * np.pi / 8):
                for phi in rng.uniform(0, 2 * np.pi, 4):
                    rho = make_qc(lam, theta)
                    assert witness_Td(rho, phi).value <= discord_T(rho).value + 1e-9

    def test_grid_positive_away_from_degenerate_loci(self):
        lams = np.linspace(0, 1, 50)
        thetas = np.linspace(0, np.pi / 2, 50)
        for lam in lams:
            for theta in thetas:
                near_edges = (
                    min(lam, 1 - lam) < 1e-3
                    or min(theta, np.pi / 2 - theta) < 1e-3
                    or abs(zero_line_residual(lam, theta)) < 1e-3
                )
                if not near_edges:
                    assert witness_Td(make_qc(lam, theta), np.pi).value > 1e-6


def _scaling_state(kind: str, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "ginibre":
        return random_density(rng, 4, (2, 2)).mat
    if kind == "pure":
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        return np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
    # degenerate system marginals: F(0.5), the maximally mixed state, CC(0.5)
    return [make_f(0.5).mat, np.eye(4, dtype=complex) / 4, make_cc(0.5).mat][seed % 3]


class TestPhaseScaling:
    """Td(phi) = |sin(phi/2)| Td(pi) for every two-qubit state: the gate
    only rescales the off-diagonal entry of the evolved marginal."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["ginibre", "pure", "degenerate"]), st.integers(0, 2**32 - 1),
           st.lists(st.floats(-10, 10), min_size=1, max_size=20))
    def test_td_scales_with_sin_half_phi(self, kind, seed, phis):
        rho = _scaling_state(kind, seed)
        phis = np.array(phis)
        at_pi = witness.td_values(rho, np.pi)
        assert_allclose(witness.td_values(rho, phis), np.abs(np.sin(phis / 2)) * at_pi,
                        rtol=0, atol=1e-15)


class TestWitnessGrowth:
    def test_cc_golden_value(self):
        v = half_wave_plate(np.pi / 8)
        assert abs(oracle.growth(oracle.cc(0.64), oracle.hwp(np.pi / 8), np.pi)
                   - GOLD_GROWTH_CC_064) < 1e-12
        assert abs(witness_growth(make_cc(0.64), v, np.pi).value - GOLD_GROWTH_CC_064) < 1e-9

    def test_f_golden_value(self):
        v = half_wave_plate(np.pi / 8)
        assert abs(oracle.growth(oracle.fact(0.65), oracle.hwp(np.pi / 8), np.pi)
                   - GOLD_GROWTH_F_065) < 1e-12
        assert abs(witness_growth(make_f(0.65), v, np.pi).value - GOLD_GROWTH_F_065) < 1e-9

    def test_identity_rotation_gives_zero(self):
        rng = np.random.default_rng(35)
        for phi in (0.3, np.pi):
            rho = random_density(rng, 4, (2, 2))
            assert abs(witness_growth(rho, np.eye(2), phi).value) < 1e-12

    def test_rejects_a_unitary_on_the_whole_state(self):
        with pytest.raises(ValueError, match="unitary dimension"):
            witness_growth(make_cc(0.64), np.eye(4), np.pi)

    def test_factorized_never_grows(self):
        for lam in np.linspace(0, 1, 8):
            for alpha in np.linspace(0, np.pi / 2, 5):
                for phi in np.linspace(0, 2 * np.pi, 5):
                    v = witness_growth(make_f(lam), half_wave_plate(alpha), phi).value
                    assert v <= 1e-9

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(0, 1), min_size=4, max_size=4).filter(lambda w: sum(w) > 1e-3),
           st.floats(-4, 4), st.floats(-10, 10))
    def test_closed_form_on_gate_diagonal_states(self, weights, alpha, phi):
        # both blocks rho_e diagonal in H/V: with c = cos 2a, s = sin 2a,
        # delta_e = rho_e[H,H] - rho_e[V,V] and S = delta_0 + delta_1,
        # growth = |s| (sqrt(s^2 S^2 + c^2 |delta_0 + e^{-i phi} delta_1|^2) - |S|)
        p = np.array(weights) / sum(weights)  # diagonal over |H0>, |H1>, |V0>, |V1>
        d0, d1 = p[0] - p[2], p[1] - p[3]
        c, s, total = np.cos(2 * alpha), np.sin(2 * alpha), d0 + d1
        want = abs(s) * (np.sqrt(s**2 * total**2 + c**2 * abs(d0 + np.exp(-1j * phi) * d1) ** 2) - abs(total))
        got = witness.growth_values(np.diag(p).astype(complex), half_wave_plate(alpha), phi)
        assert abs(got - want) <= 1e-15


class TestStageTwoBlindSpot:
    """On a gate-diagonal state (both blocks diagonal in H/V) with
    delta_0 delta_1 >= 0, where delta_e = rho_e[H,H] - rho_e[V,V], no system
    unitary W and no phase makes growth positive: the blocks map to
    w_e = delta_e v with v = O_W z - z, so growth = 1/2 (|delta_0 v +
    delta_1 R_phi v| - |delta_0 + delta_1| |v|) <= 0 by the triangle
    inequality. Each term is at most 1 and comes from a dozen roundings, so
    the computed growth stays below a few units of roundoff: BOUND. On 10^4
    random such states growth was at most -5.4e-10; where it is 0 exactly
    (phi = 0, or delta_0 delta_1 = 0) rounding reached 1.1e-16 on
    2 10^5 states."""

    BOUND = 1e-15

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(0, 1), min_size=4, max_size=4).filter(lambda w: sum(w) > 1e-3),
           st.integers(0, 2**32 - 1), st.floats(-2 * np.pi, 2 * np.pi))
    def test_same_sign_blocks_never_grow(self, weights, seed, phi):
        p = np.array(weights) / sum(weights)  # diagonal over |H0>, |H1>, |V0>, |V1>
        if (p[0] - p[2]) * (p[1] - p[3]) < 0:
            p[[1, 3]] = p[[3, 1]]  # flips the sign of delta_1
        w = random_unitary(np.random.default_rng(seed), 2)
        assert witness.growth_values(np.diag(p).astype(complex), w, phi) <= self.BOUND


class TestZeroLine:
    @pytest.mark.parametrize("lam,theta,expected", [
        (1 / 3, np.pi / 3, 0.0),
        (0.5, np.pi / 4, -0.5),
        (0.0, np.pi / 2, 1.0),
    ])
    def test_residual(self, lam, theta, expected):
        assert abs(zero_line_residual(lam, theta) - expected) < 1e-12

    def test_zero_line_lambda_inverts_residual(self):
        for theta in np.linspace(np.pi / 4 + 0.05, np.pi / 2 - 0.05, 10):
            lam = zero_line_lambda(theta)
            assert 0.0 <= lam <= 0.5
            assert abs(zero_line_residual(lam, theta)) < 1e-12

    @pytest.mark.parametrize("theta", [0.3, np.pi / 4, 0.0, -1.0, np.pi / 2 + 1e-9, float("nan"), float("inf")])
    def test_zero_line_lambda_rejects_theta_off_the_line(self, theta):
        # no lambda in [0, 1] puts these on the line: 0.3 and fl(pi/4) would give a
        # negative lambda, 0.0 a division by zero
        with pytest.raises(ValueError, match="zero line"):
            zero_line_lambda(theta)


class TestNonFiniteOutput:
    def test_nan_phase_is_a_numerical_error(self):
        rho = make_qc(0.7, np.pi / 4)
        with pytest.raises(NumericalError, match="finite"):
            witness_Td(rho, float("nan"))
        with pytest.raises(NumericalError, match="finite"):
            witness_growth(rho, half_wave_plate(np.pi / 8), float("nan"))


class TestWitnessReport:
    def test_discord_form_consistency_random_states(self):
        # discord_T raises NumericalError internally if the two printed
        # forms of the quantifier disagree; exercising it on random states
        # is the consistency check.
        rng = np.random.default_rng(36)
        for _ in range(50):
            discord_T(random_density(rng, 4, (2, 2)))

    def test_discord_cross_check_catches_a_wrong_lift(self, monkeypatch):
        # 1 x Pi instead of Pi x 1: the lifted form no longer matches ||C||_F
        monkeypatch.setattr(witness, "lift", lambda op: kron(np.eye(2), op))
        rho = random_density(np.random.default_rng(37), 4, (2, 2))
        with pytest.raises(NumericalError, match="discord forms disagree"):
            discord_T(rho)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            WitnessReport(1.5, CORRELATION_WITNESS)

    def test_degenerate_basis_is_reported(self):
        degenerate = discord_T(make_f(0.5))
        sharp = witness_Td(make_qc(0.7, np.pi / 4), np.pi)
        assert degenerate.degenerate_basis is True
        assert sharp.degenerate_basis is False
        for rep in (degenerate, sharp):
            assert json.loads(json.dumps(rep.to_json()))["degenerate_basis"] is rep.degenerate_basis

    def test_json_contains_all_fields(self):
        rep = witness_Td(make_qc(0.5, np.pi / 4), np.pi)
        d = rep.to_json()
        assert set(d) == {"value", "kind", "inputs_digest", "degenerate_basis", "sigma"}


def _per_call_sandwich(a, x, b):
    """a x b^dagger through a superoperator kron(a, conj(b)) built per call."""
    out = np.einsum("...ij,...j->...i", kron(a, b.conj()), x.reshape(*x.shape[:-2], 4))
    return out.reshape(*out.shape[:-1], 2, 2)


def _per_call_evolved_marginal(x, phi):
    """D_1's diagonal sliced from U's 4-entry diagonal."""
    d = _gate_diagonal(phi)[..., 1::2]
    return x[..., 0, :, :] + d[..., :, None] * d.conj()[..., None, :] * x[..., 1, :, :]


def _per_call_blocks(rho):
    """The environment-diagonal system blocks rho_e (..., 2, 2, 2), e on axis -3."""
    t = rho.reshape(*rho.shape[:-2], 2, 2, 2, 2)
    return np.stack([t[..., :, 0, :, 0], t[..., :, 1, :, 1]], axis=-3)


def _per_call_kets(projs):
    """Unit kets pi, pi_perp with Pi = |pi><pi| and 1 - Pi = |pi_perp><pi_perp|,
    each up to a phase: pi is the column of Pi with the larger diagonal entry,
    normalized, and pi_perp = (-conj(pi_1), conj(pi_0))."""
    p00, p11 = projs[..., 0, 0].real, projs[..., 1, 1].real
    first = (p00 >= p11)[..., None]
    ket = np.where(first, projs[..., :, 0], projs[..., :, 1]) / np.sqrt(np.maximum(p00, p11))[..., None]
    return ket, np.stack([-ket[..., 1].conj(), ket[..., 0].conj()], axis=-1)


def _per_call_coherence(rho, projs):
    """The 2x2 environment operator C with rho - pinch(rho) = |pi><pi_perp| x C
    + h.c., and the kets pi, pi_perp from `_per_call_kets`."""
    ket, perp = _per_call_kets(projs)
    c = np.einsum("...s,...satb->...atb", ket.conj(), rho.reshape(*rho.shape[:-2], 2, 2, 2, 2))
    return np.einsum("...atb,...t->...ab", c, perp), ket, perp


def _per_call_td(rho, phi):
    """Td on complex 2x2 blocks, with kets from the eigh eigenprojector."""
    c, ket, perp = _per_call_coherence(rho, eigenprojectors(rho)[0])
    x = np.diagonal(c, axis1=-2, axis2=-1)[..., None, None] \
        * (ket[..., :, None] * perp.conj()[..., None, :])[..., None, :, :]
    m = _per_call_evolved_marginal(x + np.swapaxes(x.conj(), -1, -2), phi)
    m00, m10 = m[..., 0, 0].real, m[..., 1, 0]
    return np.sqrt(m00 ** 2 + m10.real ** 2 + m10.imag ** 2)


def _per_call_growth(rho, v, phi):
    m = partial_trace(rho, 0)
    t0 = trace_distances(_per_call_sandwich(v, m, v), m)
    blocks = _per_call_blocks(rho)
    vb = v[..., None, :, :]
    t1 = 0.5 * trace_norm(_per_call_evolved_marginal(_per_call_sandwich(vb, blocks, vb) - blocks, phi))
    return t1 - t0


def _ginibre_case(seed, n, stacked_phi, stacked_v):
    """n Ginibre states, and a phase and a system unitary that are each
    shared or one per state."""
    rng = np.random.default_rng(seed)
    rho = np.array([random_density(rng, 4, (2, 2)).mat for _ in range(n)])
    phi = rng.uniform(-10, 10, n) if stacked_phi else float(rng.uniform(-10, 10))
    v = (np.array([random_unitary(rng, 2) for _ in range(n)]) if stacked_v
         else half_wave_plate(rng.uniform(0, np.pi)))
    return rho, phi, v


def _bloch_radius(rho):
    return witness.marginal_axis(rho)[1]


class TestPerCallForms:
    """Td and growth agree with the complex 2x2 forms they replaced: Td on
    the blocks c_e |pi><pi_perp| + h.c. with kets from the eigh
    eigenprojector, growth on V rho_e V^dagger - rho_e through a
    superoperator per sandwich, with its phi = 0 term from the system
    marginal. The eigh eigenvector is off by about u / |b|, so Td is
    compared where |b| >= 0.1. On 40000 Ginibre states with Haar-random
    unitaries and phi in [-10, 10] the worst gap was 6.9e-16 for Td at
    |b| >= 0.1 (1.4e-15 over all, where |b| reached 0.014) and 5.0e-16 for
    growth."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.booleans(), st.booleans())
    def test_td_and_growth_equal_the_per_call_forms(self, seed, n, stacked_phi, stacked_v):
        rho, phi, v = _ginibre_case(seed, n, stacked_phi, stacked_v)
        sharp = _bloch_radius(rho) >= 0.1
        assert_allclose(witness.td_values(rho, phi)[sharp], _per_call_td(rho, phi)[sharp],
                        rtol=0, atol=1e-15)
        assert_allclose(witness.growth_values(rho, v, phi), _per_call_growth(rho, v, phi),
                        rtol=0, atol=1e-15)


def _near_degenerate(rng, rho, delta):
    """rho mixed with its twin under a system pi rotation that reverses the
    marginal's Bloch vector b, at weights 1/2 + delta and 1/2 - delta: a
    state with the same correlations in the blocks and marginal 2 delta b."""
    m = partial_trace(rho, 0)
    b = np.array([2 * m[1, 0].real, 2 * m[1, 0].imag, (m[0, 0] - m[1, 1]).real])
    a = np.cross(b, rng.normal(size=3))
    a /= np.linalg.norm(a)
    w = np.kron(-1j * np.einsum("i,iab->ab", a, witness._PAULI), np.eye(2))
    mixed = (0.5 + delta) * rho + (0.5 - delta) * (w @ rho @ w.conj().T)
    return (mixed + mixed.conj().T) / 2


def _stack_case(seed, n):
    """n states: Ginibre, pure, degenerate (F(1/2), 1/4, CC(1/2)) and
    near-degenerate ones, and one Haar-random unitary per state."""
    rng = np.random.default_rng(seed)
    rho = []
    for i in range(n):
        kind = ["ginibre", "pure", "degenerate", "near"][i % 4]
        state = _scaling_state("ginibre" if kind == "near" else kind, int(rng.integers(2**32)))
        rho.append(_near_degenerate(rng, state, 10.0 ** rng.uniform(-11, -2)) if kind == "near" else state)
    v = np.array([random_unitary(rng, 2) for _ in range(n)])
    return np.array(rho), rng.uniform(-10, 10, n), v


class TestStackedCalls:
    """A stacked witness call equals its one-row calls bit for bit: a scalar
    call is a batch of one. The stacks mix Ginibre, pure, degenerate and
    near-degenerate marginals, with a shared or per-state phase and plate or
    Haar-random unitary."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 100), st.booleans(), st.booleans())
    def test_stacked_call_equals_one_state_calls(self, seed, n, stacked_phi, stacked_v):
        rho, phis, vs = _stack_case(seed, n)
        phi = phis if stacked_phi else float(phis[0])
        v = vs if stacked_v else half_wave_plate(float(phis[0]))
        td = witness.td_values(rho, phi)
        growth = witness.growth_values(rho, v, phi)
        n_hat, norm = witness.marginal_axis(rho)
        for i in range(n):
            phi_i = phi[i] if stacked_phi else phi
            v_i = v[i] if stacked_v else v
            assert np.array_equal(witness.td_values(rho[i], phi_i), td[i])
            assert np.array_equal(witness.growth_values(rho[i], v_i, phi_i), growth[i])
            one_axis, one_norm = witness.marginal_axis(rho[i])
            assert np.array_equal(one_axis, n_hat[:, i]) and np.array_equal(one_norm, norm[i])

    def test_degenerate_marginals_take_the_z_axis(self):
        rho = np.array([make_f(0.5).mat, np.eye(4) / 4, make_cc(0.5).mat])
        n_hat, norm = witness.marginal_axis(rho)
        assert np.array_equal(n_hat, np.array([[0.0] * 3, [0.0] * 3, [1.0] * 3]))
        assert np.array_equal(norm, [0.0, 0.0, 0.0])
        assert np.array_equal(witness.bloch_matrix(n_hat[:, 0]), np.diag([1.0, 0.0]))


def _exact_marginal(x):
    return mpmath.matrix([[x[2 * a, 2 * b] + x[2 * a + 1, 2 * b + 1] for b in range(2)] for a in range(2)])


def _exact_pinched(rho):
    """The float state rho and its pinched state as mpmath matrices, at the
    caller's precision: the eigenprojector of the system marginal (|H><H|
    below the degeneracy gap), lifted to Pi x 1 and (1 - Pi) x 1."""
    r = mpmath.matrix([[mpmath.mpc(complex(z).real, complex(z).imag) for z in row] for row in rho])
    w, q = mpmath.eigh(_exact_marginal(r))
    ket = q[:, 1] if w[1] - w[0] >= DEGENERACY_GAP else mpmath.matrix([1, 0])
    proj = ket * ket.H
    eye = mpmath.eye(2)
    lifted = [mpmath.matrix(4, 4), mpmath.matrix(4, 4)]
    for a in range(2):
        for b in range(2):
            for e in range(2):
                lifted[0][2 * a + e, 2 * b + e] = proj[a, b]
                lifted[1][2 * a + e, 2 * b + e] = eye[a, b] - proj[a, b]
    return r, sum((p * r * p for p in lifted), mpmath.matrix(4, 4))


def exact_td(rho, phi):
    """Td of the float state rho at phase phi from its definition, in
    50-digit arithmetic: the state and its pinched state (`_exact_pinched`),
    both evolved, and the trace distance of their system marginals by
    eigenvalues."""
    with mpmath.workdps(50):
        r, pinched = _exact_pinched(rho)
        gate = mpmath.diag([1, mpmath.expj(phi), 1, 1])
        diff = _exact_marginal(gate * r * gate.H) - _exact_marginal(gate * pinched * gate.H)
        return float(sum(abs(x) for x in mpmath.eigh(diff, eigvals_only=True)) / 2)


def exact_t(rho):
    """T of the float state rho from its definition, in 50-digit arithmetic:
    half the trace norm of the state minus its pinched state
    (`_exact_pinched`), by eigenvalues."""
    with mpmath.workdps(50):
        r, pinched = _exact_pinched(rho)
        return float(sum(abs(x) for x in mpmath.eigh(r - pinched, eigvals_only=True)) / 2)


class TestAccuracyBesideTheDegenerateCorner:
    """Near a degenerate marginal Td is ill-conditioned, and the eigh
    projector read 3e-17 where the float state's Td is 1.5e-8, for Td and
    for T alike. The Bloch axis is accurate there."""

    @pytest.mark.parametrize("phi", [np.pi, 0.7, -3.0])
    def test_qc_beside_the_corner_matches_the_definition(self, phi):
        # theta = pi/2 in floating point: b_x = (1 - lam) sin(2 fl(pi/2)) is 6e-17
        for lam in (0.5 + 2e-9, 0.5 - 2e-9, 0.5 + 1e-6, 0.5 - 1e-7, 0.5 + 1e-4):
            rho = qc_matrices(lam, np.pi / 2)
            value = float(witness.td_values(rho, phi))
            assert abs(value - exact_td(rho, phi)) <= 1e-15 * value, lam
            t = discord_T(DensityMatrix(rho, (2, 2))).value
            assert abs(t - exact_t(rho)) <= 1e-15 * t, lam
            # the kernel evaluates Td at (lam, theta) rather than at the rounded
            # entries of the state, which differ from it within Td's bound
            kernel = kernels.td_qc_grid([lam], [np.pi / 2], phi)[0, 0]
            assert abs(value - kernel) <= witness.td_error_bound(_bloch_radius(rho)), lam
        at_2e9 = float(witness.td_values(qc_matrices(0.5 + 2e-9, np.pi / 2), np.pi))
        assert abs(at_2e9 - 7.65e-9) < 0.01 * 7.65e-9

    def test_near_degenerate_states_within_the_forward_error_bound(self):
        rng = np.random.default_rng(53)
        for i in range(40):
            state = _scaling_state("pure" if i % 2 else "ginibre", int(rng.integers(2**32)))
            rho = _near_degenerate(rng, state, 10.0 ** rng.uniform(-8, -2))
            phi = rng.uniform(-4, 4)
            norm = _bloch_radius(rho)
            assert norm >= DEGENERACY_GAP
            err = abs(float(witness.td_values(rho, phi)) - exact_td(rho, phi))
            assert err <= witness.td_error_bound(norm), (norm, err)
