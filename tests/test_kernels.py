import numpy as np
import pytest
from numpy.testing import assert_allclose

from qdiscern import kernels
from qdiscern.linalg import NumericalError
from qdiscern.states import make_qc
from qdiscern.witness import witness_Td


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
