import json

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from qdiscern.linalg import (
    DensityMatrix,
    kron,
    matrix_from_json,
    matrix_to_json,
    partial_trace,
    trace_distance,
    trace_distances,
    system_unitary,
    two_qubit,
)
from qdiscern.protocol import ProtocolConfig, classify
from qdiscern.states import make_cc, make_f, make_qc
from random_states import random_density, random_unitary


def diag_state(*probs):
    return DensityMatrix(np.diag(probs).astype(complex))


class TestKron:
    def test_identity(self):
        assert_allclose(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_basis_projectors(self):
        h = np.diag([1.0, 0.0])
        out = kron(h, h)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert_allclose(out, expected)

    def test_diagonal_product(self):
        lam = 0.65
        out = kron(np.diag([lam, 1 - lam]), np.eye(2) / 2)
        assert_allclose(np.diag(out).real, [0.325, 0.325, 0.175, 0.175])


class TestPartialTrace:
    def test_product_state_marginal(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            sigma = random_density(rng, 2)
            tau = random_density(rng, 2)
            joint = DensityMatrix(kron(sigma, tau))
            assert_allclose(partial_trace(joint, 0).mat, sigma.mat, atol=1e-12)
            assert_allclose(partial_trace(joint, 1).mat, tau.mat, atol=1e-12)

    def test_cc_marginal(self):
        assert_allclose(partial_trace(make_cc(0.64), 0).mat, np.diag([0.64, 0.36]), atol=1e-12)

    def test_qc_marginal_hand_expansion(self):
        # 0.5|H><H| + 0.5|pi/4><pi/4| expanded by hand
        marg = partial_trace(make_qc(0.5, np.pi / 4), 0).mat
        assert_allclose(marg, [[0.75, 0.25], [0.25, 0.25]], atol=1e-12)

    def test_bad_keep_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(make_cc(0.5), 2)

    def test_requires_bipartite(self):
        with pytest.raises(ValueError):
            partial_trace(diag_state(0.5, 0.5), 0)

    @pytest.mark.parametrize("keep", [0, 1])
    def test_equals_np_trace_bit_for_bit(self, keep):
        # Born probabilities go through this marginal; their float order must not move
        rng = np.random.default_rng(14)
        rho = rng.normal(size=(7, 3, 4, 4)) + 1j * rng.normal(size=(7, 3, 4, 4))
        t = rho.reshape(7, 3, 2, 2, 2, 2)
        want = np.trace(t, axis1=-3, axis2=-1) if keep == 0 else np.trace(t, axis1=-4, axis2=-2)
        assert_array_equal(partial_trace(rho, keep), want)


class TestTraceDistance:
    def test_orthogonal_pure_states(self):
        h = diag_state(1.0, 0.0)
        v = diag_state(0.0, 1.0)
        assert_allclose(trace_distance(h, v), 1.0)

    def test_identical(self):
        rho = make_qc(0.3, 0.9)
        assert trace_distance(rho, rho) == 0.0

    def test_diagonal_difference(self):
        assert_allclose(trace_distance(diag_state(0.64, 0.36), diag_state(0.5, 0.5)), 0.14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            trace_distance(diag_state(1.0, 0.0), make_cc(0.5))

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b, c = (random_density(rng, 4) for _ in range(3))
            assert_allclose(trace_distance(a, b), trace_distance(b, a), atol=1e-12)
            assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12

    def test_unitary_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            a = random_density(rng, 4)
            b = random_density(rng, 4)
            u = random_unitary(rng, 4)
            ua = DensityMatrix(u @ a.mat @ u.conj().T)
            ub = DensityMatrix(u @ b.mat @ u.conj().T)
            assert abs(trace_distance(ua, ub) - trace_distance(a, b)) < 1e-9

    def test_contraction_under_partial_trace(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            a = random_density(rng, 4)
            b = random_density(rng, 4)
            assert trace_distance(partial_trace(a, 1), partial_trace(b, 1)) \
                <= trace_distance(a, b) + 1e-9


class TestTraceNorm:
    def test_stacked_call_equals_one_pair_calls(self):
        # a stacked eigvalsh call must round each pair as a one-pair call does
        rng = np.random.default_rng(0)
        g = rng.normal(size=(2, 20_000, 2, 2)) + 1j * rng.normal(size=(2, 20_000, 2, 2))
        a, b = g + np.swapaxes(g.conj(), -1, -2)
        stacked = trace_distances(a, b)
        assert np.array_equal(stacked, [trace_distances(x, y) for x, y in zip(a, b)])


class TestDensityMatrixValidation:
    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(m)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="positive"):
            DensityMatrix(np.diag([1.2, -0.2]).astype(complex))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            DensityMatrix(np.full((2, 3), 1 / 3))

    @pytest.mark.parametrize("n", [1, 3, 6, 8])
    def test_rejects_a_shape_other_than_2x2_or_4x4(self, n):
        with pytest.raises(ValueError, match="2x2 or 4x4"):
            DensityMatrix(np.eye(n) / n)

    def test_dims_follow_from_the_shape(self):
        assert DensityMatrix(np.eye(2) / 2).dims == (2,)
        assert DensityMatrix(np.eye(4) / 4).dims == (2, 2)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0, np.nan)], ids=["nan", "inf", "imag-nan"])
    def test_rejects_non_finite_entries(self, entry):
        # a NaN makes every `defect > TOL` check False, so each would pass it
        m = np.eye(4, dtype=complex) / 4
        m[2, 3] = m[3, 2] = entry
        with pytest.raises(ValueError, match="not finite"):
            DensityMatrix(m)
        blob = json.loads(json.dumps(matrix_to_json(m)))
        with pytest.raises(ValueError, match="not finite"):
            DensityMatrix.from_json(dict(blob, dims=[2, 2]))

    def test_two_qubit_rejects_a_plain_array(self):
        with pytest.raises(ValueError, match="DensityMatrix"):
            two_qubit(np.eye(4) / 4)
        with pytest.raises(ValueError, match="DensityMatrix"):
            classify(np.eye(4) / 4, ProtocolConfig())

    def test_system_unitary_rejects_non_finite_entries(self):
        with pytest.raises(ValueError, match="not finite"):
            system_unitary(np.diag([1.0, np.nan]))


class TestSerialization:
    def test_matrix_round_trip_is_lossless(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        blob = json.dumps(matrix_to_json(m))
        back = matrix_from_json(json.loads(blob))
        assert np.array_equal(back, m)

    def test_density_matrix_round_trip(self):
        rho = make_qc(0.37, 1.1)
        back = DensityMatrix.from_json(json.loads(json.dumps(rho.to_json())))
        assert np.array_equal(back.mat, rho.mat)
        assert back.dims == rho.dims

    def test_from_json_rejects_dims_that_do_not_match_the_shape(self):
        blob = json.loads(json.dumps(make_cc(0.5).to_json()))
        assert blob["dims"] == [2, 2]
        for dims in ([4], [2], [2, 2, 1], "22", None):
            with pytest.raises(ValueError, match="dims"):
                DensityMatrix.from_json(dict(blob, dims=dims))
        qubit = DensityMatrix(np.eye(2) / 2).to_json()
        assert qubit["dims"] == [2]
        with pytest.raises(ValueError, match="dims"):
            DensityMatrix.from_json(dict(qubit, dims=[2, 2]))

    @pytest.mark.parametrize("key", ["rows", "cols", "entries", "dims"])
    def test_from_json_names_a_missing_key(self, key):
        blob = make_cc(0.5).to_json()
        del blob[key]
        with pytest.raises(ValueError, match=key):
            DensityMatrix.from_json(blob)

    def test_from_json_rejects_an_empty_or_non_object_blob(self):
        with pytest.raises(ValueError, match="rows"):
            DensityMatrix.from_json({})
        with pytest.raises(ValueError, match="JSON object"):
            DensityMatrix.from_json([])

    @pytest.mark.parametrize("entry", ["x", [1.0], [1.0, 0.0, 0.0], ["1", 0.0], [None, 0.0], [True, 0.0], None],
                             ids=["string", "short", "long", "string-part", "null-part", "bool-part", "null"])
    def test_from_json_names_a_malformed_entry(self, entry):
        blob = make_cc(0.5).to_json()
        blob["entries"][5] = entry
        with pytest.raises(ValueError, match=r"entries\[5\]"):
            DensityMatrix.from_json(blob)

    @pytest.mark.parametrize("rows", ["4", 4.0, None, True, -4])
    def test_from_json_rejects_a_size_that_is_not_a_count(self, rows):
        with pytest.raises(ValueError, match="rows and cols"):
            DensityMatrix.from_json(dict(make_cc(0.5).to_json(), rows=rows))

    def test_entries_length_checked(self):
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]})
