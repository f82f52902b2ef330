import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from qdiscern import channels, states
from qdiscern.channels import eigenprojectors
from qdiscern.linalg import kron, partial_trace
from qdiscern.states import (FAMILIES, FamilyParams, make_cc, make_f, make_qc, projector, qc_matrices,
                             theta_ket)


class TestThetaKet:
    @pytest.mark.parametrize("theta,expected", [
        (0.0, [1.0, 0.0]),
        (np.pi / 2, [0.0, 1.0]),
        (np.pi / 4, [1 / np.sqrt(2), 1 / np.sqrt(2)]),
    ])
    def test_values(self, theta, expected):
        assert_allclose(theta_ket(theta), expected, atol=1e-15)

    def test_normalized(self):
        for theta in np.linspace(0, np.pi / 2, 17):
            k = theta_ket(theta)
            assert_allclose(np.vdot(k, k).real, 1.0)


class TestFamilies:
    def test_cc_diagonal(self):
        assert_allclose(make_cc(0.64).mat, np.diag([0.64, 0, 0, 0.36]), atol=1e-15)

    def test_cc_boundary_pure(self):
        m = make_cc(1.0).mat
        assert_allclose(m, np.diag([1.0, 0, 0, 0]), atol=1e-15)

    def test_cc_balanced_marginal_degenerate(self):
        assert eigenprojectors(make_cc(0.5).mat)[1]

    def test_qc_block_structure(self):
        rho = make_qc(0.7, np.pi / 4).mat
        # momentum-0 block is 0.7 |H><H|, momentum-1 block is 0.3 |pi/4><pi/4|
        assert_allclose(rho[0::2, 0::2], 0.7 * np.diag([1.0, 0.0]), atol=1e-15)
        assert_allclose(rho[1::2, 1::2], 0.3 * np.full((2, 2), 0.5), atol=1e-15)

    def test_qc_at_pi_half_equals_cc(self):
        for lam in np.linspace(0, 1, 9):
            assert np.abs(make_qc(lam, np.pi / 2).mat - make_cc(lam).mat).max() <= 1e-15

    def test_qc_at_zero_is_factorized(self):
        lam = 0.3
        rho = make_qc(lam, 0.0).mat
        expected = np.kron(np.diag([1.0, 0.0]), np.diag([lam, 1 - lam]))
        assert_allclose(rho, expected, atol=1e-15)

    def test_f_diagonal(self):
        assert_allclose(make_f(0.65).mat, np.diag([0.325, 0.325, 0.175, 0.175]), atol=1e-15)

    def test_f_maximally_mixed(self):
        assert_allclose(make_f(0.5).mat, np.eye(4) / 4, atol=1e-15)

    def test_marginals(self):
        for lam in (0.0, 0.3, 0.77, 1.0):
            assert_allclose(partial_trace(make_cc(lam), 1).mat, np.diag([lam, 1 - lam]), atol=1e-12)
            assert_allclose(partial_trace(make_qc(lam, 1.0), 1).mat, np.diag([lam, 1 - lam]), atol=1e-12)
            assert_allclose(partial_trace(make_f(lam), 1).mat, np.eye(2) / 2, atol=1e-12)
            assert_allclose(partial_trace(make_cc(lam), 0).mat, np.diag([lam, 1 - lam]), atol=1e-12)
            assert_allclose(partial_trace(make_f(lam), 0).mat, np.diag([lam, 1 - lam]), atol=1e-12)

    @pytest.mark.parametrize("factory", [make_cc, make_f])
    def test_lambda_range_enforced(self, factory):
        with pytest.raises(ValueError):
            factory(1.2)

    def test_qc_range_enforced(self):
        with pytest.raises(ValueError):
            make_qc(0.5, -0.1)
        with pytest.raises(ValueError):
            make_qc(-0.1, 0.5)

    @pytest.mark.parametrize("bad", [True, "0.5", float("nan")], ids=["boolean", "string", "nan"])
    @pytest.mark.parametrize("build,args,name", [
        (make_cc, lambda x: (x,), "lambda"), (make_f, lambda x: (x,), "lambda"),
        (make_qc, lambda x: (x, 0.5), "lambda"), (make_qc, lambda x: (0.5, x), "theta"),
    ], ids=["cc-lambda", "f-lambda", "qc-lambda", "qc-theta"])
    def test_builders_reject_non_numbers_naming_the_field(self, build, args, name, bad):
        with pytest.raises(ValueError, match=name):
            build(*args(bad))


class TestFamilyParams:
    def test_build_dispatch(self):
        assert_allclose(FamilyParams("CC", 0.64).build().mat, make_cc(0.64).mat)
        assert_allclose(FamilyParams("QC", 0.7, np.pi / 4).build().mat, make_qc(0.7, np.pi / 4).mat)
        assert_allclose(FamilyParams("F", 0.65).build().mat, make_f(0.65).mat)

    def test_theta_rejected_outside_qc(self):
        with pytest.raises(ValueError):
            FamilyParams("CC", 0.5, 0.3)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            FamilyParams("XX", 0.5)

    @pytest.mark.parametrize("lam,theta,name", [
        (True, 0.0, "lambda"), ("0.5", 0.0, "lambda"), (None, 0.0, "lambda"),
        (float("nan"), 0.0, "lambda"), (0.5, True, "theta"), (0.5, "0.5", "theta"),
        (0.5, None, "theta"), (0.5, float("inf"), "theta"),
    ], ids=["boolean-lambda", "string-lambda", "none-lambda", "nan-lambda", "boolean-theta",
            "string-theta", "none-theta", "inf-theta"])
    def test_rejects_non_numbers_naming_the_field(self, lam, theta, name):
        with pytest.raises(ValueError, match=name):
            FamilyParams("QC", lam, theta)

    def test_stores_plain_floats(self):
        p = FamilyParams("QC", np.int64(1), np.float32(0.5))
        assert (type(p.lam), type(p.theta)) == (float, float)
        assert json.loads(json.dumps(p.to_json())) == {"family": "QC", "lambda": 1.0,
                                                       "theta": float(np.float32(0.5))}

    def test_json_round_trip(self):
        p = FamilyParams("QC", 0.7, np.pi / 4)
        back = FamilyParams.from_json(json.loads(json.dumps(p.to_json())))
        assert back == p


KET_H = np.array([1.0, 0.0], dtype=complex)
KET_V = np.array([0.0, 1.0], dtype=complex)
KET_0 = np.array([1.0, 0.0], dtype=complex)
KET_1 = np.array([0.0, 1.0], dtype=complex)


def _per_call_qc(lam, theta):
    """QC states with a projector and a Kronecker product per term and call:
    the reference that `qc_matrices` and the constants must equal bit for bit."""
    lam = np.asarray(lam, dtype=float)[..., None, None]
    return lam * kron(projector(KET_H), projector(KET_0)) \
        + (1 - lam) * kron(projector(theta_ket(theta)), projector(KET_1))


def _per_call_build(family, lam, theta):
    """`FamilyParams.build().mat` formed per call, as in `_per_call_qc`."""
    if family == "CC":
        return lam * kron(projector(KET_H), projector(KET_0)) \
            + (1 - lam) * kron(projector(KET_V), projector(KET_1))
    if family == "QC":
        return _per_call_qc(lam, theta)
    return kron(lam * projector(KET_H) + (1 - lam) * projector(KET_V), np.eye(2) / 2)


# each constant and the per-call expression it replaces
CONSTANTS = {
    "PROJ_H": (states.PROJ_H, projector(KET_H)),
    "PROJ_1": (states.PROJ_1, projector(KET_1)),
    "PROJ_H0": (states.PROJ_H0, kron(projector(KET_H), projector(KET_0))),
    "PROJ_V1": (states.PROJ_V1, kron(projector(KET_V), projector(KET_1))),
    "F_H": (states._TERMS["F"][0], kron(projector(KET_H), np.eye(2) / 2)),
    "F_V": (states._TERMS["F"][1], kron(projector(KET_V), np.eye(2) / 2)),
    "channels_EYE2": (channels._EYE2, np.eye(2, dtype=complex)),
}
grids = hnp.array_shapes(min_dims=1, max_dims=2, max_side=7)


class TestConstantOperators:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(FAMILIES), st.floats(0.0, 1.0), st.floats(0.0, np.pi / 2))
    @example("F", 0.5, 0.0)
    @example("CC", 1.0, 0.0)
    @example("QC", 0.0, np.pi / 2)
    def test_build_equals_the_per_call_formula(self, family, lam, theta):
        theta = theta if family == "QC" else 0.0
        assert np.array_equal(FamilyParams(family, lam, theta).build().mat,
                              _per_call_build(family, lam, theta))

    @settings(max_examples=100, deadline=None)
    @given(st.data(), grids, grids)
    def test_qc_matrices_on_stacked_grids_equal_the_per_call_formula(self, data, lam_shape, theta_shape):
        lam = data.draw(hnp.arrays(float, lam_shape, elements=st.floats(0.0, 1.0)))
        theta = data.draw(hnp.arrays(float, theta_shape, elements=st.floats(0.0, np.pi / 2)))
        lam = lam.reshape(*lam.shape, *(1,) * theta.ndim)  # a (lam, theta) grid
        assert np.array_equal(qc_matrices(lam, theta), _per_call_qc(lam, theta))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2**32 - 1), st.booleans()), min_size=1, max_size=8))
    def test_degenerate_marginals_get_the_per_call_h_projector(self, draws):
        """A Hermitian matrix with its system marginal shifted to tr/2 times 1
        is degenerate; the others are generic."""
        rhos = []
        for seed, degenerate in draws:
            re, im = np.random.default_rng(seed).normal(size=(2, 4, 4))
            g = re + 1j * im
            h = g + g.conj().T
            if degenerate:
                m = partial_trace(h, 0)
                h = h - kron(m - np.trace(m) / 2 * np.eye(2), np.eye(2) / 2)
            rhos.append(h)
        projs, flags = eigenprojectors(np.array(rhos))
        assert flags.tolist() == [d for _, d in draws]
        assert all(np.array_equal(p, projector(KET_H)) for p in projs[flags])
        assert not np.shares_memory(projs, states.PROJ_H)

    @pytest.mark.parametrize("name", CONSTANTS)
    def test_constants_hold_the_per_call_bytes_and_are_read_only(self, name):
        constant, per_call = CONSTANTS[name]
        assert (constant.dtype, constant.shape, constant.tobytes()) \
            == (per_call.dtype, per_call.shape, per_call.tobytes())
        with pytest.raises(ValueError):
            constant[0, 0] = 2.0

    @pytest.mark.parametrize("params", [FamilyParams("CC", 0.64), FamilyParams("F", 0.65),
                                        FamilyParams("QC", 0.7, np.pi / 4)], ids=["CC", "F", "QC"])
    def test_build_shares_no_memory_with_the_constants(self, params):
        mat = params.build().mat
        assert not any(np.shares_memory(mat, c) for c, _ in CONSTANTS.values())
