import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qdiscern.channels import (
    Projector,
    apply_local_system,
    dephase,
    eigenprojectors,
    half_wave_plate,
    phase_gate,
    phase_gate_evolve,
    system_eigenprojector,
)
from qdiscern.linalg import DensityMatrix, kron, partial_trace, trace_distance
from qdiscern.states import FamilyParams, make_cc, make_f, make_qc
from qdiscern.witness import discord_T, discord_values, td_values
from random_states import random_density


def rand_state(rng):
    return random_density(rng, 4)


class TestProjectorType:
    def test_rejects_rank_2(self):
        with pytest.raises(ValueError, match="rank"):
            Projector(np.eye(2))

    def test_rejects_non_idempotent(self):
        with pytest.raises(ValueError, match="idempotent"):
            Projector(np.diag([0.5, 0.5]))

    def test_rejects_non_hermitian(self):
        # idempotent with trace 1, but not Hermitian
        with pytest.raises(ValueError, match="Hermitian"):
            Projector(np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValueError, match="not finite"):
            Projector(np.full((2, 2), np.nan))


class TestSystemEigenprojector:
    def test_cc_diagonal_marginal(self):
        p = system_eigenprojector(make_cc(0.64))
        assert_allclose(p.matrix, np.diag([1.0, 0.0]), atol=1e-12)
        assert not p.degenerate_source

    def test_qc_hand_derived_eigenvector(self):
        # leading eigenvector of [[0.75, 0.25], [0.25, 0.25]] is (cos pi/8, sin pi/8)
        p = system_eigenprojector(make_qc(0.5, np.pi / 4))
        v = np.array([np.cos(np.pi / 8), np.sin(np.pi / 8)])
        assert_allclose(p.matrix, np.outer(v, v), atol=1e-12)

    def test_degenerate_marginal_convention(self):
        p = system_eigenprojector(make_f(0.5))
        assert p.degenerate_source
        assert_allclose(p.matrix, np.diag([1.0, 0.0]))

    def test_real_degenerate_input_gives_complex_projectors_without_warning(self):
        rho = np.eye(4) / 4
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            projs, degenerate = eigenprojectors(rho)
            td, discord = td_values(rho, np.pi), discord_values(rho)
        assert projs.dtype == complex and degenerate
        assert np.array_equal(projs, np.diag([1.0, 0.0]))
        assert td == 0.0 and discord == 0.0


def _eigh_projectors(rho):
    """The projectors onto the eigenvector of the larger eigenvalue of each
    system marginal, by eigh, and the eigenvalue gaps |b|."""
    w, v = np.linalg.eigh(partial_trace(rho, 0))
    lead = v[..., :, 1]
    return lead[..., :, None] * lead.conj()[..., None, :], w[..., 1] - w[..., 0]


def _ginibre(seed, n, pure):
    """n random two-qubit states, pure or full-rank."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4))
    if pure:
        g = g[..., :1]
    rho = g @ np.swapaxes(g.conj(), -1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1)[:, None, None]


class TestBlochEigenprojector:
    """`eigenprojectors` reads the projector off the marginal's Bloch axis."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["QC", "CC", "F"]), st.floats(0.0, 1.0),
                              st.floats(0.0, np.pi / 2)), min_size=1, max_size=8))
    def test_agrees_with_eigh_on_the_families(self, params):
        rho = np.array([FamilyParams(f, lam, theta if f == "QC" else 0.0).build().mat
                        for f, lam, theta in params])
        projs, _ = eigenprojectors(rho)
        ref, gap = _eigh_projectors(rho)
        sharp = gap >= 0.1
        assert_allclose(projs[sharp], ref[sharp], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("pure", [False, True], ids=["mixed", "pure"])
    def test_agrees_with_eigh_on_random_states(self, pure):
        # eigh's own eigenvector is off by up to 1.7e-15 at |b| >= 0.1 on such
        # states (see the next test); the two agreed within 2.6e-15 on 10^6
        rho = _ginibre(61 + pure, 2000, pure)
        projs, degenerate = eigenprojectors(rho)
        ref, gap = _eigh_projectors(rho)
        sharp = gap >= 0.1
        assert sharp.sum() > 1000 and not degenerate.any()
        assert_allclose(projs[sharp], ref[sharp], rtol=0, atol=4e-15)

    @pytest.mark.parametrize("pure", [False, True], ids=["mixed", "pure"])
    def test_matches_a_50_digit_eigenvector(self, pure):
        rho = _ginibre(71 + pure, 40, pure)
        projs, _ = eigenprojectors(rho)
        _, gap = _eigh_projectors(rho)
        with mpmath.workdps(50):
            for r, p in zip(rho[gap >= 0.1], projs[gap >= 0.1]):
                m = mpmath.matrix(2, 2)  # the system marginal, summed in 50 digits
                for a in range(2):
                    for b in range(2):
                        m[a, b] = sum(mpmath.mpc(complex(r[2 * a + e, 2 * b + e])) for e in range(2))
                w, v = mpmath.eigh(m)
                k = int(w[1] > w[0])
                exact = np.array([[complex(v[a, k] * mpmath.conj(v[b, k])) for b in range(2)] for a in range(2)])
                assert np.abs(p - exact).max() <= 1e-15

    def test_runs_no_eigh(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        projs, degenerate = eigenprojectors(_ginibre(3, 5, False))
        assert projs.shape == (5, 2, 2) and not degenerate.any()
        assert system_eigenprojector(make_f(0.5)).degenerate_source


class TestDephase:
    def test_cc_invariant(self):
        rho = make_cc(0.64)
        out = dephase(rho, system_eigenprojector(rho))
        assert_allclose(out.mat, rho.mat, atol=1e-12)

    def test_qc_hand_expansion(self):
        # dephasing QC(0.5, pi/4) in its pi/8 eigenbasis factorizes the state
        rho = make_qc(0.5, np.pi / 4)
        out = dephase(rho, system_eigenprojector(rho))
        sigma = np.array([[0.75, 0.25], [0.25, 0.25]])
        assert_allclose(out.mat, kron(sigma, np.eye(2) / 2), atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            rho = rand_state(rng)
            p = system_eigenprojector(rho)
            once = dephase(rho, p)
            twice = dephase(once, p)
            assert np.abs(twice.mat - once.mat).max() < 1e-12

    def test_preserves_both_marginals(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            rho = rand_state(rng)
            out = dephase(rho, system_eigenprojector(rho))
            assert np.abs(partial_trace(out, 0).mat - partial_trace(rho, 0).mat).max() < 1e-12
            assert np.abs(partial_trace(out, 1).mat - partial_trace(rho, 1).mat).max() < 1e-12

    def test_rejects_a_projector_on_the_whole_state(self):
        with pytest.raises(ValueError, match="projector dimension"):
            dephase(make_cc(0.5), Projector(np.diag([1.0, 0.0, 0.0, 0.0])))

    def test_dephased_state_has_zero_discord(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            rho = rand_state(rng)
            out = dephase(rho, system_eigenprojector(rho))
            assert discord_T(out).value < 1e-9


class TestPhaseGate:
    def test_unitary(self):
        for phi in np.linspace(0, 2 * np.pi, 9):
            u = phase_gate(phi)
            assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-12

    def test_cc_invariant_at_pi(self):
        rho = make_cc(0.64)
        assert_allclose(phase_gate_evolve(rho, np.pi).mat, rho.mat, atol=1e-12)

    def test_identity_at_zero(self):
        rho = make_qc(0.5, np.pi / 4)
        assert_allclose(phase_gate_evolve(rho, 0.0).mat, rho.mat, atol=1e-15)

    def test_evolved_qc_marginal_hand_expansion(self):
        out = partial_trace(phase_gate_evolve(make_qc(0.5, np.pi / 4), np.pi), 0)
        assert_allclose(out.mat, [[0.75, -0.25], [-0.25, 0.25]], atol=1e-12)

    def test_invertible(self):
        rng = np.random.default_rng(24)
        rho = rand_state(rng)
        back = phase_gate_evolve(phase_gate_evolve(rho, 1.3), -1.3)
        assert np.abs(back.mat - rho.mat).max() < 1e-12


class TestHalfWavePlate:
    def test_involution_and_unitary(self):
        for alpha in np.linspace(0, np.pi, 13):
            v = half_wave_plate(alpha)
            assert np.abs(v @ v - np.eye(2)).max() < 1e-12
            assert np.abs(v - v.conj().T).max() < 1e-12

    def test_pi_8_is_hadamard_like(self):
        assert_allclose(half_wave_plate(np.pi / 8).real,
                        np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-12)


class TestApplyLocalSystem:
    def test_identity(self):
        rho = make_qc(0.4, 0.8)
        assert_allclose(apply_local_system(rho, np.eye(2)).mat, rho.mat, atol=1e-15)

    def test_environment_marginal_unchanged(self):
        rng = np.random.default_rng(25)
        for alpha in (0.1, np.pi / 8, 1.0):
            rho = rand_state(rng)
            out = apply_local_system(rho, half_wave_plate(alpha))
            assert np.abs(partial_trace(out, 1).mat - partial_trace(rho, 1).mat).max() < 1e-12

    def test_cc_blocks_rotated_hand_expansion(self):
        # HWP(pi/8) sends |H>, |V> to (|H>+|V>)/sqrt2, (|H>-|V>)/sqrt2
        out = apply_local_system(make_cc(0.64), half_wave_plate(np.pi / 8)).mat
        plus = np.full((2, 2), 0.5)
        minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
        assert_allclose(out[0::2, 0::2], 0.64 * plus, atol=1e-12)
        assert_allclose(out[1::2, 1::2], 0.36 * minus, atol=1e-12)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            apply_local_system(make_cc(0.5), np.diag([1.0, 0.5]))

    def test_rejects_a_non_finite_plate(self):
        with pytest.raises(ValueError, match="not finite"):
            apply_local_system(make_cc(0.5), half_wave_plate(np.nan))

    def test_invertible(self):
        rng = np.random.default_rng(26)
        rho = rand_state(rng)
        v = half_wave_plate(0.37)
        back = apply_local_system(apply_local_system(rho, v), v.conj().T)
        assert np.abs(back.mat - rho.mat).max() < 1e-12
