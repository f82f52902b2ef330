import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import oracle
from qdiscern import witness
from qdiscern.channels import _gate_diagonal, eigenprojectors, half_wave_plate
from qdiscern.linalg import NumericalError, kron, partial_trace, trace_distances, trace_norm
from qdiscern.states import make_cc, make_f, make_qc
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
        projs, _ = eigenprojectors(rho)
        phis = np.array(phis)
        at_pi = witness.td_values(rho, np.pi, projs)
        assert_allclose(witness.td_values(rho, phis, projs), np.abs(np.sin(phis / 2)) * at_pi,
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

    def test_factorized_never_grows(self):
        for lam in np.linspace(0, 1, 8):
            for alpha in np.linspace(0, np.pi / 2, 5):
                for phi in np.linspace(0, 2 * np.pi, 5):
                    v = witness_growth(make_f(lam), half_wave_plate(alpha), phi).value
                    assert v <= 1e-9


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


def _per_call_td(rho, phi, projs):
    c, ket, perp = witness._coherence(rho, projs)
    x = np.diagonal(c, axis1=-2, axis2=-1)[..., None, None] \
        * (ket[..., :, None] * perp.conj()[..., None, :])[..., None, :, :]
    m = _per_call_evolved_marginal(x + np.swapaxes(x.conj(), -1, -2), phi)
    m00, m10 = m[..., 0, 0].real, m[..., 1, 0]
    return np.sqrt(m00 ** 2 + m10.real ** 2 + m10.imag ** 2)


def _per_call_growth(rho, v, phi):
    m = partial_trace(rho, 0)
    t0 = trace_distances(_per_call_sandwich(v, m, v), m)
    blocks = witness._blocks(rho)
    vb = v[..., None, :, :]
    t1 = 0.5 * trace_norm(_per_call_evolved_marginal(_per_call_sandwich(vb, blocks, vb) - blocks, phi))
    return t1 - t0


def _ginibre_case(seed, n, stacked_phi, stacked_v):
    """n Ginibre states with their eigenprojectors, and a phase and a system
    unitary that are each shared or one per state."""
    rng = np.random.default_rng(seed)
    rho = np.array([random_density(rng, 4, (2, 2)).mat for _ in range(n)])
    phi = rng.uniform(-10, 10, n) if stacked_phi else float(rng.uniform(-10, 10))
    v = (np.array([random_unitary(rng, 2) for _ in range(n)]) if stacked_v
         else half_wave_plate(rng.uniform(0, np.pi)))
    return rho, phi, v, eigenprojectors(rho)[0]


class TestPerCallForms:
    """Td and growth agree with reference forms that build the 2x2 evolved
    marginal with D_1 sliced from U's diagonal, a superoperator per sandwich,
    and take growth's phi = 0 term from the system marginal. The witnesses
    take a different floating-point path on purpose (the phase applied to
    M_10 in real arithmetic), so they agree to a bound, not bit for bit: on
    46450 Ginibre states the worst gap was 5.6e-17 for Td and 4.4e-16 for
    growth."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.booleans(), st.booleans())
    def test_td_and_growth_equal_the_per_call_forms(self, seed, n, stacked_phi, stacked_v):
        rho, phi, v, projs = _ginibre_case(seed, n, stacked_phi, stacked_v)
        assert_allclose(witness.td_values(rho, phi, projs), _per_call_td(rho, phi, projs),
                        rtol=0, atol=1e-15)
        assert_allclose(witness.growth_values(rho, v, phi), _per_call_growth(rho, v, phi),
                        rtol=0, atol=1e-15)


class TestStackedCalls:
    """A stacked witness call equals its one-row calls bit for bit: a scalar
    call is a batch of one."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 100), st.booleans(), st.booleans())
    def test_stacked_call_equals_one_state_calls(self, seed, n, stacked_phi, stacked_v):
        rho, phi, v, projs = _ginibre_case(seed, n, stacked_phi, stacked_v)
        td = witness.td_values(rho, phi, projs)
        growth = witness.growth_values(rho, v, phi)
        for i in range(n):
            phi_i = phi[i] if stacked_phi else phi
            v_i = v[i] if stacked_v else v
            assert np.array_equal(witness.td_values(rho[i], phi_i, projs[i]), td[i])
            assert np.array_equal(witness.growth_values(rho[i], v_i, phi_i), growth[i])
