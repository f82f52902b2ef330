"""Property tests for the batched array core: stacked calls against
batch-of-one calls and the brute-force oracle, and the physical
inequalities the witnesses must obey."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import oracle
from qdiscern import kernels
from qdiscern.channels import eigenprojectors, evolve, half_wave_plate, pinch, rotate
from qdiscern.linalg import DEGENERACY_GAP, DensityMatrix, partial_trace
from qdiscern.protocol import (VERDICT_QC, ProtocolConfig, classify, growth_stat, stage1_marginals, stage2_marginals,
                               td_stat)
from qdiscern.states import FamilyParams, qc_matrices
from qdiscern.witness import (block_bloch, bloch_matrix, bloch_rotation, discord_T, discord_values,
                              growth_values, marginal_axis, td_values)
from random_states import random_density

TOL = 1e-12
PROPERTY = settings(max_examples=60, deadline=None)

lams = st.floats(0.0, 1.0)
thetas = st.floats(0.0, np.pi / 2)
phis = st.floats(-2 * np.pi, 2 * np.pi)
angles = st.floats(0.0, np.pi)


@st.composite
def states(draw):
    """A two-qubit state: a QC, CC or F family member or a random full-rank state."""
    kind = draw(st.sampled_from(["qc", "cc", "f", "random"]))
    if kind == "qc":
        return oracle.qc(draw(lams), draw(thetas))
    if kind == "cc":
        return oracle.cc(draw(lams))
    if kind == "f":
        return oracle.fact(draw(lams))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_density(np.random.default_rng(seed), 4).mat


stacks = st.lists(states(), min_size=1, max_size=6).map(np.array)


@PROPERTY
@given(stacks, phis, angles)
# degenerate marginals (the |H><H| fallback projector) and a pure product state
@example(np.array([oracle.fact(0.5)]), np.pi, np.pi / 8)
@example(np.array([oracle.qc(0.5, np.pi / 2)]), np.pi, np.pi / 8)
@example(np.array([oracle.cc(0.0), oracle.cc(1.0)]), np.pi / 3, 0.3)
def test_stacked_equals_batch_of_one_and_oracle(rhos, phi, alpha):
    v = half_wave_plate(alpha)
    t, td, g = discord_values(rhos), td_values(rhos, phi), growth_values(rhos, v, phi)
    for i, r in enumerate(rhos):
        one = (discord_values(r), td_values(r, phi), growth_values(r, v, phi))
        assert_allclose([t[i], td[i], g[i]], one, rtol=0, atol=TOL)
        want = (oracle.discord(r), oracle.td_witness(r, phi), oracle.growth(r, v, phi))
        assert_allclose([t[i], td[i], g[i]], want, rtol=0, atol=TOL)


@PROPERTY
@given(stacks, phis)
# beside the degenerate corner (1/2, pi/2), where Td is ill-conditioned
@example(np.array([oracle.qc(0.5 + 1e-6, np.pi / 2)]), np.pi)
@example(np.array([oracle.qc(0.5 + 1e-7, np.pi / 2)]), np.pi)
@example(np.array([oracle.qc(0.5 + 2e-9, np.pi / 2)]), np.pi)
def test_td_never_exceeds_t(rhos, phi):
    assert np.all(td_values(rhos, phi) <= discord_values(rhos) + TOL)


@PROPERTY
@given(stacks)
def test_dephasing_is_idempotent_and_keeps_both_marginals(rhos):
    projs, degenerate = eigenprojectors(rhos)
    once = pinch(rhos, projs)
    assert_allclose(pinch(once, projs), once, rtol=0, atol=TOL)
    assert_allclose(partial_trace(once, 1), partial_trace(rhos, 1), rtol=0, atol=TOL)
    # the |H><H| fallback of a degenerate marginal commutes with it only up to the gap
    atol = np.where(degenerate, DEGENERACY_GAP, TOL)[:, None, None]
    assert np.all(np.abs(partial_trace(once, 0) - partial_trace(rhos, 0)) <= atol)


@PROPERTY
@given(st.lists(lams, min_size=1, max_size=6), phis, angles)
def test_factorized_states_never_grow(lam_list, phi, alpha):
    rhos = np.array([oracle.fact(lam) for lam in lam_list])
    assert np.all(growth_values(rhos, half_wave_plate(alpha), phi) <= TOL)


def _bloch_radius(lam, theta):
    w = 1.0 - lam
    return np.hypot(2 * w * np.cos(theta) * np.sin(theta), lam + w * np.cos(2 * theta))


# inside the degeneracy gap but off the exact corner (radius 3.6e-11 and 4.5e-11)
_INSIDE_GAP = [(0.5 + 1e-11, np.pi / 2 - 3e-11), (0.5 - 2e-11, np.pi / 2 - 2e-11)]


@PROPERTY
@given(st.lists(st.tuples(lams, thetas), min_size=1, max_size=8), phis)
@example([(0.5, np.pi / 2), (0.3, 0.4)], np.pi)
@example(_INSIDE_GAP, np.pi)
@example(_INSIDE_GAP, 1.0)
@example(_INSIDE_GAP, 0.0)
def test_closed_form_kernel_equals_generic_td(points, phi):
    # Near (but not at) a degenerate marginal the eigenvector is ill-conditioned
    # (error ~ eps / radius), so compare only well-separated or degenerate points.
    points = [p for p in points
              if _bloch_radius(*p) > 1e-3 or _bloch_radius(*p) < DEGENERACY_GAP / 10]
    if not points:
        return
    lam, theta = np.array(points).T
    generic = td_values(qc_matrices(lam, theta), phi)
    kernel = np.diagonal(kernels.td_qc_grid(lam, theta, phi))
    assert_allclose(kernel, generic, rtol=0, atol=TOL)
    # a degenerate marginal takes |H><H|, whose Td is |b_x| / 2 at every phase
    degenerate = _bloch_radius(lam, theta) < DEGENERACY_GAP / 10
    half_bx = (1.0 - lam) * np.abs(np.sin(2 * theta)) / 2
    assert_allclose(kernel[degenerate], half_bx[degenerate], rtol=0, atol=TOL)


def _identity(x):
    return x


def _bloch(m):
    """Bloch vectors (3, ...) of stacked qubit matrices (..., 2, 2)."""
    return np.array([2 * m[..., 1, 0].real, 2 * m[..., 1, 0].imag, m[..., 0, 0].real - m[..., 1, 1].real])


def _stage1_marginals(rhos, phi):
    """The Bloch vectors of the evolved system marginals of rhos and of
    rhos pinched along their marginal axis, as simulated mode computes them,
    and through the 4x4 matrices."""
    n_hat = marginal_axis(rhos)[0]
    bloch = stage1_marginals(block_bloch(rhos), n_hat, phi)
    dephased = pinch(rhos, bloch_matrix(n_hat))
    matrix = _bloch(partial_trace(evolve(rhos, phi), 0)), _bloch(partial_trace(evolve(dephased, phi), 0))
    return bloch, matrix


def _stage2_marginals(rhos, v, phi):
    """The Bloch vectors of the system marginals of (rho, rho_u, rho(t),
    rho_u(t)), as simulated mode computes them, and through the 4x4 matrices."""
    bloch = stage2_marginals(block_bloch(rhos), bloch_rotation(v), phi)
    rho_u = rotate(rhos, v)
    matrix = [_bloch(partial_trace(s, 0)) for s in (rhos, rho_u, evolve(rhos, phi), evolve(rho_u, phi))]
    return bloch, matrix


@PROPERTY
@given(stacks, phis)
def test_td_stat_with_identity_measure_is_td_values(rhos, phi):
    (m, md), (m_mat, md_mat) = _stage1_marginals(rhos, phi)
    assert_allclose(m, m_mat, rtol=0, atol=1e-15)
    assert_allclose(md, md_mat, rtol=0, atol=1e-15)
    td, est_m, est_md = td_stat(m, md, _identity)
    assert_allclose(td, td_values(rhos, phi), rtol=0, atol=1e-15)
    assert est_m is m and est_md is md


@PROPERTY
@given(stacks, phis, angles)
def test_growth_stat_with_identity_measure_is_growth_values(rhos, phi, alpha):
    v = half_wave_plate(alpha)
    marginals, matrix = _stage2_marginals(rhos, v, phi)
    assert_allclose(marginals, matrix, rtol=0, atol=1e-15)
    growth, estimates = growth_stat(marginals, _identity)
    assert_allclose(growth, growth_values(rhos, v, phi), rtol=0, atol=1e-15)
    assert all(e is m for e, m in zip(estimates, marginals))


@PROPERTY
@given(stacks, phis, angles)
@example(np.array([oracle.fact(0.5), oracle.qc(0.3, 0.4)]), np.pi, np.pi / 8)
@example(np.array([oracle.qc(0.5, np.pi / 2), oracle.cc(0.64)]), 1.0, 0.3)
def test_projectors_pinch_and_stage_statistics_are_batches_of_one(rhos, phi, alpha):
    # each stacked call equals its one-state calls bit for bit, degenerate
    # marginals (the |H><H| fallback) included
    v = half_wave_plate(alpha)

    def stage_values(r):
        projs, degenerate = eigenprojectors(r)
        (m, md), _ = _stage1_marginals(r, phi)
        td, _, _ = td_stat(m, md, _identity)
        growth, _ = growth_stat(_stage2_marginals(r, v, phi)[0], _identity)
        return projs, degenerate, pinch(r, projs), td, growth

    stacked = stage_values(rhos)
    for i, r in enumerate(rhos):
        for whole, one in zip(stacked, stage_values(r)):
            assert np.array_equal(whole[i], one)


# states whose system marginal is degenerate at lambda = 1/2, with their verdict
NEAR_DEGENERATE = {("CC", 0.0): "CC", ("F", 0.0): "F", ("QC", np.pi / 2): "CC"}


@PROPERTY
@given(st.sampled_from(sorted(NEAR_DEGENERATE)), st.floats(-1e-9, 1e-9))
@example(("QC", np.pi / 2), 0.0)
@example(("CC", 0.0), DEGENERACY_GAP / 2)
@example(("F", 0.0), -DEGENERACY_GAP / 2)
def test_exact_verdicts_stable_at_near_degenerate_marginals(family, delta):
    name, theta = family
    res = classify(FamilyParams(name, 0.5 + delta, theta).build(), ProtocolConfig())
    assert res.verdict == NEAR_DEGENERATE[family]


_U = 2.0 ** -53  # unit roundoff


def _perturbations(rho, seed, k=3):
    """States whose entries each lie within k units of roundoff of rho's
    (real and imaginary parts apart), kept Hermitian: eight random ones, and
    rho with every part smaller than k u set to 0."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(8):
        e = rng.uniform(-k * _U, k * _U, (4, 4)) + 1j * rng.uniform(-k * _U, k * _U, (4, 4))
        upper = np.triu(rho + e, 1)
        out.append(upper + upper.conj().T + np.diag(np.diag(rho + e).real))
    flush = np.where(np.abs(rho.real) < k * _U, 0, rho.real) + 1j * np.where(np.abs(rho.imag) < k * _U, 0, rho.imag)
    return out + [flush]


@st.composite
def decision_states(draw):
    """QC states beside the degenerate corner (1/2, pi/2), where Td is
    ill-conditioned, the near-degenerate states of NEAR_DEGENERATE, and the
    states of `states()`."""
    kind = draw(st.sampled_from(["corner", "near-degenerate", "any"]))
    if kind == "corner":
        lam = 0.5 + draw(st.floats(-1e-6, 1e-6))
        return oracle.qc(lam, np.pi / 2 - draw(st.floats(0.0, 1e-6)))
    if kind == "near-degenerate":
        name, theta = draw(st.sampled_from(sorted(NEAR_DEGENERATE)))
        return FamilyParams(name, 0.5 + draw(st.floats(-1e-6, 1e-6)), theta).build().mat
    return draw(states())


@PROPERTY
@given(decision_states(), st.integers(0, 2**32 - 1), st.sampled_from([np.pi, 1.0]))
@example(oracle.qc(0.5 + 1e-9, np.pi / 2), 0, np.pi)
@example(oracle.qc(0.5 - 3e-8, np.pi / 2), 1, 1.0)
@example(oracle.qc(0.5 + 1e-7, np.pi / 2 - 1e-8), 2, np.pi)
def test_a_verdict_past_its_margin_survives_roundoff(rho, seed, phi):
    # A positive stage-1 margin Td - eps - beta, or Td below eps by more than
    # beta with growth off eps by more than its O(u) rounding, fixes the
    # verdict for every state within three units of roundoff of rho.
    config = ProtocolConfig(phi=phi)
    res = classify(DensityMatrix(rho), config)
    td, threshold = res.td_report.value, res.thresholds_used["stage1_threshold"]
    beta = threshold - config.exact_epsilon
    if res.verdict == VERDICT_QC:
        assert td - threshold > 0
    elif not (config.exact_epsilon - td > beta
              and abs(res.growth_report.value - config.exact_epsilon) > 1e-13):
        return
    for nearby in _perturbations(rho, seed):
        assert classify(DensityMatrix(nearby), config).verdict == res.verdict


def test_exact_classify_runs_no_eigh(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("exact classify called np.linalg.eigh")

    states = [FamilyParams("QC", 0.7, np.pi / 4).build(), FamilyParams("CC", 0.64).build(),
              FamilyParams("F", 0.65).build(), FamilyParams("QC", 0.5 + 2e-9, np.pi / 2).build(),
              FamilyParams("F", 0.5).build()]
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    verdicts = [classify(s, ProtocolConfig(emit_states=emit)).verdict for s in states for emit in (False, True)]
    assert verdicts == ["QC", "QC", "CC", "CC", "F", "F", "CC", "CC", "F", "F"]
    # nor do T, on these states and on one with coherent blocks, and the sweep kernels
    states.append(random_density(np.random.default_rng(3), 4))
    assert [discord_T(s).value for s in states] == list(discord_values(np.array([s.mat for s in states])))
    lams, thetas = np.linspace(0, 1, 7), np.linspace(0, np.pi / 2, 5)
    for grid in (kernels.t_qc_grid(lams, thetas), kernels.td_qc_grid(lams, thetas, np.pi),
                 kernels.growth_qc_grid(lams, thetas, np.pi / 8, np.pi)):
        assert grid.shape == (7, 5)
