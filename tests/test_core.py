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
from qdiscern.linalg import DEGENERACY_GAP, partial_trace
from qdiscern.protocol import ProtocolConfig, classify, growth_stat, td_stat
from qdiscern.states import FamilyParams, qc_matrices
from qdiscern.witness import discord_values, growth_values, td_values
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
    return random_density(np.random.default_rng(seed), 4, (2, 2)).mat


stacks = st.lists(states(), min_size=1, max_size=6).map(np.array)


@PROPERTY
@given(stacks, phis, angles)
# degenerate marginals (the |H><H| fallback projector) and a pure product state
@example(np.array([oracle.fact(0.5)]), np.pi, np.pi / 8)
@example(np.array([oracle.qc(0.5, np.pi / 2)]), np.pi, np.pi / 8)
@example(np.array([oracle.cc(0.0), oracle.cc(1.0)]), np.pi / 3, 0.3)
def test_stacked_equals_batch_of_one_and_oracle(rhos, phi, alpha):
    v = half_wave_plate(alpha)
    projs, _ = eigenprojectors(rhos)
    t, td, g = discord_values(rhos, projs), td_values(rhos, phi, projs), growth_values(rhos, v, phi)
    for i, r in enumerate(rhos):
        p1, _ = eigenprojectors(r)
        one = (discord_values(r, p1), td_values(r, phi, p1), growth_values(r, v, phi))
        assert_allclose([t[i], td[i], g[i]], one, rtol=0, atol=TOL)
        want = (oracle.discord(r), oracle.td_witness(r, phi), oracle.growth(r, v, phi))
        assert_allclose([t[i], td[i], g[i]], want, rtol=0, atol=TOL)


@PROPERTY
@given(stacks, phis)
def test_td_never_exceeds_t(rhos, phi):
    projs, _ = eigenprojectors(rhos)
    assert np.all(td_values(rhos, phi, projs) <= discord_values(rhos, projs) + TOL)


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
    rhos = qc_matrices(lam, theta)
    generic = td_values(rhos, phi, eigenprojectors(rhos)[0])
    kernel = np.diagonal(kernels.td_qc_grid(lam, theta, phi))
    assert_allclose(kernel, generic, rtol=0, atol=TOL)
    # a degenerate marginal takes |H><H|, whose Td is |b_x| / 2 at every phase
    degenerate = _bloch_radius(lam, theta) < DEGENERACY_GAP / 10
    half_bx = (1.0 - lam) * np.abs(np.sin(2 * theta)) / 2
    assert_allclose(kernel[degenerate], half_bx[degenerate], rtol=0, atol=TOL)


def _identity(x):
    return x


@PROPERTY
@given(stacks, phis)
def test_td_stat_with_identity_measure_is_td_values(rhos, phi):
    projs, _ = eigenprojectors(rhos)
    m = partial_trace(evolve(rhos, phi), 0)
    md = partial_trace(evolve(pinch(rhos, projs), phi), 0)
    td, est_m, est_md = td_stat(m, md, _identity)
    assert_allclose(td, td_values(rhos, phi, projs), rtol=0, atol=1e-15)
    assert est_m is m and est_md is md


@PROPERTY
@given(stacks, phis, angles)
def test_growth_stat_with_identity_measure_is_growth_values(rhos, phi, alpha):
    v = half_wave_plate(alpha)
    rho_u = rotate(rhos, v)
    marginals = [partial_trace(s, 0) for s in (rhos, rho_u, evolve(rhos, phi), evolve(rho_u, phi))]
    growth, estimates = growth_stat(marginals, _identity)
    assert_allclose(growth, growth_values(rhos, v, phi), rtol=0, atol=1e-15)
    assert all(e is m for e, m in zip(estimates, marginals))


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
