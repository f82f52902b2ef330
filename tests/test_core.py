"""Property tests for the batched array core: stacked calls against
batch-of-one calls and the brute-force oracle, and the physical
inequalities the witnesses must obey."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import oracle
from qdiscern import kernels
from qdiscern.channels import eigenprojectors, half_wave_plate, pinch
from qdiscern.linalg import DEGENERACY_GAP, partial_trace, random_density
from qdiscern.states import qc_matrices
from qdiscern.witness import discord_values, growth_values, td_values

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


@PROPERTY
@given(st.lists(st.tuples(lams, thetas), min_size=1, max_size=8), phis)
@example([(0.5, np.pi / 2), (0.3, 0.4)], np.pi)
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
    assert_allclose(kernels.td_qc_points(lam, theta, phi), generic, rtol=0, atol=TOL)
