import json
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qdiscern import tomography
from qdiscern.linalg import PROB_DRIFT_TOL, DensityMatrix, trace_distance
from qdiscern.states import make_cc, make_f, make_qc
from qdiscern.tomography import (
    MeasurementSetting,
    TomographyRecord,
    bloch_estimates,
    bloch_probabilities,
    default_settings,
    linear_inversion,
    outcome_probabilities,
    project_to_physical,
    reconstruct,
    reconstruct_batch,
    sample_bloch,
    sample_frequencies,
    sample_reconstructions,
    simulate_counts,
)
from qdiscern.witness import bloch_matrix
from random_states import random_density

KET_H_STATE = DensityMatrix(np.diag([1.0, 0.0]).astype(complex), (2,))
MIXED = DensityMatrix(np.eye(2, dtype=complex) / 2, (2,))
PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


class TestDefaultSettings:
    def test_single_qubit_structure(self):
        settings = default_settings(1)
        assert [s.label for s in settings] == ["Z", "X", "Y"]
        assert all(len(s.projectors) == 2 for s in settings)

    def test_two_qubit_structure(self):
        settings = default_settings(2)
        assert len(settings) == 9
        assert all(len(s.projectors) == 4 for s in settings)

    def test_completeness(self):
        # every default setting is a complete set of rank-1 orthogonal projectors
        for n in (1, 2):
            for s in default_settings(n):
                projs = s.projectors
                assert np.abs(projs - np.swapaxes(projs.conj(), -1, -2)).max() < 1e-15
                assert np.abs(projs @ projs - projs).max() < 1e-15
                assert np.abs(np.trace(projs, axis1=-2, axis2=-1) - 1.0).max() < 1e-15
                assert np.abs(projs.sum(axis=0) - np.eye(2 ** n)).max() < 1e-12

    def test_unsupported_size(self):
        with pytest.raises(ValueError):
            default_settings(3)

    def test_projectors_are_read_only(self):
        with pytest.raises(ValueError, match="read-only"):
            default_settings(2)[0].projectors[0, 0, 0] = 0


class TestMeasurementSetting:
    @pytest.mark.parametrize("label", ["", "Q", "ZZZ", "zx", 3])
    def test_unknown_label_rejected_naming_it(self, label):
        with pytest.raises(ValueError, match=re.escape(f"unknown setting label {label!r}")):
            MeasurementSetting(label)

    def test_equal_labels_are_equal_settings(self):
        a, b = MeasurementSetting("ZX"), MeasurementSetting("ZX")
        assert a == b and hash(a) == hash(b)
        assert a != MeasurementSetting("XZ")
        assert default_settings(2)[1] == a

    def test_record_hashes_and_compares(self):
        settings = default_settings(1)
        a = simulate_counts(MIXED, settings, 100, 4)
        b = simulate_counts(MIXED, [MeasurementSetting(s.label) for s in settings], 100, 4)
        assert a == b and hash(a) == hash(b)


class TestSimulateCounts:
    def test_deterministic_outcome(self):
        rec = simulate_counts(KET_H_STATE, [MeasurementSetting("Z")], 1000, 5)
        assert rec.counts[0] == (1000, 0)

    def test_determinism_contract(self):
        settings = default_settings(2)
        a = simulate_counts(make_qc(0.7, 0.8), settings, 5000, 99)
        b = simulate_counts(make_qc(0.7, 0.8), settings, 5000, 99)
        assert a.counts == b.counts

    def test_binomial_statistics(self):
        # mean N/2 and std sqrt(N/4) across seeds for the maximally mixed state
        n = 400
        heads = np.array([
            simulate_counts(MIXED, [MeasurementSetting("Z")], n, seed).counts[0][0]
            for seed in range(600)
        ])
        assert abs(heads.mean() - n / 2) < 3 * np.sqrt(n / 4) / np.sqrt(600) * 3
        assert abs(heads.std() - np.sqrt(n / 4)) < 2.0

    def test_neighbouring_seeds_draw_apart(self):
        # seed s's X counts must not be seed s+1's Z counts; two independent
        # Binomial(1000, 1/2) draws are equal with chance 0.018
        runs = [simulate_counts(MIXED, default_settings(1), 1000, seed).counts for seed in range(51)]
        assert sum(runs[s][1] == runs[s + 1][0] for s in range(50)) <= 3

    @pytest.mark.parametrize("counts,shots", [
        ([[-20, 120]], 100), ([[0.5, 99.5]], 100), ([[True, 99]], 100), ([[0, 0]], 0),
    ], ids=["negative", "fractional", "boolean", "zero-shots"])
    def test_invalid_counts_or_shots_rejected(self, counts, shots):
        with pytest.raises(ValueError, match="must be"):
            TomographyRecord.from_json({"settings": ["Z"], "counts": counts, "shots": shots, "seed": 0})

    def test_counts_sum_checked(self):
        settings = default_settings(1)
        with pytest.raises(ValueError):
            TomographyRecord(tuple(settings), ((3, 4), (5, 5), (5, 5)), 10, 0)

    @pytest.mark.parametrize("labels,counts", [
        (["Z", "X", "Y"], [[5, 5]]), (["Z"], [[5, 5], [5, 5], [5, 5]]),
    ], ids=["fewer-counts", "more-counts"])
    def test_one_count_tuple_per_setting(self, labels, counts):
        with pytest.raises(ValueError, match="one count tuple per setting"):
            TomographyRecord.from_json({"settings": labels, "counts": counts, "shots": 10, "seed": 0})

    @pytest.mark.parametrize("seed", [None, True, 1.5, "3", -1],
                             ids=["null", "boolean", "fractional", "string", "negative"])
    def test_invalid_seed_rejected(self, seed):
        # a record's seed fixes its bootstrap stream, so it must be a valid one
        with pytest.raises(ValueError, match="seed"):
            TomographyRecord.from_json({"settings": ["Z"], "counts": [[5, 5]], "shots": 10, "seed": seed})

    def test_numpy_integers_stored_as_python_ints(self):
        rec = simulate_counts(make_cc(0.64), default_settings(2), np.int64(1000), np.int64(3))
        assert type(rec.seed) is int and type(rec.shots_per_setting) is int
        assert json.loads(json.dumps(rec.to_json()))["seed"] == 3

    def test_count_tuple_of_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="counts shape"):
            TomographyRecord.from_json({"settings": ["Z"], "counts": [[5, 3, 2]], "shots": 10, "seed": 0})

    @pytest.mark.parametrize("shots", [0, -5])
    def test_non_positive_shots_rejected(self, shots):
        with pytest.raises(ValueError, match="shots must be positive"):
            simulate_counts(MIXED, default_settings(1), shots, 0)

    @pytest.mark.parametrize("state,n_qubits,message", [
        (make_cc(0.64), 1, "'Z' measures 1 qubit.*dimension 4"),
        (np.eye(2, dtype=complex) / 2, 2, "'ZZ' measures 2 qubit.*dimension 2"),
    ], ids=["two-qubit-state", "one-qubit-state"])
    def test_settings_for_another_qubit_count_rejected(self, state, n_qubits, message):
        with pytest.raises(ValueError, match=message):
            simulate_counts(state, default_settings(n_qubits), 100, 3)

    def test_empty_settings_rejected(self):
        with pytest.raises(ValueError, match="no measurement setting was given"):
            simulate_counts(make_cc(0.64), [], 100, 3)

    def test_record_without_settings_rejected(self):
        with pytest.raises(ValueError, match="no measurement setting was given"):
            TomographyRecord((), (), 100, 3)

    def test_invalid_probabilities_rejected(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="drift"):
            outcome_probabilities(bad, [MeasurementSetting("Z")])


def _trace_form(rho, settings):
    """Born probabilities (n, M) as k traces Tr(P rho) per setting."""
    projs = np.concatenate([s.projectors for s in settings])
    return np.trace(projs @ rho[:, None], axis1=-2, axis2=-1).real


@st.composite
def state_stacks(draw, dim):
    """1 to 200 states (n, d, d): Ginibre-mixed, pure, 1/d, or (d = 4) a
    maximally mixed system marginal, product or maximally entangled."""
    n = draw(st.integers(1, 200))
    kind = draw(st.sampled_from(["mixed", "pure", "identity", "degenerate-product",
                                 "degenerate-entangled"] if dim == 4 else ["mixed", "pure", "identity"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.normal(size=(n, dim, dim)) + 1j * rng.normal(size=(n, dim, dim))
    if kind == "identity":
        return np.broadcast_to(np.eye(dim, dtype=complex) / dim, (n, dim, dim)).copy()
    if kind == "pure":
        g = g[..., :1]
    elif kind == "degenerate-product":
        g = np.kron(np.eye(2), g[:, :2, :2])
    elif kind == "degenerate-entangled":
        # (1 x V)|Phi+> = sum_i |i> x V|i>, V unitary: both marginals are 1/2
        g = np.swapaxes(np.linalg.qr(g[:, :2, :2])[0], -1, -2).reshape(n, 4, 1)
    rho = g @ np.swapaxes(g.conj(), -1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1)[:, None, None]


class TestOutcomeProbabilities:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1, 2]).flatmap(lambda n: st.tuples(st.just(n), state_stacks(2 ** n))))
    def test_design_rows_match_trace_form(self, case):
        n_qubits, rho = case
        settings_ = default_settings(n_qubits)
        got = np.moveaxis(np.array(outcome_probabilities(rho, settings_)), 0, -2)
        assert_allclose(got.reshape(len(rho), -1), _trace_form(rho, settings_), rtol=0, atol=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1, 2]).flatmap(lambda n: st.tuples(st.just(n), state_stacks(2 ** n))))
    def test_stacked_call_equals_one_state_calls(self, case):
        n_qubits, rho = case
        settings_ = default_settings(n_qubits)
        stacked = np.moveaxis(np.array(outcome_probabilities(rho, settings_)), 0, -2)
        assert np.array_equal(stacked, np.array([outcome_probabilities(r, settings_) for r in rho]))

    @pytest.mark.parametrize("n_qubits", [1, 2])
    def test_drift_in_any_one_setting_raises(self, n_qubits):
        # 1/d + 1.5 (sigma_a x sigma_b ...)/d: negative probability in setting (a, b, ...)
        # only; every other setting's Pauli term has zero mean
        settings_ = default_settings(n_qubits)
        sigma = {"Z": PAULIS[2], "X": PAULIS[0], "Y": PAULIS[1]}
        good = np.eye(2 ** n_qubits, dtype=complex) / 2 ** n_qubits
        for bad_setting in settings_:
            paulis = [sigma[b] for b in bad_setting.label]
            bad = good + 1.5 * (paulis[0] if n_qubits == 1 else np.kron(*paulis)) / 2 ** n_qubits
            for stack in (bad, np.array([good, bad, good])):
                with pytest.raises(ValueError, match="drift"):
                    outcome_probabilities(stack, settings_)

    def test_one_incomplete_setting(self):
        # the forward map needs no informationally complete design; inversion does
        z = [MeasurementSetting("Z")]
        (p,) = outcome_probabilities(MIXED.mat, z)
        assert_allclose(p, [0.5, 0.5], rtol=0, atol=1e-15)
        assert np.array_equal(outcome_probabilities(KET_H_STATE.mat, z)[0], [1.0, 0.0])
        with pytest.raises(ValueError, match="singular"):
            linear_inversion(z, p)


@st.composite
def bloch_stacks(draw):
    """1 to 50 Bloch vectors (3, n) of one kind: inside the unit ball, on
    it (pure states), at the centre, or on an axis."""
    n = draw(st.integers(1, 50))
    kind = draw(st.sampled_from(["mixed", "pure", "centre", "axis"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = rng.normal(size=(3, n))
    v /= np.sqrt((v * v).sum(axis=0))
    if kind == "mixed":
        v *= rng.uniform(size=n)
    elif kind == "centre":
        v *= 0.0
    elif kind == "axis":
        v = np.zeros((3, n))
        v[rng.integers(0, 3, n), np.arange(n)] = rng.choice([-1.0, 1.0], n)
    return v


# the default list, one with an axis measured twice, and one with two axes measured twice
LABEL_LISTS = [("Z", "X", "Y"), ("X", "Y", "Z", "Z"), ("Y", "Y", "X", "Z", "X")]
label_lists = st.sampled_from(LABEL_LISTS).map(lambda labels: [MeasurementSetting(c) for c in labels])


class TestBlochCore:
    """One-qubit tomography in Bloch coordinates."""

    @settings(max_examples=100, deadline=None)
    @given(bloch_stacks(), label_lists)
    def test_probabilities_match_trace_form(self, s, settings_):
        got = np.moveaxis(np.array(bloch_probabilities(s, settings_)), 0, 1).reshape(s.shape[1], -1)
        assert_allclose(got, _trace_form(bloch_matrix(s), settings_), rtol=0, atol=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(bloch_stacks(), label_lists, st.integers(0, 2**32 - 1))
    def test_stacked_calls_equal_one_row_calls(self, s, settings_, seed):
        probs = bloch_probabilities(s, settings_)
        for i in range(s.shape[1]):
            assert all(np.array_equal(p[i], q) for p, q in zip(probs, bloch_probabilities(s[:, i], settings_)))
        # at 50 shots most estimates of a pure state lie outside the unit ball
        freqs = sample_frequencies(probs, 50, s.shape[1], seed)
        estimates = bloch_estimates(settings_, freqs)
        physical = tomography._unit_ball(estimates)
        for i, f in enumerate(freqs):
            assert np.array_equal(estimates[:, i], bloch_estimates(settings_, f))
            assert np.array_equal(physical[:, i], tomography._unit_ball(estimates[:, i]))

    @settings(max_examples=100, deadline=None)
    @given(bloch_stacks(), label_lists)
    def test_exact_frequencies_recover_the_bloch_vector(self, s, settings_):
        freqs = np.concatenate(bloch_probabilities(s, settings_), axis=-1)
        assert_allclose(bloch_estimates(settings_, freqs), s, rtol=0, atol=1e-15)
        assert_allclose(tomography._unit_ball(s), s, rtol=0, atol=1e-15)

    def test_an_axis_without_a_setting_is_singular(self):
        settings_ = [MeasurementSetting("Z"), MeasurementSetting("X"), MeasurementSetting("X")]
        (pz, px, _) = bloch_probabilities(np.array([0.0, 0.0, 1.0]), settings_)
        assert np.array_equal(pz, [1.0, 0.0]) and np.array_equal(px, [0.5, 0.5])
        with pytest.raises(ValueError, match="singular"):
            bloch_estimates(settings_, np.ones(6) / 2)

    @pytest.mark.parametrize("component", [0, 1, 2])
    def test_drift_raises_and_rounding_is_clamped(self, component):
        settings_ = default_settings(1)
        s = np.zeros(3)
        s[component] = -(1.0 + 3 * PROB_DRIFT_TOL)
        with pytest.raises(ValueError, match="drift"):
            bloch_probabilities(s, settings_)
        s[component] = -(1.0 + PROB_DRIFT_TOL)
        probs = np.array(bloch_probabilities(s, settings_))
        assert probs.min() == 0.0 and probs.max() == 1.0

    def test_matrix_callers_take_the_bloch_path(self):
        rho = random_density(np.random.default_rng(54), 2).mat
        s, settings_ = tomography._bloch(rho), default_settings(1)
        assert np.array_equal(sample_reconstructions(rho, settings_, 1000, 30, 5),
                              bloch_matrix(sample_bloch(s, settings_, 1000, 30, 5)))
        freqs = sample_frequencies(bloch_probabilities(s, settings_), 50, 30, 6)
        assert np.array_equal(linear_inversion(settings_, freqs), bloch_matrix(bloch_estimates(settings_, freqs)))


class TestLinearInversion:
    @pytest.mark.parametrize("rho", [make_cc(0.64), make_qc(0.7, np.pi / 4), make_f(0.65)])
    def test_exact_probabilities_recover_state(self, rho):
        settings = default_settings(2)
        freqs = np.concatenate(outcome_probabilities(rho.mat, settings))
        est = linear_inversion(settings, freqs)
        assert np.abs(est - rho.mat).max() < 1e-10

    def test_single_qubit_exact(self):
        rng = np.random.default_rng(51)
        settings = default_settings(1)
        for _ in range(10):
            rho = random_density(rng, 2)
            freqs = np.concatenate(outcome_probabilities(rho.mat, settings))
            assert np.abs(linear_inversion(settings, freqs) - rho.mat).max() < 1e-10

    def test_singular_design_rejected(self):
        settings = [MeasurementSetting("Z")]
        with pytest.raises(ValueError, match="singular"):
            linear_inversion(settings, np.array([0.5, 0.5]))


class TestProjectToPhysical:
    def test_valid_state_unchanged(self):
        rho = make_qc(0.6, 1.0)
        out = project_to_physical(rho.mat)
        assert np.abs(out.mat - rho.mat).max() < 1e-12

    def test_single_negative_eigenvalue(self):
        out = project_to_physical(np.diag([1.1, -0.1]).astype(complex))
        assert_allclose(out.mat, np.diag([1.0, 0.0]), atol=1e-12)

    def test_random_perturbations_become_physical(self):
        rng = np.random.default_rng(52)
        for _ in range(50):
            rho = random_density(rng, 4, (2, 2))
            noise = rng.normal(scale=0.02, size=(4, 4))
            h = rho.mat + (noise + noise.T) / 2
            h -= np.eye(4) * (h.trace().real - 1.0) / 4
            out = project_to_physical(h)
            w = np.linalg.eigvalsh(out.mat)
            assert w.min() >= -1e-12
            assert abs(out.mat.trace().real - 1.0) < 1e-12

    def test_idempotent(self):
        h = np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)
        once = project_to_physical(h)
        twice = project_to_physical(once.mat)
        assert np.abs(twice.mat - once.mat).max() < 1e-12

    def test_trace_too_far_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            project_to_physical(np.eye(2, dtype=complex))

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            project_to_physical(np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex))


def _simplex_projection(w):
    """Euclidean projection of each row of w onto {x >= 0, sum x = sum w}:
    max(w - tau, 0), with tau found by bisection."""
    s = w.sum(axis=-1, keepdims=True)
    lo = np.minimum(w.min(axis=-1, keepdims=True), 0.0) - 1.0
    hi = w.max(axis=-1, keepdims=True)
    for _ in range(200):
        tau = (lo + hi) / 2
        above = np.maximum(w - tau, 0.0).sum(axis=-1, keepdims=True) > s
        lo, hi = np.where(above, tau, lo), np.where(above, hi, tau)
    return np.maximum(w - (lo + hi) / 2, 0.0)


@st.composite
def spectra(draw):
    """1 to 6 ascending spectra (n, d) of sum 1, d = 2 .. 6, with up to 3
    entries of each set exactly to zero."""
    d = draw(st.integers(2, 6))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        w = np.array(draw(st.lists(st.floats(-0.5, 1.0), min_size=d, max_size=d)))
        w[draw(st.lists(st.integers(0, d - 1), max_size=3, unique=True))] = 0.0
        assume(w.sum() > 1e-3)
        rows.append(np.sort(w / w.sum()))
    return np.array(rows)


@settings(max_examples=300, deadline=None)
@given(spectra())
@example(np.array([[-0.1, -0.1, 0.5, 0.7]]))
@example(np.array([[0.0, 0.0, 0.0, 1.0]]))
def test_truncate_rescale_is_the_simplex_projection(w):
    out = tomography._truncate_rescale(w)
    assert_allclose(out, _simplex_projection(w), rtol=0, atol=1e-12)
    assert_allclose(out.sum(axis=-1), w.sum(axis=-1), rtol=0, atol=1e-12)
    assert out.min() >= 0.0


def _eigh_physical(h):
    """Reference projection: eigh, the truncate-and-rescale sweep, rebuild."""
    tr = np.trace(h, axis1=-2, axis2=-1).real
    w, v = np.linalg.eigh(h / tr[..., None, None])
    w = tomography._truncate_rescale(w)
    w /= w.sum(axis=-1, keepdims=True)
    return (v * w[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


@st.composite
def qubit_hermitians(draw):
    """t (1 + n.sigma)/2 with |n| inside, on or outside the unit ball and
    trace t off 1 by up to 5%."""
    radius = draw(st.one_of(st.floats(0.0, 1.0), st.just(1.0), st.floats(1.0, 2.0)))
    direction = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)
                              .filter(lambda v: np.linalg.norm(v) > 1e-3)))
    n = radius * direction / np.linalg.norm(direction)
    return draw(st.floats(0.95, 1.05)) * (np.eye(2) + np.tensordot(n, PAULIS, 1)) / 2


@settings(max_examples=200, deadline=None)
@given(st.lists(qubit_hermitians(), min_size=1, max_size=6).map(np.array))
@example(np.array([np.diag([1.1, -0.1])], dtype=complex))
@example(np.array([np.eye(2) / 2], dtype=complex))
@example(np.array([KET_H_STATE.mat]))
def test_qubit_projection_equals_eigh_form(hs):
    out = tomography._physical(hs)
    assert_allclose(out, _eigh_physical(hs), rtol=0, atol=1e-12)
    assert_allclose(np.trace(out, axis1=-2, axis2=-1), 1.0, rtol=0, atol=1e-12)
    assert np.linalg.eigvalsh(out).min() >= -1e-12


@pytest.mark.parametrize("n_qubits", [1, 2])
def test_reconstruct_batch_equals_one_row_calls(n_qubits):
    # a pure state at 50 shots: most estimates lie outside the physical set
    rho = KET_H_STATE.mat if n_qubits == 1 else np.kron(KET_H_STATE.mat, KET_H_STATE.mat)
    settings_ = default_settings(n_qubits)
    probs = outcome_probabilities(rho, settings_)
    freqs = sample_frequencies(probs, 50, 40, seed=11)
    stacked = reconstruct_batch(settings_, freqs)
    assert np.array_equal(stacked, np.array([reconstruct_batch(settings_, f) for f in freqs]))


class TestReconstruct:
    def test_close_to_truth_at_large_shots(self):
        truth = make_cc(0.64)
        settings = default_settings(2)
        hits = 0
        for seed in range(20):
            rec = simulate_counts(truth, settings, 100_000, seed * 1000)
            est = reconstruct(rec, bootstrap_samples=0).estimate
            hits += trace_distance(est, truth) < 0.02
        assert hits >= 19

    def test_bootstrap_deterministic(self):
        rec = simulate_counts(make_qc(0.7, np.pi / 4), default_settings(2), 10_000, 3)
        a = reconstruct(rec, bootstrap_samples=50)
        b = reconstruct(rec, bootstrap_samples=50)
        assert np.array_equal(a.std_errors, b.std_errors)

    def test_default_bootstrap_stream_is_first_child_of_record_seed(self):
        settings_ = default_settings(2)
        rec = simulate_counts(make_qc(0.7, np.pi / 4), settings_, 10_000, 3)
        res = reconstruct(rec, bootstrap_samples=50)

        def errors(seed):
            replicas = sample_reconstructions(res.estimate.mat, settings_, 10_000, 50, seed)
            return np.sqrt(replicas.real.var(axis=0) + replicas.imag.var(axis=0))

        assert np.array_equal(res.std_errors, errors(np.random.SeedSequence(3, spawn_key=(0,))))
        # the record's own stream, which drew its counts, is not reused
        assert not np.array_equal(res.std_errors, errors(np.random.SeedSequence(3)))

    @pytest.mark.parametrize("state,n_qubits", [
        (random_density(np.random.default_rng(53), 2).mat, 1), (make_qc(0.7, np.pi / 4).mat, 2),
    ], ids=["qubit", "QC"])
    def test_record_replays_the_pipeline_draw(self, state, n_qubits):
        # a record is a batch of one of the pipeline's tomography
        settings_ = default_settings(n_qubits)
        est = reconstruct(simulate_counts(state, settings_, 10_000, 7), bootstrap_samples=0).estimate
        assert np.array_equal(est.mat, sample_reconstructions(state, settings_, 10_000, 1, 7)[0])

    @pytest.mark.parametrize("samples", [-5, True, 2.5, "3", None],
                             ids=["negative", "boolean", "fractional", "string", "null"])
    def test_invalid_bootstrap_samples_rejected(self, samples):
        rec = simulate_counts(make_cc(0.64), default_settings(2), 1000, 3)
        with pytest.raises(ValueError, match="bootstrap_samples must be a non-negative integer"):
            reconstruct(rec, samples)

    def test_error_scaling_with_shots(self):
        # standard statistical scaling: 4x the shots halves the error bars
        settings = default_settings(2)
        truth = make_qc(0.7, np.pi / 4)
        ratios = []
        for seed in range(10):
            e1 = reconstruct(simulate_counts(truth, settings, 10_000, seed * 777),
                             bootstrap_samples=100).std_errors.mean()
            e2 = reconstruct(simulate_counts(truth, settings, 40_000, seed * 777 + 31),
                             bootstrap_samples=100).std_errors.mean()
            ratios.append(e1 / e2)
        assert 1.8 < np.mean(ratios) < 2.2

    def test_record_json_round_trip_bit_exact(self):
        rec = simulate_counts(make_f(0.65), default_settings(2), 5000, 17)
        back = TomographyRecord.from_json(json.loads(json.dumps(rec.to_json())))
        assert back == rec
