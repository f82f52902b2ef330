"""Regression gate for simulated mode: verdicts, every multinomial draw and
the reported statistics of a fixed set of seeded runs must match the
snapshot in tests/data/sim_snapshot.json.

Counts must be identical; floats and emitted matrices must agree within
FLOAT_TOL, because batched and one-at-a-time linear algebra may round
differently. The `emit_cases` rerun the first seeds with emit_states set and
also pin the estimated states; emitting states must not change the run. The
`phase_cases` do the same at PHASE_PHI, off phi = pi, where the phase gate's
Bloch rotation mixes x and y.

Regenerate the snapshot (only on purpose, when the seed-stream contract
changes) with:  PYTHONPATH=src python tests/test_snapshot.py
"""

import hashlib
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from qdiscern.protocol import ProtocolConfig, classify_simulated
from qdiscern.states import FamilyParams

SNAPSHOT = Path(__file__).resolve().parent / "data" / "sim_snapshot.json"
SEEDS = range(30)
STATES = (FamilyParams("QC", 0.7, math.pi / 4), FamilyParams("CC", 0.64), FamilyParams("F", 0.65))
SHOTS, BOOTSTRAP = 20_000, 50
FLOAT_TOL = 1e-12
FLOATS = ("td_value", "td_sigma", "growth_value", "growth_sigma",
          "stage1_threshold", "stage2_threshold")
EMIT_SEEDS = range(10)
EMIT = {"emit_states": True}
PHASE_SEEDS = range(5)
PHASE_PHI = 2.55
SECTIONS = ("cases", "emit_cases", "phase_cases")


_default_rng = np.random.default_rng


def stream_key(seed) -> tuple:
    """The stream a seed (an int or a SeedSequence) names: its entropy and
    spawn key."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return ss.entropy, ss.spawn_key


class _RecordingGenerator:
    """A numpy Generator that remembers every multinomial draw, by stream."""

    def __init__(self, seed, draws):
        self._rng = _default_rng(seed)
        self._key = stream_key(seed)
        self._draws = draws

    def multinomial(self, *args, **kwargs):
        out = self._rng.multinomial(*args, **kwargs)
        self._draws.append((self._key, out))
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _counts_hash(draws) -> str:
    """SHA-256 over all draws, ordered by stream so that the order of the
    experiments does not matter; a stream's own draws keep their order."""
    h = hashlib.sha256()
    for key, counts in sorted(draws, key=lambda d: d[0]):
        counts = np.asarray(counts, dtype=np.int64)
        h.update(f"{key}:{counts.shape}:".encode())
        h.update(counts.tobytes())
    return h.hexdigest()


def _recorded_run(params: FamilyParams, seed: int, **options):
    """The result of a seeded simulated run, and its multinomial draws."""
    draws = []
    np.random.default_rng = lambda s=None: _RecordingGenerator(s, draws)
    try:
        cfg = ProtocolConfig(mode="simulated", shots=SHOTS, bootstrap_samples=BOOTSTRAP,
                             seed=seed, **options)
        return classify_simulated(params, cfg), draws
    finally:
        np.random.default_rng = _default_rng


def run_case(params: FamilyParams, seed: int, **options) -> dict:
    res, draws = _recorded_run(params, seed, **options)
    g = res.growth_report
    case = {
        "family": params.family,
        "seed": seed,
        "verdict": res.verdict,
        "counts_sha256": _counts_hash(draws),
        "td_value": res.td_report.value,
        "td_sigma": res.td_report.sigma,
        "growth_value": g.value if g else None,
        "growth_sigma": g.sigma if g else None,
        "stage1_threshold": res.thresholds_used["stage1_threshold"],
        "stage2_threshold": res.thresholds_used["stage2_threshold"],
    }
    if res.intermediate_states is not None:
        case["states"] = {k: v.to_json()["entries"] for k, v in res.intermediate_states.items()}
    return case


@pytest.fixture(scope="module")
def snapshot():
    data = json.loads(SNAPSHOT.read_text())
    return {key: {(c["family"], c["seed"]): c for c in data[key]}
            for key in SECTIONS}


def _check(got: dict, want: dict, where):
    assert got["verdict"] == want["verdict"], where
    assert got["counts_sha256"] == want["counts_sha256"], where
    for key in FLOATS:
        if want[key] is None:
            assert got[key] is None, (where, key)
        else:
            assert abs(got[key] - want[key]) <= FLOAT_TOL, (where, key)
    assert set(got.get("states", {})) == set(want.get("states", {})), where
    for name, entries in want.get("states", {}).items():
        diff = np.abs(np.array(got["states"][name]) - np.array(entries)).max()
        assert diff <= FLOAT_TOL, (where, name, diff)


@pytest.mark.parametrize("params", STATES, ids=lambda p: p.family)
def test_simulated_runs_match_snapshot(params, snapshot):
    for seed in SEEDS:
        _check(run_case(params, seed), snapshot["cases"][(params.family, seed)], (params, seed))


@pytest.mark.parametrize("params", STATES, ids=lambda p: p.family)
def test_runs_with_emitted_states_match_snapshot(params, snapshot):
    for seed in EMIT_SEEDS:
        _check(run_case(params, seed, **EMIT), snapshot["emit_cases"][(params.family, seed)],
               (params, seed))


@pytest.mark.parametrize("params", STATES, ids=lambda p: p.family)
def test_runs_off_phi_pi_match_snapshot(params, snapshot):
    for seed in PHASE_SEEDS:
        _check(run_case(params, seed, phi=PHASE_PHI, **EMIT),
               snapshot["phase_cases"][(params.family, seed)], (params, seed))


@pytest.mark.parametrize("params", STATES, ids=lambda p: p.family)
def test_every_experiment_draws_into_the_count_hash(params):
    # 8 experiment streams per run, 16 when stage 2 runs, each drawing one
    # multinomial per setting: a draw made another way would leave its
    # stream out of counts_sha256
    for seed in SEEDS:
        res, draws = _recorded_run(params, seed)
        draws_per_stream = Counter(key for key, _ in draws)
        assert len(draws_per_stream) == (8 if res.growth_report is None else 16), (params, seed)
        assert set(draws_per_stream.values()) <= {3, 9}, (params, seed)


def test_simulated_runs_call_eigh_on_two_qubit_states_only(monkeypatch):
    # every one-qubit experiment and the eigenprojector run in Bloch coordinates
    shapes = []

    def recording_eigh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    verdicts = [_recorded_run(params, 0, **options)[0].verdict
                for params in STATES for options in ({}, EMIT)]
    assert verdicts == ["QC", "QC", "CC", "CC", "F", "F"]
    assert shapes and all(shape[-2:] == (4, 4) for shape in shapes)


def test_emitting_states_does_not_change_the_run(snapshot):
    assert len(snapshot["emit_cases"]) == len(STATES) * len(EMIT_SEEDS)
    for where, emitted in snapshot["emit_cases"].items():
        plain = snapshot["cases"][where]
        assert {k: v for k, v in emitted.items() if k != "states"} == plain, where


def _float_change(got: dict, want: dict) -> float:
    """Largest absolute change of the reported floats and emitted entries."""
    diffs = [abs(got[k] - want[k]) for k in FLOATS if want[k] is not None]
    diffs += [np.abs(np.array(got["states"][name]) - np.array(entries)).max()
              for name, entries in want.get("states", {}).items()]
    return float(max(diffs, default=0.0))


def compare(old: dict, new: dict) -> list[str]:
    """What a regeneration moves: count hashes, verdicts, and the largest
    float change among cases whose counts did not move. A section that the
    old snapshot lacks is reported as new."""
    lines = []
    for key in SECTIONS:
        if key not in old:
            lines.append(f"{key}: new section, {len(new[key])} cases")
            continue
        before = {(c["family"], c["seed"]): c for c in old[key]}
        moved, verdicts, float_change = [], [], 0.0
        for case in new[key]:
            where = (case["family"], case["seed"])
            want = before[where]
            if case["verdict"] != want["verdict"]:
                verdicts.append(f"{where}: {want['verdict']} -> {case['verdict']}")
            if case["counts_sha256"] != want["counts_sha256"]:
                moved.append(where)
            else:
                float_change = max(float_change, _float_change(case, want))
        lines.append(f"{key}: {len(moved)} of {len(new[key])} count hashes changed {moved}")
        lines.append(f"{key}: {len(verdicts)} verdicts changed {verdicts}")
        lines.append(f"{key}: largest float change with unchanged counts {float_change:.3g}")
    return lines


def generate() -> dict:
    return {
        "shots": SHOTS, "bootstrap_samples": BOOTSTRAP,
        "cases": [run_case(p, s) for p in STATES for s in SEEDS],
        "emit_cases": [run_case(p, s, **EMIT) for p in STATES for s in EMIT_SEEDS],
        "phase_cases": [run_case(p, s, phi=PHASE_PHI, **EMIT) for p in STATES for s in PHASE_SEEDS],
    }


if __name__ == "__main__":
    data = generate()
    if SNAPSHOT.exists():
        print("\n".join(compare(json.loads(SNAPSHOT.read_text()), data)))
    SNAPSHOT.parent.mkdir(exist_ok=True)
    SNAPSHOT.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {sum(len(data[key]) for key in SECTIONS)} cases to {SNAPSHOT}")
