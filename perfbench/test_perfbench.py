"""Self-tests of the benchmark: python3 -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import child
import workloads
from tracer import Tracer

import qdiscern.cli  # noqa: E402  (workloads puts src/ on the path)

HERE = Path(__file__).resolve().parent
REPEATED_COUNTS = ("kernels.points", "tomography.shots_sampled", "tomography.replicas")


def _outputs(wl, n, tracer=None):
    """The output of inputs 0..n-1: CSV bytes for a sweep, the key otherwise."""
    out = []
    for i in range(n):
        _, _, res = child.timed_call(wl, i, tracer)
        out.append(wl.path.read_bytes() if isinstance(wl, workloads.Sweep) else wl.key(res))
    return out


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_run_gives_the_untraced_output(name, tmp_path):
    wl = workloads.make(name, 7, tmp_path, small=True)
    plain = _outputs(wl, 3)
    with Tracer() as tracer:
        traced = _outputs(wl, 3, tracer)
    assert traced == plain
    assert tracer.spans


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_counts_repeat_exactly(name, tmp_path):
    runs = []
    for _ in range(2):
        wl = workloads.make(name, 11, tmp_path, small=True)
        layers, outcomes = child.trace(wl, name, 0.02, tmp_path)
        assert all(o.ok for o in outcomes)
        runs.append({k: v for k, v in layers.items() if k.endswith(".calls") or k in REPEATED_COUNTS})
    assert runs[0] == runs[1]
    assert runs[0]["cli.calls" if name.startswith("sweep") else "protocol.calls"] > 0


def test_tracer_wraps_every_binding_and_restores_it(tmp_path):
    from qdiscern import linalg, protocol, witness

    originals = (linalg.partial_trace, linalg.DensityMatrix.__post_init__, qdiscern.classify)
    with Tracer() as tracer:
        assert protocol.partial_trace is linalg.partial_trace is witness.partial_trace
        assert linalg.partial_trace.__wrapped__ is originals[0]
        workloads.make("classify-exact", 1, tmp_path).warmup()
    assert (linalg.partial_trace, linalg.DensityMatrix.__post_init__, qdiscern.classify) == originals
    assert protocol.partial_trace is originals[0]
    summary = tracer.summary()
    assert summary["protocol.classify.calls"] == 1
    assert summary["linalg.partial_trace.calls"] > 0
    assert summary["linalg.density_matrix.calls"] > 0


def test_checks_reject_wrong_sweep_rows(tmp_path):
    wl = workloads.make("sweep-all", 3, tmp_path, small=True)
    argv = wl.prepare(0)
    rc = wl.call(argv)
    good = wl.path.read_text()
    assert wl.check(0, argv, rc).ok
    head, body = good.split("\n", 2)[:2], good.split("\n", 2)[2]
    for bad_value in ("0.5", "nan"):
        rows = [",".join(r.split(",")[:-1] + [bad_value]) for r in body.splitlines()]
        wl.path.write_text("\n".join(head + rows) + "\n")
        assert not wl.check(0, argv, rc).ok
    wl.path.write_text("\n".join(head + body.splitlines()[1:]) + "\n")  # a row missing
    assert not wl.check(0, argv, rc).ok


def test_checks_reject_a_wrong_exact_verdict(tmp_path):
    wl = workloads.make("classify-exact", 3, tmp_path)
    params = wl.prepare(0)
    res = wl.call(params)
    assert wl.check(0, params, res).ok
    other = next(f for f in ("QC", "CC", "F") if f != res.verdict)
    wrong = workloads.FamilyParams(other, 0.3, 0.4 if other == "QC" else 0.0)
    assert not wl.check(0, wrong, res).ok


def test_run_reports_every_end_to_end_metric():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "classify-exact",
                           "--seed", "5", "--seconds", "0.2", "--trace", "0"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep-td",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
