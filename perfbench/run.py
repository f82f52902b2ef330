"""qdiscern benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: sweep-all, sweep-td, classify-exact, classify-sim (see README.md).
Each run starts fresh child processes with OPENBLAS_NUM_THREADS=1 and
OMP_NUM_THREADS=1. The first SETUP_SAMPLES - 1 children only set up (start
the interpreter, import qdiscern, make the inputs, one warm-up call); the
last one sets up and then measures. ``setup_s`` is the median set-up time.

With ``--trace 0`` the last stdout line reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it reports the per-layer metrics of a
traced run. The lines before it print every metric by name with its unit,
under the workload's own names as well, and the machine facts. The exit
code is 1 when an operation failed or the simulated verdicts are too often
wrong, and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7
DEADLINE_S = 170  # the whole run, children included
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
MAX_WRONG_VERDICT_FRAC = 0.05  # acceptance criterion 3: at least 95 of 100 correct

class BenchError(Exception):
    pass


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_child(args, tmp: str, deadline: float, setup_only: bool):
    """Start one child; returns (set-up seconds, its result or None)."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--tmp", tmp]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **THREAD_ENV)
    t0 = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        try:
            ready = proc.stdout.readline()
            setup = perf_counter() - t0
            out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("child ran past the deadline")
    if proc.returncode != 0 or ready.strip() != "ready":
        raise BenchError(f"child exited with {proc.returncode} before reporting")
    if setup_only:
        return setup, None
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("child printed no result")
    return setup, json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = perf_counter() + DEADLINE_S

    for needed in (ROOT / "src" / "qdiscern" / "__init__.py", ROOT / "tests" / "oracle.py"):
        if not needed.is_file():
            print(f"benchmark: {needed.relative_to(ROOT)} is missing; run from a qdiscern checkout",
                  file=sys.stderr)
            return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    tmp_root = ROOT / ".perfbench"
    tmp_root.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
            setups = [] if args.trace else [
                run_child(args, tmp, deadline, setup_only=True)[0] for _ in range(SETUP_SAMPLES - 1)]
            setup, result = run_child(args, tmp, deadline, setup_only=False)
            if args.trace:
                # keep the spans of the last traced run for inspection
                for f in Path(tmp).glob("spans-*.csv"):
                    f.replace(tmp_root / f.name)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2

    measured = result["metrics"]
    if not args.trace:
        measured["setup_s"] = statistics.median(setups + [setup])
    attempted, failed = result["attempted"], result["failed"]
    wrong_frac = result["wrong_verdicts"] / attempted
    correct = failed == 0 and wrong_frac <= MAX_WRONG_VERDICT_FRAC
    extra = {"failed_frac": failed / attempted}
    if args.workload == "classify-sim":
        extra["sim_wrong_verdict_frac"] = wrong_frac

    metrics = {}
    for m in wanted:
        value = measured.get(m["name"], 0 if args.trace else None)
        if value is None:
            print(f"benchmark: metric {m['name']} was not measured", file=sys.stderr)
            return 2
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("machine " + json.dumps(dict(result["machine"], commit=git_commit()), sort_keys=True))
    # the workload's own names for the metrics, and latency tails that are reported but not
    # gated: on a shared machine their run-to-run spread reaches the largest allowed bound
    kind = args.workload.split("-")[0]
    aliases = {} if args.trace else {
        "throughput_per_s": "sweep_points_per_s" if kind == "sweep" else "classify_per_s",
        "call_ms_p50": f"{kind}_ms_p50"}
    for name, m in metrics.items():
        alias = f"  ({aliases[name]})" if name in aliases else ""
        print(f"  {name} = {m['value']:.6g} {m['unit']}{alias}")
    if not args.trace:
        print(f"  samples = {measured['samples']} count")
        for p in ("p95", "p99") if args.workload == "classify-exact" else ("p95",):
            print(f"  {kind}_ms_{p} = {measured['call_ms_' + p]:.6g} ms")
    for name, value in extra.items():
        print(f"  {name} = {value:.6g} 1")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
