"""One benchmark child process: set up one workload, then measure it.

Run by ``run.py``, never directly. The child imports qdiscern, makes its
inputs and makes one warm-up call, then prints ``ready`` (the parent times
set-up up to that line). Unless ``--setup-only`` is given, it then runs the
workload and prints one JSON line with its results.

Untraced, the first pass calls the workload on new inputs, in a closed loop,
until the timed calls add up to ``--seconds / PASSES``; the later passes
repeat those inputs, each pass in a new seeded order. An input's latency is the fastest of
its PASSES calls. The machine is shared: its speed drifts by a quarter
within seconds, and the fastest of calls spread over the run is far
steadier than any one of them. Throughput is the number of inputs (points
for a sweep) over the sum of their latencies.

Traced, it runs a fixed number of inputs (derived from ``--seconds``) once
untraced and once traced, so the counts repeat exactly and the wall-time
ratio of their summed latencies gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads
from tracer import Tracer

PASSES = 8
# fewest distinct inputs in an untraced run: p99 needs ten calls beyond it
MIN_INPUTS = {"sweep-all": 3, "sweep-td": 3, "classify-exact": 1000, "classify-sim": 200}
# inputs per second of --seconds in a traced run, each called untraced and traced;
# sized so that a run keeps about 10^5 spans in memory
TRACE_INPUTS_PER_S = {"sweep-all": 0.2, "sweep-td": 0.5, "classify-exact": 100, "classify-sim": 15}


def timed_call(wl, i: int, tracer=None):
    """(latency in s, inputs, output or None if the call raised)."""
    args = wl.prepare(i)
    if tracer is not None:
        tracer.op = i
    t0 = perf_counter()
    try:
        out = wl.call(args)
    except Exception as exc:  # a raising call is a failed operation, not a crash
        print(f"input {i} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return perf_counter() - t0, args, None
    return perf_counter() - t0, args, out


def first_pass(wl, inputs):
    """Call and check each input; returns (latencies, outcomes)."""
    lat, outcomes = [], []
    for i in inputs:
        dt, args, out = timed_call(wl, i)
        lat.append(dt)
        outcomes.append(workloads.Outcome(False, None) if out is None else wl.check(i, args, out))
    return lat, outcomes


def repeat_pass(wl, first, order, tracer=None):
    """Call inputs 0..len(first)-1 again, in the given order; a call is correct
    if it repeats the first, checked output. Returns latencies by input."""
    lat = np.empty(len(first))
    outcomes = []
    for i in order:
        o = first[i]
        lat[i], _, out = timed_call(wl, i, tracer)
        same = out is not None and o.ok and wl.key(out) == o.key
        outcomes.append(workloads.Outcome(same, o.key, o.wrong_verdict))
    return lat, outcomes


def measure(wl, name: str, seed: int, seconds: float) -> tuple:
    lat, outcomes = [], []
    busy = 0.0
    while busy < seconds / PASSES or len(lat) < MIN_INPUTS[name]:
        step_lat, step_out = first_pass(wl, [len(lat)])
        lat += step_lat
        outcomes += step_out
        busy += step_lat[0]
    best = np.array(lat)
    first = list(outcomes)
    for k in range(1, PASSES):
        # a new order each pass, so that periodic interference does not hit the same inputs
        order = np.random.default_rng([seed, k]).permutation(len(first))
        again_lat, again = repeat_pass(wl, first, order)
        best = np.minimum(best, again_lat)
        outcomes += again
    p50, p95, p99 = np.percentile(best * 1e3, [50, 95, 99])
    metrics = {
        "samples": len(best),
        "throughput_per_s": wl.work * len(best) / best.sum(),
        "call_ms_p50": p50,
        "call_ms_p95": p95,
        "call_ms_p99": p99,
    }
    return metrics, outcomes


def trace(wl, name: str, seconds: float, tmp: Path) -> tuple:
    n = max(1, math.ceil(TRACE_INPUTS_PER_S[name] * seconds))
    untraced, plain = first_pass(wl, range(n))
    tracer = Tracer()
    with tracer:
        # the traced call must give the same output as the untraced one
        traced, again = repeat_pass(wl, plain, range(n), tracer)
    tracer.dump(tmp / f"spans-{name}.csv")
    layers = tracer.summary()
    layers["trace_overhead_frac"] = sum(traced) / sum(untraced) - 1
    return layers, plain + again


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "backend": workloads.qdiscern.kernels.BACKEND,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    tmp = Path(args.tmp)

    wl = workloads.make(args.workload, args.seed, tmp)
    try:
        wl.warmup()
        print("ready", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            metrics, outcomes = trace(wl, args.workload, args.seconds, tmp)
        else:
            metrics, outcomes = measure(wl, args.workload, args.seed, args.seconds)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        wl.close()
    print(json.dumps({
        "metrics": metrics,
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "wrong_verdicts": sum(o.wrong_verdict for o in outcomes),
        "machine": machine_facts(),
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
