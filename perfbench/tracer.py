"""Per-layer call tracer for qdiscern, installed from outside the package.

`Tracer.install` wraps every public function of each layer module, and the
public methods and ``__post_init__`` of every class a layer defines. A
function is replaced in every qdiscern namespace that binds it: the package
re-exports most names and the modules import each other's functions with
``from .x import f``, so patching only the defining module would miss most
calls. `Tracer.close` puts every original back.

Each call records a span (name, parent span, benchmark operation, start,
end) in memory. Self time is a span's duration minus the durations of its
child spans. A few boundaries also record work counts (points, shots,
replicas, output bytes); `HOOKS` lists them.
"""

from __future__ import annotations

import functools
import inspect
import os
import re
import sys
from collections import Counter
from time import perf_counter_ns

LAYERS = ("states", "linalg", "channels", "witness", "kernels", "tomography", "protocol", "cli")


def _kernel_grid(counts, a, out):
    counts["kernels.points"] += out.size
    # the two expanded (lambda, theta) inputs and the output, all float64
    counts["kernels.bytes_computed"] += 3 * out.nbytes


def _simulate_counts(counts, a, out):
    counts["tomography.shots_sampled"] += a["shots"] * len(a["settings"])


def _sample_frequencies(counts, a, out):
    counts["tomography.shots_sampled"] += a["shots"] * a["n_samples"] * len(a["probs_per_setting"])
    counts["tomography.replicas"] += a["n_samples"]


def _cli_main(counts, a, out):
    argv = a["argv"] or []
    if "--output" in argv:
        counts["cli.output_bytes"] += os.path.getsize(argv[argv.index("--output") + 1])


# span name -> hook(counts, bound arguments, return value)
HOOKS = {
    "kernels.td_qc_grid": _kernel_grid,
    "tomography.simulate_counts": _simulate_counts,
    "tomography.sample_frequencies": _sample_frequencies,
    "cli.main": _cli_main,
}


def _snake(name: str) -> str:
    return re.sub(r"(?<!^)(?=[A-Z])", "_", name).lower()


def _targets():
    """(span name, owner, attribute) for every function to wrap."""
    import qdiscern.cli  # noqa: F401  (loads every layer module)

    namespaces = [m for n, m in list(sys.modules.items())
                  if n == "qdiscern" or n.startswith("qdiscern.")]
    out = []
    for layer in LAYERS:
        mod = sys.modules["qdiscern." + layer]
        for attr, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and not attr.startswith("_"):
                name = f"{layer}.{attr}"
                for ns in namespaces:
                    out += [(name, ns, a) for a, v in list(vars(ns).items()) if v is obj]
            elif inspect.isclass(obj):
                for m, f in list(vars(obj).items()):
                    if inspect.isfunction(f) and (m == "__post_init__" or not m.startswith("_")):
                        label = _snake(obj.__name__) if m == "__post_init__" else m
                        out.append((f"{layer}.{label}", obj, m))
    return out


class Tracer:
    """Records spans and counts for qdiscern calls between install and close."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name id, parent index or -1, op, start ns, end ns)
        self.counts: Counter = Counter()
        self.op = -1  # benchmark operation the next spans belong to
        self._stack: list[int] = []
        self._patches: list = []  # (owner, attribute, original)
        self._wrappers: dict = {}  # original function -> wrapper

    def install(self):
        for name, owner, attr in _targets():
            original = vars(owner)[attr]
            if original not in self._wrappers:
                self._wrappers[original] = self._wrap(name, original)
            setattr(owner, attr, self._wrappers[original])
            self._patches.append((owner, attr, original))
        return self

    def close(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.close()

    def _wrap(self, name, fn):
        sid = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack
        hook = HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[idx] = (sid, stack[-1] if stack else -1, self.op, t0, t1)
            if hook:
                hook(self.counts, sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def summary(self) -> dict:
        """The counts, and per layer and per span name `.calls` and `.self_s`;
        per span name also `.total_s`, the time including child spans."""
        child_ns = [0] * len(self.spans)
        for _, parent, _, t0, t1 in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        calls, self_ns, total_ns = Counter(), Counter(), Counter()
        for i, (sid, _, _, t0, t1) in enumerate(self.spans):
            name = self.names[sid]
            total_ns[name] += t1 - t0
            for key in (name, name.split(".", 1)[0]):
                calls[key] += 1
                self_ns[key] += t1 - t0 - child_ns[i]
        out = dict(self.counts)
        for key in calls:
            out[key + ".calls"] = calls[key]
            out[key + ".self_s"] = self_ns[key] / 1e9
        for key in total_ns:
            out[key + ".total_s"] = total_ns[key] / 1e9
        return out

    def dump(self, path):
        """Write every span as CSV: op, name, parent index, start ns, end ns."""
        with open(path, "w") as fh:
            fh.write("op,name,parent,start_ns,end_ns\n")
            for sid, parent, op, t0, t1 in self.spans:
                fh.write(f"{op},{self.names[sid]},{parent},{t0},{t1}\n")
