"""The benchmark workloads.

Each workload makes its inputs from the seed, calls into qdiscern once per
operation, and checks that operation's output against ``tests/oracle.py``
or the known family label. `prepare` builds the inputs of operation i
(untimed), `call` is the timed call, `check` judges the output against the
oracle and `key` identifies it, so that a repeated call can be compared
with the first one (both untimed).
"""

from __future__ import annotations

import hashlib
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _p in (ROOT / "tests", ROOT / "src"):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import qdiscern  # noqa: E402
import qdiscern.cli  # noqa: E402  (the package itself does not import cli or kernels)
from qdiscern import FamilyParams, ProtocolConfig  # noqa: E402

TOL = 1e-9  # agreement with the oracle, and the exact-mode decision epsilon
PHI = math.pi
HWP = oracle.hwp(math.pi / 8)


@dataclass(frozen=True)
class Outcome:
    ok: bool  # ran, finite, and agrees with the oracle where checked
    key: object  # `key` of the output
    wrong_verdict: bool = False


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


def _close(value, want) -> bool:
    """Both absent, or `value` finite and within TOL of the oracle's `want`."""
    if value is None or want is None:
        return value is None and want is None
    return _finite(value) and abs(value - want) <= TOL


class Sweep:
    """`qdiscern sweep` through `cli.main`, CSV to a file, on an n x n QC grid."""

    SAMPLED_ROWS = 16  # rows per call checked against the oracle

    def __init__(self, quantity: str, n: int, seed: int, tmp: Path):
        self.quantity, self.n, self.seed = quantity, n, seed
        self.path = Path(tmp) / f"sweep-{os.getpid()}.csv"
        self.work = n * n

    def _argv(self, lam_grid: str, theta_grid: str) -> list:
        return ["sweep", "--quantity", self.quantity, "--lambda-grid", lam_grid,
                "--theta-grid", theta_grid, "--output", str(self.path)]

    def warmup(self):
        qdiscern.cli.main(self._argv("0.1:0.9:4", "0.1:1.4:4"))

    def prepare(self, i: int) -> list:
        rng = np.random.default_rng([self.seed, i])
        lam = rng.uniform([0.0, 0.8], [0.2, 1.0])
        theta = rng.uniform([0.0, 1.3], [0.2, 1.55])
        return self._argv(f"{float(lam[0])!r}:{float(lam[1])!r}:{self.n}",
                          f"{float(theta[0])!r}:{float(theta[1])!r}:{self.n}")

    def call(self, argv):
        return qdiscern.cli.main(argv)

    def key(self, rc):
        return rc, hashlib.sha256(self.path.read_bytes()).hexdigest()

    def check(self, i: int, argv, rc) -> Outcome:
        data = self.path.read_bytes()
        key = rc, hashlib.sha256(data).hexdigest()
        lines = data.decode().splitlines()[2:]
        body = "\n".join(lines)
        if rc != 0 or len(lines) != self.work or "nan" in body or "inf" in body:
            return Outcome(False, key)
        rng = np.random.default_rng([self.seed, i, 1])
        for row in rng.choice(self.work, size=min(self.SAMPLED_ROWS, self.work), replace=False):
            lam, theta, phi, *values = map(float, lines[row].split(","))
            rho = oracle.qc(lam, theta)
            if self.quantity == "Td":
                want = [oracle.td_witness(rho, phi)]
            else:
                want = [oracle.discord(rho), oracle.td_witness(rho, phi), oracle.growth(rho, HWP, phi)]
            if len(values) != len(want) or any(abs(v - w) > TOL for v, w in zip(values, want)):
                return Outcome(False, key)
        return Outcome(True, key)

    def close(self):
        self.path.unlink(missing_ok=True)


def _oracle_exact(p: FamilyParams):
    """Verdict, Td and growth of the exact cascade, from the brute-force oracle."""
    rho = {"QC": lambda: oracle.qc(p.lam, p.theta), "CC": lambda: oracle.cc(p.lam),
           "F": lambda: oracle.fact(p.lam)}[p.family]()
    td = oracle.td_witness(rho, PHI)
    if td > TOL:
        return "QC", td, None
    growth = oracle.growth(rho, HWP, PHI)
    return ("CC" if growth > TOL else "F"), td, growth


class ClassifyExact:
    """Library `classify(params.build(), exact config)` on random QC/CC/F parameters."""

    work = 1
    _BLOCK = 1 << 16  # inputs are drawn once and reused cyclically past this many calls

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.family = rng.integers(0, 3, self._BLOCK)
        self.lam = rng.random(self._BLOCK)
        self.theta = rng.random(self._BLOCK) * (math.pi / 2)
        self.config = ProtocolConfig(mode="exact")

    def warmup(self):
        qdiscern.classify(FamilyParams("QC", 0.5, math.pi / 4).build(), self.config)

    def prepare(self, i: int) -> FamilyParams:
        k = i % self._BLOCK
        family = ("QC", "CC", "F")[self.family[k]]
        theta = float(self.theta[k]) if family == "QC" else 0.0
        return FamilyParams(family, float(self.lam[k]), theta)

    def call(self, params):
        return qdiscern.classify(params.build(), self.config)

    def key(self, res):
        growth = res.growth_report.value if res.growth_report else None
        return res.verdict, res.td_report.value, growth

    def check(self, i: int, params, res) -> Outcome:
        key = self.key(res)
        want = _oracle_exact(params)
        ok = key[0] == want[0] and all(_close(a, b) for a, b in zip(key[1:], want[1:]))
        return Outcome(ok, key)

    def close(self):
        pass


REFERENCE_STATES = (FamilyParams("QC", 0.7, math.pi / 4), FamilyParams("CC", 0.64), FamilyParams("F", 0.65))


class ClassifySim:
    """`classify_simulated` on the three reference states, 1:1:1, one seed per call."""

    work = 1
    _BLOCK = 1 << 14

    def __init__(self, seed: int, shots: int = 100_000, bootstrap: int = 200):
        rng = np.random.default_rng(seed)
        # each block of three calls holds every reference state once, in seeded order
        self.order = np.concatenate([rng.permutation(3) for _ in range(self._BLOCK // 3 + 1)])
        self.seeds = rng.integers(0, 2**31 - 1, self._BLOCK)
        self.shots, self.bootstrap = shots, bootstrap

    def _config(self, seed: int) -> ProtocolConfig:
        return ProtocolConfig(mode="simulated", shots=self.shots,
                              bootstrap_samples=self.bootstrap, seed=seed)

    def warmup(self):
        qdiscern.classify_simulated(REFERENCE_STATES[1], self._config(1))

    def prepare(self, i: int):
        k = i % self._BLOCK
        return REFERENCE_STATES[self.order[k]], self._config(int(self.seeds[k]))

    def call(self, args):
        return qdiscern.classify_simulated(*args)

    def key(self, res):
        td, g = res.td_report, res.growth_report
        values = (td.value, td.sigma, res.thresholds_used["stage1_threshold"])
        if g is not None:
            values += (g.value, g.sigma, res.thresholds_used["stage2_threshold"])
        return (res.verdict, *values)

    def check(self, i: int, args, res) -> Outcome:
        key = self.key(res)
        return Outcome(_finite(*key[1:]), key, wrong_verdict=res.verdict != args[0].family)

    def close(self):
        pass


NAMES = ("sweep-all", "sweep-td", "classify-exact", "classify-sim")


def make(name: str, seed: int, tmp: Path, small: bool = False):
    """The workload called `name`; `small` shrinks its inputs for self-tests."""
    if name == "sweep-all":
        return Sweep("all", 8 if small else 24, seed, tmp)
    if name == "sweep-td":
        return Sweep("Td", 40 if small else 400, seed, tmp)
    if name == "classify-exact":
        return ClassifyExact(seed)
    if name == "classify-sim":
        return ClassifySim(seed, shots=10_000 if small else 100_000, bootstrap=20 if small else 200)
    raise ValueError(f"unknown workload {name!r}")
