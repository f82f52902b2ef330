"""Seed-by-seed verdict check of simulated classification.

Classifies F(0.65), F(0.5), CC(1.0) and CC(0.64) through simulated
tomography (100k shots, B = 200) for seeds 0 .. N-1, prints how often each
verdict came out per state, with the seeds of every minority verdict, and,
with --write, stores every verdict and Td value as JSON. With --compare it
reads such a file, written by another checkout, and lists the seeds whose
verdict or Td value differ; the exit code is then 1. The false verdicts it
counts are the false-positive rate of simulated mode at these endpoints,
until a calibration script measures that rate against a stated alpha.

    PYTHONPATH=/path/to/parent/src python tools/verdict_counts.py --write parent.json
    PYTHONPATH=src python tools/verdict_counts.py --compare parent.json

1600 classifications (the default 400 seeds) take a few tens of seconds
on one core.
"""

from __future__ import annotations

import argparse
import json
import sys

from qdiscern.protocol import ProtocolConfig, classify_simulated
from qdiscern.states import FamilyParams

STATES = (FamilyParams("F", 0.65), FamilyParams("F", 0.5),
          FamilyParams("CC", 1.0), FamilyParams("CC", 0.64))
SHOTS, BOOTSTRAP = 100_000, 200


def _name(params: FamilyParams) -> str:
    return f"{params.family}({params.lam!r})"


def run(n_seeds: int) -> dict:
    """Verdict and Td value of every (state, seed) pair."""
    runs = {}
    for params in STATES:
        rows = []
        for seed in range(n_seeds):
            cfg = ProtocolConfig(mode="simulated", shots=SHOTS, bootstrap_samples=BOOTSTRAP, seed=seed)
            res = classify_simulated(params, cfg)
            rows.append({"seed": seed, "verdict": res.verdict, "td": res.td_report.value})
        runs[_name(params)] = rows
    return {"shots": SHOTS, "bootstrap_samples": BOOTSTRAP, "runs": runs}


def verdict_lines(result: dict) -> list[str]:
    """One line per state: how many seeds gave each verdict, and the seeds
    of every verdict but the most common one."""
    lines = []
    for state, rows in result["runs"].items():
        seeds = {}
        for r in rows:
            seeds.setdefault(r["verdict"], []).append(r["seed"])
        majority = max(seeds, key=lambda v: len(seeds[v]))
        lines.append(f"{state}: " + ", ".join(
            f"{v} {len(s)}" + ("" if v == majority else f" (seeds {', '.join(map(str, s))})")
            for v, s in sorted(seeds.items())))
    return lines


def changed_seeds(result: dict, other: dict) -> list[str]:
    """One line per (state, seed) whose verdict or Td differs between two runs."""
    if (result["shots"], result["bootstrap_samples"]) != (other["shots"], other["bootstrap_samples"]):
        raise ValueError("the two runs used different shots or bootstrap samples")
    lines = []
    for state, rows in result["runs"].items():
        theirs = {r["seed"]: r for r in other["runs"].get(state, [])}
        for r in rows:
            o = theirs.get(r["seed"])
            if o is None:
                lines.append(f"{state} seed {r['seed']}: missing from the other run")
            elif (o["verdict"], o["td"]) != (r["verdict"], r["td"]):
                lines.append(f"{state} seed {r['seed']}: {o['verdict']} Td={o['td']!r}"
                             f" -> {r['verdict']} Td={r['td']!r}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=400, help="seeds 0 .. N-1 per state")
    parser.add_argument("--write", help="write every verdict and Td value to this JSON file")
    parser.add_argument("--compare", help="JSON file of another checkout's run")
    args = parser.parse_args(argv)
    other = None
    if args.compare:
        with open(args.compare) as fh:
            other = json.load(fh)
    result = run(args.seeds)
    print("\n".join(verdict_lines(result)))
    if args.write:
        with open(args.write, "w") as fh:
            json.dump(result, fh, indent=1)
    if other is None:
        return 0
    lines = changed_seeds(result, other)
    print(f"{len(lines)} of {args.seeds * len(STATES)} runs changed verdict or Td")
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
