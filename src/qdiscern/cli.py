"""Command-line front end.

Subcommands:
  classify    run the two-stage procedure on a family state, JSON to stdout
  sweep       witness values over a (lambda, theta) grid, CSV output
  phase-scan  discord witness of one state across phase-gate angles, CSV

All angles are radians. Exit codes: 0 verdict/output produced, 2 invalid
input, 3 internal numerical failure, 141 (128 + SIGPIPE) when the reader of
stdout went away, as in `qdiscern sweep ... | head -1`. In-process callers
of `main` share one parser, built on the first call.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import os
import sys

import numpy as np

from . import kernels
from .linalg import NumericalError, check_finite_real
from .protocol import ProtocolConfig, classify
from .states import FamilyParams
from .witness import td_values

SWEEP_CHUNK_POINTS = 4096  # grid points per batched kernel call in `sweep`: bounds their temporaries and each write
SWEEP_QUANTITIES = ("T", "Td", "growth", "all")
_CONFIG_DEFAULTS = {f.name: f.default for f in dataclasses.fields(ProtocolConfig)}
_FAMILY_DEFAULTS = {"family": None, "lambda": None, "theta": None}
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a reader-closed pipe
_parser = None  # built by the first `main` call, not at import


def _fmt(x: float) -> str:
    return repr(float(x))


def _parse_grid(text: str) -> np.ndarray:
    try:
        start, stop, count = text.split(":")
        start, stop, count = float(start), float(stop), int(count)
        if count < 2:
            raise ValueError
    except ValueError:
        raise ValueError(f"grid must be start:stop:count with count >= 2, got {text!r}")
    check_finite_real("grid endpoints", start, stop)
    return np.linspace(start, stop, count)


def _parse_phis(text: str) -> tuple:
    """The comma-separated phases of `--phis`."""
    try:
        phis = tuple(float(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"phis must be comma-separated numbers, got {text!r}")
    check_finite_real("phis", *phis)
    return phis


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must contain a JSON object")
    return cfg


def _resolve(args, defaults: dict) -> dict:
    """Flag > config file > default, per option; a file key the command
    does not read is an error."""
    file_cfg = _load_config(args.config)
    unknown = sorted(set(file_cfg) - set(defaults))
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    out = {}
    for key, default in defaults.items():
        v = getattr(args, key, None)
        if v is None:
            v = file_cfg.get(key, default)
        out[key] = v
    return out


def _family_params(opts: dict) -> FamilyParams:
    """The family state from resolved `family`, `lambda` and `theta` options."""
    if opts["family"] is None:
        raise ValueError("--family is required")
    if opts["lambda"] is None:
        raise ValueError("--lambda is required")
    theta = 0.0 if opts["theta"] is None else opts["theta"]
    return FamilyParams(str(opts["family"]).upper(), opts["lambda"], theta)


def _open_output(output: str | None):
    """The file `output`, opened for writing, or stdout (left open on exit)."""
    return open(output, "w") if output else contextlib.nullcontext(sys.stdout)


def _write_lines(lines: list[str], output: str | None):
    with _open_output(output) as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_classify(args) -> int:
    opts = _resolve(args, {**_CONFIG_DEFAULTS, **_FAMILY_DEFAULTS})
    params = _family_params(opts)
    kw = {k: opts[k] for k in _CONFIG_DEFAULTS}
    for key in ("shots", "bootstrap_samples", "seed"):
        if isinstance(kw[key], float) and kw[key].is_integer():  # JSON 1e5
            kw[key] = int(kw[key])
    config = ProtocolConfig(**kw)
    result = classify(params.build(), config, digest=params.to_json())
    out = result.to_json()
    out["config"] = config.to_json()
    out["family_params"] = params.to_json()
    json.dump(out, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def cmd_sweep(args) -> int:
    defaults = {"phi": _CONFIG_DEFAULTS["phi"], "hwp_angle": _CONFIG_DEFAULTS["hwp_angle"], "quantity": "all"}
    opts = _resolve(args, defaults)
    lams = _parse_grid(args.lambda_grid)
    thetas = _parse_grid(args.theta_grid)
    if lams.min() < 0 or lams.max() > 1 or thetas.min() < 0 or thetas.max() > np.pi / 2:
        raise ValueError("grids must lie within lambda in [0,1], theta in [0, pi/2]")
    quantity = opts["quantity"]
    if quantity not in SWEEP_QUANTITIES:
        raise ValueError(f"quantity must be one of {', '.join(SWEEP_QUANTITIES)}, got {quantity!r}")
    phi = opts["phi"]
    check_finite_real("phi", phi)
    check_finite_real("hwp_angle", opts["hwp_angle"])

    # chunks of whole lambda rows, about SWEEP_CHUNK_POINTS points (at least one row)
    chunk_rows = max(1, SWEEP_CHUNK_POINTS // len(thetas))
    chunks = [slice(start, start + chunk_rows) for start in range(0, len(lams), chunk_rows)]
    # every value first, so that a numerical failure (exit 3) writes nothing
    columns = ["T", "Td", "growth"] if quantity == "all" else [quantity]
    values = {name: np.empty((len(lams), len(thetas))) for name in columns}
    for rows in chunks:
        if "T" in values:
            values["T"][rows] = kernels.t_qc_grid(lams[rows], thetas)
        if "Td" in values:
            values["Td"][rows] = kernels.td_qc_grid(lams[rows], thetas, phi)
        if "growth" in values:
            values["growth"][rows] = kernels.growth_qc_grid(lams[rows], thetas, opts["hwp_angle"], phi)

    resolved = {
        "command": "sweep", "quantity": quantity, "phi": phi,
        "hwp_angle": opts["hwp_angle"],
        "lambda_grid": args.lambda_grid, "theta_grid": args.theta_grid,
    }
    header = "# " + json.dumps(resolved, sort_keys=True) + "\n"
    header += "lambda,theta,phi,T,Td,growth\n" if quantity == "all" else "lambda,theta,phi,value\n"
    row_prefixes = [f"{_fmt(theta)},{_fmt(phi)}" for theta in thetas]
    with _open_output(args.output) as fh:
        fh.write(header)
        # one write per chunk; str.join, zip and map assemble the rows in C
        for rows in chunks:
            lam_row = lams[rows].tolist()
            lam_col = itertools.chain.from_iterable(itertools.repeat(_fmt(lam), len(thetas)) for lam in lam_row)
            cols = [map(repr, col[rows].ravel().tolist()) for col in values.values()]
            fh.write("\n".join(map(",".join, zip(lam_col, row_prefixes * len(lam_row), *cols))) + "\n")
    return 0


def cmd_phase_scan(args) -> int:
    params = _family_params(_resolve(args, _FAMILY_DEFAULTS))
    phis = _parse_phis(args.phis)
    rho = params.build().mat
    values = td_values(rho, np.array(phis))
    resolved = {"command": "phase-scan", "family_params": params.to_json(), "phis": list(phis)}
    lines = ["# " + json.dumps(resolved, sort_keys=True), "phi,value"]
    lines += [f"{_fmt(phi)},{_fmt(v)}" for phi, v in zip(phis, values)]
    _write_lines(lines, args.output)
    return 0


def _add_family_flags(p: argparse.ArgumentParser):
    p.add_argument("--family", choices=["cc", "qc", "f", "CC", "QC", "F"])
    p.add_argument("--lambda", dest="lambda", type=float, help="weight lambda in [0,1]")
    p.add_argument("--theta", type=float, help="QC rotation angle in [0, pi/2] (radians)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qdiscern", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("classify", help="classify one family state")
    _add_family_flags(pc)
    pc.add_argument("--mode", choices=["exact", "simulated"])
    pc.add_argument("--phi", type=float)
    pc.add_argument("--hwp-angle", dest="hwp_angle", type=float)
    pc.add_argument("--shots", type=int)
    pc.add_argument("--seed", type=int)
    pc.add_argument("--bootstrap", dest="bootstrap_samples", type=int)
    pc.add_argument("--threshold-sigma", dest="threshold_sigma", type=float)
    pc.add_argument("--exact-epsilon", dest="exact_epsilon", type=float)
    pc.add_argument("--emit-states", action="store_true", default=None)
    pc.add_argument("--config", help="JSON config file; flags override")

    ps = sub.add_parser("sweep", help="witness values over a (lambda, theta) grid")
    ps.add_argument("--quantity", choices=SWEEP_QUANTITIES)
    ps.add_argument("--lambda-grid", dest="lambda_grid", required=True, help="start:stop:count")
    ps.add_argument("--theta-grid", dest="theta_grid", required=True, help="start:stop:count")
    ps.add_argument("--phi", type=float)
    ps.add_argument("--hwp-angle", dest="hwp_angle", type=float)
    ps.add_argument("--output")
    ps.add_argument("--config")

    pp = sub.add_parser("phase-scan", help="Td of one state across phase angles")
    _add_family_flags(pp)
    pp.add_argument("--phis", required=True, help="comma-separated phase angles")
    pp.add_argument("--output")
    pp.add_argument("--config")
    return parser


def main(argv=None) -> int:
    global _parser
    _parser = _parser or build_parser()
    args = _parser.parse_args(argv)
    # looked up per call, so that a rebound `cmd_*` (a tracer, a test stub) is the one run
    command = {"classify": cmd_classify, "sweep": cmd_sweep, "phase-scan": cmd_phase_scan}[args.command]
    try:
        code = command(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the input was fine; send what is still buffered to /dev/null so that
        # the interpreter's final flush raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
