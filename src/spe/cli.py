"""Command-line runner: solve, verify estimates, and serialize results.

Subcommands
-----------
solve           integrate a scenario and write snapshot/boundary CSV files
invariants      run the five estimate checks and write a report
entropy-check   evaluate the entropy inequality over a (c, bump) grid
stability       paired-run L1 stability comparison
sweep           vanishing-viscosity Cauchy study
scale           physical-to-adimensional scaling constants

All artifacts are written atomically (temp file + rename) with shortest
round-trip float formatting, so identical inputs give byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from .diagnostics import (
    CheckRecord,
    default_stability_constant,
    energy_l4_p2_check,
    epsilon_sweep,
    l2_balance_residual,
    linfty_check,
    mean_residual,
    p_infty_check,
    scaling_constants,
    stability_compare,
)
from .entropy import (
    EntropyPair,
    entropy_residual,
    entropy_tolerance,
    extract_trace,
    make_bump_family,
)
from .errors import BlowUpError, DataValidationError
from .fields import Field, lp_norm
from .scenarios import ScenarioSpec, load_scenario, preset_initial
from .scheme import Trajectory, run

#: tolerance scale constants, calibrated on the shipped scenarios
MEAN_TOL_FACTOR = 1e-8          # times ||u0||_L1
BALANCE_TOL_FACTOR = 300.0      # times dx * (1 + ||u0||_2^2 + T sup g^4)


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_default(obj):
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def write_json(path: Path, doc) -> None:
    _write_atomic(path, json.dumps(doc, indent=2, default=_json_default) + "\n")


def write_csv(path: Path, header: list, table: np.ndarray) -> None:
    lines = [",".join(header)]
    lines += [",".join(map(repr, row)) for row in table.tolist()]
    _write_atomic(path, "\n".join(lines) + "\n")


def _run_scenario(spec: ScenarioSpec, strict_compat: bool) -> Trajectory:
    return run(
        spec.initial,
        spec.boundary,
        spec.config,
        require_zero_mean=spec.conforming,
        strict_compat=strict_compat,
    )


def _cmd_solve(spec: ScenarioSpec, out: Path, args) -> int:
    traj = _run_scenario(spec, args.strict_compat)
    xs = spec.grid.nodes
    for k, s in enumerate(traj.snapshots):
        table = np.column_stack((np.full(len(xs), s.t), xs, s.u.values, s.P.values))
        write_csv(out / f"snapshot_{k:03d}.csv", ["t", "x", "u", "P"], table)
    write_csv(out / "boundary.csv", ["t", "g", "dudx0"], traj.boundary_series)
    write_json(
        out / "run.json",
        {
            "scenario": spec.name,
            "verdict": "completed",
            "steps": int(len(traj.step_log)),
            "snapshot_times": traj.times.tolist(),
        },
    )
    return 0


def _invariant_records(spec: ScenarioSpec, traj: Trajectory) -> tuple:
    res = mean_residual(traj)
    worst = int(np.argmax(res))
    mean_rec = CheckRecord(
        name="zero-mean",
        tag="mass-conservation",
        measured=float(res[worst]),
        bound=0.0,
        tolerance=MEAN_TOL_FACTOR * lp_norm(traj.initial.u, 1),
        detail={"worst_time": float(traj.times[worst])},
    )
    sup_g = float(np.max(np.abs(traj.boundary_series[:, 1])))
    bal_tol = BALANCE_TOL_FACTOR * spec.grid.dx * (
        1.0 + lp_norm(traj.initial.u, 2) ** 2
        + spec.config.final_time * sup_g**4
    )
    bal_rec = CheckRecord(
        name="l2-balance",
        tag="squared-norm-balance",
        measured=l2_balance_residual(traj),
        bound=0.0,
        tolerance=bal_tol,
    )
    return (mean_rec, bal_rec, energy_l4_p2_check(traj), p_infty_check(traj),
            linfty_check(traj))


def _cmd_invariants(spec: ScenarioSpec, out: Path, args) -> int:
    traj = _run_scenario(spec, args.strict_compat)
    records = _invariant_records(spec, traj)
    write_json(out / "report.json", [r.as_dict() for r in records])
    return 0 if all(r.verdict == "pass" for r in records) else 1


def _parse_bumps(text: str) -> tuple:
    message = f"--bumps must be two positive integers kt,kx, got {text!r}"
    try:
        kt, kx = (int(v) for v in text.split(","))
    except ValueError:
        raise ValueError(message) from None
    if kt < 1 or kx < 1:
        raise ValueError(message)
    return kt, kx


def _cmd_entropy(spec: ScenarioSpec, out: Path, args) -> int:
    if args.constants < 1:
        raise ValueError(f"--constants must be at least 1, got {args.constants}")
    counts = _parse_bumps(args.bumps)
    traj = _run_scenario(spec, args.strict_compat)
    trace = extract_trace(traj)
    sup_u = max(lp_norm(s.u, math.inf) for s in traj.snapshots)
    constants = np.linspace(-sup_u, sup_u, args.constants)
    bumps = make_bump_family(
        (0.0, spec.config.final_time), (0.0, spec.grid.length), counts
    )
    tolerances = [entropy_tolerance(phi, traj) for phi in bumps]
    rows = []
    all_pass = True
    for c in constants:
        pair = EntropyPair(c=float(c))
        for bi, (phi, tol) in enumerate(zip(bumps, tolerances)):
            r = entropy_residual(traj, pair, phi, trace)
            ok = r >= -tol
            all_pass = all_pass and ok
            rows.append(
                {
                    "c": float(c),
                    "bump": bi,
                    "residual": r,
                    "tolerance": tol,
                    "verdict": "pass" if ok else "fail",
                }
            )
    write_json(
        out / "entropy.json",
        {"scenario": spec.name, "tag": "kruzhkov-inequality", "rows": rows},
    )
    return 0 if all_pass else 1


def _cmd_stability(spec: ScenarioSpec, out: Path, args) -> int:
    base = _run_scenario(spec, args.strict_compat)
    L = spec.grid.length
    bump = preset_initial(
        "bump-derivative",
        {"a": args.delta, "x0": L / 4.0, "sigma": L / 20.0},
        spec.grid,
    )
    perturbed_u0 = Field(spec.grid, spec.initial.values + bump.values)
    pert = _run_scenario(replace(spec, initial=perturbed_u0), args.strict_compat)
    C = args.stability_C
    if C is None:
        C = default_stability_constant(base, pert)
    rec = stability_compare(base, pert, args.stability_R, C)
    write_json(out / "stability.json", rec.as_dict())
    return 0 if rec.verdict == "pass" else 1


def _cmd_sweep(spec: ScenarioSpec, out: Path, args) -> int:
    epsilons = [float(e) for e in args.epsilons.split(",")]
    rec = epsilon_sweep(spec.initial, spec.boundary, spec.config, epsilons)
    write_json(out / "sweep.json", rec.as_dict())
    return 0 if rec.verdict == "pass" else 1


def _cmd_scale(spec: ScenarioSpec, out: Path, args) -> int:
    if args.k is not None and args.c2 is not None:
        k, c2 = args.k, args.c2
    elif spec.physical is not None:
        k, c2 = spec.physical
    else:
        raise DataValidationError(
            ["scale needs --k/--c2 or a 'physical' block in the scenario"]
        )
    sc = scaling_constants(k, c2)
    write_json(
        out / "scale.json",
        {
            "tag": "physical-scaling-map",
            "k": sc.k,
            "c2": sc.c2,
            "D1": sc.D1,
            "D2": sc.D2,
            "identity_product": 2.0 * sc.c2**2 * sc.D1 * sc.D2,
            "identity_square": sc.c2**2 * sc.k**2 * sc.D2**2,
        },
    )
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "invariants": _cmd_invariants,
    "entropy-check": _cmd_entropy,
    "stability": _cmd_stability,
    "sweep": _cmd_sweep,
    "scale": _cmd_scale,
}


class _ArgumentParser(argparse.ArgumentParser):
    """Raises a malformed command line as a ValueError, so that ``main``
    reports it like any other bad input; ``--help`` still exits 0."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="spe",
        description="Short pulse equation solver and estimate verifier",
    )
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
    parser.add_argument("--scenario", required=True, help="scenario JSON path")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--strict-compat", action="store_true",
                        help="treat u0(0) != g(0) as an error")
    parser.add_argument("--epsilons", default="1e-1,3e-2,1e-2,3e-3,1e-3",
                        help="comma-separated decreasing viscosities (sweep)")
    parser.add_argument("--stability-C", type=float, default=None,
                        help="override the stability constant (default 3M^2+1)")
    parser.add_argument("--stability-R", type=float, default=4.0,
                        help="stability comparison window")
    parser.add_argument("--delta", type=float, default=1e-2,
                        help="stability perturbation amplitude")
    parser.add_argument("--constants", type=int, default=5,
                        help="number of Kruzhkov constants (entropy-check)")
    parser.add_argument("--bumps", default="3,3",
                        help="test function tiling kt,kx (entropy-check)")
    parser.add_argument("--k", type=float, default=None, help="susceptibility magnitude")
    parser.add_argument("--c2", type=float, default=None, help="material constant")
    return parser


def _named_out(argv) -> Path:
    """The --out directory a command line names, or spe-out/."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--out", nargs="?")
    return Path(parser.parse_known_args(argv)[0].out or "spe-out")


def main(argv=None) -> int:
    out = None
    try:
        args = build_parser().parse_args(argv)
        out = Path(args.out) if args.out else Path("spe-out") / args.subcommand
        spec = load_scenario(args.scenario)
        if not spec.conforming and args.subcommand != "entropy-check":
            raise DataValidationError(
                [f"non-conforming scenario {spec.name!r} is usable only with "
                 f"the entropy-check subcommand"]
            )
        return _COMMANDS[args.subcommand](spec, out, args)
    except (DataValidationError, BlowUpError, ValueError, OSError) as exc:
        if out is None:  # the command line itself is malformed
            out = _named_out(argv)
        record = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, DataValidationError):
            record["violations"] = exc.violations
        if isinstance(exc, BlowUpError):
            record["time"] = exc.time
        try:
            write_json(out / "error.json", record)
        except OSError:
            pass
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
