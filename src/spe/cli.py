"""Command-line runner: solve, verify estimates, and serialize results.

Subcommands
-----------
solve           integrate a scenario and write snapshot/boundary CSV files
invariants      run the five estimate checks and write a report
entropy-check   evaluate the entropy inequality over a (c, bump) grid
stability       paired-run L1 stability comparison
sweep           vanishing-viscosity Cauchy study
scale           the scaling constants of the scenario's physical block

The scenario holds the problem's data, and the options only how it is run;
``main`` applies ``--strict-compat`` once, for every subcommand.

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
    entropy_residuals,
    entropy_tolerance,
    extract_trace,
    make_bump_family,
)
from .entropy import entropy_residual  # noqa: F401  bench/child.py traces this name
from .errors import BlowUpError, DataValidationError
from .fields import Field, lp_norm
from .scenarios import ScenarioSpec, load_scenario, preset_initial
from .scheme import Trajectory, compat_mismatch, run

#: tolerance scale constants, calibrated on the shipped scenarios
MEAN_TOL_FACTOR = 1e-8          # times ||u0||_L1
BALANCE_TOL_FACTOR = 300.0      # times dx * (1 + ||u0||_2^2 + T sup g^4)

#: the most (constant, bump) rows an entropy-check table may have; each row
#: is about 150 bytes of entropy.json, so the file stays near 15 MB
MAX_ENTROPY_ROWS = 10**5


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


def write_json(path: Path, doc) -> None:
    _write_atomic(path, json.dumps(doc, indent=2) + "\n")


def _float_text(values):
    """The values as the repr of Python floats (the shortest texts that read
    back to the same doubles), produced lazily."""
    return map(repr, np.asarray(values, dtype=float).tolist())


def write_csv(path: Path, header: list, columns: list) -> None:
    """A CSV file with one column of value texts (``_float_text``) per name
    in ``header``; a column may be an iterator, read as the rows are
    joined."""
    lines = [",".join(header)]
    lines += map(",".join, zip(*columns))
    _write_atomic(path, "\n".join(lines) + "\n")


def _run_scenario(spec: ScenarioSpec) -> Trajectory:
    return run(spec.initial, spec.boundary, spec.config,
               require_zero_mean=spec.conforming)


def _cmd_solve(spec: ScenarioSpec, out: Path, args) -> int:
    traj = _run_scenario(spec)
    # x is the same column in every snapshot and t is constant in one, so
    # each is formatted once
    x_text = list(_float_text(spec.grid.nodes))
    for k, s in enumerate(traj.snapshots):
        columns = [list(_float_text([s.t])) * len(x_text), x_text,
                   _float_text(s.u.values), _float_text(s.P.values)]
        write_csv(out / f"snapshot_{k:03d}.csv", ["t", "x", "u", "P"], columns)
    write_csv(out / "boundary.csv", ["t", "g", "dudx0"],
              [_float_text(col) for col in traj.boundary_series.T])
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


def _invariant_records(traj: Trajectory) -> tuple:
    u0, config = traj.initial.u, traj.config
    mean_tol = MEAN_TOL_FACTOR * lp_norm(u0, 1)
    sup_g = float(np.max(np.abs(traj.boundary_series[:, 1])))
    bal_tol = BALANCE_TOL_FACTOR * config.grid.dx * (
        1.0 + lp_norm(u0, 2) ** 2 + config.final_time * sup_g**4)
    return (CheckRecord.at_worst("zero-mean", "mass-conservation", mean_residual(traj),
                                 0.0, mean_tol, traj.times),
            CheckRecord.at_worst("l2-balance", "squared-norm-balance",
                                 l2_balance_residual(traj), 0.0, bal_tol),
            energy_l4_p2_check(traj), p_infty_check(traj), linfty_check(traj))


def _cmd_invariants(spec: ScenarioSpec, out: Path, args) -> int:
    traj = _run_scenario(spec)
    records = _invariant_records(traj)
    write_json(out / "report.json", [r.as_dict() for r in records])
    return 0 if all(r.verdict == "pass" for r in records) else 1


def _cmd_entropy(spec: ScenarioSpec, out: Path, args) -> int:
    table_rows = args.constants * math.prod(args.bumps)
    if table_rows > MAX_ENTROPY_ROWS:
        raise ValueError(
            f"--constants times the --bumps tiles kt*kx must be at most "
            f"{MAX_ENTROPY_ROWS}, got {table_rows}"
        )
    traj = _run_scenario(spec)
    trace = extract_trace(traj)
    sup_u = max(lp_norm(s.u, math.inf) for s in traj.snapshots)
    constants = np.linspace(-sup_u, sup_u, args.constants)
    bumps = make_bump_family(
        (0.0, spec.config.final_time), (0.0, spec.grid.length), args.bumps
    )
    tolerances = [entropy_tolerance(phi, traj) for phi in bumps]
    residuals = [entropy_residuals(traj, constants, phi, trace) for phi in bumps]
    rows = []
    all_pass = True
    for ci, c in enumerate(constants):
        for bi, tol in enumerate(tolerances):
            r = float(residuals[bi][ci])
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
    L = spec.grid.length
    if args.stability_R > L:  # checked before the two runs it would waste
        raise ValueError(f"argument --stability-R: the window must be at most "
                         f"the domain length L = {L!r}, got {args.stability_R!r}")
    base = _run_scenario(spec)
    bump = preset_initial(
        "bump-derivative",
        {"a": args.delta, "x0": L / 4.0, "sigma": L / 20.0},
        spec.grid,
    )
    perturbed_u0 = Field(spec.grid, spec.initial.values + bump.values)
    pert = _run_scenario(replace(spec, initial=perturbed_u0))
    C = args.stability_C
    if C is None:
        C = default_stability_constant(base, pert)
    rec = stability_compare(base, pert, args.stability_R, C)
    write_json(out / "stability.json", rec.as_dict())
    return 0 if rec.verdict == "pass" else 1


def _cmd_sweep(spec: ScenarioSpec, out: Path, args) -> int:
    rec = epsilon_sweep(spec.initial, spec.boundary, spec.config, args.epsilons)
    write_json(out / "sweep.json", rec.as_dict())
    return 0 if rec.verdict == "pass" else 1


def _cmd_scale(spec: ScenarioSpec, out: Path, args) -> int:
    if spec.physical is None:
        raise DataValidationError(["scale needs a 'physical' block in the scenario"])
    sc = scaling_constants(*spec.physical)
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


def _option_type(rule: str, parse, holds):
    """An argparse ``type=``: ``parse(text)``, if that succeeds and the value
    ``holds``; otherwise argparse reports ``argument --opt: must be <rule>,
    got '<text>'``, which ``main`` turns into exit 2 before anything runs."""

    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            pass
        else:
            if holds(value):
                return value
        raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")

    return convert


def _split(parse):
    """The comma-separated values of a text, each read by ``parse``."""
    return lambda text: tuple(parse(item) for item in text.split(","))


def _positive(value) -> bool:
    return 0.0 < value < math.inf


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
    parser.add_argument(
        "--epsilons", default="1e-1,3e-2,1e-2,3e-3,1e-3",
        type=_option_type(
            "at least three finite positive viscosities, strictly decreasing",
            _split(float),
            lambda e: len(e) >= 3 and _positive(e[0]) and e[-1] > 0.0
            and all(b < a for a, b in zip(e, e[1:]))),
        help="comma-separated decreasing viscosities (sweep)")
    parser.add_argument(
        "--stability-C", default=None,
        type=_option_type("a positive finite stability constant", float, _positive),
        help="override the stability constant (default 3M^2+1)")
    parser.add_argument("--stability-R", default=4.0,
                        type=_option_type("positive and finite", float, _positive),
                        help="stability comparison window, at most L")
    parser.add_argument("--delta", default=1e-2,
                        type=_option_type("finite", float, math.isfinite),
                        help="stability perturbation amplitude")
    parser.add_argument("--constants", default=5,
                        type=_option_type("an integer >= 1", int, lambda n: n >= 1),
                        help="number of Kruzhkov constants (entropy-check)")
    parser.add_argument(
        "--bumps", default="3,3",
        type=_option_type("two positive integers kt,kx", _split(int),
                          lambda k: len(k) == 2 and min(k) >= 1),
        help="test function tiling kt,kx (entropy-check)")
    return parser


def _named_out(argv) -> Path:
    """Where a malformed command line's error goes: its --out directory,
    else spe-out/<subcommand> as for every later error, else spe-out/.
    The options are declared without their rules, so that no option's value
    is taken for the subcommand.  Each prefix that names one option alone is
    spelled out first, so an ambiguous prefix leaves the others readable."""
    parser = _ArgumentParser(add_help=False, allow_abbrev=False)
    names = []
    for action in build_parser()._actions:
        names += action.option_strings
        if action.option_strings and action.nargs != 0:
            parser.add_argument(*action.option_strings, nargs="?")

    def spelled_out(word: str) -> str:
        prefix, equals, value = word.partition("=")
        matches = [name for name in names if name.startswith(prefix)]
        unique = word.startswith("--") and len(matches) == 1
        return matches[0] + equals + value if unique else word

    argv = sys.argv[1:] if argv is None else argv
    named, rest = parser.parse_known_args([spelled_out(word) for word in argv])
    if named.out:
        return Path(named.out)
    words = [word for word in rest if not word.startswith("-")]
    if words and words[0] in _COMMANDS:
        return Path("spe-out") / words[0]
    return Path("spe-out")


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
        # the one place the flag is applied, so it means the same for every
        # subcommand; ``run`` only warns about a mismatch let through
        if args.strict_compat:
            mismatch = compat_mismatch(spec.initial, spec.boundary(0.0))
            if mismatch:
                raise DataValidationError([mismatch])
        return _COMMANDS[args.subcommand](spec, out, args)
    except (DataValidationError, BlowUpError, ValueError, OSError, MemoryError) as exc:
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
