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
``main`` applies ``--strict-compat`` once, for every subcommand.  Before any
option's rule is applied, ``main`` reads the command line once for its
output directory and its scenario's inputs, so that every exit-2 path, a
malformed command line's included, writes ``error.json`` there and never
over an input.

All artifacts are written atomically (temp file + rename) with shortest
round-trip float formatting, so identical inputs give byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import tempfile
from contextlib import suppress
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
from .entropy import entropy_table, extract_trace, make_bump_family
from .entropy import (  # noqa: F401  bench/child.py traces these names
    entropy_residual,
    entropy_tolerance,
)
from .errors import BlowUpError, DataValidationError
from .fields import Field, lp_norm
from .scenarios import ScenarioSpec, load_scenario, preset_initial, scenario_files
from .scheme import Trajectory, compat_mismatch, run

#: tolerance scale constants, calibrated on the shipped scenarios
MEAN_TOL_FACTOR = 1e-8          # times ||u0||_L1
BALANCE_TOL_FACTOR = 300.0      # times dx * (1 + ||u0||_2^2 + T sup g^4)

#: the most (constant, bump) rows an entropy-check table may have; each row
#: is about 150 bytes of entropy.json, so the file stays near 15 MB
MAX_ENTROPY_ROWS = 10**5

def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then rename it
    over ``path``.  The file gets the mode ``open(path, "w")`` would give it
    under the process umask, not the temporary file's 0600."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _files(out: Path, pattern: re.Pattern) -> list:
    """The files in ``out``, if it exists, whose names fullmatch ``pattern``
    (no directory), sorted."""
    return sorted(path for path in (out.iterdir() if out.is_dir() else ())
                  if pattern.fullmatch(path.name) and not path.is_dir())


def _remove_outputs(out: Path, inputs: set) -> None:
    """Remove the ``_OUTPUT_FILE`` files in ``out``, but none whose real path
    is in ``inputs`` (an earlier run's boundary.csv that the scenario reads)."""
    for path in _files(out, _OUTPUT_FILE):
        if os.path.realpath(path) not in inputs:
            path.unlink()


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
    return run(spec.initial, spec.boundary, spec.config)


def _cmd_solve(spec: ScenarioSpec, out: Path, args) -> tuple:
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
    return {
        "scenario": spec.name,
        "verdict": "completed",
        "steps": int(len(traj.step_log)),
        "snapshot_times": traj.times.tolist(),
    }, True


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


def _cmd_invariants(spec: ScenarioSpec, out: Path, args) -> tuple:
    records = _invariant_records(_run_scenario(spec))
    return [r.as_dict() for r in records], all(r.verdict == "pass" for r in records)


def _cmd_entropy(spec: ScenarioSpec, out: Path, args) -> tuple:
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
    residuals, tolerances = entropy_table(traj, constants, bumps, trace)
    rows = [{"c": float(c), "bump": bi, "residual": float(residuals[bi][ci]),
             "tolerance": float(tol),
             "verdict": "pass" if residuals[bi][ci] >= -tol else "fail"}
            for ci, c in enumerate(constants) for bi, tol in enumerate(tolerances)]
    doc = {"scenario": spec.name, "tag": "kruzhkov-inequality", "rows": rows}
    return doc, all(row["verdict"] == "pass" for row in rows)


def _cmd_stability(spec: ScenarioSpec, out: Path, args) -> tuple:
    L = spec.grid.length
    if args.stability_R > L:  # checked before the two runs it would waste
        raise ValueError(f"argument --stability-R: the window must be at most "
                         f"the domain length L = {L!r}, got {args.stability_R!r}")
    try:  # checked before the two runs: its only failure is an overflow
        bump = preset_initial(
            "bump-derivative",
            {"a": args.delta, "x0": L / 4.0, "sigma": L / 20.0},
            spec.grid,
        )
    except ValueError:
        raise ValueError(f"argument --delta: the perturbation's L1 norm overflows, "
                         f"got {args.delta!r}") from None
    base = _run_scenario(spec)
    perturbed_u0 = Field(spec.grid, spec.initial.values + bump.values)
    pert = _run_scenario(replace(spec, initial=perturbed_u0))
    C = args.stability_C
    if C is None:
        C = default_stability_constant(base, pert)
    rec = stability_compare(base, pert, args.stability_R, C)
    return rec.as_dict(), rec.verdict == "pass"


def _cmd_sweep(spec: ScenarioSpec, out: Path, args) -> tuple:
    rec = epsilon_sweep(spec.initial, spec.boundary, spec.config, args.epsilons)
    return rec.as_dict(), rec.verdict == "pass"


def _cmd_scale(spec: ScenarioSpec, out: Path, args) -> tuple:
    if spec.physical is None:
        raise DataValidationError(["scale needs a 'physical' block in the scenario"])
    sc = scaling_constants(*spec.physical)
    beyond = (f"physical: k = {sc.k!r} and c2 = {sc.c2!r} put a scaling constant "
              "beyond the float range")
    try:  # a float power raises on overflow
        values = {
            "k": sc.k,
            "c2": sc.c2,
            "D1": sc.D1,
            "D2": sc.D2,
            "identity_product": 2.0 * sc.c2**2 * sc.D1 * sc.D2,
            "identity_square": sc.c2**2 * sc.k**2 * sc.D2**2,
        }
    except OverflowError:
        raise OverflowError(beyond) from None
    if not all(map(math.isfinite, values.values())):  # JSON has no inf or nan
        raise ValueError(beyond)
    return {"tag": "physical-scaling-map", **values}, True


#: each subcommand: the function that runs it and returns (document, passed),
#: the JSON file ``main`` writes that document to last, and the patterns of
#: the files the function writes into --out itself
_COMMANDS = {
    "solve": (_cmd_solve, "run.json", r"snapshot_[0-9]{3,}\.csv", r"boundary\.csv"),
    "invariants": (_cmd_invariants, "report.json"),
    "entropy-check": (_cmd_entropy, "entropy.json"),
    "stability": (_cmd_stability, "stability.json"),
    "sweep": (_cmd_sweep, "sweep.json"),
    "scale": (_cmd_scale, "scale.json"),
}


def _written(subcommand: str) -> str:
    """The pattern of the file names ``subcommand`` may write into --out:
    its own files, its document and error.json."""
    _, document, *files = _COMMANDS[subcommand]
    return "|".join([*files, re.escape(document), r"error\.json"])


#: the files spe writes into --out, which ``main`` removes before a command
_OUTPUT_FILE = re.compile("|".join(map(_written, _COMMANDS)))


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


def _can_be_directory(text: str) -> bool:
    """Whether ``text`` names a directory, or a path that ``mkdir`` can make
    one: no NUL byte, and its nearest existing ancestor is a directory."""
    path = Path(text).absolute()
    return "\0" not in text and os.path.isdir(
        next(p for p in (path, *path.parents) if os.path.lexists(p)))


#: the rule of --out, which ``main`` also applies to the default directory
_OUT_RULE = "a directory or a new path whose nearest existing ancestor is a directory"


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="spe",
        description="Short pulse equation solver and estimate verifier",
        allow_abbrev=False,
    )
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
    parser.add_argument("--scenario", required=True, help="scenario JSON path")
    parser.add_argument(
        "--out", default=None,
        type=_option_type(_OUT_RULE, str, _can_be_directory),
        help="output directory")
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


def _preflight(parser: argparse.ArgumentParser, argv) -> tuple:
    """``(out, inputs)`` of a command line, read before ``parser`` applies
    any rule: the --out directory, else spe-out/<subcommand>, else spe-out/,
    and the real paths of the files each --scenario reads.  Each option is
    declared without its rule, so that no value is taken for the subcommand,
    and in full: an abbreviation is an unrecognized word."""
    preflight = _ArgumentParser(add_help=False, allow_abbrev=False)
    for action in parser._actions:
        if action.option_strings and action.nargs != 0:
            preflight.add_argument(*action.option_strings, nargs="?", action="append")
    named, rest = preflight.parse_known_args(argv)
    inputs = {os.path.realpath(file) for scenario in named.scenario or () if scenario
              for file in scenario_files(scenario)}
    if named.out and named.out[-1]:
        return Path(named.out[-1]), inputs
    words = [word for word in rest if not word.startswith("-")]
    if words and words[0] in _COMMANDS:
        return Path("spe-out") / words[0], inputs
    return Path("spe-out"), inputs


def main(argv=None) -> int:
    parser = build_parser()
    out, inputs = _preflight(parser, argv)
    args = None
    try:
        args = parser.parse_args(argv)
        # the default directory (no --out, or an empty one) passes no rule of the parser
        if not _can_be_directory(str(out)):
            raise ValueError(f"argument --out: must be {_OUT_RULE}, got {str(out)!r}")
        clash = [path for path in _files(out, re.compile(_written(args.subcommand)))
                 if os.path.realpath(path) in inputs]
        if clash:  # refused before anything is removed or written: inputs stay
            raise DataValidationError([f"{path}: an input of the scenario, which "
                                       f"{args.subcommand} would write over" for path in clash])
        # no earlier command's file is left to be read as this one's
        _remove_outputs(out, inputs)
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
        command, document = _COMMANDS[args.subcommand][:2]
        doc, passed = command(spec, out, args)
        write_json(out / document, doc)
        return 0 if passed else 1
    # ImportError: scipy, which only a viscous run loads, is missing;
    # ArithmeticError: a float operation on valid input overflowed
    except (BlowUpError, ValueError, ArithmeticError, OSError, MemoryError,
            ImportError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, DataValidationError):
            record["violations"] = exc.violations
        if isinstance(exc, BlowUpError):
            record["time"] = exc.time
        with suppress(OSError, ValueError):  # ValueError: a NUL byte in --out
            if args is not None:  # malformed: remove nothing, so a typo keeps the last run
                _remove_outputs(out, inputs)
            if os.path.realpath(out / "error.json") not in inputs:
                write_json(out / "error.json", record)
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
