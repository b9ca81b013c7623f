"""Benchmark of the spe command line, one workload per run.

Usage (from the repository root):

    python3 bench/run_bench.py --workload sweep-n4000 --seed 0 --seconds 38 --trace 0

The run writes the workload's scenario files for ``--seed`` under
``bench/.work/``, takes a few set-up-only samples, then runs as many sessions
of the workload (see ``workloads.py``) as fit in ``--seconds``, each command
in a fresh interpreter (``child.py``).  Every command's outputs are
checked; for ``workloads.DEFAULT_SEED`` they are also compared with
``reference.json``.

With ``--trace 0`` it reports the end-to-end metrics (a session time is the
mean of the faster half of the sessions, see ``end_to_end``); with
``--trace 1`` it alternates untraced and traced sessions and reports the
per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment, the checked output values and a readable table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150.0
#: relative tolerance on the reference values of the default seed.  Swapping
#: the banded diffusion solve for LAPACK dptsv moves them by at most 1.5e-13.
REFERENCE_RTOL = 1e-10

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("node_steps_per_s", "1/s"),
)

SPANS = (
    "cli.write_csv",
    "cli.write_json",
    "scenarios.load_scenario",
    "scheme.run",
    "scheme.step",
    "scheme.stable_dt",
    "scheme.BoundaryData",
    "nonlocal_source.cumulative_primitive",
    "fields.Field",
    "fields.lp_norm",
    "entropy.extract_trace",
    "entropy.make_bump_family",
    "entropy.entropy_residual",
    "entropy.entropy_tolerance",
    "diagnostics.mean_residual",
    "diagnostics.l2_balance_residual",
    "diagnostics.energy_l4_p2_check",
    "diagnostics.p_infty_check",
    "diagnostics.linfty_check",
    "diagnostics.epsilon_sweep",
)
PER_CALL_SPANS = (
    "scheme.step",
    "scheme.stable_dt",
    "scheme.BoundaryData",
    "nonlocal_source.cumulative_primitive",
    "fields.Field",
    "fields.lp_norm",
    "entropy.entropy_residual",
    "entropy.entropy_tolerance",
    "cli.write_csv",
)
MODULES = ("cli", "scenarios", "scheme", "nonlocal_source", "fields",
           "entropy", "diagnostics")


def per_layer_units() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    units = []
    for span in SPANS:
        units += [(f"{span}.calls", "count"), (f"{span}.self_s", "s")]
        if span in PER_CALL_SPANS:
            units.append((f"{span}.us_per_call", "us"))
    units += [("fields.Field.useful_ratio", "ratio"),
              ("cli.write_csv.bytes", "bytes")]
    units += [(f"{module}.self_share", "ratio") for module in MODULES]
    units += [("trace.wall_s", "s"), ("trace.overhead_s", "s"),
              ("trace.unattributed_s", "s"), ("trace.steps", "count")]
    return units


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "threads_pinned": 1,
    }


def child_env() -> dict:
    """Environment of the benchmark's own child processes: the checkout's
    ``src`` first on the path, a fixed string-hash seed so every interpreter
    lays out its dicts alike, and every BLAS/OpenMP pool pinned to one thread."""
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    """Runs child interpreters inside one work directory."""

    def __init__(self, work: Path):
        self.work = work
        self.env = child_env()

    def child(self, scenario: Path, argv, trace: bool = False) -> dict:
        """One fresh interpreter; its record, or ``{"error": ...}``."""
        params = self.work / "params.json"
        record = self.work / "record.json"
        record.unlink(missing_ok=True)
        params.write_text(json.dumps({
            "scenario": str(scenario),
            "argv": argv,
            "trace": trace,
            "record": str(record),
            "spans": str(self.work / f"spans-{argv[0] if argv else 'setup'}.tsv"),
        }), encoding="utf-8")
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), str(params)],
                env=self.env, cwd=self.work, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
        if proc.returncode != 0 or not record.is_file():
            tail = proc.stderr.strip().splitlines()[-1:] or ["no record written"]
            return {"error": f"child exited {proc.returncode}: {tail[0]}"}
        return json.loads(record.read_text(encoding="utf-8"))


def _read_json(path: Path):
    with path.open(encoding="utf-8") as fh:
        return json.load(fh)


def _trapezoid_norms(path: Path) -> tuple:
    """Trapezoidal L1 and L2 norms of the ``u`` column of a snapshot CSV."""
    with path.open(encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        ix, iu = header.index("x"), header.index("u")
        rows = [line.split(",") for line in fh]
    xs = [float(r[ix]) for r in rows]
    us = [float(r[iu]) for r in rows]
    l1 = l2 = 0.0
    for i in range(1, len(xs)):
        h = xs[i] - xs[i - 1]
        l1 += 0.5 * h * (abs(us[i - 1]) + abs(us[i]))
        l2 += 0.5 * h * (us[i - 1] ** 2 + us[i] ** 2)
    return l1, math.sqrt(l2)


def check_command(argv: list, out: Path, rec: dict) -> tuple:
    """Errors found in one command's outputs, and the values it is compared
    on (accepted step counts and the command's key numbers)."""
    if "error" in rec:
        return [rec["error"]], {}
    errors = []
    if rec["rc"] != 0:
        errors.append(f"exit code {rec['rc']}")
    steps = [r["steps"] for r in rec["runs"]]
    values = {"steps": steps}
    command = argv[0]
    try:
        if command == "sweep":
            doc = _read_json(out / "sweep.json")
            if doc["verdict"] != "pass":
                errors.append("sweep verdict is not pass")
            values["l1_differences"] = doc["detail"]["l1_differences"]
        elif command == "entropy-check":
            rows = _read_json(out / "entropy.json")["rows"]
            expected = workloads.ENTROPY_CONSTANTS * math.prod(workloads.ENTROPY_BUMPS)
            if len(rows) != expected:
                errors.append(f"{len(rows)} entropy residuals, expected {expected}")
            if any(r["verdict"] != "pass" for r in rows):
                errors.append("an entropy verdict is not pass")
            values["min_margin"] = min(r["residual"] + r["tolerance"] for r in rows)
        elif command == "solve":
            doc = _read_json(out / "run.json")
            if doc["steps"] != sum(steps):
                errors.append(f"run.json reports {doc['steps']} steps, "
                              f"the solver returned {sum(steps)}")
            count = len(doc["snapshot_times"])
            files = sorted(out.glob("snapshot_*.csv"))
            if len(files) != count:
                errors.append(f"{len(files)} snapshot files for {count} snapshots")
            values["final_l1"], values["final_l2"] = _trapezoid_norms(files[-1])
            if not all(math.isfinite(v) for v in (values["final_l1"], values["final_l2"])):
                errors.append("final snapshot norms are not finite")
        elif command == "invariants":
            report = _read_json(out / "report.json")
            if len(report) != 5 or any(r["verdict"] != "pass" for r in report):
                errors.append("an invariant verdict is not pass")
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        errors.append(f"unreadable output: {type(exc).__name__}: {exc}")
    spans = rec.get("spans")
    if spans is not None:
        calls = spans.get("scheme.step", {}).get("calls", 0)
        if calls != sum(steps):
            errors.append(f"traced scheme.step.calls = {calls}, "
                          f"program reports {sum(steps)} steps")
    return errors, values


def _close(got, want, rtol: float) -> bool:
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_close(g, w, rtol) for g, w in zip(got, want)))
    if isinstance(want, int):
        return got == want
    return isinstance(got, float) and abs(got - want) <= rtol * abs(want)


def compare_reference(values: dict, reference: dict) -> list:
    """Values of one command that miss the committed reference."""
    return [f"{key} = {values.get(key)!r}, reference {ref!r}"
            for key, ref in reference.items()
            if not _close(values.get(key), ref, REFERENCE_RTOL)]


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_session(runner: Runner, cmds: list, out: Path, trace: bool,
                reference: dict | None, digests: dict) -> dict:
    """One pass over ``cmds``.  Besides ``check_command``, a command fails if
    it misses ``reference`` (default seed only), if its outputs differ from
    those of the run's first session, or if invariants took other steps
    than solve did on the same scenario."""
    session = {"traced": trace, "wall_s": 0.0, "setup": [], "rss_mb": 0.0,
               "node_steps": 0, "steps": 0, "errors": [], "failed": 0,
               "values": {}, "spans": {}, "fields_kept": 0}
    for argv in cmds:
        command = argv[0]
        scenario = Path(argv[argv.index("--scenario") + 1])
        command_out = Path(argv[argv.index("--out") + 1])
        shutil.rmtree(command_out, ignore_errors=True)
        rec = runner.child(scenario, argv, trace)
        errors, values = check_command(argv, command_out, rec)
        if reference is not None:
            errors += compare_reference(values, reference.get(command, {}))
        digest = _digest(command_out)
        if digests.setdefault(command, digest) != digest:
            errors.append("outputs differ from the first session's")
        if command == "invariants":
            solve_steps = session["values"].get("solve", {}).get("steps")
            if values.get("steps") != solve_steps:
                errors.append(f"took {values.get('steps')} steps, solve {solve_steps}")
        if errors:
            session["failed"] += 1
            session["errors"] += [f"{command}: {e}" for e in errors]
        session["values"][command] = values
        if "error" in rec:
            continue
        session["wall_s"] += rec["wall_s"]
        session["setup"].append(rec["setup_s"])
        session["rss_mb"] = max(session["rss_mb"], rec["rss_mb"])
        for r in rec["runs"]:
            session["node_steps"] += r["nodes"] * r["steps"]
            session["steps"] += r["steps"]
            session["fields_kept"] += r["fields_kept"]
        for name, agg in rec.get("spans", {}).items():
            into = session["spans"].setdefault(name, dict.fromkeys(agg, 0))
            for key, value in agg.items():
                into[key] += value
    session["csv_bytes"] = sum(p.stat().st_size for p in out.rglob("*.csv"))
    return session


def faster_half_mean(values) -> float:
    """Mean of the faster half of ``values`` (the middle one included)."""
    ordered = sorted(values)
    half = ordered[:(len(ordered) + 1) // 2]
    return sum(half) / len(half)


def end_to_end(sessions: list, setup: list) -> dict:
    """The run's end-to-end metrics.  The program is deterministic and
    single-threaded, so load from the rest of a shared host only ever adds
    time, in bursts that can cover a whole session: ``wall_s`` is the mean
    of the faster half of the sessions, which holds steadier across runs
    than their median or their minimum.  ``setup_s`` is the median of every
    set-up sample."""
    ok = [s for s in sessions if s["wall_s"] > 0.0]
    wall = faster_half_mean(s["wall_s"] for s in ok)
    return {
        "wall_s": wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(s["rss_mb"] for s in ok),
        "node_steps_per_s": statistics.median(s["node_steps"] for s in ok) / wall,
    }


def per_layer(sessions: list) -> dict:
    """Medians over the traced sessions; empty if no (untraced, traced)
    pair of adjacent sessions both ran.  The tracing overhead is the median
    of the pairwise differences, so a drift in machine speed over the run
    cancels."""
    pairs = [(plain, traced) for plain, traced in zip(sessions[0::2], sessions[1::2])
             if plain["wall_s"] > 0.0 and traced["wall_s"] > 0.0]
    if not pairs:
        return {}
    traced = [t for _, t in pairs]
    rows = []
    for s in traced:
        spans = s["spans"]
        row = {}
        for span in SPANS:
            agg = spans.get(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row[f"{span}.calls"] = agg["calls"]
            row[f"{span}.self_s"] = agg["self_s"]
            if span in PER_CALL_SPANS:
                row[f"{span}.us_per_call"] = (
                    1e6 * agg["total_s"] / agg["calls"] if agg["calls"] else 0.0)
        built = spans.get("fields.Field", {}).get("calls", 0)
        row["fields.Field.useful_ratio"] = s["fields_kept"] / built if built else 0.0
        row["cli.write_csv.bytes"] = s["csv_bytes"]
        for module in MODULES:
            own = sum(agg["self_s"] for name, agg in spans.items()
                      if name.split(".", 1)[0] == module)
            row[f"{module}.self_share"] = own / s["wall_s"]
        row["trace.wall_s"] = s["wall_s"]
        row["trace.unattributed_s"] = s["wall_s"] - sum(
            agg["self_s"] for agg in spans.values())
        row["trace.steps"] = s["steps"]
        rows.append(row)
    metrics = {name: statistics.median(row[name] for row in rows)
               for name in rows[0]}
    metrics["trace.overhead_s"] = statistics.median(
        t["wall_s"] - p["wall_s"] for p, t in pairs)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spe" / "cli.py").is_file():
        print(f"error: no spe package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    work = BENCH / ".work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = workloads.write_inputs(args.seed, work / "inputs")
    out = work / "out"
    cmds = workloads.commands(args.workload, inputs, out)
    first_scenario = Path(cmds[0][cmds[0].index("--scenario") + 1])
    runner = Runner(work)

    # the first child compiles bytecode and warms the file cache: not a sample
    runner.child(first_scenario, None)
    setup = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            rec = runner.child(first_scenario, None)
            if "error" not in rec:
                setup.append(rec["setup_s"])

    reference = None
    if args.seed == workloads.DEFAULT_SEED:
        reference = _read_json(BENCH / "reference.json")[args.workload]
    digests = {}
    sessions = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(sessions) % 2 == 1
        sessions.append(run_session(runner, cmds, out, traced, reference, digests))
        done = len(sessions)
        # start another session only if, at the mean pace so far, it ends in time
        ends_at = (time.perf_counter() - start) * (done + 1) / done
        if ends_at > args.seconds and done >= (2 if args.trace else 1):
            break

    errors = [e for s in sessions for e in s["errors"]]
    setup += [x for s in sessions for x in s["setup"]]
    values = sessions[0]["values"]
    attempted = sum(len(cmds) for _ in sessions)
    failed = sum(s["failed"] for s in sessions)
    correct = not errors and failed == 0

    ran = [s for s in sessions if s["wall_s"] > 0.0]
    metrics, units = {}, []
    if args.trace:
        metrics, units = per_layer(sessions), per_layer_units()
    elif ran and setup:
        metrics, units = end_to_end(sessions, setup), list(END_TO_END)
    if not metrics:
        correct, units = False, []

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    print("checks " + json.dumps(values, sort_keys=True))
    for error in errors:
        print(f"FAILED {error}")
    print(f"{args.workload} seed={args.seed} sessions={len(sessions)} "
          f"attempted={attempted} failed={failed}")
    print(f"  {'error_rate':40s} {failed / attempted:.4g} ratio")
    if args.workload == "entropy-riemann" and ran:
        residuals = workloads.ENTROPY_CONSTANTS * math.prod(workloads.ENTROPY_BUMPS)
        rate = residuals / faster_half_mean(s["wall_s"] for s in ran)
        print(f"  {'residuals_per_s':40s} {rate:.6g} 1/s")
    untraced = sorted(s["wall_s"] for s in ran if not s["traced"])
    if untraced:
        print(f"  {'session wall median / max':40s} {statistics.median(untraced):.6g}"
              f" / {untraced[-1]:.6g} s over {len(untraced)} sessions")
    for name, unit in units:
        print(f"  {name:40s} {metrics[name]:.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }
    (work / "result.json").write_text(
        json.dumps({"env": env, "workload": args.workload, "seed": args.seed,
                    "trace": args.trace, "result": result, "errors": errors,
                    "samples": {"session_wall_s": [s["wall_s"] for s in sessions],
                                "session_traced": [s["traced"] for s in sessions],
                                "setup_s": setup}},
                   indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
