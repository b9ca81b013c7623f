"""Run one spe command in this fresh interpreter and record what it cost.

Usage: python3 child.py PARAMS_JSON

PARAMS_JSON names the scenario to load, the CLI argv (null for a set-up-only
sample), whether to trace, and where to write the record.  The record holds
the set-up time (importing ``spe.cli`` plus loading and validating the
scenario), the wall time of ``spe.cli.main(argv)``, its exit code, the peak
resident memory, and for every trajectory the solver returned its node and
step counts.  With tracing on it also holds per-span aggregates, and the
spans themselves are written next to the record.
"""

import time

_T0 = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


class Tracer:
    """In-memory spans at module boundaries: (name, start, end, parent index).

    Wrappers are installed where the caller looks the name up, so the
    program itself is not edited.
    """

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return traced

    def patch(self, owner, attr, name):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    def aggregate(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        Spans nest strictly (one thread), so a span's self time is its
        duration minus the durations of its direct children.
        """
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for idx, (name, start, end, _) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child_time[idx]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\n")


def install_tracer(tracer: Tracer) -> None:
    import spe.cli
    import spe.diagnostics
    import spe.scenarios
    import spe.scheme
    from spe.fields import Field
    from spe.scheme import BoundaryData

    for attr, name in (
        ("write_csv", "cli.write_csv"),
        ("write_json", "cli.write_json"),
        ("load_scenario", "scenarios.load_scenario"),
        ("lp_norm", "fields.lp_norm"),
        ("extract_trace", "entropy.extract_trace"),
        ("make_bump_family", "entropy.make_bump_family"),
        ("entropy_residual", "entropy.entropy_residual"),
        ("entropy_tolerance", "entropy.entropy_tolerance"),
        ("mean_residual", "diagnostics.mean_residual"),
        ("l2_balance_residual", "diagnostics.l2_balance_residual"),
        ("energy_l4_p2_check", "diagnostics.energy_l4_p2_check"),
        ("p_infty_check", "diagnostics.p_infty_check"),
        ("linfty_check", "diagnostics.linfty_check"),
        ("epsilon_sweep", "diagnostics.epsilon_sweep"),
    ):
        tracer.patch(spe.cli, attr, name)
    tracer.patch(spe.diagnostics, "lp_norm", "fields.lp_norm")
    tracer.patch(spe.scheme, "step", "scheme.step")
    tracer.patch(spe.scheme, "stable_dt", "scheme.stable_dt")
    tracer.patch(spe.scheme, "lp_norm", "fields.lp_norm")
    for module in (spe.scheme, spe.scenarios):
        tracer.patch(module, "cumulative_primitive",
                     "nonlocal_source.cumulative_primitive")
    tracer.patch(spe.scenarios, "lp_norm", "fields.lp_norm")
    tracer.patch(Field, "__post_init__", "fields.Field")
    tracer.patch(BoundaryData, "__call__", "scheme.BoundaryData")


def _reachable_fields(traj) -> int:
    states = (traj.initial, *traj.snapshots)
    return len({id(f) for s in states for f in (s.u, s.P)})


def record_runs(runs: list, tracer) -> None:
    """Wrap ``scheme.run`` where the CLI and the diagnostics look it up, and
    append (nodes, steps, reachable Fields) for every trajectory returned.

    A handful of calls per command, so it stays on with tracing off; it
    keeps no reference to the trajectory.  With a tracer, the ``scheme.run``
    span sits inside this wrapper so the bookkeeping is not charged to it.
    """
    import spe.cli
    import spe.diagnostics

    def observe(fn):
        @functools.wraps(fn)
        def observed(u0, *args, **kwargs):
            traj = fn(u0, *args, **kwargs)
            runs.append({
                "nodes": u0.grid.node_count,
                "steps": len(traj.step_log),
                "fields_kept": _reachable_fields(traj) if tracer is not None else 0,
            })
            return traj
        return observed

    for module in (spe.cli, spe.diagnostics):
        fn = module.run
        if tracer is not None:
            fn = tracer.wrap("scheme.run", fn)
        module.run = observe(fn)


def main(params_path: str) -> int:
    with open(params_path, encoding="utf-8") as fh:
        params = json.load(fh)
    import spe.cli

    spe.cli.load_scenario(params["scenario"])
    setup_s = time.perf_counter() - _T0
    record = {"setup_s": setup_s}
    argv = params["argv"]
    if argv is not None:
        tracer = Tracer() if params["trace"] else None
        runs = []
        record_runs(runs, tracer)
        if tracer is not None:
            install_tracer(tracer)
        start = time.perf_counter()
        record["rc"] = spe.cli.main(argv)
        record["wall_s"] = time.perf_counter() - start
        record["runs"] = runs
        if tracer is not None:
            record["spans"] = tracer.aggregate()
            tracer.write(params["spans"])
    record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(params["record"], "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
