"""Workloads of the spe benchmark and the seeded scenario files they run on.

Every workload is closed loop: one client, one command at a time, each
command ``spe.cli.main(argv)`` in a fresh interpreter with BLAS/OpenMP
pinned to one thread.  A *session* is one pass over a workload's commands.

sweep-n4000
    ``spe sweep`` on s1 rescaled to n=4000, no snapshots, the five default
    viscosities 1e-1 ... 1e-3: the criterion-8 configuration.
    Why: about 95% of its wall time is ``scheme.step``, the diffusion solve
    inside it, ``cumulative_primitive`` and ``Field`` construction.  It writes
    almost no artifacts and runs no entropy code, so a stepping-kernel change
    shows here.
    Predicts: ``scheme.step.*``, ``nonlocal_source.cumulative_primitive.*``,
    ``scheme.stable_dt.self_s`` and ``fields.Field.calls``/``.self_s`` move
    ``wall_s`` and ``node_steps_per_s`` most here, about half as much on
    solve-verify-s2 and under 2% on entropy-riemann.

entropy-riemann
    ``spe entropy-check`` on riemann with 50 evenly spaced snapshots and a
    13-constant x (5,5)-bump table: 325 residuals.
    Why: about 95% of its time is ``entropy_residual``/``entropy_tolerance``.
    Its solve takes the explicit, source-free branch (no tridiagonal solve,
    no projection, no source), so an IMEX-only stepper change leaves it
    unchanged and an entropy-quadrature change shows only here.
    Predicts: ``entropy.entropy_residual.*``, ``entropy.entropy_tolerance.self_s``,
    ``entropy.extract_trace.self_s`` and ``fields.lp_norm.*`` move ``wall_s``
    (and residuals per second) here and nowhere else.

solve-verify-s2
    ``spe solve`` then ``spe invariants`` on s2 with 50 snapshots.
    Why: s2 has a nonzero pulse boundary datum, so snapshot landings shorten
    steps; CSV writing is about a third of the wall time and the stepper about
    half.  It is where artifact writing, snapshot-time ``Field``/``State``
    building and run-telemetry overhead show.
    Predicts: ``scheme.run.self_s``, ``scheme.BoundaryData.calls``,
    ``cli.write_csv.self_s``/``.bytes``, ``cli.write_json.self_s`` and the
    ``diagnostics.*.self_s`` spans move ``wall_s`` here and nowhere else.

``scenarios.load_scenario.self_s`` moves ``setup_s`` on every workload.

The Tier-1 test suite is deliberately not a workload: it takes about 24 s a
run and its heaviest test (criterion 8) is sweep-n4000.

Seed ``DEFAULT_SEED`` reproduces the shipped s1/s2/riemann parameters (with
the changes above); other seeds jitter positions, amplitudes and snapshot
times inside the ranges ``spe.scenarios.preset_initial`` admits.  Amplitudes
are jittered by at most 1% because the CFL step, and so the work of a run,
scales with the peak of |u|; positions and snapshot times leave it unchanged.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

DEFAULT_SEED = 0

ENTROPY_CONSTANTS = 13
ENTROPY_BUMPS = (5, 5)
SNAPSHOTS = 50


def _snapshot_times(rng: random.Random | None, T: float, count: int) -> list:
    """``count`` interior times evenly spaced in (0, T), each moved by at most
    30% of the spacing when ``rng`` is given."""
    h = T / (count + 1)
    times = [h * k for k in range(1, count + 1)]
    if rng is not None:
        times = [t + rng.uniform(-0.3, 0.3) * h for t in times]
    return [round(t, 12) for t in times]


def scenarios(seed: int) -> dict:
    """The three scenario documents for ``seed``, keyed by file stem."""
    rng = None if seed == DEFAULT_SEED else random.Random(seed)

    def draw(default: float, lo: float, hi: float) -> float:
        return default if rng is None else round(rng.uniform(lo, hi), 12)

    # bump-derivative support [x0 - sigma, x0 + sigma] stays inside [0, L/2]
    s1_bump = {"a": draw(1.0, 0.99, 1.01), "x0": draw(2.0, 1.5, 2.5), "sigma": 1.0}
    s2_bump = {"a": draw(1.0, 0.99, 1.01), "x0": draw(2.0, 1.5, 2.5), "sigma": 1.0}
    left = draw(1.0, 0.99, 1.01)
    return {
        "s1-n4000": {
            "name": "s1-n4000",
            "grid": {"L": 10.0, "n": 4000},
            "time": {"T": 1.0, "cfl_safety": 0.9, "snapshots": []},
            "epsilon": 0.01,
            "scheme": "imex",
            "initial": {"preset": "bump-derivative", "params": s1_bump},
            "boundary": {"preset": "zero"},
        },
        "riemann-snap50": {
            "name": "riemann-snap50",
            "grid": {"L": 10.0, "n": 2000},
            "time": {"T": 0.2, "cfl_safety": 0.9,
                     "snapshots": _snapshot_times(rng, 0.2, SNAPSHOTS)},
            "epsilon": 0.0,
            "scheme": "explicit",
            "source_enabled": False,
            "allow_nonconforming": True,
            "initial": {"preset": "riemann-test",
                        "params": {"left": left, "right": 0.0,
                                   "jump": draw(0.5, 0.3, 0.7)}},
            # g = u0(0) keeps the data compatible at the corner
            "boundary": {"preset": "constant", "params": {"a": left}},
        },
        "s2-snap50": {
            "name": "s2-snap50",
            "grid": {"L": 10.0, "n": 2000},
            "time": {"T": 1.0, "cfl_safety": 0.9,
                     "snapshots": _snapshot_times(rng, 1.0, SNAPSHOTS)},
            "epsilon": 0.01,
            "scheme": "imex",
            "initial": {"preset": "bump-derivative", "params": s2_bump},
            "boundary": {"preset": "pulse",
                         "params": {"a": draw(0.5, 0.4, 0.6),
                                    "tau": draw(1.0, 0.8, 1.0)}},
        },
    }


def write_inputs(seed: int, directory: Path) -> dict:
    """Write the scenario JSONs for ``seed`` into ``directory``; return their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for stem, doc in scenarios(seed).items():
        path = directory / f"{stem}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        paths[stem] = path
    return paths


def commands(workload: str, inputs: dict, out: Path) -> list:
    """The CLI argv lists of one session of ``workload``, in order."""
    if workload == "sweep-n4000":
        return [["sweep", "--scenario", str(inputs["s1-n4000"]),
                 "--out", str(out / "sweep")]]
    if workload == "entropy-riemann":
        return [["entropy-check", "--scenario", str(inputs["riemann-snap50"]),
                 "--out", str(out / "entropy"),
                 "--constants", str(ENTROPY_CONSTANTS),
                 "--bumps", ",".join(str(k) for k in ENTROPY_BUMPS)]]
    if workload == "solve-verify-s2":
        scenario = str(inputs["s2-snap50"])
        return [["solve", "--scenario", scenario, "--out", str(out / "solve")],
                ["invariants", "--scenario", scenario,
                 "--out", str(out / "invariants")]]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("sweep-n4000", "entropy-riemann", "solve-verify-s2")
