"""Golden regression test: the shipped s1 and s2 runs, pinned to 1e-12.

``golden_trajectories.json`` holds, for each scenario at its shipped n=2000,
the exact accepted step count, every snapshot's time and its ``u``/``P`` at
every ``STRIDE``-th node, and three checksums per column of the per-step
``boundary_series`` and ``grad_sq_series``.  A change to the stepper that
only reorders floating-point work moves these by a few 1e-13 and passes; a
change of scheme, step policy or boundary handling does not.

Regenerate (only when a change of the numbers is intended):

    PYTHONPATH=src python3 tests/test_golden.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).with_name("golden_trajectories.json")
STRIDE = 50
RTOL = 1e-12


def checksums(values: np.ndarray) -> dict:
    """Plain, absolute and ramp-weighted sums of a 1-D series: a sign flip,
    a lost row or a reordering moves at least one of them."""
    values = np.asarray(values, dtype=float)
    ramp = np.arange(1, len(values) + 1) / len(values)
    return {
        "sum": float(values.sum()),
        "abs_sum": float(np.abs(values).sum()),
        "ramp_sum": float((ramp * values).sum()),
    }


def summarize(traj) -> dict:
    series = traj.boundary_series
    return {
        "steps": len(traj.step_log),
        "snapshots": [
            {"t": s.t,
             "u": s.u.values[::STRIDE].tolist(),
             "P": s.P.values[::STRIDE].tolist()}
            for s in traj.snapshots
        ],
        "boundary_series": {
            name: checksums(series[:, k]) for k, name in enumerate(("t", "g", "dudx0"))
        },
        "grad_sq_series": checksums(traj.grad_sq_series),
    }


def assert_close_max_norm(got, want, label):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    scale = float(np.max(np.abs(want))) if want.size else 0.0
    err = float(np.max(np.abs(got - want))) if want.size else 0.0
    assert err <= RTOL * scale, f"{label}: max deviation {err:.3e} > {RTOL:g} * {scale:.3e}"


def assert_checksums_close(got, want, label):
    scale = want["abs_sum"]
    for key, ref in want.items():
        assert abs(got[key] - ref) <= RTOL * scale, (
            f"{label}.{key}: {got[key]!r} vs golden {ref!r}")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", ["s1", "s2"])
def test_trajectory_matches_golden(name, golden, request):
    want = golden[name]
    got = summarize(request.getfixturevalue(f"{name}_traj"))
    assert got["steps"] == want["steps"]
    assert len(got["snapshots"]) == len(want["snapshots"])
    for k, (gs, ws) in enumerate(zip(got["snapshots"], want["snapshots"])):
        assert gs["t"] == pytest.approx(ws["t"], rel=RTOL, abs=RTOL)
        assert_close_max_norm(gs["u"], ws["u"], f"{name} snapshot {k} u")
        assert_close_max_norm(gs["P"], ws["P"], f"{name} snapshot {k} P")
    for column, want_sums in want["boundary_series"].items():
        assert_checksums_close(got["boundary_series"][column], want_sums,
                               f"{name} boundary_series.{column}")
    assert_checksums_close(got["grad_sq_series"], want["grad_sq_series"],
                           f"{name} grad_sq_series")


def record() -> None:
    from spe.scenarios import builtin_scenario_path, load_scenario
    from spe.scheme import run

    doc = {}
    for name in ("s1", "s2"):
        spec = load_scenario(builtin_scenario_path(name))
        doc[name] = summarize(run(spec.initial, spec.boundary, spec.config))
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
