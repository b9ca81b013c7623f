"""Shared fixtures: scenario specs and the expensive reference runs.

The heavy trajectories are session-scoped so the acceptance suite and the
module tests share them instead of re-integrating.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import replace
from pathlib import Path

import pytest

import spe
from spe.scenarios import builtin_scenario_path, load_scenario
from spe.scheme import run


def subprocess_env():
    """The environment of a subprocess that imports this spe, wherever the
    suite imported it from: its ``src`` directory first on ``PYTHONPATH``."""
    path = [str(Path(spe.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


@pytest.fixture(scope="session")
def run_times():
    """Wall-clock seconds of the shared reference runs, keyed by label."""
    return {}


def shipped_document(name):
    """A shipped scenario's JSON document, as read from its file."""
    return json.loads(builtin_scenario_path(name).read_text(encoding="utf-8"))


@pytest.fixture
def s1_doc():
    return shipped_document("s1")


@pytest.fixture(scope="session")
def s1_spec():
    return load_scenario(builtin_scenario_path("s1"))


@pytest.fixture(scope="session")
def s2_spec():
    return load_scenario(builtin_scenario_path("s2"))


@pytest.fixture(scope="session")
def riemann_spec():
    return load_scenario(builtin_scenario_path("riemann"))


def timed_run(run_times, label, *args, **kwargs):
    start = time.perf_counter()
    traj = run(*args, **kwargs)
    run_times[label] = time.perf_counter() - start
    return traj


@pytest.fixture(scope="session")
def s1_traj(s1_spec, run_times):
    return timed_run(run_times, "s1-n2000", s1_spec.initial, s1_spec.boundary, s1_spec.config)


@pytest.fixture(scope="session")
def s2_traj(s2_spec, run_times):
    return timed_run(run_times, "s2-n2000", s2_spec.initial, s2_spec.boundary, s2_spec.config)


def rescale_scenario(spec, n):
    """Same shipped scenario on an n-cell grid (data re-sampled from the
    presets)."""
    from spe.scenarios import parse_scenario

    doc = {**shipped_document(spec.name), "grid": {"L": spec.grid.length, "n": n}}
    return parse_scenario(doc, source=f"<rescaled n={n}>")


@pytest.fixture(scope="session")
def s1_traj_1000(s1_spec, run_times):
    spec = rescale_scenario(s1_spec, 1000)
    return timed_run(run_times, "s1-n1000", spec.initial, spec.boundary, spec.config)


@pytest.fixture(scope="session")
def s1_eps3_traj(s1_spec, run_times):
    config = replace(s1_spec.config, eps=1e-3)
    return timed_run(run_times, "s1-eps1e-3", s1_spec.initial, s1_spec.boundary, config)


@pytest.fixture(scope="session")
def riemann_traj(riemann_spec):
    return run(riemann_spec.initial, riemann_spec.boundary, riemann_spec.config)
