"""Scenario presets, admissibility validation, and JSON scenario loading.

A scenario bundles the grid, solver configuration, initial datum, and
boundary datum.  Loading validates every admissibility requirement and
reports all violations at once: zero trapezoidal mean of the initial datum,
finite L1 norm and square-integrable primitive.  ``Field`` itself rejects
non-finite samples and ``BoundaryData`` a non-finite sup bound.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataValidationError
from .fields import (Field, Grid, _running_trapezoid, _trapz, cumulative_primitive,
                     lp_norm, make_uniform_grid, mean)
from .scheme import BoundaryData, SolverConfig, zero_mean_tolerance

__all__ = [
    "ScenarioSpec",
    "preset_initial",
    "preset_boundary",
    "parse_scenario",
    "load_scenario",
    "scenario_files",
    "builtin_scenario_path",
]

def _centered_difference(profile: np.ndarray, dx: float) -> np.ndarray:
    out = np.zeros_like(profile)
    out[1:-1] = (profile[2:] - profile[:-2]) / (2.0 * dx)
    out[0] = (profile[1] - profile[0]) / dx
    out[-1] = (profile[-1] - profile[-2]) / dx
    return out


#: each block's presets: for each, its parameters and their defaults
_PRESETS = {
    "initial": {"bump-derivative": {"a": 1.0, "x0": 2.0, "sigma": 1.0},
                "sine-packet": {"a": 0.5, "x0": 1.0, "w": 2.0, "m": 2},
                "riemann-test": {"left": 1.0, "right": 0.0, "jump": 0.5}},
    "boundary": {"zero": {}, "pulse": {"a": 0.5, "tau": 1.0}, "constant": {"a": 0.0}},
}


def _preset_parameters(block: str, preset: str, params: dict) -> dict:
    """``params`` over the defaults of ``block``'s ``preset``."""
    if preset not in _PRESETS[block]:
        raise ValueError(f"unknown {block} preset {preset!r}")
    return {**_PRESETS[block][preset], **params}


def preset_initial(preset: str, params: dict, grid: Grid) -> Field:
    """Construct one of the shipped initial data.

    bump-derivative: the discrete difference quotient of the compactly
    supported bump a*(1 - ((x-x0)/sigma)^2)^3; the trapezoidal mean
    telescopes to exactly zero and the primitive recovers the bump itself.

    sine-packet: a*sin(2*pi*m*(x-x0)/w) on [x0, x0+w], re-projected to exact
    zero mean inside its own support window.

    riemann-test: step data for shock validation; deliberately breaks the
    zero-mean requirement and is accepted only by the entropy subcommand.

    A datum whose L1 norm overflows (an amplitude near the float range) is
    a ValueError that names the parameters.
    """
    params = _preset_parameters("initial", preset, params)
    # the arithmetic of such a datum overflows; it is reported once, below
    with np.errstate(over="ignore", invalid="ignore"):
        values = _initial_values(preset, params, grid)
        l1 = _trapz(np.abs(values), grid.dx)
    if not math.isfinite(l1):
        named = ", ".join(f"{key} = {value!r}" for key, value in params.items())
        raise ValueError(f"initial preset {preset!r} with {named}: the L1 norm "
                         f"of the datum overflows")
    return Field(grid, values)


def _initial_values(preset: str, params: dict, grid: Grid) -> np.ndarray:
    """The node values of ``preset_initial``."""
    x = grid.nodes
    if preset == "bump-derivative":
        a = float(params["a"])
        x0 = float(params["x0"])
        sigma = float(params["sigma"])
        if not sigma > 0.0:
            raise ValueError("sigma must be positive")
        if not (x0 - sigma >= 0.0 and x0 + sigma <= grid.length / 2.0):
            raise ValueError(
                "bump support must stay inside [0, L/2] (truncation safety)"
            )
        s = (x - x0) / sigma
        bump = np.where(np.abs(s) <= 1.0, a * (1.0 - s**2) ** 3, 0.0)
        return _centered_difference(bump, grid.dx)
    if preset == "sine-packet":
        a = float(params["a"])
        x0 = float(params["x0"])
        w = float(params["w"])
        m = params["m"]
        if not (w > 0.0 and m >= 1 and float(m).is_integer()):
            raise ValueError("packet width must be positive, m an integer >= 1")
        m = int(m)
        if not (x0 >= 0.0 and x0 + w <= grid.length / 2.0):
            raise ValueError(
                "packet support must stay inside [0, L/2] (truncation safety)"
            )
        inside = (x >= x0) & (x <= x0 + w)
        vals = np.where(inside, a * np.sin(2.0 * np.pi * m * (x - x0) / w), 0.0)
        # exact zero-mean re-projection, confined to the packet window
        win = np.where(inside, np.sin(np.pi * np.clip((x - x0) / w, 0, 1)) ** 2, 0.0)
        return vals - _trapz(vals, grid.dx) * win / _trapz(win, grid.dx)
    # riemann-test
    left = float(params["left"])
    right = float(params["right"])
    jump = float(params["jump"])
    return np.where(x < jump, left, right)


def preset_boundary(preset: str, params: dict) -> BoundaryData:
    """zero: g = 0; pulse: a*sin^2(pi t/tau) for t <= tau, else 0; constant: g = a."""
    params = _preset_parameters("boundary", preset, params)
    if preset == "zero":
        return BoundaryData.zero()
    if preset == "pulse":
        a = float(params["a"])
        tau = float(params["tau"])
        if not tau > 0.0:
            raise ValueError("pulse duration tau must be positive")

        def g(t: float, _a=a, _tau=tau) -> float:
            if 0.0 <= t <= _tau:
                return _a * math.sin(math.pi * t / _tau) ** 2
            return 0.0

        return BoundaryData(g=g, sup_bound=abs(a))
    # constant
    a = float(params["a"])
    return BoundaryData(g=lambda t, _a=a: _a, sup_bound=abs(a))


@dataclass(frozen=True)
class ScenarioSpec:
    """A fully resolved, validated scenario."""

    name: str
    config: SolverConfig
    initial: Field
    boundary: BoundaryData
    physical: tuple | None
    conforming: bool

    @property
    def grid(self) -> Grid:
        return self.config.grid


def _validate_admissibility(u0: Field) -> list:
    violations = []
    # data near the float range overflows these sums: the L1 check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        l1, m = lp_norm(u0, 1), mean(u0)
    if abs(m) > zero_mean_tolerance(l1):
        violations.append(
            f"nonzero mean violates the zero-mean requirement int u0 dx = 0 "
            f"(mean = {m:.6g})"
        )
    if not np.isfinite(l1):
        violations.append("initial datum must be integrable (finite L1 norm)")
        return violations
    # a finite L1 norm can still overflow the running primitive, which adds
    # neighbouring samples before halving; its Field would raise before this
    # list is reported, so the primitive is tested for finiteness first
    with np.errstate(over="ignore"):
        finite = np.isfinite(_running_trapezoid(u0.values, u0.grid.dx)).all()
    if not (finite and np.isfinite(lp_norm(cumulative_primitive(u0), 2))):
        violations.append("initial primitive must be square integrable")
    return violations


#: the most grid cells a scenario may ask for; a run holds about ten arrays
#: of n + 1 floats, 80 MB each at this size
MAX_CELLS = 10**7


def _is_number(value) -> bool:
    """A JSON number that float() takes: a float (inf and nan included) or
    an integer no larger than the largest float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, float) or abs(value) <= sys.float_info.max


#: each kind of value: its test, and what a violation says it must be
_KINDS = {
    "any": (lambda v: True, "any value"),
    "number": (_is_number, "a number"),
    "positive": (lambda v: _is_number(v) and 0.0 < v < math.inf, "positive and finite"),
    "cells": (lambda v: _is_number(v) and float(v).is_integer() and 2 <= v <= MAX_CELLS,
              f"an integer from 2 to {MAX_CELLS}"),
    "numbers": (lambda v: isinstance(v, list) and all(map(_is_number, v)),
                "a list of numbers"),
    "flag": (lambda v: isinstance(v, bool), "true or false"),
    "string": (lambda v: isinstance(v, str), "a string"),
    "path": (lambda v: isinstance(v, str), "a path string"),
    "object": (lambda v: isinstance(v, dict), "a JSON object"),
    "parameters": (lambda v: isinstance(v, dict) and all(map(_is_number, v.values())),
                   "a JSON object of numbers"),
}
_DATUM = {"preset": (False, "string"), "file": (False, "path"),
          "params": (False, "parameters")}
#: every key of a scenario document, block by block ("" is the top level):
#: whether it is required, and the kind of its value
_SCHEMA = {
    "": {"name": (True, "any"), "grid": (True, "object"), "time": (True, "object"),
         "epsilon": (True, "number"), "scheme": (False, "string"),
         "source_enabled": (False, "flag"), "allow_nonconforming": (False, "flag"),
         "initial": (True, "object"), "boundary": (True, "object"),
         "physical": (False, "object")},
    "grid": {"L": (True, "number"), "n": (True, "cells")},
    "time": {"T": (True, "number"), "cfl_safety": (False, "number"),
             "snapshots": (False, "numbers")},
    "initial": _DATUM,
    "boundary": _DATUM,
    "physical": {"k": (True, "positive"), "c2": (True, "positive")},
}


def _schema_violations(doc) -> list:
    """Every departure of a scenario document from ``_SCHEMA`` and
    ``_PRESETS``: a missing or unknown key, a value of the wrong kind, an
    unknown preset or preset parameter, and an initial or boundary block
    without exactly one of 'preset' and 'file'."""
    if not isinstance(doc, dict):
        return [f"the scenario must be a JSON object, got {type(doc).__name__}"]
    violations = []
    blocks = [("", doc)]
    for block, holder in blocks:  # each block found is appended and walked
        keys = _SCHEMA[block]
        prefix = f"{block}." if block else ""
        violations += [f"unknown key '{prefix}{key}'" for key in holder if key not in keys]
        for key, (required, kind) in keys.items():
            value = holder.get(key)
            test, must_be = _KINDS[kind]
            if value is None and (key not in holder or kind == "object" and not required):
                # absent, or an optional block set to null
                if required:
                    violations.append(f"missing required key '{prefix}{key}'")
            elif not test(value):
                violations.append(f"'{prefix}{key}' must be {must_be}, got {value!r}")
            elif kind == "object":
                blocks.append((key, value))
        presets = _PRESETS.get(block)
        if presets is None:
            continue
        if ("preset" in holder) == ("file" in holder):
            violations.append(f"'{block}' needs exactly one of 'preset' and 'file'")
        preset = holder.get("preset")
        params = holder.get("params")
        if isinstance(preset, str) and preset not in presets:
            violations.append(f"unknown {block} preset {preset!r}")
        elif isinstance(params, dict) and (preset is None or isinstance(preset, str)):
            # a file block has no preset, so it takes no parameters
            violations += [f"'{block}.params' has unknown parameter {key!r}"
                           for key in params if key not in presets.get(preset, {})]
    return violations


def parse_scenario(doc: dict, *, source: str = "<memory>") -> ScenarioSpec:
    """Resolve and validate a scenario document (see the JSON schema in README).

    Structural violations (see ``_schema_violations``) are all reported in
    one ``DataValidationError`` before anything is built.
    """
    violations = _schema_violations(doc)
    if violations:
        raise DataValidationError([f"scenario {source}: {v}" for v in violations])
    grid_doc = doc["grid"]
    time_doc = doc["time"]
    initial_doc = doc["initial"]
    boundary_doc = doc["boundary"]

    grid = make_uniform_grid(float(grid_doc["L"]), int(grid_doc["n"]))
    # optional keys reach SolverConfig only when given; it owns the defaults
    options = {"cfl_safety": time_doc.get("cfl_safety"), "scheme": doc.get("scheme"),
               "snapshot_times": time_doc.get("snapshots"),
               "include_source": doc.get("source_enabled")}
    config = SolverConfig(
        eps=float(doc["epsilon"]),
        grid=grid,
        final_time=float(time_doc["T"]),
        **{key: value for key, value in options.items() if value is not None},
    )

    if "preset" in initial_doc:
        u0 = preset_initial(
            initial_doc["preset"], initial_doc.get("params", {}), grid
        )
    else:
        u0 = _load_field_csv(Path(initial_doc["file"]), grid)

    if "preset" in boundary_doc:
        g = preset_boundary(boundary_doc["preset"], boundary_doc.get("params", {}))
    else:
        g = _load_boundary_csv(Path(boundary_doc["file"]))

    physical = None
    if doc.get("physical") is not None:
        physical = (float(doc["physical"]["k"]), float(doc["physical"]["c2"]))

    violations = _validate_admissibility(u0)
    conforming = not violations
    if violations and not (doc.get("allow_nonconforming", False)
                           and initial_doc.get("preset") == "riemann-test"):
        raise DataValidationError(
            [f"scenario {source}: {v}" for v in violations]
        )

    return ScenarioSpec(
        name=str(doc["name"]),
        config=config,
        initial=u0,
        boundary=g,
        physical=physical,
        conforming=conforming,
    )


def load_scenario(path) -> ScenarioSpec:
    """Read and validate a scenario JSON file."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise DataValidationError(
                [f"scenario {path}: JSON nested too deeply to read"]) from None
    return parse_scenario(doc, source=str(path))


def scenario_files(path) -> list:
    """The existing files that loading the scenario at ``path`` reads, as
    far as it can be read: the scenario itself, and the data file each of
    'initial' and 'boundary' names, as ``parse_scenario`` opens them.  A
    path whose status cannot be read is left out, so this never raises."""
    files = [Path(path)]
    try:
        doc = json.loads(files[0].read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError):
        doc = None
    for block in ("initial", "boundary"):
        holder = doc.get(block) if isinstance(doc, dict) else None
        if isinstance(holder, dict) and isinstance(holder.get("file"), str):
            files.append(Path(holder["file"]))
    return [file for file in files if os.path.isfile(file)]


def _load_field_csv(path: Path, grid: Grid) -> Field:
    # ndmin=2: a file of one data row is a table of one row, not a 1-D array
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] < 2:
        raise DataValidationError([f"{path}: field file needs columns x,u"])
    xs, us = data[:, 0], data[:, 1]
    if (len(xs) != grid.node_count
            or not np.allclose(xs, grid.nodes, rtol=0.0, atol=1e-9)):
        raise DataValidationError(
            [f"{path}: sample nodes do not match the scenario grid"]
        )
    return Field(grid, us)


def _load_boundary_csv(path: Path) -> BoundaryData:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] < 2:
        raise DataValidationError([f"{path}: boundary file needs columns t,g"])
    ts, gs = data[:, 0], data[:, 1]
    # np.interp reads the samples in order; a single one is a constant datum
    if not (np.isfinite(ts).all() and (np.diff(ts) > 0.0).all()):
        raise DataValidationError(
            [f"{path}: sample times t must be finite and strictly increasing"])

    def g(t: float, _ts=ts, _gs=gs) -> float:
        return float(np.interp(t, _ts, _gs))

    try:
        return BoundaryData(g=g, sup_bound=float(np.max(np.abs(gs))))
    except DataValidationError as err:
        raise DataValidationError([f"{path}: {v}" for v in err.violations]) from None


def builtin_scenario_path(name: str) -> Path:
    """Filesystem path of a scenario shipped with the package (s1, s2, riemann)."""
    return Path(__file__).with_name("data") / f"{name}.json"
