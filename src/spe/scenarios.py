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
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import DataValidationError
from .fields import Field, Grid, _trapz, lp_norm, make_uniform_grid, mean
from .nonlocal_source import cumulative_primitive
from .scheme import BoundaryData, SolverConfig, zero_mean_tolerance

__all__ = [
    "ScenarioSpec",
    "preset_initial",
    "preset_boundary",
    "parse_scenario",
    "load_scenario",
    "builtin_scenario_path",
]

def _centered_difference(profile: np.ndarray, dx: float) -> np.ndarray:
    out = np.zeros_like(profile)
    out[1:-1] = (profile[2:] - profile[:-2]) / (2.0 * dx)
    out[0] = (profile[1] - profile[0]) / dx
    out[-1] = (profile[-1] - profile[-2]) / dx
    return out


def preset_initial(preset: str, params: dict, grid: Grid) -> Field:
    """Construct one of the shipped initial data.

    bump-derivative: the discrete difference quotient of the compactly
    supported bump a*(1 - ((x-x0)/sigma)^2)^3; the trapezoidal mean
    telescopes to exactly zero and the primitive recovers the bump itself.

    sine-packet: a*sin(2*pi*m*(x-x0)/w) on [x0, x0+w], re-projected to exact
    zero mean inside its own support window.

    riemann-test: step data for shock validation; deliberately breaks the
    zero-mean requirement and is accepted only by the entropy subcommand.
    """
    x = grid.nodes
    if preset == "bump-derivative":
        a = float(params.get("a", 1.0))
        x0 = float(params.get("x0", 2.0))
        sigma = float(params.get("sigma", 1.0))
        if not sigma > 0.0:
            raise ValueError("sigma must be positive")
        if not (x0 - sigma >= 0.0 and x0 + sigma <= grid.length / 2.0):
            raise ValueError(
                "bump support must stay inside [0, L/2] (truncation safety)"
            )
        s = (x - x0) / sigma
        bump = np.where(np.abs(s) <= 1.0, a * (1.0 - s**2) ** 3, 0.0)
        return Field(grid, _centered_difference(bump, grid.dx))
    if preset == "sine-packet":
        a = float(params.get("a", 0.5))
        x0 = float(params.get("x0", 1.0))
        w = float(params.get("w", 2.0))
        m = params.get("m", 2)
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
        vals = vals - _trapz(vals, grid.dx) * win / _trapz(win, grid.dx)
        return Field(grid, vals)
    if preset == "riemann-test":
        left = float(params.get("left", 1.0))
        right = float(params.get("right", 0.0))
        jump = float(params.get("jump", 0.5))
        return Field(grid, np.where(x < jump, left, right))
    raise ValueError(f"unknown initial preset {preset!r}")


def preset_boundary(preset: str, params: dict) -> BoundaryData:
    """zero: g = 0; pulse: a*sin^2(pi t/tau) for t <= tau, else 0; constant: g = a."""
    if preset == "zero":
        return BoundaryData.zero()
    if preset == "pulse":
        a = float(params.get("a", 0.5))
        tau = float(params.get("tau", 1.0))
        if not math.isfinite(a):
            raise DataValidationError(
                ["boundary datum must be essentially bounded: pulse amplitude is not finite"]
            )
        if not tau > 0.0:
            raise ValueError("pulse duration tau must be positive")

        def g(t: float, _a=a, _tau=tau) -> float:
            if 0.0 <= t <= _tau:
                return _a * math.sin(math.pi * t / _tau) ** 2
            return 0.0

        return BoundaryData(g=g, sup_bound=abs(a))
    if preset == "constant":
        a = float(params.get("a", 0.0))
        if not math.isfinite(a):
            raise DataValidationError(
                ["boundary datum must be essentially bounded: constant value is not finite"]
            )
        return BoundaryData(g=lambda t, _a=a: _a, sup_bound=abs(a))
    raise ValueError(f"unknown boundary preset {preset!r}")


@dataclass(frozen=True)
class ScenarioSpec:
    """A fully resolved, validated scenario."""

    name: str
    config: SolverConfig
    initial: Field
    boundary: BoundaryData
    physical: tuple | None
    conforming: bool
    raw: dict

    @property
    def grid(self) -> Grid:
        return self.config.grid


def _validate_admissibility(u0: Field) -> list:
    violations = []
    l1 = lp_norm(u0, 1)
    m = mean(u0)
    if abs(m) > zero_mean_tolerance(l1):
        violations.append(
            f"nonzero mean violates the zero-mean requirement int u0 dx = 0 "
            f"(mean = {m:.6g})"
        )
    if not np.isfinite(l1):
        violations.append("initial datum must be integrable (finite L1 norm)")
    P0 = cumulative_primitive(u0)
    if not np.isfinite(lp_norm(P0, 2)):
        violations.append("initial primitive must be square integrable")
    return violations


#: required top-level keys; for each JSON-object block, its required keys
_REQUIRED_KEYS = ("name", "grid", "time", "epsilon", "initial", "boundary")
_BLOCK_KEYS = {"grid": ("L", "n"), "time": ("T",), "initial": (), "boundary": (),
              "physical": ("k", "c2")}
_NUMBER_KEYS = (("grid", "L"), ("grid", "n"), ("time", "T"), ("time", "cfl_safety"),
               ("physical", "k"), ("physical", "c2"), (None, "epsilon"))
#: the most grid cells a scenario may ask for; a run holds about ten arrays
#: of n + 1 floats, 80 MB each at this size
MAX_CELLS = 10**7


def _is_number(value) -> bool:
    """A JSON number that float() takes: a float (inf and nan included) or
    an integer no larger than the largest float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, float) or abs(value) <= sys.float_info.max


def _schema_violations(doc) -> list:
    """Every structural violation of a scenario document: the top level and
    each block must be JSON objects with their required keys, the grid,
    time, viscosity, physical and preset parameter values must be numbers,
    the flags booleans and data file names strings."""
    if not isinstance(doc, dict):
        return [f"the scenario must be a JSON object, got {type(doc).__name__}"]
    violations = [f"missing required key '{key}'" for key in _REQUIRED_KEYS
                  if key not in doc]
    blocks = {}
    for block, keys in _BLOCK_KEYS.items():
        sub = doc.get(block)
        if block not in doc or (sub is None and block not in _REQUIRED_KEYS):
            continue  # absent, or an optional block set to null
        if not isinstance(sub, dict):
            violations.append(
                f"'{block}' must be a JSON object, got {type(sub).__name__}")
            continue
        blocks[block] = sub
        violations += [f"missing required key '{block}.{key}'" for key in keys
                       if key not in sub]
    for block, key in _NUMBER_KEYS:
        holder = doc if block is None else blocks.get(block, {})
        where = key if block is None else f"{block}.{key}"
        if key in holder and not _is_number(holder[key]):
            violations.append(f"'{where}' must be a number, got {holder[key]!r}")
    violations += [f"'{key}' must be true or false, got {doc[key]!r}"
                   for key in ("source_enabled", "allow_nonconforming")
                   if not isinstance(doc.get(key, False), bool)]
    n = blocks.get("grid", {}).get("n")
    if _is_number(n) and not (float(n).is_integer() and 2 <= n <= MAX_CELLS):
        violations.append(
            f"'grid.n' must be an integer from 2 to {MAX_CELLS}, got {n!r}")
    for block in ("initial", "boundary"):
        if not isinstance(blocks.get(block, {}).get("file", ""), str):
            violations.append(f"'{block}.file' must be a path string")
        params = blocks.get(block, {}).get("params", {})
        if not (isinstance(params, dict) and all(map(_is_number, params.values()))):
            violations.append(
                f"'{block}.params' must be a JSON object of numbers, got {params!r}")
    snapshots = blocks.get("time", {}).get("snapshots", [])
    if not (isinstance(snapshots, list) and all(map(_is_number, snapshots))):
        violations.append(
            f"'time.snapshots' must be a list of numbers, got {snapshots!r}")
    return violations


def parse_scenario(doc: dict, *, source: str = "<memory>") -> ScenarioSpec:
    """Resolve and validate a scenario document (see the JSON schema in README).

    Structural violations (see ``_schema_violations``) are all reported in
    one ``DataValidationError`` before anything is built.
    """
    violations = _schema_violations(doc)
    if violations:
        raise DataValidationError([f"scenario {source}: {v}" for v in violations])
    name = doc["name"]
    grid_doc = doc["grid"]
    time_doc = doc["time"]
    epsilon = doc["epsilon"]
    initial_doc = doc["initial"]
    boundary_doc = doc["boundary"]

    grid = make_uniform_grid(float(grid_doc["L"]), int(grid_doc["n"]))
    # optional keys reach SolverConfig only when given; it owns the defaults
    options = {"cfl_safety": time_doc.get("cfl_safety"), "scheme": doc.get("scheme"),
               "snapshot_times": time_doc.get("snapshots"),
               "include_source": doc.get("source_enabled")}
    config = SolverConfig(
        eps=float(epsilon),
        grid=grid,
        final_time=float(time_doc["T"]),
        **{key: value for key, value in options.items() if value is not None},
    )

    if "preset" in initial_doc:
        u0 = preset_initial(
            initial_doc["preset"], initial_doc.get("params", {}), grid
        )
        initial_preset = initial_doc["preset"]
    elif "file" in initial_doc:
        u0 = _load_field_csv(Path(initial_doc["file"]), grid)
        initial_preset = None
    else:
        raise DataValidationError(
            [f"scenario {source}: initial needs 'preset' or 'file'"]
        )

    if "preset" in boundary_doc:
        g = preset_boundary(boundary_doc["preset"], boundary_doc.get("params", {}))
    elif "file" in boundary_doc:
        g = _load_boundary_csv(Path(boundary_doc["file"]))
    else:
        raise DataValidationError(
            [f"scenario {source}: boundary needs 'preset' or 'file'"]
        )

    physical = None
    if "physical" in doc and doc["physical"] is not None:
        physical = (float(doc["physical"]["k"]), float(doc["physical"]["c2"]))

    violations = _validate_admissibility(u0)
    conforming = not violations
    if violations and not (doc.get("allow_nonconforming", False)
                           and initial_preset == "riemann-test"):
        raise DataValidationError(
            [f"scenario {source}: {v}" for v in violations]
        )

    return ScenarioSpec(
        name=str(name),
        config=config,
        initial=u0,
        boundary=g,
        physical=physical,
        conforming=conforming,
        raw=doc,
    )


def load_scenario(path) -> ScenarioSpec:
    """Read and validate a scenario JSON file."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return parse_scenario(doc, source=str(path))


def _load_field_csv(path: Path, grid: Grid) -> Field:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    if data.ndim != 2 or data.shape[1] < 2:
        raise DataValidationError([f"{path}: field file needs columns x,u"])
    xs, us = data[:, 0], data[:, 1]
    if len(xs) != grid.node_count or not np.allclose(xs, grid.nodes, atol=1e-9):
        raise DataValidationError(
            [f"{path}: sample nodes do not match the scenario grid"]
        )
    return Field(grid, us)


def _load_boundary_csv(path: Path) -> BoundaryData:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    if data.ndim != 2 or data.shape[1] < 2:
        raise DataValidationError([f"{path}: boundary file needs columns t,g"])
    ts, gs = data[:, 0], data[:, 1]

    def g(t: float, _ts=ts, _gs=gs) -> float:
        return float(np.interp(t, _ts, _gs))

    return BoundaryData(g=g, sup_bound=float(np.max(np.abs(gs))))


def builtin_scenario_path(name: str) -> Path:
    """Filesystem path of a scenario shipped with the package (s1, s2, riemann)."""
    ref = resources.files("spe").joinpath(f"data/{name}.json")
    with resources.as_file(ref) as p:
        return Path(p)
