"""Uniform grids, sampled fields, the trapezoidal norms used by every
estimate and the running primitive of the solution.

All integrals in this package are composite trapezoid sums on the nodes of a
uniform grid over [0, L].  The half-line is truncated at L; fields are treated
as zero beyond L.  The source term of the integro-differential formulation is
the primitive P(t,x) = int_0^x u(t,y) dy, pinned by P(t,0) = 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "make_uniform_grid",
    "lp_norm",
    "windowed_l1",
    "mean",
    "cumulative_primitive",
]


@dataclass(frozen=True)
class Grid:
    """Uniform discretization of [0, L] with nodes x_i = i*dx, i = 0..n."""

    length: float
    cell_count: int

    def __post_init__(self) -> None:
        if not (self.length > 0.0 and math.isfinite(self.length)):
            raise ValueError("grid length must be positive and finite")
        if self.cell_count < 2:
            raise ValueError("grid needs at least 2 cells")

    @property
    def dx(self) -> float:
        return self.length / self.cell_count

    @property
    def node_count(self) -> int:
        return self.cell_count + 1

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        """The node coordinates, computed once per grid and read-only."""
        x = np.linspace(0.0, self.length, self.cell_count + 1)
        x.setflags(write=False)
        return x


def make_uniform_grid(length: float, cell_count: int) -> Grid:
    """Build the uniform grid with nodes 0, dx, ..., L."""
    return Grid(length=float(length), cell_count=int(cell_count))


@dataclass(frozen=True)
class Field:
    """Real-valued samples on the nodes of a grid.

    Values are stored read-only; every operation returns a new Field.  All
    values must be finite - producing NaN/Inf is treated as a solver failure
    upstream, never silently stored.
    """

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.node_count,):
            raise ValueError(
                f"field needs {self.grid.node_count} values, got {vals.shape}"
            )
        if not np.isfinite(vals).all():
            raise ValueError("field contains non-finite values")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def _trapz(values: np.ndarray, dx: float) -> float:
    # composite trapezoid with half weights at both ends
    return float(dx * (0.5 * values[0] + values[1:-1].sum() + 0.5 * values[-1]))


def _trapezoid_weights(spacing: float | np.ndarray, count: int) -> np.ndarray:
    """Weights of the composite trapezoid rule on ``count`` points: each
    spacing gives half of itself to both of its ends.  ``spacing`` is the
    uniform spacing or the array of the count - 1 spacings."""
    half = 0.5 * np.asarray(spacing, dtype=float)
    w = np.zeros(count)
    w[:-1] += half
    w[1:] += half
    return w


def _running_trapezoid(
    values: np.ndarray, dx: float | np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Running trapezoid of ``values`` from 0, written into ``out`` (allocated
    when None); ``out`` must not alias ``values``.  ``dx`` is the uniform
    spacing or the array of the len(values) - 1 spacings."""
    if out is None:
        out = np.empty_like(values)
    out[0] = 0.0
    np.add(values[:-1], values[1:], out=out[1:])
    out[1:] *= 0.5 * dx
    np.add.accumulate(out[1:], out=out[1:])
    return out


def cumulative_primitive(u: Field) -> Field:
    """Running trapezoidal integral of u from 0; the result vanishes at x=0.

    The discrete fundamental theorem holds exactly:
    (P[i+1] - P[i]) / dx == (u[i] + u[i+1]) / 2.
    By telescoping, P(L) is the trapezoidal integral of u over [0, L] up to
    summation order.
    """
    return Field(u.grid, _running_trapezoid(u.values, u.grid.dx))


def lp_norm(f: Field, p) -> float:
    """Trapezoidal approximation of the L^p norm over [0, L], p in {1, 2, 4, inf}.

    For p = inf the node-wise maximum of |f| is returned; no inter-node
    reconstruction is attempted.
    """
    vals = f.values
    if p == math.inf:
        return float(np.abs(vals).max())
    if p not in (1, 2, 4):
        raise ValueError(f"unsupported norm exponent {p!r}; use 1, 2, 4 or inf")
    if p == 1:
        return _trapz(np.abs(vals), f.grid.dx)
    peak = float(np.abs(vals).max())
    if peak == 0.0:
        return 0.0
    # rescale by the peak so the higher powers cannot underflow or overflow
    integ = _trapz(np.abs(vals / peak) ** p, f.grid.dx)
    return float(peak * integ ** (1.0 / p))


def windowed_l1(f: Field, window: float) -> float:
    """Trapezoidal approximation of the integral of |f| over [0, R].

    When R falls between nodes, |f| is interpolated linearly at the cut point
    and the last partial cell is integrated by the trapezoid rule.
    """
    L = f.grid.length
    if not (0.0 < window <= L):
        raise ValueError(f"window must lie in (0, {L}], got {window}")
    dx = f.grid.dx
    av = np.abs(f.values)
    i = int(math.floor(window / dx + 1e-12))
    i = min(i, f.grid.cell_count)
    total = _trapz(av[: i + 1], dx) if i >= 1 else 0.0
    x_i = i * dx
    if window > x_i + 1e-15 * max(1.0, L) and i + 1 <= f.grid.cell_count:
        frac = (window - x_i) / dx
        cut_val = av[i] + (av[i + 1] - av[i]) * frac
        total += 0.5 * (av[i] + cut_val) * (window - x_i)
    return float(total)


def mean(f: Field) -> float:
    """Signed trapezoidal integral of f over [0, L]."""
    return _trapz(f.values, f.grid.dx)
