"""Kruzhkov entropy pairs and the weak entropy inequality with boundary trace.

For each constant c the pair is eta(u) = |u - c|, q(u) = sgn(u - c)(u^3 - c^3).
A bounded solution is admissible when, for every nonnegative compactly
supported test function phi,

    II (|u-c| phi_t + sgn(u-c)(u^3-c^3) phi_x) dt dx
      + II sgn(u-c) P phi dt dx
      + I  sgn(g-c) ((trace)^3 - c^3) phi(t,0) dt
      + I  |u0-c| phi(0,x) dx   >=  0,

with the trace taken at the first interior node (the Dirichlet node itself
carries g and says nothing about the interior limit).  The checker evaluates
the left-hand side by space-time trapezoidal quadrature over the snapshot
grid, summed over phi's support box only, and reports it as the residual;
admissibility means residual >= -tol with tol scaled by the quadrature
resolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import _trapezoid_weights
from .scheme import Trajectory

__all__ = [
    "EntropyPair",
    "BumpProfile",
    "TestFunction",
    "make_bump_family",
    "TraceRecord",
    "extract_trace",
    "entropy_residual",
    "entropy_residuals",
    "entropy_tolerance",
]


@dataclass(frozen=True)
class EntropyPair:
    """Kruzhkov entropy/flux pair for the constant c: eta(u) = |u - c| and
    q(u) = sgn(u - c)(u^3 - c^3)."""

    c: float


@dataclass(frozen=True)
class BumpProfile:
    """One axis factor of a separable test function.

    Interior profiles are (1 - z^2)^3 with z = -1..1 across the support, so
    they vanish with two derivatives at both ends.  Edge profiles take their
    maximum at the lower end of the support (used for tiles touching t=0 or
    x=0, where the inequality's initial/boundary terms must be activated).
    """

    lo: float
    hi: float
    edge_at_lo: bool = False

    def __post_init__(self) -> None:
        if not self.hi > self.lo:
            raise ValueError("profile support must have positive length")

    def _local(self, s):
        # z across the support, dz/ds, and the mask of points inside it
        s = np.asarray(s, dtype=float)
        if self.edge_at_lo:
            z = (s - self.lo) / (self.hi - self.lo)
            scale = 1.0 / (self.hi - self.lo)
            inside = (z >= 0.0) & (z < 1.0)
        else:
            z = (2.0 * s - (self.lo + self.hi)) / (self.hi - self.lo)
            scale = 2.0 / (self.hi - self.lo)
            inside = (z > -1.0) & (z < 1.0)
        return z, scale, inside

    def value(self, s):
        z, _, inside = self._local(s)
        out = np.zeros_like(z)
        zi = z[inside]
        out[inside] = (1.0 - zi**2) ** 3
        return out

    def derivative(self, s):
        z, scale, inside = self._local(s)
        out = np.zeros_like(z)
        zi = z[inside]
        out[inside] = -6.0 * zi * (1.0 - zi**2) ** 2 * scale
        return out


@dataclass(frozen=True)
class TestFunction:
    """Separable nonnegative bump phi(t, x) = pt(t) * px(x)."""

    pt: BumpProfile
    px: BumpProfile

    @property
    def t_support(self) -> tuple:
        return (self.pt.lo, self.pt.hi)

    @property
    def x_support(self) -> tuple:
        return (self.px.lo, self.px.hi)

    def phi(self, t, x):
        return np.outer(self.pt.value(t), self.px.value(x))

    def dphi_dt(self, t, x):
        return np.outer(self.pt.derivative(t), self.px.value(x))

    def dphi_dx(self, t, x):
        return np.outer(self.pt.value(t), self.px.derivative(x))


def _axis_profiles(lo: float, hi: float, count: int) -> list:
    width = (hi - lo) / count
    profiles = []
    for j in range(count):
        a = lo + j * width
        edge = count >= 2 and j == 0 and abs(lo) < 1e-300
        profiles.append(BumpProfile(lo=a, hi=a + width, edge_at_lo=edge))
    return profiles


def make_bump_family(
    t_range: tuple, x_range: tuple, counts: tuple
) -> list:
    """kt*kx tensor bumps tiling [t0,t1] x [x0,x1].

    With two or more tiles along an axis that starts at 0, the first tile
    uses an edge profile (maximum on the axis), so the family activates the
    initial-datum and boundary-trace terms of the inequality.  A single tile
    is a plain interior bump peaking at the rectangle center.
    """
    kt, kx = counts
    if kt < 1 or kx < 1:
        raise ValueError("counts must be >= 1")
    return [
        TestFunction(pt=p_t, px=p_x)
        for p_t in _axis_profiles(t_range[0], t_range[1], kt)
        for p_x in _axis_profiles(x_range[0], x_range[1], kx)
    ]


@dataclass(frozen=True)
class TraceRecord:
    """Numerical boundary trace u(t, x_1) sampled at snapshot times."""

    times: np.ndarray
    u_trace: np.ndarray

    def __post_init__(self) -> None:
        if len(self.times) != len(self.u_trace):
            raise ValueError("times and trace values must have equal length")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("trace times must be strictly increasing")


def extract_trace(traj: Trajectory) -> TraceRecord:
    """Boundary trace taken at the first interior node x_1 = dx.

    For viscous runs this equals g(t) + dx * du/dx(t,0) + O(dx^2); the
    Dirichlet node itself is pinned to g and carries no interior information.
    """
    times = traj.times
    vals = np.array([float(s.u.values[1]) for s in traj.snapshots])
    return TraceRecord(times=times, u_trace=vals)


def _support_box(phi: TestFunction, times: np.ndarray, xs: np.ndarray) -> tuple:
    """Row and column slices of the snapshot grid that hold phi's closed
    support box, widened by one point on each side.

    phi, phi_t and phi_x vanish outside the slices: a point just beyond an
    end of the support can land inside it through rounding in a profile's
    z map, but only within an ulp of the end, i.e. as the nearest point.
    """

    def cover(nodes, lo, hi):
        start = int(np.searchsorted(nodes, lo, side="left"))
        stop = int(np.searchsorted(nodes, hi, side="right"))
        return slice(max(start - 1, 0), stop + 1)

    return cover(times, *phi.t_support), cover(xs, *phi.x_support)


def entropy_tolerance(phi: TestFunction, traj: Trajectory) -> float:
    """Quadrature tolerance 10 * (dx + dt_snap) * scale(phi).

    scale(phi) is the largest of sup|phi|, sup|phi_t|, sup|phi_x| over the
    snapshot-grid quadrature points, taken over phi's support box (the
    other points hold exact zeros).  The constant 10 is validated against
    the exact moving-shock solution of the source-free cubic conservation
    law (see the acceptance suite).
    """
    times = traj.times
    xs = traj.config.grid.nodes
    dt_snap = float(np.max(np.diff(times)))
    dx = traj.config.grid.dx
    rows, cols = _support_box(phi, times, xs)
    ts, xb = times[rows], xs[cols]
    scale = max(
        float(np.max(np.abs(phi.phi(ts, xb)), initial=0.0)),
        float(np.max(np.abs(phi.dphi_dt(ts, xb)), initial=0.0)),
        float(np.max(np.abs(phi.dphi_dx(ts, xb)), initial=0.0)),
    )
    return 10.0 * (dx + dt_snap) * scale


def entropy_residuals(
    traj: Trajectory,
    constants,
    phi: TestFunction,
    trace: TraceRecord,
) -> np.ndarray:
    """Space-time quadrature of the inequality's left-hand side, one entry
    per Kruzhkov constant c in ``constants``, for one test function.

    Nonnegative (up to quadrature tolerance) for admissible solutions.  The
    nonlocal term is dropped when the trajectory was computed with the
    source disabled (shock-validation runs solve the pure conservation law,
    whose inequality has no source term).  Everything that does not depend
    on c (the checks, the support box, the weighted phi, phi_t and phi_x,
    U and U^3, g and the trace cube) is computed once; each constant then
    costs a few passes over the box arrays.
    """
    grid = traj.config.grid
    T = traj.config.final_time
    tol = 1e-9
    if not (
        -tol <= phi.t_support[0]
        and phi.t_support[1] <= T + tol
        and -tol <= phi.x_support[0]
        and phi.x_support[1] <= grid.length + tol
    ):
        raise ValueError("test function support exceeds the computed domain")

    times = traj.times
    if len(trace.times) != len(times) or not np.allclose(
        trace.times, times, atol=1e-10
    ):
        raise ValueError("trace record does not match the trajectory snapshots")
    xs = grid.nodes

    # trapezoid weights in t (general spacing) and x (uniform) of the whole
    # grid; the sums run over phi's support box only
    wt = _trapezoid_weights(np.diff(times), len(times))
    wx = _trapezoid_weights(grid.dx, len(xs))
    rows, cols = _support_box(phi, times, xs)
    times, xs, wt, wx = times[rows], xs[cols], wt[rows], wx[cols]
    snaps = traj.snapshots[rows]
    W = np.outer(wt, wx)

    U = np.stack([s.u.values[cols] for s in snaps])
    U3 = U * U * U
    W_phi_t = W * phi.dphi_dt(times, xs)
    W_phi_x = W * phi.dphi_dx(times, xs)
    sourced = traj.config.include_source
    if sourced:
        P = np.stack([s.P.values[cols] for s in snaps])
        W_P_phi = W * P * phi.phi(times, xs)

    g_vals = np.array([traj.g(t) for t in times])
    trace3 = trace.u_trace[rows] ** 3
    wt_phi_t0 = wt * phi.phi(times, np.array([0.0]))[:, 0]
    u0 = traj.initial.u.values[cols]
    wx_phi_0x = wx * phi.phi(np.array([0.0]), xs)[0]

    out = np.empty(len(constants))
    for k, c in enumerate(constants):
        c = float(c)
        c3 = c**3
        D = U - c
        sgn = np.sign(D)
        integrand = np.abs(D) * W_phi_t + sgn * (U3 - c3) * W_phi_x
        if sourced:
            integrand += sgn * W_P_phi
        boundary = np.sum(np.sign(g_vals - c) * (trace3 - c3) * wt_phi_t0)
        initial = np.sum(np.abs(u0 - c) * wx_phi_0x)
        out[k] = np.sum(integrand) + boundary + initial
    return out


def entropy_residual(
    traj: Trajectory,
    pair: EntropyPair,
    phi: TestFunction,
    trace: TraceRecord,
) -> float:
    """The inequality's left-hand side for one entropy pair: the one-constant
    case of ``entropy_residuals``."""
    return float(entropy_residuals(traj, [pair.c], phi, trace)[0])
