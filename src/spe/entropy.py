"""Kruzhkov entropy pairs and the weak entropy inequality with boundary trace.

For each constant c the pair is eta(u) = |u - c|, q(u) = sgn(u - c)(u^3 - c^3).
A bounded solution is admissible when, for every nonnegative compactly
supported test function phi,

    II (|u-c| phi_t + sgn(u-c)(u^3-c^3) phi_x) dt dx
      + II sgn(u-c) P phi dt dx
      + I  sgn(g-c) ((trace)^3 - c^3) phi(t,0) dt
      + I  |u0-c| phi(0,x) dx   >=  0,

with the trace taken at the first interior node (the Dirichlet node itself
carries g and says nothing about the interior limit); g is read where ``run``
stored it, in each snapshot's row of the boundary series.  The checker
evaluates the left-hand side by space-time trapezoidal quadrature over the
snapshot grid, summed over phi's support box only, and reports it as the
residual; admissibility means residual >= -tol with tol scaled by the
quadrature resolution.

``entropy_table`` is the one evaluator: it takes a family of separable
bumps, reads the trajectory once and evaluates each axis profile once.
``entropy_residual`` is its one-row case and ``entropy_tolerance`` one bump's
tolerance, as the table gives it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import _trapezoid_weights
from .scheme import Trajectory

__all__ = [
    "BumpProfile",
    "TestFunction",
    "make_bump_family",
    "extract_trace",
    "entropy_residual",
    "entropy_tolerance",
    "entropy_table",
]


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
        return np.where(inside, (1.0 - z**2) ** 3, 0.0)

    def derivative(self, s):
        z, scale, inside = self._local(s)
        return np.where(inside, -6.0 * z * (1.0 - z**2) ** 2 * scale, 0.0)


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


def extract_trace(traj: Trajectory) -> np.ndarray:
    """Boundary trace u(t, x_1) at the first interior node x_1 = dx, one
    value per snapshot, in the order of ``traj.times``.

    For viscous runs this equals g(t) + dx * du/dx(t,0) + O(dx^2); the
    Dirichlet node itself is pinned to g and carries no interior information.
    """
    return np.array([s.u.values[1] for s in traj.snapshots])


def _cover(nodes: np.ndarray, lo: float, hi: float) -> slice:
    """The slice of ``nodes`` that holds [lo, hi], widened by one node on
    each side: rounding in a profile's z map can put the nearest node
    beyond an end inside the support, but no node further out."""
    start = int(np.searchsorted(nodes, lo, side="left"))
    stop = int(np.searchsorted(nodes, hi, side="right"))
    return slice(max(start - 1, 0), stop + 1)


def _sup(values: np.ndarray) -> float:
    return float(np.max(np.abs(values), initial=0.0))


@dataclass(frozen=True)
class _OnBox:
    """A profile on its support box of one axis's points (``_cover``): the
    box, the profile's values and derivatives there with their sups, and
    its value at 0."""

    box: slice
    value: np.ndarray
    derivative: np.ndarray
    sup: float
    sup_derivative: float
    at_zero: float

    @classmethod
    def of(cls, profile: BumpProfile, nodes: np.ndarray) -> "_OnBox":
        box = _cover(nodes, profile.lo, profile.hi)
        value, derivative = profile.value(nodes[box]), profile.derivative(nodes[box])
        return cls(box, value, derivative, _sup(value), _sup(derivative),
                   float(profile.value(0.0)))


def _resolution(traj: Trajectory) -> float:
    """dx + dt_snap, the quadrature resolution the tolerance scales with."""
    return traj.config.grid.dx + float(np.max(np.diff(traj.times)))


def _tolerance(resolution: float, pt: _OnBox, px: _OnBox) -> float:
    """10 * resolution * max(sup|phi|, sup|phi_t|, sup|phi_x|) of
    phi = pt * px on its support box (``entropy_tolerance``)."""
    scale = max(pt.sup * px.sup, pt.sup_derivative * px.sup, pt.sup * px.sup_derivative)
    return 10.0 * resolution * scale


def entropy_tolerance(phi: TestFunction, traj: Trajectory) -> float:
    """Quadrature tolerance 10 * (dx + dt_snap) * scale(phi).

    scale(phi) is the largest of sup|phi|, sup|phi_t|, sup|phi_x| over the
    snapshot-grid quadrature points, taken over phi's support box (the
    other points hold exact zeros).  phi = pt * px is separable, so each
    sup is a product of the sups of two profiles on the box's times and
    nodes; rounding is monotone, so this is the sup over the outer product
    bit for bit.  The constant 10 is validated against the exact
    moving-shock solution of the source-free cubic conservation law (see
    the acceptance suite).
    """
    pt = _OnBox.of(phi.pt, traj.times)
    px = _OnBox.of(phi.px, traj.config.grid.nodes)
    return _tolerance(_resolution(traj), pt, px)


def _signed_sums(keys: np.ndarray, weights: list, constants: np.ndarray) -> np.ndarray:
    """Sum of sgn(keys - c) * w for each array w in ``weights`` (the shape of
    ``keys``) and each constant c: the weights of the keys above c less
    those of the keys below it.  Shape (len(weights), len(constants)).

    One sort of the keys and one prefix sum of each sorted weight serve
    every constant; the keys equal to c (sgn = 0) lie between its two
    ``searchsorted`` bounds and are left out.
    """
    order = np.argsort(keys, axis=None)
    ranked = np.take(keys, order)
    # row j holds 0 and then the prefix sums of weights[j] in key order
    prefix = np.zeros((len(weights), order.size + 1))
    for row, w in zip(prefix, weights):
        # argsort's indices are in range; the default mode="raise" would
        # buffer the output
        np.take(w, order, out=row[1:], mode="clip")
    np.cumsum(prefix, axis=1, out=prefix)
    below = prefix[:, np.searchsorted(ranked, constants, side="left")]
    above = prefix[:, -1:] - prefix[:, np.searchsorted(ranked, constants, side="right")]
    return above - below


class _Quadrature:
    """What the quadrature reads of one trajectory, its trace and the
    constants, read once for every test function: the snapshot times, the
    nodes, the trapezoid weights of both, g in each snapshot's row of the
    boundary series and u0.  A test function's residuals are ``interior``
    + ``boundary`` + ``initial``, summed in that order."""

    def __init__(self, traj: Trajectory, constants, trace: np.ndarray):
        times = traj.times
        if len(trace) != len(times):
            raise ValueError("trace does not have one value per trajectory snapshot")
        grid = traj.config.grid
        self.times, self.xs, self.trace = times, grid.nodes, trace
        self.ends = (traj.config.final_time, grid.length)
        # trapezoid weights in t (general spacing) and x (uniform) of the
        # whole grid; each sum runs over one support box only
        self.wt = _trapezoid_weights(np.diff(times), len(times))
        self.wx = _trapezoid_weights(grid.dx, len(self.xs))
        self.g = traj.boundary_series[traj.snapshot_rows, 1]
        self.u0 = traj.initial.u.values
        self.snapshots = traj.snapshots
        self.sourced = traj.config.include_source
        self.c = np.asarray(constants, dtype=float)
        self.c3 = self.c**3

    def check_support(self, t_support: tuple, x_support: tuple) -> None:
        tol = 1e-9
        T, L = self.ends
        if not (-tol <= t_support[0] and t_support[1] <= T + tol
                and -tol <= x_support[0] and x_support[1] <= L + tol):
            raise ValueError("test function support exceeds the computed domain")

    def interior(self, rows: slice, cols: slice, phi_t, phi_x, phi) -> np.ndarray:
        """The space-time integrals, from phi_t, phi_x and phi on the support
        box ``rows`` x ``cols`` (phi is read only when the run has the
        source)."""
        snaps = self.snapshots[rows]
        W = np.outer(self.wt[rows], self.wx[cols])
        U = np.stack([s.u.values[cols] for s in snaps])
        W_phi_t = W * phi_t
        W_phi_x = W * phi_x
        weights = [U * W_phi_t, W_phi_t, U * U * U * W_phi_x, W_phi_x]
        if self.sourced:
            P = np.stack([s.P.values[cols] for s in snaps])
            weights.append(W * P * phi)
        s = _signed_sums(U, weights, self.c)
        out = (s[0] - self.c * s[1]) + (s[2] - self.c3 * s[3])
        if self.sourced:
            out += s[4]
        return out

    def boundary(self, rows: slice, phi_t0) -> np.ndarray:
        """The boundary-trace integral, from phi(t, 0) on ``rows``."""
        wt_phi_t0 = self.wt[rows] * phi_t0
        b = _signed_sums(self.g[rows], [self.trace[rows] ** 3 * wt_phi_t0, wt_phi_t0], self.c)
        return b[0] - self.c3 * b[1]

    def initial(self, cols: slice, phi_0x) -> np.ndarray:
        """The initial-datum integral, from phi(0, x) on ``cols``."""
        u0 = self.u0[cols]
        wx_phi_0x = self.wx[cols] * phi_0x
        i = _signed_sums(u0, [u0 * wx_phi_0x, wx_phi_0x], self.c)
        return i[0] - self.c * i[1]


def entropy_table(traj: Trajectory, constants, bumps: list, trace: np.ndarray) -> tuple:
    """Space-time quadrature of the inequality's left-hand side for every
    constant in ``constants`` and every separable bump in ``bumps`` (a
    ``make_bump_family``), and each bump's ``entropy_tolerance``: residuals
    of shape (len(bumps), len(constants)) and tolerances of shape
    (len(bumps),).  The source term is left out when the run has none.

    With |u - c| = sgn(u - c)(u - c), every term is a signed sum
    (``_signed_sums``), so a bump with N box points and K constants costs
    O((N + K) log N) time and O(N + K) memory.  The trajectory is read
    once, and each distinct profile of an axis is evaluated once on its
    support box (``_OnBox``); a bump then only forms phi_t = pt' px,
    phi_x = pt px' (and phi = pt px with the source) on its box as outer
    products of those tables.  A kt x kx tiling evaluates kt + kx profiles
    instead of about 12 kt kx, and sums at most 2 kt boundary and 2 kx
    initial terms instead of kt kx each.
    """
    q = _Quadrature(traj, constants, trace)
    resolution = _resolution(traj)
    # each distinct profile of an axis, on its box of that axis's points
    on_t = {p: _OnBox.of(p, q.times) for p in {phi.pt for phi in bumps}}
    on_x = {p: _OnBox.of(p, q.xs) for p in {phi.px for phi in bumps}}
    # a bump's boundary term depends only on pt and px(0), its initial term
    # only on px and pt(0)
    boundary, initial = {}, {}
    residuals = np.empty((len(bumps), len(q.c)))
    tolerances = np.empty(len(bumps))
    for k, phi in enumerate(bumps):
        q.check_support(phi.t_support, phi.x_support)
        pt, px = on_t[phi.pt], on_x[phi.px]
        b, i = (phi.pt, px.at_zero), (phi.px, pt.at_zero)
        if b not in boundary:
            boundary[b] = q.boundary(pt.box, pt.value * px.at_zero)
        if i not in initial:
            initial[i] = q.initial(px.box, pt.at_zero * px.value)
        residuals[k] = q.interior(
            pt.box, px.box,
            np.outer(pt.derivative, px.value), np.outer(pt.value, px.derivative),
            np.outer(pt.value, px.value) if q.sourced else None,
        ) + boundary[b] + initial[i]
        tolerances[k] = _tolerance(resolution, pt, px)
    return residuals, tolerances


def entropy_residual(
    traj: Trajectory,
    c: float,
    phi: TestFunction,
    trace: np.ndarray,
) -> float:
    """The inequality's left-hand side for the Kruzhkov constant ``c`` and
    the bump ``phi``: the one-row ``entropy_table``."""
    return float(entropy_table(traj, [c], [phi], trace)[0][0, 0])
