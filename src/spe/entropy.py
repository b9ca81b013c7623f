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
quadrature resolution.  P is each snapshot's raw primitive, not the P - <P>
that ``scheme.step`` applies: the check tests the half-line equation.

A test function is a separable bump, the pair (pt, px) of a time and a
space profile (``TestFunction``).  ``entropy_table`` is the one evaluator:
it takes a family of bumps, reads the trajectory once and evaluates each
axis profile once; ``entropy_residual`` is its one-row case.  Only
``_OnBox.of`` samples a profile, and ``entropy_tolerance`` is the table's
tolerance formula (``_tolerance``) on one bump's two profiles.
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

    def sample(self, s) -> tuple:
        """The profile's values and derivatives at the points ``s``, from
        one map of ``s`` to z across the support."""
        s = np.asarray(s, dtype=float)
        if self.edge_at_lo:
            z = (s - self.lo) / (self.hi - self.lo)
            scale = 1.0 / (self.hi - self.lo)
            inside = (z >= 0.0) & (z < 1.0)
        else:
            z = (2.0 * s - (self.lo + self.hi)) / (self.hi - self.lo)
            scale = 2.0 / (self.hi - self.lo)
            inside = (z > -1.0) & (z < 1.0)
        w = 1.0 - z**2
        return (np.where(inside, w**3, 0.0),
                np.where(inside, -6.0 * z * w**2 * scale, 0.0))


@dataclass(frozen=True)
class TestFunction:
    """Separable nonnegative bump phi(t, x) = pt(t) * px(x), supported on
    [pt.lo, pt.hi] x [px.lo, px.hi]."""

    pt: BumpProfile
    px: BumpProfile


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
        value, derivative = profile.sample(nodes[box])
        return cls(box, value, derivative, _sup(value), _sup(derivative),
                   float(profile.sample(0.0)[0]))


def _check_support(phi: TestFunction, traj: Trajectory) -> None:
    """A ValueError when ``phi``'s support leaves ``traj``'s computed domain
    [0, T] x [0, L]."""
    tol = 1e-9
    T, L = traj.config.final_time, traj.config.grid.length
    if not (-tol <= phi.pt.lo and phi.pt.hi <= T + tol
            and -tol <= phi.px.lo and phi.px.hi <= L + tol):
        raise ValueError("test function support exceeds the computed domain")


def _resolution(traj: Trajectory) -> float:
    """dx + dt_snap, the quadrature resolution a tolerance scales with."""
    return traj.config.grid.dx + float(np.max(np.diff(traj.times)))


def _tolerance(resolution: float, pt: _OnBox, px: _OnBox) -> float:
    """The tolerance of the bump pt * px from its two profiles on their
    boxes: 10 * resolution * scale(phi) (see ``entropy_table``)."""
    scale = max(pt.sup * px.sup, pt.sup_derivative * px.sup, pt.sup * px.sup_derivative)
    return 10.0 * resolution * scale


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
    np.add.accumulate(prefix, axis=1, out=prefix)
    below = prefix[:, np.searchsorted(ranked, constants, side="left")]
    above = prefix[:, -1:] - prefix[:, np.searchsorted(ranked, constants, side="right")]
    return above - below


class _Quadrature:
    """What the quadrature reads of one trajectory, its trace and the
    constants, read once for every test function: the snapshot times, the
    nodes, the trapezoid weights of both, g in each snapshot's row of the
    boundary series and u0.  A test function's residuals are ``interior``
    plus two ``edge`` integrals, the boundary trace's and then the initial
    datum's, summed in that order."""

    def __init__(self, traj: Trajectory, constants, trace: np.ndarray):
        times = traj.times
        if len(trace) != len(times):
            raise ValueError("trace does not have one value per trajectory snapshot")
        grid = traj.config.grid
        self.times, self.xs, self.trace = times, grid.nodes, trace
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

    def edge(self, keys, values, weights, c_power) -> np.ndarray:
        """An integral along one edge of the domain, sum of sgn(key - c)
        (value - c^p) w for each constant c, with ``c_power`` = c^p: the
        boundary-trace term has keys g, values trace^3 and p = 3, the
        initial-datum term keys and values u0 and p = 1."""
        s = _signed_sums(keys, [values * weights, weights], self.c)
        return s[0] - c_power * s[1]


def entropy_table(traj: Trajectory, constants, bumps: list, trace: np.ndarray) -> tuple:
    """Space-time quadrature of the inequality's left-hand side for every
    constant in ``constants`` and every separable bump in ``bumps`` (a
    ``make_bump_family``), and each bump's tolerance: residuals of shape
    (len(bumps), len(constants)) and tolerances of shape (len(bumps),).
    The source term is left out when the run has none.

    A bump's tolerance is 10 * (dx + dt_snap) * scale(phi), where scale(phi)
    is the largest of sup|phi|, sup|phi_t|, sup|phi_x| over the
    snapshot-grid quadrature points, taken over phi's support box (the
    other points hold exact zeros).  phi = pt * px is separable, so each
    sup is a product of the sups of two profiles on the box's times and
    nodes; rounding is monotone, so this is the sup over the outer product
    bit for bit.  The constant 10 is validated against the exact
    moving-shock solution of the source-free cubic conservation law (see
    the acceptance suite).

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
        _check_support(phi, traj)
        pt, px = on_t[phi.pt], on_x[phi.px]
        b, i = (phi.pt, px.at_zero), (phi.px, pt.at_zero)
        if b not in boundary:
            boundary[b] = q.edge(q.g[pt.box], q.trace[pt.box] ** 3,
                                 q.wt[pt.box] * (pt.value * px.at_zero), q.c3)
        if i not in initial:
            u0 = q.u0[px.box]
            initial[i] = q.edge(u0, u0, q.wx[px.box] * (pt.at_zero * px.value), q.c)
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


def entropy_tolerance(phi: TestFunction, traj: Trajectory) -> float:
    """The quadrature tolerance of the bump ``phi`` on ``traj``'s snapshot
    grid, ``entropy_table``'s for any constant, from ``phi``'s two profiles
    alone: no residual is computed."""
    _check_support(phi, traj)
    return _tolerance(_resolution(traj), _OnBox.of(phi.pt, traj.times),
                      _OnBox.of(phi.px, traj.config.grid.nodes))
