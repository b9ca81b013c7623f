"""Time integrator for the viscous regularization of the short pulse equation.

The mixed problem solved on the truncated half-line [0, L] is

    du/dt + 3 u^2 du/dx = S(u) + eps * d2u/dx2,   u(t,0) = g(t),  u(t,L) = 0,

where S(u) is the nonlocal source built from the running primitive
P(t,x) = int_0^x u dy.  Two structural corrections keep the truncated system
on the zero-mean manifold that the half-line theory lives on:

* the source is applied in its zero-mean gauge S = P - <P>, with <P> the
  domain average of P.  This is the zero-mean-sector inverse derivative; the
  raw cumulative primitive drags in the exponentially growing Goursat branch
  of d/dx(du/dt) = u, which on any truncated domain swamps the solution long
  before t = 1.  On the zero-mean manifold the gauge is invisible in the L2
  balance because int u * <P> dx = <P> * int u dx = 0.
* after every sourced step the solution is re-projected to exact zero
  trapezoidal mean by subtracting a multiple of a fixed interior weight;
  mass conservation holds structurally instead of accumulating truncation
  drift.  (Runs with the source disabled solve the plain conservation law,
  which exchanges mass through the boundary and is not projected.)

Advection uses first-order left-biased upwinding on the conservative flux
u^3 (the characteristic speed 3u^2 is never negative, so information always
enters from the boundary side).  The viscosity alone decides the scheme:
diffusion (eps > 0, "imex") is backward Euler, whose tridiagonal matrix is
symmetric positive definite; the inviscid scheme (eps = 0, "explicit") has
no diffusion stage.

``run`` advances a ``Workspace``: the current u and P plus scratch arrays,
allocated once per run, that ``step`` overwrites in place.  ``Field`` and
``State`` objects are built only for the initial datum and at snapshot
landings.

The diffusion matrix has diagonal 1 + 2r and off-diagonal -r (r = eps dt /
dx^2) and is solved as LAPACK ``dptsv`` solves it, ``dpttrf`` (factor) then
``dpttrs`` (solve), except that ``_factor_diffusion`` factors only a prefix
of the rows.  Each pivot is a fixed function of the one before, d_{i+1} =
(1 + 2r) - (-r / d_i)(-r), so once the pivots repeat, every later pivot and
multiplier is a copy of the last one.  They repeat after 6-23 rows for
r <= 1, 76 at r = 16 and about 1400 at r = 1e4, and the solution is
``dptsv``'s bit for bit.

The LAPACK routines are taken from scipy's compiled ``linalg/_flapack``
extension, located without importing scipy and loaded as ``spe._flapack``:
the same Fortran routines as ``scipy.linalg.lapack``, without the package
init of ``scipy.linalg`` (its array-API layer and every linalg submodule),
which would dominate the start-up time and memory of ``spe.cli``.
``_flapack`` is a private scipy name, so when it is not found the public
module is used instead.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import warnings
from dataclasses import InitVar, dataclass, field, replace

import numpy as np

from .errors import BlowUpError, DataValidationError
from .fields import Field, Grid, _running_trapezoid, _trapz, lp_norm, mean
from .nonlocal_source import cumulative_primitive

__all__ = [
    "BoundaryData",
    "SolverConfig",
    "State",
    "Trajectory",
    "Workspace",
    "compat_mismatch",
    "stable_dt",
    "step",
    "run",
    "zero_mean_tolerance",
]


def _load_flapack(search_path: list[str]):
    """scipy's LAPACK wrappers: the ``_flapack`` extension found on
    ``search_path``, loaded as ``spe._flapack`` (never under a ``scipy``
    name); the public ``scipy.linalg.lapack`` module when none is found."""
    found = importlib.machinery.PathFinder.find_spec("_flapack", search_path)
    if found is None:
        from scipy.linalg import lapack

        return lapack
    spec = importlib.util.spec_from_file_location("spe._flapack", found.origin)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# find_spec of a top-level package locates it without importing it
_scipy = importlib.util.find_spec("scipy")
_lapack = _load_flapack([os.path.join(path, "linalg")
                         for path in _scipy.submodule_search_locations] if _scipy else [])
dpttrf, dpttrs = _lapack.dpttrf, _lapack.dpttrs
# the module's other wrappers (about 0.1 MB resident) are not kept
del _lapack

#: rows of the diffusion matrix factored before its pivots are first compared
FACTOR_PREFIX = 64

#: floor on the characteristic speed in the CFL condition
SPEED_FLOOR = 1e-12
#: a time within this of a snapshot time (or of final_time) has reached it
LANDING_TOL = 1e-12
#: largest |u0(0) - g(0)| that ``run`` accepts without a compatibility warning
COMPAT_TOL = 1e-8


@dataclass(frozen=True)
class BoundaryData:
    """Boundary datum g(t) with its declared sup bound.

    Every evaluation is range-checked against ``sup_bound``; a boundary datum
    that escapes its declared bound aborts the run rather than silently
    feeding unbounded data into the scheme.
    """

    g: object  # callable t -> float
    sup_bound: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.sup_bound) or self.sup_bound < 0.0:
            raise DataValidationError(["boundary datum must be essentially bounded: "
                                       f"sup bound {self.sup_bound!r} not in [0, inf)"])

    def __call__(self, t: float) -> float:
        val = float(self.g(t))
        if abs(val) > self.sup_bound * (1.0 + 1e-12) + 1e-300:
            raise DataValidationError(
                [f"boundary datum |g({t:.6g})| = {abs(val):.6g} exceeds its "
                 f"declared sup bound {self.sup_bound:.6g}"]
            )
        return val

    @classmethod
    def zero(cls) -> "BoundaryData":
        return cls(g=lambda t: 0.0, sup_bound=0.0)


@dataclass(frozen=True)
class SolverConfig:
    """Discretization parameters for one run.  ``eps`` decides the scheme; a
    ``scheme`` given too is only checked against it, not stored."""

    eps: float
    grid: Grid
    final_time: float
    cfl_safety: float = 0.9
    scheme: InitVar[str | None] = None
    snapshot_times: tuple = ()
    include_source: bool = True

    def __post_init__(self, scheme: str | None) -> None:
        if self.eps < 0.0 or not np.isfinite(self.eps):
            raise ValueError("viscosity eps must be finite and >= 0")
        if scheme not in (None, "explicit" if self.eps == 0.0 else "imex"):
            raise ValueError(f"scheme {scheme!r} does not fit eps = {self.eps:g}: "
                             "eps = 0 is 'explicit' and eps > 0 is 'imex'")
        if not (0.0 < self.cfl_safety <= 1.0):
            raise ValueError("cfl_safety must lie in (0, 1]")
        if not (self.final_time > 0.0 and np.isfinite(self.final_time)):
            raise ValueError("final_time must be positive and finite")
        snaps = tuple(float(s) for s in self.snapshot_times)
        if not all(0.0 <= s <= self.final_time + LANDING_TOL for s in snaps):
            raise ValueError("snapshot times must lie in [0, final_time]")
        # one within LANDING_TOL beyond final_time is final_time
        object.__setattr__(self, "snapshot_times",
                           tuple(min(s, self.final_time) for s in snaps))


@dataclass(frozen=True)
class State:
    """One time level: the solution, its synchronized primitive, and the
    one-sided boundary gradient du/dx(t,0)."""

    t: float
    u: Field
    P: Field
    boundary_gradient: float


@dataclass(frozen=True)
class Trajectory:
    """Completed run: snapshots plus the per-step boundary series.

    ``boundary_series`` has one row (t, g(t), du/dx(t,0)) per accepted step,
    preceded by the t=0 row.  ``grad_sq_series`` carries the spatial L2 norm
    squared of du/dx at the same times; the time integrals in the L2 balance
    need per-step resolution, which snapshots alone cannot provide.
    """

    config: SolverConfig
    g: BoundaryData
    initial: State
    snapshots: tuple
    boundary_series: np.ndarray = field(repr=False)
    grad_sq_series: np.ndarray = field(repr=False)
    step_log: np.ndarray = field(repr=False)

    @property
    def final(self) -> State:
        return self.snapshots[-1]

    @property
    def times(self) -> np.ndarray:
        """The snapshot times, in order."""
        return np.array([s.t for s in self.snapshots])


def _one_sided_gradient(values: np.ndarray, dx: float) -> float:
    # second-order three-point formula at x=0
    return float((-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * dx))


def zero_mean_tolerance(l1: float) -> float:
    """Largest |trapezoidal mean| that an initial datum of L1 norm ``l1`` may
    have and still count as zero-mean: 1e-10 * ||u0||_L1."""
    return 1e-10 * max(l1, 1e-300)


def compat_mismatch(u0: Field, g0: float) -> str | None:
    """What is wrong when the initial datum ``u0`` misses the boundary value
    ``g0 = g(0)`` by more than ``COMPAT_TOL``; None when they fit."""
    u0_left = float(u0.values[0])
    if abs(u0_left - g0) > COMPAT_TOL:
        return (f"initial/boundary compatibility mismatch: u0(0) = {u0_left:.6g} "
                f"but g(0) = {g0:.6g}")
    return None


def stable_dt(level: State | Workspace, config: SolverConfig) -> float:
    """CFL-limited time step of a ``State`` or a ``Workspace``, capped at the
    time remaining to final_time.

    Advective limit cfl_safety * dx / max(3u^2, floor); diffusion is implicit
    and adds none.  Raises ``BlowUpError`` when the speed 3 max u^2 overflows.
    """
    u, t = (level.u.values if isinstance(level, State) else level.u), level.t
    # max(u^2) without a temporary; a Python float overflows to inf silently
    peak = max(float(u.max()), -float(u.min()))
    speed = max(3.0 * (peak * peak), SPEED_FLOOR)
    if not math.isfinite(speed):
        raise BlowUpError(
            t, f"characteristic speed 3 max u^2 is not finite at t={t:.6g}")
    dt = config.cfl_safety * config.grid.dx / speed
    return float(min(dt, config.final_time - t))


def _upwind_divergence(
    u: np.ndarray, dx: float, out: np.ndarray, flux: np.ndarray
) -> None:
    # (f_i - f_{i-1}) / dx with f = u^3 into ``out``, 0 at node 0;
    # ``flux`` is overwritten.  u*u*u is exact to an ulp and far cheaper
    # than u**3 (a pow call per node).
    np.multiply(u, u, out=flux)
    flux *= u
    out[0] = 0.0
    np.subtract(flux[1:], flux[:-1], out=out[1:])
    out[1:] /= dx


def _factor_diffusion(d: np.ndarray, e: np.ndarray, r: float) -> int:
    """Write the LAPACK ``dpttrf`` factor of the tridiagonal matrix with
    diagonal 1 + 2r and off-diagonal -r into ``d`` (m pivots) and ``e``
    (m - 1 multipliers, one element at least); return dpttrf's info.

    Each pivot is a fixed function of the one before, d_{i+1} = (1 + 2r) -
    (-r / d_i)(-r), so once the pivots repeat every later pivot and
    multiplier is known.  A prefix of the rows is factored in place, and
    when its last five pivots are equal, the last pivot and multiplier are
    copied down the rest of the arrays.  Otherwise the prefix doubles, or
    grows to all m rows once a doubled one would pass m / 2, so fewer than
    2m rows are factored in all.  dpttrf unrolls its loop by 4 after
    ``mod(m - 1, 4)`` rows, so a prefix stays congruent to m mod 4: every
    row goes through the same unrolled copy as in the full factorization,
    and five equal pivots show each copy at its fixed point.  The result is
    the full factorization bit for bit.
    """
    m = d.shape[0]
    k = FACTOR_PREFIX
    while True:
        k = min(m, k + (m - k) % 4)
        d[:k].fill(1.0 + 2.0 * r)
        e[:k - 1].fill(-r)
        info = dpttrf(d[:k], e[:max(k - 1, 1)], overwrite_d=1, overwrite_e=1)[2]
        if info != 0 or k == m:
            return info
        p = d[k - 1]
        if d[k - 5] == p and d[k - 4] == p and d[k - 3] == p and d[k - 2] == p:
            d[k:].fill(p)
            e[k - 1:].fill(e[k - 2])
            return 0
        k = 2 * k if 4 * k <= m else m


class Workspace:
    """One time level held in plain arrays, advanced in place by ``step``.

    ``u`` and ``P`` (the running trapezoid of u) are the solution at time
    ``t``; ``boundary_gradient`` and ``grad_sq`` are its one-sided du/dx(t,0)
    and the trapezoidal L2 norm squared of du/dx, and ``g_value`` the
    boundary datum g(t) the last step imposed.  The remaining arrays are
    scratch.  Everything is allocated once; a step swaps buffers rather than
    allocating, so callers must read ``u`` and ``P`` afresh after each step
    and copy what they keep (``state()`` does).
    """

    def __init__(self, grid: Grid, t: float, u: np.ndarray, P: np.ndarray):
        n = grid.node_count
        self.grid = grid
        self.t = float(t)
        self.u = np.array(u, dtype=float)
        self.P = np.array(P, dtype=float)
        self.spare = np.empty(n)
        self.scratch = np.empty(n)
        self.diag = np.empty(n - 2)
        # the LAPACK wrappers take a one-element off-diagonal for a single
        # interior node
        self.offdiag = np.empty(max(n - 3, 1))
        # interior weight with unit trapezoidal integral; it vanishes at both
        # boundary nodes, so the Dirichlet values survive the projection
        self.weight = np.sin(np.pi * grid.nodes / grid.length) ** 2
        self.weight /= _trapz(self.weight, grid.dx)
        self.g_value = math.nan
        with np.errstate(over="ignore"):
            self.measure_gradient()

    def measure_gradient(self) -> None:
        """Set ``boundary_gradient`` and ``grad_sq`` from the current ``u``
        (``scratch`` is overwritten).

        du/dx is the centered difference d_i / (2 dx), d_i = u[i+1] - u[i-1],
        at interior nodes and the one-sided three-point formula at both ends,
        and its squared L2 norm is the trapezoid of their squares:
        dot(d, d) / (4 dx) + dx / 2 * (left^2 + right^2), a form without
        dx^2, which would underflow for a tiny cell.
        """
        u, dx = self.u, self.grid.dx
        d = np.subtract(u[2:], u[:-2], out=self.scratch[:-2])
        left = _one_sided_gradient(u, dx)
        right = _one_sided_gradient(u[::-1], dx)  # mirror image at x = L
        self.boundary_gradient = left
        self.grad_sq = (float(np.dot(d, d)) / (4.0 * dx)
                        + dx / 2.0 * (left * left + right * right))

    def state(self) -> State:
        """The current time level as a State of read-only Fields (copied and
        checked finite)."""
        return State(
            t=self.t,
            u=Field(self.grid, self.u),
            P=Field(self.grid, self.P),
            boundary_gradient=self.boundary_gradient,
        )


def step(
    level: State | Workspace,
    config: SolverConfig,
    g: BoundaryData,
    *,
    dt: float,
) -> State | None:
    """Advance one time level.

    Explicit upwind advection and explicit gauged source, implicit
    backward-Euler diffusion when eps > 0, Dirichlet enforcement
    u(0) = g(t+dt) and u(L) = 0, zero-mean re-projection, then P is
    recomputed from the new u and the boundary gradient refreshed with the
    one-sided three-point formula.

    Given a ``State``, returns the next State.  Given a ``Workspace``,
    advances it in place and returns None; this is the form ``run`` uses,
    which builds no Field or State per step.  Either way g(t+dt) is
    evaluated once.  A time step ``dt`` that does not advance t, a failed
    diffusion factorization or a non-finite result raises ``BlowUpError``
    with the time, before anything non-finite is stored.
    ``config.include_source`` selects the sourced, projected problem.
    """
    grid = config.grid
    ws = level
    if isinstance(level, State):
        ws = Workspace(level.u.grid, level.t, level.u.values, level.P.values)
    if ws.t >= config.final_time:
        raise ValueError("state is already at or beyond final_time")
    dx = grid.dx
    t_new = ws.t + dt
    if not t_new > ws.t:
        raise BlowUpError(ws.t, f"time step {dt:.3g} does not advance t={ws.t:.6g}")
    g_new = g(t_new)

    u, P, new, scratch = ws.u, ws.P, ws.spare, ws.scratch
    with np.errstate(over="ignore", invalid="ignore"):
        # ustar = u + dt * (source - flux divergence), built in ``new``
        _upwind_divergence(u, dx, out=new, flux=scratch)
        if config.include_source:
            np.subtract(P, _trapz(P, dx) / grid.length, out=scratch)
            np.subtract(scratch, new, out=new)
            new *= dt
        else:
            new *= -dt
        new += u

        if config.eps > 0.0:
            # (I - r D2) u = ustar on interior nodes; the Dirichlet value
            # g_new enters the right-hand side (the right one is 0).  The
            # slice is contiguous float64, so dpttrs solves in place into it.
            r = config.eps * dt / (dx * dx)
            rhs = new[1:-1]
            rhs[0] += r * g_new
            info = (_factor_diffusion(ws.diag, ws.offdiag, r)
                    or dpttrs(ws.diag, ws.offdiag, rhs, overwrite_b=1)[1])
            if info != 0:
                raise BlowUpError(t_new, f"diffusion solve failed (LAPACK info={info})")
        new[0] = g_new
        new[-1] = 0.0

        if config.include_source:
            # zero-mean re-projection: mass conservation of the sourced
            # problem is structural, not left to truncation-error drift.
            # The source-free conservation law exchanges mass through the
            # boundary and must not be projected.
            np.multiply(ws.weight, _trapz(new, dx), out=scratch)
            new -= scratch
            new[0] = g_new
            new[-1] = 0.0

        P_new = _running_trapezoid(new, dx, out=scratch)
        # P_new[-1] sums every node of the new u, so it is finite only if
        # all of them are (inf and nan propagate through the running sum)
        if not math.isfinite(P_new[-1]):
            raise BlowUpError(t_new)

        ws.u, ws.spare = new, u
        ws.P, ws.scratch = P_new, P
        ws.t = t_new
        ws.g_value = g_new
        ws.measure_gradient()
    return ws.state() if ws is not level else None


def run(
    u0: Field,
    g: BoundaryData,
    config: SolverConfig,
    *,
    require_zero_mean: bool = True,
) -> Trajectory:
    """Integrate from u0 to final_time, recording snapshots and boundary data.

    Admissibility: the initial datum must have zero trapezoidal mean within
    ``zero_mean_tolerance`` (set ``require_zero_mean=False`` only for
    deliberately non-conforming shock-validation data).  A mismatch
    (``compat_mismatch``) is surfaced as a warning; the command line's
    ``--strict-compat`` rejects it before ``run`` is called.

    Steps are shortened to land exactly on each requested snapshot time, so
    snapshots carry no interpolation error.  Snapshots always include t=0 and
    final_time, and each later one is reached by a step of its own, so no
    two share a time, even when closer than ``LANDING_TOL``.
    """
    if u0.grid != config.grid:
        raise DataValidationError(["initial datum lives on a different grid"])
    allowed = zero_mean_tolerance(lp_norm(u0, 1))
    if require_zero_mean and abs(mean(u0)) > allowed:
        raise DataValidationError(
            [f"nonzero mean violates the zero-mean requirement on the initial "
             f"datum: mean = {mean(u0):.3e}, allowed {allowed:.3e}"]
        )
    g0 = g(0.0)
    mismatch = compat_mismatch(u0, g0)
    if mismatch:
        warnings.warn(mismatch, stacklevel=2)

    snap_times = sorted(set((0.0, float(config.final_time), *config.snapshot_times)))
    config = replace(config, snapshot_times=tuple(snap_times))

    P0 = cumulative_primitive(u0)
    ws = Workspace(config.grid, 0.0, u0.values, P0.values)
    initial = State(t=0.0, u=u0, P=P0, boundary_gradient=ws.boundary_gradient)
    snapshots = [initial]
    series = [(0.0, g0, ws.boundary_gradient)]
    grad_sq = [ws.grad_sq]
    dts = []

    for target in snap_times[1:]:  # snap_times[0] == 0.0 already recorded
        landed = False
        while not landed:
            dt = min(stable_dt(ws, config), target - ws.t)
            step(ws, config, g, dt=dt)
            dts.append(dt)
            series.append((ws.t, ws.g_value, ws.boundary_gradient))
            grad_sq.append(ws.grad_sq)
            landed = ws.t >= target - LANDING_TOL
        snapshots.append(ws.state())

    return Trajectory(
        config=config,
        g=g,
        initial=initial,
        snapshots=tuple(snapshots),
        boundary_series=np.asarray(series),
        grad_sq_series=np.asarray(grad_sq),
        step_log=np.asarray(dts),
    )
