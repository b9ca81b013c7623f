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
  drift; hence the sourced problem's zero-mean rule, ``zero_mean_violation``.
  (Runs with the source disabled solve the plain conservation law, which
  exchanges mass through the boundary, is not projected and may have any mean.)

Advection uses first-order left-biased upwinding on the conservative flux
u^3 (the characteristic speed 3u^2 is never negative, so information always
enters from the boundary side).  The viscosity alone decides the scheme:
diffusion (eps > 0, "imex") is backward Euler, whose tridiagonal matrix is
symmetric positive definite; the inviscid scheme (eps = 0, "explicit") has
no diffusion stage.

``Workspace`` is the kernel's one time level: the current u and P plus
scratch arrays, allocated once per run, that ``step`` overwrites in place.
``State`` records of read-only Fields are built only for the initial datum
and at snapshot landings.

The diffusion matrix has diagonal 1 + 2r and off-diagonal -r (r = eps dt /
dx^2) and is solved as LAPACK ``dptsv`` solves it, ``dpttrf`` (factor) then
``dpttrs`` (solve), except that ``_factor_diffusion`` factors only a prefix
of the rows.  Each pivot is a fixed function of the one before, d_{i+1} =
(1 + 2r) - (-r / d_i)(-r), so once the pivots repeat, every later pivot and
multiplier is a copy of the last one.  They repeat after 6-23 rows for
r <= 1, 76 at r = 16 and about 1400 at r = 1e4, and the solution is
``dptsv``'s bit for bit.

The LAPACK routines come from the OpenBLAS that numpy mapped at import.
numpy's wheels link scipy-openblas, which exports the reference ``dpttrf``
and ``dpttrs`` as ``scipy_dpttrf_64_`` and ``scipy_dpttrs_64_`` (64-bit
integers).  ``_numpy_openblas`` binds them through a ``ctypes`` handle on
numpy's ``_multiarray_umath`` extension: a symbol lookup through that handle
searches the extension's dependency tree, so no library is mapped again.
Fortran takes every argument by address, and each ``Workspace`` keeps its
argument lists, put together on first use, so a call converts nothing.  A
process should map one OpenBLAS only: scipy's ``_flapack`` maps a second one
(``scipy.libs/libscipy_openblas-*.so`` with its own libgfortran) for two
routines numpy's already exports.  On a 2-core Xeon, binding numpy's took
the peak resident memory of ``import spe.cli`` plus loading ``s1`` from 33.2
to 30.8 MB and the load from 4.7 to 1.2 ms (medians of 5 runs each).

Where numpy exports no such symbols (numpy built on MKL, Accelerate or a
system BLAS, or on Windows), the routines are taken from scipy's compiled
``linalg/_flapack`` extension, located without importing scipy and loaded as
``spe._flapack``: the same Fortran routines as ``scipy.linalg.lapack``,
without the package init of ``scipy.linalg`` (its array-API layer and every
linalg submodule), which would dominate the start-up time and memory of
``spe.cli``.  ``_flapack`` is a private scipy name, so when it is not found
the public module is used instead.  The routines are bound once, by the
first ``SolverConfig`` with eps > 0, so a viscous run pays the binding while
its scenario loads, not inside its first step; an inviscid process never
binds them or loads scipy's extension.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
import warnings
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import BlowUpError, DataValidationError
from .fields import (Field, Grid, _running_trapezoid, _trapz, cumulative_primitive,
                     lp_norm, mean)

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
    "zero_mean_violation",
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


def _lapack_address(a: np.ndarray, length: int) -> int:
    """The address of ``a``, through which LAPACK reads and writes
    ``length`` float64; ``ValueError`` unless ``a`` is ``length`` contiguous
    float64 (f2py would solve into a copy, and a pointer past it would
    write elsewhere)."""
    if a.dtype != np.float64 or not a.flags.c_contiguous or a.shape != (length,):
        raise ValueError(f"LAPACK needs {length} contiguous float64, "
                         f"not a {a.dtype} array of shape {a.shape}")
    return a.ctypes.data


class _OpenBLAS:
    """``dpttrf``/``dpttrs`` of the OpenBLAS that numpy mapped, with 64-bit
    integers.  Fortran takes every argument by address; a Workspace's are
    put together once per right-hand side array (``_arguments``) and kept
    in its ``lapack_args``, so a call converts nothing."""

    def __init__(self, library: ctypes.CDLL):
        self._dpttrf, self._dpttrs = library.scipy_dpttrf_64_, library.scipy_dpttrs_64_
        self._dpttrf.argtypes = (ctypes.c_void_p,) * 4
        self._dpttrs.argtypes = (ctypes.c_void_p,) * 7
        self._dpttrf.restype = self._dpttrs.restype = None

    def dpttrf(self, ws: Workspace, k: int) -> int:
        """Factor the first ``k`` rows of ``ws.diag`` and ``ws.offdiag`` in
        place; return dpttrf's info."""
        ints, args, _ = ws.lapack_args.get(None) or self._arguments(ws, None)
        if not 0 <= k <= ints[1]:
            raise ValueError(f"cannot factor {k} rows of {ints[1]}")
        ints[0] = k
        self._dpttrf(*args)
        return ints[2]

    def dpttrs(self, ws: Workspace, b: np.ndarray) -> int:
        """Solve with the factor in ``ws.diag`` and ``ws.offdiag`` in place in
        ``b[1:-1]``; return dpttrs's info."""
        ints, args, _ = ws.lapack_args.get(id(b)) or self._arguments(ws, b)
        self._dpttrs(*args)
        return ints[2]

    @staticmethod
    def _arguments(ws: Workspace, b: np.ndarray | None) -> tuple:
        """(integers, arguments, arrays) of dpttrf on ``ws`` (``b`` None) or
        of dpttrs solving into ``b[1:-1]``, kept in ``ws.lapack_args`` with
        the arrays they point into, so no address outlives its array.  The
        integers are the rows to factor or solve, the matrix's rows, info and
        the one right-hand side."""
        m = ws.diag.shape[0]
        ints = (ctypes.c_int64 * 4)(m, m, 0, 1)
        n, rows, info, one = (ctypes.c_void_p(ctypes.addressof(ints) + 8 * i)
                              for i in range(4))
        d = ctypes.c_void_p(_lapack_address(ws.diag, m))
        e = ctypes.c_void_p(_lapack_address(ws.offdiag, max(m - 1, 1)))
        if b is None:
            args = (n, d, e, info)
        else:
            rhs = ctypes.c_void_p(_lapack_address(b, m + 2) + b.itemsize)
            args = (n, one, d, e, rhs, rows, info)
        held = ints, args, (ws.diag, ws.offdiag, b)
        ws.lapack_args[None if b is None else id(b)] = held
        return held


class _Flapack:
    """scipy's wrappers of ``dpttrf``/``dpttrs`` (``_load_flapack``) behind
    ``_OpenBLAS``'s two calls."""

    def __init__(self, module):
        self.module = module

    def dpttrf(self, ws: Workspace, k: int) -> int:
        return self.module.dpttrf(ws.diag[:k], ws.offdiag[:max(k - 1, 1)],
                                  overwrite_d=1, overwrite_e=1)[2]

    def dpttrs(self, ws: Workspace, b: np.ndarray) -> int:
        # b is checked to be contiguous float64, so dpttrs solves in place
        # into b[1:-1], not into a copy
        _lapack_address(b, ws.diag.shape[0] + 2)
        return self.module.dpttrs(ws.diag, ws.offdiag, b[1:-1], overwrite_b=1)[1]


def _numpy_openblas() -> _OpenBLAS | None:
    """numpy's OpenBLAS routines, found through a handle on its
    ``_multiarray_umath`` extension (mapped again nowhere); None when numpy
    exports no ``scipy_dpttrf_64_``/``scipy_dpttrs_64_``."""
    try:
        return _OpenBLAS(ctypes.CDLL(sys.modules["numpy._core._multiarray_umath"].__file__))
    except (KeyError, AttributeError, OSError):  # no such module, library or symbol
        return None


@functools.cache
def _lapack() -> _OpenBLAS | _Flapack:
    """The diffusion solve's ``dpttrf``/``dpttrs``, bound on the first call:
    numpy's OpenBLAS (``_numpy_openblas``), else the installed scipy's
    wrappers (``_load_flapack``); raises ``ImportError`` when neither is
    found."""
    binding = _numpy_openblas()
    if binding is None:
        # find_spec of a top-level package locates it without importing it
        scipy = importlib.util.find_spec("scipy")
        binding = _Flapack(_load_flapack([os.path.join(path, "linalg")
                                          for path in scipy.submodule_search_locations]
                                         if scipy else []))
    return binding


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
        if not abs(val) <= self.sup_bound * (1.0 + 1e-12) + 1e-300:  # nan too
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
    ``scheme`` given too is only checked against it, not stored.

    ``snapshot_times`` is stored as the run's schedule: sorted, without
    repeats, and with 0 and ``final_time`` included; a time within
    ``LANDING_TOL`` beyond ``final_time`` is ``final_time``."""

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
        dx = self.grid.dx
        if self.eps > 0.0 and dx * dx == 0.0:
            raise ValueError(f"grid cell dx = L/n = {dx:.6g} is too small for eps > 0: "
                             "dx * dx underflows to 0 in the diffusion step")
        if not (0.0 < self.cfl_safety <= 1.0):
            raise ValueError("cfl_safety must lie in (0, 1]")
        if not (self.final_time > 0.0 and np.isfinite(self.final_time)):
            raise ValueError("final_time must be positive and finite")
        T = float(self.final_time)
        snaps = tuple(float(s) for s in self.snapshot_times)
        if not all(0.0 <= s <= T + LANDING_TOL for s in snaps):
            raise ValueError("snapshot times must lie in [0, final_time]")
        object.__setattr__(self, "snapshot_times",
                           tuple(sorted(set((0.0, T, *(min(s, T) for s in snaps))))))
        if self.eps > 0.0:
            # bound while the scenario loads, so no run's first step pays it
            _lapack()


@dataclass(frozen=True)
class State:
    """A recorded time level: the solution and its synchronized primitive."""

    t: float
    u: Field
    P: Field


@dataclass(frozen=True)
class Trajectory:
    """Completed run: snapshots plus the per-step boundary series.

    ``boundary_series`` has one row (t, g(t), du/dx(t,0)) per accepted step,
    preceded by the t=0 row.  ``grad_sq_series`` carries the spatial L2 norm
    squared of du/dx at the same times; the time integrals in the L2 balance
    need per-step resolution, which snapshots alone cannot provide.
    """

    config: SolverConfig
    snapshots: tuple
    boundary_series: np.ndarray = field(repr=False)
    grad_sq_series: np.ndarray = field(repr=False)
    step_log: np.ndarray = field(repr=False)

    @property
    def initial(self) -> State:
        return self.snapshots[0]

    @property
    def final(self) -> State:
        return self.snapshots[-1]

    @property
    def times(self) -> np.ndarray:
        """The snapshot times, in order."""
        return np.array([s.t for s in self.snapshots])

    @property
    def snapshot_rows(self) -> np.ndarray:
        """The row of each snapshot in ``boundary_series``: each snapshot
        time is one of the step times, stored exactly."""
        return np.searchsorted(self.boundary_series[:, 0], self.times)


def _one_sided_gradient(values: np.ndarray, dx: float) -> float:
    # second-order three-point formula at x=0
    return float((-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * dx))


def zero_mean_violation(u0: Field, config: SolverConfig) -> str | None:
    """What is wrong when the initial datum ``u0`` breaks the sourced
    problem's rule |trapezoidal mean| <= 1e-10 ||u0||_L1; None when it
    keeps it or ``config`` switches the source off."""
    if not config.include_source:
        return None
    # data near the float range overflows the sums; a scenario reports its L1
    with np.errstate(over="ignore", invalid="ignore"):
        m, allowed = mean(u0), 1e-10 * max(lp_norm(u0, 1), 1e-300)
    if abs(m) > allowed:
        return (f"nonzero mean violates the zero-mean requirement int u0 dx = 0 of "
                f"the sourced problem: mean = {m:.3e}, allowed {allowed:.3e}; only the "
                f"source-free law ('source_enabled': false) takes any mean")
    return None


def compat_mismatch(u0: Field, g0: float) -> str | None:
    """What is wrong when the initial datum ``u0`` misses the boundary value
    ``g0 = g(0)`` by more than ``COMPAT_TOL``; None when they fit."""
    u0_left = float(u0.values[0])
    if abs(u0_left - g0) > COMPAT_TOL:
        return (f"initial/boundary compatibility mismatch: u0(0) = {u0_left:.6g} "
                f"but g(0) = {g0:.6g}")
    return None


def stable_dt(ws: Workspace, config: SolverConfig) -> float:
    """CFL-limited time step of a ``Workspace``, cfl_safety * dx /
    max(3u^2, floor); diffusion is implicit and adds none.  ``run`` shortens
    it to land on each snapshot time.  Raises ``BlowUpError`` when the speed
    3 max u^2 overflows.
    """
    u, t = ws.u, ws.t
    # max(u^2) without a temporary; a Python float overflows to inf silently
    peak = max(float(u.max()), -float(u.min()))
    speed = max(3.0 * (peak * peak), SPEED_FLOOR)
    if not math.isfinite(speed):
        raise BlowUpError(
            t, f"characteristic speed 3 max u^2 is not finite at t={t:.6g}")
    return config.cfl_safety * config.grid.dx / speed


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


def _factor_diffusion(ws: Workspace, r: float) -> int:
    """Write the LAPACK ``dpttrf`` factor of the tridiagonal matrix with
    diagonal 1 + 2r and off-diagonal -r into ``ws.diag`` (m pivots) and
    ``ws.offdiag`` (m - 1 multipliers, one element at least); return
    dpttrf's info.

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

    Why five and not two: the four copies compute the same map only in
    exact arithmetic.  A build may round them differently, for example by
    contracting only some of them to fused multiply-adds, and then each copy
    has its own fixed point.  One repeated pivot shows only one copy at its
    fixed point; five consecutive pivots pass through all four.  No offline
    test can vary the build, so a mutant that compares one pivot survives
    the tests on any one build.
    """
    d, e = ws.diag, ws.offdiag
    m = d.shape[0]
    k = FACTOR_PREFIX
    dpttrf = _lapack().dpttrf
    while True:
        k = min(m, k + (m - k) % 4)
        d[:k].fill(1.0 + 2.0 * r)
        e[:k - 1].fill(-r)
        info = dpttrf(ws, k)
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
    ``t``; ``measure_gradient`` returns its du/dx at x = 0 and L2 norm
    squared of du/dx.  The remaining arrays are scratch.  Everything is
    allocated once; a step swaps buffers rather than allocating, so callers
    must read ``u`` and ``P`` afresh after each step and copy what they keep
    (``state()`` does).
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
        # interior weight with unit trapezoidal integral, exactly 0 at both
        # boundary nodes (sin(pi) is not 0), so the projection keeps u(0), u(L)
        self.weight = np.sin(np.pi * grid.nodes / grid.length) ** 2
        self.weight[[0, -1]] = 0.0
        self.weight /= _trapz(self.weight, grid.dx)
        # the OpenBLAS binding's argument lists for this Workspace's arrays,
        # each put together on first use rather than at every call: an
        # array's address alone costs about 2 us to take
        self.lapack_args = {}

    def measure_gradient(self) -> tuple[float, float]:
        """(du/dx(t,0), ||du/dx||^2) of the current ``u`` (``scratch`` is
        overwritten).

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
        return left, (float(np.dot(d, d)) / (4.0 * dx)
                      + dx / 2.0 * (left * left + right * right))

    def state(self) -> State:
        """The current time level as a State of read-only Fields (copied and
        checked finite)."""
        return State(
            t=self.t,
            u=Field(self.grid, self.u),
            P=Field(self.grid, self.P),
        )


def step(
    ws: Workspace,
    config: SolverConfig,
    g: BoundaryData,
    *,
    dt: float,
) -> tuple[float, float, float, float]:
    """Advance the ``Workspace`` one time level in place and return its row.

    Explicit upwind advection and explicit gauged source, implicit
    backward-Euler diffusion when eps > 0, Dirichlet enforcement
    u(0) = g(t+dt) and u(L) = 0, zero-mean re-projection, then P is
    recomputed from the new u.  The row is (t, g(t), du/dx(t,0),
    ||du/dx||^2) of the new level (``Workspace.measure_gradient``).

    g(t+dt) is evaluated once, and no Field or State is built.  A time step
    ``dt`` that does not advance t, a failed diffusion factorization or a
    non-finite result raises ``BlowUpError`` with the time, before anything
    non-finite is stored.  ``config.include_source`` selects the sourced,
    projected problem.
    """
    grid = config.grid
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
            # (I - r D2) u = ustar on interior nodes, solved in place in
            # new[1:-1]; the Dirichlet value g_new enters the right-hand side
            # (the right one is 0)
            r = config.eps * dt / (dx * dx)
            new[1] += r * g_new
            info = _factor_diffusion(ws, r) or _lapack().dpttrs(ws, new)
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

        P_new = _running_trapezoid(new, dx, out=scratch)
        # P_new[-1] sums every node of the new u, so it is finite only if
        # all of them are (inf and nan propagate through the running sum)
        if not math.isfinite(P_new[-1]):
            raise BlowUpError(t_new)

        ws.u, ws.spare = new, u
        ws.P, ws.scratch = P_new, P
        ws.t = t_new
        return (t_new, g_new, *ws.measure_gradient())


def run(u0: Field, g: BoundaryData, config: SolverConfig) -> Trajectory:
    """Integrate from u0 to final_time, recording snapshots and each level's row.

    Admissibility: the initial datum must keep ``zero_mean_violation``'s
    rule, which only the sourced problem has.  A mismatch
    (``compat_mismatch``) is surfaced as a warning; the command line's
    ``--strict-compat`` rejects it before ``run`` is called.

    Steps are shortened to land exactly on each time of the schedule
    ``config.snapshot_times`` (which ``SolverConfig`` keeps sorted, without
    repeats and from 0 to final_time), so snapshots carry no interpolation
    error.  Each snapshot after t=0 is reached by a step of its own, so no
    two share a time, even when closer than ``LANDING_TOL``.
    """
    if u0.grid != config.grid:
        raise DataValidationError(["initial datum lives on a different grid"])
    violation = zero_mean_violation(u0, config)
    if violation:
        raise DataValidationError([violation])
    g0 = g(0.0)
    mismatch = compat_mismatch(u0, g0)
    if mismatch:
        warnings.warn(mismatch, stacklevel=2)

    P0 = cumulative_primitive(u0)
    ws = Workspace(config.grid, 0.0, u0.values, P0.values)
    snapshots = [State(t=0.0, u=u0, P=P0)]
    with np.errstate(over="ignore"):
        rows = [(0.0, g0, *ws.measure_gradient())]
    dts = []

    for target in config.snapshot_times[1:]:  # 0.0 is already recorded
        landed = False
        while not landed:
            dt = min(stable_dt(ws, config), target - ws.t)
            rows.append(step(ws, config, g, dt=dt))
            dts.append(dt)
            landed = ws.t >= target - LANDING_TOL
        snapshots.append(ws.state())

    rows = np.asarray(rows)
    return Trajectory(
        config=config,
        snapshots=tuple(snapshots),
        boundary_series=rows[:, :3],
        grad_sq_series=rows[:, 3],
        step_log=np.asarray(dts),
    )
