"""One numerical check per a-priori estimate, plus the stability comparator,
the vanishing-viscosity sweep, and the physical scaling map.

Each check returns a CheckRecord carrying the measured quantity, the bound it
is compared against, their difference, the declared tolerance, and the
verdict.  Reports are deterministic: identical inputs produce identical
records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .fields import Field, _running_trapezoid, lp_norm, mean, windowed_l1
from .scheme import BoundaryData, SolverConfig, Trajectory, run

__all__ = [
    "CheckRecord",
    "PhysicalScaling",
    "scaling_constants",
    "mean_residual",
    "l2_balance_residual",
    "energy_l4_p2_check",
    "p_infty_check",
    "linfty_check",
    "default_stability_constant",
    "stability_compare",
    "epsilon_sweep",
]


@dataclass(frozen=True)
class CheckRecord:
    """Outcome of one estimate check."""

    name: str
    tag: str
    measured: float
    bound: float
    tolerance: float
    detail: dict = field(default_factory=dict)

    @classmethod
    def at_worst(cls, name: str, tag: str, measured, bound, tolerance: float,
                 times=None, **detail) -> "CheckRecord":
        """The record of the first point where ``measured - bound`` is
        largest: where a bound comes closest to failing, or fails by the
        most.  ``measured`` and ``bound`` are scalars or sequences of one
        length; given ``times``, the detail gains that point's
        ``worst_time``."""
        measured, bound = np.broadcast_arrays(measured, bound)
        worst = int(np.argmax(np.subtract(measured, bound)))
        if times is not None:
            detail["worst_time"] = float(times[worst])
        return cls(name, tag, float(measured.flat[worst]), float(bound.flat[worst]),
                   tolerance, detail)

    @property
    def residual(self) -> float:
        return self.measured - self.bound

    @property
    def verdict(self) -> str:
        return "pass" if self.residual <= self.tolerance else "fail"

    def as_dict(self) -> dict:
        out = {
            "check": self.name,
            "tag": self.tag,
            "measured": self.measured,
            "bound": self.bound,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
        }
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass(frozen=True)
class PhysicalScaling:
    """Constants of the physical-to-adimensional variable change.

    k is the magnitude of the (negative) third-order susceptibility,
    -chi3 = k^2; c2 the material constant.  The defining system is
    2 c2^2 D1 D2 = -1 and c2^2 k^2 D2^2 = 1.
    """

    k: float
    c2: float
    D1: float
    D2: float


def scaling_constants(k: float, c2: float) -> PhysicalScaling:
    """D1 = -k / (2 c2), D2 = 1 / (c2 k)."""
    if not (k > 0.0 and math.isfinite(k)):
        raise ValueError("k must be positive and finite")
    if not (c2 > 0.0 and math.isfinite(c2)):
        raise ValueError("c2 must be positive and finite")
    return PhysicalScaling(k=k, c2=c2, D1=-k / (2.0 * c2), D2=1.0 / (c2 * k))


def mean_residual(traj: Trajectory) -> np.ndarray:
    """|mean of u| at every snapshot.  Zero-mean data keeps these at roundoff."""
    return np.array([abs(mean(s.u)) for s in traj.snapshots])


def l2_balance_residual(traj: Trajectory) -> float:
    """Residual of the integrated L2 balance over [0, T].

    | (||u(T)||_2^2 - ||u0||_2^2 + 2 eps int ||u_x||_2^2 dt)
      - int (3/2 g^4 + 2 eps g du/dx(t,0)) dt |

    The time integrals use the per-step series (centered differences
    interiorly and the stored one-sided boundary gradient).
    """
    eps = traj.config.eps
    times = traj.boundary_series[:, 0]
    g_vals = traj.boundary_series[:, 1]
    dudx0 = traj.boundary_series[:, 2]
    diss = 2.0 * eps * float(np.trapezoid(traj.grad_sq_series, times))
    boundary = float(np.trapezoid(
        1.5 * g_vals**4 + 2.0 * eps * g_vals * dudx0, times
    ))
    u2_T = lp_norm(traj.final.u, 2) ** 2
    u2_0 = lp_norm(traj.initial.u, 2) ** 2
    return abs(u2_T - u2_0 + diss - boundary)


def _cumulative_g_power(traj: Trajectory, power: int) -> np.ndarray:
    """Cumulative trapezoidal integral of g^power on the step-time grid."""
    vals = traj.boundary_series[:, 1] ** power
    return _running_trapezoid(vals, np.diff(traj.boundary_series[:, 0]))


def energy_l4_p2_check(traj: Trajectory, tol: float = 1e-8) -> CheckRecord:
    """E(t) = 1/2 ||u||_4^4 + ||P||_2^2 against E(0) + 8 int_0^t g^6 ds.

    Reports the worst violation over snapshots.  The default tolerance is a
    roundoff guard: on the shipped scenarios the energy is dissipated and the
    measured violation is <= 0 at every resolution tried (n = 500..4000).
    """
    E = [0.5 * lp_norm(s.u, 4) ** 4 + lp_norm(s.P, 2) ** 2 for s in traj.snapshots]
    bound = E[0] + 8.0 * _cumulative_g_power(traj, 6)[traj.snapshot_rows]
    return CheckRecord.at_worst("energy-l4-p2", "fourth-power-plus-primitive-energy",
                                E, bound, tol, traj.times)


def p_infty_check(traj: Trajectory, tol: float = 1e-10) -> CheckRecord:
    """Discrete Cauchy-Schwarz chain ||P||_inf^2 <= 2 ||P||_2 ||u||_2.

    Holds exactly for the running-trapezoid primitive (midpoint sums are
    dominated by the trapezoid norms), so the tolerance only covers roundoff.
    It is an identity of the discretization: it holds for any finite u, so a
    pass is no evidence that the solver is right.
    """
    lhs = [lp_norm(s.P, math.inf) ** 2 for s in traj.snapshots]
    rhs = [2.0 * lp_norm(s.P, 2) * lp_norm(s.u, 2) for s in traj.snapshots]
    return CheckRecord.at_worst("p-sup-bound", "primitive-sup-cauchy-schwarz",
                                lhs, rhs, tol, traj.times)


def linfty_check(traj: Trajectory, tol: float = 1e-8) -> CheckRecord:
    """Barrier ||u(t)||_inf <= max(||u0||_inf, sup|g|) + t * max_{s<=t} ||P(s)||_inf.

    The base takes the parabolic-boundary maximum of the initial and boundary
    data; the barrier slope is the measured running sup of the raw primitive
    P, not of the source P - <P> that ``scheme.step`` applies (see README).
    """
    base = max(
        lp_norm(traj.initial.u, math.inf),
        float(np.max(np.abs(traj.boundary_series[:, 1]))),
    )
    p_running = np.maximum.accumulate([lp_norm(s.P, math.inf) for s in traj.snapshots])
    lhs = [lp_norm(s.u, math.inf) for s in traj.snapshots]
    rhs = base + traj.times * p_running
    return CheckRecord.at_worst("u-sup-barrier", "sup-norm-comparison-barrier",
                                lhs, rhs, tol, traj.times)


def default_stability_constant(traj_u: Trajectory, traj_v: Trajectory) -> float:
    """C = 3 M^2 + 1 with M the sup of both solutions over their runs.

    3M^2 bounds the characteristic speed; the unit margin covers the source,
    which is 1-Lipschitz in u through dP/dx = u.
    """
    M = max(lp_norm(s.u, math.inf) for traj in (traj_u, traj_v) for s in traj.snapshots)
    return 3.0 * M * M + 1.0


def stability_compare(
    traj_u: Trajectory,
    traj_v: Trajectory,
    window: float,
    C: float,
    slack: float = 0.01,
) -> CheckRecord:
    """L1 stability: ||u-v||_L1(0,R) (t) <= e^{Ct} ||u0-v0||_L1(0,R+Ct) (1+slack).

    Both trajectories must share the grid and snapshot times.  The expanded
    initial window R + Ct is clamped at the truncation length L (fields are
    zero beyond L, so the clamp loses nothing).
    """
    grid = traj_u.config.grid
    if traj_v.config.grid != grid:
        raise ValueError("trajectories live on different grids")
    if not (0.0 < window <= grid.length):
        raise ValueError("window must lie inside the domain")
    if not 0.0 < C < math.inf:
        raise ValueError(f"stability constant must be positive and finite, got {C}")
    t_u, t_v = traj_u.times, traj_v.times
    if len(t_u) != len(t_v) or np.any(np.abs(t_u - t_v) > 1e-10):
        raise ValueError("trajectories must share snapshot times")

    diff0 = Field(
        grid, traj_u.initial.u.values - traj_v.initial.u.values
    )
    rows = []
    for su, sv in zip(traj_u.snapshots, traj_v.snapshots):
        lhs = windowed_l1(Field(grid, su.u.values - sv.u.values), window)
        expanded = min(window + C * su.t, grid.length)
        try:
            growth = math.exp(C * su.t)
        except OverflowError:
            raise ValueError(
                f"stability bound e^(Ct) overflows at t={su.t:.6g} (C = {C:.6g})"
            ) from None
        rhs = growth * windowed_l1(diff0, expanded) * (1.0 + slack)
        rows.append((su.t, lhs, rhs))
    times, lhs, rhs = zip(*rows)
    rec = CheckRecord.at_worst("l1-stability", "weighted-l1-contraction-cone",
                               lhs, rhs, 0.0, times, constant=C, window=window)
    rec.detail["series"] = [list(r) for r in rows]  # the report lists it after worst_time
    return rec


def epsilon_sweep(
    u0: Field,
    g: BoundaryData,
    base_config: SolverConfig,
    epsilons,
    slack: float = 0.10,
) -> CheckRecord:
    """Cauchy behavior of the vanishing-viscosity family at fixed grid.

    Runs the solver for each viscosity and measures the L1 distance between
    consecutive final states; the sequence must be nonincreasing within the
    given slack, so it takes at least three viscosities.
    """
    eps_list = [float(e) for e in epsilons]
    if len(eps_list) < 3:
        raise ValueError("need at least three viscosity values")
    if any(e <= 0.0 for e in eps_list):
        raise ValueError("viscosity values must be positive")
    if not all(b < a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("viscosity values must be strictly decreasing")

    finals = []
    for eps in eps_list:
        config = replace(base_config, eps=eps)
        traj = run(u0, g, config)
        finals.append(traj.final.u)
    grid = base_config.grid
    dists = [
        lp_norm(Field(grid, a.values - b.values), 1)
        for a, b in zip(finals, finals[1:])
    ]
    bound = (1.0 + slack) * np.array(dists[:-1])
    return CheckRecord.at_worst("viscosity-cauchy", "vanishing-viscosity-l1-cauchy",
                                dists[1:], bound, 0.0,
                                epsilons=eps_list, l1_differences=dists)
