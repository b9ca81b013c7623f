"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Reference scenario S1 is the bump-derivative datum
(a=1, x0=2, sigma=1) with g = 0 on L=10, n=2000, T=1, eps=1e-2, IMEX;
S2 adds the boundary pulse a=0.5, tau=1."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from spe.diagnostics import (
    default_stability_constant,
    energy_l4_p2_check,
    epsilon_sweep,
    l2_balance_residual,
    linfty_check,
    mean_residual,
    p_infty_check,
    scaling_constants,
    stability_compare,
)
from spe.entropy import (
    entropy_residual,
    entropy_tolerance,
    extract_trace,
    make_bump_family,
)
from spe.fields import Field, cumulative_primitive, lp_norm, make_uniform_grid, windowed_l1
from spe.scenarios import preset_initial
from spe.scheme import BoundaryData, SolverConfig, State, Trajectory, Workspace, run, stable_dt, step
from conftest import rescale_scenario, timed_run


def report(num, name, ok, msg):
    print(f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'} - {msg}")
    assert ok, f"criterion {num} ({name}) failed: {msg}"


def test_criterion_01_zero_mean_conservation(s1_spec, s2_spec, run_times):
    results = []
    for spec in (s1_spec, s2_spec):
        l1 = lp_norm(spec.initial, 1)
        for n in (2000, 4000):
            scaled = rescale_scenario(spec, n)
            label = f"{spec.name}-n{n}-c1"
            traj = timed_run(
                run_times, label, scaled.initial, scaled.boundary, scaled.config
            )
            worst = float(np.max(mean_residual(traj)))
            results.append((spec.name, n, worst, run_times[label]))
            assert worst <= 1e-8 * l1, (spec.name, n, worst)
            assert run_times[label] < 10.0, f"{label} took {run_times[label]:.1f}s"
    for name in ("s1", "s2"):
        coarse = [r for r in results if r[0] == name and r[1] == 2000][0][2]
        fine = [r for r in results if r[0] == name and r[1] == 4000][0][2]
        assert fine <= coarse + 1e-12, f"{name}: residual grew under refinement"
    worst_all = max(r[2] for r in results)
    slowest = max(r[3] for r in results)
    report(1, "zero-mean conservation", True,
           f"max |mean| = {worst_all:.2e} over S1/S2 at n=2000,4000; "
           f"slowest run {slowest:.1f}s < 10s")


def test_criterion_02_l2_balance_refinement(s1_traj, s1_traj_1000, run_times):
    t0 = time.perf_counter()
    coarse = l2_balance_residual(s1_traj_1000)
    fine = l2_balance_residual(s1_traj)
    ratio = coarse / fine
    elapsed = (
        time.perf_counter() - t0
        + run_times.get("s1-n2000", 0.0)
        + run_times.get("s1-n1000", 0.0)
    )
    ok = 1.5 <= ratio <= 3.0 and elapsed < 30.0
    report(2, "L2 balance first-order refinement", ok,
           f"residual {coarse:.3e} (n=1000) -> {fine:.3e} (n=2000), "
           f"ratio {ratio:.2f} in [1.5, 3]; {elapsed:.1f}s < 30s")


def test_criterion_03_energy_bound(s1_traj, s2_traj, run_times):
    t0 = time.perf_counter()
    E1 = [0.5 * lp_norm(s.u, 4) ** 4 + lp_norm(s.P, 2) ** 2 for s in s1_traj.snapshots]
    tol = 1e-8 * (1.0 + E1[0])
    monotone = all(b <= a + tol for a, b in zip(E1, E1[1:]))
    rec2 = energy_l4_p2_check(s2_traj)
    elapsed = (
        time.perf_counter() - t0
        + run_times.get("s1-n2000", 0.0)
        + run_times.get("s2-n2000", 0.0)
    )
    ok = monotone and rec2.verdict == "pass" and elapsed < 20.0
    report(3, "energy bound", ok,
           f"S1 energy {E1[0]:.3f} -> {E1[-1]:.3f} nonincreasing (tol {tol:.1e}); "
           f"S2 margin {rec2.residual:.3e} <= {rec2.tolerance:.1e}; "
           f"{elapsed:.1f}s < 20s")


def test_criterion_04_primitive_sup_chain(s1_traj, s2_traj, riemann_traj):
    worst = -math.inf
    for traj in (s1_traj, s2_traj, riemann_traj):
        rec = p_infty_check(traj, tol=1e-10)
        worst = max(worst, rec.residual)
        assert rec.verdict == "pass"
    report(4, "primitive sup Cauchy-Schwarz chain", True,
           f"worst residual {worst:.3e} <= 1e-10 over S1, S2, riemann")


def test_criterion_05_sup_barrier_eps_independent(
    s1_traj, s2_traj, s1_eps3_traj, run_times
):
    t0 = time.perf_counter()
    recs = {
        "s1 eps=1e-2": linfty_check(s1_traj),
        "s1 eps=1e-3": linfty_check(s1_eps3_traj),
        "s2 eps=1e-2": linfty_check(s2_traj),
    }
    elapsed = (
        time.perf_counter() - t0
        + run_times.get("s1-n2000", 0.0)
        + run_times.get("s2-n2000", 0.0)
        + run_times.get("s1-eps1e-3", 0.0)
    )
    ok = all(r.verdict == "pass" for r in recs.values()) and elapsed < 30.0
    margins = ", ".join(f"{k}: {r.residual:.2e}" for k, r in recs.items())
    report(5, "sup-norm barrier, eps-independent", ok,
           f"{margins}; {elapsed:.1f}s < 30s")


def exact_shock_trajectory(grid, times):
    """Entropic moving shock of the source-free cubic conservation law:
    u = 1 left of x = 0.5 + t, 0 right of it (jump speed 1 by the
    Rankine-Hugoniot condition)."""
    config = SolverConfig(
        eps=0.0, grid=grid, final_time=float(times[-1]), scheme="explicit",
        snapshot_times=tuple(times), include_source=False,
    )
    states = []
    for t in times:
        vals = np.where(grid.nodes < 0.5 + t, 1.0, 0.0)
        u = Field(grid, vals)
        states.append(State(t=float(t), u=u, P=cumulative_primitive(u)))
    series = np.array([[s.t, 1.0, 0.0] for s in states])
    return Trajectory(
        config=config, snapshots=tuple(states),
        boundary_series=series, grad_sq_series=np.zeros(len(states)),
        step_log=np.diff(np.asarray(times, dtype=float)),
    )


def shock_front_position(u_values, nodes, level=0.5):
    idx = int(np.where(u_values >= level)[0][-1])
    drop = u_values[idx] - u_values[idx + 1]
    frac = (u_values[idx] - level) / drop if drop > 0 else 0.0
    return float(nodes[idx] + frac * (nodes[idx + 1] - nodes[idx]))


def test_criterion_06_entropy_inequality(s1_eps3_traj, riemann_traj, run_times):
    t0 = time.perf_counter()
    # tolerance calibration: the exact Rankine-Hugoniot shock must satisfy
    # the checker within the declared quadrature tolerance
    grid = riemann_traj.config.grid
    times = np.linspace(0.0, 0.2, 21)
    exact = exact_shock_trajectory(grid, times)
    trace_exact = extract_trace(exact)
    bumps_r = make_bump_family((0.0, 0.2), (0.0, grid.length), (3, 3))
    calib_min = math.inf
    for c in np.linspace(-1.0, 1.0, 5):
        pair = float(c)
        for phi in bumps_r:
            r = entropy_residual(exact, pair, phi, trace_exact)
            tol = entropy_tolerance(phi, exact)
            calib_min = min(calib_min, r + tol)
            assert r >= -tol, f"calibration shock violates tolerance: c={c}, r={r}, tol={tol}"

    # Rankine-Hugoniot oracle: numerical front within 2 dx of x = 0.7
    front = shock_front_position(riemann_traj.final.u.values, grid.nodes)
    front_err = abs(front - 0.7)
    assert front_err <= 2 * grid.dx, f"front at {front}, expected 0.7 +- {2*grid.dx}"

    # smallest-viscosity S1 run: 5 constants x 9 bumps
    traj = s1_eps3_traj
    trace = extract_trace(traj)
    sup_u = max(lp_norm(s.u, math.inf) for s in traj.snapshots)
    bumps = make_bump_family((0.0, 1.0), (0.0, 10.0), (3, 3))
    worst = math.inf
    count = 0
    for c in np.linspace(-sup_u, sup_u, 5):
        pair = float(c)
        for phi in bumps:
            r = entropy_residual(traj, pair, phi, trace)
            tol = entropy_tolerance(phi, traj)
            worst = min(worst, r + tol)
            count += 1
            assert r >= -tol, f"entropy violation: c={c}, residual={r}, tol={tol}"
    elapsed = time.perf_counter() - t0 + run_times.get("s1-eps1e-3", 0.0)
    ok = elapsed < 60.0
    report(6, "entropy inequality", ok,
           f"{count} (c, bump) residuals >= -tol, min margin {worst:.3e}; "
           f"shock front error {front_err:.4f} <= {2*grid.dx:.4f}; {elapsed:.1f}s < 60s")


def test_criterion_07_l1_stability(s1_spec, s1_traj, run_times):
    t0 = time.perf_counter()
    spec = s1_spec
    bump = preset_initial(
        "bump-derivative", {"a": 1e-2, "x0": 2.5, "sigma": 0.5}, spec.grid
    )
    pert_u0 = Field(spec.grid, spec.initial.values + bump.values)
    pert = run(pert_u0, spec.boundary, spec.config)
    C = default_stability_constant(s1_traj, pert)
    rec = stability_compare(s1_traj, pert, window=4.0, C=C, slack=0.01)
    assert rec.verdict == "pass", rec.as_dict()

    # finite propagation cone: a far perturbation with vanishing mean and
    # vanishing primitive mass, supported beyond R + C*T for the T=0.4 run,
    # must not reach the comparison window above the quadrature-noise floor
    T_cone = 0.4
    cone_config = replace(
        spec.config, final_time=T_cone, snapshot_times=(0.1, 0.2, 0.3)
    )
    assert 4.0 + C * T_cone < 8.5  # perturbation support starts at 8.55
    base_cone = run(spec.initial, spec.boundary, cone_config)
    x = spec.grid.nodes
    dx = spec.grid.dx
    s = (x - 9.0) / 0.45
    lump = np.where(np.abs(s) <= 1.0, 2e-3 * (1 - s**2) ** 3, 0.0)
    d1 = np.zeros_like(x)
    d1[1:-1] = (lump[2:] - lump[:-2]) / (2 * dx)
    d2 = np.zeros_like(x)
    d2[1:-1] = (d1[2:] - d1[:-2]) / (2 * dx)
    cone_u0 = Field(spec.grid, spec.initial.values + d2)
    cone = run(cone_u0, spec.boundary, cone_config)
    # noise floor: second-order quadrature scale of the comparison itself
    noise = 100.0 * dx**2
    leak = max(
        windowed_l1(Field(spec.grid, a.u.values - b.u.values), 4.0)
        for a, b in zip(base_cone.snapshots, cone.snapshots)
    )
    elapsed = time.perf_counter() - t0 + run_times.get("s1-n2000", 0.0)
    ok = leak <= noise and elapsed < 30.0
    report(7, "L1 stability and propagation cone", ok,
           f"contraction holds with C = {C:.2f} (slack 1.01); "
           f"cone leak {leak:.2e} <= noise floor {noise:.2e}; {elapsed:.1f}s < 30s")


def test_criterion_08_vanishing_viscosity_cauchy(s1_spec):
    t0 = time.perf_counter()
    spec = rescale_scenario(s1_spec, 4000)
    config = replace(spec.config, snapshot_times=())
    rec = epsilon_sweep(
        spec.initial, spec.boundary, config, (1e-1, 3e-2, 1e-2, 3e-3, 1e-3),
        slack=0.10,
    )
    elapsed = time.perf_counter() - t0
    dists = rec.detail["l1_differences"]
    ok = rec.verdict == "pass" and elapsed < 180.0
    report(8, "vanishing-viscosity Cauchy behavior", ok,
           f"L1 differences {[f'{d:.4f}' for d in dists]} nonincreasing "
           f"within 10%; {elapsed:.1f}s < 180s")


def test_criterion_09_scaling_identities():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(100):
        k = float(10.0 ** rng.uniform(-1, 1))
        c2 = float(10.0 ** rng.uniform(-1, 1))
        sc = scaling_constants(k, c2)
        worst = max(
            worst,
            abs(2.0 * sc.c2**2 * sc.D1 * sc.D2 + 1.0),
            abs(sc.c2**2 * sc.k**2 * sc.D2**2 - 1.0),
        )
    ok = worst <= 1e-14
    report(9, "scaling identities", ok,
           f"worst identity residual {worst:.2e} <= 1e-14 over 100 samples")


def dense_reference_step(values, grid, dt, eps, g_new):
    """Independent IMEX reference: loop-built primitive and gauge, dense
    linear solve for the diffusion stage, explicit projection."""
    n = grid.cell_count
    dx = grid.dx
    L = grid.length
    u = np.asarray(values, dtype=float)

    P = np.zeros(n + 1)
    for i in range(1, n + 1):
        P[i] = P[i - 1] + 0.5 * dx * (u[i - 1] + u[i])

    def trapz(v):
        return dx * (0.5 * v[0] + float(np.sum(v[1:-1])) + 0.5 * v[-1])

    gauge = trapz(P) / L
    ustar = u.copy()
    for i in range(1, n + 1):
        ustar[i] = u[i] - dt * (u[i] ** 3 - u[i - 1] ** 3) / dx + dt * (P[i] - gauge)
    ustar[0] = u[0] + dt * (P[0] - gauge)

    r = eps * dt / dx**2
    A = np.zeros((n - 1, n - 1))
    for i in range(n - 1):
        A[i, i] = 1 + 2 * r
        if i:
            A[i, i - 1] = -r
        if i < n - 2:
            A[i, i + 1] = -r
    rhs = ustar[1:-1].copy()
    rhs[0] += r * g_new
    unew = np.concatenate([[g_new], np.linalg.solve(A, rhs), [0.0]])

    w = np.sin(np.pi * grid.nodes / L) ** 2
    w = w / trapz(w)
    unew = unew - trapz(unew) * w
    unew[0] = g_new
    unew[-1] = 0.0
    return unew


def test_criterion_10_single_step_oracle_equivalence(s1_spec):
    grid = make_uniform_grid(10.0, 50)
    config = SolverConfig(eps=s1_spec.config.eps, grid=grid, final_time=1.0)
    g = BoundaryData.zero()
    cases = {}

    u0 = preset_initial("bump-derivative", {"a": 1.0, "x0": 2.0, "sigma": 1.0}, grid)
    ws = Workspace(grid, 0.0, u0.values, cumulative_primitive(u0).values)
    dt = stable_dt(ws, config)
    step(ws, config, g, dt=dt)
    cases["s1 first step"] = (
        ws.u,
        dense_reference_step(u0.values, grid, dt, config.eps, 0.0),
    )

    rng = np.random.default_rng(99)
    rand_vals = rng.normal(0.0, 0.5, grid.node_count)
    rand_vals[0] = 0.0
    rand_vals[-1] = 0.0
    u_r = Field(grid, rand_vals)
    ws_r = Workspace(grid, 0.0, u_r.values, cumulative_primitive(u_r).values)
    dt_r = stable_dt(ws_r, config)
    step(ws_r, config, g, dt=dt_r)
    cases["randomized state"] = (
        ws_r.u,
        dense_reference_step(rand_vals, grid, dt_r, config.eps, 0.0),
    )

    worst = max(
        float(np.max(np.abs(got - want))) for got, want in cases.values()
    )
    ok = worst <= 1e-12
    report(10, "single-step oracle equivalence", ok,
           f"max node-wise deviation {worst:.2e} <= 1e-12 "
           f"({', '.join(cases)})")
