"""Time stepper verification: CFL policy, upwinding, IMEX stages, boundary
handling, structural conservation, and the blow-up detector.

The single-step tests compare against hand-rolled loop-based reference
implementations that share nothing with the production (vectorized) path.
"""

import functools
import json
import math
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from conftest import subprocess_env
from spe import scheme
from spe.errors import BlowUpError, DataValidationError
from spe.fields import Field, cumulative_primitive, lp_norm, make_uniform_grid, mean
from spe.scenarios import preset_boundary, preset_initial
from spe.scheme import (
    LANDING_TOL,
    BoundaryData,
    SolverConfig,
    Workspace,
    run,
    stable_dt,
    step,
)


def make_workspace(grid, values, t=0.0):
    u = Field(grid, values)
    return Workspace(grid, t, u.values, cumulative_primitive(u).values)


def reference_step(values, grid, dt, eps, g_new):
    """Loop-based reference: upwind + gauged source + diffusion + BCs + projection."""
    n = grid.cell_count
    dx = grid.dx
    L = grid.length
    u = [float(v) for v in values]

    P = [0.0] * (n + 1)
    for i in range(1, n + 1):
        P[i] = P[i - 1] + 0.5 * dx * (u[i - 1] + u[i])

    def trapz(vals):
        return dx * (0.5 * vals[0] + sum(vals[1:-1]) + 0.5 * vals[-1])

    gauge = trapz(P) / L
    ustar = list(u)
    for i in range(1, n + 1):
        ustar[i] = (
            u[i]
            - dt * (u[i] ** 3 - u[i - 1] ** 3) / dx
            + dt * (P[i] - gauge)
        )
    ustar[0] = u[0] + dt * (P[0] - gauge)

    if eps > 0.0:
        r = eps * dt / dx**2
        A = np.zeros((n - 1, n - 1))
        for i in range(n - 1):
            A[i, i] = 1.0 + 2.0 * r
            if i > 0:
                A[i, i - 1] = -r
            if i < n - 2:
                A[i, i + 1] = -r
        rhs = np.array(ustar[1:-1])
        rhs[0] += r * g_new
        interior = np.linalg.solve(A, rhs)
        unew = [g_new] + list(interior) + [0.0]
    else:
        unew = list(ustar)
        unew[0] = g_new
        unew[-1] = 0.0

    w = [math.sin(math.pi * i * dx / L) ** 2 for i in range(n + 1)]
    w_mass = trapz(w)
    m = trapz(unew)
    unew = [unew[i] - m * w[i] / w_mass for i in range(n + 1)]
    unew[0] = g_new
    unew[-1] = 0.0
    return np.array(unew)


class TestStableDt:
    def test_degenerate_speed_gives_the_floor_limit(self):
        # the CFL limit alone, far past final_time: run, not stable_dt,
        # shortens a step to land on a snapshot time
        grid = make_uniform_grid(1.0, 20)
        ws = make_workspace(grid, np.zeros(21))
        config = SolverConfig(eps=1e-2, grid=grid, final_time=1.0)
        assert stable_dt(ws, config) == pytest.approx(0.9 * 0.05 / 1e-12)

    def test_unit_amplitude_advective_limit(self):
        grid = make_uniform_grid(1.0, 20)
        ws = make_workspace(grid, np.ones(21))
        config = SolverConfig(eps=1e-2, grid=grid, final_time=1.0)
        assert stable_dt(ws, config) == pytest.approx(0.9 * 0.05 / 3.0)


class TestSolverConfig:
    def test_inviscid_requires_explicit(self):
        grid = make_uniform_grid(1.0, 8)
        with pytest.raises(ValueError):
            SolverConfig(eps=0.0, grid=grid, final_time=1.0, scheme="imex")
        SolverConfig(eps=0.0, grid=grid, final_time=1.0, scheme="explicit")
        SolverConfig(eps=0.0, grid=grid, final_time=1.0)  # eps decides the scheme

    def test_viscous_requires_imex(self):
        # one scheme per viscosity: there is no forward-Euler diffusion
        grid = make_uniform_grid(1.0, 8)
        for scheme in ("explicit", "forward-euler"):
            with pytest.raises(ValueError, match="does not fit eps"):
                SolverConfig(eps=1e-2, grid=grid, final_time=1.0, scheme=scheme)
        SolverConfig(eps=1e-2, grid=grid, final_time=1.0, scheme="imex")

    def test_cfl_range(self):
        grid = make_uniform_grid(1.0, 8)
        for bad in (0.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                SolverConfig(eps=1e-2, grid=grid, final_time=1.0, cfl_safety=bad)

    def test_schedule_is_sorted_unique_and_spans_the_run(self):
        # the config stores the schedule run follows: 0 and final_time
        # added, repeats dropped, and a time within LANDING_TOL past
        # final_time clamped to it
        grid = make_uniform_grid(1.0, 8)
        T = 0.8
        config = SolverConfig(eps=1e-2, grid=grid, final_time=T,
                              snapshot_times=(0.5, 0.1, 0.5, T + 5e-13))
        assert config.snapshot_times == (0.0, 0.1, 0.5, T)
        assert SolverConfig(eps=1e-2, grid=grid, final_time=1).snapshot_times == (0.0, 1.0)

    def test_cell_too_small_for_diffusion(self):
        # r = eps dt / (dx * dx) needs a dx whose square does not underflow
        grid = make_uniform_grid(1e-300, 100)
        with pytest.raises(ValueError, match="dx \\* dx underflows"):
            SolverConfig(eps=1e-2, grid=grid, final_time=1e-300)
        SolverConfig(eps=0.0, grid=grid, final_time=1e-300)  # no diffusion step


class TestBoundaryData:
    def test_sup_bound_enforced_on_evaluation(self):
        g = BoundaryData(g=lambda t: math.sin(t), sup_bound=0.5)
        assert g(0.1) == pytest.approx(math.sin(0.1))
        with pytest.raises(DataValidationError):
            g(math.pi / 2)

    def test_nonfinite_value_is_an_input_error(self):
        # nan compares false with any bound; the run stops on the datum at
        # its first step past t = 0.01, not later as a blow-up of u
        grid = make_uniform_grid(10.0, 64)
        config = SolverConfig(eps=1e-2, grid=grid, final_time=0.1, snapshot_times=(0.01,))
        u0 = preset_initial("bump-derivative", {"a": 0.5, "x0": 2.0, "sigma": 1.0}, grid)
        g = BoundaryData(g=lambda t: math.nan if t > 0.01 else 0.0, sup_bound=1.0)
        with pytest.raises(DataValidationError, match=r"^boundary datum \|g\([0-9.]+\)\| = nan "):
            run(u0, g, config)

    def test_nonfinite_bound_rejected(self):
        # the one owner of the bounded-boundary rule: presets and files reach it
        for bound in (math.inf, math.nan, -1.0):
            with pytest.raises(DataValidationError, match="essentially bounded"):
                BoundaryData(g=lambda t: 0.0, sup_bound=bound)


class TestStep:
    def test_state_at_final_time_is_refused(self):
        grid = make_uniform_grid(10.0, 64)
        config = SolverConfig(eps=1e-2, grid=grid, final_time=1.0)
        ws = make_workspace(grid, np.zeros(65), t=1.0)
        with pytest.raises(ValueError, match="already at or beyond final_time"):
            step(ws, config, BoundaryData.zero(), dt=0.01)

    def test_zero_fixed_point(self):
        grid = make_uniform_grid(10.0, 64)
        config = SolverConfig(eps=1e-2, grid=grid, final_time=1.0)
        ws = make_workspace(grid, np.zeros(65))
        g = BoundaryData.zero()
        for _ in range(5):
            step(ws, config, g, dt=0.01)
            assert np.max(np.abs(ws.u)) <= 1e-15

    def test_single_step_matches_loop_reference_inviscid(self):
        # frozen Dirichlet datum pushes flux into node 1; the full update
        # (flux + gauged source + projection) is checked node by node
        grid = make_uniform_grid(1.0, 20)
        values = np.zeros(21)
        values[0] = 1.0
        ws = make_workspace(grid, values)
        config = SolverConfig(eps=0.0, grid=grid, final_time=1.0)
        g = BoundaryData(g=lambda t: 1.0, sup_bound=1.0)
        dt = 0.005
        step(ws, config, g, dt=dt)
        expected = reference_step(values, grid, dt, 0.0, 1.0)
        assert np.allclose(ws.u, expected, atol=1e-14)
        assert ws.u[1] > 0.0

    def test_single_step_matches_loop_reference_imex(self):
        grid = make_uniform_grid(10.0, 50)
        u0 = preset_initial("bump-derivative", {"a": 1.0, "x0": 2.0, "sigma": 1.0}, grid)
        ws = make_workspace(grid, u0.values)
        config = SolverConfig(eps=1e-2, grid=grid, final_time=1.0)
        g = BoundaryData.zero()
        dt = stable_dt(ws, config)
        step(ws, config, g, dt=dt)
        expected = reference_step(u0.values, grid, dt, 1e-2, 0.0)
        assert np.max(np.abs(ws.u - expected)) < 1e-12

    def test_pure_diffusion_against_dense_solve(self):
        # source disabled: one IMEX step on a discrete delta is the upwind
        # update (loop reference) followed by the backward-Euler heat kernel;
        # dense-matrix oracle, interior mass conserved up to the
        # (exponentially small) boundary flux
        grid = make_uniform_grid(10.0, 200)
        values = np.zeros(201)
        values[100] = 1.0
        ws = make_workspace(grid, values)
        config = SolverConfig(eps=1e-2, grid=grid, final_time=1.0, include_source=False)
        g = BoundaryData.zero()
        dt = 0.01
        step(ws, config, g, dt=dt)

        ustar = values.copy()
        for i in range(1, grid.node_count):
            ustar[i] = values[i] - dt * (values[i] ** 3 - values[i - 1] ** 3) / grid.dx
        r = 1e-2 * dt / grid.dx**2
        m = grid.cell_count - 1
        A = np.diag(np.full(m, 1 + 2 * r)) + np.diag(np.full(m - 1, -r), 1) + np.diag(
            np.full(m - 1, -r), -1
        )
        interior = np.linalg.solve(A, ustar[1:-1])
        dense = np.concatenate([[0.0], interior, [0.0]])
        assert np.max(np.abs(ws.u - dense)) < 1e-12
        # tridiagonal stage conserves interior mass to the boundary flux
        assert abs(np.trapezoid(interior, dx=grid.dx) - np.trapezoid(ustar[1:-1], dx=grid.dx)) < 1e-12

    def test_dirichlet_exact_after_every_step(self):
        grid = make_uniform_grid(10.0, 100)
        config = SolverConfig(eps=1e-2, grid=grid, final_time=0.5)
        g = preset_boundary("pulse", {"a": 0.5, "tau": 1.0})
        ws = make_workspace(grid, np.zeros(101))
        for _ in range(10):
            step(ws, config, g, dt=0.02)
            assert ws.u[0] == g(ws.t)
            assert ws.u[-1] == 0.0

    @pytest.mark.parametrize("n", [2, 3, 64, 2000])
    def test_projection_weight_is_zero_at_both_ends(self, n):
        # sin(pi)^2 is about 1.5e-32, not 0: the ends are set, so that the
        # projection keeps the Dirichlet values without setting them again
        ws = make_workspace(make_uniform_grid(10.0, n), np.zeros(n + 1))
        assert (ws.weight[0], ws.weight[-1]) == (0.0, 0.0)
        assert np.all(ws.weight[1:-1] > 0.0)

    def test_primitive_synchronized(self):
        grid = make_uniform_grid(10.0, 100)
        config = SolverConfig(eps=1e-2, grid=grid, final_time=0.5)
        u0 = preset_initial("bump-derivative", {"a": 1.0, "x0": 2.0, "sigma": 1.0}, grid)
        ws = make_workspace(grid, u0.values)
        step(ws, config, BoundaryData.zero(), dt=stable_dt(ws, config))
        assert np.array_equal(
            ws.P, cumulative_primitive(Field(grid, ws.u)).values
        )


class TestGradientMeasurements:
    @pytest.mark.parametrize("n", [2, 3, 64])
    def test_match_loop_reference(self, n):
        # trapezoid of the squared centered gradients inside and the squared
        # one-sided three-point gradients at both ends
        grid = make_uniform_grid(10.0, n)
        values = np.random.default_rng(n).standard_normal(n + 1)
        ws = Workspace(grid, 0.0, values, np.zeros(n + 1))
        dx = grid.dx
        u = [float(v) for v in values]
        grads = [(-3 * u[0] + 4 * u[1] - u[2]) / (2 * dx)]
        grads += [(u[i + 1] - u[i - 1]) / (2 * dx) for i in range(1, n)]
        grads.append((3 * u[n] - 4 * u[n - 1] + u[n - 2]) / (2 * dx))
        squares = [gr * gr for gr in grads]
        grad_sq = dx * (0.5 * squares[0] + sum(squares[1:-1]) + 0.5 * squares[-1])
        gradient, measured = ws.measure_gradient()
        assert gradient == pytest.approx(grads[0], rel=1e-13)
        assert measured == pytest.approx(grad_sq, rel=1e-13)
        ws.u = -2.0 * ws.u
        assert ws.measure_gradient()[1] == pytest.approx(4.0 * grad_sq, rel=1e-13)


class TestRun:
    def test_zero_scenario_stays_zero(self):
        grid = make_uniform_grid(10.0, 64)
        config = SolverConfig(
            eps=1e-2, grid=grid, final_time=0.2, snapshot_times=(0.1,)
        )
        traj = run(Field(grid, np.zeros(grid.node_count)), BoundaryData.zero(), config)
        for s in traj.snapshots:
            assert np.max(np.abs(s.u.values)) <= 1e-15

    def test_snapshots_land_on_requested_times(self):
        grid = make_uniform_grid(10.0, 64)
        config = SolverConfig(
            eps=1e-2, grid=grid, final_time=0.3, snapshot_times=(0.1, 0.2)
        )
        u0 = preset_initial("bump-derivative", {"a": 0.5, "x0": 2.0, "sigma": 1.0}, grid)
        traj = run(u0, BoundaryData.zero(), config)
        times = [s.t for s in traj.snapshots]
        assert times[0] == 0.0
        for want in (0.1, 0.2, 0.3):
            assert any(abs(t - want) < 1e-9 for t in times)
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_snapshot_near_zero_lands_exactly(self):
        # a snapshot closer to t = 0 than the first CFL step (about 5e-3
        # here) is reached by a step of its own, not recorded a step late
        grid = make_uniform_grid(10.0, 200)
        config = SolverConfig(
            eps=1e-2, grid=grid, final_time=0.1, snapshot_times=(5e-15, 0.05)
        )
        u0 = preset_initial("bump-derivative", {"a": 1.0, "x0": 2.0, "sigma": 1.0}, grid)
        traj = run(u0, BoundaryData.zero(), config)
        assert [s.t for s in traj.snapshots][:2] == [0.0, 5e-15]
        assert traj.step_log[0] == 5e-15

    def test_landing_short_by_rounding_takes_no_sliver_step(self):
        # on zero data every step runs to the next snapshot time; a + (b - a)
        # rounds to an ulp below b, which counts as landed on b, so no step
        # of about 1e-16 follows it
        grid = make_uniform_grid(10.0, 16)
        a, b = 0.35800764067250507, 0.9391491627785106
        assert a + (b - a) < b
        config = SolverConfig(eps=1e-2, grid=grid, final_time=1.0, snapshot_times=(a, b))
        traj = run(Field(grid, np.zeros(grid.node_count)), BoundaryData.zero(), config)
        assert len(traj.step_log) == 3
        assert len(traj.snapshots) == 4

    @pytest.mark.parametrize("final_time, snapshots, want", [
        (0.2, (0.1, 0.1 + 5e-13), [0.0, 0.1, 0.1 + 5e-13, 0.2]),
        (0.2, (0.2 + 5e-13,), [0.0, 0.2]),
        (5e-13, (), [0.0, 5e-13]),
    ], ids=["two-snapshots-apart-by-less", "snapshot-past-final-time-by-less",
            "final-time-less"])
    def test_times_closer_than_landing_tolerance(self, final_time, snapshots, want):
        # each time is reached by a step of its own and recorded once; a
        # snapshot that SolverConfig admits beyond final_time is final_time
        grid = make_uniform_grid(10.0, 64)
        config = SolverConfig(eps=1e-2, grid=grid, final_time=final_time,
                              snapshot_times=snapshots)
        assert max(config.snapshot_times, default=0.0) <= final_time
        u0 = preset_initial("bump-derivative", {"a": 0.5, "x0": 2.0, "sigma": 1.0}, grid)
        times = run(u0, BoundaryData.zero(), config).times
        assert times == pytest.approx(want, rel=0.0, abs=LANDING_TOL)
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_boundary_series_covers_every_step(self):
        grid = make_uniform_grid(10.0, 64)
        config = SolverConfig(eps=1e-2, grid=grid, final_time=0.2)
        u0 = preset_initial("bump-derivative", {"a": 0.5, "x0": 2.0, "sigma": 1.0}, grid)
        traj = run(u0, BoundaryData.zero(), config)
        assert traj.boundary_series.shape == (len(traj.step_log) + 1, 3)
        assert len(traj.grad_sq_series) == len(traj.step_log) + 1
        assert np.all(traj.step_log > 0.0)

    def test_initial_datum_on_another_grid_rejected(self):
        config = SolverConfig(eps=1e-2, grid=make_uniform_grid(10.0, 64), final_time=0.2)
        u0 = Field(make_uniform_grid(10.0, 32), np.zeros(33))
        with pytest.raises(DataValidationError, match="lives on a different grid"):
            run(u0, BoundaryData.zero(), config)

    def test_nonzero_mean_rejected(self):
        grid = make_uniform_grid(10.0, 64)
        config = SolverConfig(eps=1e-2, grid=grid, final_time=0.2)
        with pytest.raises(DataValidationError):
            run(Field(grid, np.ones(65)), BoundaryData.zero(), config)

    def test_nonzero_mean_runs_source_free(self):
        # the source-free law is not projected, so it takes any mean and
        # keeps its mass but for the boundary flux
        grid = make_uniform_grid(10.0, 64)
        config = SolverConfig(eps=1e-2, grid=grid, final_time=0.2, include_source=False)
        u0 = Field(grid, np.ones(65))
        traj = run(u0, preset_boundary("constant", {"a": 1.0}), config)
        assert traj.final.t == 0.2
        assert mean(traj.final.u) > 0.9 * mean(u0)

    def test_compatibility_mismatch_warns(self):
        # the command line's --strict-compat makes it an error, before run
        grid = make_uniform_grid(10.0, 64)
        config = SolverConfig(eps=1e-2, grid=grid, final_time=0.05)
        u0 = preset_initial("bump-derivative", {"a": 0.2, "x0": 2.0, "sigma": 1.0}, grid)
        g = preset_boundary("constant", {"a": 0.3})
        with pytest.warns(UserWarning, match="compatibility"):
            run(u0, g, config)

    def test_zero_mean_propagates(self):
        grid = make_uniform_grid(10.0, 500)
        config = SolverConfig(
            eps=1e-2, grid=grid, final_time=0.3, snapshot_times=(0.1, 0.2)
        )
        u0 = preset_initial("bump-derivative", {"a": 1.0, "x0": 2.0, "sigma": 1.0}, grid)
        traj = run(u0, BoundaryData.zero(), config)
        bound = 1e-8 * lp_norm(u0, 1)
        for s in traj.snapshots:
            assert abs(mean(s.u)) <= bound

    def test_sup_growth_within_source_budget(self):
        grid = make_uniform_grid(10.0, 500)
        config = SolverConfig(eps=1e-2, grid=grid, final_time=0.5,
                              snapshot_times=tuple(np.linspace(0.05, 0.45, 9)))
        u0 = preset_initial("bump-derivative", {"a": 1.0, "x0": 2.0, "sigma": 1.0}, grid)
        traj = run(u0, BoundaryData.zero(), config)
        sup0 = lp_norm(u0, math.inf)
        max_dt = float(np.max(traj.step_log))
        p_running = 0.0
        for s in traj.snapshots:
            p_running = max(p_running, lp_norm(s.P, math.inf))
            budget = sup0 + s.t * p_running + 10.0 * max_dt * p_running
            assert lp_norm(s.u, math.inf) <= budget * (1.0 + 1e-12)

    def test_l2_never_exceeds_initial_when_unforced(self, s1_traj):
        # with g = 0 the squared-norm balance has no input terms
        n0 = lp_norm(s1_traj.initial.u, 2)
        nT = lp_norm(s1_traj.final.u, 2)
        assert nT <= n0 * (1.0 + 1e-12)

    def test_final_l2_richardson_refinement(self):
        norms = {}
        for n in (250, 500, 1000):
            grid = make_uniform_grid(10.0, n)
            config = SolverConfig(eps=1e-2, grid=grid, final_time=0.5)
            u0 = preset_initial(
                "bump-derivative", {"a": 1.0, "x0": 2.0, "sigma": 1.0}, grid
            )
            traj = run(u0, BoundaryData.zero(), config)
            norms[n] = lp_norm(traj.final.u, 2)
        coarse_gap = abs(norms[500] - norms[250])
        fine_gap = abs(norms[1000] - norms[500])
        # first-order convergence: successive gaps shrink by about half
        assert fine_gap <= 0.75 * coarse_gap


def zero_mean_workspace(grid, rng, amplitude, g0):
    """Random level with u(0) = g0, u(L) = 0 and zero trapezoidal mean."""
    vals = amplitude * rng.normal(size=grid.node_count)
    vals[0] = g0
    vals[-1] = 0.0
    w = np.sin(np.pi * grid.nodes / grid.length) ** 2  # vanishes at both ends
    vals -= mean(Field(grid, vals)) / mean(Field(grid, w)) * w
    vals[-1] = 0.0
    return make_workspace(grid, vals)


class TestKernelProperties:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(8, 200),
        eps=st.just(0.0) | st.floats(1e-4, 1e-1),
        amplitude=st.floats(1e-3, 2.0),
        g0=st.floats(-1.0, 1.0),
        dt_fraction=st.floats(0.01, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_step_invariants(self, seed, n, eps, amplitude, g0, dt_fraction):
        grid = make_uniform_grid(10.0, n)
        config = SolverConfig(eps=eps, grid=grid, final_time=10.0)
        ws = zero_mean_workspace(grid, np.random.default_rng(seed), amplitude, g0)
        g = BoundaryData(g=lambda t: g0, sup_bound=abs(g0))
        # a step that ends by final_time, as run would take it
        dt = dt_fraction * min(stable_dt(ws, config), config.final_time)
        row = step(ws, config, g, dt=dt)
        assert ws.t == dt
        assert ws.u[0] == g0
        assert ws.u[-1] == 0.0
        new = ws.state()
        assert abs(mean(new.u)) <= 1e-13 * lp_norm(new.u, 1)
        assert np.isfinite(ws.u).all() and np.isfinite(ws.P).all()
        assert row[:2] == (dt, g0)
        assert np.isfinite(row[2:]).all()

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(8, 300),
        eps=st.just(0.0) | st.floats(1e-4, 1e-1),
        amplitude=st.floats(1e-3, 2.0),
        dt_fraction=st.floats(0.05, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_source_free_step_is_monotone(self, seed, n, eps, amplitude, dt_fraction):
        # upwind flux plus backward-Euler diffusion, under a CFL step both
        # data share, is a monotone scheme: the discrete form of the L1
        # contraction that uniqueness rests on.  (The sourced step is not
        # monotone: its gauge and projection are nonlocal.)
        grid = make_uniform_grid(10.0, n)
        config = SolverConfig(eps=eps, grid=grid, final_time=10.0, include_source=False)
        rng = np.random.default_rng(seed)
        lo = amplitude * rng.uniform(-1.0, 1.0, n + 1)
        gap = amplitude * rng.uniform(0.0, 1.0, n + 1) * (rng.random(n + 1) < 0.7)
        gap[0] = 0.0  # equal boundary values
        hi = lo + gap
        g0 = lo[0]
        g = BoundaryData(g=lambda t: g0, sup_bound=abs(g0))
        lo_ws, hi_ws = make_workspace(grid, lo), make_workspace(grid, hi)
        # a step that ends by final_time, as run would take it
        dt = dt_fraction * min(stable_dt(lo_ws, config), stable_dt(hi_ws, config),
                               config.final_time)
        step(lo_ws, config, g, dt=dt)
        step(hi_ws, config, g, dt=dt)
        lo_new, hi_new = lo_ws.u, hi_ws.u
        assert np.all(lo_new <= hi_new)
        for old, new in ((lo, lo_new), (hi, hi_new)):
            assert min(old.min(), g0, 0.0) <= new.min()
            assert new.max() <= max(old.max(), g0, 0.0)
        # in exact arithmetic the sum does not grow; each of the n + 1 new
        # nodes is rounded, so the computed sum may grow by rounding alone
        # (4000 draws grew it in 36, all explicit, by at most 1.9 ulps of
        # the sum); the allowance is one ulp per node
        allowance = 1.0 + (n + 1) * np.finfo(float).eps
        assert np.sum(np.abs(hi_new - lo_new)) <= np.sum(np.abs(hi - lo)) * allowance

    @given(
        a=st.floats(0.1, 1.0),
        pulse=st.floats(0.0, 0.5),
        eps=st.just(0.0) | st.floats(1e-3, 1e-1),
    )
    @settings(max_examples=10, deadline=None)
    def test_run_matches_replayed_step_loop(self, a, pulse, eps):
        # run() is its logged steps and nothing else: replaying them through
        # a fresh Workspace gives its series and snapshots bit for bit
        grid = make_uniform_grid(10.0, 100)
        config = SolverConfig(eps=eps, grid=grid, final_time=0.1,
                              snapshot_times=(0.03, 0.07))
        u0 = preset_initial("bump-derivative", {"a": a, "x0": 2.0, "sigma": 1.0}, grid)
        g = preset_boundary("pulse", {"a": pulse, "tau": 0.08})
        traj = run(u0, g, config)

        ws = make_workspace(grid, u0.values)
        by_time = {ws.t: (ws.u.copy(), ws.P.copy())}
        rows = [(ws.t, g(ws.t), *ws.measure_gradient())]
        for dt in traj.step_log:
            row = step(ws, traj.config, g, dt=float(dt))
            by_time[ws.t] = (ws.u.copy(), ws.P.copy())
            assert row[:2] == (ws.t, g(ws.t))
            rows.append(row)
        rows = np.asarray(rows)
        assert np.array_equal(rows[:, :3], traj.boundary_series)
        assert np.array_equal(rows[:, 3], traj.grad_sq_series)
        for snap in traj.snapshots:
            u, P = by_time[snap.t]
            assert np.array_equal(snap.u.values, u)
            assert np.array_equal(snap.P.values, P)


class TestBlowUpAtSource:
    def grid(self):
        return make_uniform_grid(10.0, 64)

    def test_overflowing_speed_raises_with_time(self):
        # max u^2 overflows: no time step exists, at t = 0.25 already
        grid = self.grid()
        config = SolverConfig(eps=1e-2, grid=grid, final_time=1.0)
        ws = make_workspace(grid, 1e200 * np.sin(grid.nodes), t=0.25)
        with pytest.raises(BlowUpError) as excinfo:
            stable_dt(ws, config)
        assert excinfo.value.time == 0.25

    def test_step_that_does_not_advance_time_raises(self):
        grid = self.grid()
        config = SolverConfig(eps=1e-2, grid=grid, final_time=2.0)
        ws = make_workspace(grid, np.sin(grid.nodes), t=1.0)
        for dt in (0.0, 1e-20):
            with pytest.raises(BlowUpError) as excinfo:
                step(ws, config, BoundaryData.zero(), dt=dt)
            assert excinfo.value.time == 1.0

    def test_failed_diffusion_solve_raises_with_time(self, monkeypatch):
        # a factorization that reports a nonpositive pivot (info = 2)
        grid = self.grid()
        config = SolverConfig(eps=1e-2, grid=grid, final_time=1.0)
        ws = make_workspace(grid, np.sin(grid.nodes), t=0.25)
        monkeypatch.setattr(scheme, "_factor_diffusion", lambda ws, r: 2)
        message = r"diffusion solve failed \(LAPACK info=2\)"
        with pytest.raises(BlowUpError, match=message) as excinfo:
            step(ws, config, BoundaryData.zero(), dt=0.125)
        assert excinfo.value.time == 0.375

    def test_overflowing_flux_raises_and_keeps_the_workspace(self):
        # u^2 is finite (so is the CFL step) but the flux u^3 overflows;
        # the failed step leaves the workspace's finite level untouched
        grid = self.grid()
        config = SolverConfig(eps=1e-2, grid=grid, final_time=1.0)
        ws = make_workspace(grid, 1e150 * np.sin(grid.nodes))
        u_before = ws.u.copy()
        with pytest.raises(BlowUpError) as excinfo:
            step(ws, config, BoundaryData.zero(), dt=stable_dt(ws, config))
        assert excinfo.value.time > 0.0
        assert ws.t == 0.0
        assert np.array_equal(ws.u, u_before)
        assert np.isfinite(ws.P).all()


def _kernel_solve(b, r):
    """The IMEX stage's solve of (1 + 2r, -r) x = b, as ``step`` makes it in
    a Workspace of len(b) interior nodes: ``_factor_diffusion``, then
    ``dpttrs`` in place.  Returns (x, info)."""
    m = b.shape[0]
    ws = make_workspace(make_uniform_grid(1.0, m + 1), np.zeros(m + 2))
    ws.spare[1:-1] = b
    info = scheme._factor_diffusion(ws, r)
    if info == 0:
        info = scheme._lapack().dpttrs(ws, ws.spare)
    return ws.spare[1:-1].copy(), info


def _public_dptsv(b, r):
    """``scipy.linalg.lapack.dptsv`` on the same system: (x, info)."""
    m = b.shape[0]
    d, e = np.full(m, 1.0 + 2.0 * r), np.full(max(m - 1, 1), -r)
    return lapack.dptsv(d, e, b.copy())[2:]


def _same_bits(ours, theirs):
    """Two (x, info) results agree bit for bit."""
    (x, info), (y, their_info) = ours, theirs
    assert info == their_info
    x, y = np.asarray(x), np.asarray(y)
    assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())


def _without_numpy_lapack(monkeypatch):
    """Make numpy's extension a library that exports no LAPACK symbol, as
    on a numpy built without OpenBLAS."""
    monkeypatch.setattr(scheme.ctypes, "CDLL", lambda path: types.SimpleNamespace())


@functools.cache
def _fallback():
    """What ``_lapack()`` binds where numpy exports no LAPACK symbols."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        _without_numpy_lapack(monkeypatch)
        return scheme._lapack.__wrapped__()


@pytest.fixture
def binding(request, monkeypatch):
    """``_lapack()`` replaced by one binding: ``"numpy"``'s OpenBLAS, skipped
    where numpy exports no such symbols, or the ``"flapack"`` fallback."""
    chosen = scheme._numpy_openblas() if request.param == "numpy" else _fallback()
    if chosen is None:
        pytest.skip("numpy exports no scipy_dpttrs_64_")
    monkeypatch.setattr(scheme, "_lapack", lambda: chosen)
    return chosen


#: sizes for every residue of m mod 4 (dpttrf's unrolling), shorter and
#: longer than the first prefix, and the kernel's sizes at n = 2000 and 4000
SOLVE_SIZES = [*range(1, 41), 1999, 2000, 2001, 3998, 3999, 4000, 4001]


class TestDptsv:
    """The IMEX stage's diffusion solve: numpy's OpenBLAS, or LAPACK loaded
    without the package init of scipy.linalg, bound only for eps > 0, and a
    prefix factorization that gives ``scipy.linalg.lapack.dptsv``'s solution
    bit for bit on either binding."""

    def test_import_leaves_scipy_linalg_unloaded(self):
        # a silent fall back to the public import would load scipy.linalg
        code = (
            "import sys\n"
            "import spe.cli\n"
            "from spe.scenarios import builtin_scenario_path, load_scenario\n"
            "load_scenario(builtin_scenario_path('s1'))\n"
            "print([m for m in sys.modules"
            " if m == 'scipy.linalg' or m.startswith('scipy.linalg.')])\n"
        )
        out = subprocess.run([sys.executable, "-c", code], env=subprocess_env(),
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_lapack_loaded_only_for_viscous_config(self, tmp_path):
        # entropy-check on riemann (eps = 0) never maps the extension; s1
        # (eps > 0) binds LAPACK while its scenario loads, before any run,
        # and only the fallback loads scipy's extension
        code = (
            "import json, sys\n"
            "import spe.cli\n"
            "from spe.scenarios import builtin_scenario_path, load_scenario\n"
            "from spe.scheme import _lapack\n"
            "def lapack():\n"
            "    return sorted(m for m in sys.modules if m == 'spe._flapack'"
            " or m.startswith('scipy.linalg'))\n"
            "rc = spe.cli.main(['entropy-check', '--scenario',"
            " str(builtin_scenario_path('riemann')), '--out', sys.argv[1]])\n"
            "inviscid = lapack()\n"
            "load_scenario(builtin_scenario_path('s1'))\n"
            "bound = _lapack.cache_info().currsize\n"
            "print(json.dumps([rc, inviscid, lapack(), bound, type(_lapack()).__name__]))\n"
        )
        out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out")],
                             env=subprocess_env(), capture_output=True, text=True,
                             check=True)
        *loaded, chosen = json.loads(out.stdout)
        assert chosen in ("_OpenBLAS", "_Flapack")
        assert loaded == [0, [], ["spe._flapack"] if chosen == "_Flapack" else [], 1]

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
    def test_viscous_run_maps_one_openblas(self):
        # numpy's OpenBLAS solves the diffusion: a viscous run loads no scipy
        # module and maps no file of scipy.libs (scipy's own OpenBLAS)
        if scheme._numpy_openblas() is None:
            pytest.skip("numpy exports no scipy_dpttrs_64_")
        code = (
            "import json, sys\n"
            "from spe.scenarios import builtin_scenario_path, load_scenario\n"
            "from spe.scheme import run\n"
            "spec = load_scenario(builtin_scenario_path('s1'))\n"
            "traj = run(spec.initial, spec.boundary, spec.config)\n"
            "with open('/proc/self/maps') as maps:\n"
            "    mapped = sorted({line.split()[-1] for line in maps if 'scipy.libs' in line})\n"
            "print(json.dumps([traj.final.t, mapped, sorted(m for m in sys.modules"
            " if m in ('scipy', 'spe._flapack') or m.startswith('scipy.'))]))\n"
        )
        out = subprocess.run([sys.executable, "-c", code], env=subprocess_env(),
                             capture_output=True, text=True, check=True)
        final_time, mapped, modules = json.loads(out.stdout)
        assert final_time > 0.0
        assert (mapped, modules) == ([], [])

    # ids: n on numpy's OpenBLAS, flapack-n on the fallback
    @pytest.mark.parametrize("binding, n", [
        pytest.param(name, n, id=f"{prefix}{n}")
        for name, prefix in (("numpy", ""), ("flapack", "flapack-")) for n in SOLVE_SIZES
    ], indirect=["binding"])
    def test_same_routine_as_scipy_linalg(self, binding, n):
        rng = np.random.default_rng(n)
        # r = 1e6 never settles within 4001 rows: the full factorization
        for r in [0.0, *np.geomspace(1e-3, 1e6, 12)]:
            b = rng.standard_normal(n)
            _same_bits(_kernel_solve(b, r), _public_dptsv(b, r))

    @pytest.mark.parametrize("binding", ["numpy", "flapack"], indirect=True)
    def test_same_info_on_indefinite_system(self, binding):
        # r < 0 makes a pivot nonpositive within the first prefix
        for n in (3, 100, 3999):
            b = np.ones(n)
            for r in (-1.0, -0.3):
                ours = _kernel_solve(b, r)
                assert ours[1] != 0
                _same_bits(ours, _public_dptsv(b, r))

    def _count_rows(self, monkeypatch, binding):
        rows = []

        def counted(ws, k):
            rows.append(k)
            return binding.dpttrf(ws, k)

        monkeypatch.setattr(scheme, "_lapack", lambda: types.SimpleNamespace(
            dpttrf=counted, dpttrs=binding.dpttrs))
        return rows

    @pytest.mark.parametrize("binding", ["numpy", "flapack"], indirect=True)
    def test_factors_a_short_prefix(self, monkeypatch, binding):
        # r = 16 is about the largest r of the n=4000 viscosity sweep; its
        # pivots repeat after 76 rows of 3999
        rows = self._count_rows(monkeypatch, binding)
        b = np.random.default_rng(0).standard_normal(3999)
        _same_bits(_kernel_solve(b, 16.0), _public_dptsv(b, 16.0))
        assert sum(rows) < 300
        assert all(k % 4 == 3999 % 4 for k in rows)

    @pytest.mark.parametrize("binding", ["numpy", "flapack"], indirect=True)
    def test_factors_all_rows_when_pivots_never_repeat(self, monkeypatch, binding):
        rows = self._count_rows(monkeypatch, binding)
        b = np.random.default_rng(1).standard_normal(3999)
        _same_bits(_kernel_solve(b, 1e6), _public_dptsv(b, 1e6))
        assert rows[-1] == 3999
        assert sum(rows) < 2 * 3999

    @pytest.mark.parametrize("binding", ["numpy", "flapack"], indirect=True)
    def test_rebound_array_is_checked_where_its_address_is_taken(self, binding):
        # a rebound u becomes the spare that the next step solves into: its
        # address is taken then, once it is n contiguous float64, and any
        # other array is refused rather than written through (or, by f2py,
        # copied and solved into the copy)
        grid = make_uniform_grid(10.0, 50)
        config = SolverConfig(eps=1e-2, grid=grid, final_time=1.0)
        u0 = np.sin(2.0 * np.pi * grid.nodes / 10.0)
        ours, theirs = make_workspace(grid, u0), make_workspace(grid, u0)
        ours.u = ours.u.copy()
        for _ in range(2):
            for ws in (ours, theirs):
                step(ws, config, BoundaryData.zero(), dt=0.01)
        assert ours.u.tobytes() == theirs.u.tobytes()
        for bad in (np.zeros(51, np.float32), np.zeros(102)[::2], np.zeros(50)):
            with pytest.raises(ValueError, match="LAPACK needs 51 contiguous float64"):
                binding.dpttrs(ours, bad)

    def test_falls_back_where_numpy_exports_no_lapack(self, monkeypatch):
        # _lapack() binds scipy's wrappers, which solve to numpy's bytes
        numpy_binding = scheme._numpy_openblas()
        _without_numpy_lapack(monkeypatch)
        monkeypatch.setattr(scheme, "_lapack", functools.cache(scheme._lapack.__wrapped__))
        assert isinstance(scheme._lapack(), scheme._Flapack)
        b, rs = np.random.default_rng(2).standard_normal(3999), (1e-3, 16.0, 1e6)
        solved = [_kernel_solve(b, r) for r in rs]
        for r, ours in zip(rs, solved):
            _same_bits(ours, _public_dptsv(b, r))
        if numpy_binding is not None:
            monkeypatch.setattr(scheme, "_lapack", lambda: numpy_binding)
            for r, ours in zip(rs, solved):
                _same_bits(ours, _kernel_solve(b, r))

    def test_falls_back_to_public_import(self, tmp_path):
        loaded = scheme._load_flapack([str(tmp_path)])
        assert loaded is lapack
        d, e = np.full(5, 3.0), np.full(4, -1.0)
        ours = _fallback().module.dpttrf(d.copy(), e.copy())
        theirs = loaded.dpttrf(d.copy(), e.copy())
        for a, b in zip(ours, theirs):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_single_interior_node(self):
        # n = 2: the diffusion solve has one unknown and a one-element
        # off-diagonal
        grid = make_uniform_grid(10.0, 2)
        g = BoundaryData(g=lambda t: 0.5 * math.sin(t), sup_bound=0.5)
        config = SolverConfig(eps=1e-2, grid=grid, final_time=1.0)
        traj = run(Field(grid, np.zeros(3)), g, config)
        assert traj.final.t == 1.0
        assert traj.final.u.values[0] == g(1.0) and traj.final.u.values[-1] == 0.0
