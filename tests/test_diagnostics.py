"""Estimate checks, the stability comparator, the viscosity sweep, and the
physical scaling map."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spe.diagnostics import (
    _at_snapshot_times,
    _cumulative_g_power,
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
from spe.fields import Field, lp_norm, make_uniform_grid, windowed_l1
from spe.nonlocal_source import cumulative_primitive
from spe.scenarios import preset_boundary, preset_initial
from spe.scheme import BoundaryData, SolverConfig, State, Trajectory, run


def single_state_trajectory(grid, values, eps=1e-2):
    u = Field(grid, values)
    dudx0 = (-3 * values[0] + 4 * values[1] - values[2]) / (2 * grid.dx)
    s0 = State(t=0.0, u=u, P=cumulative_primitive(u), boundary_gradient=dudx0)
    s1 = State(t=1.0, u=u, P=cumulative_primitive(u), boundary_gradient=dudx0)
    config = SolverConfig(eps=eps, grid=grid, final_time=1.0)
    series = np.array([[0.0, 0.0, dudx0], [1.0, 0.0, dudx0]])
    return Trajectory(
        config=config,
        g=BoundaryData.zero(),
        initial=s0,
        snapshots=(s0, s1),
        boundary_series=series,
        grad_sq_series=np.zeros(2),
        step_log=np.array([1.0]),
    )


class TestScalingConstants:
    def test_unit_values(self):
        sc = scaling_constants(1.0, 1.0)
        assert sc.D1 == pytest.approx(-0.5, abs=0)
        assert sc.D2 == pytest.approx(1.0, abs=0)

    def test_k_two(self):
        sc = scaling_constants(2.0, 1.0)
        assert sc.D1 == pytest.approx(-1.0, abs=0)
        assert sc.D2 == pytest.approx(0.5, abs=0)

    def test_defining_identities_random_sample(self):
        rng = np.random.default_rng(2024)
        ks = 10.0 ** rng.uniform(-1, 1, 100)
        c2s = 10.0 ** rng.uniform(-1, 1, 100)
        for k, c2 in zip(ks, c2s):
            sc = scaling_constants(float(k), float(c2))
            assert abs(2.0 * sc.c2**2 * sc.D1 * sc.D2 + 1.0) <= 1e-14
            assert abs(sc.c2**2 * sc.k**2 * sc.D2**2 - 1.0) <= 1e-14

    def test_invalid_inputs(self):
        for k, c2 in ((0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (math.inf, 1.0)):
            with pytest.raises(ValueError):
                scaling_constants(k, c2)


class TestMeanResidual:
    def test_zero_trajectory(self):
        grid = make_uniform_grid(10.0, 32)
        traj = single_state_trajectory(grid, np.zeros(33))
        assert np.all(mean_residual(traj) == 0.0)

    def test_s1_refinement_not_growing(self, s1_traj, s1_traj_1000):
        coarse = float(np.max(mean_residual(s1_traj_1000)))
        fine = float(np.max(mean_residual(s1_traj)))
        # both sit at roundoff; refinement must not blow the residual up
        assert fine <= max(coarse * 10.0, 1e-12)


class TestPInftyCheck:
    def test_zero_trajectory(self):
        grid = make_uniform_grid(10.0, 32)
        rec = p_infty_check(single_state_trajectory(grid, np.zeros(33)))
        assert rec.measured == 0.0
        assert rec.bound == 0.0
        assert rec.verdict == "pass"

    def test_unit_field_closed_form(self):
        grid = make_uniform_grid(1.0, 1000)
        traj = single_state_trajectory(grid, np.ones(1001))
        rec = p_infty_check(traj)
        # P(x) = x: sup^2 = 1, and 2||P||_2 ||u||_2 = 2/sqrt(3)
        assert rec.measured == pytest.approx(1.0, rel=1e-6)
        assert rec.bound == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-6)
        assert rec.verdict == "pass"

    def test_holds_on_s1_and_s2(self, s1_traj, s2_traj):
        for traj in (s1_traj, s2_traj):
            rec = p_infty_check(traj)
            assert rec.verdict == "pass"
            assert rec.residual <= 1e-10


class TestEnergyCheck:
    def test_zero_trajectory_equality(self):
        grid = make_uniform_grid(10.0, 32)
        rec = energy_l4_p2_check(single_state_trajectory(grid, np.zeros(33)))
        assert rec.measured == 0.0
        assert rec.bound == 0.0
        assert rec.verdict == "pass"

    def test_dissipative_on_s1(self, s1_traj):
        rec = energy_l4_p2_check(s1_traj)
        assert rec.verdict == "pass"

    def test_series_read_at_each_snapshot_step(self):
        # snapshots closer than the landing tolerance each have a step of
        # their own; the integral of g^6 is read at that step's row
        grid = make_uniform_grid(10.0, 400)
        u0 = preset_initial("bump-derivative", {"a": 1.0, "x0": 2.0, "sigma": 1.0}, grid)
        config = SolverConfig(eps=1e-2, grid=grid, final_time=0.2,
                              snapshot_times=(0.1, 0.1 + 5e-13))
        traj = run(u0, preset_boundary("pulse", {"a": 0.5, "tau": 1.0}), config)
        rows = _at_snapshot_times(traj, np.arange(len(traj.boundary_series)))
        assert len(set(rows)) == len(traj.snapshots) == 4
        assert np.array_equal(traj.boundary_series[rows, 0], traj.times)


class TestLinftyCheck:
    def test_zero_trajectory(self):
        grid = make_uniform_grid(10.0, 32)
        rec = linfty_check(single_state_trajectory(grid, np.zeros(33)))
        assert rec.verdict == "pass"

    def test_boundary_driven_uses_g_in_base(self, s2_traj):
        rec = linfty_check(s2_traj)
        assert rec.verdict == "pass"


class TestStabilityCompare:
    def test_identical_data_zero_difference(self, s1_traj):
        rec = stability_compare(s1_traj, s1_traj, window=4.0, C=5.0)
        assert rec.measured == 0.0
        assert rec.verdict == "pass"

    def test_window_and_constant_validation(self, s1_traj):
        with pytest.raises(ValueError):
            stability_compare(s1_traj, s1_traj, window=0.0, C=5.0)
        with pytest.raises(ValueError):
            stability_compare(s1_traj, s1_traj, window=11.0, C=5.0)
        for C in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="stability constant"):
                stability_compare(s1_traj, s1_traj, window=4.0, C=C)

    def test_overflowing_growth_factor_is_an_input_error(self, s1_traj):
        # e^(Ct) beyond the largest float: a typed error, not OverflowError
        with pytest.raises(ValueError, match="overflows"):
            stability_compare(s1_traj, s1_traj, window=4.0, C=1e4)

    def test_mismatched_grids_rejected(self, s1_traj, s1_traj_1000):
        with pytest.raises(ValueError):
            stability_compare(s1_traj, s1_traj_1000, window=4.0, C=5.0)

    def test_passing_constant_passes_when_increased(self):
        # nonnegative initial difference supported inside the window: the
        # right-hand side is monotone in C, so any larger constant also passes
        grid = make_uniform_grid(10.0, 400)
        config = SolverConfig(
            eps=1e-2, grid=grid, final_time=0.4, snapshot_times=(0.1, 0.2, 0.3)
        )
        u0 = preset_initial("bump-derivative", {"a": 1.0, "x0": 2.0, "sigma": 1.0}, grid)
        x = grid.nodes
        s = (x - 2.0) / 0.6
        lump = np.where(np.abs(s) <= 1.0, 5e-3 * (1 - s**2) ** 3, 0.0)
        v0 = Field(grid, u0.values - lump)
        g = BoundaryData.zero()
        base = run(u0, g, config)
        pert = run(v0, g, config, require_zero_mean=False)
        C = default_stability_constant(base, pert)
        rec1 = stability_compare(base, pert, window=4.0, C=C)
        rec2 = stability_compare(base, pert, window=4.0, C=2.0 * C)
        assert rec1.verdict == "pass"
        assert rec2.verdict == "pass"
        for (t1, lhs1, rhs1), (t2, lhs2, rhs2) in zip(
            rec1.detail["series"], rec2.detail["series"]
        ):
            assert rhs2 >= rhs1 - 1e-12


class TestL2Balance:
    def test_zero_trajectory(self):
        grid = make_uniform_grid(10.0, 32)
        traj = single_state_trajectory(grid, np.zeros(33))
        assert l2_balance_residual(traj) == 0.0


class TestEpsilonSweep:
    def base(self, n=64):
        grid = make_uniform_grid(10.0, n)
        return grid, SolverConfig(eps=1e-2, grid=grid, final_time=0.2)

    def test_zero_data_all_distances_vanish(self):
        grid, config = self.base()
        rec = epsilon_sweep(
            Field(grid, np.zeros(grid.node_count)), BoundaryData.zero(), config,
            (3e-2, 1e-2, 3e-3),
        )
        assert rec.verdict == "pass"
        assert all(d == 0.0 for d in rec.detail["l1_differences"])

    def test_input_validation(self):
        grid, config = self.base()
        u0 = Field(grid, np.zeros(grid.node_count))
        g = BoundaryData.zero()
        # a Cauchy comparison needs two distances, so three viscosities
        for too_few in ((1e-2,), (3e-2, 1e-2)):
            with pytest.raises(ValueError, match="at least three"):
                epsilon_sweep(u0, g, config, too_few)
        with pytest.raises(ValueError, match="strictly decreasing"):
            epsilon_sweep(u0, g, config, (1e-2, 3e-2, 1e-1))
        with pytest.raises(ValueError, match="positive"):
            epsilon_sweep(u0, g, config, (1e-2, 3e-3, -1e-3))

    def test_distances_shrink_under_refinement(self, s1_spec):
        from conftest import rescale_scenario

        epsilons = (3e-2, 1e-2, 3e-3)
        dists = {}
        for n in (500, 1000):
            spec = rescale_scenario(s1_spec, n)
            rec = epsilon_sweep(spec.initial, spec.boundary, spec.config, epsilons)
            dists[n] = rec.detail["l1_differences"]
        noise = 10.0 * (10.0 / 500)  # first-order quadrature scale at n=500
        for coarse, fine in zip(dists[500], dists[1000]):
            assert fine <= coarse + 0.05 * noise


class TestDeterminism:
    def test_reports_bit_identical_across_runs(self, s1_spec):
        from conftest import rescale_scenario

        spec = rescale_scenario(s1_spec, 250)
        records = []
        for _ in range(2):
            traj = run(spec.initial, spec.boundary, spec.config)
            records.append(
                (
                    tuple(mean_residual(traj)),
                    l2_balance_residual(traj),
                    energy_l4_p2_check(traj).as_dict()["measured"],
                    p_infty_check(traj).as_dict()["measured"],
                    linfty_check(traj).as_dict()["measured"],
                )
            )
        assert records[0] == records[1]


def synthetic_trajectory(grid, times, rows, g_vals):
    """Snapshots of the given node values at the given times, with one
    boundary-series row (t, g, 0) per snapshot."""
    states = []
    for t, vals in zip(times, rows):
        u = Field(grid, vals)
        states.append(State(t=t, u=u, P=cumulative_primitive(u), boundary_gradient=0.0))
    return Trajectory(
        config=SolverConfig(eps=1e-2, grid=grid, final_time=times[-1]),
        g=BoundaryData.zero(),
        initial=states[0],
        snapshots=tuple(states),
        boundary_series=np.column_stack((times, g_vals, np.zeros(len(times)))),
        grad_sq_series=np.zeros(len(times)),
        step_log=np.diff(times),
    )


def loop_worst(rows):
    """The worst (gap, ...) row by a strict > scan from -inf: the first of
    the rows whose lhs - rhs is largest."""
    worst_gap, worst = -math.inf, None
    for lhs, rhs, *rest in rows:
        if lhs - rhs > worst_gap:
            worst_gap, worst = lhs - rhs, (lhs, rhs, *rest)
    return worst


@st.composite
def trajectory_pairs(draw):
    """Two small trajectories on a shared grid and shared snapshot times whose
    snapshots repeat a few node vectors, so that gaps tie exactly."""
    n = draw(st.integers(4, 10))
    grid = make_uniform_grid(2.0, n)
    entries = st.sampled_from([0.0, 0.25, -0.5, 1.0, -1.0])
    pool = [np.array(draw(st.lists(entries, min_size=n + 1, max_size=n + 1)))
            for _ in range(3)]
    count = draw(st.integers(2, 6))
    times = np.cumsum([0.0] + draw(st.lists(
        st.sampled_from([0.1, 0.25, 0.5]), min_size=count - 1, max_size=count - 1)))
    g_vals = draw(st.lists(st.sampled_from([0.0, 0.5, -0.5]),
                           min_size=count, max_size=count))

    def picks():
        return [pool[k] for k in draw(st.lists(
            st.integers(0, 2), min_size=count, max_size=count))]

    return (synthetic_trajectory(grid, times, picks(), g_vals),
            synthetic_trajectory(grid, times, picks(), g_vals))


class TestWorstCaseRule:
    """Each check reports the first snapshot with the largest lhs - rhs, as
    the strict-> loops it replaced did; ties between repeated snapshots
    pin the first one."""

    @given(pair=trajectory_pairs(), C=st.sampled_from([0.5, 1.0, 3.0]),
           window=st.sampled_from([0.3, 1.0, 2.0]))
    @settings(max_examples=200, deadline=None)
    def test_matches_loops(self, pair, C, window):
        traj, other = pair
        snaps = traj.snapshots

        E = [0.5 * lp_norm(s.u, 4) ** 4 + lp_norm(s.P, 2) ** 2 for s in snaps]
        g6 = 8.0 * _at_snapshot_times(traj, _cumulative_g_power(traj, 6))
        want = loop_worst((e, E[0] + b, s.t) for e, b, s in zip(E, g6, snaps))
        rec = energy_l4_p2_check(traj)
        assert (rec.measured, rec.bound, rec.detail["worst_time"]) == want

        want = loop_worst(
            (lp_norm(s.P, math.inf) ** 2, 2.0 * lp_norm(s.P, 2) * lp_norm(s.u, 2), s.t)
            for s in snaps)
        rec = p_infty_check(traj)
        assert (rec.measured, rec.bound, rec.detail["worst_time"]) == want

        base = max(lp_norm(traj.initial.u, math.inf),
                   float(np.max(np.abs(traj.boundary_series[:, 1]))))
        rows, p_running = [], -math.inf
        for s in snaps:
            p_running = max(p_running, lp_norm(s.P, math.inf))
            rows.append((lp_norm(s.u, math.inf), base + s.t * p_running))
        rec = linfty_check(traj)
        assert (rec.measured, rec.bound) == loop_worst(rows)

        grid = traj.config.grid
        diff0 = Field(grid, traj.initial.u.values - other.initial.u.values)
        rows = []
        for su, sv in zip(snaps, other.snapshots):
            lhs = windowed_l1(Field(grid, su.u.values - sv.u.values), window)
            expanded = min(window + C * su.t, grid.length)
            rhs = math.exp(C * su.t) * windowed_l1(diff0, expanded) * (1.0 + 0.01)
            rows.append((lhs, rhs, su.t))
        rec = stability_compare(traj, other, window, C)
        assert (rec.measured, rec.bound, rec.detail["worst_time"]) == loop_worst(rows)
