"""Estimate checks, the stability comparator, the viscosity sweep, and the
physical scaling map."""

import math

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
from spe.fields import Field, make_uniform_grid
from spe.nonlocal_source import cumulative_primitive
from spe.scenarios import preset_initial
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
        with pytest.raises(ValueError):
            stability_compare(s1_traj, s1_traj, window=4.0, C=0.0)

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

    def test_scheme_independence(self, s1_spec):
        # explicit and IMEX integrate the same dynamics; their balance
        # residuals are discretization error of the same order
        from dataclasses import replace

        from conftest import rescale_scenario

        spec = rescale_scenario(s1_spec, 500)
        res = {}
        for scheme in ("imex", "explicit"):
            config = replace(spec.config, scheme=scheme)
            traj = run(spec.initial, spec.boundary, config)
            res[scheme] = l2_balance_residual(traj)
        assert res["imex"] == pytest.approx(res["explicit"], rel=1.0)


class TestEpsilonSweep:
    def base(self, n=64):
        grid = make_uniform_grid(10.0, n)
        return grid, SolverConfig(eps=1e-2, grid=grid, final_time=0.2)

    def test_zero_data_all_distances_vanish(self):
        grid, config = self.base()
        rec = epsilon_sweep(
            Field.zeros(grid), BoundaryData.zero(), config, (3e-2, 1e-2, 3e-3)
        )
        assert rec.verdict == "pass"
        assert all(d == 0.0 for d in rec.detail["l1_differences"])

    def test_input_validation(self):
        grid, config = self.base()
        u0 = Field.zeros(grid)
        g = BoundaryData.zero()
        with pytest.raises(ValueError):
            epsilon_sweep(u0, g, config, (1e-2,))
        with pytest.raises(ValueError):
            epsilon_sweep(u0, g, config, (1e-2, 3e-2))
        with pytest.raises(ValueError):
            epsilon_sweep(u0, g, config, (1e-2, -1e-3))

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
