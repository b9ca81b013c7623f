"""Entropy pair algebra, test-function families, trace extraction, and the
inequality evaluator."""

import functools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spe.entropy import TestFunction as SeparableBump
from spe.entropy import (
    BumpProfile,
    _cover,
    entropy_residual,
    entropy_table,
    entropy_tolerance,
    extract_trace,
    make_bump_family,
)
from spe.fields import Field, cumulative_primitive, make_uniform_grid
from spe.scheme import BoundaryData, SolverConfig, State, Trajectory, run


def synthetic_trajectory(grid, times, profiles, g, eps=0.0, include_source=True):
    """Assemble a Trajectory directly from given snapshot profiles."""
    config = SolverConfig(
        eps=eps,
        grid=grid,
        final_time=float(times[-1]),
        snapshot_times=tuple(times),
        include_source=include_source,
    )
    states, series = [], []
    for t, vals in zip(times, profiles):
        u = Field(grid, vals)
        dudx0 = (-3 * vals[0] + 4 * vals[1] - vals[2]) / (2 * grid.dx)
        states.append(State(t=float(t), u=u, P=cumulative_primitive(u)))
        series.append([float(t), g(float(t)), dudx0])
    return Trajectory(
        config=config,
        snapshots=tuple(states),
        boundary_series=np.array(series),
        grad_sq_series=np.zeros(len(states)),
        step_log=np.diff(np.asarray(times, dtype=float)),
    )


class TestBumpFamily:
    def test_single_bump_peaks_at_center(self):
        (phi,) = make_bump_family((0.0, 1.0), (0.0, 1.0), (1, 1))
        ts = np.linspace(0, 1, 101)
        xs = np.linspace(0, 1, 101)
        vals = phi.phi(ts, xs)
        assert vals.min() >= 0.0
        assert phi.phi(np.array([0.5]), np.array([0.5]))[0, 0] == 1.0
        assert vals.max() <= 1.0

    def test_family_counts_and_edge_members(self):
        fam = make_bump_family((0.0, 1.0), (0.0, 10.0), (3, 3))
        assert len(fam) == 9
        # first time-tile and first space-tile touch the axes with value 1
        corner = fam[0]
        assert corner.phi(np.array([0.0]), np.array([0.0]))[0, 0] == 1.0
        interior = fam[4]
        assert interior.phi(np.array([0.0]), np.array([0.0]))[0, 0] == 0.0

    def test_time_derivative_integrates_to_zero_interior(self):
        fam = make_bump_family((0.0, 1.0), (0.0, 1.0), (3, 3))
        phi = fam[4]  # interior in both axes
        ts = np.linspace(0, 1, 2001)
        xs = np.linspace(0, 1, 201)
        dphi = phi.dphi_dt(ts, xs)
        integral = np.trapezoid(np.trapezoid(dphi, ts, axis=0), xs)
        assert abs(integral) < 1e-6

    def test_mass_against_closed_form(self):
        # integral of (1-z^2)^3 over [-1,1] is 32/35; tensor bump mass is the
        # product of the per-axis values scaled by the half-widths
        phi = make_bump_family((0.0, 1.0), (0.0, 2.0), (1, 1))[0]
        ts = np.linspace(0, 1, 2001)
        xs = np.linspace(0, 2, 2001)
        mass = np.trapezoid(np.trapezoid(phi.phi(ts, xs), ts, axis=0), xs)
        expected = (32.0 / 35.0) * 0.5 * (32.0 / 35.0) * 1.0
        assert mass == pytest.approx(expected, abs=1e-6)

    def test_counts_validated(self):
        with pytest.raises(ValueError):
            make_bump_family((0.0, 1.0), (0.0, 1.0), (0, 3))


class TestTrace:
    def test_zero_trajectory(self):
        grid = make_uniform_grid(10.0, 32)
        times = [0.0, 0.5, 1.0]
        traj = synthetic_trajectory(
            grid, times, [np.zeros(33)] * 3, BoundaryData.zero()
        )
        trace = extract_trace(traj)
        assert np.all(trace == 0.0)

    def test_constant_trajectory(self):
        grid = make_uniform_grid(10.0, 32)
        k = 0.7
        times = [0.0, 0.5, 1.0]
        g = BoundaryData(g=lambda t: k, sup_bound=k)
        traj = synthetic_trajectory(
            grid, times, [np.full(33, k)] * 3, g
        )
        trace = extract_trace(traj)
        assert np.allclose(trace, k)

    def test_viscosity_sequence_trace_cauchy(self, s1_spec):
        # Cauchy contraction of the trace series sets in once the viscous
        # boundary layer sqrt(eps*t) drops below the node spacing; the
        # ladder below sits in that asymptotic regime for dx = 0.02.
        from conftest import rescale_scenario

        spec = rescale_scenario(s1_spec, 500)
        traces = []
        for eps in (1e-3, 3e-4, 1e-4):
            config = replace(spec.config, eps=eps)
            traj = run(spec.initial, spec.boundary, config)
            traces.append(extract_trace(traj))
        t = traj.times
        d1 = np.trapezoid(np.abs(traces[0] - traces[1]), t)
        d2 = np.trapezoid(np.abs(traces[1] - traces[2]), t)
        assert d2 <= d1 * 1.1


class TestEntropyResidual:
    def zero_traj(self, n=64):
        grid = make_uniform_grid(10.0, n)
        times = np.linspace(0.0, 1.0, 11)
        return synthetic_trajectory(
            grid, times, [np.zeros(n + 1)] * len(times), BoundaryData.zero()
        )

    def test_zero_state_zero_constant(self):
        traj = self.zero_traj()
        phi = make_bump_family((0.0, 1.0), (0.0, 10.0), (1, 1))[0]
        r = entropy_residual(traj, 0.0, phi, extract_trace(traj))
        assert r == 0.0

    def test_zero_state_unit_constant_interior_bump(self):
        # all terms collapse to the space-time divergence of phi, which
        # vanishes for compactly supported interior bumps up to quadrature
        traj = self.zero_traj(n=512)
        fam = make_bump_family((0.0, 1.0), (0.0, 10.0), (3, 3))
        phi = fam[4]
        r = entropy_residual(traj, 1.0, phi, extract_trace(traj))
        assert abs(r) < 5e-3

    def test_support_validation(self):
        traj = self.zero_traj()
        phi = SeparableBump(
            pt=BumpProfile(0.0, 2.0), px=BumpProfile(0.0, 5.0)
        )  # extends past final_time = 1
        with pytest.raises(ValueError):
            entropy_residual(traj, 0.0, phi, extract_trace(traj))

    def test_trace_alignment_validated(self):
        traj = self.zero_traj()
        phi = make_bump_family((0.0, 1.0), (0.0, 10.0), (1, 1))[0]
        with pytest.raises(ValueError, match="trace"):
            entropy_residual(traj, 0.0, phi, np.zeros(2))

    def test_reduces_to_weak_form_below_minimum(self, s1_traj):
        # for c under the global minimum the Kruzhkov residual differs from
        # the plain weak-form residual only through exact FTC defect terms;
        # evaluate the identity with the same quadrature weights
        grid = s1_traj.config.grid
        fam = make_bump_family((0.0, 1.0), (0.0, 10.0), (3, 3))
        phi = fam[4]
        trace = extract_trace(s1_traj)

        m = min(float(np.min(s.u.values)) for s in s1_traj.snapshots)
        m = min(m, float(np.min(s1_traj.boundary_series[:, 1])))

        times = np.array([s.t for s in s1_traj.snapshots])
        xs = grid.nodes
        wt = np.zeros_like(times)
        dt = np.diff(times)
        wt[:-1] += 0.5 * dt
        wt[1:] += 0.5 * dt
        wx = np.full_like(xs, grid.dx)
        wx[0] *= 0.5
        wx[-1] *= 0.5
        W = np.outer(wt, wx)
        # discrete FTC defects of the quadrature (nonzero, but c-independent)
        A = np.sum(W * phi.dphi_dt(times, xs)) + np.sum(
            wx * phi.phi(np.array([0.0]), xs)[0]
        )
        B = np.sum(W * phi.dphi_dx(times, xs)) + np.sum(
            wt * phi.phi(times, np.array([0.0]))[:, 0]
        )
        U = np.stack([s.u.values for s in s1_traj.snapshots])
        P = np.stack([s.P.values for s in s1_traj.snapshots])
        weak = (
            np.sum(W * (U * phi.dphi_dt(times, xs) + U**3 * phi.dphi_dx(times, xs)))
            + np.sum(W * P * phi.phi(times, xs))
            + np.sum(wt * trace**3 * phi.phi(times, np.array([0.0]))[:, 0])
            + np.sum(wx * s1_traj.initial.u.values * phi.phi(np.array([0.0]), xs)[0])
        )
        for c in (m - 0.5, m - 1.5):
            r = entropy_residual(s1_traj, c, phi, trace)
            assert r == pytest.approx(weak - c * A - c**3 * B, rel=1e-9, abs=1e-9)

    def test_tolerance_formula(self, s1_traj):
        fam = make_bump_family((0.0, 1.0), (0.0, 10.0), (3, 3))
        phi = fam[0]
        tol = entropy_tolerance(phi, s1_traj)
        dx = s1_traj.config.grid.dx
        times = np.array([s.t for s in s1_traj.snapshots])
        dt = float(np.max(np.diff(times)))
        xs = s1_traj.config.grid.nodes
        scale = max(
            float(np.max(np.abs(phi.phi(times, xs)))),
            float(np.max(np.abs(phi.dphi_dt(times, xs)))),
            float(np.max(np.abs(phi.dphi_dx(times, xs)))),
        )
        assert tol == pytest.approx(10.0 * (dx + dt) * scale, rel=1e-12)
        assert tol > 0.0


def full_grid_residual(traj, g, c, phi, trace):
    """The inequality's left-hand side summed over every snapshot-grid point,
    with the same global trapezoid weights as the support-box quadrature;
    the boundary datum ``g`` is evaluated at each snapshot time."""
    grid = traj.config.grid
    times = np.array([s.t for s in traj.snapshots])
    xs = grid.nodes
    U = np.stack([s.u.values for s in traj.snapshots])
    wt = np.zeros_like(times)
    dt = np.diff(times)
    wt[:-1] += 0.5 * dt
    wt[1:] += 0.5 * dt
    wx = np.full_like(xs, grid.dx)
    wx[0] *= 0.5
    wx[-1] *= 0.5
    W = np.outer(wt, wx)
    sgn = np.sign(U - c)
    interior = np.sum(
        W * (np.abs(U - c) * phi.dphi_dt(times, xs)
             + sgn * (U**3 - c**3) * phi.dphi_dx(times, xs))
    )
    source = 0.0
    if traj.config.include_source:
        P = np.stack([s.P.values for s in traj.snapshots])
        source = np.sum(W * sgn * P * phi.phi(times, xs))
    g_vals = np.array([g(t) for t in times])
    boundary = np.sum(
        wt * np.sign(g_vals - c) * (trace**3 - c**3)
        * phi.phi(times, np.array([0.0]))[:, 0]
    )
    initial = np.sum(
        wx * np.abs(traj.initial.u.values - c) * phi.phi(np.array([0.0]), xs)[0]
    )
    return float(interior + source + boundary + initial)


def full_grid_tolerance(phi, traj):
    times = np.array([s.t for s in traj.snapshots])
    xs = traj.config.grid.nodes
    dt_snap = float(np.max(np.diff(times)))
    scale = max(
        float(np.max(np.abs(phi.phi(times, xs)))),
        float(np.max(np.abs(phi.dphi_dt(times, xs)))),
        float(np.max(np.abs(phi.dphi_dx(times, xs)))),
    )
    return 10.0 * (traj.config.grid.dx + dt_snap) * scale


@functools.cache
def box_trajectory():
    """Signed, sourced, unevenly sampled data with a nonzero boundary datum
    (n = 300, 17 snapshot times): the trajectory, its g and its trace."""
    grid = make_uniform_grid(6.0, 300)
    rng = np.random.default_rng(11)
    times = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, 15)), [1.0]))
    xs = grid.nodes
    profiles = [
        np.sin(1.3 * xs - 2.0 * t) * np.exp(-0.3 * xs) + 0.2 * np.cos(4.0 * xs + t)
        for t in times
    ]
    g = BoundaryData(g=lambda t: 0.4 * math.cos(3.0 * t), sup_bound=0.4)
    traj = synthetic_trajectory(grid, times, profiles, g, eps=0.01)
    return traj, g, extract_trace(traj)


class TestSupportBoxQuadrature:
    """The residual and the tolerance sum over each bump's support box only;
    the points left out hold exact zeros of phi, phi_t and phi_x."""

    @given(
        c=st.floats(-1.5, 1.5),
        kt=st.integers(1, 6),
        kx=st.integers(1, 6),
        t_end=st.floats(0.3, 1.0),
        x_end=st.floats(1.0, 6.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_full_grid_quadrature(self, c, kt, kx, t_end, x_end):
        traj, g, trace = box_trajectory()
        times = np.array([s.t for s in traj.snapshots])
        xs = traj.config.grid.nodes
        # edge tiles start on t = 0 and x = 0; every other tile edge lies
        # off the snapshot times and the nodes
        t_edges = np.arange(1, kt + 1) * (t_end / kt)
        x_edges = np.arange(1, kx + 1) * (x_end / kx)
        assume(np.min(np.abs(times[:, None] - t_edges)) > 1e-9)
        assume(np.min(np.abs(xs[:, None] - x_edges)) > 1e-9)
        family = make_bump_family((0.0, t_end), (0.0, x_end), (kt, kx))
        for phi in family:
            ref = full_grid_residual(traj, g, c, phi, trace)
            r = entropy_residual(traj, c, phi, trace)
            assert abs(r - ref) <= 1e-13 * (1.0 + abs(ref))
            assert entropy_tolerance(phi, traj) == full_grid_tolerance(phi, traj)

    @given(
        constants=st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=8),
        kt=st.integers(1, 6),
        kx=st.integers(1, 6),
        t_end=st.floats(0.3, 1.0),
        x_end=st.floats(1.0, 6.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_constant_vector_matches_full_grid_quadrature(
        self, constants, kt, kx, t_end, x_end
    ):
        # one pass over a bump evaluates every constant; each entry is the
        # full-grid quadrature, and exactly the one-constant residual
        traj, g, trace = box_trajectory()
        family = make_bump_family((0.0, t_end), (0.0, x_end), (kt, kx))
        for phi in family:
            rs = entropy_table(traj, constants, [phi], trace)[0][0]
            assert rs.shape == (len(constants),)
            for c, r in zip(constants, rs):
                ref = full_grid_residual(traj, g, c, phi, trace)
                assert abs(r - ref) <= 1e-13 * (1.0 + abs(ref))
                assert entropy_residual(traj, c, phi, trace) == r

    @pytest.mark.parametrize("name, spec", [("s1_traj", "s1_spec"),
                                            ("riemann_traj", "riemann_spec")],
                             ids=["s1_traj", "riemann_traj"])
    def test_tile_edges_on_grid_points(self, request, name, spec):
        # the command line's tiling of [0, T] x [0, L] puts tile edges on
        # snapshot times and nodes, up to rounding
        traj = request.getfixturevalue(name)
        g = request.getfixturevalue(spec).boundary
        trace = extract_trace(traj)
        family = make_bump_family(
            (0.0, traj.config.final_time), (0.0, traj.config.grid.length), (5, 5)
        )
        for phi in family:
            assert entropy_tolerance(phi, traj) == full_grid_tolerance(phi, traj)
            for c in (-0.4, 0.0, 0.7):
                ref = full_grid_residual(traj, g, c, phi, trace)
                r = entropy_residual(traj, c, phi, trace)
                assert abs(r - ref) <= 1e-13 * (1.0 + abs(ref))

    def test_pulse_boundary_read_at_snapshot_rows(self, s2_traj, s2_spec):
        # s2 takes many steps between snapshots and its pulse g varies in
        # time, so a snapshot's row in the per-step series is not its index
        traj = s2_traj
        assert not np.array_equal(traj.snapshot_rows, np.arange(len(traj.snapshots)))
        trace = extract_trace(traj)
        sup_u = max(float(np.max(np.abs(s.u.values))) for s in traj.snapshots)
        constants = np.linspace(-sup_u, sup_u, 5)
        family = make_bump_family(
            (0.0, traj.config.final_time), (0.0, traj.config.grid.length), (3, 3)
        )
        for phi in family:
            rs = entropy_table(traj, constants, [phi], trace)[0][0]
            for c, r in zip(constants, rs):
                ref = full_grid_residual(traj, s2_spec.boundary, c, phi, trace)
                assert abs(r - ref) <= 1e-13 * (1.0 + abs(ref))


#: the values of a lattice trajectory's u and g: many entries tie with each
#: other and with constants drawn from the same values
LATTICE = np.arange(-4, 5) / 4.0


def lattice_trajectory(seed, n, count, include_source):
    """u and g drawn from LATTICE at ``count`` snapshot times on [0, 1]: the
    trajectory, its g and its trace."""
    rng = np.random.default_rng(seed)
    grid = make_uniform_grid(3.0, n)
    times = np.linspace(0.0, 1.0, count)
    profiles = list(rng.choice(LATTICE, size=(count, n + 1)))
    g_at = dict(zip(times.tolist(), rng.choice(LATTICE, size=count).tolist()))
    g = BoundaryData(g=lambda t: g_at[t], sup_bound=1.0)
    traj = synthetic_trajectory(
        grid, times, profiles, g, eps=0.01, include_source=include_source
    )
    return traj, g, extract_trace(traj)


class TestSortedSums:
    """Every constant's residual comes from one sort of the box, of g and
    of u0; each equals the per-constant quadrature, ties included."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(8, 40),
        count=st.integers(3, 9),
        include_source=st.booleans(),
        constants=st.lists(
            st.one_of(st.sampled_from(LATTICE.tolist()), st.floats(-1.2, 1.2)),
            min_size=1, max_size=10,
        ),
        counts=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_constant_loop(
        self, seed, n, count, include_source, constants, counts
    ):
        traj, g, trace = lattice_trajectory(seed, n, count, include_source)
        # below and above every value of u, g and u0
        constants = [-1.5, *constants, 1.5]
        for phi in make_bump_family((0.0, 1.0), (0.0, 3.0), counts):
            rs = entropy_table(traj, constants, [phi], trace)[0][0]
            assert rs.shape == (len(constants),)
            for c, r in zip(constants, rs):
                ref = full_grid_residual(traj, g, c, phi, trace)
                assert abs(r - ref) <= 1e-13 * (1.0 + abs(ref))

    def test_many_constants_in_memory_linear_in_box_and_constants(self):
        traj, g, trace = box_trajectory()
        # the corner tile: interior, boundary and initial terms all count
        phi = make_bump_family((0.0, 1.0), (0.0, 6.0), (2, 2))[0]
        constants = np.linspace(-1.5, 1.5, 20000)
        tracemalloc.start()
        try:
            rs = entropy_table(traj, constants, [phi], trace)[0][0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for k in range(0, len(constants), 401):
            ref = full_grid_residual(traj, g, constants[k], phi, trace)
            assert abs(rs[k] - ref) <= 1e-13 * (1.0 + abs(ref))
        rows = _cover(traj.times, *phi.t_support)
        cols = _cover(traj.config.grid.nodes, *phi.x_support)
        box = traj.times[rows].size * traj.config.grid.nodes[cols].size
        assert peak < 8 * len(constants) * box  # one float per constant and point
        assert peak < 64 * 8 * (len(constants) + box)


def assert_table_matches_per_bump(traj, constants, bumps, trace):
    """A family's ``entropy_table`` is, row by row and bit for bit, the
    one-bump tables of its members."""
    residuals, tolerances = entropy_table(traj, constants, bumps, trace)
    assert residuals.shape == (len(bumps), len(constants))
    assert tolerances.shape == (len(bumps),)
    for k, phi in enumerate(bumps):
        row, tolerance = entropy_table(traj, constants, [phi], trace)
        assert np.array_equal(residuals[k], row[0])
        assert tolerances[k] == tolerance[0] == entropy_tolerance(phi, traj)


class TestEntropyTable:
    """One pass over a tiling: each profile evaluated once on its box gives
    the same numbers as each bump on its own."""

    @pytest.mark.parametrize("counts", [(1, 1), (3, 3), (5, 5)], ids=str)
    @pytest.mark.parametrize("name", ["riemann_traj", "s1_traj", "s2_traj"])
    def test_matches_per_bump_on_runs(self, request, name, counts):
        # riemann is source-free, s1 sourced, s2 has a pulse boundary datum
        traj = request.getfixturevalue(name)
        trace = extract_trace(traj)
        sup_u = max(float(np.max(np.abs(s.u.values))) for s in traj.snapshots)
        bumps = make_bump_family(
            (0.0, traj.config.final_time), (0.0, traj.config.grid.length), counts
        )
        assert_table_matches_per_bump(traj, np.linspace(-sup_u, sup_u, 13), bumps, trace)

    @given(
        constants=st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=8),
        kt=st.integers(1, 6),
        kx=st.integers(1, 6),
        t_end=st.floats(0.3, 1.0),
        x_end=st.floats(1.0, 6.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_per_bump_off_the_grid(self, constants, kt, kx, t_end, x_end):
        traj, _, trace = box_trajectory()
        times = np.array([s.t for s in traj.snapshots])
        xs = traj.config.grid.nodes
        t_edges = np.arange(1, kt + 1) * (t_end / kt)
        x_edges = np.arange(1, kx + 1) * (x_end / kx)
        assume(np.min(np.abs(times[:, None] - t_edges)) > 1e-9)
        assume(np.min(np.abs(xs[:, None] - x_edges)) > 1e-9)
        family = make_bump_family((0.0, t_end), (0.0, x_end), (kt, kx))
        assert_table_matches_per_bump(traj, constants, family, trace)

    def test_equal_profiles_on_both_axes(self):
        # on a square tiling a time profile equals a space profile; each
        # is still evaluated on its own axis's points
        traj, _, trace = box_trajectory()
        family = make_bump_family((0.0, 1.0), (0.0, 1.0), (3, 3))
        assert {phi.pt for phi in family} == {phi.px for phi in family}
        assert_table_matches_per_bump(traj, [-0.3, 0.0, 0.5], family, trace)


def shock_trajectory(left, right, speed):
    """A jump from ``left`` to ``right`` at x = 0.5 + speed * t of the
    source-free cubic conservation law, on n = 2000, L = 10 and 21 levels in
    [0, 0.2], with g equal to the left state."""
    grid = make_uniform_grid(10.0, 2000)
    times = np.linspace(0.0, 0.2, 21)
    config = SolverConfig(
        eps=0.0, grid=grid, final_time=float(times[-1]), scheme="explicit",
        snapshot_times=tuple(times), include_source=False,
    )
    states = []
    for t in times:
        u = Field(grid, np.where(grid.nodes < 0.5 + speed * t, left, right))
        states.append(State(t=float(t), u=u, P=cumulative_primitive(u)))
    return Trajectory(
        config=config, snapshots=tuple(states),
        boundary_series=np.array([[s.t, left, 0.0] for s in states]),
        grad_sq_series=np.zeros(len(states)),
        step_log=np.diff(times),
    )


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the snapshot-resolution quadrature and its sup-norm tolerance "
           "accept these shocks (ROADMAP item 2)",
)
@pytest.mark.parametrize("left, right, speed", [
    (0.0, 1.0, 1.0),  # meets Rankine-Hugoniot, but the characteristics diverge
    (1.0, 0.0, 2.0),  # breaks Rankine-Hugoniot (the speed is 1)
    (1.0, 0.0, 0.0),  # a standing jump, also against Rankine-Hugoniot
], ids=["0|1-speed-1", "1|0-speed-2", "1|0-standing"])
def test_wrong_shock_is_rejected(left, right, speed):
    traj = shock_trajectory(left, right, speed)
    trace = extract_trace(traj)
    constants = np.linspace(-1.0, 1.0, 13)
    for counts in ((3, 3), (5, 5), (5, 20)):
        bumps = make_bump_family((0.0, 0.2), (0.0, 10.0), counts)
        residuals, tolerances = entropy_table(traj, constants, bumps, trace)
        assert np.any(residuals < -tolerances[:, None]), f"accepted at {counts}"
