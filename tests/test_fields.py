"""Grid, field, and norm tests.

Expected values for the quadrature operations come from an independent
dense-quadrature oracle (trapezoid at one million cells) or from closed
forms; the frozen numbers below were produced by that oracle.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spe.fields import Field, lp_norm, make_uniform_grid, mean, windowed_l1

GRID16 = make_uniform_grid(2.5, 16)


def dense_quadrature(fn, lo, hi, power=1, cells=1_000_000):
    """Reference integrator, independent of the Field code path."""
    xs = np.linspace(lo, hi, cells + 1)
    return float(np.trapezoid(np.abs(fn(xs)) ** power, xs))


def field_on(grid, fn):
    return Field(grid, fn(grid.nodes))


fields16 = hnp.arrays(
    np.float64,
    GRID16.node_count,
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


class TestGrid:
    def test_nodes_quarter_grid(self):
        g = make_uniform_grid(1.0, 4)
        assert np.array_equal(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_spacing(self):
        g = make_uniform_grid(100.0, 2000)
        assert g.dx == pytest.approx(0.05, abs=0)

    def test_single_cell_rejected(self):
        with pytest.raises(ValueError):
            make_uniform_grid(1.0, 1)

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ValueError):
            make_uniform_grid(0.0, 4)
        with pytest.raises(ValueError):
            make_uniform_grid(-2.0, 4)

    def test_node_invariants(self):
        g = make_uniform_grid(7.3, 123)
        nodes = g.nodes
        assert nodes[0] == 0.0
        assert nodes[-1] == pytest.approx(g.length, abs=1e-15)
        assert np.all(np.diff(nodes) > 0)
        assert g.dx * g.cell_count == pytest.approx(g.length, rel=1e-15)
        # computed once per grid and shared read-only
        assert g.nodes is nodes
        with pytest.raises(ValueError):
            nodes[1] = 0.0


class TestField:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Field(GRID16, np.zeros(3))

    def test_nonfinite_rejected(self):
        vals = np.zeros(GRID16.node_count)
        vals[3] = np.nan
        with pytest.raises(ValueError):
            Field(GRID16, vals)

    def test_values_read_only(self):
        f = Field(GRID16, np.zeros(GRID16.node_count))
        with pytest.raises(ValueError):
            f.values[0] = 1.0


class TestLpNorm:
    @pytest.mark.parametrize("p", [1, 2, 4, math.inf])
    def test_zero_field(self, p):
        assert lp_norm(Field(GRID16, np.zeros(GRID16.node_count)), p) == 0.0

    def test_constant_exact(self):
        g = make_uniform_grid(1.0, 10)
        f = field_on(g, lambda x: np.full_like(x, 2.0))
        assert lp_norm(f, 2) == pytest.approx(2.0, abs=1e-15)

    def test_linear_against_dense_oracle(self):
        # oracle value: dense trapezoid of x^2 on [0,1] at 1e6 cells
        oracle = math.sqrt(dense_quadrature(lambda x: x, 0.0, 1.0, power=2))
        assert oracle == pytest.approx(0.5773502691897701, abs=1e-10)
        g4 = make_uniform_grid(1.0, 4)
        coarse = lp_norm(field_on(g4, lambda x: x), 2)
        assert coarse == pytest.approx(oracle, abs=1e-2)
        # second-order quadrature: two levels of refinement shrink the error
        g64 = make_uniform_grid(1.0, 64)
        fine = lp_norm(field_on(g64, lambda x: x), 2)
        assert abs(fine - oracle) < abs(coarse - oracle) / 100.0

    def test_unsupported_exponent(self):
        with pytest.raises(ValueError):
            lp_norm(Field(GRID16, np.zeros(GRID16.node_count)), 3)

    @given(fields16)
    @settings(max_examples=50)
    def test_l1_dominated_by_l2(self, vals):
        f = Field(GRID16, vals)
        lhs = lp_norm(f, 1)
        rhs = math.sqrt(GRID16.length) * lp_norm(f, 2)
        assert lhs <= rhs * (1.0 + 1e-12)

    @given(fields16, st.floats(-100, 100, allow_nan=False))
    @settings(max_examples=50)
    def test_scaling_homogeneity(self, vals, c):
        f = Field(GRID16, vals)
        scaled = Field(GRID16, c * vals)
        for p in (1, 2, 4, math.inf):
            assert lp_norm(scaled, p) == pytest.approx(
                abs(c) * lp_norm(f, p), rel=1e-12, abs=1e-12
            )


class TestWindowedL1:
    def test_constant_half_window(self):
        g = make_uniform_grid(1.0, 10)
        f = field_on(g, lambda x: np.ones_like(x))
        assert windowed_l1(f, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_zero_field(self):
        assert windowed_l1(Field(GRID16, np.zeros(GRID16.node_count)), 1.0) == 0.0

    def test_cut_between_nodes_linear_exact(self):
        # analytic oracle: int_0^0.6 x dx = 0.18; the cut at 0.6 falls
        # mid-cell on the 4-cell grid and on a node on the 5-cell grid
        for n in (4, 5):
            g = make_uniform_grid(1.0, n)
            f = field_on(g, lambda x: x)
            assert windowed_l1(f, 0.6) == pytest.approx(0.18, abs=1e-12)

    def test_window_bounds(self):
        f = Field(GRID16, np.zeros(GRID16.node_count))
        for bad in (0.0, -1.0, GRID16.length + 0.1):
            with pytest.raises(ValueError):
                windowed_l1(f, bad)

    @given(fields16)
    @settings(max_examples=50)
    def test_full_window_equals_l1(self, vals):
        f = Field(GRID16, vals)
        assert windowed_l1(f, GRID16.length) == lp_norm(f, 1)


class TestMean:
    def test_zero(self):
        assert mean(Field(GRID16, np.zeros(GRID16.node_count))) == 0.0

    def test_bump_derivative_telescopes(self):
        from spe.scenarios import preset_initial

        g = make_uniform_grid(10.0, 200)
        u0 = preset_initial("bump-derivative", {"a": 1.0, "x0": 2.0, "sigma": 1.0}, g)
        assert abs(mean(u0)) <= 1e-14

    def test_sine_against_dense_oracle(self):
        oracle = dense_quadrature(lambda x: np.sin(np.pi * x), 0.0, 1.0)
        assert oracle == pytest.approx(2.0 / math.pi, abs=1e-10)
        g = make_uniform_grid(1.0, 1000)
        f = field_on(g, lambda x: np.sin(np.pi * x))
        assert mean(f) == pytest.approx(oracle, abs=1e-6)

    @given(fields16, fields16, st.floats(-50, 50), st.floats(-50, 50))
    @settings(max_examples=50)
    def test_linearity(self, fa, fb, a, b):
        combo = Field(GRID16, a * fa + b * fb)
        expected = a * mean(Field(GRID16, fa)) + b * mean(Field(GRID16, fb))
        scale = max(1.0, abs(expected))
        assert mean(combo) == pytest.approx(expected, abs=1e-9 * scale)
