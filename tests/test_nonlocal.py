"""Primitive construction and its far-field value P(L).

The analytic antiderivative evaluated directly on the nodes serves as the
oracle: sin -> 1 - cos.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spe.fields import Field, cumulative_primitive, make_uniform_grid, mean

GRID12 = make_uniform_grid(3.0, 12)

fields12 = hnp.arrays(
    np.float64,
    GRID12.node_count,
    elements=st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False),
)


class TestCumulativePrimitive:
    def test_zero(self):
        P = cumulative_primitive(Field(GRID12, np.zeros(GRID12.node_count)))
        assert np.all(P.values == 0.0)

    def test_constant_gives_identity_exactly(self):
        g = make_uniform_grid(1.0, 8)
        P = cumulative_primitive(Field(g, np.ones(g.node_count)))
        assert np.allclose(P.values, g.nodes, atol=1e-15)

    def test_sine_against_antiderivative_oracle(self):
        g = make_uniform_grid(math.pi, 1000)
        u = Field(g, np.sin(g.nodes))
        P = cumulative_primitive(u)
        oracle = 1.0 - np.cos(g.nodes)
        assert np.max(np.abs(P.values - oracle)) < 5e-6

    def test_starts_at_zero(self):
        P = cumulative_primitive(Field(GRID12, np.random.default_rng(0).normal(size=GRID12.node_count)))
        assert P.values[0] == 0.0

    @given(fields12)
    @settings(max_examples=50)
    def test_discrete_fundamental_theorem(self, vals):
        u = Field(GRID12, vals)
        P = cumulative_primitive(u).values
        dx = GRID12.dx
        lhs = (P[1:] - P[:-1]) / dx
        rhs = 0.5 * (vals[:-1] + vals[1:])
        scale = 1.0 + np.max(np.abs(vals))
        assert np.allclose(lhs, rhs, atol=1e-9 * scale)

    @given(fields12)
    @settings(max_examples=50)
    def test_discrete_lipschitz_bound(self, vals):
        u = Field(GRID12, vals)
        P = cumulative_primitive(u).values
        sup = np.max(np.abs(vals))
        dx = GRID12.dx
        x = GRID12.nodes
        for i in range(0, GRID12.node_count, 3):
            for j in range(i + 1, GRID12.node_count, 4):
                bound = sup * (x[j] - x[i]) + dx * sup
                assert abs(P[j] - P[i]) <= bound * (1.0 + 1e-12) + 1e-300

    @given(fields12, fields12, st.floats(-20, 20), st.floats(-20, 20))
    @settings(max_examples=50)
    def test_linearity(self, fa, fb, a, b):
        combo = cumulative_primitive(Field(GRID12, a * fa + b * fb)).values
        parts = (
            a * cumulative_primitive(Field(GRID12, fa)).values
            + b * cumulative_primitive(Field(GRID12, fb)).values
        )
        scale = 1.0 + np.max(np.abs(parts))
        assert np.allclose(combo, parts, atol=1e-9 * scale)


class TestFarField:
    def test_zero_mean_preset_vanishes(self):
        from spe.scenarios import preset_initial

        g = make_uniform_grid(10.0, 400)
        u0 = preset_initial("bump-derivative", {"a": 1.0, "x0": 2.0, "sigma": 1.0}, g)
        P = cumulative_primitive(u0)
        assert abs(P.values[-1]) <= 1e-12

    def test_constant_one(self):
        g = make_uniform_grid(1.0, 16)
        P = cumulative_primitive(Field(g, np.ones(g.node_count)))
        assert P.values[-1] == pytest.approx(1.0, abs=1e-14)

    def test_sine_matches_mean(self):
        g = make_uniform_grid(1.0, 1000)
        u = Field(g, np.sin(np.pi * g.nodes))
        P = cumulative_primitive(u)
        assert P.values[-1] == pytest.approx(2.0 / math.pi, abs=1e-5)
        # telescoping: agrees with the trapezoidal mean up to summation order
        assert P.values[-1] == pytest.approx(mean(u), abs=1e-12)
