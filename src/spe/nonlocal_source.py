"""The running primitive of the solution.

The source term of the integro-differential formulation is the primitive
P(t,x) = int_0^x u(t,y) dy, pinned by P(t,0) = 0.
"""

from __future__ import annotations

from .fields import Field, _running_trapezoid

__all__ = ["cumulative_primitive"]


def cumulative_primitive(u: Field) -> Field:
    """Running trapezoidal integral of u from 0; the result vanishes at x=0.

    The discrete fundamental theorem holds exactly:
    (P[i+1] - P[i]) / dx == (u[i] + u[i+1]) / 2.
    By telescoping, P(L) is the trapezoidal integral of u over [0, L] up to
    summation order.
    """
    return Field(u.grid, _running_trapezoid(u.values, u.grid.dx))
