"""Running primitives of the solution and their far-field values.

The source term of the integro-differential formulation is the primitive
P(t,x) = int_0^x u(t,y) dy, pinned by P(t,0) = 0.  Its own primitive
F(t,x) = int_0^x P(t,y) dy enters the far-field bookkeeping: along exact
viscous solutions the limit of F at infinity equals
eps * du/dx(t,0) - g(t)^3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import Field

__all__ = [
    "PrimitivePair",
    "cumulative_primitive",
    "second_primitive",
    "far_field_P",
    "far_field_F_identity_residual",
]


def _running_trapezoid(
    values: np.ndarray, dx: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Running trapezoid of ``values`` from 0, written into ``out`` (allocated
    when None); ``out`` must not alias ``values``."""
    if out is None:
        out = np.empty_like(values)
    out[0] = 0.0
    np.add(values[:-1], values[1:], out=out[1:])
    out[1:] *= 0.5 * dx
    np.cumsum(out[1:], out=out[1:])
    return out


def cumulative_primitive(u: Field) -> Field:
    """Running trapezoidal integral of u from 0; the result vanishes at x=0.

    The discrete fundamental theorem holds exactly:
    (P[i+1] - P[i]) / dx == (u[i] + u[i+1]) / 2.
    """
    return Field(u.grid, _running_trapezoid(u.values, u.grid.dx))


def second_primitive(P: Field) -> Field:
    """Running trapezoidal integral of P from 0 (the primitive of the primitive)."""
    return Field(P.grid, _running_trapezoid(P.values, P.grid.dx))


@dataclass(frozen=True)
class PrimitivePair:
    """The two nested primitives of a field, both pinned to 0 at x=0."""

    P: Field
    F: Field

    @classmethod
    def of(cls, u: Field) -> "PrimitivePair":
        P = cumulative_primitive(u)
        return cls(P=P, F=second_primitive(P))


def far_field_P(P: Field) -> float:
    """Value of P at the truncation point x=L.

    By telescoping of the running trapezoid this equals the trapezoidal mean
    of the underlying field, so it approximates lim_{x->inf} P.
    """
    return float(P.values[-1])


def far_field_F_identity_residual(
    u: Field, eps: float, g_value: float, boundary_gradient: float
) -> float:
    """|F(L) - (eps * du/dx(0) - g^3)| for the given state.

    Along exact viscous solutions of the half-line problem the two sides
    agree; on the truncated domain this is a measured residual, reported
    rather than asserted.
    """
    pair = PrimitivePair.of(u)
    expected = eps * boundary_gradient - g_value**3
    return abs(float(pair.F.values[-1]) - expected)
