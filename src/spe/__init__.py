"""Short pulse equation on the half-line: viscous solver plus a harness that
numerically certifies the conservation identities, a-priori bounds, entropy
inequality, and stability estimate of the underlying well-posedness theory."""

from .errors import BlowUpError, DataValidationError
from .fields import Field, Grid, lp_norm, make_uniform_grid, mean, windowed_l1
from .nonlocal_source import cumulative_primitive
from .scheme import (
    BoundaryData,
    SolverConfig,
    State,
    Trajectory,
    run,
    stable_dt,
    step,
)

__version__ = "0.1.0"

__all__ = [
    "BlowUpError",
    "BoundaryData",
    "DataValidationError",
    "Field",
    "Grid",
    "SolverConfig",
    "State",
    "Trajectory",
    "cumulative_primitive",
    "lp_norm",
    "make_uniform_grid",
    "mean",
    "run",
    "stable_dt",
    "step",
    "windowed_l1",
    "__version__",
]
