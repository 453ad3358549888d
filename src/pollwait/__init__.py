"""Waiting-time analysis for cyclic polling systems.

Closed-form mean waiting-time estimators for a single server attending
queues in cyclic order with switch-over times, renewal arrivals and
exhaustive or gated service, plus a discrete-event simulator and a grid
runner to validate them.
"""

from types import ModuleType as _ModuleType

from .approx import (
    InterpolationConstants,
    Method,
    WaitingTimeResult,
    mean_wait,
    pcl_residual,
    pcl_rhs,
)
from .errors import InvalidInput, NumericalBudget, PollingModelError
from .fitting import (
    DistKind,
    FittedDistribution,
    fit_two_moments,
    sample_array,
)
from .model import (
    DensityMode,
    DerivedMoments,
    Discipline,
    QueueSpec,
    SystemSpec,
    derive_moments,
    scale_to_load,
)
from .sim import SimConfig, SimEstimate, simulate
from .testbed import (
    ErrorRecord,
    ErrorReport,
    TestBedCase,
    materialize_case,
    poisson_bed,
    run_comparison,
    sampled_bed,
    standard_bed,
)

__version__ = "0.1.0"

# Every name imported above is public, and so is the version.
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]
