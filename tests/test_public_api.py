"""The package's public names, pinned so that any change shows in a diff."""

import pollwait
from pollwait import approx

PUBLIC_NAMES = [
    "DegenerateLoad",
    "DensityMode",
    "DerivedMoments",
    "Discipline",
    "DistKind",
    "ErrorRecord",
    "ErrorReport",
    "FittedDistribution",
    "InterpolationConstants",
    "InvalidMoment",
    "LoadOutOfRange",
    "Method",
    "NumericalBudget",
    "PollingModelError",
    "QueueSpec",
    "SimConfig",
    "SimEstimate",
    "SpecFileError",
    "SystemSpec",
    "TestBedCase",
    "UnnormalizedLoads",
    "WaitingTimeResult",
    "ZeroLoad",
    "ZeroTotalSwitchover",
    "__version__",
    "density_at_zero",
    "density_at_zero_two_moment_approx",
    "derive_moments",
    "detect_exact_cases",
    "exact_density_mode",
    "fit_two_moments",
    "is_exact_case",
    "materialize_case",
    "mean_wait",
    "pcl_residual",
    "pcl_rhs",
    "poisson_bed",
    "realized_moments",
    "run_comparison",
    "sample_array",
    "sampled_bed",
    "scale_to_load",
    "simulate",
    "standard_bed",
    "three_queue_demo_spec",
]


def test_package_public_names():
    assert sorted(pollwait.__all__) == PUBLIC_NAMES


def test_closed_forms_have_one_estimator_entry_point():
    assert sorted(approx.__all__) == [
        "InterpolationConstants",
        "Method",
        "WaitingTimeResult",
        "mean_wait",
        "pcl_residual",
        "pcl_rhs",
    ]
