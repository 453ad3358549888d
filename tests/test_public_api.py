"""The package's public names, pinned so that any change shows in a diff."""

import pytest

import pollwait
from pollwait import approx, testbed

PUBLIC_NAMES = [
    "DensityMode",
    "DerivedMoments",
    "Discipline",
    "DistKind",
    "ErrorRecord",
    "ErrorReport",
    "FittedDistribution",
    "InterpolationConstants",
    "InvalidInput",
    "Method",
    "NumericalBudget",
    "PollingModelError",
    "QueueSpec",
    "SimConfig",
    "SimEstimate",
    "SystemSpec",
    "TestBedCase",
    "WaitingTimeResult",
    "__version__",
    "density_at_zero",
    "density_at_zero_two_moment_approx",
    "derive_moments",
    "detect_exact_cases",
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


def test_report_tables_replace_the_table_helpers():
    assert sorted(testbed.__all__) == [
        "ErrorRecord",
        "ErrorReport",
        "TestBedCase",
        "detect_exact_cases",
        "high_variation_poisson_bed",
        "is_exact_case",
        "materialize_case",
        "poisson_bed",
        "report_from_csv",
        "report_tables",
        "report_to_csv",
        "run_comparison",
        "sampled_bed",
        "standard_bed",
        "three_queue_demo_spec",
        "two_queue_small_switchover_spec",
        "write_report_files",
    ]


@pytest.mark.parametrize(
    "module",
    [
        "pollwait",
        "pollwait.approx",
        "pollwait.errors",
        "pollwait.fitting",
        "pollwait.model",
        "pollwait.sim",
        "pollwait.testbed",
    ],
)
def test_star_import_resolves_every_public_name(module):
    # A star import raises AttributeError on any name in __all__ that the
    # module does not define.
    exec(f"from {module} import *", {})
