"""The package's public names, pinned so that any change shows in a diff."""

import argparse
import importlib.util
import pathlib

import pytest

import pollwait
from pollwait import approx, cli, fitting, testbed

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
    "derive_moments",
    "fit_two_moments",
    "materialize_case",
    "mean_wait",
    "pcl_residual",
    "pcl_rhs",
    "poisson_bed",
    "run_comparison",
    "sample_array",
    "sampled_bed",
    "scale_to_load",
    "simulate",
    "standard_bed",
]


def test_package_public_names():
    assert sorted(pollwait.__all__) == PUBLIC_NAMES


# Each subcommand's settable values, in the order of its help: the
# positional argument by name, then the option strings.
COMMAND_LINE = {
    "analyze": [
        "spec", "--preset", "--discipline", "--rho", "--method", "--format",
    ],
    "sweep": [
        "spec", "--preset", "--discipline", "--rho-grid", "--methods",
        "--with-sim", "--sim-cycles", "--sim-reps", "--seed", "--max-events",
        "--out",
    ],
    "simulate": [
        "spec", "--preset", "--discipline", "--rho", "--cycles", "--warmup",
        "--reps", "--seed", "--batches", "--max-events",
    ],
    "testbed": [
        "--discipline", "--subset", "--out", "--methods", "--jobs", "--seed",
        "--target-samples", "--reps",
    ],
    "demo-spec": ["--preset"],
}


def test_command_line_options():
    parser = cli._build_parser()
    (commands,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    surface = {
        name: [
            flag
            for action in sub._actions
            if not isinstance(action, argparse._HelpAction)
            for flag in action.option_strings or [action.dest]
        ]
        for name, sub in commands.choices.items()
    }
    assert surface == COMMAND_LINE


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
        "high_variation_poisson_bed",
        "materialize_case",
        "poisson_bed",
        "report_from_csv",
        "report_tables",
        "report_to_csv",
        "run_comparison",
        "sampled_bed",
        "standard_bed",
        "summary_lines",
        "write_report_files",
    ]


def test_fitting_exports_what_the_model_and_simulator_use():
    assert sorted(fitting.__all__) == [
        "DistKind",
        "FittedDistribution",
        "fit_two_moments",
        "sample_array",
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


def test_bench_tracer_wraps_names_that_exist():
    # The benchmark's tracer replaces module attributes by name on entry
    # and restores them on exit; a rename in the package breaks it.
    root = pathlib.Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "_bench_tracer", root / "bench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    before = [getattr(module, attr) for module, attr, _ in tracer.WRAPPED]
    with tracer.Tracer() as t:
        cli.main(["demo-spec"])
    assert [getattr(module, attr) for module, attr, _ in tracer.WRAPPED] == before
    assert t.spans[0][tracer.NAME] == "cli.demo-spec"
