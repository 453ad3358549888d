"""Tests for the accuracy grid: case enumeration, materialization, the
cases on which the interpolation is exact, and the comparison runner."""

import csv
import dataclasses
import math
import re

import numpy as np
import pytest

from pollwait import (
    Discipline,
    InvalidInput,
    Method,
    NumericalBudget,
    TestBedCase,
    materialize_case,
    poisson_bed,
    sampled_bed,
    standard_bed,
)
from pollwait import testbed
from pollwait.sim import SimConfig, simulate
from pollwait.testbed import (
    FACETS,
    ErrorRecord,
    ErrorReport,
    high_variation_poisson_bed,
    report_from_csv,
    report_tables,
    report_to_csv,
    run_comparison,
    summary_lines,
    write_report_files,
)

from _exact import exact_mean_wait
from _helpers import (
    EXACT_REL_TOL,
    exact_cases,
    interpolation_error,
    mean_abs_error,
    poisson_case_errors,
    preset_spec,
)

EXH = Discipline.EXHAUSTIVE
GAT = Discipline.GATED


def test_standard_bed_shape_and_order():
    cases = standard_bed()
    assert len(cases) == 2304
    assert cases[0] == TestBedCase(2, 0.1, 0.25, 0.25, 0.25, 1.0, 1.0, 1.0)
    # The innermost axis is the switch-over/service ratio.
    assert cases[1] == TestBedCase(2, 0.1, 0.25, 0.25, 0.25, 1.0, 1.0, 5.0)
    assert cases[-1] == TestBedCase(5, 0.99, 2.0, 1.0, 1.0, 5.0, 5.0, 5.0)
    for n in (2, 3, 4, 5):
        assert sum(1 for c in cases if c.n_queues == n) == 576


def test_poisson_bed():
    cases = poisson_bed()
    assert len(cases) == 768
    assert all(c.scv_interarrival == 1.0 for c in cases)


def test_high_variation_bed():
    cases = high_variation_poisson_bed()
    assert len(cases) == 768
    assert cases[0] == TestBedCase(2, 0.1, 1.0, 2.0, 2.0, 1.0, 1.0, 1.0)
    assert cases[1] == TestBedCase(2, 0.1, 1.0, 2.0, 2.0, 1.0, 1.0, 5.0)
    assert cases[-1] == TestBedCase(5, 0.99, 1.0, 5.0, 5.0, 5.0, 5.0, 5.0)
    assert all(c.scv_interarrival == 1.0 for c in cases)
    assert {c.scv_service for c in cases} == {2.0, 5.0}
    assert {c.scv_switchover for c in cases} == {2.0, 5.0}


def test_sampled_bed():
    cases = sampled_bed()
    assert len(cases) == 80
    assert cases[0] == TestBedCase(2, 0.1, 0.25, 0.25, 1.0, 5.0, 1.0, 1.0)
    # The innermost axis is the service scv.
    assert cases[1] == TestBedCase(2, 0.1, 0.25, 1.0, 1.0, 5.0, 1.0, 1.0)
    assert cases[-1] == TestBedCase(5, 0.9, 2.0, 1.0, 1.0, 5.0, 1.0, 1.0)
    assert all(c.scv_interarrival in (0.25, 2.0) for c in cases)
    assert all(c.rho <= 0.9 for c in cases)
    assert all(c.imbalance_interarrival == 5.0 for c in cases)
    for n in (2, 3, 4, 5):
        assert sum(1 for c in cases if c.n_queues == n) == 20


def test_case_validation():
    with pytest.raises(InvalidInput, match="n_queues must be >= 1"):
        TestBedCase(0, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(InvalidInput, match="rho must be in"):
        TestBedCase(2, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    fitted = r"must be 0 or in \[1e-15, 1e\+06\] to be fitted, got"
    with pytest.raises(InvalidInput, match=f"scv_interarrival {fitted} -1.0"):
        TestBedCase(2, 0.5, -1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(InvalidInput, match=f"scv_service {fitted} 1e-30"):
        TestBedCase(2, 0.5, 1.0, 1e-30, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(InvalidInput, match="imbalance ratios must be >= 1"):
        TestBedCase(2, 0.5, 1.0, 1.0, 1.0, 0.5, 1.0, 1.0)
    with pytest.raises(InvalidInput, match="switchover_service_ratio must be positive"):
        TestBedCase(2, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0)
    with pytest.raises(InvalidInput, match="imbalance_interarrival must be finite"):
        TestBedCase(2, 0.5, 1.0, 1.0, 1.0, math.inf, 1.0, 1.0)


def test_case_field_types():
    # An integer type for n_queues, numbers (not bools) for the rest.
    with pytest.raises(InvalidInput, match="n_queues must be an integer, got 2.5"):
        TestBedCase(2.5, 0.5, 1, 1, 1, 1, 1, 1)
    with pytest.raises(InvalidInput, match="n_queues must be an integer, got True"):
        TestBedCase(True, 0.5, 1, 1, 1, 1, 1, 1)
    with pytest.raises(InvalidInput, match="rho must be a number, got '0.5'"):
        TestBedCase(2, "0.5", 1, 1, 1, 1, 1, 1)
    with pytest.raises(InvalidInput, match="scv_service must be a number, got True"):
        TestBedCase(2, 0.5, 1, True, 1, 1, 1, 1)
    case = TestBedCase(np.int64(2), 0.5, 1, 1, 1, 1, 1, 1)
    assert case == TestBedCase(2, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    assert type(case.n_queues) is int and type(case.scv_service) is float


def test_materialize_five_queue_case():
    case = TestBedCase(5, 0.7, 1.0, 0.25, 1.0, 5.0, 5.0, 2.0)
    spec = materialize_case(case, EXH)
    assert spec.n == 5
    assert spec.discipline is EXH
    assert math.isclose(spec.rho, 0.7, rel_tol=1e-12)
    # Arrival rates fall linearly from 5/3 to 1/3 (ratio 5, mean 1), and
    # mean service times are 3 * i * rho / 35 for i = 1..5.
    rates = [spec.rho / q.mean_interarrival_at_saturation for q in spec.queues]
    np.testing.assert_allclose(rates, [5 / 3, 4 / 3, 1.0, 2 / 3, 1 / 3], rtol=1e-12)
    services = [q.mean_service for q in spec.queues]
    np.testing.assert_allclose(
        services, [3 * i * 0.7 / 35 for i in range(1, 6)], rtol=1e-12
    )
    for q in spec.queues:
        assert q.mean_switchover == 2.0 * q.mean_service
        assert q.scv_service == 0.25
        assert q.scv_switchover == 1.0
    assert math.isclose(sum(q.load_fraction for q in spec.queues), 1.0, rel_tol=1e-12)


@pytest.mark.parametrize("imbalance_interarrival", [1.0, 5.0])
def test_materialize_one_queue_case(imbalance_interarrival):
    # One queue carries the whole load; neither imbalance has a second
    # queue to apply to.
    case = TestBedCase(1, 0.4, 2.0, 0.5, 0.25, imbalance_interarrival, 5.0, 3.0)
    spec = materialize_case(case, GAT)
    (queue,) = spec.queues
    assert spec.rho == 0.4 and spec.discipline is GAT
    assert queue.mean_service == queue.mean_interarrival_at_saturation == 0.4
    assert queue.mean_switchover == 3.0 * 0.4
    assert (queue.scv_interarrival, queue.scv_service, queue.scv_switchover) == (
        2.0,
        0.5,
        0.25,
    )


@pytest.mark.parametrize("imbalance", [1e16, 1e308])
@pytest.mark.parametrize("n", [2, 5])
def test_materialize_rejects_a_rate_spread_that_cancels(n, imbalance):
    # The case is valid, but its spread rounds the last rate to zero
    # (1e16), or to nan through an infinite step (1e308).
    case = TestBedCase(n, 0.5, 1.0, 1.0, 1.0, imbalance, 1.0, 1.0)
    message = f"imbalance_interarrival {imbalance!r} is too large for {n} queues"
    with pytest.raises(InvalidInput, match=re.escape(message)):
        materialize_case(case)


@pytest.mark.parametrize(
    "case, message",
    [
        (
            TestBedCase(8, 0.5, 1, 1, 1, 1, 1.7e308, 1),
            "imbalance_service 1.7e+308 is too large for 8 queues",
        ),
        (
            TestBedCase(
                2,
                0.524896213036376,
                1,
                1,
                1,
                163244138285300.4,
                8.041801326244722e299,
                1.3435607606310264e298,
            ),
            "switchover_service_ratio 1.3435607606310264e+298 is out of range",
        ),
        (
            TestBedCase(2, 5e-324, 0, 0, 0, 1, 1, 1),
            "rho 5e-324 is too small for 2 queues with imbalance_service 1.0",
        ),
        (
            TestBedCase(2, 0.5, 1, 1, 1, 1, 1, 5e-324),
            "switchover_service_ratio 5e-324 is out of range",
        ),
    ],
    ids=["service", "switchover", "small-rho", "small-switchover"],
)
def test_materialize_names_the_field_out_of_range(case, message):
    # The sum of rate times unscaled service or a mean switch-over time
    # overflows, or a mean service or switch-over time underflows; the
    # error names the case's field, not a queue's.
    with pytest.raises(InvalidInput, match=re.escape(message)):
        materialize_case(case)


def test_materialize_balanced_case_is_symmetric():
    case = TestBedCase(3, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    spec = materialize_case(case, GAT)
    assert spec.discipline is GAT
    fractions = {q.load_fraction for q in spec.queues}
    assert len(fractions) == 1


@pytest.mark.parametrize(
    "bed, counts, asymmetric_cases",
    [
        (standard_bed, (193, 192), [TestBedCase(2, 0.1, 1.0, 1.0, 1.0, 5.0, 1.0, 5.0)]),
        (high_variation_poisson_bed, (192, 192), []),
    ],
    ids=["standard", "high-variation"],
)
def test_exact_cases_of_the_poisson_beds(bed, counts, asymmetric_cases):
    cases = bed()
    exhaustive = exact_cases(bed, EXH)
    gated = exact_cases(bed, GAT)
    assert (len(exhaustive), len(gated)) == counts
    # Off the exact cases the interpolation is clearly off, not borderline.
    for discipline in (EXH, GAT):
        errors = poisson_case_errors(bed, discipline).values()
        assert min(e for e in errors if e > EXACT_REL_TOL) >= 1e-6
    # Gated exactness needs full symmetry; exhaustive service admits one
    # imbalanced two-queue case on the standard bed, where the load meets a
    # balance condition between rate imbalance and switch-over/service ratio.
    asymmetric = [
        i
        for i in exhaustive
        if (cases[i].imbalance_interarrival, cases[i].imbalance_service) != (1.0, 1.0)
    ]
    assert [cases[i] for i in asymmetric] == asymmetric_cases
    assert set(gated) == set(exhaustive) - set(asymmetric)


def _case_error(case, discipline):
    spec = materialize_case(case, discipline)
    return interpolation_error(spec, exact_mean_wait(spec))


def test_two_queue_exact_constraint():
    special = TestBedCase(2, 0.1, 1.0, 1.0, 1.0, 5.0, 1.0, 5.0)
    assert _case_error(special, EXH) < EXACT_REL_TOL
    assert _case_error(special, GAT) >= 1e-4
    # Move any ingredient of the constraint and exactness is lost.
    for wrong in (
        TestBedCase(2, 0.3, 1.0, 1.0, 1.0, 5.0, 1.0, 5.0),
        TestBedCase(2, 0.1, 1.0, 1.0, 1.0, 5.0, 5.0, 5.0),
        TestBedCase(3, 0.1, 1.0, 1.0, 1.0, 5.0, 1.0, 5.0),
    ):
        assert _case_error(wrong, EXH) >= 1e-4
    # Non-Poisson arrivals have no exact solve to compare with.
    bursty = materialize_case(TestBedCase(2, 0.1, 0.25, 1.0, 1.0, 5.0, 1.0, 5.0))
    with pytest.raises(InvalidInput, match="needs Poisson arrivals"):
        exact_mean_wait(bursty)


SMOKE_CFG = SimConfig(
    warmup_cycles=200,
    measured_cycles=1_000,
    replications=2,
    base_seed=5,
    batch_count=10,
    max_events=10_000_000,
)

SMOKE_CASES = [
    TestBedCase(2, 0.3, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
    TestBedCase(2, 0.5, 2.0, 0.25, 1.0, 5.0, 1.0, 1.0),
]


def test_run_comparison_smoke():
    report = run_comparison(
        SMOKE_CASES,
        (Method.INTERPOLATION, Method.LT_ONLY),
        EXH,
        cfg=SMOKE_CFG,
        base_seed=42,
        jobs=1,
    )
    assert report.discipline is EXH
    assert report.methods == (Method.INTERPOLATION, Method.LT_ONLY)
    assert len(report.records) == 2 * 2 * 2
    for r in report.records:
        assert r.case_index in (0, 1)
        assert r.case == SMOKE_CASES[r.case_index]
        assert r.oracle > 0.0
        assert math.isfinite(r.approx)
        assert math.isclose(r.rel_err, (r.approx - r.oracle) / r.oracle)
    assert set(r.queue for r in report.records) == {0, 1}


def test_run_comparison_is_deterministic_across_workers():
    kwargs = dict(cfg=SMOKE_CFG, base_seed=42)
    serial = run_comparison(SMOKE_CASES, (Method.INTERPOLATION,), EXH, jobs=1, **kwargs)
    again = run_comparison(SMOKE_CASES, (Method.INTERPOLATION,), EXH, jobs=1, **kwargs)
    pooled = run_comparison(SMOKE_CASES, (Method.INTERPOLATION,), EXH, jobs=2, **kwargs)
    assert serial.records == again.records
    assert serial.records == pooled.records


def test_run_comparison_auto_config():
    # Without a fixed config each case is sized from the target sample
    # count; a small target keeps this fast.
    report = run_comparison(
        SMOKE_CASES[:1],
        (Method.INTERPOLATION,),
        EXH,
        base_seed=7,
        jobs=1,
        target_customers=5_000,
        replications=2,
    )
    assert len(report.records) == 2
    for r in report.records:
        assert math.isfinite(r.rel_err)


def test_run_comparison_rejects_repeated_methods():
    methods = (Method.INTERPOLATION, Method.LT_ONLY, Method.INTERPOLATION)
    with pytest.raises(InvalidInput, match="methods must not repeat"):
        run_comparison(SMOKE_CASES, methods, EXH, cfg=SMOKE_CFG, jobs=1)


@pytest.mark.parametrize(
    "setting, value",
    [
        ("target_customers", float("nan")),
        ("target_customers", True),
        ("replications", 2.0),
        ("base_seed", 1.5),
        ("jobs", 1.5),
    ],
)
def test_run_comparison_rejects_non_integer_settings(monkeypatch, setting, value):
    def no_simulation(*args):
        raise AssertionError("a case ran")

    monkeypatch.setattr(testbed, "_run_case", no_simulation)
    kwargs = {"jobs": 1, setting: value}
    with pytest.raises(InvalidInput, match=f"{setting} must be an integer"):
        run_comparison(SMOKE_CASES[:2], (Method.INTERPOLATION,), EXH, **kwargs)


def test_run_comparison_takes_string_values(tmp_path):
    members = run_comparison(
        SMOKE_CASES, (Method.INTERPOLATION,), GAT, cfg=SMOKE_CFG, jobs=1
    )
    strings = run_comparison(
        SMOKE_CASES, ["interpolation"], "gated", cfg=SMOKE_CFG, jobs=1
    )
    assert strings.discipline is GAT
    assert strings.methods == (Method.INTERPOLATION,)
    assert strings.records == members.records
    written = write_report_files(strings, str(tmp_path / "strings"))
    expected = write_report_files(members, str(tmp_path / "members"))
    assert len(written) == len(expected)
    for path, other in zip(written, expected):
        with open(path) as got, open(other) as want:
            assert got.read() == want.read()


@pytest.mark.parametrize(
    "methods, discipline, message",
    [
        (["interpolation"], "bogus", "discipline must be one of .* got 'bogus'"),
        (["bogus"], EXH, "method must be one of .* got 'bogus'"),
        ([None], EXH, "method must be one of .* got None"),
        ([Method.INTERPOLATION, "interpolation"], EXH, "methods must not repeat"),
        (
            "interpolation",
            EXH,
            "methods must be a sequence of methods, got 'interpolation'",
        ),
        ([], EXH, "methods must name at least one method"),
    ],
    ids=["discipline", "method", "no-method", "repeat", "string", "empty"],
)
def test_run_comparison_rejects_bad_choices_before_running(
    monkeypatch, methods, discipline, message
):
    def no_simulation(*args):
        raise AssertionError("a case ran")

    monkeypatch.setattr(testbed, "_run_case", no_simulation)
    with pytest.raises(InvalidInput, match=message):
        run_comparison(SMOKE_CASES[:2], methods, discipline, jobs=1)


def test_every_case_simulates_under_its_own_seed():
    # README: every simulation derives its seed from the case index, under
    # fixed and automatic run lengths alike.
    sizes = dict(target_customers=5_000, replications=2)
    for cfg in (SMOKE_CFG, None):
        report = run_comparison(
            SMOKE_CASES, (Method.INTERPOLATION,), GAT, cfg, base_seed=9, jobs=1, **sizes
        )
        for index, case in enumerate(SMOKE_CASES):
            spec = materialize_case(case, GAT)
            sized = testbed._auto_config(spec, **sizes) if cfg is None else cfg
            seeded = dataclasses.replace(sized, base_seed=testbed._case_seed(9, index))
            estimate = simulate(spec, seeded)
            records = [r for r in report.records if r.case_index == index]
            assert [(r.oracle, r.oracle_ci_half_width) for r in records] == list(
                zip(estimate.mean_wait, estimate.ci_half_width)
            )


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_case_that_cannot_be_built_fails_before_any_simulation(monkeypatch, jobs):
    # Every case is built before the first one runs, so no case is
    # simulated and no worker pool is started.
    calls = []

    def record(*args):
        calls.append(args)
        return simulate(*args)

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(testbed, "simulate", record)
    monkeypatch.setattr("multiprocessing.Pool", no_pool)
    bad = TestBedCase(2, 0.5, 1.0, 1.0, 1.0, 1e16, 1.0, 1.0)
    with pytest.raises(InvalidInput, match="imbalance_interarrival"):
        run_comparison(
            [*SMOKE_CASES, bad], (Method.INTERPOLATION,), EXH, cfg=SMOKE_CFG, jobs=jobs
        )
    assert calls == []


def test_a_case_over_its_budget_fails_before_any_simulation(monkeypatch):
    # The budget is a per-case decision of the preparation loop: case 1's
    # refusal names it, and case 0, within its budget, never runs.
    def no_simulation(*args):
        raise AssertionError("a case ran")

    monkeypatch.setattr(testbed, "_run_case", no_simulation)
    cases = [
        TestBedCase(2, 0.5, 1, 1, 1, 1, 1, 1),
        TestBedCase(2, 0.999, 1, 1, 1, 1, 1, 1),
    ]
    cfg = SimConfig(
        warmup_cycles=1000,
        measured_cycles=100_000,
        replications=3,
        batch_count=10,
        max_events=10**7,
    )
    with pytest.raises(NumericalBudget, match=r"^cases\[1\]: run expects about "):
        run_comparison(cases, ["interpolation"], EXH, cfg, jobs=1)


NO_CASE_RUN = dict(methods=["lt-only", Method.INTERPOLATION], discipline="gated")


@pytest.mark.parametrize(
    "bad",
    [
        dict(discipline="bogus"),
        dict(methods="lt-only"),
        dict(methods=[]),
        dict(methods=["bogus"]),
        dict(methods=["lt-only", Method.LT_ONLY]),
        dict(replications=0),
        dict(target_customers=0),
        dict(target_customers=2.5),
        dict(base_seed=-1),
        dict(jobs=0),
    ],
    ids=[
        "discipline",
        "string",
        "empty",
        "method",
        "repeat",
        "replications",
        "target-customers",
        "non-integer",
        "seed",
        "jobs",
    ],
)
def test_a_run_of_no_cases_checks_every_setting(monkeypatch, bad):
    # pollwait testbed checks its flags this way before it creates --out.
    def no_simulation(*args):
        raise AssertionError("a case ran")

    monkeypatch.setattr(testbed, "_run_case", no_simulation)
    with pytest.raises(InvalidInput):
        run_comparison([], **{**NO_CASE_RUN, **bad})


def test_a_run_of_no_cases_returns_an_empty_report(monkeypatch):
    def no_simulation(*args):
        raise AssertionError("a case ran")

    monkeypatch.setattr(testbed, "_run_case", no_simulation)
    report = run_comparison([], **NO_CASE_RUN)
    assert report == ErrorReport(GAT, (Method.LT_ONLY, Method.INTERPOLATION), [])


def synthetic_report(cases_and_errors=None):
    if cases_and_errors is None:
        case = TestBedCase(2, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        errors = (0.049, 0.05, 0.099, 0.10, 0.15, 0.21)
        cases_and_errors = [(case, e) for e in errors]
    records = [
        ErrorRecord(
            case_index=i,
            case=case,
            discipline=EXH,
            queue=0,
            method=Method.INTERPOLATION,
            approx=1.0 + e,
            oracle=1.0,
            oracle_ci_half_width=0.01,
            rel_err=e,
            flagged=False,
        )
        for i, (case, e) in enumerate(cases_and_errors)
    ]
    return ErrorReport(
        discipline=EXH, methods=(Method.INTERPOLATION,), records=records
    )


def test_bin_table_edges():
    tables = report_tables(synthetic_report(), Method.INTERPOLATION)
    _, rows, _ = tables["errors_binned"]
    shares = rows[2]
    np.testing.assert_allclose(
        shares, (100 / 6, 2 * 100 / 6, 100 / 6, 100 / 6, 100 / 6), rtol=1e-12
    )
    assert math.isclose(sum(shares), 100.0, rel_tol=1e-12)


def test_mean_abs_error_and_facets():
    report = synthetic_report()
    assert math.isclose(
        mean_abs_error(report, Method.INTERPOLATION),
        100.0 * (0.049 + 0.05 + 0.099 + 0.10 + 0.15 + 0.21) / 6,
        rel_tol=1e-12,
    )
    assert math.isclose(
        mean_abs_error(report, Method.INTERPOLATION, lambda r: r.rel_err > 0.1),
        100.0 * (0.15 + 0.21) / 2,
        rel_tol=1e-12,
    )
    assert math.isnan(mean_abs_error(report, Method.HT_ONLY))
    columns, rows, _ = report_tables(report, Method.INTERPOLATION)[
        "mean_error_by_load"
    ]
    assert columns == ["0.5"] and list(rows) == [2]


def test_csv_round_trip(tmp_path):
    report = run_comparison(
        SMOKE_CASES,
        (Method.INTERPOLATION, Method.LT_ONLY),
        GAT,
        cfg=SMOKE_CFG,
        base_seed=9,
        jobs=1,
    )
    path = tmp_path / "records.csv"
    report_to_csv(report, str(path))
    with open(path, newline="") as handle:
        assert handle.readline() == (
            "case_index,n_queues,rho,scv_interarrival,scv_service,"
            "scv_switchover,imbalance_interarrival,imbalance_service,"
            "switchover_service_ratio,discipline,queue,method,approx,oracle,"
            "oracle_ci_half_width,rel_err,flagged\r\n"
        )
    reloaded = report_from_csv(str(path))
    assert reloaded.discipline is GAT
    assert reloaded.methods == report.methods
    assert reloaded.records == report.records


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda rows: [["x", "y"], *rows[1:]], "line 1: not a report_to_csv"),
        (
            lambda rows: [*rows[:2], ["x", *rows[2][1:]], *rows[3:]],
            "line 3: invalid literal",
        ),
        (lambda rows: [*rows[:2], rows[2][:-1], *rows[3:]], "line 3: zip"),
        (
            lambda rows: [*rows[:2], [*rows[2][:4], "nan", *rows[2][5:]], *rows[3:]],
            "line 3: scv_service must be finite, got nan",
        ),
        (
            lambda rows: [*rows[:2], [*rows[2][:4], "1e-30", *rows[2][5:]], *rows[3:]],
            r"line 3: scv_service must be 0 or in \[1e-15, 1e\+06\] to be "
            "fitted, got 1e-30",
        ),
        (
            lambda rows: [*rows, [*rows[-1][:9], "gated", *rows[-1][10:]]],
            "line 8: discipline gated after exhaustive records",
        ),
    ],
    ids=["header", "cell", "short-row", "nan", "unfittable-scv", "mixed-disciplines"],
)
def test_report_from_csv_rejects_malformed_file(tmp_path, mutate, message):
    path = tmp_path / "records.csv"
    report_to_csv(synthetic_report(), str(path))
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerows(mutate(rows))
    with pytest.raises(InvalidInput, match=f"^{path}: {message}"):
        report_from_csv(str(path))


def test_report_from_csv_rejects_header_only_file(tmp_path):
    path = tmp_path / "records.csv"
    report_to_csv(synthetic_report(), str(path))
    path.write_text(path.read_text().splitlines()[0] + "\n")
    with pytest.raises(InvalidInput, match=f"^no records in {path}$"):
        report_from_csv(str(path))


def test_write_report_files(tmp_path):
    report = synthetic_report()
    written = write_report_files(report, str(tmp_path))
    names = {p.split("/")[-1] for p in written}
    assert "raw_records.csv" in names
    assert "summary.txt" in names
    assert "errors_binned_interpolation.txt" in names
    assert "errors_binned_interpolation.csv" in names
    assert "mean_error_by_load_interpolation.csv" in names
    for path in written:
        with open(path) as handle:
            assert handle.read().strip()
    lines = summary_lines(report)
    assert lines[0] == "discipline: exhaustive"
    assert any("interpolation" in line for line in lines)


def test_report_tables_take_a_method_or_its_value():
    report = synthetic_report()
    expected = report_tables(report, Method.INTERPOLATION)
    assert report_tables(report, "interpolation") == expected
    with pytest.raises(InvalidInput, match="method must be one of .* got 'bogus'"):
        report_tables(report, "bogus")


def test_report_tables_reject_a_method_the_report_lacks():
    # The report holds only the interpolation's records.
    message = r"method 'lt-only' is not in the report, which holds \['interpolation'\]"
    for method in (Method.LT_ONLY, "lt-only"):
        with pytest.raises(InvalidInput, match=message):
            report_tables(synthetic_report(), method)


def test_render_tables(tmp_path):
    write_report_files(synthetic_report(), str(tmp_path))
    binned = (tmp_path / "errors_binned_interpolation.txt").read_text()
    assert "0-5%" in binned and "20%+" in binned
    by_load = (tmp_path / "mean_error_by_load_interpolation.txt").read_text()
    assert "queues" in by_load and "0.5" in by_load


def test_report_rows_and_columns_in_numeric_order(tmp_path):
    # Text order would put N=10 before N=2 and scv 10.0 before 2.0.
    cases_and_errors = [
        (TestBedCase(n, 0.5, scv, 1.0, 1.0, 1.0, 1.0, 1.0), 0.01 * n * scv)
        for n in (10, 2)
        for scv in (10.0, 2.0)
    ]
    report = synthetic_report(cases_and_errors)
    write_report_files(report, str(tmp_path))
    summary = (tmp_path / "summary.txt").read_text()
    assert summary.index("N=2:") < summary.index("N=10:")
    stems = [
        "errors_binned",
        "mean_error_by_load",
        "mean_error_by_interarrival_scv",
        "mean_error_by_imbalance",
    ]
    for stem in stems:
        csv_text = (tmp_path / f"{stem}_interpolation.csv").read_text()
        _, *rows = csv_text.splitlines()
        assert [row.split(",")[0] for row in rows] == ["2", "10"], stem
    scv_csv = tmp_path / "mean_error_by_interarrival_scv_interpolation.csv"
    header, *rows = scv_csv.read_text().splitlines()
    assert header == "queues,2.0,10.0"
    values = [[float(v) for v in row.split(",")[1:]] for row in rows]
    np.testing.assert_allclose(values, [[4.0, 20.0], [20.0, 100.0]], rtol=1e-12)


def test_table_csvs_parse_into_rows_of_equal_width(tmp_path):
    # An imbalance label such as "(5.0, 1.0)" holds a comma, so it is
    # quoted.
    cases_and_errors = [
        (TestBedCase(2, 0.5, 1.0, 1.0, 1.0, imbalance, 1.0, 1.0), 0.05)
        for imbalance in (1.0, 5.0)
    ]
    written = write_report_files(synthetic_report(cases_and_errors), str(tmp_path))
    tables = [
        path
        for path in written
        if path.endswith(".csv") and not path.endswith("raw_records.csv")
    ]
    assert len(tables) == 1 + len(FACETS)
    for path in tables:
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert len({len(row) for row in rows}) == 1, path
    imbalance = tmp_path / "mean_error_by_imbalance_interpolation.csv"
    with open(imbalance, newline="") as handle:
        assert next(csv.reader(handle)) == ["queues", "(1.0, 1.0)", "(5.0, 1.0)"]


def test_three_queue_demo_spec():
    spec = preset_spec("three-queue", 0.7)
    assert spec.rho == 0.7
    assert spec.discipline is EXH
    np.testing.assert_allclose(
        [q.load_fraction for q in spec.queues], (0.1, 0.3, 0.6), rtol=1e-12
    )
    for q in spec.queues:
        assert q.mean_service == 1.0 and q.scv_service == 1.0
        assert q.mean_switchover == 1.0 and q.scv_switchover == 1.0
        assert q.scv_interarrival == 3.0


def test_two_queue_small_switchover_spec():
    spec = preset_spec("small-switchover", 0.5, GAT)
    assert spec.discipline is GAT
    np.testing.assert_allclose(
        [q.load_fraction for q in spec.queues], (5 / 6, 1 / 6), rtol=1e-12
    )
    for q in spec.queues:
        assert math.isclose(q.mean_switchover / q.mean_service, 0.2, rel_tol=1e-12)
