"""Tests for the accuracy grid: case enumeration, materialization,
exact-case detection and the comparison runner."""

import csv
import math

import numpy as np
import pytest

from pollwait import (
    Discipline,
    InvalidInput,
    Method,
    TestBedCase,
    is_exact_case,
    materialize_case,
    poisson_bed,
    sampled_bed,
    standard_bed,
    three_queue_demo_spec,
)
from pollwait.sim import SimConfig
from pollwait.testbed import (
    ErrorRecord,
    ErrorReport,
    high_variation_poisson_bed,
    report_from_csv,
    report_tables,
    report_to_csv,
    run_comparison,
    summary_lines,
    two_queue_small_switchover_spec,
    write_report_files,
)

from _helpers import mean_abs_error

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
    with pytest.raises(InvalidInput, match="scv_interarrival must be >= 0"):
        TestBedCase(2, 0.5, -1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
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


def test_materialize_one_queue_case():
    # One queue carries the whole load; the service imbalance has no
    # second queue to apply to.
    case = TestBedCase(1, 0.4, 2.0, 0.5, 0.25, 1.0, 5.0, 3.0)
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


def test_materialize_balanced_case_is_symmetric():
    case = TestBedCase(3, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    spec = materialize_case(case, GAT)
    assert spec.discipline is GAT
    fractions = {q.load_fraction for q in spec.queues}
    assert len(fractions) == 1


def test_exact_case_detection_on_standard_bed():
    cases = standard_bed()
    exhaustive = [i for i, case in enumerate(cases) if is_exact_case(case, EXH)]
    gated = [i for i, case in enumerate(cases) if is_exact_case(case, GAT)]
    assert len(exhaustive) == 193
    assert len(gated) == 192
    assert all(cases[i].scv_interarrival == 1.0 for i in exhaustive)
    # Gated exactness needs full symmetry; exhaustive admits exactly one
    # imbalanced two-queue case where the load hits the balance constraint.
    asymmetric = [i for i in exhaustive if cases[i].imbalance_interarrival != 1.0]
    assert len(asymmetric) == 1
    special = cases[asymmetric[0]]
    assert special == TestBedCase(2, 0.1, 1.0, 1.0, 1.0, 5.0, 1.0, 5.0)
    assert set(gated) == set(exhaustive) - set(asymmetric)


def test_two_queue_exact_constraint():
    special = TestBedCase(2, 0.1, 1.0, 1.0, 1.0, 5.0, 1.0, 5.0)
    assert is_exact_case(special, EXH)
    assert not is_exact_case(special, GAT)
    # Move any ingredient of the constraint and exactness is lost.
    for wrong in (
        TestBedCase(2, 0.3, 1.0, 1.0, 1.0, 5.0, 1.0, 5.0),
        TestBedCase(2, 0.1, 0.25, 1.0, 1.0, 5.0, 1.0, 5.0),
        TestBedCase(2, 0.1, 1.0, 1.0, 1.0, 5.0, 5.0, 5.0),
        TestBedCase(3, 0.1, 1.0, 1.0, 1.0, 5.0, 1.0, 5.0),
    ):
        assert not is_exact_case(wrong, EXH)


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
            lambda rows: [*rows, [*rows[-1][:9], "gated", *rows[-1][10:]]],
            "line 8: discipline gated after exhaustive records",
        ),
    ],
    ids=["header", "cell", "short-row", "nan", "mixed-disciplines"],
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


def test_three_queue_demo_spec():
    spec = three_queue_demo_spec(0.7)
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
    spec = two_queue_small_switchover_spec(0.5, GAT)
    assert spec.discipline is GAT
    np.testing.assert_allclose(
        [q.load_fraction for q in spec.queues], (5 / 6, 1 / 6), rtol=1e-12
    )
    for q in spec.queues:
        assert math.isclose(q.mean_switchover / q.mean_service, 0.2, rel_tol=1e-12)
