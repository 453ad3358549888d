"""Each output check of the benchmark fails when its input is off.

    PYTHONPATH=src python3 -m pytest bench

The independent reference values are first compared with the program's
own, then every check is shown to pass on real output and to fail on the
same output with one thing changed.
"""

import csv
import dataclasses
import io
import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pollwait  # noqa: E402
from pollwait import Discipline, SimConfig, cli, testbed  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402

DISCIPLINES = list(Discipline)


@pytest.mark.parametrize("discipline", DISCIPLINES)
@pytest.mark.parametrize("rho", [0.1, 0.5, 0.97])
def test_references_agree_with_the_program(discipline, rho):
    spec = workloads.symmetric_system(rho, discipline)
    exact = reference.symmetric_poisson_wait(spec)
    for w in pollwait.mean_wait(spec, pollwait.Method.INTERPOLATION).mean_wait:
        assert math.isclose(w, exact, rel_tol=1e-12)
    for build in (workloads.demo_system, workloads.five_queue_system):
        spec = build(rho, discipline)
        assert math.isclose(
            reference.pcl_rhs_from_fields(spec), pollwait.pcl_rhs(spec),
            rel_tol=1e-12,
        )


@pytest.fixture(scope="module")
def tight_estimate():
    # The long simulation that every simulating run checks.
    spec = workloads.symmetric_system(workloads.CHECK_RHO, Discipline.GATED)
    cfg = workloads.check_config(base_seed=3)
    return spec, cfg, pollwait.simulate(spec, cfg)


def sim_check(spec, cfg, est):
    return workloads.check_problems(spec, cfg, est)


def test_sim_check_passes_real_output(tight_estimate):
    assert sim_check(*tight_estimate) == []


@pytest.mark.parametrize(
    "change",
    [
        lambda e: {"mean_wait": tuple(1.05 * w for w in e.mean_wait)},
        lambda e: {"mean_wait": tuple(0.95 * w for w in e.mean_wait)},
        lambda e: {"realized_load": 1.05 * e.realized_load},
        lambda e: {
            "samples_per_queue": tuple(int(1.2 * c) for c in e.samples_per_queue),
            "samples": sum(int(1.2 * c) for c in e.samples_per_queue),
        },
        lambda e: {"samples": e.samples + 1},
        lambda e: {"replications": 2},
    ],
)
def test_sim_check_fails_when_output_is_off(tight_estimate, change):
    spec, cfg, est = tight_estimate
    assert sim_check(spec, cfg, dataclasses.replace(est, **change(est)))


def fake_op(label, simulates, problems=()):
    return workloads.Op(
        label=label,
        call=lambda: label,
        work=lambda output: 1,
        problems=lambda output: list(problems),
        dump=lambda output: {},
        latency_ms=lambda seconds: 1000.0 * seconds,
        simulates=simulates,
    )


@pytest.mark.parametrize("rounds", [1, 3])
def test_failed_check_fails_every_simulating_op(rounds):
    import worker

    workload = workloads.Workload(
        "fake", [fake_op("sim", True), fake_op("closed", False)], trace_rounds=1
    )
    tally = worker.Tally(workloads.digest)
    for _ in range(rounds):
        tally.add(workload, worker.call_round(workload))
    tally.check(fake_op("check", False, ["mean off"]))
    summary = tally.summary()
    assert (summary["attempted"], summary["failed"]) == (2 * rounds, rounds)
    assert summary["work"] == rounds
    assert summary["problems"][0] == ("sim", ["check: mean off"])


def test_run_reports_counts_when_every_op_fails():
    import worker

    workload = workloads.Workload("fake", [fake_op("sim", True, ["off"])], trace_rounds=1)
    tally = worker.Tally(workloads.digest)
    tally.add(workload, worker.call_round(workload))
    summary = tally.summary()
    assert (summary["attempted"], summary["failed"]) == (1, 1)
    assert math.isnan(summary["op_p50_ms"])


def bed_results(spec):
    return {
        m.value: pollwait.mean_wait(spec, m).mean_wait for m in pollwait.Method
    }


@pytest.mark.parametrize("discipline", DISCIPLINES)
def test_closed_form_check(discipline):
    cases = pollwait.poisson_bed()
    symmetric = next(
        c for c in cases if c.imbalance_interarrival == c.imbalance_service == 1.0
    )
    skewed = next(c for c in cases if c.imbalance_interarrival == 5.0)
    for case in (symmetric, skewed):
        spec = testbed.materialize_case(case, discipline)
        results = bed_results(spec)
        assert reference.closed_form_problems(spec, results) == []
        off = dict(results)
        off["interpolation"] = tuple(1.05 * w for w in results["interpolation"])
        assert reference.closed_form_problems(spec, off)
        off = dict(results, **{"lt-only": (math.nan,) * spec.n})
        assert reference.closed_form_problems(spec, off)
    # With equal loads, shifting wait between queues keeps the
    # conservation law; only the exact symmetric value catches it.
    spec = testbed.materialize_case(symmetric, discipline)
    results = bed_results(spec)
    waits = list(results["interpolation"])
    waits[0] += 0.01
    waits[1] -= 0.01
    off = dict(results, interpolation=tuple(waits))
    assert reference.closed_form_problems(spec, off)


def run_cli(argv):
    out = io.StringIO()
    saved, sys.stdout = sys.stdout, out
    try:
        code = cli.main(argv)
    finally:
        sys.stdout = saved
    assert code == 0
    return out.getvalue()


@pytest.fixture()
def spec_file(tmp_path):
    spec = workloads.demo_system(0.5, Discipline.EXHAUSTIVE, 1.3)
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(workloads.spec_dict(spec)))
    return str(path), spec


def test_analyze_check(spec_file):
    path, base = spec_file
    spec = pollwait.scale_to_load(base, 0.42)
    payload = json.loads(run_cli([
        "analyze", path, "--rho", "0.42", "--method", "lt-only", "--format", "json",
    ]))
    direct = pollwait.mean_wait(spec, pollwait.Method.LT_ONLY).mean_wait
    residual = pollwait.pcl_residual(spec)

    def check(p):
        return reference.analyze_problems(p, spec, "lt-only", direct, residual)

    assert check(payload) == []
    off = json.loads(json.dumps(payload))
    off["queues"][1]["mean_wait"] *= 1.05
    assert check(off)
    off = dict(payload, pcl_rhs=payload["pcl_rhs"] * 1.05)
    assert check(off)
    off = dict(payload, pcl_residual=payload["pcl_residual"] + 1e-3)
    assert check(off)
    off = dict(payload, method="interpolation")
    assert check(off)


def test_sweep_check(spec_file):
    path, base = spec_file
    text = run_cli([
        "sweep", path, "--rho-grid", "0.1:0.9:0.1", "--methods", "interpolation,large-s",
    ])

    def direct(rho, method):
        return pollwait.mean_wait(
            pollwait.scale_to_load(base, rho), pollwait.Method(method)
        ).mean_wait

    assert reference.sweep_problems(text, 9 * 2 * 3, direct) == []
    assert reference.sweep_problems(text, 9 * 2 * 3 + 1, direct)
    lines = text.splitlines()
    cells = lines[5].split(",")
    cells[3] = repr(float(cells[3]) * 1.05)
    off = "\n".join(lines[:5] + [",".join(cells)] + lines[6:]) + "\n"
    assert reference.sweep_problems(off, 9 * 2 * 3, direct)


METHODS = ["interpolation", "large-s"]


@pytest.fixture(scope="module")
def bed_run(tmp_path_factory):
    cases = pollwait.sampled_bed()[::10]
    cfg = SimConfig(
        warmup_cycles=500, measured_cycles=2000, replications=2, batch_count=10,
    )
    report = pollwait.run_comparison(
        cases, [pollwait.Method(m) for m in METHODS], Discipline.GATED, cfg,
        base_seed=5, jobs=1,
    )
    out = tmp_path_factory.mktemp("bed")
    testbed.write_report_files(report, str(out))
    counts = [testbed.materialize_case(c).n for c in cases]
    return str(out / "raw_records.csv"), report, counts


def bed_check(raw, report, counts, summary=None):
    if summary is None:
        summary = testbed.summary_lines(report)
    return reference.testbed_problems(raw, report, counts, METHODS, "gated", summary)


def rewrite(raw, tmp_path, change):
    with open(raw, newline="") as handle:
        rows = list(csv.DictReader(handle))
    change(rows)
    path = tmp_path / "raw_records.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return str(path)


def test_testbed_check_passes_real_output(bed_run):
    raw, report, counts = bed_run
    assert bed_check(raw, testbed.report_from_csv(raw), counts) == []


def _scale_interpolation(rows):
    for row in rows:
        if row["method"] == "interpolation":
            approx = float(row["oracle"]) * 1.5
            row["approx"] = repr(approx)
            row["rel_err"] = repr((approx - float(row["oracle"])) / float(row["oracle"]))


@pytest.mark.parametrize(
    "change",
    [
        lambda rows: rows.pop(),
        lambda rows: rows[3].update(oracle="-1.0"),
        lambda rows: rows[3].update(rel_err=repr(float(rows[3]["rel_err"]) * 1.05)),
        lambda rows: rows[0].update(discipline="exhaustive"),
        _scale_interpolation,
    ],
)
def test_testbed_check_fails_when_records_are_off(bed_run, tmp_path, change):
    raw, report, counts = bed_run
    path = rewrite(raw, tmp_path, change)
    assert bed_check(path, report, counts)


def test_testbed_check_compares_reload_and_summary(bed_run):
    raw, report, counts = bed_run
    reloaded = testbed.report_from_csv(raw)
    record = reloaded.records[7]
    reloaded.records[7] = dataclasses.replace(record, oracle=record.oracle * 1.05)
    assert bed_check(raw, reloaded, counts, testbed.summary_lines(report))
    summary = testbed.summary_lines(report)
    summary[-1] = summary[-1].replace("%", "0%", 1)
    assert bed_check(raw, report, counts, summary)
    assert bed_check(raw, report, counts[:-1] + [counts[-1] + 1])
