"""Tests for the discrete-event simulator."""

import dataclasses
import math
import subprocess
import sys

import numpy as np
import pytest

from pollwait import (
    DensityMode,
    Discipline,
    InvalidInput,
    NumericalBudget,
    QueueSpec,
    SimConfig,
    SystemSpec,
    Method,
    mean_wait,
    simulate,
)

from _reference_sim import simulate as reference_simulate

EXH = Discipline.EXHAUSTIVE
GAT = Discipline.GATED


def vacation_spec(discipline, rho, scv_b=1.0, mean_s=1.0, scv_s=0.0):
    queues = (
        QueueSpec(1.0, scv_b, 1.0, 1.0, mean_s, scv_s, DensityMode.EXACT_EXPONENTIAL),
    )
    return SystemSpec(queues=queues, discipline=discipline, rho=rho)


def two_queue_spec(discipline=EXH, rho=0.5):
    queues = (
        QueueSpec(1.0, 1.0, 1.6, 2.0, 0.5, 1.0, DensityMode.EXACT_H2),
        QueueSpec(0.75, 0.5, 2.0, 1.0, 0.25, 0.0, DensityMode.EXACT_EXPONENTIAL),
    )
    return SystemSpec(queues=queues, discipline=discipline, rho=rho)


SHORT = SimConfig(
    warmup_cycles=500,
    measured_cycles=2_000,
    replications=2,
    base_seed=99,
    batch_count=10,
    max_events=50_000_000,
)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(warmup_cycles=-1)
    with pytest.raises(ValueError):
        SimConfig(batch_count=1)
    with pytest.raises(ValueError):
        SimConfig(measured_cycles=1_000, batch_count=20)
    with pytest.raises(ValueError):
        SimConfig(replications=0)
    with pytest.raises(ValueError):
        SimConfig(max_events=0)


def test_config_field_types():
    with pytest.raises(InvalidInput, match="measured_cycles must be an integer, got 2000.5"):
        SimConfig(measured_cycles=2000.5)
    with pytest.raises(InvalidInput, match="replications must be an integer, got True"):
        SimConfig(replications=True)
    with pytest.raises(InvalidInput, match="base_seed must be an integer, got '7'"):
        SimConfig(base_seed="7")
    # numpy integers are integers.
    assert SimConfig(replications=np.int64(3)) == SimConfig(replications=3)


def test_zero_load_is_rejected():
    with pytest.raises(InvalidInput, match="simulation requires rho > 0"):
        simulate(two_queue_spec(rho=0.0), SHORT)


def test_budget_precheck():
    with pytest.raises(NumericalBudget):
        simulate(
            two_queue_spec(),
            SimConfig(
                warmup_cycles=100,
                measured_cycles=2_000,
                batch_count=10,
                replications=1,
                max_events=50,
            ),
        )


def test_budget_runtime_check():
    # Seed chosen so the realized event count lands above its expectation;
    # a budget at the expectation then passes the pre-check but trips the
    # runtime guard.
    spec = two_queue_spec(rho=0.9)
    cfg = SimConfig(
        warmup_cycles=100,
        measured_cycles=1_000,
        replications=1,
        base_seed=1230,
        batch_count=10,
        max_events=10_000_000,
    )
    baseline = simulate(spec, cfg)
    arrival_rate = sum(
        spec.rho / q.mean_interarrival_at_saturation for q in spec.queues
    )
    total_switch = sum(q.mean_switchover for q in spec.queues)
    cycles = cfg.warmup_cycles + cfg.measured_cycles
    expected = cycles * (spec.n + arrival_rate * total_switch / (1.0 - spec.rho))
    assert baseline.total_events > math.ceil(expected)
    tight = SimConfig(
        warmup_cycles=cfg.warmup_cycles,
        measured_cycles=cfg.measured_cycles,
        replications=1,
        base_seed=1230,
        batch_count=10,
        max_events=math.ceil(expected),
    )
    with pytest.raises(NumericalBudget):
        simulate(spec, tight)


def test_budget_counts_trailing_switchovers():
    # A budget one below the realized total must raise even though the
    # run's last events are switch-overs, not services.
    spec = two_queue_spec(rho=0.9)
    cfg = SimConfig(
        warmup_cycles=100,
        measured_cycles=1_000,
        replications=1,
        base_seed=1230,
        batch_count=10,
    )
    total = simulate(spec, cfg).total_events
    tight = SimConfig(
        warmup_cycles=cfg.warmup_cycles,
        measured_cycles=cfg.measured_cycles,
        replications=1,
        base_seed=1230,
        batch_count=10,
        max_events=total - 1,
    )
    with pytest.raises(NumericalBudget):
        simulate(spec, tight)


def test_budget_equal_to_the_total_passes():
    # With the test above, this pins what the runtime check counts: the
    # run's exact event total, switch-overs included.
    spec = two_queue_spec(rho=0.9)
    cfg = SimConfig(
        warmup_cycles=100,
        measured_cycles=1_000,
        replications=1,
        base_seed=1230,
        batch_count=10,
    )
    total = simulate(spec, cfg).total_events
    exact = dataclasses.replace(cfg, max_events=total)
    assert simulate(spec, exact).total_events == total


@pytest.mark.parametrize(
    "discipline, waits, half_widths",
    [
        (
            EXH,
            "(1.8130972825297367, 2.316670673645339)",
            "(0.20837020237089865, 0.5604755502787896)",
        ),
        (
            GAT,
            "(2.84859072659444, 2.018117004191158)",
            "(0.38857347284485844, 0.3281944728754261)",
        ),
    ],
    ids=["exhaustive", "gated"],
)
def test_frozen_seed_values(discipline, waits, half_widths):
    # Exact values at a fixed seed: any change in how the service loop or
    # the variate streams consume the substreams shows here.  Queue 1 has
    # deterministic switch-overs, so both stream kinds are covered.
    estimate = simulate(two_queue_spec(discipline), SHORT)
    assert estimate.samples_per_queue == (1956, 1486)
    assert estimate.total_events == 14279
    assert repr(estimate.mean_wait) == waits
    assert repr(estimate.ci_half_width) == half_widths


def all_kinds_spec(discipline, rho):
    # Every law kind appears: deterministic, exponential, hyperexponential
    # and mixed-Erlang, with a deterministic switch-over after queue 1 and
    # a zero-mean one after queue 2.
    queues = (
        QueueSpec(1.0, 1.0, 2.0, 2.0, 0.5, 0.5),
        QueueSpec(0.5, 0.5, 2.0, 0.0, 0.25, 0.0),
        QueueSpec(0.8, 3.0, 3.2, 1.0, 0.0, 0.0),
    )
    return SystemSpec(queues=queues, discipline=discipline, rho=rho)


@pytest.mark.parametrize("rho", [0.1, 0.5, 0.9, 0.97])
@pytest.mark.parametrize("discipline", [EXH, GAT], ids=["exhaustive", "gated"])
def test_matches_per_customer_reference(discipline, rho):
    # The simulator takes queue lengths and load from per-visit busy time,
    # the reference from per-customer sojourns: counts and waits must agree
    # exactly, the busy-time figures up to summation order.
    spec = all_kinds_spec(discipline, rho)
    estimate = simulate(spec, SHORT)
    reference = reference_simulate(spec, SHORT)
    assert estimate.samples_per_queue == reference.samples_per_queue
    assert estimate.total_events == reference.total_events
    assert estimate.mean_wait == reference.mean_wait
    assert estimate.ci_half_width == reference.ci_half_width
    assert estimate.mean_queue_length == pytest.approx(
        reference.mean_queue_length, rel=1e-9, abs=0.0
    )
    assert estimate.realized_load == pytest.approx(
        reference.realized_load, rel=1e-9, abs=0.0
    )
    assert estimate.realized_load_ci_half_width == pytest.approx(
        reference.realized_load_ci_half_width, rel=1e-9, abs=0.0
    )


def deterministic_spec(discipline, rho):
    # Binary-exact deterministic laws put arrivals exactly on visit
    # starts, where a gated visit must leave them for the next cycle.
    queue = QueueSpec(0.5, 0.0, 1.0, 0.0, 0.25, 0.0)
    return SystemSpec(queues=(queue, queue), discipline=discipline, rho=rho)


EDGE_CONFIGS = {
    "no-warmup": SimConfig(
        warmup_cycles=0, measured_cycles=2_000, replications=2, base_seed=5,
        batch_count=10,
    ),
    "uneven-batches": SimConfig(
        warmup_cycles=300, measured_cycles=2_003, replications=2, base_seed=6,
        batch_count=10,
    ),
    "one-replication": SimConfig(
        warmup_cycles=300, measured_cycles=2_000, replications=1, base_seed=7,
        batch_count=10,
    ),
}


@pytest.mark.parametrize(
    "build, rho, cfg",
    [(all_kinds_spec, 0.5, cfg) for cfg in EDGE_CONFIGS.values()]
    + [(deterministic_spec, rho, SHORT) for rho in (0.25, 0.5, 0.75)],
    ids=[*EDGE_CONFIGS, "ties-0.25", "ties-0.5", "ties-0.75"],
)
@pytest.mark.parametrize("discipline", [EXH, GAT], ids=["exhaustive", "gated"])
def test_loop_edges_match_reference(discipline, build, rho, cfg):
    # Run lengths that split unevenly into batches or skip the warm-up,
    # and arrivals that tie with a visit's start, give the same numbers
    # as the per-customer reference.
    spec = build(discipline, rho)
    estimate = simulate(spec, cfg)
    reference = reference_simulate(spec, cfg)
    assert estimate.samples_per_queue == reference.samples_per_queue
    assert estimate.total_events == reference.total_events
    assert estimate.mean_wait == reference.mean_wait
    assert estimate.ci_half_width == reference.ci_half_width


def test_gated_ties_wait_a_cycle():
    # At rho 0.5 the cycle lasts 1.0 and each of queue 0's customers
    # arrives exactly as its visit starts: exhaustive service takes them at
    # once, gated service a full cycle later.
    exhaustive, gated = (
        simulate(deterministic_spec(d, 0.5), SHORT).mean_wait[0]
        for d in (EXH, GAT)
    )
    assert (exhaustive, gated) == (0.0, 1.0)


def test_same_seed_reproduces_everything():
    first = simulate(two_queue_spec(), SHORT)
    second = simulate(two_queue_spec(), SHORT)
    assert first == second


def test_different_seed_changes_the_estimate():
    other = SimConfig(
        warmup_cycles=500,
        measured_cycles=2_000,
        replications=2,
        base_seed=100,
        batch_count=10,
        max_events=50_000_000,
    )
    assert simulate(two_queue_spec(), SHORT) != simulate(two_queue_spec(), other)


def test_exhaustive_vacation_model_agreement():
    # Closed form is exact here; the estimate must sit within three
    # half-widths and the realized load must track the offered load.
    spec = vacation_spec(EXH, rho=0.7)
    cfg = SimConfig(
        warmup_cycles=2_000,
        measured_cycles=20_000,
        replications=3,
        base_seed=11,
        batch_count=10,
        max_events=50_000_000,
    )
    estimate = simulate(spec, cfg)
    exact = mean_wait(spec, Method.INTERPOLATION).mean_wait[0]
    assert math.isclose(exact, 17 / 6, rel_tol=1e-12)
    assert abs(estimate.mean_wait[0] - exact) <= 3.0 * estimate.ci_half_width[0]
    assert estimate.ci_half_width[0] < 0.2
    assert abs(estimate.realized_load - 0.7) <= max(
        3.0 * estimate.realized_load_ci_half_width, 0.01
    )
    assert estimate.samples == estimate.samples_per_queue[0] > 0


def test_gated_vacation_model_agreement():
    spec = vacation_spec(GAT, rho=0.5, mean_s=2.0, scv_s=1.0)
    cfg = SimConfig(
        warmup_cycles=2_000,
        measured_cycles=20_000,
        replications=3,
        base_seed=13,
        batch_count=10,
        max_events=50_000_000,
    )
    estimate = simulate(spec, cfg)
    exact = mean_wait(spec, Method.INTERPOLATION).mean_wait[0]
    assert math.isclose(exact, 5.0, rel_tol=1e-12)
    assert abs(estimate.mean_wait[0] - exact) <= 3.0 * estimate.ci_half_width[0]


def test_queue_length_tracks_littles_law():
    spec = two_queue_spec(rho=0.6)
    cfg = SimConfig(
        warmup_cycles=2_000,
        measured_cycles=20_000,
        replications=3,
        base_seed=17,
        batch_count=10,
        max_events=50_000_000,
    )
    estimate = simulate(spec, cfg)
    for i, q in enumerate(spec.queues):
        arrival_rate = spec.rho / q.mean_interarrival_at_saturation
        implied = arrival_rate * (estimate.mean_wait[i] + q.mean_service)
        # The length estimate uses measured sojourn time, not the implied
        # product, so agreement is statistical.
        assert abs(estimate.mean_queue_length[i] - implied) <= 0.05 * implied


def test_event_log_structure():
    spec = two_queue_spec(rho=0.5)
    log = []
    reference_simulate(
        spec,
        SimConfig(
            warmup_cycles=50,
            measured_cycles=1_000,
            replications=2,
            base_seed=19,
            batch_count=10,
            max_events=10_000_000,
        ),
        event_log=log,
    )
    assert log, "event log must capture the first replication"
    assert log[0].time == 0.0
    assert log[0].kind == "visit_begin" and log[0].queue == 0

    # Events are time ordered and visits follow the cyclic pattern
    # visit_begin -> service_start* -> visit_end -> switch_end.
    last_time = 0.0
    expected_queue = 0
    state = "visit"
    for event in log:
        assert event.time >= last_time - 1e-12
        last_time = event.time
        if event.kind == "visit_begin":
            assert state == "visit"
            assert event.queue == expected_queue
            state = "serving"
        elif event.kind == "service_start":
            assert state == "serving"
            assert event.queue == expected_queue
        elif event.kind == "visit_end":
            assert state == "serving"
            assert event.queue == expected_queue
            state = "switch"
        else:
            assert event.kind == "switch_end"
            assert state == "switch"
            assert event.queue == expected_queue
            expected_queue = (expected_queue + 1) % spec.n
            state = "visit"

    # Only the first replication is logged: one event stream, not two.
    begins = sum(1 for e in log if e.kind == "visit_begin" and e.queue == 0)
    assert begins == 1_050


def test_exhaustive_visits_end_empty():
    # At every visit end the next pending arrival lies beyond the current
    # instant: the queue is drained before the server moves on.
    log = []
    reference_simulate(
        vacation_spec(EXH, rho=0.8),
        SimConfig(
            warmup_cycles=50,
            measured_cycles=1_000,
            replications=1,
            base_seed=23,
            batch_count=10,
            max_events=10_000_000,
        ),
        event_log=log,
    )
    ends = [e for e in log if e.kind == "visit_end"]
    assert ends
    for event in ends:
        assert event.value > event.time


def test_gated_serves_only_pre_gate_arrivals():
    # Every served customer arrived strictly before the gate closed, i.e.
    # before the visit began; arrivals during the visit stay pending.
    log = []
    reference_simulate(
        two_queue_spec(GAT, rho=0.8),
        SimConfig(
            warmup_cycles=50,
            measured_cycles=1_000,
            replications=1,
            base_seed=29,
            batch_count=10,
            max_events=10_000_000,
        ),
        event_log=log,
    )
    gate = {}
    served = 0
    saw_pending = 0
    for event in log:
        if event.kind == "visit_begin":
            gate[event.queue] = event.time
        elif event.kind == "service_start":
            served += 1
            assert event.value < gate[event.queue]
        elif event.kind == "visit_end":
            if event.value < event.time:
                saw_pending += 1
    assert served > 0
    # Under load 0.8 some visits must leave a post-gate arrival waiting.
    assert saw_pending > 0


def test_unvisited_queue_reports_nan():
    # The second queue carries a vanishing load share; in a short run no
    # customer ever shows up there.
    queues = (
        QueueSpec(1.0, 1.0, 1.0 / (1.0 - 1e-12), 1.0, 1.0, 1.0,
                  DensityMode.EXACT_EXPONENTIAL),
        QueueSpec(1.0, 1.0, 1e12, 1.0, 0.5, 0.0,
                  DensityMode.EXACT_EXPONENTIAL),
    )
    spec = SystemSpec(queues=queues, discipline=EXH, rho=0.5)
    estimate = simulate(
        spec,
        SimConfig(
            warmup_cycles=50,
            measured_cycles=1_000,
            replications=1,
            base_seed=31,
            batch_count=10,
            max_events=10_000_000,
        ),
    )
    assert estimate.samples_per_queue[1] == 0
    assert math.isnan(estimate.mean_wait[1])
    assert math.isinf(estimate.ci_half_width[1])
    assert estimate.mean_queue_length[1] == 0.0
    assert estimate.samples_per_queue[0] > 0


def test_single_replication_load_interval_is_nan():
    estimate = simulate(
        vacation_spec(EXH, rho=0.4),
        SimConfig(
            warmup_cycles=100,
            measured_cycles=1_000,
            replications=1,
            base_seed=37,
            batch_count=10,
            max_events=10_000_000,
        ),
    )
    assert math.isnan(estimate.realized_load_ci_half_width)
    assert 0.3 < estimate.realized_load < 0.5


def test_import_leaves_scipy_stats_unloaded():
    # The t quantile comes from scipy.special; scipy.stats alone would
    # add most of the package's import time and memory.
    code = "import sys, pollwait; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout
    assert out.strip() == "False"


def test_commands_that_do_not_simulate_leave_numpy_and_scipy_unloaded():
    # The closed forms need neither numpy, scipy nor a process pool; the
    # simulator and the test bed import them when they first run.
    code = """
import contextlib, io, json, sys
import pollwait
from pollwait import cli

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0, argv
    return out.getvalue()

for fmt in ("text", "json", "csv"):
    run(["analyze", "--preset", "three-queue", "--format", fmt])
run(["sweep", "--preset", "three-queue", "--rho-grid", "0.1:0.9:0.2"])
run(["demo-spec", "--preset", "small-switchover"])
loaded = [m for m in ("numpy", "scipy", "multiprocessing") if m in sys.modules]
print(json.dumps(loaded))
sim = run(["simulate", "--preset", "three-queue", "--cycles", "2000",
           "--warmup", "200", "--reps", "2", "--batches", "2"])
print(len(json.loads(sim)["mean_wait"]))
"""
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout
    assert out.split() == ["[]", "3"]
