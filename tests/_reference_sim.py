"""Per-customer reference simulator with an event log, for tests only.

This is the simulator's visit loop as it stood before the estimates were
cut down to waits plus per-visit busy time.  It walks every customer,
accumulates sojourn times customer by customer, and can log the events of
its first replication.  Tests use it two ways:

* the structure tests read its event log (visit order, empty queues at the
  end of an exhaustive visit, the gate of a gated visit);
* a differential test runs it and :func:`pollwait.sim.simulate` on the same
  seed and requires the same numbers.

It reuses the simulator's law fitting, variate streams and half-width, so
both consume the same substreams in the same order.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from pollwait.errors import InvalidInput, NumericalBudget
from pollwait.fitting import FittedDistribution
from pollwait.model import Discipline, SystemSpec
from pollwait.sim import (
    SimConfig,
    SimEstimate,
    _expected_events,
    _fit_laws,
    _half_width,
    _stream,
)


class SimEvent(NamedTuple):
    """One entry of the optional event log.

    ``kind`` is one of ``visit_begin``, ``service_start``, ``visit_end``
    or ``switch_end``.  ``value`` carries the arrival epoch of the served
    customer for ``service_start``, and the next pending arrival epoch of
    the visited queue for ``visit_begin`` / ``visit_end``.
    """

    time: float
    kind: str
    queue: int
    value: float


def _run_replication(
    spec: SystemSpec,
    laws: tuple[list[FittedDistribution], ...],
    cfg: SimConfig,
    seed: np.random.SeedSequence,
    budget: int,
    log: Optional[list[SimEvent]],
):
    n = spec.n
    interarrival, service, switchover = laws[0::3], laws[1::3], laws[2::3]
    substreams = seed.spawn(3 * n)
    draw_arrival = []
    draw_service = []
    draw_switch = []
    for i in range(n):
        draw_arrival.append(
            _stream(interarrival[i], np.random.default_rng(substreams[3 * i])).__next__
        )
        draw_service.append(
            _stream(service[i], np.random.default_rng(substreams[3 * i + 1])).__next__
        )
        draw_switch.append(
            _stream(switchover[i], np.random.default_rng(substreams[3 * i + 2])).__next__
        )

    warmup = cfg.warmup_cycles
    measured = cfg.measured_cycles
    batches = cfg.batch_count
    gated = spec.discipline is Discipline.GATED

    wait_sums = [[0.0] * batches for _ in range(n)]
    wait_counts = [[0] * batches for _ in range(n)]
    sojourn_sums = [0.0] * n
    busy_time = 0.0
    events = 0

    t = 0.0
    t_measure_begin = 0.0
    next_arrival = [draw_arrival[i]() for i in range(n)]
    batch = 0
    measuring = False

    for cycle in range(warmup + measured):
        if cycle >= warmup:
            if cycle == warmup:
                t_measure_begin = t
                measuring = True
            batch = (cycle - warmup) * batches // measured
        for i in range(n):
            arrive = next_arrival[i]
            next_ia = draw_arrival[i]
            next_sv = draw_service[i]
            sums_row = wait_sums[i]
            counts_row = wait_counts[i]
            visit_sojourn = 0.0
            if log is not None:
                log.append(SimEvent(t, "visit_begin", i, arrive))
            # Under gated service t >= gate, so `arrive <= t` adds nothing
            # there; an arrival exactly at the gate waits a cycle.
            gate = t if gated else math.inf
            while arrive <= t and arrive < gate:
                if log is not None:
                    log.append(SimEvent(t, "service_start", i, arrive))
                hold = next_sv()
                if measuring:
                    sums_row[batch] += t - arrive
                    counts_row[batch] += 1
                    visit_sojourn += t - arrive + hold
                    busy_time += hold
                t += hold
                events += 1
                arrive += next_ia()
            next_arrival[i] = arrive
            sojourn_sums[i] += visit_sojourn
            if log is not None:
                log.append(SimEvent(t, "visit_end", i, arrive))
            t += draw_switch[i]()
            events += 1
            if log is not None:
                log.append(SimEvent(t, "switch_end", i, math.nan))
            if events > budget:
                raise NumericalBudget(
                    f"event budget of {budget} exhausted; raise "
                    "max_events or shorten the run"
                )

    span = t - t_measure_begin
    return wait_sums, wait_counts, sojourn_sums, busy_time, span, events


def simulate(
    spec: SystemSpec,
    cfg: SimConfig = SimConfig(),
    event_log: Optional[list[SimEvent]] = None,
) -> SimEstimate:
    """Estimate mean waiting times of `spec` by discrete-event simulation.

    If `event_log` is given, the events of the first replication are
    appended to it; it grows with every simulated event.
    """
    if spec.rho == 0.0:
        raise InvalidInput("simulation requires rho > 0")
    expected = _expected_events(spec, cfg)
    if expected > cfg.max_events:
        raise NumericalBudget(
            f"run expects about {expected:.2e} events, over the budget of "
            f"{cfg.max_events}; raise max_events or shorten the run"
        )

    laws = _fit_laws(spec)
    seeds = np.random.SeedSequence(cfg.base_seed).spawn(cfg.replications)
    n = spec.n

    all_batch_means: list[list[float]] = [[] for _ in range(n)]
    wait_total = [0.0] * n
    count_total = [0] * n
    sojourn_total = [0.0] * n
    busy_values = []
    span_values = []
    events_used = 0

    for rep, seed in enumerate(seeds):
        log = event_log if rep == 0 else None
        wait_sums, wait_counts, sojourns, busy, span, events = _run_replication(
            spec, laws, cfg, seed, cfg.max_events - events_used, log
        )
        events_used += events
        for i in range(n):
            for b in range(cfg.batch_count):
                c = wait_counts[i][b]
                if c > 0:
                    all_batch_means[i].append(wait_sums[i][b] / c)
            wait_total[i] += sum(wait_sums[i])
            count_total[i] += sum(wait_counts[i])
            sojourn_total[i] += sojourns[i]
        busy_values.append(busy)
        span_values.append(span)

    mean_wait = []
    half_widths = []
    for i in range(n):
        if count_total[i] == 0:
            mean_wait.append(math.nan)
            half_widths.append(math.inf)
            continue
        mean_wait.append(wait_total[i] / count_total[i])
        means = all_batch_means[i]
        half_widths.append(_half_width(means) if len(means) >= 2 else math.inf)

    total_span = sum(span_values)
    queue_lengths = tuple(s / total_span for s in sojourn_total)
    realized_load = sum(busy_values) / total_span
    if cfg.replications >= 2:
        per_rep = [b / s for b, s in zip(busy_values, span_values)]
        load_half_width = _half_width(per_rep)
    else:
        load_half_width = math.nan

    return SimEstimate(
        mean_wait=tuple(mean_wait),
        ci_half_width=tuple(half_widths),
        mean_queue_length=queue_lengths,
        realized_load=realized_load,
        realized_load_ci_half_width=load_half_width,
        samples=sum(count_total),
        samples_per_queue=tuple(count_total),
        replications=cfg.replications,
        total_events=events_used,
    )
