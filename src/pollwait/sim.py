"""Discrete-event simulation of cyclic polling systems.

The simulator is the validation oracle for the closed-form estimators, so
it is written for throughput and determinism rather than generality:

* Renewal arrivals are generated lazily.  Each queue keeps only its next
  pending arrival epoch; the server loop advances it customer by customer,
  which removes any need for an event calendar.
* Variates come from per-queue, per-purpose substreams spawned from a
  single seed, so results are reproducible and replications independent.
* Statistics are collected per cycle after a warm-up period.  Confidence
  intervals use batch means over contiguous blocks of cycles, pooled over
  replications.

Simulated time starts at the instant the server begins the first visit of
queue 0 with all queues empty and fresh interarrival countdowns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

import numpy as np
from scipy.special import stdtrit

from .errors import NumericalBudget, ZeroLoad
from .fitting import (
    DistKind,
    FittedDistribution,
    fit_two_moments,
    sample_array,
)
from .model import Discipline, SystemSpec

__all__ = ["SimConfig", "SimEstimate", "SimEvent", "simulate"]

_CHUNK = 8192  # variates drawn per refill of a substream buffer


@dataclass(frozen=True)
class SimConfig:
    """Run-length and seeding controls for :func:`simulate`.

    ``measured_cycles`` are split into ``batch_count`` contiguous blocks
    per replication for the confidence intervals, so it must be at least
    ``100 * batch_count`` to keep batches long enough to decorrelate.
    ``max_events`` caps the total number of simulated services and
    switch-overs across all replications.
    """

    warmup_cycles: int = 10_000
    measured_cycles: int = 100_000
    replications: int = 10
    base_seed: int = 20260822
    batch_count: int = 20
    max_events: int = 500_000_000

    def __post_init__(self) -> None:
        if self.warmup_cycles < 0:
            raise ValueError("warmup_cycles must be >= 0")
        if self.batch_count < 2:
            raise ValueError("batch_count must be >= 2")
        if self.measured_cycles < 100 * self.batch_count:
            raise ValueError(
                "measured_cycles must be >= 100 * batch_count, got "
                f"{self.measured_cycles} with batch_count={self.batch_count}"
            )
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.max_events <= 0:
            raise ValueError("max_events must be positive")


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


@dataclass(frozen=True)
class SimEstimate:
    """Pooled simulation estimates.

    ``ci_half_width`` are 95% half-widths from batch means; a queue that
    recorded no waits reports ``nan`` mean and ``inf`` half-width.
    ``realized_load`` is the measured fraction of time spent serving, with
    its own half-width across replications (``nan`` for one replication).
    """

    mean_wait: tuple[float, ...]
    ci_half_width: tuple[float, ...]
    mean_queue_length: tuple[float, ...]
    realized_load: float
    realized_load_ci_half_width: float
    samples: int
    samples_per_queue: tuple[int, ...]
    replications: int
    total_events: int


def _stream(dist: FittedDistribution, rng: np.random.Generator) -> Iterator[float]:
    if dist.kind is DistKind.DETERMINISTIC:
        value = dist.mean

        def constant() -> Iterator[float]:
            while True:
                yield value

        return constant()

    def chunked() -> Iterator[float]:
        while True:
            # tolist() yields Python floats, which are cheaper to consume
            # in the tight loop below than numpy scalars.
            yield from sample_array(dist, rng, _CHUNK).tolist()

    return chunked()


def _fit_laws(
    spec: SystemSpec,
) -> tuple[list[FittedDistribution], ...]:
    interarrival = [
        fit_two_moments(
            q.mean_interarrival_at_saturation / spec.rho, q.scv_interarrival
        )
        for q in spec.queues
    ]
    service = [
        fit_two_moments(q.mean_service, q.scv_service) for q in spec.queues
    ]
    switchover = [
        fit_two_moments(q.mean_switchover, q.scv_switchover)
        if q.mean_switchover > 0.0
        else FittedDistribution(DistKind.DETERMINISTIC, 0.0, 0.0)
        for q in spec.queues
    ]
    return interarrival, service, switchover


def _run_replication(
    spec: SystemSpec,
    laws: tuple[list[FittedDistribution], ...],
    cfg: SimConfig,
    seed: np.random.SeedSequence,
    budget: int,
    log: Optional[list[SimEvent]],
):
    n = spec.n
    interarrival, service, switchover = laws
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
    exhaustive = spec.discipline is Discipline.EXHAUSTIVE

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
            if exhaustive:
                while arrive <= t:
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
                    if events > budget:
                        raise NumericalBudget(
                            f"event budget of {budget} exhausted; raise "
                            "max_events or shorten the run"
                        )
                    arrive += next_ia()
            else:
                gate = t  # arrivals at or after this instant wait a cycle
                while arrive < gate:
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
                    if events > budget:
                        raise NumericalBudget(
                            f"event budget of {budget} exhausted; raise "
                            "max_events or shorten the run"
                        )
                    arrive += next_ia()
            next_arrival[i] = arrive
            sojourn_sums[i] += visit_sojourn
            if log is not None:
                log.append(SimEvent(t, "visit_end", i, arrive))
            t += draw_switch[i]()
            events += 1
            if log is not None:
                log.append(SimEvent(t, "switch_end", i, math.nan))

    span = t - t_measure_begin
    return wait_sums, wait_counts, sojourn_sums, busy_time, span, events


def _expected_events(spec: SystemSpec, cfg: SimConfig) -> float:
    # Mean cycle length is E[S] / (1 - rho); customers per cycle follow
    # from the per-queue arrival rates rho / mean_interarrival_at_saturation.
    total_switch = sum(q.mean_switchover for q in spec.queues)
    rate = sum(
        spec.rho / q.mean_interarrival_at_saturation for q in spec.queues
    )
    per_cycle = spec.n + rate * total_switch / (1.0 - spec.rho)
    cycles = cfg.warmup_cycles + cfg.measured_cycles
    return cfg.replications * cycles * per_cycle


def simulate(
    spec: SystemSpec,
    cfg: SimConfig = SimConfig(),
    event_log: Optional[list[SimEvent]] = None,
) -> SimEstimate:
    """Estimate mean waiting times of `spec` by discrete-event simulation.

    Parameters
    ----------
    spec : SystemSpec
        System to simulate; requires ``rho > 0``.
    cfg : SimConfig
        Run lengths, replication count, seed and event budget.
    event_log : list of SimEvent, optional
        If given, the events of the first replication are appended to it.
        Intended for structural checks on short runs; it grows with every
        simulated event.

    Returns
    -------
    SimEstimate

    Raises
    ------
    ZeroLoad
        If ``spec.rho == 0`` (no arrivals to observe).
    NumericalBudget
        If the run would exceed, or exceeds, ``cfg.max_events``.
    """
    if spec.rho == 0.0:
        raise ZeroLoad("simulation requires rho > 0")
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
        if len(means) >= 2:
            spread = float(np.std(means, ddof=1))
            quantile = float(stdtrit(len(means) - 1, 0.975))
            half_widths.append(quantile * spread / math.sqrt(len(means)))
        else:
            half_widths.append(math.inf)

    total_span = sum(span_values)
    queue_lengths = tuple(s / total_span for s in sojourn_total)
    realized_load = sum(busy_values) / total_span
    if cfg.replications >= 2:
        per_rep = [b / s for b, s in zip(busy_values, span_values)]
        spread = float(np.std(per_rep, ddof=1))
        quantile = float(stdtrit(cfg.replications - 1, 0.975))
        load_half_width = quantile * spread / math.sqrt(cfg.replications)
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
