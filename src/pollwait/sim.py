"""Discrete-event simulation of cyclic polling systems.

The simulator is the validation oracle for the closed-form estimators, so
it is written for throughput and determinism rather than generality:

* Renewal arrivals are generated lazily.  Each queue keeps only its next
  pending arrival epoch; the server loop advances it customer by customer,
  which removes any need for an event calendar.
* One visit loop serves both disciplines.  It admits a customer that has
  arrived (``arrive <= t``) and arrived before the visit's gate
  (``arrive < gate``); the gate is the visit's start under gated service
  and infinite under exhaustive service.  An empty visit, the common case
  at low load, costs one comparison and its switch-over.
* Variates come from per-queue, per-purpose substreams spawned from a
  single seed, so results are reproducible and replications independent.
  Each substream is a C-level iterator: ``itertools.repeat`` for a
  deterministic law, otherwise chained chunks of ``sample_array``.
* The event budget counts services and switch-overs.  It is checked once
  per cycle, so a run raises within one cycle of exceeding it.
* Statistics are collected per cycle after a warm-up period.  The cycles
  run as contiguous segments: the warm-up, which records into an extra
  batch slot dropped before pooling, then one segment per batch.
  Confidence intervals use these batch means, pooled over replications.
* Queue lengths and the realized load come from the measured waits plus
  each queue's busy time, added once per visit that serves: a queue's
  summed sojourn time is its summed waits plus its busy time.
* numpy and scipy are imported inside the functions that use them
  (``simulate``, ``_run_replication``, ``_half_width`` and
  ``fitting.sample_array``), so importing the package for its closed
  forms loads neither; the first simulation pays for both.

Simulated time starts at the instant the server begins the first visit of
queue 0 with all queues empty and fresh interarrival countdowns.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from .errors import InvalidInput, NumericalBudget
from .fitting import (
    DistKind,
    FittedDistribution,
    fit_two_moments,
    sample_array,
)
from .model import Discipline, SystemSpec, _integer

if TYPE_CHECKING:
    import numpy as np

__all__ = ["SimConfig", "SimEstimate", "simulate"]

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
        for field in dataclasses.fields(self):
            value = _integer(getattr(self, field.name), field.name)
            object.__setattr__(self, field.name, value)
        if self.warmup_cycles < 0:
            raise InvalidInput("warmup_cycles must be >= 0")
        if self.batch_count < 2:
            raise InvalidInput("batch_count must be >= 2")
        if self.measured_cycles < 100 * self.batch_count:
            raise InvalidInput(
                "measured_cycles must be >= 100 * batch_count, got "
                f"{self.measured_cycles} with batch_count={self.batch_count}"
            )
        if self.replications < 1:
            raise InvalidInput("replications must be >= 1")
        if self.max_events <= 0:
            raise InvalidInput("max_events must be positive")
        if self.base_seed < 0:
            raise InvalidInput(f"base_seed must be >= 0, got {self.base_seed}")


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
        return itertools.repeat(dist.mean)
    # tolist() yields Python floats, which are cheaper to consume in the
    # visit loop than numpy scalars.  sample_array is looked up here on
    # every chunk, so a wrapper installed on this module sees each draw.
    return itertools.chain.from_iterable(
        sample_array(dist, rng, _CHUNK).tolist() for _ in itertools.repeat(None)
    )


def _fit_laws(
    spec: SystemSpec,
) -> tuple[list[FittedDistribution], ...]:
    def fit(mean: float, scv: float) -> FittedDistribution:
        if mean == 0.0:  # only a switch-over time can be zero
            return FittedDistribution(DistKind.DETERMINISTIC, 0.0, 0.0)
        return fit_two_moments(mean, scv)

    queues = spec.queues
    interarrival = [
        fit(q.mean_interarrival_at_saturation / spec.rho, q.scv_interarrival)
        for q in queues
    ]
    service = [fit(q.mean_service, q.scv_service) for q in queues]
    switchover = [fit(q.mean_switchover, q.scv_switchover) for q in queues]
    return interarrival, service, switchover


def _run_replication(
    spec: SystemSpec,
    laws: tuple[list[FittedDistribution], ...],
    cfg: SimConfig,
    seed: np.random.SeedSequence,
    budget: int,
):
    from numpy.random import default_rng

    n = spec.n
    # Substream 3*i feeds queue i's arrivals, 3*i+1 its services and
    # 3*i+2 its switch-overs.
    draws = [
        _stream(law, default_rng(substream)).__next__
        for law, substream in zip(
            (law for per_queue in zip(*laws) for law in per_queue),
            seed.spawn(3 * n),
        )
    ]
    draw_arrival, draw_service, draw_switch = draws[0::3], draws[1::3], draws[2::3]

    warmup = cfg.warmup_cycles
    measured = cfg.measured_cycles
    batches = cfg.batch_count
    gated = spec.discipline is Discipline.GATED

    wait_sums = [[0.0] * (batches + 1) for _ in range(n)]
    wait_counts = [[0] * (batches + 1) for _ in range(n)]
    busy = [0.0] * n
    events = 0

    t = 0.0
    next_arrival = [draw_arrival[i]() for i in range(n)]
    # Measured cycle c records into batch c * batches // measured, so
    # batch b starts at cycle ceil(b * measured / batches).  Warm-up
    # cycles record into the extra slot `batches`.
    starts = [-(-b * measured // batches) for b in range(batches + 1)]
    segments = [(batches, warmup)] + [
        (b, starts[b + 1] - starts[b]) for b in range(batches)
    ]

    for slot, cycles in segments:
        if slot == 0:
            t_measure_begin = t
            busy = [0.0] * n
        for _ in range(cycles):
            for i in range(n):
                arrive = next_arrival[i]
                # An empty visit is only its switch-over.  An arrival at
                # the start of a gated visit, its gate, waits a cycle.
                if arrive <= t and (arrive < t or not gated):
                    next_ia = draw_arrival[i]
                    next_sv = draw_service[i]
                    gate = t if gated else math.inf
                    start = t
                    waited = wait_sums[i][slot]
                    served = 0
                    while arrive <= t and arrive < gate:
                        waited += t - arrive
                        served += 1
                        t += next_sv()
                        arrive += next_ia()
                    wait_sums[i][slot] = waited
                    wait_counts[i][slot] += served
                    events += served
                    next_arrival[i] = arrive
                    busy[i] += t - start
                t += draw_switch[i]()
            events += n
            if events > budget:
                raise NumericalBudget(
                    f"event budget of {budget} exhausted; raise "
                    "max_events or shorten the run"
                )

    # Drop the warm-up slot.
    wait_sums = [row[:batches] for row in wait_sums]
    wait_counts = [row[:batches] for row in wait_counts]
    return wait_sums, wait_counts, busy, t - t_measure_begin, events


def _customers_per_cycle(spec: SystemSpec) -> float:
    # Mean cycle length is E[S] / (1 - rho); customers per cycle follow
    # from the per-queue arrival rates rho / mean_interarrival_at_saturation.
    total_switch = sum(q.mean_switchover for q in spec.queues)
    rate = sum(
        spec.rho / q.mean_interarrival_at_saturation for q in spec.queues
    )
    return rate * total_switch / (1.0 - spec.rho)


def _expected_events(spec: SystemSpec, cfg: SimConfig) -> float:
    per_cycle = spec.n + _customers_per_cycle(spec)
    cycles = cfg.warmup_cycles + cfg.measured_cycles
    return cfg.replications * cycles * per_cycle


def _half_width(values: list[float]) -> float:
    """Student-t 95% half-width of the mean of two or more `values`."""
    import numpy as np
    from scipy.special import stdtrit

    spread = float(np.std(values, ddof=1))
    quantile = float(stdtrit(len(values) - 1, 0.975))
    return quantile * spread / math.sqrt(len(values))


def simulate(
    spec: SystemSpec,
    cfg: SimConfig = SimConfig(),
) -> SimEstimate:
    """Estimate mean waiting times of `spec` by discrete-event simulation.

    Parameters
    ----------
    spec : SystemSpec
        System to simulate; requires ``rho > 0``.
    cfg : SimConfig
        Run lengths, replication count, seed and event budget.

    Returns
    -------
    SimEstimate

    Raises
    ------
    InvalidInput
        If ``spec.rho == 0`` (no arrivals to observe).
    NumericalBudget
        If the run would exceed, or exceeds, ``cfg.max_events``.
    """
    if spec.rho == 0.0:
        raise InvalidInput("simulation requires rho > 0")
    expected = _expected_events(spec, cfg)
    if expected > cfg.max_events:
        raise NumericalBudget(
            f"run expects about {expected:.2e} events, over the budget of "
            f"{cfg.max_events}; raise max_events or shorten the run"
        )

    from numpy.random import SeedSequence

    laws = _fit_laws(spec)
    seeds = SeedSequence(cfg.base_seed).spawn(cfg.replications)
    n = spec.n

    all_batch_means: list[list[float]] = [[] for _ in range(n)]
    wait_total = [0.0] * n
    count_total = [0] * n
    busy_total = [0.0] * n
    busy_values = []
    span_values = []
    events_used = 0

    for seed in seeds:
        wait_sums, wait_counts, busy, span, events = _run_replication(
            spec, laws, cfg, seed, cfg.max_events - events_used
        )
        events_used += events
        for i in range(n):
            for b in range(cfg.batch_count):
                c = wait_counts[i][b]
                if c > 0:
                    all_batch_means[i].append(wait_sums[i][b] / c)
            wait_total[i] += sum(wait_sums[i])
            count_total[i] += sum(wait_counts[i])
            busy_total[i] += busy[i]
        busy_values.append(sum(busy))
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
    queue_lengths = tuple(
        (w + b) / total_span for w, b in zip(wait_total, busy_total)
    )
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
