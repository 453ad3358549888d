"""Discrete-event simulation of cyclic polling systems.

The simulator is the validation oracle for the closed-form estimators, so
it is written for throughput and determinism rather than generality:

* Renewal arrivals are generated lazily.  Each queue keeps only its next
  pending arrival epoch; the server loop advances it customer by customer,
  which removes any need for an event calendar.
* One visit loop serves both disciplines.  It admits a customer that has
  arrived (``arrive <= t``) and arrived before the visit's gate
  (``arrive < gate``); the gate is the visit's start under gated service
  and infinite under exhaustive service.
* A cycle walks a tuple, built once per replication, that pairs each
  queue's index with its switch-over draw.  An empty visit, the common
  case at low load, costs one comparison plus its switch-over draw.
* Variates come from per-queue, per-purpose substreams spawned from a
  single seed, so results are reproducible and replications independent;
  ``_fit_laws`` lists the laws in substream order.
  Each substream is a C-level iterator: ``itertools.repeat`` for a
  deterministic law, otherwise chained chunks of ``sample_array``.  A
  chunk is read through a memoryview, so a Python float exists only once
  the loop draws it, and a replication holds at most 3N buffers of
  ``_CHUNK`` doubles: a deterministic law holds none.
* The event budget counts services and switch-overs.  It is checked once
  per cycle, so a run raises within one cycle of exceeding it.
* The cycles run as contiguous segments: the warm-up, then one per
  batch.  Each segment records its own per-queue wait sums and counts.
  A replication returns its batches' records, not the warm-up's, and
  ``simulate`` folds them: confidence intervals use the batch means,
  pooled over replications.
* Queue lengths and the realized load come from the measured waits plus
  each queue's busy time, added once per visit that serves: a queue's
  summed sojourn time is its summed waits plus its busy time.
* numpy is imported inside the functions that use it (``simulate``,
  ``_run_replication``, ``_half_width`` and ``fitting.sample_array``),
  so importing the package for its closed forms does not load it; the
  first simulation pays for it.  Nothing here needs scipy: the Student-t
  quantile of the confidence intervals is computed in pure Python.

Simulated time starts at the instant the server begins the first visit of
queue 0 with all queues empty and fresh interarrival countdowns.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from .errors import InvalidInput, NumericalBudget
from .fitting import (
    DistKind,
    FittedDistribution,
    fit_two_moments,
    sample_array,
)
from .model import Discipline, SystemSpec, _store

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
        _store(self, _CONFIG_FIELDS)
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


_CONFIG_FIELDS = [(f.name, int) for f in dataclasses.fields(SimConfig)]


@dataclass(frozen=True)
class SimEstimate:
    """Pooled simulation estimates.

    ``ci_half_width`` are 95% half-widths from batch means; a queue that
    recorded no waits reports ``nan`` mean and ``inf`` half-width, and
    one whose waits all fall in one batch a finite mean and ``inf``.
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
    # A memoryview of the float64 chunk yields Python floats, cheaper in
    # the visit loop than numpy scalars, and makes each only when it is
    # drawn.  sample_array is looked up here on every chunk, so a wrapper
    # installed on this module sees each draw.
    return itertools.chain.from_iterable(
        memoryview(sample_array(dist, rng, _CHUNK))
        for _ in itertools.repeat(None)
    )


def _fit_laws(
    spec: SystemSpec,
) -> list[FittedDistribution]:
    # Listed in substream order: substream 3*i feeds queue i's arrivals,
    # 3*i+1 its services and 3*i+2 its switch-overs.
    def fit(mean: float, scv: float) -> FittedDistribution:
        if mean == 0.0:  # only a switch-over time can be zero
            return FittedDistribution(DistKind.DETERMINISTIC, 0.0, 0.0)
        return fit_two_moments(mean, scv)

    laws = []
    for q in spec.queues:
        laws += (
            fit(q.mean_interarrival_at_saturation / spec.rho, q.scv_interarrival),
            fit(q.mean_service, q.scv_service),
            fit(q.mean_switchover, q.scv_switchover),
        )
    return laws


def _run_replication(
    spec: SystemSpec,
    laws: list[FittedDistribution],
    cfg: SimConfig,
    seed: np.random.SeedSequence,
    budget: int,
):
    from numpy.random import default_rng

    n = spec.n
    draws = [
        _stream(law, default_rng(substream)).__next__
        for law, substream in zip(laws, seed.spawn(3 * n))
    ]
    draw_arrival, draw_service, draw_switch = draws[0::3], draws[1::3], draws[2::3]
    # Built once: each visit takes its index and switch-over draw in one step.
    visits = tuple(enumerate(draw_switch))

    gated = spec.discipline is Discipline.GATED
    measured = cfg.measured_cycles
    batch_count = cfg.batch_count
    # Measured cycle c falls in batch c * batch_count // measured, so batch
    # b starts at cycle ceil(b * measured / batch_count).  The warm-up runs
    # first as a segment of its own, then each batch.
    starts = [-(-b * measured // batch_count) for b in range(batch_count + 1)]
    lengths = [cfg.warmup_cycles] + [b - a for a, b in zip(starts, starts[1:])]

    t = 0.0
    next_arrival = [draw_arrival[i]() for i in range(n)]
    records = []
    busy = [0.0] * n
    events = 0
    for cycles in lengths:
        if len(records) == 1:  # measurement starts after the warm-up
            t_measure_begin = t
            busy = [0.0] * n
        sums = [0.0] * n
        counts = [0] * n
        for _ in itertools.repeat(None, cycles):
            for i, switch in visits:
                # An empty visit is only its switch-over.  An arrival at
                # the start of a gated visit, its gate, waits a cycle.
                if next_arrival[i] <= t and (next_arrival[i] < t or not gated):
                    arrive = next_arrival[i]
                    next_ia = draw_arrival[i]
                    next_sv = draw_service[i]
                    gate = t if gated else math.inf
                    start = t
                    waited = sums[i]
                    served = 0
                    while arrive <= t and arrive < gate:
                        waited += t - arrive
                        served += 1
                        t += next_sv()
                        arrive += next_ia()
                    sums[i] = waited
                    counts[i] += served
                    events += served
                    next_arrival[i] = arrive
                    busy[i] += t - start
                t += switch()
            events += n
            if events > budget:
                raise NumericalBudget(
                    f"event budget of {budget} exhausted; raise "
                    "max_events or shorten the run"
                )
        records.append((sums, counts))

    # The warm-up's record is dropped; busy and the span run from the
    # start of measurement.
    return records[1:], busy, t - t_measure_begin, events


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


def _check_budget(spec: SystemSpec, cfg: SimConfig, label: str = "") -> None:
    # Refuse a run expected to exceed its event budget; `label` leads the message.
    expected = _expected_events(spec, cfg)
    if expected > cfg.max_events:
        raise NumericalBudget(
            f"{label}run expects about {expected:.2e} events, over the budget of "
            f"{cfg.max_events}; raise max_events or shorten the run"
        )


# The standard normal 0.975 quantile, and the coefficients of the
# Cornish-Fisher expansion of the Student-t quantile in powers of 1/df
# around it: the four terms of Abramowitz & Stegun 26.7.5, then the next.
_Z975 = 1.959963984540054
_Z2 = _Z975 * _Z975
_CORNISH_FISHER = (
    _Z975 * (_Z2 + 1) / 4,
    _Z975 * ((5 * _Z2 + 16) * _Z2 + 3) / 96,
    _Z975 * (((3 * _Z2 + 19) * _Z2 + 17) * _Z2 - 15) / 384,
    _Z975 * ((((79 * _Z2 + 776) * _Z2 + 1482) * _Z2 - 1920) * _Z2 - 945)
    / 92160,
    _Z975
    * (((((27 * _Z2 + 339) * _Z2 + 930) * _Z2 - 1782) * _Z2 - 765) * _Z2
       + 17955)
    / 368640,
)
_SERIES_BELOW_DF = 200  # below this df the expansion is refined by Newton


def _central_probability(t: float, df: int) -> float:
    """P(|T| <= t) for Student's T with integer `df` >= 1.

    The finite series of Abramowitz & Stegun 26.7.3 (odd df) and 26.7.4
    (even df) in theta = atan(t / sqrt(df)).
    """
    cos2 = df / (df + t * t)
    odd = df % 2
    term = t / math.sqrt(df + t * t)  # sin(theta)
    if odd:
        term *= math.sqrt(cos2)  # sin(theta) cos(theta)
    terms = []
    for k in range(1 + odd, df, 2):
        terms.append(term)
        term *= cos2 * k / (k + 1)
    total = math.fsum(terms)
    if odd:
        return 2 / math.pi * (math.atan(t / math.sqrt(df)) + total)
    return total


@functools.lru_cache
def _t975(df: int) -> float:
    """Student-t 0.975 quantile for an integer `df` >= 1.

    The Cornish-Fisher expansion gives it from df 200 up.  Below, Newton
    steps on ``_central_probability(t, df) = 0.95`` refine the expansion's
    value.  For every df from 1 to 5000, and on a log-spaced set up to
    1e9, the result is within 9e-15 relative of scipy's ``stdtrit``.
    """
    t = 0.0
    for g in reversed(_CORNISH_FISHER):
        t = (t + g) / df
    t += _Z975
    if df >= _SERIES_BELOW_DF:
        return t
    log_norm = (
        math.lgamma((df + 1) / 2)
        - math.lgamma(df / 2)
        - 0.5 * math.log(df * math.pi)
    )
    step = math.inf
    # The probability is concave in t, so the steps shrink monotonically
    # until its rounding noise moves t by under 1e-14 relative.
    while abs(step) > 1e-13 * t:
        density = math.exp(log_norm - (df + 1) / 2 * math.log1p(t * t / df))
        step = (_central_probability(t, df) - 0.95) / (2 * density)
        t -= step
    return t


def _half_width(values: list[float]) -> float:
    """Student-t 95% half-width of the mean of two or more `values`.

    The quantile comes from `_t975`, so no simulation imports scipy.
    """
    import numpy as np

    spread = float(np.std(values, ddof=1))
    return _t975(len(values) - 1) * spread / math.sqrt(len(values))


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
    _check_budget(spec, cfg)

    from numpy.random import SeedSequence

    laws = _fit_laws(spec)
    runs = []
    for seed in SeedSequence(cfg.base_seed).spawn(cfg.replications):
        spent = sum(events for *_, events in runs)
        runs.append(_run_replication(spec, laws, cfg, seed, cfg.max_events - spent))

    records, busy_runs, spans, events = zip(*runs)
    queues = range(spec.n)
    counts = [sum(c[i] for run in records for _, c in run) for i in queues]
    # A replication's batches are summed first, then the replications by
    # repeated addition: from Python 3.12 a float sum() compensates
    # rounding, which would change the bits.
    add = functools.partial(functools.reduce, operator.add)
    waits = [add((sum(s[i] for s, _ in run) for run in records), 0.0) for i in queues]
    busy = [add((b[i] for b in busy_runs), 0.0) for i in queues]
    # Only batches that recorded waits have a mean.
    batch_means = [
        [s[i] / c[i] for run in records for s, c in run if c[i]] for i in queues
    ]
    total_span = sum(spans)
    loads = [sum(b) / s for b, s in zip(busy_runs, spans)]

    return SimEstimate(
        mean_wait=tuple(w / c if c else math.nan for w, c in zip(waits, counts)),
        ci_half_width=tuple(
            _half_width(means) if len(means) >= 2 else math.inf
            for means in batch_means
        ),
        mean_queue_length=tuple((w + b) / total_span for w, b in zip(waits, busy)),
        realized_load=sum(sum(b) for b in busy_runs) / total_span,
        realized_load_ci_half_width=(
            _half_width(loads) if len(loads) >= 2 else math.nan
        ),
        samples=sum(counts),
        samples_per_queue=tuple(counts),
        replications=cfg.replications,
        total_events=sum(events),
    )
