"""Mean waiting-time approximations for cyclic polling systems.

The main estimator interpolates between the known light-traffic and
heavy-traffic behaviour of the mean waiting time.  For each queue it builds
three constants ``k0``, ``k1``, ``k2`` and evaluates

    mean_wait(rho) = (k0 + k1*rho + k2*rho**2) / (1 - rho)

so that the value and the slope at ``rho = 0`` match the light-traffic
expansion, and the scaled limit at ``rho = 1`` matches the heavy-traffic
asymptote.  The other methods are deliberately cruder comparators
(single-limit forms and a pseudo-conservation-law split) kept around to
quantify how much each ingredient of the interpolation buys.

All formulas are closed form; nothing here simulates or iterates.  What
does not depend on the load (the moments, the constants and the
heavy-traffic delays) is derived once per system, in one pass over the
queues (`derive_moments`), so each estimate costs a few flops.  A lookup
returns the last record when the queues and discipline are the very objects
of the last lookup, and otherwise derives the record afresh.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .model import (
    DerivedMoments,
    Discipline,
    QueueSpec,
    SystemSpec,
    _choice,
    derive_moments,
)

__all__ = [
    "Method",
    "InterpolationConstants",
    "WaitingTimeResult",
    "mean_wait",
    "pcl_rhs",
    "pcl_residual",
]


class Method(Enum):
    """Available mean waiting-time estimators.

    * ``interpolation``: the light/heavy-traffic interpolation, the
      recommended estimator.
    * ``lt-only``: the light-traffic behaviour alone.  It drops the
      quadratic coefficient of the interpolation numerator, so the value
      and slope at zero load are kept but the scaled heavy-traffic limit
      becomes the light-traffic slope ``k0 + k1`` instead of the true
      scaled delay.  It coincides with the interpolation whenever
      ``k2 == 0`` (e.g. symmetric systems with exponential interarrival
      times).
    * ``ht-only``: the heavy-traffic asymptote alone.
    * ``large-s``: for systems dominated by switch-over times.  It scales
      the total mean switch-over time by the exact large-switch-over-time
      limit of the waiting time: per cycle a customer waits about half the
      cycle, corrected down (exhaustive) or up (gated) by its own queue's
      load.
    * ``pcl-based``: splits the pseudo-conservation-law total over queues,
      proportionally to ``1 - rho_i`` (exhaustive) or ``1 + rho_i``
      (gated).  At zero load the split degenerates to 0/0 and is replaced
      by its continuous limit, the mean residual total switch-over time;
      so is a load at which the split's denominator is subnormal.
    """

    INTERPOLATION = "interpolation"
    LT_ONLY = "lt-only"
    HT_ONLY = "ht-only"
    LARGE_S = "large-s"
    PCL_BASED = "pcl-based"


@dataclass(frozen=True)
class InterpolationConstants:
    """Numerator coefficients of the interpolation for one queue.

    Entry ``i`` of ``WaitingTimeResult.constants`` belongs to queue ``i``.

    ``k0`` equals the mean residual total switch-over time (the zero-load
    waiting time), ``k0 + k1`` equals the light-traffic slope, and
    ``k0 + k1 + k2`` equals the heavy-traffic scaled delay of the queue.
    """

    k0: float
    k1: float
    k2: float


@dataclass(frozen=True)
class WaitingTimeResult:
    """Per-queue mean waiting times and queue lengths for one load point.

    ``heavy_traffic_delay`` holds each queue's mean asymptotic scaled
    delay: the limit of ``(1 - rho) * mean_wait`` as the load approaches
    one.  It does not depend on the load or the method.  ``constants`` is
    populated only by the interpolation method.
    """

    method: Method
    rho: float
    mean_wait: tuple[float, ...]
    mean_queue_length: tuple[float, ...]
    heavy_traffic_delay: tuple[float, ...]
    constants: Optional[tuple[InterpolationConstants, ...]] = None


_SIGN = {Discipline.EXHAUSTIVE: -1.0, Discipline.GATED: 1.0}


def _heavy_traffic_delays(dm: DerivedMoments, sign: float) -> tuple[float, ...]:
    # Every queue's heavy-traffic delay; sign is -1 exhaustive, +1 gated.
    # Exhaustive service empties the queue at every visit, which shrinks the
    # delay by the queue's own load share; gated service defers work by one
    # cycle and grows it.  For a single exhaustive queue the generic ratio
    # degenerates to 0/0 and is replaced by its limit, half the
    # heavy-traffic variance.
    if dm.n == 1 and sign < 0.0:
        return (dm.heavy_traffic_variance / 2.0,)
    fracs = dm.load_fractions
    denom = sum(f * (1.0 + sign * f) for f in fracs)
    scale = dm.heavy_traffic_variance / denom + dm.switchover_mean_total
    return tuple((1.0 + sign * f) / 2.0 * scale for f in fracs)


def _interpolation_constants(
    dm: DerivedMoments, sign: float, delays: tuple[float, ...]
) -> tuple[InterpolationConstants, ...]:
    # k1 is the density correction, the global service residual, and the
    # switch-over variance sum weighted by cyclic load-fraction prefixes
    # starting at the queue, plus the queue's load share of the switch-over
    # residual, less the mean total switch-over time under exhaustive
    # service.  Defining k2 through the heavy-traffic delay makes the scaled
    # limit k0 + k1 + k2 match it up to the rounding of the larger terms.
    n = dm.n
    fracs = dm.load_fractions
    k0 = dm.switchover_residual
    gap = (1.0 - sign) / 2.0 * dm.switchover_mean_total
    constants = []
    for i in range(n):
        slope = (
            fracs[i] * (dm.density_at_zero[i] - 1.0) * dm.service_residuals[i]
            + dm.service_residual_global
        )
        acc = 0.0
        prefix = 0.0
        for j in range(n):
            prefix += fracs[(i + j) % n]
            acc += prefix * dm.switchover_vars[(i + j) % n]
        k1 = slope - acc / dm.switchover_mean_total + fracs[i] * (k0 - gap)
        constants.append(
            InterpolationConstants(k0=k0, k1=k1, k2=delays[i] - k0 - k1)
        )
    return tuple(constants)


@dataclass(frozen=True)
class _System:
    """The load-free part of every closed form for one system.

    It depends on the queues and the discipline only, so one record serves
    every load, and each estimator adds a few flops at ``rho``.
    """

    queues: tuple[QueueSpec, ...]
    dm: DerivedMoments
    sign: float  # -1 exhaustive, +1 gated
    constants: tuple[InterpolationConstants, ...]
    ht_delays: tuple[float, ...]

    def result(self, method: Method, rho: float) -> WaitingTimeResult:
        waits = _WAITS[method](self, rho)
        # Little's law per queue; the arrival rate at load rho is
        # rho / mean_interarrival_at_saturation, and a customer occupies
        # the queue for its waiting plus service time.
        lengths = tuple(
            rho * (w + q.mean_service) / q.mean_interarrival_at_saturation
            for w, q in zip(waits, self.queues)
        )
        constants = self.constants if method is Method.INTERPOLATION else None
        return WaitingTimeResult(
            method, rho, waits, lengths, self.ht_delays, constants
        )

    def interpolation(self, rho: float) -> tuple[float, ...]:
        return tuple(
            (c.k0 + c.k1 * rho + c.k2 * rho * rho) / (1.0 - rho)
            for c in self.constants
        )

    def lt_only(self, rho: float) -> tuple[float, ...]:
        return tuple((c.k0 + c.k1 * rho) / (1.0 - rho) for c in self.constants)

    def ht_only(self, rho: float) -> tuple[float, ...]:
        return tuple(d / (1.0 - rho) for d in self.ht_delays)

    def large_s(self, rho: float) -> tuple[float, ...]:
        total = self.dm.switchover_mean_total
        return tuple(
            total * (1.0 + self.sign * rho * f) / (2.0 * (1.0 - rho))
            for f in self.dm.load_fractions
        )

    def pcl_rhs(self, rho: float) -> float:
        dm = self.dm
        sum_sq = sum((rho * f) * (rho * f) for f in dm.load_fractions)
        # Gated service adds the work gated behind each queue's own gate.
        gated = (1.0 + self.sign) / 2.0 * sum_sq * dm.switchover_mean_total
        return (
            rho * rho / (1.0 - rho) * dm.service_residual_global
            + rho * dm.switchover_residual
            + dm.switchover_mean_total / 2.0 * (rho * rho - sum_sq) / (1.0 - rho)
            + gated / (1.0 - rho)
        )

    def pcl_residual(self, rho: float) -> float:
        weighted = sum(
            rho * f * w
            for f, w in zip(self.dm.load_fractions, self.interpolation(rho))
        )
        return weighted - self.pcl_rhs(rho)

    def pcl_based(self, rho: float) -> tuple[float, ...]:
        loads = tuple(rho * f for f in self.dm.load_fractions)
        # A subnormal denom (about rho) keeps too few bits: the 0/0 limit.
        denom = sum(x * (1.0 + self.sign * x) for x in loads)
        if denom < 2.0**-1022:
            return (self.dm.switchover_residual,) * self.dm.n
        cycle_residual = self.pcl_rhs(rho) / denom
        return tuple((1.0 + self.sign * x) * cycle_residual for x in loads)


_WAITS = {
    Method.INTERPOLATION: _System.interpolation,
    Method.LT_ONLY: _System.lt_only,
    Method.HT_ONLY: _System.ht_only,
    Method.LARGE_S: _System.large_s,
    Method.PCL_BASED: _System.pcl_based,
}


def _derive_system(spec: SystemSpec) -> _System:
    # The record is immutable, so sharing it between callers is safe.
    dm = derive_moments(spec)
    sign = _SIGN[spec.discipline]
    delays = _heavy_traffic_delays(dm, sign)
    constants = _interpolation_constants(dm, sign, delays)
    return _System(spec.queues, dm, sign, constants, delays)


_last = (None, None, None)  # the last lookup's queues, discipline, record


def _system(spec: SystemSpec) -> _System:
    """The load-free record of `spec`'s queues and discipline.

    The very objects of the last lookup (held in `_last`, so no id is
    reused) get its record, since both are immutable; any other description,
    even an equal one such as a reloaded file's, is derived afresh.
    """
    global _last
    queues, discipline, record = _last
    if spec.queues is not queues or spec.discipline is not discipline:
        record = _derive_system(spec)
        _last = (spec.queues, spec.discipline, record)
    return record


def mean_wait(spec: SystemSpec, method: Method) -> WaitingTimeResult:
    """Mean waiting times of every queue by one of the estimators.

    Parameters
    ----------
    spec : SystemSpec
        System description; its ``rho`` selects the load point.
    method : Method or str
        The estimator or its value; ``Method.INTERPOLATION`` is recommended.

    Returns
    -------
    WaitingTimeResult
        Per-queue means, queue lengths and heavy-traffic delays, plus the
        interpolation constants when `method` is the interpolation.
    """
    if not isinstance(method, Method):  # its string value, or no method
        method = _choice(Method, method, "method")
    return _system(spec).result(method, spec.rho)


def pcl_rhs(spec: SystemSpec) -> float:
    """Right-hand side of the pseudo-conservation law.

    The load-weighted sum of mean waiting times in a polling system with
    Poisson arrivals equals this closed form, regardless of how the
    waiting times distribute over queues.
    """
    return _system(spec).pcl_rhs(spec.rho)


def pcl_residual(spec: SystemSpec) -> float:
    """Load-weighted interpolation waits minus the conservation-law value.

    Zero (up to rounding) for Poisson interarrival times; a diagnostic of
    the approximation error otherwise.
    """
    return _system(spec).pcl_residual(spec.rho)
