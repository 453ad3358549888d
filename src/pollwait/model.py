"""System description for cyclic polling models.

A system is a ring of queues attended by a single server in fixed cyclic
order.  Each queue has renewal arrivals, i.i.d. service times and an
i.i.d. switch-over time that the server incurs when leaving the queue,
whether or not the next queue holds work.

Input laws are given by two moments.  Interarrival times are specified at
saturation: queue loads ``mean_service / mean_interarrival_at_saturation``
must sum to one, and the system is operated at a total load ``rho`` by
stretching every interarrival time by ``1 / rho``.  Service and switch-over
laws do not change with the load.  This makes a single description sweepable
across the whole load range.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .errors import InvalidInput
# fit_two_moments is not called here; it stays a module attribute because
# bench/tracer.py wraps it by name.
from .fitting import (
    _check_fittable,
    _fitted_density_at_zero,
    fit_two_moments,  # noqa: F401
)

__all__ = [
    "Discipline",
    "DensityMode",
    "QueueSpec",
    "SystemSpec",
    "DerivedMoments",
    "derive_moments",
    "scale_to_load",
]

# Tolerance on |sum of load fractions - 1| before a description is rejected.
LOAD_FRACTION_TOL = 1e-9


class Discipline(Enum):
    """Service discipline applied at every queue of the cycle."""

    EXHAUSTIVE = "exhaustive"  # serve until the queue is empty
    GATED = "gated"  # serve only customers present when the visit begins


class DensityMode(Enum):
    """How the normalized interarrival density at zero is obtained.

    The waiting-time constants need the value ``mean * g(0)`` of each
    interarrival law, and ``_density_value`` chooses it.  ``EXACT`` computes
    it for the law ``fit_two_moments`` fits to the scv, at every scv it
    fits.  ``TWO_MOMENT_APPROX`` takes the rule ``scv**4`` up to scv 1 and
    the same fitted value, ``2*scv/(scv + 1)``, above it.  ``USER_VALUE``
    takes ``density_value``, for when the true law is known.
    """

    TWO_MOMENT_APPROX = "two-moment-approx"
    EXACT = "exact"
    USER_VALUE = "user-value"
    # EXACT was once one mode per fitted family.  These aliases stay while
    # the bench workloads still name them.
    EXACT_H2 = EXACT_MIXED_ERLANG = EXACT_EXPONENTIAL = "exact"

    @classmethod
    def _missing_(cls, value):
        # Spec files written with the per-family spellings still load.
        legacy = ("exact-h2", "exact-mixed-erlang", "exact-exponential")
        return cls.EXACT if value in legacy else None


def _number(value, label: str) -> float:
    # Real numbers, numpy scalars among them, but no bools (numpy's bool is
    # not a numbers.Real); plain floats and ints skip the slower check.
    # Only -0.0 and 0.0 are false: -0.0 becomes 0.0, and any other float
    # comes back as the same object.
    kind = type(value)
    if kind is not float and kind is not int and (
        isinstance(value, bool) or not isinstance(value, numbers.Real)
    ):
        raise InvalidInput(f"{label} must be a number, got {value!r}")
    try:
        return float(value) or 0.0
    except OverflowError:
        raise InvalidInput(f"{label} is too large for a float") from None


def _integer(value, label: str) -> int:
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise InvalidInput(f"{label} must be an integer, got {value!r}")
    return operator.index(value)


def _choice(kind: type[Enum], value, label: str) -> Enum:
    try:
        return kind(value)
    except ValueError:
        raise InvalidInput(
            f"{label} must be one of {[m.value for m in kind]}, got {value!r}"
        ) from None


def _store(obj, fields) -> None:
    # Coerce each (label, kind) field of a frozen instance to a float, int,
    # tuple or Enum member.  A value already in stored form, a plain `kind`
    # and nonzero if a float, is exactly what its coercion would return, so
    # it is kept as the object given.
    for label, kind in fields:
        value = getattr(obj, label)
        if type(value) is kind and (kind is not float or value):
            continue
        if kind is float:
            value = _number(value, label)
        elif kind is int:
            value = _integer(value, label)
        elif kind is tuple:
            value = tuple(value)
        else:
            value = _choice(kind, value, label)
        object.__setattr__(obj, label, value)


@dataclass(frozen=True, slots=True)
class QueueSpec:
    """Two-moment description of one queue of the cycle.

    Every scv is 0 or in [1e-15, 1e6], the range `fit_two_moments` fits,
    so the simulator can fit a law to each of the three.

    Parameters
    ----------
    mean_service, scv_service : float
        Mean (> 0) and squared coefficient of variation of the service
        time.
    mean_interarrival_at_saturation, scv_interarrival : float
        Interarrival mean (> 0) when the system is fully loaded, and its
        scv.  The scv is load independent.
    mean_switchover, scv_switchover : float
        Switch-over time incurred when the server leaves this queue.  A
        zero mean denotes no switch-over at this position.
    density_mode : DensityMode
        Source of the normalized interarrival density at zero.
    density_value : float, optional
        The value itself; required (and only allowed) with
        ``DensityMode.USER_VALUE``.
    """

    mean_service: float
    scv_service: float
    mean_interarrival_at_saturation: float
    scv_interarrival: float
    mean_switchover: float
    scv_switchover: float
    density_mode: DensityMode = DensityMode.TWO_MOMENT_APPROX
    density_value: Optional[float] = None

    def __post_init__(self) -> None:
        _store(self, _QUEUE_FIELDS)
        if self.density_value is not None:
            _store(self, (("density_value", float),))
        if not (math.isfinite(self.mean_service) and self.mean_service > 0.0):
            raise InvalidInput(
                f"mean_service must be positive, got {self.mean_service!r}"
            )
        mean_a = self.mean_interarrival_at_saturation
        if not (math.isfinite(mean_a) and mean_a > 0.0):
            raise InvalidInput(
                f"mean_interarrival_at_saturation must be positive, got {mean_a!r}"
            )
        if not self.load_fraction > 0.0:
            raise InvalidInput(
                "load fraction mean_service / mean_interarrival_at_saturation "
                f"must be positive, got {self.mean_service!r} / {mean_a!r}"
            )
        mean_s = self.mean_switchover
        if not (math.isfinite(mean_s) and mean_s >= 0.0):
            raise InvalidInput(f"mean_switchover must be >= 0, got {mean_s!r}")
        for label in ("scv_service", "scv_interarrival", "scv_switchover"):
            _check_fittable(getattr(self, label), label)

        value = self.density_value
        if self.density_mode is DensityMode.USER_VALUE:
            if value is None or not (math.isfinite(value) and value >= 0.0):
                raise InvalidInput(
                    "density_value must be a finite value >= 0 with "
                    f"USER_VALUE, got {value!r}"
                )
        elif value is not None:
            raise InvalidInput(
                "density_value is only allowed with DensityMode.USER_VALUE"
            )

    @property
    def load_fraction(self) -> float:
        """Share of the total load carried by this queue."""
        return self.mean_service / self.mean_interarrival_at_saturation


# The fields _store coerces, but density_value, which may be None.
_QUEUE_FIELDS = [(f.name, float) for f in dataclasses.fields(QueueSpec)[:6]]
_QUEUE_FIELDS.append(("density_mode", DensityMode))
_SYSTEM_FIELDS = (("queues", tuple), ("discipline", Discipline), ("rho", float))


@dataclass(frozen=True, slots=True)
class SystemSpec:
    """A cyclic polling system at a given total load.

    ``queues`` are listed in server visit order; indices elsewhere in the
    package are 0-based positions in this tuple.  ``rho`` is the total
    offered load, 0 <= rho < 1.  At ``rho > 0`` every interarrival mean
    ``mean_interarrival_at_saturation / rho`` must be a finite float, so the
    simulator can fit a law to it.
    """

    queues: tuple[QueueSpec, ...]
    discipline: Discipline
    rho: float

    def __post_init__(self) -> None:
        queues = self.queues
        if not isinstance(queues, (tuple, list)) or not all(
            isinstance(q, QueueSpec) for q in queues
        ):
            raise InvalidInput("queues must be a tuple or list of QueueSpec")
        if not queues:
            raise InvalidInput("a system needs at least one queue")
        _store(self, _SYSTEM_FIELDS)
        rho = self.rho
        if not (math.isfinite(rho) and 0.0 <= rho < 1.0):
            raise InvalidInput(f"rho must satisfy 0 <= rho < 1, got {rho!r}")
        total = sum(q.load_fraction for q in queues)
        if not abs(total - 1.0) <= LOAD_FRACTION_TOL:
            raise InvalidInput(f"load fractions must sum to 1, got {total!r}")
        if not any(q.mean_switchover > 0.0 for q in queues):
            raise InvalidInput(
                "at least one switch-over time must have a positive mean"
            )
        # The simulator draws interarrival times of this mean.
        for pos, q in enumerate(queues):
            mean_a = q.mean_interarrival_at_saturation
            if rho > 0.0 and not math.isfinite(mean_a / rho):
                raise InvalidInput(
                    f"queues[{pos}]: mean_interarrival_at_saturation / rho "
                    f"must be finite, got {mean_a!r} / {rho!r}"
                )

    @property
    def n(self) -> int:
        return len(self.queues)


def scale_to_load(spec: SystemSpec, rho: float) -> SystemSpec:
    """Same system operated at a different total load."""
    return dataclasses.replace(spec, rho=rho)


@dataclass(frozen=True)
class DerivedMoments:
    """Load-free moment aggregates of a system description.

    Everything here depends only on the saturation description, not on the
    operating load, so one instance serves a whole load sweep.

    Attributes
    ----------
    load_fractions : tuple of float
        Per-queue share of the total load; sums to one.
    switchover_mean_total : float
        Mean of the total switch-over time per cycle.
    switchover_vars : tuple of float
        Per-queue switch-over variances.
    switchover_residual : float
        Mean residual of the total switch-over time.
    service_residuals : tuple of float
        Per-queue mean residual service times.
    service_residual_global : float
        Mean residual service time of an arbitrary customer.
    heavy_traffic_variance : float
        Rate-weighted sum of service variances and squared-load-weighted
        interarrival variances; drives the heavy-traffic delay.
    density_at_zero : tuple of float
        Normalized interarrival density values at zero.
    """

    load_fractions: tuple[float, ...]
    switchover_mean_total: float
    switchover_vars: tuple[float, ...]
    switchover_residual: float
    service_residuals: tuple[float, ...]
    service_residual_global: float
    heavy_traffic_variance: float
    density_at_zero: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.load_fractions)


def _density_value(queue: QueueSpec) -> float:
    mode, scv = queue.density_mode, queue.scv_interarrival
    if mode is DensityMode.USER_VALUE:
        return queue.density_value
    if mode is DensityMode.TWO_MOMENT_APPROX and scv <= 1.0:
        return scv**4
    # Above scv 1 the two-moment rule is the fitted law's own value.
    return _fitted_density_at_zero(scv)


def derive_moments(spec: SystemSpec) -> DerivedMoments:
    """Compute the moment aggregates the approximations are built from.

    One pass over the queues collects each queue's terms; each aggregate is
    then the sum of its terms.  Only ``spec.queues`` is read.

    Parameters
    ----------
    spec : SystemSpec
        A validated system description.

    Returns
    -------
    DerivedMoments

    Raises
    ------
    InvalidInput
        If a moment aggregate overflows a float.  The message names the
        first queue whose own terms overflow, if there is one.
    """
    try:
        dm = _derive_moments(spec.queues)
    except OverflowError:  # ``**`` raises; a product overflows to inf
        dm = None
    # The aggregates are non-negative: their sum is finite only if each is.
    if dm is None or not math.isfinite(
        dm.switchover_residual
        + dm.service_residual_global
        + dm.heavy_traffic_variance
        + sum(dm.service_residuals)
    ):
        raise InvalidInput(_overflow_message(spec.queues))
    return dm


def _overflow_message(queues: tuple[QueueSpec, ...]) -> str:
    message = "moment aggregates overflow a float"
    for pos, q in enumerate(queues):
        try:
            finite = all(map(math.isfinite, _queue_terms(q)))
        except OverflowError:
            finite = False
        if not finite:
            return f"queues[{pos}]: {message}"
    return message


def _queue_terms(q: QueueSpec) -> tuple[float, ...]:
    # One queue's term of every aggregate: load fraction, switch-over mean
    # and variance, service residual, its terms of the second and first
    # service moment rates and of the heavy-traffic variance, and its
    # density value.
    mean_s, scv_s = q.mean_service, q.scv_service
    mean_a, scv_a = q.mean_interarrival_at_saturation, q.scv_interarrival
    rate = 1.0 / mean_a
    fraction = mean_s / mean_a
    square_s = mean_s**2
    return (
        fraction,
        q.mean_switchover,
        q.scv_switchover * q.mean_switchover**2,
        (1.0 + scv_s) * mean_s / 2.0,
        rate * (1.0 + scv_s) * square_s,
        rate * mean_s,
        rate * (scv_s * square_s + fraction * fraction * scv_a * mean_a**2),
        _density_value(q),
    )


def _derive_moments(queues: tuple[QueueSpec, ...]) -> DerivedMoments:
    # sum() over the collected terms gives the bits of a sum() over the
    # queues; a += loop would not from Python 3.12 on, whose float sum()
    # compensates rounding.
    fractions, sw_means, sw_vars, residuals, second, first, ht, density = (
        zip(*map(_queue_terms, queues))
    )
    sw_total = sum(sw_means)
    sw_var_total = sum(sw_vars)
    # E[S_res] = E[S^2] / (2 E[S]) for the total switch-over time per cycle.
    sw_residual = (sw_var_total + sw_total**2) / (2.0 * sw_total)
    return DerivedMoments(
        load_fractions=fractions,
        switchover_mean_total=sw_total,
        switchover_vars=sw_vars,
        switchover_residual=sw_residual,
        service_residuals=residuals,
        service_residual_global=sum(second) / (2.0 * sum(first)),
        heavy_traffic_variance=sum(ht),
        density_at_zero=density,
    )
