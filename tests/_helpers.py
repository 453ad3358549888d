"""Checks that only tests need: realized moments and the density at zero
of a fitted law, the mean error of a filtered set of test-bed records, the systems of the
command line's presets, the v1 document of a system, and a reference
derivation of a system's moment aggregates."""

from __future__ import annotations

import dataclasses
from enum import Enum
from typing import Callable, Optional

from pollwait import cli
from pollwait.approx import Method
from pollwait.fitting import (
    DistKind,
    FittedDistribution,
    density_at_zero_two_moment_approx,
    fit_two_moments,
)
from pollwait.model import DensityMode, DerivedMoments, Discipline, SystemSpec
from pollwait.testbed import ErrorRecord, ErrorReport, _mean


def realized_moments(dist: FittedDistribution) -> tuple[float, float]:
    """Mean and scv recomputed from the concrete parameters of `dist`."""
    if dist.kind is DistKind.DETERMINISTIC:
        return dist.mean, 0.0
    if dist.kind is DistKind.EXPONENTIAL:
        return dist.mean, 1.0
    if dist.kind is DistKind.HYPEREXPONENTIAL:
        m1 = dist.prob / dist.rate1 + (1.0 - dist.prob) / dist.rate2
        m2 = 2.0 * (
            dist.prob / dist.rate1**2 + (1.0 - dist.prob) / dist.rate2**2
        )
        return m1, m2 / m1**2 - 1.0
    # Mixed Erlang: E[X] = (k - p)/mu, Var[X] = (k - p^2)/mu^2.
    k, p, mu = dist.shape, dist.prob, dist.rate
    mean = (k - p) / mu
    var = (k - p * p) / (mu * mu)
    return mean, var / (mean * mean)


def law_density_at_zero(dist: FittedDistribution) -> float:
    """``mean * g(0)`` read from the kind and parameters of `dist`, in the
    same float operations as the fitted law's own branches."""
    if dist.kind is DistKind.DETERMINISTIC:
        return 0.0
    if dist.kind is DistKind.EXPONENTIAL:
        return 1.0
    if dist.kind is DistKind.HYPEREXPONENTIAL:
        return 2.0 * dist.scv / (dist.scv + 1.0)
    if dist.shape == 1:
        return 1.0
    if dist.shape == 2:
        # Only the one-stage branch has density at zero.
        return max(0.0, dist.prob * (2.0 - dist.prob))
    return 0.0


def mean_abs_error(
    report: ErrorReport,
    method: Method,
    predicate: Optional[Callable[[ErrorRecord], bool]] = None,
) -> float:
    """Mean absolute relative error in percent over the method's records
    that pass `predicate`, summed in record order; nan when there are none."""
    errors = [
        abs(r.rel_err)
        for r in report.records
        if r.method is method and (predicate is None or predicate(r))
    ]
    return _mean(errors)


def preset_spec(
    name: str, rho: float, discipline: Optional[Discipline] = None
) -> SystemSpec:
    """The system of ``--preset name`` at load `rho`, read as the command
    line reads it; `discipline` overrides the preset's exhaustive service."""
    return cli._spec_from_document(cli._PRESETS[name], rho, discipline)


def spec_to_dict(spec: SystemSpec) -> dict:
    """JSON-serializable v1 form of a system description."""
    queues = [
        {
            key: value.value if isinstance(value, Enum) else value
            for key, value in dataclasses.asdict(q).items()
            if value is not None
        }
        for q in spec.queues
    ]
    return {
        "version": cli.SCHEMA_VERSION,
        "discipline": spec.discipline.value,
        "rho": spec.rho,
        "queues": queues,
    }


def reference_moments(spec: SystemSpec) -> DerivedMoments:
    """`derive_moments` as one generator over the queues per aggregate,
    with the density of a law fitted to each queue; the program's one-pass
    derivation must give the same bits."""
    queues = spec.queues
    load_fractions = tuple(q.load_fraction for q in queues)
    rates = tuple(1.0 / q.mean_interarrival_at_saturation for q in queues)

    sw_means = tuple(q.mean_switchover for q in queues)
    sw_vars = tuple(
        q.scv_switchover * q.mean_switchover**2 for q in queues
    )
    sw_total = sum(sw_means)
    sw_var_total = sum(sw_vars)
    sw_residual = (sw_var_total + sw_total**2) / (2.0 * sw_total)

    service_residuals = tuple(
        (1.0 + q.scv_service) * q.mean_service / 2.0 for q in queues
    )
    second_moment_rate = sum(
        r * (1.0 + q.scv_service) * q.mean_service**2
        for r, q in zip(rates, queues)
    )
    first_moment_rate = sum(
        r * q.mean_service for r, q in zip(rates, queues)
    )
    service_residual_global = second_moment_rate / (2.0 * first_moment_rate)

    ht_variance = sum(
        r
        * (
            q.scv_service * q.mean_service**2
            + f * f * q.scv_interarrival * q.mean_interarrival_at_saturation**2
        )
        for r, f, q in zip(rates, load_fractions, queues)
    )

    def density(q):
        if q.density_mode is DensityMode.TWO_MOMENT_APPROX:
            return density_at_zero_two_moment_approx(q.scv_interarrival)
        if q.density_mode is DensityMode.USER_VALUE:
            return q.density_value
        fitted = fit_two_moments(
            q.mean_interarrival_at_saturation, q.scv_interarrival
        )
        return law_density_at_zero(fitted)

    return DerivedMoments(
        load_fractions=load_fractions,
        switchover_mean_total=sw_total,
        switchover_vars=sw_vars,
        switchover_residual=sw_residual,
        service_residuals=service_residuals,
        service_residual_global=service_residual_global,
        heavy_traffic_variance=ht_variance,
        density_at_zero=tuple(density(q) for q in queues),
    )
