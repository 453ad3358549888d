"""Checks that only tests need: realized moments of a fitted law, the
mean error of a filtered set of test-bed records, the systems of the
command line's presets, and the v1 document of a system."""

from __future__ import annotations

import dataclasses
from enum import Enum
from typing import Callable, Optional

from pollwait import cli
from pollwait.approx import Method
from pollwait.fitting import DistKind, FittedDistribution
from pollwait.model import Discipline, SystemSpec
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
