"""Two-moment distribution fitting.

Interarrival, service and switch-over laws are specified by a mean and a
squared coefficient of variation (scv).  For simulation, and for the
normalized interarrival density at zero that ``DensityMode.EXACT`` (at any
scv) and ``TWO_MOMENT_APPROX`` (above scv 1) take from
``_fitted_density_at_zero``, each pair is mapped onto a concrete
distribution from a small phase-type family:

====================  =====================================
scv                   fitted law
====================  =====================================
0                     deterministic
1                     exponential
> 1                   balanced-means two-phase hyperexponential
0 < scv < 1           mixture of two Erlangs with adjacent shapes
====================  =====================================

The mixture-of-Erlangs fit uses shape ``k = ceil(1/scv)`` and mixes
``Erlang(k-1)`` and ``Erlang(k)`` with a common rate, which matches both
moments exactly for any scv in (0, 1].

The fit is made for scv 0 and for scv in [1e-15, 1e6], where the fitted
law's mean and scv match the targets within 1e-10 relative.  Below 1e-15
the Erlang shape passes 1e15 stages, near where a float stops counting
whole numbers (2**53); above 1e6 the hyperexponential's rare branch, of
probability about ``1/(2 scv)``, is too small for ``prob`` and a drawn
uniform to resolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Optional

from .errors import InvalidInput

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DistKind",
    "FittedDistribution",
    "fit_two_moments",
    "sample_array",
]

# The fitted scv range besides 0; see the module docstring.
_SCV_MIN, _SCV_MAX = 1e-15, 1e6

# ceil(1/scv) is wobbly when 1/scv lands on an integer up to float error,
# e.g. 1/0.2 == 5.000000000000001; nudge before taking the ceiling.
_CEIL_GUARD = 1e-9


class DistKind(Enum):
    DETERMINISTIC = "deterministic"
    EXPONENTIAL = "exponential"
    HYPEREXPONENTIAL = "hyperexponential"
    MIXED_ERLANG = "mixed-erlang"


@dataclass(frozen=True)
class FittedDistribution:
    """A concrete law produced by :func:`fit_two_moments`.

    For ``HYPEREXPONENTIAL``, an exponential of rate ``rate1`` is drawn with
    probability ``prob`` and one of rate ``rate2`` otherwise; the fit is
    balanced in the sense that both branches contribute half the mean.  For
    ``MIXED_ERLANG``, an Erlang with ``shape - 1`` stages is drawn with
    probability ``prob`` and one with ``shape`` stages otherwise, both with
    rate ``rate``.
    """

    kind: DistKind
    mean: float
    scv: float
    prob: Optional[float] = None
    rate1: Optional[float] = None
    rate2: Optional[float] = None
    shape: Optional[int] = None
    rate: Optional[float] = None


def _check_fittable(scv: float, name: str) -> None:
    """Raise unless `fit_two_moments` fits `scv`; the error names `name`."""
    if not (scv == 0.0 or _SCV_MIN <= scv <= _SCV_MAX):
        raise InvalidInput(
            f"{name} must be 0 or in [{_SCV_MIN:g}, {_SCV_MAX:g}] to be fitted, "
            f"got {scv!r}"
        )


def fit_two_moments(mean: float, scv: float) -> FittedDistribution:
    """Fit a distribution to a mean and squared coefficient of variation.

    Parameters
    ----------
    mean : float
        Target mean, must be positive and finite.
    scv : float
        Target squared coefficient of variation: 0, or in [1e-15, 1e6].

    Returns
    -------
    FittedDistribution
        A law whose first two moments match the targets within 1e-10
        relative, and which `sample_array` draws from.

    Raises
    ------
    InvalidInput
        If either target is out of range.
    """
    if not (math.isfinite(mean) and mean > 0.0):
        raise InvalidInput(f"mean must be positive and finite, got {mean!r}")
    _check_fittable(scv, "scv")

    if scv == 0.0:
        return FittedDistribution(DistKind.DETERMINISTIC, mean, 0.0)
    if scv == 1.0:
        return FittedDistribution(DistKind.EXPONENTIAL, mean, 1.0)
    if scv > 1.0:
        # Balanced means: prob/rate1 == (1-prob)/rate2 == mean/2.
        skew = math.sqrt((scv - 1.0) / (scv + 1.0))
        prob = (1.0 + skew) / 2.0
        return FittedDistribution(
            DistKind.HYPEREXPONENTIAL,
            mean,
            scv,
            prob=prob,
            rate1=(1.0 + skew) / mean,
            rate2=(1.0 - skew) / mean,
        )

    shape, prob = _mixed_erlang(scv)
    rate = (shape - prob) / mean
    return FittedDistribution(
        DistKind.MIXED_ERLANG, mean, scv, prob=prob, shape=shape, rate=rate
    )


def _mixed_erlang(scv: float) -> tuple[int, float]:
    # The shape k and the probability of the Erlang(k-1) branch; the rate
    # alone depends on the mean.
    shape = int(math.ceil(1.0 / scv - _CEIL_GUARD))
    disc = shape * (1.0 + scv) - shape * shape * scv
    return shape, (shape * scv - math.sqrt(max(disc, 0.0))) / (1.0 + scv)


def _fitted_density_at_zero(scv: float) -> float:
    """``mean * g(0)``, the normalized density at zero, of the law that
    `fit_two_moments` fits to `scv`.  It is scale free, so it is computed
    from the scv alone, without building the law; laws with no density
    near zero give 0, and the exponential gives 1.
    """
    if scv == 0.0:
        return 0.0
    if scv == 1.0:
        return 1.0
    if scv > 1.0:
        # mean * (prob*rate1 + (1-prob)*rate2) for the balanced fit.
        return 2.0 * scv / (scv + 1.0)
    shape, prob = _mixed_erlang(scv)
    if shape == 1:
        # Degenerate mixture (scv just below 1): exponential.
        return 1.0
    if shape == 2:
        # Only the single-stage branch has density at zero:
        # mean * prob * rate = prob * (2 - prob).  prob can round to a tiny
        # negative value just below a 1/k boundary; clamp.
        return max(0.0, prob * (2.0 - prob))
    return 0.0


def sample_array(
    dist: FittedDistribution, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Draw `size` variates from `dist` as a float64 array."""
    import numpy as np

    if dist.kind is DistKind.DETERMINISTIC:
        return np.full(size, dist.mean)
    if dist.kind is DistKind.EXPONENTIAL:
        return rng.exponential(dist.mean, size)
    if dist.kind is DistKind.HYPEREXPONENTIAL:
        rates = np.where(rng.random(size) < dist.prob, dist.rate1, dist.rate2)
        return rng.exponential(1.0, size) / rates
    shapes = np.where(
        rng.random(size) < dist.prob, dist.shape - 1, dist.shape
    )
    return rng.gamma(shapes, 1.0 / dist.rate, size)
