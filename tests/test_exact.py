"""Checks of the exact Poisson solve in `_exact` against independent theory.

The solve itself is the reference that finds the test-bed cases on which the
interpolation is exact, so each check here compares it with something it
does not compute: the pseudo-conservation law over whole systems, the
light- and heavy-traffic limits that the interpolation's constants are built
from, queue by queue, and the simulator.

Examples are drawn deterministically (``derandomize=True``), so the suite
runs the same cases every time.
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from pollwait import (
    Discipline,
    Method,
    QueueSpec,
    SimConfig,
    SystemSpec,
    mean_wait,
    pcl_rhs,
    scale_to_load,
    simulate,
)
from pollwait.testbed import high_variation_poisson_bed, standard_bed

from _exact import exact_mean_wait
from _helpers import poisson_case_waits, preset_spec


@pytest.mark.parametrize("discipline", list(Discipline), ids=lambda d: d.value)
@pytest.mark.parametrize(
    "bed", [standard_bed, high_variation_poisson_bed], ids=["standard", "high-variation"]
)
def test_exact_waits_meet_the_conservation_law(bed, discipline):
    for spec, waits in poisson_case_waits(bed, discipline).values():
        loads = [spec.rho * q.load_fraction for q in spec.queues]
        weighted = sum(r * w for r, w in zip(loads, waits))
        rhs = pcl_rhs(spec)
        assert abs(weighted - rhs) <= 1e-12 * rhs, spec


_SCVS = st.sampled_from([0.0, 0.25, 1.0, 2.0, 5.0])


@st.composite
def poisson_systems(draw):
    """A Poisson system of 2-5 queues at zero load, with service means over
    0.05-20 and each switch-over mean 0, 0.01, 0.1, 1 or 10 times its
    queue's service mean."""
    n = draw(st.integers(2, 5))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    total = sum(weights)
    queues = []
    for w in weights:
        mean_service = draw(st.floats(0.05, 20.0))
        ratio = draw(st.sampled_from([0.0, 0.01, 0.1, 1.0, 10.0]))
        queues.append(
            QueueSpec(
                mean_service=mean_service,
                scv_service=draw(_SCVS),
                mean_interarrival_at_saturation=mean_service * total / w,
                scv_interarrival=1.0,
                mean_switchover=ratio * mean_service,
                scv_switchover=draw(_SCVS),
            )
        )
    assume(any(q.mean_switchover > 0.0 for q in queues))
    return SystemSpec(tuple(queues), draw(st.sampled_from(list(Discipline))), 0.0)


@settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(poisson_systems())
def test_exact_waits_meet_the_light_and_heavy_traffic_limits(spec):
    result = mean_wait(spec, Method.INTERPOLATION)
    at_zero = exact_mean_wait(spec)
    step = 1e-6
    near = exact_mean_wait(scale_to_load(spec, step))
    half = exact_mean_wait(scale_to_load(spec, step / 2.0))
    heavy = 1.0 - 1e-5
    loaded = exact_mean_wait(scale_to_load(spec, heavy))
    for i, c in enumerate(result.constants):
        assert abs(at_zero[i] - c.k0) <= 1e-12 * c.k0
        # One-sided difference quotients at the step and half of it,
        # extrapolated to remove the curvature term.  Where the slope is
        # small next to k0, that term alone came to 9.5e-4 of the slope at
        # a step of 1e-6, too close to the bound to test the slope.
        slope = (
            2.0 * (half[i] - at_zero[i]) / (step / 2.0)
            - (near[i] - at_zero[i]) / step
        )
        assert abs(slope - (c.k0 + c.k1)) <= 1e-3 * abs(c.k0 + c.k1)
        omega = result.heavy_traffic_delay[i]
        assert abs((1.0 - heavy) * loaded[i] - omega) <= 1e-3 * omega


# Off the test-bed grid: the preset's switch-over/service ratio is 0.2,
# where the interpolation is up to a quarter off.
@pytest.mark.parametrize("rho", [0.5, 0.9])
@pytest.mark.parametrize("discipline", list(Discipline), ids=lambda d: d.value)
def test_simulation_matches_the_exact_waits(discipline, rho):
    spec = preset_spec("small-switchover", rho, discipline)
    cfg = SimConfig(
        warmup_cycles=8_000,
        measured_cycles=40_000,
        replications=2,
        base_seed=31,
    )
    estimate = simulate(spec, cfg)
    for sim, half_width, exact in zip(
        estimate.mean_wait, estimate.ci_half_width, exact_mean_wait(spec)
    ):
        assert abs(sim - exact) <= 3.0 * half_width
