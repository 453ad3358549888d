"""Tests for system descriptions and derived moment aggregates."""

import math
import pickle

import numpy as np
import pytest

from pollwait import (
    DensityMode,
    Discipline,
    InvalidInput,
    Method,
    QueueSpec,
    SimConfig,
    SystemSpec,
    TestBedCase,
    density_at_zero,
    derive_moments,
    fit_two_moments,
    mean_wait,
    scale_to_load,
    simulate,
    standard_bed,
)
from pollwait.testbed import materialize_case

from _helpers import reference_moments


def make_queue(**overrides):
    # A queue carrying half the load; two of them form a valid system.
    fields = dict(
        mean_service=1.0,
        scv_service=1.0,
        mean_interarrival_at_saturation=2.0,
        scv_interarrival=1.0,
        mean_switchover=1.0,
        scv_switchover=1.0,
    )
    fields.update(overrides)
    return QueueSpec(**fields)


def three_queue_mixed(discipline=Discipline.EXHAUSTIVE, rho=0.5):
    queues = (
        QueueSpec(1.0, 0.5, 6.0, 3.0, 1.0, 1.0, DensityMode.EXACT_H2),
        QueueSpec(2.0, 1.0, 6.0, 1.0, 0.5, 0.25, DensityMode.EXACT_EXPONENTIAL),
        QueueSpec(3.0, 2.0, 6.0, 0.25, 2.0, 0.0, DensityMode.EXACT_MIXED_ERLANG),
    )
    return SystemSpec(queues=queues, discipline=discipline, rho=rho)


def test_load_fraction():
    assert make_queue().load_fraction == 0.5
    assert make_queue(mean_interarrival_at_saturation=4.0).load_fraction == 0.25


def test_queue_moment_validation():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InvalidInput, match="mean_service must be positive"):
            make_queue(mean_service=bad)
        with pytest.raises(InvalidInput, match="mean_interarrival_at_saturation must be"):
            make_queue(mean_interarrival_at_saturation=bad)
    with pytest.raises(InvalidInput, match="mean_switchover must be >= 0"):
        make_queue(mean_switchover=-0.5)
    fitted = r"must be 0 or in \[1e-15, 1e\+06\] to be fitted, got"
    for label in ("scv_service", "scv_interarrival", "scv_switchover"):
        with pytest.raises(InvalidInput, match=f"{label} {fitted} -0.1"):
            make_queue(**{label: -0.1})
        with pytest.raises(InvalidInput, match=f"{label} {fitted} nan"):
            make_queue(**{label: math.nan})
    # Zero switch-over mean is allowed at queue level.
    make_queue(mean_switchover=0.0, scv_switchover=0.0)


def test_queue_load_fraction_must_be_positive():
    # Both means are valid, but their ratio underflows to zero, so the
    # fractions 1.0 and 0.0 of this pair would sum to one.
    with pytest.raises(InvalidInput, match="5e-324 / 2.0"):
        make_queue(mean_service=5e-324)


def test_density_mode_compatibility():
    # The value is required with USER_VALUE and forbidden otherwise.
    with pytest.raises(InvalidInput, match="density_value must be a finite value >= 0"):
        make_queue(density_mode=DensityMode.USER_VALUE)
    with pytest.raises(InvalidInput, match="density_value must be a finite value >= 0"):
        make_queue(density_mode=DensityMode.USER_VALUE, density_value=-1.0)
    with pytest.raises(InvalidInput, match="density_value is only allowed"):
        make_queue(density_value=0.5)
    make_queue(density_mode=DensityMode.USER_VALUE, density_value=0.8)
    make_queue(scv_interarrival=1.0, density_mode=DensityMode.EXACT_MIXED_ERLANG)


def test_enum_fields_take_their_string_values():
    # A spec file names each enum member by its value; the constructors
    # read that value as the member itself.
    def build(mode, discipline):
        queues = (
            make_queue(scv_interarrival=0.5, density_mode=mode),
            make_queue(scv_interarrival=3.0),
        )
        return SystemSpec(queues=queues, discipline=discipline, rho=0.5)

    members = build(DensityMode.TWO_MOMENT_APPROX, Discipline.GATED)
    strings = build("two-moment-approx", "gated")
    assert strings == members
    assert strings.queues[0].density_mode is DensityMode.TWO_MOMENT_APPROX
    assert strings.discipline is Discipline.GATED
    assert derive_moments(strings) == derive_moments(members)
    assert derive_moments(strings).density_at_zero[0] == 0.5**4
    for method in Method:
        assert mean_wait(strings, method) == mean_wait(members, method)
    cfg = SimConfig(
        warmup_cycles=200, measured_cycles=2_000, replications=2, batch_count=10
    )
    assert simulate(strings, cfg) == simulate(members, cfg)


def test_density_modes_and_legacy_spellings():
    assert list(DensityMode) == [
        DensityMode.TWO_MOMENT_APPROX,
        DensityMode.EXACT,
        DensityMode.USER_VALUE,
    ]
    for legacy in ("exact-h2", "exact-mixed-erlang", "exact-exponential"):
        assert DensityMode(legacy) is DensityMode.EXACT
    assert DensityMode.EXACT_H2 is DensityMode.EXACT
    with pytest.raises(ValueError):
        DensityMode("exact-erlang")


@pytest.mark.parametrize("scv", [0.0, 0.5, 1.0, 3.0])
def test_exact_density_is_the_fitted_law_at_every_scv(scv):
    # Any scv is valid with EXACT, including 0 (a deterministic law).
    queue = make_queue(
        mean_interarrival_at_saturation=2.0,
        scv_interarrival=scv,
        density_mode=DensityMode.EXACT,
    )
    spec = SystemSpec((queue, queue), Discipline.EXHAUSTIVE, 0.5)
    expected = density_at_zero(fit_two_moments(2.0, scv))
    assert derive_moments(spec).density_at_zero == (expected, expected)


def test_system_load_range():
    queues = (make_queue(), make_queue())
    for rho in (1.0, 1.5, -0.1, math.nan):
        with pytest.raises(InvalidInput, match="rho must satisfy 0 <= rho < 1"):
            SystemSpec(queues=queues, discipline=Discipline.EXHAUSTIVE, rho=rho)
    # Zero load is a valid closed-form evaluation point.
    SystemSpec(queues=queues, discipline=Discipline.EXHAUSTIVE, rho=0.0)


def test_system_interarrival_mean_at_load_must_be_finite():
    # The simulator fits a law to mean_interarrival_at_saturation / rho, so
    # a load at which that quotient overflows is rejected with the queue.
    huge = make_queue(mean_service=1e308, mean_interarrival_at_saturation=1e308)
    with pytest.raises(InvalidInput) as exc:
        SystemSpec((huge,), "gated", 0.5)
    assert str(exc.value) == (
        "queues[0]: mean_interarrival_at_saturation / rho must be finite, "
        "got 1e+308 / 0.5"
    )
    # At zero load nothing arrives, so nothing is drawn.
    SystemSpec((huge,), "gated", 0.0)
    # The message names the first queue whose quotient overflows.
    light = make_queue(mean_service=0.5, mean_interarrival_at_saturation=1.0)
    heavy = make_queue(mean_service=1e307, mean_interarrival_at_saturation=2e307)
    message = r"^queues\[1\]: .* got 2e\+307 / 0\.1$"
    with pytest.raises(InvalidInput, match=message):
        SystemSpec((light, heavy), "exhaustive", 0.1)
    # Just inside the float range the system is valid and can be simulated.
    spec = SystemSpec((light, heavy), "exhaustive", 0.2)
    cfg = SimConfig(
        warmup_cycles=10, measured_cycles=200, replications=2, batch_count=2
    )
    assert simulate(spec, cfg).samples_per_queue[1] == 0


def test_system_load_fractions_must_sum_to_one():
    with pytest.raises(InvalidInput, match="load fractions must sum to 1"):
        SystemSpec(
            queues=(make_queue(), make_queue(mean_interarrival_at_saturation=4.0)),
            discipline=Discipline.EXHAUSTIVE,
            rho=0.5,
        )
    # A drift of 5e-10 is inside the acceptance tolerance, 5e-9 is not.
    near = make_queue(mean_interarrival_at_saturation=1.0 / (0.5 + 5e-10))
    SystemSpec(queues=(make_queue(), near), discipline=Discipline.GATED, rho=0.5)
    off = make_queue(mean_interarrival_at_saturation=1.0 / (0.5 + 5e-9))
    with pytest.raises(InvalidInput, match="load fractions must sum to 1"):
        SystemSpec(queues=(make_queue(), off), discipline=Discipline.GATED, rho=0.5)


def test_system_requires_some_switchover():
    silent = make_queue(mean_switchover=0.0, scv_switchover=0.0)
    with pytest.raises(InvalidInput, match="at least one switch-over time"):
        SystemSpec(queues=(silent, silent), discipline=Discipline.EXHAUSTIVE, rho=0.3)
    # One positive switch-over anywhere in the cycle is enough.
    SystemSpec(queues=(silent, make_queue()), discipline=Discipline.EXHAUSTIVE, rho=0.3)


def test_system_needs_a_queue():
    with pytest.raises(InvalidInput, match="^a system needs at least one queue$"):
        SystemSpec((), "gated", 0.5)


def test_numpy_scalars_are_numbers():
    # numpy integer and floating scalars pass every float field, as int and
    # float do, and are stored as float; numpy's bool fails, as bool does.
    plain = SystemSpec((make_queue(), make_queue()), Discipline.GATED, 0.5)
    numpy_queues = (
        make_queue(mean_switchover=np.int64(1), scv_service=np.float32(1.0)),
        make_queue(mean_service=np.float16(1.0), scv_switchover=np.uint8(1)),
    )
    spec = SystemSpec(numpy_queues, Discipline.GATED, np.float32(0.5))
    assert spec == plain
    assert type(spec.rho) is float
    assert all(type(q.mean_switchover) is float for q in spec.queues)
    case = TestBedCase(2, np.float32(0.5), np.int64(1), 1, 1, 1, 1, np.int32(2))
    assert case == TestBedCase(2, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0)
    assert type(case.scv_interarrival) is float
    for bad in (True, np.True_):
        with pytest.raises(InvalidInput, match="mean_switchover must be a number"):
            make_queue(mean_switchover=bad)
        with pytest.raises(InvalidInput, match="rho must be a number"):
            TestBedCase(2, bad, 1, 1, 1, 1, 1, 1)


def test_plain_floats_are_stored_as_given():
    value = 0.1 * 3.0  # a float made at run time, not a shared constant
    queue = make_queue(mean_switchover=value, scv_service=value)
    assert queue.mean_switchover is value and queue.scv_service is value
    assert SystemSpec((queue, make_queue()), Discipline.GATED, value).rho is value
    assert TestBedCase(2, value, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0).rho is value


def test_descriptions_pickle_and_hold_no_instance_dict():
    # run_comparison sends cases to its worker processes by pickling them.
    case = TestBedCase(3, 0.5, 2.0, 0.25, 1.0, 5.0, 1.0, 5.0)
    spec = three_queue_mixed()
    for value in (spec.queues[0], spec, case):
        assert pickle.loads(pickle.dumps(value)) == value
        assert not hasattr(value, "__dict__")


def test_queues_coerced_to_tuple():
    spec = SystemSpec(
        queues=[make_queue(), make_queue()],
        discipline=Discipline.EXHAUSTIVE,
        rho=0.5,
    )
    assert isinstance(spec.queues, tuple)
    assert spec.n == 2


def test_scale_to_load():
    spec = three_queue_mixed(rho=0.5)
    scaled = scale_to_load(spec, 0.9)
    assert scaled.rho == 0.9
    assert scaled.queues == spec.queues
    assert scaled.discipline is spec.discipline
    with pytest.raises(InvalidInput, match="rho must satisfy 0 <= rho < 1"):
        scale_to_load(spec, 1.0)


def test_derived_moments_hand_values():
    dm = derive_moments(three_queue_mixed())
    assert dm.n == 3
    np.testing.assert_allclose(dm.load_fractions, (1 / 6, 1 / 3, 1 / 2), rtol=1e-15)
    assert math.isclose(dm.switchover_mean_total, 3.5, rel_tol=1e-15)
    np.testing.assert_allclose(dm.switchover_vars, (1.0, 1 / 16, 0.0), atol=1e-18)
    assert math.isclose(dm.switchover_residual, 213 / 112, rel_tol=1e-14)
    np.testing.assert_allclose(dm.service_residuals, (0.75, 2.0, 4.5), rtol=1e-15)
    assert math.isclose(dm.service_residual_global, 73 / 24, rel_tol=1e-14)
    assert math.isclose(dm.heavy_traffic_variance, 127 / 24, rel_tol=1e-14)
    np.testing.assert_allclose(dm.density_at_zero, (1.5, 1.0, 0.0), rtol=1e-14)


def test_derived_moments_ignore_operating_load():
    low = derive_moments(three_queue_mixed(rho=0.1))
    high = derive_moments(three_queue_mixed(rho=0.95))
    assert low == high


@pytest.mark.parametrize(
    "overrides",
    [
        # A square of a finite float overflows and ``**`` raises.
        dict(mean_switchover=1e200),
        dict(mean_service=1e200, mean_interarrival_at_saturation=2e200),
        # A product overflows to inf without raising.
        dict(mean_switchover=1e154, scv_switchover=1e6),
        dict(
            mean_service=1e154,
            mean_interarrival_at_saturation=2e154,
            scv_service=1e6,
        ),
    ],
    ids=["switchover-square", "service-square", "switchover-var", "service-var"],
)
def test_derived_moments_reject_overflow(overrides):
    spec = SystemSpec((make_queue(**overrides), make_queue()), Discipline.GATED, 0.5)
    with pytest.raises(InvalidInput, match="overflow"):
        derive_moments(spec)


def test_overflow_names_the_first_queue_whose_terms_overflow():
    third = dict(mean_interarrival_at_saturation=3.0)
    huge = make_queue(mean_switchover=1e200, **third)
    spec = SystemSpec((make_queue(**third), huge, huge), Discipline.GATED, 0.5)
    with pytest.raises(InvalidInput) as exc:
        derive_moments(spec)
    assert str(exc.value) == "queues[1]: moment aggregates overflow a float"
    # Every term finite, only their total's square overflows: no queue is
    # at fault, and the message names none.
    wide = make_queue(mean_switchover=1e154, scv_switchover=0.0)
    with pytest.raises(InvalidInput) as exc:
        derive_moments(SystemSpec((wide, wide), Discipline.GATED, 0.5))
    assert str(exc.value) == "moment aggregates overflow a float"


def test_derived_moments_match_the_reference_on_the_standard_bed():
    # One pass over the queues gives the bits of one sum per aggregate.
    for case in standard_bed():
        for discipline in Discipline:
            spec = materialize_case(case, discipline)
            assert derive_moments(spec) == reference_moments(spec)


def test_density_modes_feed_derived_values():
    user = make_queue(density_mode=DensityMode.USER_VALUE, density_value=0.37)
    approx = make_queue(scv_interarrival=0.5)  # rule value 0.5**4
    spec = SystemSpec(
        queues=(user, approx), discipline=Discipline.EXHAUSTIVE, rho=0.4
    )
    dm = derive_moments(spec)
    assert dm.density_at_zero[0] == 0.37
    assert dm.density_at_zero[1] == 0.5**4


def test_poisson_variance_identity():
    # With exponential interarrival times everywhere, the heavy-traffic
    # variance collapses to the global second service moment over the mean:
    # twice the global mean residual service time.
    rng = np.random.default_rng(19)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        fractions = rng.dirichlet(np.ones(n)) if n > 1 else np.array([1.0])
        queues = []
        for i in range(n):
            mean_b = float(rng.uniform(0.2, 3.0))
            queues.append(
                QueueSpec(
                    mean_service=mean_b,
                    scv_service=float(rng.uniform(0.0, 3.0)),
                    mean_interarrival_at_saturation=mean_b / float(fractions[i]),
                    scv_interarrival=1.0,
                    mean_switchover=float(rng.uniform(0.1, 2.0)),
                    scv_switchover=float(rng.uniform(0.0, 2.0)),
                    density_mode=DensityMode.EXACT_EXPONENTIAL,
                )
            )
        spec = SystemSpec(
            queues=tuple(queues),
            discipline=Discipline.EXHAUSTIVE,
            rho=float(rng.uniform(0.05, 0.95)),
        )
        dm = derive_moments(spec)
        assert math.isclose(
            dm.heavy_traffic_variance,
            2.0 * dm.service_residual_global,
            rel_tol=1e-12,
        )
