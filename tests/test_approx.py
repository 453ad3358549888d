"""Tests for the closed-form waiting-time estimators.

The interpolation constants are checked three ways: against values derived
by hand in exact rational arithmetic for a fixed asymmetric system, against
a from-scratch reference implementation of the light-traffic expansion, and
against closed forms known to be exact (vacation model, symmetric systems,
the conservation law, the large switch-over limit).
"""

import math
import re

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
    approx,
    derive_moments,
    mean_wait,
    pcl_residual,
    pcl_rhs,
    run_comparison,
    scale_to_load,
)
from pollwait.cli import main

from _helpers import reference_value_and_slope

EXH = Discipline.EXHAUSTIVE
GAT = Discipline.GATED
INTERP = Method.INTERPOLATION


def three_queue_mixed(discipline=EXH, rho=0.5):
    """Asymmetric reference system exercising every density branch."""
    queues = (
        QueueSpec(1.0, 0.5, 6.0, 3.0, 1.0, 1.0, DensityMode.EXACT_H2),
        QueueSpec(2.0, 1.0, 6.0, 1.0, 0.5, 0.25, DensityMode.EXACT_EXPONENTIAL),
        QueueSpec(3.0, 2.0, 6.0, 0.25, 2.0, 0.0, DensityMode.EXACT_MIXED_ERLANG),
    )
    return SystemSpec(queues=queues, discipline=discipline, rho=rho)


# Constants for three_queue_mixed derived by hand and confirmed in exact
# rational arithmetic.  Shared aggregates: total switch-over mean 7/2 and
# variance 17/16, residual 213/112; global residual service time 73/24;
# heavy-traffic variance 127/24; density values (3/2, 1, 0).
EXPECTED_CONSTANTS = {
    EXH: (
        (213 / 112, 89 / 32, 2833 / 7392),
        (213 / 112, 745 / 336, -61 / 924),
        (213 / 112, -145 / 672, 10007 / 7392),
    ),
    GAT: (
        (213 / 112, 323 / 96, -16837 / 16800),
        (213 / 112, 379 / 112, -433 / 1050),
        (213 / 112, 1031 / 672, 34381 / 16800),
    ),
}

EXPECTED_HT_DELAY = {
    EXH: (2675 / 528, 535 / 132, 535 / 176),
    GAT: (5117 / 1200, 731 / 150, 2193 / 400),
}


def random_system(rng, discipline, poisson=False, n=None):
    n = int(rng.integers(1, 7)) if n is None else n
    fractions = rng.dirichlet(np.ones(n)) if n > 1 else np.array([1.0])
    queues = []
    for i in range(n):
        mean_b = float(rng.uniform(0.2, 2.5))
        scv_a = 1.0 if poisson else float(rng.uniform(0.05, 3.0))
        mean_s = float(rng.uniform(0.3, 2.0)) if i == 0 else float(rng.uniform(0.0, 1.5))
        queues.append(
            QueueSpec(
                mean_service=mean_b,
                scv_service=float(rng.uniform(0.05, 3.0)),
                mean_interarrival_at_saturation=mean_b / float(fractions[i]),
                scv_interarrival=scv_a,
                mean_switchover=mean_s,
                scv_switchover=float(rng.uniform(0.0, 2.0)) if mean_s > 0 else 0.0,
                density_mode=DensityMode.EXACT,
            )
        )
    return SystemSpec(
        queues=tuple(queues),
        discipline=discipline,
        rho=float(rng.uniform(0.05, 0.95)),
    )


def test_constants_match_exact_rationals():
    for disc in (EXH, GAT):
        constants = mean_wait(three_queue_mixed(disc), INTERP).constants
        for i, (k0, k1, k2) in enumerate(EXPECTED_CONSTANTS[disc]):
            c = constants[i]
            assert math.isclose(c.k0, k0, rel_tol=1e-12)
            assert math.isclose(c.k1, k1, rel_tol=1e-12)
            assert math.isclose(c.k2, k2, rel_tol=1e-12)


def test_heavy_traffic_delay_matches_exact_rationals():
    for disc in (EXH, GAT):
        delays = mean_wait(three_queue_mixed(disc), INTERP).heavy_traffic_delay
        for i, omega in enumerate(EXPECTED_HT_DELAY[disc]):
            assert math.isclose(delays[i], omega, rel_tol=1e-12)


def test_sum_of_constants_equals_heavy_traffic_delay():
    rng = np.random.default_rng(23)
    for disc in (EXH, GAT):
        for _ in range(40):
            spec = random_system(rng, disc)
            result = mean_wait(spec, INTERP)
            for i in range(spec.n):
                c = result.constants[i]
                omega = result.heavy_traffic_delay[i]
                assert math.isclose(c.k0 + c.k1 + c.k2, omega, rel_tol=1e-12)


def test_zero_load_value_and_slope_match_reference():
    rng = np.random.default_rng(29)
    for disc in (EXH, GAT):
        for _ in range(60):
            spec = random_system(rng, disc)
            dm = derive_moments(spec)
            constants = mean_wait(spec, INTERP).constants
            for i in range(spec.n):
                c = constants[i]
                value, slope = reference_value_and_slope(
                    spec, i, dm.density_at_zero
                )
                assert math.isclose(c.k0, value, rel_tol=1e-12)
                # d/drho of (k0 + k1 rho + k2 rho^2)/(1 - rho) at 0.  The
                # slope is exactly zero for a single queue whose
                # interarrival density vanishes at zero, so anchor the
                # comparison to the zero-load value's scale.
                assert math.isclose(
                    c.k0 + c.k1, slope, rel_tol=1e-9, abs_tol=1e-9 * c.k0
                )


def test_single_queue_exhaustive_delay_uses_variance_limit():
    # One exhaustive queue drives the generic delay ratio to 0/0; the limit
    # is half the heavy-traffic variance.
    queues = (QueueSpec(1.0, 1.0, 1.0, 1.0, 1.0, 0.0, DensityMode.EXACT_EXPONENTIAL),)
    spec = SystemSpec(queues=queues, discipline=EXH, rho=0.5)
    gated = SystemSpec(queues=queues, discipline=GAT, rho=0.5)
    dm = derive_moments(spec)
    exh_delay = mean_wait(spec, INTERP).heavy_traffic_delay[0]
    assert math.isclose(exh_delay, dm.heavy_traffic_variance / 2)
    assert math.isclose(
        mean_wait(gated, INTERP).heavy_traffic_delay[0],
        dm.heavy_traffic_variance / 2.0 + dm.switchover_mean_total,
        rel_tol=1e-14,
    )


def test_vacation_model_is_exact():
    # A single queue with Poisson arrivals: waiting time is the isolated
    # queue's delay plus the residual of the server absence, exactly.
    rng = np.random.default_rng(31)
    for _ in range(60):
        mean_b = float(rng.uniform(0.2, 2.0))
        scv_b = float(rng.uniform(0.0, 3.0))
        mean_s = float(rng.uniform(0.2, 2.0))
        scv_s = float(rng.uniform(0.0, 2.0))
        rho = float(rng.uniform(0.02, 0.97))
        queues = (
            QueueSpec(
                mean_b, scv_b, mean_b, 1.0, mean_s, scv_s,
                DensityMode.EXACT_EXPONENTIAL,
            ),
        )
        b2_over_b = (1.0 + scv_b) * mean_b / 2.0
        s_res = (1.0 + scv_s) * mean_s / 2.0
        exact_exh = rho * b2_over_b / (1.0 - rho) + s_res
        exact_gat = exact_exh + rho * mean_s / (1.0 - rho)
        for disc, exact in ((EXH, exact_exh), (GAT, exact_gat)):
            spec = SystemSpec(queues=queues, discipline=disc, rho=rho)
            got = mean_wait(spec, INTERP).mean_wait[0]
            assert math.isclose(got, exact, rel_tol=1e-12)


def symmetric_system(n, discipline, rho, rng):
    """Equal load shares and service laws; switch-over means differ but the
    variances are all equal."""
    mean_b = float(rng.uniform(0.3, 1.5))
    scv_b = float(rng.uniform(0.0, 3.0))
    var_s = float(rng.uniform(0.01, 0.25))
    means_s = [float(rng.uniform(0.4, 1.6)) for _ in range(n)]
    queues = tuple(
        QueueSpec(
            mean_service=mean_b,
            scv_service=scv_b,
            mean_interarrival_at_saturation=n * mean_b,
            scv_interarrival=1.0,
            mean_switchover=means_s[i],
            scv_switchover=var_s / means_s[i] ** 2,
            density_mode=DensityMode.EXACT_EXPONENTIAL,
        )
        for i in range(n)
    )
    return SystemSpec(queues=queues, discipline=discipline, rho=rho)


def symmetric_closed_form(spec, queue):
    qs = spec.queues
    n = spec.n
    rho = spec.rho
    q = qs[queue]
    eb_res = (1.0 + q.scv_service) * q.mean_service / 2.0
    es_total = sum(p.mean_switchover for p in qs)
    vs_total = sum(p.scv_switchover * p.mean_switchover**2 for p in qs)
    es_res = (vs_total + es_total**2) / (2.0 * es_total)
    sign = -1.0 if spec.discipline is EXH else 1.0
    return (
        rho * eb_res / (1.0 - rho)
        + es_res
        + rho * (1.0 + sign / n) * es_total / (2.0 * (1.0 - rho))
    )


def test_symmetric_poisson_closed_form():
    rng = np.random.default_rng(37)
    for disc in (EXH, GAT):
        for n in (1, 2, 3, 5):
            for rho in (0.1, 0.45, 0.8, 0.95):
                spec = symmetric_system(n, disc, rho, rng)
                result = mean_wait(spec, INTERP)
                for i in range(n):
                    expected = symmetric_closed_form(spec, i)
                    assert math.isclose(result.mean_wait[i], expected, rel_tol=1e-12)
                    # The quadratic coefficient vanishes, so the light-traffic
                    # truncation is the same estimator here.
                    c = result.constants[i]
                    assert abs(c.k2) <= 1e-10 * max(1.0, abs(c.k0) + abs(c.k1))
                lt = mean_wait(spec, Method.LT_ONLY)
                np.testing.assert_allclose(lt.mean_wait, result.mean_wait, rtol=1e-9)


@pytest.mark.parametrize("method", list(Method))
def test_mean_wait_takes_a_method_or_its_value(method):
    spec = three_queue_mixed(GAT, rho=0.6)
    result = mean_wait(spec, method.value)
    assert result.method is method
    assert result == mean_wait(spec, method)


@pytest.mark.parametrize(
    "method", ["bogus", None, ["interpolation"]], ids=["str", "none", "list"]
)
def test_mean_wait_rejects_what_is_not_a_method(method):
    message = f"method must be one of .* got {re.escape(repr(method))}"
    with pytest.raises(InvalidInput, match=message):
        mean_wait(three_queue_mixed(), method)


def test_lt_only_drops_the_quadratic_term():
    spec = three_queue_mixed(EXH, rho=0.6)
    constants = mean_wait(spec, INTERP).constants
    lt = mean_wait(spec, Method.LT_ONLY)
    for i in range(spec.n):
        c = constants[i]
        expected = (c.k0 + c.k1 * 0.6) / 0.4
        assert math.isclose(lt.mean_wait[i], expected, rel_tol=1e-14)


def test_ht_only_scales_the_asymptote():
    for disc in (EXH, GAT):
        spec = three_queue_mixed(disc, rho=0.8)
        result = mean_wait(spec, Method.HT_ONLY)
        for i in range(spec.n):
            expected = EXPECTED_HT_DELAY[disc][i] / 0.2
            assert math.isclose(result.mean_wait[i], expected, rel_tol=1e-12)


def test_interpolation_approaches_heavy_traffic_asymptote():
    rng = np.random.default_rng(41)
    rho = 1.0 - 1e-8
    for disc in (EXH, GAT):
        for _ in range(25):
            spec = scale_to_load(random_system(rng, disc), rho)
            result = mean_wait(spec, INTERP)
            for i in range(spec.n):
                omega = result.heavy_traffic_delay[i]
                assert math.isclose((1.0 - rho) * result.mean_wait[i], omega, rel_tol=1e-6)


def test_large_switchover_comparator_values():
    # Two symmetric queues, total switch-over 10, load one half: a customer
    # waits half the cycle, corrected by its own queue's load share.
    queues = tuple(
        QueueSpec(1.0, 1.0, 2.0, 1.0, 5.0, 0.0, DensityMode.EXACT_EXPONENTIAL)
        for _ in range(2)
    )
    exh = SystemSpec(queues=queues, discipline=EXH, rho=0.5)
    gat = SystemSpec(queues=queues, discipline=GAT, rho=0.5)
    large_s = Method.LARGE_S
    assert math.isclose(mean_wait(exh, large_s).mean_wait[0], 7.5, rel_tol=1e-14)
    assert math.isclose(mean_wait(gat, large_s).mean_wait[0], 12.5, rel_tol=1e-14)


def test_pcl_rhs_hand_values():
    # Two symmetric queues, exponential unit services, deterministic unit
    # switch-overs, load one half.
    queues = tuple(
        QueueSpec(1.0, 1.0, 2.0, 1.0, 1.0, 0.0, DensityMode.EXACT_EXPONENTIAL)
        for _ in range(2)
    )
    exh = SystemSpec(queues=queues, discipline=EXH, rho=0.5)
    gat = SystemSpec(queues=queues, discipline=GAT, rho=0.5)
    assert math.isclose(pcl_rhs(exh), 1.25, rel_tol=1e-14)
    assert math.isclose(pcl_rhs(gat), 1.75, rel_tol=1e-14)


def test_pcl_residual_vanishes_for_poisson():
    rng = np.random.default_rng(43)
    for disc in (EXH, GAT):
        for _ in range(40):
            spec = random_system(rng, disc, poisson=True)
            assert abs(pcl_residual(spec)) <= 1e-9 * max(1.0, pcl_rhs(spec))


def test_pcl_split_preserves_the_weighted_sum():
    rng = np.random.default_rng(47)
    for disc in (EXH, GAT):
        for _ in range(40):
            spec = random_system(rng, disc)
            result = mean_wait(spec, Method.PCL_BASED)
            weighted = sum(
                spec.rho * q.load_fraction * w
                for q, w in zip(spec.queues, result.mean_wait)
            )
            assert math.isclose(weighted, pcl_rhs(spec), rel_tol=1e-12)


def test_pcl_split_is_continuous_at_zero_load():
    spec = three_queue_mixed(EXH, rho=0.0)
    at_zero = mean_wait(spec, Method.PCL_BASED)
    assert all(w == 213 / 112 for w in at_zero.mean_wait)
    near_zero = mean_wait(scale_to_load(spec, 1e-9), Method.PCL_BASED)
    for w in near_zero.mean_wait:
        assert abs(w - 213 / 112) <= 1e-6


def test_pcl_split_at_an_underflowing_load_is_the_zero_load_value():
    # At rho = 5e-324 every queue's load rho / 3 underflows to 0, so the
    # split is the same 0/0 as at zero load.  At the other subnormal loads
    # the loads keep too few bits for the ratio (it read 1.3333 at 1e-323),
    # so the split takes the same limit; 3e-308 is just above them.
    queue = QueueSpec(1e-20 / 3, 1.0, 1e-20, 1.0, 1.0, 1.0)
    for disc in (EXH, GAT):
        for rho in (5e-324, 1e-323, 1e-320, 1e-310, 0.0):
            spec = SystemSpec(queues=(queue,) * 3, discipline=disc, rho=rho)
            assert mean_wait(spec, Method.PCL_BASED).mean_wait == (2.0,) * 3
        spec = SystemSpec(queues=(queue,) * 3, discipline=disc, rho=3e-308)
        for w in mean_wait(spec, Method.PCL_BASED).mean_wait:
            assert math.isclose(w, 2.0, rel_tol=1e-12)


def _all_outputs(spec):
    return (
        tuple(mean_wait(spec, m) for m in Method),
        pcl_rhs(spec),
        pcl_residual(spec),
    )


def test_no_estimate_hashes_a_queue_spec(monkeypatch):
    spec = three_queue_mixed(EXH, rho=0.5)
    mean_wait(spec, INTERP)

    def refuse(self):
        raise AssertionError("QueueSpec hashed")

    monkeypatch.setattr(QueueSpec, "__hash__", refuse)
    for rho in (0.1, 0.5, 0.9):
        at = scale_to_load(spec, rho)
        for method in Method:
            mean_wait(at, method)
        pcl_residual(at)
    # A description that is equal but not the same object, or that differs
    # only in its discipline, is derived afresh, again without a hash.
    rebuilt = SystemSpec(tuple(list(spec.queues)), EXH, 0.5)
    other = SystemSpec(spec.queues, GAT, 0.5)
    for changed in (rebuilt, other):
        mean_wait(spec, INTERP)
        record = approx._derive_system(changed)
        fresh = (
            tuple(record.result(m, 0.5) for m in Method),
            record.pcl_rhs(0.5),
            record.pcl_residual(0.5),
        )
        assert _all_outputs(changed) == fresh


def _count_derivations(monkeypatch):
    # Every record lookup that misses derives through the module attribute.
    calls = []

    def counting(spec):
        calls.append(spec)
        return derive_moments(spec)

    monkeypatch.setattr(approx, "derive_moments", counting)
    monkeypatch.setattr(approx, "_last", (None, None, None))
    return calls


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--preset", "three-queue", "--rho-grid", "0:0.9:0.1",
         "--methods", ",".join(m.value for m in Method)],
        ["analyze", "--preset", "three-queue", "--format", "json"],
    ],
)
def test_a_command_derives_its_record_once(monkeypatch, capsys, argv):
    calls = _count_derivations(monkeypatch)
    assert main(argv) == 0
    assert len(calls) == 1


def test_a_comparison_derives_one_record_per_case(monkeypatch):
    cases = [
        TestBedCase(2, 0.3, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
        TestBedCase(2, 0.5, 2.0, 0.25, 1.0, 5.0, 1.0, 1.0),
        TestBedCase(3, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
    ]
    cfg = SimConfig(
        warmup_cycles=50, measured_cycles=200, replications=2, batch_count=2
    )
    calls = _count_derivations(monkeypatch)
    run_comparison(cases, tuple(Method), EXH, cfg=cfg, jobs=1)
    assert len(calls) == len(cases)


def test_alternating_equal_descriptions_derive_each_time(monkeypatch):
    a = three_queue_mixed(GAT, rho=0.4)
    b = SystemSpec(tuple(list(a.queues)), GAT, 0.4)
    calls = _count_derivations(monkeypatch)
    first, _, again = (_all_outputs(spec) for spec in (a, b, a))
    assert len(calls) == 3
    assert first == again


def test_every_method_carries_the_heavy_traffic_delay():
    for disc in (EXH, GAT):
        spec = three_queue_mixed(disc, rho=0.4)
        for method in Method:
            delays = mean_wait(spec, method).heavy_traffic_delay
            assert len(delays) == spec.n
            for got, omega in zip(delays, EXPECTED_HT_DELAY[disc]):
                assert math.isclose(got, omega, rel_tol=1e-12)


def test_queue_lengths_follow_occupancy_law():
    spec = three_queue_mixed(EXH, rho=0.6)
    result = mean_wait(spec, INTERP)
    for i, q in enumerate(spec.queues):
        expected = (
            0.6 * (result.mean_wait[i] + q.mean_service)
            / q.mean_interarrival_at_saturation
        )
        assert math.isclose(result.mean_queue_length[i], expected, rel_tol=1e-14)


def test_result_metadata():
    spec = three_queue_mixed(EXH, rho=0.3)
    interp = mean_wait(spec, INTERP)
    assert interp.rho == 0.3
    assert interp.constants is not None and len(interp.constants) == 3
    assert mean_wait(spec, Method.HT_ONLY).constants is None
    for method in Method:
        assert mean_wait(spec, method).method is method


def test_zero_load_closed_forms_return_residual():
    spec = three_queue_mixed(EXH, rho=0.0)
    result = mean_wait(spec, INTERP)
    assert all(math.isclose(w, 213 / 112, rel_tol=1e-14) for w in result.mean_wait)
    assert all(x == 0.0 for x in result.mean_queue_length)
