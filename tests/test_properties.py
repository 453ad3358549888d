"""Property tests of the closed forms and spec files over random systems.

The estimators read one memoized, load-free record per system, keyed on
its queues and discipline.  Besides the estimator identities, these tests
check that the memo never hands one system's record to another: a spec
that differs in any field the formulas read must give what a fresh
computation gives, and a spec rebuilt field by field must give the same
output as the original.

Spec files round-trip every valid system, and a demo spec file with one
defect is rejected with exit code 2 and a one-line error.  A value that
a spec file rejects is rejected by the constructor of its field too.
A queue takes an scv exactly when a law can be fitted to it, so every
valid system can be simulated.

Examples are drawn deterministically (``derandomize=True``), so the suite
runs the same cases every time.
"""

import contextlib
import dataclasses
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from pollwait import (
    DensityMode,
    Discipline,
    InvalidInput,
    Method,
    QueueSpec,
    SimConfig,
    SystemSpec,
    derive_moments,
    fit_two_moments,
    mean_wait,
    pcl_residual,
    pcl_rhs,
    simulate,
)
from pollwait.approx import _system_of
from pollwait.cli import (
    _QUEUE_KEYS,
    _QUEUE_REQUIRED,
    _TOP_LEVEL_KEYS,
    load_spec_file,
    main,
)

from _helpers import preset_spec, reference_moments, spec_to_dict

PROPERTY_SETTINGS = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.too_slow],
)


# Service and switch-over scvs: 0 or inside the range a law is fitted to.
_SCVS = st.just(0.0) | st.floats(1e-15, 4.0)


@st.composite
def systems(draw, poisson=False):
    """A valid system of 1-6 queues; every density mode fits every scv."""
    n = draw(st.integers(1, 6))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    total = sum(weights)
    queues = []
    for w in weights:
        mean_service = draw(st.floats(0.1, 10.0))
        if poisson:
            scv_a = 1.0
            modes = [DensityMode.TWO_MOMENT_APPROX, DensityMode.EXACT_EXPONENTIAL]
        else:
            scv_a = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.05, 5.0))
            modes = list(DensityMode)
        mode = draw(st.sampled_from(modes))
        value = (
            draw(st.floats(0.0, 2.0)) if mode is DensityMode.USER_VALUE else None
        )
        queues.append(
            QueueSpec(
                mean_service=mean_service,
                scv_service=draw(_SCVS),
                mean_interarrival_at_saturation=mean_service * total / w,
                scv_interarrival=scv_a,
                mean_switchover=draw(st.just(0.0) | st.floats(0.1, 5.0)),
                scv_switchover=draw(_SCVS),
                density_mode=mode,
                density_value=value,
            )
        )
    assume(any(q.mean_switchover > 0.0 for q in queues))
    return SystemSpec(
        queues=tuple(queues),
        discipline=draw(st.sampled_from(list(Discipline))),
        rho=draw(st.floats(0.1, 0.9)),
    )


def _outputs(spec):
    return (
        tuple(mean_wait(spec, m) for m in Method),
        pcl_rhs(spec),
        pcl_residual(spec),
    )


def _fresh_outputs(spec):
    _system_of.cache_clear()
    return _outputs(spec)


def _perturbations(queue):
    """Copies of `queue` that each change one field the formulas read.

    The two means move by 1e-10 relative, which keeps the load fractions
    within the tolerance of summing to one.
    """
    replace = dataclasses.replace
    nudge = 1.0 + 1e-10
    out = [
        replace(queue, mean_service=queue.mean_service * nudge),
        replace(
            queue,
            mean_interarrival_at_saturation=queue.mean_interarrival_at_saturation
            * nudge,
        ),
        replace(queue, scv_service=queue.scv_service + 0.5),
        replace(queue, mean_switchover=queue.mean_switchover + 0.5),
    ]
    if queue.mean_switchover > 0.0:
        out.append(replace(queue, scv_switchover=queue.scv_switchover + 0.5))
    out.append(replace(queue, scv_interarrival=queue.scv_interarrival + 0.5))
    if queue.density_mode is DensityMode.USER_VALUE:
        out.append(replace(queue, density_value=queue.density_value + 0.25))
    return out


@PROPERTY_SETTINGS
@given(systems())
def test_derived_moments_match_the_reference(spec):
    assert derive_moments(spec) == reference_moments(spec)


@PROPERTY_SETTINGS
@given(systems())
def test_constants_sum_to_the_heavy_traffic_delay(spec):
    result = mean_wait(spec, Method.INTERPOLATION)
    constants = result.constants
    # A record derived afresh, bypassing the memo.
    fresh = _system_of.__wrapped__(spec.queues, spec.discipline)
    for i in range(spec.n):
        c = fresh.constants[i]
        omega = result.heavy_traffic_delay[i]
        # k2 is omega - k0 - k1, so the sum carries the rounding of the
        # larger terms: a near-deterministic single queue has omega ~ 0
        # next to k0 = -k1 = 1/2.
        scale = max(abs(c.k0), abs(c.k1), abs(omega))
        assert math.isclose(c.k0 + c.k1 + c.k2, omega, rel_tol=1e-12, abs_tol=1e-12 * scale)
        assert constants[i] == c


@PROPERTY_SETTINGS
@given(systems(poisson=True))
def test_pcl_residual_vanishes_for_poisson_arrivals(spec):
    assert abs(pcl_residual(spec)) <= 1e-9 * max(1.0, pcl_rhs(spec))


@PROPERTY_SETTINGS
@given(systems(), st.data())
def test_memo_tells_apart_specs_that_differ_in_one_input(spec, data):
    before = _outputs(spec)
    i = data.draw(st.integers(0, spec.n - 1))
    other = next(d for d in Discipline if d is not spec.discipline)
    variants = [dataclasses.replace(spec, discipline=other)] + [
        dataclasses.replace(
            spec, queues=spec.queues[:i] + (queue,) + spec.queues[i + 1 :]
        )
        for queue in _perturbations(spec.queues[i])
    ]
    for changed in variants:
        after = _outputs(changed)
        assert after != before
        assert after == _fresh_outputs(changed)
        _outputs(spec)  # the memo holds the original again


@PROPERTY_SETTINGS
@given(systems(), st.data())
def test_memo_tells_apart_density_modes(spec, data):
    i = data.draw(st.integers(0, spec.n - 1))
    queue = spec.queues[i]
    _outputs(spec)
    for mode in DensityMode:
        value = 0.5 if mode is DensityMode.USER_VALUE else None
        swapped = dataclasses.replace(queue, density_mode=mode, density_value=value)
        queues = spec.queues[:i] + (swapped,) + spec.queues[i + 1 :]
        changed = dataclasses.replace(spec, queues=queues)
        assert _outputs(changed) == _fresh_outputs(changed)


@PROPERTY_SETTINGS
@given(systems(), st.sampled_from(list(Discipline)))
def test_rebuilt_spec_gives_identical_output(spec, discipline):
    spec = dataclasses.replace(spec, discipline=discipline)
    rebuilt = SystemSpec(
        queues=tuple(
            QueueSpec(**{f.name: getattr(q, f.name) for f in dataclasses.fields(q)})
            for q in spec.queues
        ),
        discipline=spec.discipline,
        rho=spec.rho,
    )
    assert rebuilt.queues is not spec.queues
    assert _outputs(rebuilt) == _outputs(spec) == _fresh_outputs(rebuilt)


def _write_json(directory, data):
    path = os.path.join(directory, "system.json")
    with open(path, "w") as handle:
        json.dump(data, handle)
    return path


@PROPERTY_SETTINGS
@given(systems())
def test_spec_file_round_trips(spec):
    with tempfile.TemporaryDirectory() as directory:
        assert load_spec_file(_write_json(directory, spec_to_dict(spec))) == spec


# Values no field of a spec file accepts.  json.dump writes the non-finite
# floats as the NaN / Infinity tokens, which the loader refuses.
_BAD_VALUES = (
    st.sampled_from([True, None, [1], {"a": 1}, "text", 10**400, -(10**400)])
    | st.sampled_from([math.nan, math.inf, -math.inf])
    | st.floats(max_value=-1e-300)
    | st.integers(max_value=-1)
)


@st.composite
def broken_spec_dicts(draw):
    """The demo spec with one wrong value, missing field or unknown field."""
    data = spec_to_dict(preset_spec("three-queue", 0.5))
    queue = data["queues"][draw(st.integers(0, len(data["queues"]) - 1))]
    target, keys, required = draw(
        st.sampled_from(
            [
                (data, sorted(_TOP_LEVEL_KEYS), sorted(_TOP_LEVEL_KEYS)),
                (queue, sorted(_QUEUE_KEYS), _QUEUE_REQUIRED),
            ]
        )
    )
    defect = draw(st.sampled_from(["value", "missing", "unknown"]))
    if defect == "value":
        key = draw(st.sampled_from(keys))
        if key == "density_value":
            # null is how a file says "no density value", so it is valid.
            target[key] = draw(_BAD_VALUES.filter(lambda v: v is not None))
        else:
            target[key] = draw(_BAD_VALUES)
    elif defect == "missing":
        del target[draw(st.sampled_from(required))]
    else:
        target["unknown_" + draw(st.text(max_size=5))] = 1
    return data


@PROPERTY_SETTINGS
@given(broken_spec_dicts())
def test_broken_spec_file_is_one_error_line(data):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as directory:
        path = _write_json(directory, data)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["analyze", path])
    assert code == 2
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize(
    "owner, field",
    [("system", f.name) for f in dataclasses.fields(SystemSpec)]
    + [("queue", f.name) for f in dataclasses.fields(QueueSpec)],
)
@PROPERTY_SETTINGS
@given(value=_BAD_VALUES)
def test_constructor_rejects_what_a_spec_file_rejects(owner, field, value):
    # null is how a file says "no density value", so it is valid.
    assume(not (field == "density_value" and value is None))
    spec = preset_spec("three-queue", 0.5)
    data = spec_to_dict(spec)
    if owner == "system":
        kind, source, target = SystemSpec, spec, data
    else:
        kind, source, target = QueueSpec, spec.queues[1], data["queues"][1]
    kwargs = {f.name: getattr(source, f.name) for f in dataclasses.fields(kind)}
    if field == "density_value":
        # Under USER_VALUE the value itself is checked, not its presence.
        kwargs["density_mode"] = DensityMode.USER_VALUE
        target["density_mode"] = DensityMode.USER_VALUE.value
    kwargs[field] = target[field] = value
    with pytest.raises(InvalidInput):
        kind(**kwargs)
    with tempfile.TemporaryDirectory() as directory:
        path = _write_json(directory, data)
        with pytest.raises(InvalidInput):
            load_spec_file(path)


def _fits(scv):
    try:
        fit_two_moments(1.0, scv)
    except InvalidInput:
        return False
    return True


# Any float, with the ends of the fitted range and their neighbours.
_ANY_SCV = (
    st.sampled_from(
        [0.0, -0.0, 1e-15, 1e6, 1e-30, 2e6, 5e-324, math.inf, math.nan]
        + [math.nextafter(1e-15, 0.0), math.nextafter(1e6, math.inf)]
    )
    | st.floats(1e-20, 1e-10)
    | st.floats(1e5, 1e7)
    | st.floats()
)


@pytest.mark.parametrize("mode", list(DensityMode))
@pytest.mark.parametrize(
    "field", ["scv_service", "scv_interarrival", "scv_switchover"]
)
@PROPERTY_SETTINGS
@given(value=_ANY_SCV)
def test_queue_takes_an_scv_exactly_when_a_law_fits_it(field, mode, value):
    kwargs = dict(
        mean_service=1.0,
        scv_service=1.0,
        mean_interarrival_at_saturation=2.0,
        scv_interarrival=1.0,
        mean_switchover=1.0,
        scv_switchover=1.0,
        density_mode=mode,
        density_value=0.5 if mode is DensityMode.USER_VALUE else None,
    )
    kwargs[field] = value
    if _fits(value):
        assert getattr(QueueSpec(**kwargs), field) == value
    else:
        with pytest.raises(InvalidInput, match=f"^{field} must be 0 or in"):
            QueueSpec(**kwargs)


@PROPERTY_SETTINGS
@given(systems())
def test_every_valid_system_can_be_simulated(spec):
    cfg = SimConfig(
        warmup_cycles=0, measured_cycles=200, replications=1, batch_count=2
    )
    assert simulate(spec, cfg).replications == 1
