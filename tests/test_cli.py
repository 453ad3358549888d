"""End-to-end tests of the command line front end via ``main(argv)``."""

import dataclasses
import inspect
import json
import math
import os
import subprocess
import sys

import pytest

import pollwait
from pollwait import (
    DensityMode,
    Discipline,
    Method,
    SimConfig,
    mean_wait,
    run_comparison,
    scale_to_load,
)
from pollwait.cli import (
    _build_parser,
    _format_float,
    _parse_rho_grid,
    load_spec_file,
    main,
)

from _helpers import preset_spec, spec_to_dict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_spec(tmp_path, data, name="system.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def demo_dict(rho=0.5):
    return spec_to_dict(preset_spec("three-queue", rho))


def test_no_arguments_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_demo_spec_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "demo-spec")
    assert code == 0
    data = json.loads(out)
    assert data["version"] == "v1"
    assert data["rho"] == 0.7
    path = tmp_path / "demo.json"
    path.write_text(out)
    spec = load_spec_file(str(path))
    assert spec == preset_spec("three-queue", 0.7, Discipline.EXHAUSTIVE)


@pytest.mark.parametrize(
    "spelling", ["exact-h2", "exact-mixed-erlang", "exact-exponential"]
)
def test_legacy_density_mode_spellings_load_as_exact(capsys, tmp_path, spelling):
    # Spec files written with the per-family spellings still load, whatever
    # their scv, and give the same output as "exact".
    outputs = []
    for mode in (spelling, "exact"):
        data = demo_dict()
        for queue, scv in zip(data["queues"], (0.5, 1.0, 3.0)):
            queue.update(density_mode=mode, scv_interarrival=scv)
        path = write_spec(tmp_path, data, name=f"{mode}.json")
        spec = load_spec_file(path)
        assert {q.density_mode for q in spec.queues} == {DensityMode.EXACT}
        outputs.append(run(capsys, "analyze", path, "--format", "json"))
    assert outputs[0] == outputs[1] and outputs[0][0] == 0


def test_analyze_json_output(capsys):
    code, out, _ = run(
        capsys,
        "analyze",
        "--preset",
        "three-queue",
        "--rho",
        "0.7",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "interpolation"
    assert payload["discipline"] == "exhaustive"
    assert payload["rho"] == 0.7
    assert "pcl_rhs" in payload and "pcl_residual" in payload
    assert len(payload["queues"]) == 3
    expected = mean_wait(
        preset_spec("three-queue", 0.7), Method.INTERPOLATION
    )
    for i, entry in enumerate(payload["queues"]):
        assert entry["queue"] == i
        assert math.isclose(entry["mean_wait"], expected.mean_wait[i])
        assert set(entry["constants"]) == {"k0", "k1", "k2"}
        c = expected.constants[i]
        assert math.isclose(entry["constants"]["k1"], c.k1)


def test_analyze_text_output(capsys):
    code, out, _ = run(capsys, "analyze", "--preset", "three-queue", "--rho", "0.5")
    assert code == 0
    assert "method: interpolation" in out
    assert "pcl_residual:" in out
    assert len(out.strip().split("\n")) == 2 + 3 + 1


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_negative_zero_load_is_zero(capsys, fmt):
    argv = ["analyze", "--preset", "three-queue", "--format", fmt]
    code, out, _ = run(capsys, *argv, "--rho=-0.0")
    assert code == 0
    assert out == run(capsys, *argv, "--rho", "0")[1]
    assert math.copysign(1.0, preset_spec("three-queue", -0.0).rho) == 1.0


def test_analyze_csv_output(capsys):
    code, out, _ = run(
        capsys,
        "analyze",
        "--preset",
        "three-queue",
        "--rho",
        "0.5",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "queue,mean_wait,mean_queue_length,heavy_traffic_delay,k0,k1,k2"
    assert len(lines) == 4
    cells = lines[1].split(",")
    assert cells[0] == "0"
    assert all(math.isfinite(float(cell)) for cell in cells[1:])


def test_analyze_csv_without_constants(capsys):
    code, out, _ = run(
        capsys,
        "analyze",
        "--preset",
        "three-queue",
        "--rho",
        "0.5",
        "--method",
        "ht-only",
        "--format",
        "csv",
    )
    assert code == 0
    for line in out.strip().split("\n")[1:]:
        assert line.endswith(",,,")


def test_analyze_spec_file_with_overrides(capsys, tmp_path):
    path = write_spec(tmp_path, demo_dict())
    spec = load_spec_file(path, rho=0.3, discipline=Discipline.GATED)
    assert spec.rho == 0.3
    assert spec.discipline is Discipline.GATED
    code, out, _ = run(
        capsys, "analyze", path, "--rho", "0.3", "--discipline", "gated"
    )
    assert code == 0
    assert "discipline: gated" in out


def test_analyze_without_spec_or_preset(capsys):
    code, _, err = run(capsys, "analyze", "--rho", "0.5")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("command", ["analyze", "sweep", "simulate"])
def test_spec_file_and_preset_together_are_invalid(capsys, tmp_path, command):
    path = write_spec(tmp_path, demo_dict())
    argv = [command, path, "--preset", "three-queue"]
    if command == "sweep":
        argv += ["--rho-grid", "0.3:0.3:1"]
    elif command == "simulate":
        argv += ["--rho", "0.3", "--cycles", "2000", "--reps", "1"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: give either a spec file or --preset, not both\n"


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(rho=1.2),
        lambda d: d.update(rho=True),
        lambda d: d.update(version="v2"),
        lambda d: d.update(extra_field=1),
        lambda d: d.pop("rho"),
        lambda d: d["queues"][0].update(surprise=1),
        lambda d: d["queues"][0].pop("mean_service"),
        lambda d: d["queues"][0].update(density_mode="magic"),
        lambda d: d.update(queues=[]),
    ],
    ids=[
        "rho-out-of-range",
        "rho-bool",
        "bad-version",
        "unknown-top-field",
        "missing-rho",
        "unknown-queue-field",
        "missing-queue-field",
        "bad-density-mode",
        "empty-queues",
    ],
)
def test_spec_file_rejections(capsys, tmp_path, mutate):
    data = demo_dict()
    mutate(data)
    path = write_spec(tmp_path, data)
    code, out, err = run(capsys, "analyze", path)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


def test_spec_file_top_level_must_be_an_object(capsys, tmp_path):
    path = write_spec(tmp_path, [demo_dict()])
    code, out, err = run(capsys, "analyze", path)
    assert (code, out, err) == (2, "", f"error: {path}: top level must be an object\n")


@pytest.mark.parametrize(
    "command, field, value",
    [
        ("simulate", "scv_service", 1e-30),
        ("simulate", "scv_switchover", 1e17),
        ("analyze", "scv_interarrival", 1e-300),
        ("analyze", "scv_service", 2e6),
        ("sweep", "scv_switchover", 1e-30),
    ],
)
def test_unfittable_scv_is_invalid(capsys, tmp_path, command, field, value):
    # The simulator needs a law fitted to every scv, so a queue holding
    # one it cannot fit is rejected as the file is read.
    data = demo_dict()
    data["queues"][1][field] = value
    path = write_spec(tmp_path, data)
    flags = {
        "simulate": ["--cycles", "2000"],
        "analyze": [],
        "sweep": ["--rho-grid", "0.5:0.5:1"],
    }[command]
    code, out, err = run(capsys, command, path, *flags)
    assert (code, out) == (2, "")
    prefix = f"error: {path}: queues[1]: {field} must be 0 or in"
    assert err.startswith(prefix) and err.count("\n") == 1
    assert repr(value) in err


def test_spec_file_rejects_nan_literal(capsys, tmp_path):
    data = demo_dict()
    data["rho"] = "PLACEHOLDER"
    text = json.dumps(data).replace('"PLACEHOLDER"', "NaN")
    path = tmp_path / "nan.json"
    path.write_text(text)
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("field", ["mean_switchover", "rho"])
def test_spec_file_rejects_huge_integer(capsys, tmp_path, field):
    # A 400-digit literal parses as a Python int that no float can hold.
    data = demo_dict()
    target = data["queues"][0] if field == "mean_switchover" else data
    target[field] = 10**400
    path = write_spec(tmp_path, data)
    code, out, err = run(capsys, "analyze", path)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert field in err


@pytest.mark.parametrize(
    "fields",
    [
        {"mean_switchover": 1e200},
        {"mean_service": 1e200, "mean_interarrival_at_saturation": 1e201},
    ],
    ids=["switchover", "service"],
)
def test_analyze_rejects_overflowing_moments(capsys, tmp_path, fields):
    # Finite floats whose squares overflow: no moment aggregate exists.
    data = demo_dict()
    data["queues"][0].update(fields)
    path = write_spec(tmp_path, data)
    code, out, err = run(capsys, "analyze", path)
    assert code == 2
    assert out == ""
    assert err == "error: queues[0]: moment aggregates overflow a float\n"


@pytest.mark.parametrize("command", ["simulate", "analyze"])
def test_overflowing_interarrival_mean_names_file_and_queue(
    capsys, tmp_path, command
):
    # At rho 0.5 the simulator's interarrival mean 1e308 / 0.5 overflows;
    # the check runs as the file is read.
    data = {
        "version": "v1",
        "discipline": "gated",
        "rho": 0.5,
        "queues": [_plain_queue(1e308)],
    }
    data["queues"][0]["mean_interarrival_at_saturation"] = 1e308
    path = write_spec(tmp_path, data)
    code, out, err = run(capsys, command, path)
    assert (code, out) == (2, "")
    assert err == (
        f"error: {path}: queues[0]: mean_interarrival_at_saturation / rho "
        "must be finite, got 1e+308 / 0.5\n"
    )


def _plain_queue(mean_service):
    # A v1 queue entry with interarrival mean 2 and every other moment 1.
    return dict(
        mean_service=mean_service,
        scv_service=1.0,
        mean_interarrival_at_saturation=2.0,
        scv_interarrival=1.0,
        mean_switchover=1.0,
        scv_switchover=1.0,
    )


@pytest.mark.parametrize(
    "mutate, message",
    [
        (
            lambda d: d["queues"][2].update(mean_switchover=-1.0),
            "queues[2]: mean_switchover must be >= 0, got -1.0",
        ),
        (
            lambda d: [q.update(mean_switchover=0.0) for q in d["queues"]],
            "at least one switch-over time must have a positive mean",
        ),
        (
            lambda d: d["queues"][1].update(density_value="z"),
            "queues[1]: density_value must be a number, got 'z'",
        ),
        (
            # Fractions 1.0 and 0.0 sum to one, but the second is empty.
            lambda d: d.update(
                queues=[
                    _plain_queue(mean_service=1.0),
                    _plain_queue(mean_service=5e-324),
                ]
            ),
            "queues[1]: load fraction mean_service / "
            "mean_interarrival_at_saturation must be positive, "
            "got 5e-324 / 2.0",
        ),
    ],
    ids=["queue", "system", "number", "zero-load-fraction"],
)
def test_spec_file_errors_name_the_file(capsys, tmp_path, mutate, message):
    data = demo_dict()
    mutate(data)
    path = write_spec(tmp_path, data)
    code, out, err = run(capsys, "analyze", path)
    assert (code, out, err) == (2, "", f"error: {path}: {message}\n")


@pytest.mark.parametrize(
    "content",
    [
        b"[" * 100_000 + b"]" * 100_000,
        b"\xff\xfe{}",
        b'{"version": "v1", "rho": ' + b"1" * 5000 + b"}",
    ],
    ids=["deep-nesting", "not-utf-8", "long-integer"],
)
def test_spec_file_decode_errors_name_the_file(capsys, tmp_path, content):
    path = tmp_path / "system.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: not valid JSON: ")
    assert err.count("\n") == 1


def test_spec_file_rejects_malformed_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert "not valid JSON" in err


def test_sweep_row_counts(capsys):
    code, out, _ = run(
        capsys,
        "sweep",
        "--preset",
        "three-queue",
        "--rho-grid",
        "0:0.9:0.3",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "rho,queue,method,mean_wait,ci_half_width"
    assert len(lines) == 1 + 4 * 3
    # Closed-form rows carry no confidence interval.
    assert all(line.endswith(",") for line in lines[1:])

    code, out, _ = run(
        capsys,
        "sweep",
        "--preset",
        "three-queue",
        "--rho-grid",
        "0:0.9:0.3",
        "--methods",
        "interpolation,lt-only",
    )
    assert code == 0
    assert len(out.strip().split("\n")) == 1 + 4 * 3 * 2


@pytest.mark.parametrize(
    "grid",
    [
        "0.9:0.3:0.3",
        "0.1:0.5:0",
        "0.5:1.0:0.25",
        "0.5",
        "a:b:c",
        "0:1e308:1e-308",
        "0:nan:0.1",
        "0:0.5:nan",
        "0:0.5:1e-300",
        "4e-11:0.99999999999:0.5",
    ],
)
def test_sweep_grid_rejections(capsys, grid):
    code, _, err = run(
        capsys, "sweep", "--preset", "three-queue", "--rho-grid", grid
    )
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "command, option, value, named",
    [
        ("sweep", "--rho-grid", "0:1e308:1e-308", "--rho-grid"),
        ("sweep", "--rho-grid", "0:nan:0.1", "--rho-grid"),
        ("sweep", "--rho-grid", "0:0.5:nan", "--rho-grid"),
        ("sweep", "--rho-grid", "0:0.5:1e-300", "--rho-grid"),
        ("sweep", "--seed", "-1", "seed"),
        ("simulate", "--seed", "-1", "seed"),
        ("testbed", "--seed", "-1", "seed"),
        ("sweep", "--methods", "interpolation,interpolation", "--methods"),
        ("testbed", "--methods", "lt-only, lt-only", "--methods"),
    ],
)
def test_bad_option_value_names_the_option(
    capsys, tmp_path, command, option, value, named
):
    if command == "sweep":
        # A later --rho-grid replaces this one.
        argv = ["sweep", "--preset", "three-queue", "--rho-grid", "0.5:0.5:1"]
        argv += ["--with-sim"]
    elif command == "simulate":
        argv = ["simulate", "--preset", "three-queue", "--cycles", "2000"]
    else:
        argv = ["testbed", "--discipline", "exhaustive", "--jobs", "1"]
        argv += ["--out", str(tmp_path / "bed")]
    code, out, err = run(capsys, *argv, option, value)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert named in err and value in err


@pytest.mark.parametrize(
    "option, value",
    [
        ("--sim-cycles", "500"),
        ("--sim-reps", "0"),
        ("--seed", "-1"),
        ("--max-events", "0"),
    ],
)
def test_sweep_bad_sim_flags_fail_before_any_work(
    capsys, monkeypatch, option, value
):
    # Nothing is simulated at rho = 0, but the run configuration is still
    # checked, before any estimate is computed.
    calls = []
    monkeypatch.setattr("pollwait.cli.mean_wait", lambda *a: calls.append(a))
    code, out, err = run(
        capsys,
        "sweep",
        "--preset",
        "three-queue",
        "--rho-grid",
        "0:0:1",
        "--with-sim",
        option,
        value,
    )
    assert (code, out, calls) == (2, "", [])
    assert err.startswith("error:") and err.count("\n") == 1


def test_sweep_unknown_method(capsys):
    code, _, err = run(
        capsys,
        "sweep",
        "--preset",
        "three-queue",
        "--rho-grid",
        "0.1:0.5:0.2",
        "--methods",
        "bogus",
    )
    assert code == 2
    assert "unknown method" in err


def test_sweep_preset_adds_simulation_rows(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run(
        capsys,
        "sweep",
        "--preset",
        "three-queue",
        "--rho-grid",
        "0.3:0.3:1",
        "--with-sim",
        "--sim-cycles",
        "1000",
        "--sim-reps",
        "2",
        "--seed",
        "3",
        "--out",
        str(out_path),
    )
    assert code == 0
    assert out == ""
    lines = out_path.read_text().strip().split("\n")
    assert len(lines) == 1 + 3 + 3
    sim_rows = [line for line in lines if ",simulation," in line]
    assert len(sim_rows) == 3
    for row in sim_rows:
        ci = row.split(",")[-1]
        assert ci and math.isfinite(float(ci))


def _outcome(capsys, argv):
    """Exit code and stdout of `main(argv)`, argparse's exits included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


@pytest.mark.parametrize(
    "overrides",
    [[], ["--rho", "0.3"], ["--discipline", "gated"]],
    ids=["no-override", "rho", "gated"],
)
@pytest.mark.parametrize("preset", ["three-queue", "small-switchover"])
def test_preset_is_the_demo_spec_file(capsys, tmp_path, preset, overrides):
    code, text = _outcome(capsys, ["demo-spec", "--preset", preset])
    assert code == 0
    path = tmp_path / "system.json"
    path.write_text(text)
    sweep = ["sweep", "--rho-grid", "0.3:0.6:0.3"]
    commands = [["analyze", "--format", fmt] for fmt in ("text", "json", "csv")]
    commands += [
        sweep,
        [*sweep, "--with-sim", "--sim-cycles", "2000", "--sim-reps", "2"],
        ["simulate", "--cycles", "2000", "--reps", "2", "--batches", "10"],
    ]
    for command, *flags in commands:
        from_preset = _outcome(
            capsys, [command, "--preset", preset, *flags, *overrides]
        )
        from_file = _outcome(capsys, [command, str(path), *flags, *overrides])
        assert from_preset == from_file
        # sweep takes no --rho: a usage error either way.
        usage_error = command == "sweep" and "--rho" in overrides
        assert from_file[0] == (2 if usage_error else 0)


# demo-spec output of each preset as first captured; moving any float of a
# preset document by one bit changes this text.
_PRESET_TEXT = {
    "three-queue": """\
{
  "version": "v1",
  "discipline": "exhaustive",
  "rho": 0.7,
  "queues": [
    {
      "mean_service": 1.0,
      "scv_service": 1.0,
      "mean_interarrival_at_saturation": 10.0,
      "scv_interarrival": 3.0,
      "mean_switchover": 1.0,
      "scv_switchover": 1.0,
      "density_mode": "exact"
    },
    {
      "mean_service": 1.0,
      "scv_service": 1.0,
      "mean_interarrival_at_saturation": 3.3333333333333335,
      "scv_interarrival": 3.0,
      "mean_switchover": 1.0,
      "scv_switchover": 1.0,
      "density_mode": "exact"
    },
    {
      "mean_service": 1.0,
      "scv_service": 1.0,
      "mean_interarrival_at_saturation": 1.6666666666666667,
      "scv_interarrival": 3.0,
      "mean_switchover": 1.0,
      "scv_switchover": 1.0,
      "density_mode": "exact"
    }
  ]
}
""",
    "small-switchover": """\
{
  "version": "v1",
  "discipline": "exhaustive",
  "rho": 0.7,
  "queues": [
    {
      "mean_service": 0.225,
      "scv_service": 1.0,
      "mean_interarrival_at_saturation": 0.27,
      "scv_interarrival": 1.0,
      "mean_switchover": 0.045,
      "scv_switchover": 1.0,
      "density_mode": "exact"
    },
    {
      "mean_service": 0.225,
      "scv_service": 1.0,
      "mean_interarrival_at_saturation": 1.35,
      "scv_interarrival": 1.0,
      "mean_switchover": 0.045,
      "scv_switchover": 1.0,
      "density_mode": "exact"
    }
  ]
}
""",
}


@pytest.mark.parametrize("preset", sorted(_PRESET_TEXT))
def test_preset_bytes_are_pinned(capsys, preset):
    assert run(capsys, "demo-spec", "--preset", preset) == (
        0,
        _PRESET_TEXT[preset],
        "",
    )


def test_no_sim_is_not_an_option(capsys):
    argv = ["sweep", "--preset", "three-queue", "--rho-grid", "0.5:0.5:1"]
    assert _outcome(capsys, [*argv, "--no-sim"]) == (2, "")


def test_simulate_json_and_determinism(capsys):
    argv = (
        "simulate",
        "--preset",
        "three-queue",
        "--rho",
        "0.4",
        "--cycles",
        "1000",
        "--warmup",
        "100",
        "--reps",
        "2",
        "--batches",
        "10",
        "--seed",
        "11",
    )
    code, out, _ = run(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["config"] == {
        "warmup_cycles": 100,
        "measured_cycles": 1000,
        "replications": 2,
        "base_seed": 11,
        "batch_count": 10,
    }
    assert len(payload["mean_wait"]) == 3
    assert abs(payload["realized_load"] - 0.4) < 0.1
    assert payload["samples"] == sum(payload["samples_per_queue"])
    code, out2, _ = run(capsys, *argv)
    assert code == 0
    assert out2 == out


def test_simulate_defaults_are_sim_config_defaults(capsys):
    code, out, _ = run(
        capsys, "simulate", "--preset", "three-queue", "--rho", "0.5"
    )
    assert code == 0
    expected = dataclasses.asdict(SimConfig())
    del expected["max_events"]
    assert json.loads(out)["config"] == expected


def test_simulate_bad_run_config_is_invalid(capsys):
    code, _, err = run(
        capsys,
        "simulate",
        "--preset",
        "three-queue",
        "--rho",
        "0.4",
        "--cycles",
        "400",
        "--batches",
        "10",
    )
    assert code == 2
    assert "error:" in err


def test_simulate_zero_load_is_invalid(capsys):
    code, _, err = run(
        capsys, "simulate", "--preset", "three-queue", "--rho", "0"
    )
    assert code == 2
    assert "error:" in err


def test_simulate_budget_exceeded(capsys):
    code, _, err = run(
        capsys,
        "simulate",
        "--preset",
        "three-queue",
        "--rho",
        "0.4",
        "--max-events",
        "10",
    )
    assert code == 3
    assert "error:" in err


def test_testbed_defaults_are_run_comparison_defaults():
    args = _build_parser().parse_args(
        ["testbed", "--discipline", "exhaustive", "--out", "bed"]
    )
    params = inspect.signature(run_comparison).parameters
    assert (args.seed, args.target_samples, args.reps) == tuple(
        params[name].default
        for name in ("base_seed", "target_customers", "replications")
    )


def test_program_fault_is_not_reported_as_invalid_input(monkeypatch):
    # Only InvalidInput is a user error; a stray ValueError is a bug and
    # must keep its traceback.
    def fault(*_args):
        raise ValueError("boom")

    monkeypatch.setattr("pollwait.cli.mean_wait", fault)
    with pytest.raises(ValueError, match="boom"):
        main(["analyze", "--preset", "three-queue", "--rho", "0.5"])


def test_closed_stdout_is_not_an_io_failure():
    # The reader of stdout has quit before anything is written, as when a
    # pipe into `head` closes early: no error line, and 128 + SIGPIPE.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(pollwait.__file__))
    try:
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys; from pollwait.cli import main; "
                "sys.exit(main(['demo-spec']))",
            ],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""


def test_testbed_unwritable_output(capsys, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    code, _, err = run(
        capsys,
        "testbed",
        "--discipline",
        "exhaustive",
        "--out",
        str(blocker / "sub"),
    )
    assert code == 4
    assert "error:" in err


@pytest.mark.parametrize(
    "option, value",
    [
        ("--reps", "0"),
        ("--target-samples", "-5"),
        ("--seed", "-1"),
        ("--jobs", "0"),
        ("--methods", ","),
    ],
)
def test_testbed_rejects_empty_run_sizes(capsys, tmp_path, option, value):
    out_dir = tmp_path / "bed"
    code, out, err = run(
        capsys,
        "testbed",
        "--discipline",
        "exhaustive",
        "--out",
        str(out_dir),
        "--jobs",
        "1",
        option,
        value,
    )
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert not any(out_dir.iterdir())


def test_testbed_sampled_run(capsys, tmp_path):
    out_dir = tmp_path / "bed"
    code, out, _ = run(
        capsys,
        "testbed",
        "--discipline",
        "exhaustive",
        "--out",
        str(out_dir),
        "--jobs",
        "1",
        "--seed",
        "1",
        "--target-samples",
        "2000",
        "--reps",
        "2",
    )
    assert code == 0
    assert out.startswith("discipline: exhaustive")
    assert "wrote" in out
    names = {p.name for p in out_dir.iterdir()}
    assert "raw_records.csv" in names
    assert "summary.txt" in names
    assert "errors_binned_interpolation.txt" in names


def test_sweep_rows_equal_direct_estimates(capsys, tmp_path):
    path = write_spec(tmp_path, demo_dict())
    spec = load_spec_file(path)
    grid = "0.05:0.95:0.15"
    methods = list(Method)
    code, out, _ = run(
        capsys,
        "sweep",
        path,
        "--rho-grid",
        grid,
        "--methods",
        ",".join(m.value for m in methods),
    )
    assert code == 0
    rows = iter(out.strip().split("\n")[1:])
    for rho in _parse_rho_grid(grid):
        for method in methods:
            waits = mean_wait(scale_to_load(spec, rho), method).mean_wait
            for i, wait in enumerate(waits):
                expected = (
                    f"{_format_float(rho)},{i},{method.value},"
                    f"{_format_float(wait)},"
                )
                assert next(rows) == expected
    assert next(rows, None) is None


def _fresh_main(argv, hash_seed=None):
    """`main(argv)` in a new interpreter: (exit code, stdout, stderr)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(pollwait.__file__))
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; from pollwait.cli import main; sys.exit(main(sys.argv[1:]))",
            *argv,
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_repeated_main_calls_match_fresh_processes(capsys, tmp_path):
    good = write_spec(tmp_path, demo_dict(0.4))
    broken = demo_dict()
    broken["queues"][1]["mean_switchover"] = -1.0
    bad = write_spec(tmp_path, broken, name="bad.json")
    calls = [
        ["analyze", good, "--format", "json"],
        ["analyze", bad],
        ["analyze", good, "--method", "bogus"],
        ["sweep", good, "--rho-grid", "0.1:0.5:0.2", "--methods", "large-s,pcl-based"],
        ["analyze", good, "--rho", "0.7", "--discipline", "gated", "--format", "csv"],
        ["analyze", good, "--format", "json"],
    ]
    in_process = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    assert [r[0] for r in in_process] == [0, 2, 2, 0, 0, 0]
    assert in_process[-1] == in_process[0]
    assert in_process == [_fresh_main(argv) for argv in calls]


def test_spec_file_error_does_not_depend_on_hash_seed(tmp_path):
    # With two bad fields in one queue the error names the first in field
    # order, whatever order the interpreter's string hashing gives sets.
    data = demo_dict()
    data["queues"][0].update(mean_service="x", scv_switchover="y")
    path = write_spec(tmp_path, data)
    first, second = (_fresh_main(["analyze", path], seed) for seed in (1, 3))
    assert first == second
    assert first == (
        2,
        "",
        f"error: {path}: queues[0]: mean_service must be a number, got 'x'\n",
    )
