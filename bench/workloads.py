"""The three benchmark workloads.

A workload is one round of operations.  A run repeats whole rounds, so
every run attempts the same operations in the same proportions.  Each
operation reaches the program through a public function (``simulate``,
``mean_wait``, ``pcl_residual``, ``materialize_case``,
``report_from_csv``) or through ``cli.main``, and names it through its
module at call time, so that the wrappers of a traced run see the call.

The seed fixes every random input: simulation base seeds, the loads of
the ``analyze`` calls and the switch-over scale of the spec files.  It
never changes how much work an operation does.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

import pollwait
from pollwait import approx, cli, sim, testbed
from pollwait import DensityMode, Discipline, QueueSpec, SimConfig, SystemSpec

import reference

METHODS = [m.value for m in pollwait.Method]
DISCIPLINES = [d.value for d in Discipline]

# Simulation checks: a symmetric Poisson mean lies within this many
# confidence half-widths of the exact value; the realized load and the
# per-queue sample counts lie within these relative tolerances.
SIM_Z = 4.0
SIM_LOAD_TOL = 0.10
SIM_COUNT_TOL = 0.30

# Every run of a workload that simulates also makes one long, untimed
# simulation of the symmetric system at rho 0.5 under both disciplines.
# Its half-widths are under 1 % of the mean, so a wait biased by 5 % lies
# more than 4 half-widths from the exact value in every run.
CHECK_RHO = 0.5
CHECK_CYCLES = 150_000
CHECK_LOAD_TOL = 0.03
CHECK_COUNT_TOL = 0.15

TESTBED_TARGET_SAMPLES = 40_000
SWEEP_GRID = "0.001:0.999:0.001"
SWEEP_POINTS = 999


@dataclass
class Op:
    """One timed call into the program.

    ``call`` does the work and returns its output.  ``work`` counts the
    units of work the output holds, ``problems`` checks it, and
    ``latency_ms`` (when set) turns the call's elapsed seconds into the
    latency sample for ``op_p50_ms``.  ``dump`` maps the output to files
    for the output dump, as {relative path: text to append}.
    """

    label: str
    call: Callable[[], Any]
    work: Callable[[Any], int]
    problems: Callable[[Any], list[str]]
    dump: Callable[[Any], dict[str, str]]
    latency_ms: Optional[Callable[[float], float]] = None
    simulates: bool = False


@dataclass
class Workload:
    name: str
    ops: list[Op]
    trace_rounds: int  # rounds of a traced run: counts repeat exactly
    check: Optional[Op] = None  # called once per run, untimed


def digest(output: Any) -> str:
    return hashlib.sha256(repr(output).encode()).hexdigest()


def _seed_stream(seed: int, salt: str) -> random.Random:
    return random.Random(f"{salt}:{seed}")


# ---------------------------------------------------------------- systems


def demo_system(rho: float, discipline: Discipline, switch_scale=1.0):
    """Three queues with 10/30/60% of the load, H2 arrivals of scv 3,
    exponential unit service and switch-over times."""
    return SystemSpec(
        queues=tuple(
            QueueSpec(
                mean_service=1.0,
                scv_service=1.0,
                mean_interarrival_at_saturation=1.0 / f,
                scv_interarrival=3.0,
                mean_switchover=1.0 * switch_scale,
                scv_switchover=1.0,
                density_mode=DensityMode.EXACT_H2,
            )
            for f in (0.1, 0.3, 0.6)
        ),
        discipline=discipline,
        rho=rho,
    )


def five_queue_system(rho: float, discipline: Discipline, switch_scale=1.0):
    """Five queues with mixed-Erlang arrivals (scv 0.5) and services (scv
    0.5), loads falling from 30% to 10%."""
    return SystemSpec(
        queues=tuple(
            QueueSpec(
                mean_service=1.0,
                scv_service=0.5,
                mean_interarrival_at_saturation=1.0 / f,
                scv_interarrival=0.5,
                mean_switchover=0.4 * switch_scale,
                scv_switchover=0.5,
                density_mode=DensityMode.EXACT_MIXED_ERLANG,
            )
            for f in (0.3, 0.25, 0.2, 0.15, 0.1)
        ),
        discipline=discipline,
        rho=rho,
    )


def symmetric_system(rho: float, discipline: Discipline, switch_scale=1.0):
    """Four identical queues with Poisson arrivals and exponential service
    and switch-over times (mean 1 and 0.5)."""
    return SystemSpec(
        queues=tuple(
            QueueSpec(
                mean_service=1.0,
                scv_service=1.0,
                mean_interarrival_at_saturation=4.0,
                scv_interarrival=1.0,
                mean_switchover=0.5 * switch_scale,
                scv_switchover=1.0,
                density_mode=DensityMode.EXACT_EXPONENTIAL,
            )
            for _ in range(4)
        ),
        discipline=discipline,
        rho=rho,
    )


def small_switchover_system(rho: float, discipline: Discipline, switch_scale=1.0):
    """Two exponential queues, 5:1 rate imbalance, switch-over times five
    times smaller than services."""
    service = 9.0 / 40.0
    return SystemSpec(
        queues=tuple(
            QueueSpec(
                mean_service=service,
                scv_service=1.0,
                mean_interarrival_at_saturation=service / f,
                scv_interarrival=1.0,
                mean_switchover=9.0 / 200.0 * switch_scale,
                scv_switchover=1.0,
                density_mode=DensityMode.EXACT_EXPONENTIAL,
            )
            for f in (5.0 / 6.0, 1.0 / 6.0)
        ),
        discipline=discipline,
        rho=rho,
    )


def spec_dict(spec: SystemSpec) -> dict:
    """The v1 spec-file form of `spec`, written from its fields."""
    queues = []
    for q in spec.queues:
        entry = {
            f.name: getattr(q, f.name)
            for f in dataclasses.fields(q)
            if f.name not in ("density_mode", "density_value")
        }
        entry["density_mode"] = q.density_mode.value
        queues.append(entry)
    return {
        "version": "v1",
        "discipline": spec.discipline.value,
        "rho": spec.rho,
        "queues": queues,
    }


# ------------------------------------------------------------- simulation


def _sweep_config(base_seed: int) -> SimConfig:
    # What `pollwait sweep --with-sim` runs at its default --sim-cycles.
    return SimConfig(
        warmup_cycles=2000,
        measured_cycles=20_000,
        replications=3,
        base_seed=base_seed,
        batch_count=10,
        max_events=200_000_000,
    )


def _estimate_json(label: str, est) -> str:
    return json.dumps({"op": label, **dataclasses.asdict(est)}) + "\n"


def _sim_op(label: str, spec: SystemSpec, cfg: SimConfig) -> Op:
    return Op(
        label=label,
        call=lambda: sim.simulate(spec, cfg),
        work=lambda est: est.samples,
        problems=lambda est: reference.sim_problems(
            spec, cfg, est, z=SIM_Z, load_tol=SIM_LOAD_TOL, count_tol=SIM_COUNT_TOL
        ),
        dump=lambda est: {"simulate.jsonl": _estimate_json(label, est)},
        latency_ms=lambda seconds: 1000.0 * seconds,
        simulates=True,
    )


def check_config(base_seed: int) -> SimConfig:
    """The long simulation of the check that every simulating run makes."""
    return SimConfig(
        warmup_cycles=1000,
        measured_cycles=CHECK_CYCLES,
        replications=3,
        base_seed=base_seed,
        batch_count=10,
    )


def check_problems(spec: SystemSpec, cfg: SimConfig, est) -> list[str]:
    return reference.sim_problems(
        spec, cfg, est, z=SIM_Z, load_tol=CHECK_LOAD_TOL, count_tol=CHECK_COUNT_TOL
    )


def _check_op(seed: int) -> Op:
    """Untimed long simulations of the symmetric system, one per
    discipline, whose means must lie near the exact value."""
    rng = _seed_stream(seed, "check")
    runs = [
        (symmetric_system(CHECK_RHO, d), check_config(rng.getrandbits(32)))
        for d in Discipline
    ]
    labels = [f"check-{spec.discipline.value}-rho{CHECK_RHO}" for spec, _ in runs]
    return Op(
        label="check",
        call=lambda: tuple(sim.simulate(spec, cfg) for spec, cfg in runs),
        work=lambda output: 0,
        problems=lambda output: [
            f"{label}: {problem}"
            for label, (spec, cfg), est in zip(labels, runs, output)
            for problem in check_problems(spec, cfg, est)
        ],
        dump=lambda output: {
            "check.jsonl": "".join(map(_estimate_json, labels, output))
        },
    )


SIM_SPARSE = [
    (demo_system, 0.15),
    (five_queue_system, 0.25),
    (symmetric_system, 0.2),
]


def _sim_sparse(seed: int) -> Workload:
    rng = _seed_stream(seed, "sim-sparse")
    ops = []
    for build, rho in SIM_SPARSE:
        for discipline in Discipline:
            spec = build(rho, discipline)
            label = f"{build.__name__}-{discipline.value}-rho{rho}"
            ops.append(_sim_op(label, spec, _sweep_config(rng.getrandbits(32))))
    return Workload("sim-sparse", ops, trace_rounds=2, check=_check_op(seed))


# ------------------------------------------------------------ closed form


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _waits(spec: SystemSpec, method: str) -> tuple[float, ...]:
    return approx.mean_wait(spec, pollwait.Method(method)).mean_wait


def _analyze_op(path: str, spec: SystemSpec, method: str, label: str) -> Op:
    argv = [
        "analyze", path, "--rho", repr(spec.rho),
        "--discipline", spec.discipline.value,
        "--method", method, "--format", "json",
    ]

    def problems(output):
        code, text = output
        if code != 0:
            return [f"exit code {code}"]
        return reference.analyze_problems(
            json.loads(text), spec, method, _waits(spec, method),
            approx.pcl_residual(spec),
        )

    return Op(
        label=label,
        call=lambda: _run_cli(argv),
        work=lambda output: spec.n,
        problems=problems,
        dump=lambda output: {f"analyze/{label}.json": output[1]},
        latency_ms=lambda seconds: 1000.0 * seconds,
    )


def _sweep_op(path: str, spec: SystemSpec) -> Op:
    argv = ["sweep", path, "--rho-grid", SWEEP_GRID, "--methods", ",".join(METHODS)]
    rows = SWEEP_POINTS * len(METHODS) * spec.n

    def direct(rho, method):
        return _waits(pollwait.scale_to_load(spec, rho), method)

    def problems(output):
        code, text = output
        if code != 0:
            return [f"exit code {code}"]
        return reference.sweep_problems(text, rows, direct)

    return Op(
        label="sweep",
        call=lambda: _run_cli(argv),
        work=lambda output: rows,
        problems=problems,
        dump=lambda output: {"sweep.csv": output[1]},
    )


def _bed_op(index: int, spec: SystemSpec) -> Op:
    methods = list(pollwait.Method)

    def call():
        return tuple(approx.mean_wait(spec, m).mean_wait for m in methods)

    def dump(output):
        lines = "".join(
            f"{index},{spec.discipline.value},{m.value},{q},{w!r}\n"
            for m, waits in zip(methods, output)
            for q, w in enumerate(waits)
        )
        return {"standard_bed.csv": lines}

    return Op(
        label=f"bed-{index}-{spec.discipline.value}",
        call=call,
        work=lambda output: spec.n * len(methods),
        problems=lambda output: reference.closed_form_problems(
            spec, {m.value: w for m, w in zip(methods, output)}
        ),
        dump=dump,
    )


CLOSED_FORM_SYSTEMS = [
    (demo_system, Discipline.EXHAUSTIVE),
    (five_queue_system, Discipline.GATED),
    (symmetric_system, Discipline.EXHAUSTIVE),
    (small_switchover_system, Discipline.GATED),
]


def _closed_form(seed: int, workdir: str) -> Workload:
    rng = _seed_stream(seed, "closed-form")
    os.makedirs(workdir, exist_ok=True)
    ops = []
    files = {}
    for build, discipline in CLOSED_FORM_SYSTEMS:
        scale = rng.uniform(0.5, 2.0)
        loads = [round(rng.uniform(0.05, 0.95), 6) for _ in range(2)]
        base = build(0.5, discipline, scale)
        path = os.path.join(workdir, f"{build.__name__}.json")
        with open(path, "w") as handle:
            json.dump(spec_dict(base), handle)
        files[build.__name__] = (path, base)
        for d in Discipline:
            for k, rho in enumerate(loads):
                spec = build(rho, d, scale)
                for method in METHODS:
                    label = f"{build.__name__}-{d.value}-{k}-rho{rho}-{method}"
                    ops.append(_analyze_op(path, spec, method, label))
    ops.append(_sweep_op(*files["five_queue_system"]))
    for index, case in enumerate(pollwait.standard_bed()):
        for d in Discipline:
            ops.append(_bed_op(index, testbed.materialize_case(case, d)))
    return Workload("closed-form", ops, trace_rounds=1)


# ---------------------------------------------------------------- testbed


def _testbed(seed: int, workdir: str) -> Workload:
    cases = pollwait.sampled_bed()
    # The specs the pass builds, made here too so that the checks know
    # each case's queue count.
    queue_counts = [testbed.materialize_case(c).n for c in cases]
    rng = _seed_stream(seed, "testbed-sampled")
    ops = []
    for d in DISCIPLINES:
        out = os.path.join(workdir, d)
        raw = os.path.join(out, "raw_records.csv")
        argv = [
            "testbed", "--discipline", d, "--subset", "sampled",
            "--out", out, "--methods", ",".join(METHODS), "--jobs", "1",
            "--seed", str(rng.getrandbits(31)),
            "--target-samples", str(TESTBED_TARGET_SAMPLES),
        ]
        state: dict = {}

        def run_pass(argv=argv, raw=raw, state=state):
            code, text = _run_cli(argv)
            state["summary"] = text.splitlines()
            with open(raw, "rb") as handle:
                return code, text, hashlib.sha256(handle.read()).hexdigest()

        def pass_problems(output, out=out):
            code, text, _ = output
            if code != 0:
                return [f"exit code {code}"]
            files = 2 + len(METHODS) * 8
            if f"wrote {files} files to {out}" not in text:
                return [f"expected {files} files: {text[-200:]}"]
            return []

        def dump_dir(output, out=out, d=d):
            files = {}
            for name in sorted(os.listdir(out)):
                if not name.startswith("."):
                    with open(os.path.join(out, name)) as handle:
                        files[f"{d}/{name}"] = handle.read()
            return files

        ops.append(
            Op(
                label=f"testbed-{d}",
                call=run_pass,
                work=lambda output: len(cases),
                problems=pass_problems,
                dump=dump_dir,
                latency_ms=lambda seconds: 1000.0 * seconds / len(cases),
                simulates=True,
            )
        )
        ops.append(
            Op(
                label=f"reload-{d}",
                call=lambda raw=raw: testbed.report_from_csv(raw),
                work=lambda output: 0,
                problems=lambda report, raw=raw, d=d, state=state: (
                    reference.testbed_problems(
                        raw, report, queue_counts, METHODS, d,
                        state.get("summary", []),
                    )
                ),
                dump=lambda output: {},
            )
        )
    return Workload("testbed-sampled", ops, trace_rounds=1, check=_check_op(seed))


WORKLOADS = ("sim-sparse", "closed-form", "testbed-sampled")


def build(name: str, seed: int, workdir: str) -> Workload:
    """Inputs of workload `name` for `seed`; files go under `workdir`."""
    if name == "sim-sparse":
        return _sim_sparse(seed)
    if name == "closed-form":
        return _closed_form(seed, workdir)
    if name == "testbed-sampled":
        return _testbed(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
