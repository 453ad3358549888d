"""Command line front end.

Subcommands:

* ``analyze``   closed-form waiting times for one system and load
* ``sweep``     waiting times over a load grid, optionally with
                simulation points, as CSV
* ``simulate``  discrete-event simulation of one system, as JSON
* ``testbed``   accuracy comparison on a parameter grid, written to a
                directory of tables
* ``demo-spec`` print a ready-made system description file

System descriptions are JSON files with a ``version`` field (currently
``"v1"``), a ``discipline``, an optional ``rho``, and a list of queues in
visit order.  Unknown fields and non-finite numbers are rejected.

Exit codes: 0 success, 2 invalid input, 3 computational budget exceeded,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from typing import Optional, Sequence

# pcl_residual, pcl_rhs and derive_moments are not called here; they stay
# module attributes because bench/tracer.py wraps them by name.
from .approx import (  # noqa: F401
    Method,
    _system,
    mean_wait,
    pcl_residual,
    pcl_rhs,
)
from .errors import NumericalBudget, PollingModelError, SpecFileError
from .model import (
    DensityMode,
    Discipline,
    QueueSpec,
    SystemSpec,
    derive_moments,  # noqa: F401
    scale_to_load,
)
from .sim import SimConfig, simulate
from .testbed import (
    high_variation_poisson_bed,
    poisson_bed,
    run_comparison,
    sampled_bed,
    standard_bed,
    summary_lines,
    three_queue_demo_spec,
    two_queue_small_switchover_spec,
    write_report_files,
)

SCHEMA_VERSION = "v1"

_TOP_LEVEL_KEYS = {"version", "discipline", "rho", "queues"}
_QUEUE_REQUIRED = {
    "mean_service",
    "scv_service",
    "mean_interarrival_at_saturation",
    "scv_interarrival",
    "mean_switchover",
    "scv_switchover",
}
_QUEUE_OPTIONAL = {"density_mode", "density_value"}

_EXIT_OK = 0
_EXIT_INVALID = 2
_EXIT_BUDGET = 3
_EXIT_IO = 4


def _reject_constant(_value: str) -> float:
    raise SpecFileError("non-finite numbers are not allowed")


def _number(value, label: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecFileError(f"{label} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise SpecFileError(f"{label} is too large for a float") from None
    if not math.isfinite(number):
        raise SpecFileError(f"{label} must be finite, got {value!r}")
    return number


def load_spec_file(
    path: str,
    rho: Optional[float] = None,
    discipline: Optional[Discipline] = None,
) -> SystemSpec:
    """Read and validate a v1 system description file.

    `rho` and `discipline` override the file's values when given; the file
    may omit ``rho`` if the caller provides one.
    """
    with open(path) as handle:
        try:
            data = json.load(handle, parse_constant=_reject_constant)
        except json.JSONDecodeError as exc:
            raise SpecFileError(f"{path}: not valid JSON: {exc}") from exc

    if not isinstance(data, dict):
        raise SpecFileError(f"{path}: top level must be an object")
    unknown = set(data) - _TOP_LEVEL_KEYS
    if unknown:
        raise SpecFileError(f"{path}: unknown fields {sorted(unknown)}")
    if data.get("version") != SCHEMA_VERSION:
        raise SpecFileError(
            f"{path}: version must be {SCHEMA_VERSION!r}, got "
            f"{data.get('version')!r}"
        )

    if discipline is None:
        raw = data.get("discipline")
        try:
            discipline = Discipline(raw)
        except ValueError:
            raise SpecFileError(
                f"{path}: discipline must be one of "
                f"{[d.value for d in Discipline]}, got {raw!r}"
            ) from None

    if rho is None:
        if "rho" not in data:
            raise SpecFileError(
                f"{path}: no rho in file and none given on the command line"
            )
        rho = _number(data["rho"], "rho")

    raw_queues = data.get("queues")
    if not isinstance(raw_queues, list) or not raw_queues:
        raise SpecFileError(f"{path}: queues must be a non-empty list")
    queues = []
    for pos, entry in enumerate(raw_queues):
        label = f"queues[{pos}]"
        if not isinstance(entry, dict):
            raise SpecFileError(f"{path}: {label} must be an object")
        unknown = set(entry) - _QUEUE_REQUIRED - _QUEUE_OPTIONAL
        if unknown:
            raise SpecFileError(
                f"{path}: {label} has unknown fields {sorted(unknown)}"
            )
        missing = _QUEUE_REQUIRED - set(entry)
        if missing:
            raise SpecFileError(
                f"{path}: {label} is missing fields {sorted(missing)}"
            )
        kwargs = {
            key: _number(entry[key], f"{label}.{key}")
            for key in _QUEUE_REQUIRED
        }
        mode_raw = entry.get("density_mode", DensityMode.TWO_MOMENT_APPROX.value)
        try:
            mode = DensityMode(mode_raw)
        except ValueError:
            raise SpecFileError(
                f"{path}: {label}.density_mode must be one of "
                f"{[m.value for m in DensityMode]}, got {mode_raw!r}"
            ) from None
        value = entry.get("density_value")
        if value is not None:
            value = _number(value, f"{label}.density_value")
        queues.append(
            QueueSpec(density_mode=mode, density_value=value, **kwargs)
        )
    return SystemSpec(queues=tuple(queues), discipline=discipline, rho=rho)


def spec_to_dict(spec: SystemSpec) -> dict:
    """JSON-serializable v1 form of a system description."""
    queues = []
    for q in spec.queues:
        entry = {
            "mean_service": q.mean_service,
            "scv_service": q.scv_service,
            "mean_interarrival_at_saturation": q.mean_interarrival_at_saturation,
            "scv_interarrival": q.scv_interarrival,
            "mean_switchover": q.mean_switchover,
            "scv_switchover": q.scv_switchover,
            "density_mode": q.density_mode.value,
        }
        if q.density_value is not None:
            entry["density_value"] = q.density_value
        queues.append(entry)
    return {
        "version": SCHEMA_VERSION,
        "discipline": spec.discipline.value,
        "rho": spec.rho,
        "queues": queues,
    }


def _parse_rho_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise SpecFileError(
            f"--rho-grid must be start:stop:step, got {text!r}"
        )
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise SpecFileError(
            f"--rho-grid must contain numbers, got {text!r}"
        ) from None
    if step <= 0.0:
        raise SpecFileError(f"--rho-grid step must be positive, got {step!r}")
    if stop < start:
        raise SpecFileError("--rho-grid stop must be >= start")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    grid = [start + k * step for k in range(count)]
    for rho in grid:
        if not 0.0 <= rho < 1.0:
            raise SpecFileError(
                f"--rho-grid value {rho!r} outside [0, 1)"
            )
    return grid


def _parse_methods(text: str) -> list[Method]:
    methods = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            methods.append(Method(token))
        except ValueError:
            raise SpecFileError(
                f"unknown method {token!r}; choose from "
                f"{[m.value for m in Method]}"
            ) from None
    if not methods:
        raise SpecFileError("--methods must name at least one method")
    return methods


_PRESETS = {
    "three-queue": three_queue_demo_spec,
    "small-switchover": two_queue_small_switchover_spec,
}


def _resolve_spec(args, rho: Optional[float] = None) -> SystemSpec:
    discipline = (
        Discipline(args.discipline) if getattr(args, "discipline", None) else None
    )
    preset = getattr(args, "preset", None)
    if preset is not None:
        builder = _PRESETS[preset]
        return builder(
            rho if rho is not None else 0.5,
            discipline or Discipline.EXHAUSTIVE,
        )
    if args.spec is None:
        raise SpecFileError("either a spec file or --preset is required")
    return load_spec_file(args.spec, rho=rho, discipline=discipline)


def _format_float(x: float) -> str:
    return f"{x:.10g}"


def _cmd_analyze(args) -> int:
    spec = _resolve_spec(args, rho=args.rho)
    method = Method(args.method)
    system = _system(spec)
    result = system.result(method, spec.rho)
    delays = system.ht_delays
    residual = system.pcl_residual(spec.rho)

    if args.format == "json":
        payload = {
            "method": method.value,
            "discipline": spec.discipline.value,
            "rho": spec.rho,
            "pcl_rhs": system.pcl_rhs(spec.rho),
            "pcl_residual": residual,
            "queues": [],
        }
        for i in range(spec.n):
            entry = {
                "queue": i,
                "mean_wait": result.mean_wait[i],
                "mean_queue_length": result.mean_queue_length[i],
                "heavy_traffic_delay": delays[i],
            }
            if result.constants is not None:
                c = result.constants[i]
                entry["constants"] = {"k0": c.k0, "k1": c.k1, "k2": c.k2}
            payload["queues"].append(entry)
        print(json.dumps(payload, indent=2))
        return _EXIT_OK

    if args.format == "csv":
        print(
            "queue,mean_wait,mean_queue_length,heavy_traffic_delay,k0,k1,k2"
        )
        for i in range(spec.n):
            cells = [
                str(i),
                _format_float(result.mean_wait[i]),
                _format_float(result.mean_queue_length[i]),
                _format_float(delays[i]),
            ]
            if result.constants is not None:
                c = result.constants[i]
                cells += [
                    _format_float(c.k0),
                    _format_float(c.k1),
                    _format_float(c.k2),
                ]
            else:
                cells += ["", "", ""]
            print(",".join(cells))
        return _EXIT_OK

    print(
        f"method: {method.value}   discipline: {spec.discipline.value}"
        f"   rho: {_format_float(spec.rho)}"
    )
    header = f"{'queue':>5}  {'mean_wait':>14}  {'queue_length':>14}  {'ht_delay':>14}"
    if result.constants is not None:
        header += f"  {'k0':>12}  {'k1':>12}  {'k2':>12}"
    print(header)
    for i in range(spec.n):
        line = (
            f"{i:>5}  {result.mean_wait[i]:>14.6f}"
            f"  {result.mean_queue_length[i]:>14.6f}  {delays[i]:>14.6f}"
        )
        if result.constants is not None:
            c = result.constants[i]
            line += f"  {c.k0:>12.6f}  {c.k1:>12.6f}  {c.k2:>12.6f}"
        print(line)
    print(f"pcl_residual: {residual:.6e}")
    return _EXIT_OK


def _cmd_sweep(args) -> int:
    grid = _parse_rho_grid(args.rho_grid)
    methods = _parse_methods(args.methods)
    with_sim = args.with_sim or (args.preset is not None and not args.no_sim)

    base = _resolve_spec(args, rho=grid[0])
    lines = ["rho,queue,method,mean_wait,ci_half_width"]
    for rho in grid:
        spec = scale_to_load(base, rho)
        for method in methods:
            result = mean_wait(spec, method)
            for i in range(spec.n):
                lines.append(
                    f"{_format_float(rho)},{i},{method.value},"
                    f"{_format_float(result.mean_wait[i])},"
                )
        if with_sim and rho > 0.0:
            cfg = SimConfig(
                warmup_cycles=max(200, args.sim_cycles // 10),
                measured_cycles=args.sim_cycles,
                replications=args.sim_reps,
                base_seed=args.seed,
                batch_count=10,
                max_events=args.max_events,
            )
            est = simulate(spec, cfg)
            for i in range(spec.n):
                lines.append(
                    f"{_format_float(rho)},{i},simulation,"
                    f"{_format_float(est.mean_wait[i])},"
                    f"{_format_float(est.ci_half_width[i])}"
                )
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return _EXIT_OK


def _cmd_simulate(args) -> int:
    spec = _resolve_spec(args, rho=args.rho)
    cfg = SimConfig(
        warmup_cycles=args.warmup,
        measured_cycles=args.cycles,
        replications=args.reps,
        base_seed=args.seed,
        batch_count=args.batches,
        max_events=args.max_events,
    )
    est = simulate(spec, cfg)
    payload = {
        "discipline": spec.discipline.value,
        "rho": spec.rho,
        "config": {
            "warmup_cycles": cfg.warmup_cycles,
            "measured_cycles": cfg.measured_cycles,
            "replications": cfg.replications,
            "base_seed": cfg.base_seed,
            "batch_count": cfg.batch_count,
        },
        "mean_wait": list(est.mean_wait),
        "ci_half_width": list(est.ci_half_width),
        "mean_queue_length": list(est.mean_queue_length),
        "realized_load": est.realized_load,
        "realized_load_ci_half_width": est.realized_load_ci_half_width,
        "samples": est.samples,
        "samples_per_queue": list(est.samples_per_queue),
        "total_events": est.total_events,
    }
    print(json.dumps(payload, indent=2))
    return _EXIT_OK


_SUBSETS = {
    "full": standard_bed,
    "poisson": poisson_bed,
    "sampled": sampled_bed,
    "high-variation": high_variation_poisson_bed,
}


def _cmd_testbed(args) -> int:
    # Fail on an unusable output directory before burning simulation time.
    os.makedirs(args.out, exist_ok=True)
    with tempfile.NamedTemporaryFile(dir=args.out, prefix=".probe"):
        pass

    cases = _SUBSETS[args.subset]()
    methods = _parse_methods(args.methods)
    discipline = Discipline(args.discipline)
    target = args.target_samples
    replications = args.reps
    if args.fidelity == "publication":
        target *= 25
        replications = max(replications, 10)
    report = run_comparison(
        cases,
        methods,
        discipline,
        base_seed=args.seed,
        jobs=args.jobs,
        target_customers=target,
        replications=replications,
    )
    written = write_report_files(report, args.out)
    for line in summary_lines(report):
        print(line)
    print(f"wrote {len(written)} files to {args.out}")
    return _EXIT_OK


def _cmd_demo_spec(args) -> int:
    spec = _PRESETS[args.preset](args.rho, Discipline(args.discipline))
    print(json.dumps(spec_to_dict(spec), indent=2))
    return _EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pollwait",
        description="Waiting-time analysis of cyclic polling systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_arguments(p, with_rho=True):
        p.add_argument("spec", nargs="?", help="system description JSON file")
        p.add_argument(
            "--preset",
            choices=sorted(_PRESETS),
            help="use a built-in system instead of a spec file",
        )
        p.add_argument(
            "--discipline",
            choices=[d.value for d in Discipline],
            help="override the service discipline",
        )
        if with_rho:
            p.add_argument(
                "--rho", type=float, help="override the total load"
            )

    p = sub.add_parser("analyze", help="closed-form estimates for one load")
    add_spec_arguments(p)
    p.add_argument(
        "--method",
        default=Method.INTERPOLATION.value,
        choices=[m.value for m in Method],
    )
    p.add_argument(
        "--format", default="text", choices=["text", "json", "csv"]
    )
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("sweep", help="estimates over a load grid, as CSV")
    add_spec_arguments(p, with_rho=False)
    p.add_argument(
        "--rho-grid",
        required=True,
        help="load grid as start:stop:step, e.g. 0.05:0.95:0.05",
    )
    p.add_argument(
        "--methods",
        default=Method.INTERPOLATION.value,
        help="comma-separated method names",
    )
    p.add_argument(
        "--with-sim",
        action="store_true",
        help="add simulation points at every grid load",
    )
    p.add_argument(
        "--no-sim",
        action="store_true",
        help="suppress the simulation points a preset adds by default",
    )
    p.add_argument("--sim-cycles", type=int, default=20_000)
    p.add_argument("--sim-reps", type=int, default=3)
    p.add_argument("--seed", type=int, default=20260822)
    p.add_argument("--max-events", type=int, default=200_000_000)
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("simulate", help="discrete-event simulation, as JSON")
    add_spec_arguments(p)
    p.add_argument("--cycles", type=int, default=100_000)
    p.add_argument("--warmup", type=int, default=10_000)
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--seed", type=int, default=20260822)
    p.add_argument("--batches", type=int, default=20)
    p.add_argument("--max-events", type=int, default=500_000_000)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "testbed", help="accuracy comparison on a parameter grid"
    )
    p.add_argument(
        "--discipline",
        required=True,
        choices=[d.value for d in Discipline],
    )
    p.add_argument(
        "--subset", default="sampled", choices=sorted(_SUBSETS)
    )
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument(
        "--methods", default=Method.INTERPOLATION.value,
        help="comma-separated method names",
    )
    p.add_argument("--jobs", type=int, help="worker processes")
    p.add_argument("--seed", type=int, default=777)
    p.add_argument(
        "--target-samples",
        type=int,
        default=400_000,
        help="waiting-time samples per case (before fidelity scaling)",
    )
    p.add_argument("--reps", type=int, default=3)
    p.add_argument(
        "--fidelity",
        default="desk",
        choices=["desk", "publication"],
        help="publication fidelity multiplies run lengths; expect hours",
    )
    p.set_defaults(func=_cmd_testbed)

    p = sub.add_parser(
        "demo-spec", help="print a ready-made system description"
    )
    p.add_argument(
        "--preset", default="three-queue", choices=sorted(_PRESETS)
    )
    p.add_argument("--rho", type=float, default=0.7)
    p.add_argument(
        "--discipline",
        default=Discipline.EXHAUSTIVE.value,
        choices=[d.value for d in Discipline],
    )
    p.set_defaults(func=_cmd_demo_spec)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalBudget as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_BUDGET
    except (PollingModelError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INVALID
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
