"""Command line front end.

Subcommands:

* ``analyze``   closed-form waiting times for one system and load
* ``sweep``     waiting times over a load grid, as CSV; with
                ``--with-sim``, simulation points too
* ``simulate``  discrete-event simulation of one system, as JSON
* ``testbed``   accuracy comparison on a parameter grid, written to a
                directory of tables
* ``demo-spec`` print a ready-made system description file

System descriptions are JSON files with a ``version`` field (currently
``"v1"``), a ``discipline``, an optional ``rho``, and a list of queues in
visit order.  Unknown fields and non-finite numbers are rejected.
``--preset NAME`` is the file ``demo-spec --preset NAME`` prints (load
0.7, exhaustive).  ``testbed --jobs`` must be at least 1.

Exit codes: 0 success, 2 ``InvalidInput``, 3 ``NumericalBudget``, 4
``OSError``, and 141 (128 + SIGPIPE), with nothing on stderr, when the
reader of standard output closes it early; any other exception is a
program fault and keeps its traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import inspect
import json
import math
import os
import sys
import tempfile
from enum import Enum
from typing import Optional, Sequence

from .approx import Method, mean_wait, pcl_residual, pcl_rhs
from .errors import InvalidInput, NumericalBudget
# derive_moments is not called here; it stays a module attribute because
# bench/tracer.py wraps it by name.
from .model import (
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

_TOP_LEVEL_KEYS = {f.name for f in dataclasses.fields(SystemSpec)} | {"version"}
# A queue entry holds the fields of QueueSpec; those without a default
# are required.
_QUEUE_KEYS = {f.name for f in dataclasses.fields(QueueSpec)}
_QUEUE_REQUIRED = [
    f.name
    for f in dataclasses.fields(QueueSpec)
    if f.default is dataclasses.MISSING
]

_EXIT_OK = 0
_EXIT_INVALID = 2
_EXIT_BUDGET = 3
_EXIT_IO = 4
_EXIT_CLOSED_PIPE = 128 + 13  # as if killed by SIGPIPE


def load_spec_file(
    path: str,
    rho: Optional[float] = None,
    discipline: Optional[Discipline] = None,
) -> SystemSpec:
    """Read and validate a v1 system description file.

    `rho` and `discipline` override the file's values when given; the file
    may omit ``rho`` if the caller provides one.  Only the file's shape is
    checked here: each value is checked by the field that holds it.
    """
    with open(path) as handle:
        try:
            data = json.load(handle)
        # Besides JSONDecodeError: bytes that are not text, an integer
        # past int's digit limit, and nesting past the recursion limit.
        except (ValueError, RecursionError) as exc:
            raise InvalidInput(f"{path}: not valid JSON: {exc}") from exc

    if not isinstance(data, dict):
        raise InvalidInput(f"{path}: top level must be an object")
    unknown = set(data) - _TOP_LEVEL_KEYS
    if unknown:
        raise InvalidInput(f"{path}: unknown fields {sorted(unknown)}")
    if data.get("version") != SCHEMA_VERSION:
        raise InvalidInput(
            f"{path}: version must be {SCHEMA_VERSION!r}, got "
            f"{data.get('version')!r}"
        )
    if discipline is None:
        discipline = data.get("discipline")
    if rho is None:
        if "rho" not in data:
            raise InvalidInput(
                f"{path}: no rho in file and none given on the command line"
            )
        rho = data["rho"]

    raw_queues = data.get("queues")
    if not isinstance(raw_queues, list) or not raw_queues:
        raise InvalidInput(f"{path}: queues must be a non-empty list")
    queues = []
    for pos, entry in enumerate(raw_queues):
        label = f"queues[{pos}]"
        if not isinstance(entry, dict):
            raise InvalidInput(f"{path}: {label} must be an object")
        unknown = set(entry) - _QUEUE_KEYS
        if unknown:
            raise InvalidInput(
                f"{path}: {label} has unknown fields {sorted(unknown)}"
            )
        missing = [key for key in _QUEUE_REQUIRED if key not in entry]
        if missing:
            raise InvalidInput(
                f"{path}: {label} is missing fields {sorted(missing)}"
            )
        try:
            queues.append(QueueSpec(**entry))
        except InvalidInput as exc:
            raise InvalidInput(f"{path}: {label}: {exc}") from exc
    try:
        return SystemSpec(queues=queues, discipline=discipline, rho=rho)
    except InvalidInput as exc:
        raise InvalidInput(f"{path}: {exc}") from exc


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
        "version": SCHEMA_VERSION,
        "discipline": spec.discipline.value,
        "rho": spec.rho,
        "queues": queues,
    }


_MAX_GRID_POINTS = 100_000


def _parse_rho_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise InvalidInput(
            f"--rho-grid must be start:stop:step, got {text!r}"
        )
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise InvalidInput(
            f"--rho-grid must contain numbers, got {text!r}"
        ) from None
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise InvalidInput(f"--rho-grid must be finite, got {text!r}")
    if step <= 0.0:
        raise InvalidInput(f"--rho-grid step must be positive, got {step!r}")
    if not 0.0 <= start <= stop < 1.0:
        raise InvalidInput(
            f"--rho-grid must have 0 <= start <= stop < 1, got {text!r}"
        )
    # Steps past the start; an infinite quotient fails the bound too.
    steps = (stop - start) / step + 1e-9
    if steps >= _MAX_GRID_POINTS:
        raise InvalidInput(
            f"--rho-grid must have at most {_MAX_GRID_POINTS} points, "
            f"got {text!r}"
        )
    grid = [start + k * step for k in range(int(steps) + 1)]
    for rho in grid:
        if not 0.0 <= rho < 1.0:
            raise InvalidInput(
                f"--rho-grid value {rho!r} outside [0, 1)"
            )
    return grid


def _parse_methods(text: str) -> list[Method]:
    tokens = [token.strip() for token in text.split(",") if token.strip()]
    known = [m.value for m in Method]
    for token in tokens:
        if token not in known:
            raise InvalidInput(f"unknown method {token!r}; choose from {known}")
    if not tokens:
        raise InvalidInput("--methods must name at least one method")
    if len(set(tokens)) < len(tokens):
        raise InvalidInput(f"--methods repeats a method: {text!r}")
    return [Method(token) for token in tokens]


_PRESETS = {
    "three-queue": three_queue_demo_spec,
    "small-switchover": two_queue_small_switchover_spec,
}


def _resolve_spec(args, rho: Optional[float]) -> SystemSpec:
    # A preset is the file demo-spec prints; flags override either alike.
    if (args.spec is None) == (args.preset is None):
        raise InvalidInput("give either a spec file or --preset, not both")
    if args.preset is not None:
        return _PRESETS[args.preset](
            0.7 if rho is None else rho,
            args.discipline or Discipline.EXHAUSTIVE,
        )
    return load_spec_file(args.spec, rho=rho, discipline=args.discipline)


def _format_float(x: float) -> str:
    return f"{x:.10g}"


# Columns of the per-queue analyze table: name, text header, text width.
# Only methods with interpolation constants fill k0, k1 and k2.
_ANALYZE_COLUMNS = (
    ("mean_wait", "mean_wait", 14),
    ("mean_queue_length", "queue_length", 14),
    ("heavy_traffic_delay", "ht_delay", 14),
    ("k0", "k0", 12),
    ("k1", "k1", 12),
    ("k2", "k2", 12),
)


def _cmd_analyze(args) -> int:
    spec = _resolve_spec(args, rho=args.rho)
    method = Method(args.method)
    result = mean_wait(spec, method)
    residual = pcl_residual(spec)
    rows = [
        list(row)
        for row in zip(
            result.mean_wait, result.mean_queue_length, result.heavy_traffic_delay
        )
    ]
    for row, c in zip(rows, result.constants or ()):
        row += [c.k0, c.k1, c.k2]
    names = [name for name, _, _ in _ANALYZE_COLUMNS]

    if args.format == "json":
        queues = []
        for i, row in enumerate(rows):
            entry = {"queue": i, **dict(zip(names[:3], row))}
            if row[3:]:
                entry["constants"] = dict(zip(names[3:], row[3:]))
            queues.append(entry)
        payload = {
            "method": method.value,
            "discipline": spec.discipline.value,
            "rho": spec.rho,
            "pcl_rhs": pcl_rhs(spec),
            "pcl_residual": residual,
            "queues": queues,
        }
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        print(",".join(["queue", *names]))
        for i, row in enumerate(rows):
            cells = [_format_float(v) for v in row]
            cells += [""] * (len(names) - len(row))
            print(",".join([str(i), *cells]))
    else:
        columns = _ANALYZE_COLUMNS[: len(rows[0])]
        print(
            f"method: {method.value}   discipline: {spec.discipline.value}"
            f"   rho: {_format_float(spec.rho)}"
        )
        header = [f"{'queue':>5}"] + [f"{h:>{w}}" for _, h, w in columns]
        print("  ".join(header))
        for i, row in enumerate(rows):
            cells = [f"{v:>{w}.6f}" for v, (_, _, w) in zip(row, columns)]
            print("  ".join([f"{i:>5}", *cells]))
        print(f"pcl_residual: {residual:.6e}")
    return _EXIT_OK


def _cmd_sweep(args) -> int:
    grid = _parse_rho_grid(args.rho_grid)
    methods = _parse_methods(args.methods)
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
        if args.with_sim and rho > 0.0:
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
    config = dataclasses.asdict(cfg)
    del config["max_events"]
    estimates = dataclasses.asdict(est)
    del estimates["replications"]  # already in the config
    payload = {
        "discipline": spec.discipline.value,
        "rho": spec.rho,
        "config": config,
        **estimates,
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
    report = run_comparison(
        cases,
        methods,
        discipline,
        base_seed=args.seed,
        jobs=args.jobs,
        target_customers=args.target_samples,
        replications=args.reps,
    )
    written = write_report_files(report, args.out)
    for line in summary_lines(report):
        print(line)
    print(f"wrote {len(written)} files to {args.out}")
    return _EXIT_OK


def _cmd_demo_spec(args) -> int:
    spec = _resolve_spec(args, rho=args.rho)
    print(json.dumps(spec_to_dict(spec), indent=2))
    return _EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pollwait",
        description="Waiting-time analysis of cyclic polling systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The run flags of simulate default to SimConfig's, and those of testbed
    # to run_comparison's; sweep's simulation flags have shorter defaults.
    defaults = SimConfig()
    bed_defaults = {
        name: param.default
        for name, param in inspect.signature(run_comparison).parameters.items()
    }

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
    sim_flags = p.add_argument_group(description="read only with --with-sim")
    sim_flags.add_argument("--sim-cycles", type=int, default=20_000)
    sim_flags.add_argument("--sim-reps", type=int, default=3)
    sim_flags.add_argument("--seed", type=int, default=defaults.base_seed)
    sim_flags.add_argument("--max-events", type=int, default=200_000_000)
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("simulate", help="discrete-event simulation, as JSON")
    add_spec_arguments(p)
    p.add_argument("--cycles", type=int, default=defaults.measured_cycles)
    p.add_argument("--warmup", type=int, default=defaults.warmup_cycles)
    p.add_argument("--reps", type=int, default=defaults.replications)
    p.add_argument("--seed", type=int, default=defaults.base_seed)
    p.add_argument("--batches", type=int, default=defaults.batch_count)
    p.add_argument("--max-events", type=int, default=defaults.max_events)
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
    p.add_argument("--seed", type=int, default=bed_defaults["base_seed"])
    p.add_argument(
        "--target-samples",
        type=int,
        default=bed_defaults["target_customers"],
        help="waiting-time samples per case",
    )
    p.add_argument("--reps", type=int, default=bed_defaults["replications"])
    p.set_defaults(func=_cmd_testbed)

    p = sub.add_parser(
        "demo-spec", help="print a ready-made system description"
    )
    p.add_argument(
        "--preset", default="three-queue", choices=sorted(_PRESETS)
    )
    p.add_argument("--rho", type=float)
    p.add_argument("--discipline", choices=[d.value for d in Discipline])
    p.set_defaults(func=_cmd_demo_spec, spec=None)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # Raise a closed pipe here, not in the flush at interpreter exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout quit early: not an error of this run.  Send
        # what is still buffered to devnull so the flush at exit is quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return _EXIT_CLOSED_PIPE
    except NumericalBudget as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_BUDGET
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INVALID
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
