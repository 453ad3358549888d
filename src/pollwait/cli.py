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
``--preset NAME`` is a v1 document kept in this module, the one
``demo-spec --preset NAME`` prints (load 0.7, exhaustive), and is read by
the code that reads a file.  ``testbed --jobs`` must be at least 1.

Exit codes: 0 success, 2 ``InvalidInput``, 3 ``NumericalBudget``, 4
``OSError``, each after one ``error:`` line, and 141 (128 + SIGPIPE),
with nothing on stderr, when the reader of standard output closes it
early.  A usage error that argparse finds raises ``SystemExit(2)`` out
of `main`: one that the command's parser finds (a missing or malformed
value) prints the command's usage and ``pollwait <command>: error:
...``; arguments that no parser takes (an unknown flag, an extra
positional) print the top-level usage and ``pollwait: error:
unrecognized arguments: ...``.  Any other exception is a program fault
and keeps its traceback.
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
from json.encoder import encode_basestring_ascii
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
from .sim import SimConfig, _check_budget, simulate
from .testbed import (
    _methods,
    high_variation_poisson_bed,
    poisson_bed,
    run_comparison,
    sampled_bed,
    standard_bed,
    summary_lines,
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
_EXIT_CODES = {InvalidInput: 2, NumericalBudget: 3, OSError: 4}
_EXIT_CLOSED_PIPE = 128 + 13  # as if killed by SIGPIPE


def load_spec_file(
    path: str,
    rho: Optional[float] = None,
    discipline: Optional[Discipline] = None,
) -> SystemSpec:
    """Read and validate a v1 system description file.

    `rho` and `discipline` override the file's values when given; the file
    may omit ``rho`` if the caller provides one.  Only the file's shape is
    checked here: each value is checked by the field that holds it.  Every
    error message starts with the path.
    """
    with open(path) as handle:
        try:
            data = json.load(handle)
        # Besides JSONDecodeError: bytes that are not text, an integer
        # past int's digit limit, and nesting past the recursion limit.
        except (ValueError, RecursionError) as exc:
            raise InvalidInput(f"{path}: not valid JSON: {exc}") from exc
    try:
        return _spec_from_document(data, rho, discipline)
    except InvalidInput as exc:
        raise InvalidInput(f"{path}: {exc}") from exc


def _spec_from_document(
    data, rho: Optional[float], discipline: Optional[Discipline]
) -> SystemSpec:
    # load_spec_file's checks on a decoded v1 document; no path in messages.
    if not isinstance(data, dict):
        raise InvalidInput("top level must be an object")
    unknown = set(data) - _TOP_LEVEL_KEYS
    if unknown:
        raise InvalidInput(f"unknown fields {sorted(unknown)}")
    if data.get("version") != SCHEMA_VERSION:
        raise InvalidInput(
            f"version must be {SCHEMA_VERSION!r}, got {data.get('version')!r}"
        )
    if discipline is None:
        discipline = data.get("discipline")
    if rho is None:
        if "rho" not in data:
            raise InvalidInput(
                "no rho in file and none given on the command line"
            )
        rho = data["rho"]

    raw_queues = data.get("queues")
    if not isinstance(raw_queues, list) or not raw_queues:
        raise InvalidInput("queues must be a non-empty list")
    queues = []
    for pos, entry in enumerate(raw_queues):
        label = f"queues[{pos}]"
        if not isinstance(entry, dict):
            raise InvalidInput(f"{label} must be an object")
        unknown = set(entry) - _QUEUE_KEYS
        if unknown:
            raise InvalidInput(f"{label} has unknown fields {sorted(unknown)}")
        missing = [key for key in _QUEUE_REQUIRED if key not in entry]
        if missing:
            raise InvalidInput(f"{label} is missing fields {sorted(missing)}")
        try:
            queues.append(QueueSpec(**entry))
        except InvalidInput as exc:
            raise InvalidInput(f"{label}: {exc}") from exc
    return SystemSpec(queues=queues, discipline=discipline, rho=rho)


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
    if grid[-1] >= 1.0:  # the values rise from start >= 0
        raise InvalidInput(f"--rho-grid value {grid[-1]!r} outside [0, 1)")
    return grid


def _parse_methods(text: str) -> tuple[Method, ...]:
    try:
        return _methods([token.strip() for token in text.split(",") if token.strip()])
    except InvalidInput as exc:
        raise InvalidInput(f"--methods: {exc} (given {text!r})") from exc


# Each preset is the v1 document that demo-spec prints for it.  Its floats
# are the expressions that first made them, so they keep their exact bits.
_PRESETS = {
    # Bursty arrivals: three queues carrying 10%, 30% and 60% of the load,
    # exponential unit service and switch-over times, interarrival scv 3.
    "three-queue": {
        "version": SCHEMA_VERSION,
        "discipline": "exhaustive",
        "rho": 0.7,
        "queues": [
            {
                "mean_service": 1.0,
                "scv_service": 1.0,
                "mean_interarrival_at_saturation": 1.0 / share,
                "scv_interarrival": 3.0,
                "mean_switchover": 1.0,
                "scv_switchover": 1.0,
                "density_mode": "exact",
            }
            for share in (0.1, 0.3, 0.6)
        ],
    },
    # Switch-over times five times smaller than services, exponential laws
    # and a 5:1 load imbalance: a known weak spot of the interpolation.
    "small-switchover": {
        "version": SCHEMA_VERSION,
        "discipline": "exhaustive",
        "rho": 0.7,
        "queues": [
            {
                "mean_service": 9.0 / 40.0,
                "scv_service": 1.0,
                "mean_interarrival_at_saturation": 1.0 / (share / (9.0 / 40.0)),
                "scv_interarrival": 1.0,
                "mean_switchover": 9.0 / 200.0,
                "scv_switchover": 1.0,
                "density_mode": "exact",
            }
            for share in (5.0 / 6.0, 1.0 / 6.0)
        ],
    },
}


def _resolve_spec(args, rho: Optional[float]) -> SystemSpec:
    # A preset is read as the file demo-spec prints; flags override either.
    if (args.spec is None) == (args.preset is None):
        raise InvalidInput("give either a spec file or --preset, not both")
    if args.preset is not None:
        return _spec_from_document(_PRESETS[args.preset], rho, args.discipline)
    return load_spec_file(args.spec, rho=rho, discipline=args.discipline)


def _format_float(x: float) -> str:
    return f"{x:.10g}"


def _json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` in one pass, for what commands print.

    Walks plain dicts (str keys), lists and tuples, and writes plain strs,
    ints and finite floats as json does; anything else (bools, None, nan,
    infinities, subclasses) is one ``json.dumps(value)`` token.  `indent`
    starts each line of the enclosing level.
    """
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int or kind is float and math.isfinite(value):
        return kind.__repr__(value)
    inner = indent + "  "
    if kind is dict and value:
        items = [
            f"{encode_basestring_ascii(key)}: {_json_text(item, inner)}"
            for key, item in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if (kind is list or kind is tuple) and value:
        items = [_json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    return json.dumps(value)


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
        print(_json_text(payload))
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
    # One run configuration serves every load.  It, --out and each load's
    # event budget are checked before any work: --out must not be empty or
    # a directory, and its directory must take a file (probes leave none).
    cfg = None
    if args.with_sim:
        cfg = SimConfig(
            warmup_cycles=max(200, args.sim_cycles // 10),
            measured_cycles=args.sim_cycles,
            replications=args.sim_reps,
            base_seed=args.seed,
            batch_count=10,
            max_events=args.max_events,
        )
    if args.out is not None:
        if not args.out:
            raise FileNotFoundError("--out names no file")
        out_dir = os.path.dirname(args.out) or "."
        with tempfile.NamedTemporaryFile(dir=out_dir, prefix=".probe"):
            pass
        if os.path.isdir(args.out):
            raise IsADirectoryError(f"--out names a directory: {args.out}")
    if cfg is not None:
        for spec in (scale_to_load(base, rho) for rho in grid if rho > 0.0):
            _check_budget(spec, cfg)
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
        if cfg is not None and rho > 0.0:
            est = simulate(spec, cfg)
            for i in range(spec.n):
                lines.append(
                    f"{_format_float(rho)},{i},simulation,"
                    f"{_format_float(est.mean_wait[i])},"
                    f"{_format_float(est.ci_half_width[i])}"
                )
    lines.append("")  # so the one join ends the text with a newline
    text = "\n".join(lines)
    if args.out is not None:
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
    print(_json_text(payload))
    return _EXIT_OK


_SUBSETS = {
    "full": standard_bed,
    "poisson": poisson_bed,
    "sampled": sampled_bed,
    "high-variation": high_variation_poisson_bed,
}


def _cmd_testbed(args) -> int:
    # --out must not be empty, and its nearest existing path must take a
    # file (the probe leaves none).  Only write_report_files creates --out,
    # so a run that fails, before or during simulation, leaves none.
    if not args.out:
        raise FileNotFoundError("--out names no directory")
    probe_dir = args.out
    while not os.path.lexists(probe_dir):
        probe_dir = os.path.dirname(probe_dir) or "."
    with tempfile.NamedTemporaryFile(dir=probe_dir, prefix=".probe"):
        pass
    report = run_comparison(
        _SUBSETS[args.subset](), _parse_methods(args.methods), args.discipline,
        base_seed=args.seed, jobs=args.jobs,
        target_customers=args.target_samples, replications=args.reps,
    )
    written = write_report_files(report, args.out)
    for line in summary_lines(report):
        print(line)
    print(f"wrote {len(written)} files to {args.out}")
    return _EXIT_OK


def _cmd_demo_spec(args) -> int:
    print(_json_text(_PRESETS[args.preset]))
    return _EXIT_OK


# Each command's own parser, by name; filled by _build_parser.
_COMMANDS: dict[str, argparse.ArgumentParser] = {}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # No parser takes a prefix of a flag for the flag.
    strict = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    parser = strict(
        prog="pollwait",
        description="Waiting-time analysis of cyclic polling systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=strict)
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

    def add_methods_argument(p):
        p.add_argument(
            "--methods", default=Method.INTERPOLATION.value,
            help="comma-separated method names",
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
    add_methods_argument(p)
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
    add_methods_argument(p)
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
    p.set_defaults(func=_cmd_demo_spec)

    _COMMANDS.update(sub.choices)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # A named command is parsed by its own parser alone.  The top-level
    # parser, which would hand the same strings to it, parses everything
    # else and reports what the command's parser left over.
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is not None:
        args, extra = command.parse_known_args(argv[1:])
    if command is None or extra:
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
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
