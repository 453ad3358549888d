"""Accuracy experiments: estimators versus simulation on parameter grids.

The standard grid crosses queue counts, loads, variability levels and two
kinds of imbalance into 2304 cases.  Each case is materialized into a
concrete system with linearly spread arrival rates (largest first) and
linearly increasing mean service times, scaled so the per-queue loads sum
to the case load and the per-queue arrival rates average one.

``run_comparison`` simulates each case, evaluates the requested
estimators, and collects signed relative errors per queue.  Cases whose
simulation confidence interval is too wide are flagged, never dropped.
Runs are deterministic for a given base seed, independent of the worker
count.
"""

from __future__ import annotations

import bisect
import csv
import dataclasses
import functools
import io
import itertools
import math
import operator
import os
import sys
import typing
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

from .approx import Method, mean_wait
from .errors import InvalidInput
from .fitting import _check_fittable
from .model import (
    DensityMode,
    Discipline,
    QueueSpec,
    SystemSpec,
    _choice,
    _integer,
    _store,
)
from .sim import SimConfig, _check_budget, _customers_per_cycle, simulate

__all__ = [
    "TestBedCase",
    "ErrorRecord",
    "ErrorReport",
    "standard_bed",
    "poisson_bed",
    "high_variation_poisson_bed",
    "sampled_bed",
    "materialize_case",
    "run_comparison",
    "report_tables",
    "summary_lines",
    "write_report_files",
    "report_to_csv",
    "report_from_csv",
]

@dataclass(frozen=True, slots=True)
class TestBedCase:
    """One parameter combination of the accuracy grid.

    ``imbalance_interarrival`` is the ratio of the largest to the smallest
    arrival rate, ``imbalance_service`` the ratio of the largest to the
    smallest mean service time, and ``switchover_service_ratio`` the ratio
    of each queue's mean switch-over to its mean service time.
    """

    __test__ = False  # not a pytest class despite the name

    n_queues: int
    rho: float
    scv_interarrival: float
    scv_service: float
    scv_switchover: float
    imbalance_interarrival: float
    imbalance_service: float
    switchover_service_ratio: float

    def __post_init__(self) -> None:
        _store(self, (("n_queues", int),))
        for label in _FLOAT_FIELDS:
            # Each is checked before the next is coerced: nan and inf would
            # pass the range checks below.
            _store(self, ((label, float),))
            value = getattr(self, label)
            if not math.isfinite(value):
                raise InvalidInput(f"{label} must be finite, got {value!r}")
        if self.n_queues < 1:
            raise InvalidInput(f"n_queues must be >= 1, got {self.n_queues}")
        if not 0.0 < self.rho < 1.0:
            raise InvalidInput(f"rho must be in (0, 1), got {self.rho!r}")
        for label in ("scv_interarrival", "scv_service", "scv_switchover"):
            _check_fittable(getattr(self, label), label)
        if self.imbalance_interarrival < 1.0 or self.imbalance_service < 1.0:
            raise InvalidInput("imbalance ratios must be >= 1")
        if self.switchover_service_ratio <= 0.0:
            raise InvalidInput("switchover_service_ratio must be positive")


# Every field after n_queues.
_FLOAT_FIELDS = [f.name for f in dataclasses.fields(TestBedCase)][1:]


# Each grid maps every field of TestBedCase to the values it takes.  The
# cases are their product in field order, the last field varying fastest.
_STANDARD_AXES = {
    "n_queues": (2, 3, 4, 5),
    "rho": (0.1, 0.3, 0.5, 0.7, 0.9, 0.99),
    "scv_interarrival": (0.25, 1.0, 2.0),
    "scv_service": (0.25, 1.0),
    "scv_switchover": (0.25, 1.0),
    "imbalance_interarrival": (1.0, 5.0),
    "imbalance_service": (1.0, 5.0),
    "switchover_service_ratio": (1.0, 5.0),
}

_HIGH_VARIATION_AXES = {
    **_STANDARD_AXES,
    "scv_interarrival": (1.0,),
    "scv_service": (2.0, 5.0),
    "scv_switchover": (2.0, 5.0),
}

_SAMPLED_AXES = {
    **_STANDARD_AXES,
    "rho": (0.1, 0.3, 0.5, 0.7, 0.9),
    "scv_interarrival": (0.25, 2.0),
    "scv_switchover": (1.0,),
    "imbalance_interarrival": (5.0,),
    "imbalance_service": (1.0,),
    "switchover_service_ratio": (1.0,),
}


def _grid(axes: dict[str, tuple]) -> list[TestBedCase]:
    names = [f.name for f in dataclasses.fields(TestBedCase)]
    return [
        TestBedCase(*values)
        for values in itertools.product(*(axes[name] for name in names))
    ]


def standard_bed() -> list[TestBedCase]:
    """All 2304 cases of the standard grid, in lexicographic order."""
    return _grid(_STANDARD_AXES)


def poisson_bed() -> list[TestBedCase]:
    """The 768 standard cases with exponential interarrival times."""
    return [c for c in standard_bed() if c.scv_interarrival == 1.0]


def high_variation_poisson_bed() -> list[TestBedCase]:
    """Preset: Poisson arrivals with service/switch-over scv in {2, 5}.

    Same shape as the standard grid otherwise; 768 cases probing how the
    estimators degrade under very variable service and switch-over times.
    """
    return _grid(_HIGH_VARIATION_AXES)


def sampled_bed() -> list[TestBedCase]:
    """Deterministic stratified subset of non-Poisson cases, desk scale.

    Covers every queue count, loads up to 0.9, both extreme interarrival
    scvs and both service scvs, with rate imbalance fixed at 5 to keep the
    hard asymmetric regime represented.  80 cases.
    """
    return _grid(_SAMPLED_AXES)


def materialize_case(
    case: TestBedCase, discipline: Discipline = Discipline.EXHAUSTIVE
) -> SystemSpec:
    """Concrete system for a grid case.

    Arrival rates fall linearly from queue 0 to queue ``n-1`` with the
    requested spread; mean service times rise linearly and are scaled so
    the total load equals ``case.rho``; a one-queue case ignores both
    imbalances and carries the whole load.  With more than one queue, a
    rate imbalance above about 2**53 (9.0e15) cancels the last rate to
    zero or less.  A service imbalance or switch-over ratio that overflows,
    a load that leaves a mean service time below the smallest normal
    float, and a switch-over ratio that rounds every switch-over time to
    zero are out of range too.  Each raises `InvalidInput` naming its field.
    Each queue's mean switch-over is ``switchover_service_ratio`` times its
    mean service time.  Interarrival density values are evaluated exactly
    for the fitted laws, matching what the simulator draws from.
    """
    n = case.n_queues
    if n == 1:
        rates = shapes = [1.0]
    else:
        # Largest rate first, linear steps, mean rate one.
        imbalance = case.imbalance_interarrival
        step = 2.0 * (imbalance - 1.0) / ((n - 1) * (imbalance + 1.0))
        first = 1.0 + (n - 1) * step / 2.0
        rates = [first - step * k for k in range(n)]
        if not rates[-1] > 0.0:
            raise InvalidInput(
                f"imbalance_interarrival {imbalance!r} is too large for "
                f"{n} queues: the smallest arrival rate is not positive"
            )
        shapes = [
            1.0 + (case.imbalance_service - 1.0) * k / (n - 1)
            for k in range(n)
        ]
    unscaled = sum(r * s for r, s in zip(rates, shapes))
    if not math.isfinite(unscaled):
        raise InvalidInput(
            f"imbalance_service {case.imbalance_service!r} is too large for "
            f"{n} queues: the load of the unscaled service times is not finite"
        )
    scale = case.rho / unscaled
    if not scale >= sys.float_info.min:
        raise InvalidInput(
            f"rho {case.rho!r} is too small for {n} queues with imbalance_service "
            f"{case.imbalance_service!r}: the smallest mean service time is "
            f"{scale!r}, below the smallest normal float"
        )
    services = [scale * s for s in shapes]
    switchovers = [case.switchover_service_ratio * b for b in services]
    if not 0.0 < max(switchovers) < math.inf:
        raise InvalidInput(
            f"switchover_service_ratio {case.switchover_service_ratio!r} is out "
            f"of range: the largest mean switch-over time is {max(switchovers)!r}"
        )
    rho = sum(r * b for r, b in zip(rates, services))
    # Once per case, as an enum member lookup runs Python code; positional
    # arguments, in QueueSpec's field order, bind faster than keywords.
    mode = DensityMode.EXACT
    scv_a, scv_b = case.scv_interarrival, case.scv_service
    scv_s = case.scv_switchover
    queues = tuple(
        QueueSpec(service, scv_b, rho / rate, scv_a, switchover, scv_s, mode)
        for rate, service, switchover in zip(rates, services, switchovers)
    )
    return SystemSpec(queues, discipline, rho)


@dataclass(frozen=True)
class ErrorRecord:
    """Error of one estimator on one queue of one grid case."""

    case_index: int
    case: TestBedCase
    discipline: Discipline
    queue: int
    method: Method
    approx: float
    oracle: float
    oracle_ci_half_width: float
    rel_err: float  # signed, (approx - oracle) / oracle
    flagged: bool  # oracle confidence interval too wide to trust


@dataclass
class ErrorReport:
    """All error records of a comparison run."""

    discipline: Discipline
    methods: tuple[Method, ...]
    records: list[ErrorRecord]

    @property
    def flagged(self) -> list[ErrorRecord]:
        return [r for r in self.records if r.flagged]


def _mean(errors: Sequence[float]) -> float:
    # Mean of absolute relative errors, in percent; nan when there are none.
    return 100.0 * sum(errors) / len(errors) if errors else math.nan


def _abs_errors(
    report: ErrorReport,
    method: Method,
    key: Callable[[TestBedCase], object] = lambda case: None,
) -> dict[int, dict[object, list[float]]]:
    # |rel_err| of the method's records by queue count, then by key(case)
    # (by default one group keyed None), both levels in numeric order and
    # each list in record order.
    groups: dict[int, dict[object, list[float]]] = {}
    for r in report.records:
        if r.method is method:
            by_key = groups.setdefault(r.case.n_queues, {})
            by_key.setdefault(key(r.case), []).append(abs(r.rel_err))
    return {n: dict(sorted(groups[n].items())) for n in sorted(groups)}


_BIN_EDGES = (5.0, 10.0, 15.0, 20.0)
_BIN_LABELS = ("0-5%", "5-10%", "10-15%", "15-20%", "20%+")


def _bin_shares(errors: list[float]) -> tuple[float, ...]:
    # Share of the errors (percent) in each 5%-wide bin of 100 * error.
    counts = [0] * (len(_BIN_EDGES) + 1)
    for e in errors:
        counts[bisect.bisect_right(_BIN_EDGES, 100.0 * e)] += 1
    return tuple(100.0 * c / len(errors) for c in counts)


FACETS: dict[str, Callable[[TestBedCase], object]] = {
    "load": lambda c: c.rho,
    "interarrival_scv": lambda c: c.scv_interarrival,
    "imbalance": lambda c: (c.imbalance_interarrival, c.imbalance_service),
}


# Run-length controls of an automatically sized case.
AUTO_BATCH_COUNT = 20
AUTO_MAX_CYCLES = 200_000
MAX_EVENTS_PER_CASE = 2_000_000_000
# A record is flagged when the simulation half-width exceeds this fraction
# of the estimated mean.
CI_REL_THRESHOLD = 0.05


def _auto_config(
    spec: SystemSpec, target_customers: int, replications: int
) -> SimConfig:
    # Size the run so the pooled sample count lands near the target, with
    # a floor that keeps batches meaningful and a cap on cycle count for
    # low loads where switch-overs dominate the cost.
    per_cycle = _customers_per_cycle(spec)
    wanted = target_customers / replications / max(per_cycle, 1e-12)
    cycles = int(min(max(wanted, 100 * AUTO_BATCH_COUNT), AUTO_MAX_CYCLES))
    warmup = max(1000, cycles // 5)
    return SimConfig(
        warmup_cycles=warmup,
        measured_cycles=cycles,
        replications=replications,
        batch_count=AUTO_BATCH_COUNT,
        max_events=MAX_EVENTS_PER_CASE,
    )


def _case_seed(base_seed: int, index: int) -> int:
    import numpy as np

    state = np.random.SeedSequence([base_seed, index]).generate_state(
        1, np.uint64
    )
    return int(state[0])


def _run_case(
    methods: tuple[Method, ...],
    run: tuple[int, TestBedCase, SystemSpec, SimConfig],
) -> list[ErrorRecord]:
    index, case, spec, cfg = run
    estimate = simulate(spec, cfg)
    records = []
    for method in methods:
        result = mean_wait(spec, method)
        for q in range(spec.n):
            oracle = estimate.mean_wait[q]
            ci = estimate.ci_half_width[q]
            approx = result.mean_wait[q]
            rel = (approx - oracle) / oracle if oracle else math.nan
            flagged = not (ci <= CI_REL_THRESHOLD * abs(oracle))
            records.append(
                ErrorRecord(
                    case_index=index,
                    case=case,
                    discipline=spec.discipline,
                    queue=q,
                    method=method,
                    approx=approx,
                    oracle=oracle,
                    oracle_ci_half_width=ci,
                    rel_err=rel,
                    flagged=flagged,
                )
            )
    return records


def _methods(methods) -> tuple[Method, ...]:
    if isinstance(methods, str):
        raise InvalidInput(f"methods must be a sequence of methods, got {methods!r}")
    methods = tuple(_choice(Method, m, "method") for m in methods)
    if not methods:
        raise InvalidInput("methods must name at least one method")
    if len(set(methods)) < len(methods):
        raise InvalidInput(
            f"methods must not repeat, got {[m.value for m in methods]}"
        )
    return methods


def run_comparison(
    cases: Sequence[TestBedCase],
    methods: Sequence[Method],
    discipline: Discipline,
    cfg: Optional[SimConfig] = None,
    *,
    base_seed: int = 777,
    jobs: Optional[int] = None,
    target_customers: int = 400_000,
    replications: int = 3,
) -> ErrorReport:
    """Simulate `cases` and score `methods` against the estimates.

    Parameters
    ----------
    cases, methods, discipline
        What to run.  Case order defines ``case_index`` in the records.
        `methods` is a non-empty sequence with no method twice, not a
        single method.  A method or the discipline may be given as its
        string value.
    cfg : SimConfig, optional
        Fixed run lengths for every case, which then ignore
        `target_customers` and `replications`.  By default each case is
        sized automatically to about `target_customers` pooled waiting
        times over `replications` replications.
    base_seed : int
        Every case derives its own seed from this and its index, so
        results do not depend on `jobs`.
    jobs : int, optional
        Worker processes; defaults to the CPU count.

    `target_customers`, `replications` and `jobs` must be integers of at
    least 1, and `base_seed` one of at least 0, with or without `cfg`.
    Every setting is checked before any case runs, so a run of no cases
    checks them all and returns an empty report.  Then every case is
    built, sized, seeded and checked against its event budget before any
    case runs, so a case that cannot be built, or one over its budget
    (`NumericalBudget` naming ``cases[i]``), raises before any simulation.

    Returns
    -------
    ErrorReport
    """
    prepared = _prepare_comparison(
        cases, methods, discipline, cfg, base_seed=base_seed, jobs=jobs,
        target_customers=target_customers, replications=replications,
    )
    return _run_prepared(*prepared)


def _prepare_comparison(
    cases, methods, discipline, cfg, *, base_seed, jobs, target_customers,
    replications,
):
    # run_comparison's first step: every check, and every case built,
    # sized, seeded and checked against its budget.  Returns the arguments
    # of _run_prepared, its second step.
    discipline = _choice(Discipline, discipline, "discipline")
    methods = _methods(methods)
    replications = _integer(replications, "replications")
    target_customers = _integer(target_customers, "target_customers")
    base_seed = _integer(base_seed, "base_seed")
    if replications < 1 or target_customers < 1:
        raise InvalidInput(
            "replications and target samples must be >= 1, got "
            f"{replications} and {target_customers}"
        )
    if base_seed < 0:
        raise InvalidInput(f"seed must be >= 0, got {base_seed}")
    jobs = (os.cpu_count() or 1) if jobs is None else _integer(jobs, "jobs")
    if jobs < 1:
        raise InvalidInput(f"jobs must be >= 1, got {jobs}")
    runs = []
    for index, case in enumerate(cases):
        spec = materialize_case(case, discipline)
        size = cfg or _auto_config(spec, target_customers, replications)
        seed = _case_seed(base_seed, index)
        _check_budget(spec, size, f"cases[{index}]: ")
        runs.append((index, case, spec, dataclasses.replace(size, base_seed=seed)))
    return runs, methods, discipline, jobs


def _run_prepared(runs, methods, discipline, jobs) -> ErrorReport:
    # run_comparison's second step: simulate and score the prepared runs.
    run_case = functools.partial(_run_case, methods)
    if jobs == 1 or len(runs) <= 1:
        chunks = [run_case(run) for run in runs]
    else:
        from multiprocessing import Pool

        with Pool(processes=min(jobs, len(runs))) as pool:
            chunks = pool.map(run_case, runs, chunksize=1)
    records = [r for chunk in chunks for r in chunk]
    return ErrorReport(
        discipline=discipline, methods=methods, records=records
    )


# A report table is its column labels, one row of values per queue count
# and the column width of its aligned-text form; it is rendered as aligned
# text and as CSV.
_Table = tuple[list[str], dict[int, Sequence[float]], int]


def report_tables(report: ErrorReport, method: Method) -> dict[str, _Table]:
    """Every table of one method's absolute errors, by file stem.

    ``errors_binned`` gives the share of errors (percent) in each 5%-wide
    bin; ``mean_error_by_<facet>`` the mean absolute error (percent) for
    each value of the facet, ``nan`` where no case has it.  Rows are queue
    counts and columns facet values, both in numeric order.  A method the
    report does not hold raises `InvalidInput`.
    """
    method = _choice(Method, method, "method")
    if method not in report.methods:
        raise InvalidInput(
            f"method {method.value!r} is not in the report, which holds "
            f"{[m.value for m in report.methods]}"
        )
    binned = _abs_errors(report, method)
    shares = {n: _bin_shares(row[None]) for n, row in binned.items()}
    tables = {"errors_binned": (list(_BIN_LABELS), shares, 8)}
    for facet, key in FACETS.items():
        groups = _abs_errors(report, method, key)
        columns = sorted({c for row in groups.values() for c in row})
        rows = {
            n: [_mean(row.get(c, ())) for c in columns]
            for n, row in groups.items()
        }
        labels = [str(c) for c in columns]
        tables[f"mean_error_by_{facet}"] = (labels, rows, 16)
    return tables


def _text(table: _Table) -> str:
    labels, rows, width = table
    lines = ["  ".join(f"{h:>{width}}" for h in ["queues", *labels])]
    for n, row in rows.items():
        cells = [f"{n:>{width}}"] + [f"{v:>{width}.2f}" for v in row]
        lines.append("  ".join(cells))
    return "\n".join(lines)


def _csv(table: _Table) -> str:
    # The csv module quotes labels that hold a comma, such as "(1.0, 5.0)".
    labels, rows, _ = table
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["queues", *labels])
    writer.writerows([n, *map(repr, row)] for n, row in rows.items())
    return out.getvalue()


def _cell_codec(kind: type) -> tuple[Callable, Callable]:
    # (to text, from text) for a CSV cell holding a value of type `kind`;
    # floats keep full precision through repr.
    if kind is bool:
        return (lambda v: str(int(v))), (lambda text: bool(int(text)))
    if issubclass(kind, Enum):
        return (lambda v: v.value), kind
    return (repr if kind is float else str), kind


def _schema(cls: type) -> list[tuple[str, type]]:
    hints = typing.get_type_hints(cls)
    return [(f.name, hints[f.name]) for f in dataclasses.fields(cls)]


# One CSV column per field of ErrorRecord, with ``case`` flattened in place
# into the fields of TestBedCase: (column, attribute path, type).
_RECORD_FIELDS = _schema(ErrorRecord)
_CSV_SCHEMA = [
    column
    for name, kind in _RECORD_FIELDS
    for column in (
        [(c, f"{name}.{c}", k) for c, k in _schema(TestBedCase)]
        if kind is TestBedCase
        else [(name, name, kind)]
    )
]
_CSV_HEADER = [column for column, _, _ in _CSV_SCHEMA]
_CSV_VALUES = operator.attrgetter(*(path for _, path, _ in _CSV_SCHEMA))
_CSV_TO_TEXT, _CSV_FROM_TEXT = zip(
    *(_cell_codec(kind) for _, _, kind in _CSV_SCHEMA)
)
# Every field before ``case`` is one column, so the case's columns start at
# its field index.
_CASE_AT = [kind for _, kind in _RECORD_FIELDS].index(TestBedCase)
_CASE_COLUMNS = slice(
    _CASE_AT, _CASE_AT + len(dataclasses.fields(TestBedCase))
)


def report_to_csv(report: ErrorReport, path: str) -> None:
    """Write raw records; floats keep full precision for exact reload."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_CSV_HEADER)
        writer.writerows(
            [to_text(v) for to_text, v in zip(_CSV_TO_TEXT, _CSV_VALUES(r))]
            for r in report.records
        )


def report_from_csv(path: str) -> ErrorReport:
    """Rebuild an :class:`ErrorReport` from :func:`report_to_csv` output."""
    records = []
    with open(path, newline="") as handle:
        rows = csv.reader(handle)
        try:
            if next(rows, None) != _CSV_HEADER:
                raise InvalidInput("not a report_to_csv header")
            for row in rows:
                values = [
                    decode(cell)
                    for decode, cell in zip(_CSV_FROM_TEXT, row, strict=True)
                ]
                values[_CASE_COLUMNS] = [TestBedCase(*values[_CASE_COLUMNS])]
                record = ErrorRecord(*values)
                if records and record.discipline is not records[0].discipline:
                    raise InvalidInput(
                        f"discipline {record.discipline.value} after "
                        f"{records[0].discipline.value} records"
                    )
                records.append(record)
        except (ValueError, csv.Error) as exc:
            # InvalidInput and UnicodeDecodeError are ValueErrors too.
            raise InvalidInput(f"{path}: line {rows.line_num}: {exc}") from None
    if not records:
        raise InvalidInput(f"no records in {path}")
    return ErrorReport(
        discipline=records[0].discipline,
        methods=tuple(dict.fromkeys(r.method for r in records)),
        records=records,
    )


def summary_lines(report: ErrorReport) -> list[str]:
    """Human-readable per-method headline: mean error by queue count."""
    lines = [
        f"discipline: {report.discipline.value}",
        f"records: {len(report.records)}  flagged: {len(report.flagged)}",
    ]
    counts = sorted({r.case.n_queues for r in report.records})
    for method in report.methods:
        by_n = _abs_errors(report, method)
        means = {n: _mean(row[None]) for n, row in by_n.items()}
        cells = ", ".join(
            f"N={n}: {means.get(n, math.nan):.2f}%" for n in counts
        )
        lines.append(f"{method.value}: mean abs error {cells}")
    return lines


def write_report_files(report: ErrorReport, outdir: str) -> list[str]:
    """Write raw records, summary and per-method tables into `outdir`.

    Returns the paths written.  Tables are emitted both as CSV and as
    aligned text; re-aggregating the raw CSV reproduces them exactly.
    """
    os.makedirs(outdir, exist_ok=True)
    written = []

    def emit(name: str, content: str) -> None:
        path = os.path.join(outdir, name)
        with open(path, "w") as handle:
            handle.write(content if content.endswith("\n") else content + "\n")
        written.append(path)

    raw_path = os.path.join(outdir, "raw_records.csv")
    report_to_csv(report, raw_path)
    written.append(raw_path)
    emit("summary.txt", "\n".join(summary_lines(report)))

    for method in report.methods:
        slug = method.value.replace("-", "_")
        for stem, table in report_tables(report, method).items():
            emit(f"{stem}_{slug}.txt", _text(table))
            emit(f"{stem}_{slug}.csv", _csv(table))
    return written
