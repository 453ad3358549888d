"""Spans around the calls one layer of the program makes into another.

A traced run installs wrappers at the names the callers look up, for
example ``pollwait.sim.sample_array`` (called by the simulator) or
``pollwait.cli.load_spec_file`` (called by the command line front end).
Each call records a span: its name, start, end, parent span and a little
data taken from the arguments or the result.  Spans stay in memory and are
written out when the run ends.  A span's self time is its duration minus
the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import time
from typing import Any, Callable

import pollwait
from pollwait import approx, cli, model, sim, testbed

TESTBED_STRATA = (0.1, 0.3, 0.5, 0.7, 0.9)

# (module, attribute, span name).  A span of ``cli.main`` is named after
# the subcommand, and one of ``mean_wait`` after the method.
WRAPPED = [
    (cli, "main", "cli"),
    (cli, "load_spec_file", "cli.load_spec_file"),
    (cli, "derive_moments", "model.derive_moments"),
    (cli, "mean_wait", "approx.mean_wait"),
    (cli, "pcl_residual", "approx.pcl_residual"),
    (cli, "pcl_rhs", "approx.pcl_rhs"),
    (cli, "run_comparison", "testbed.run_comparison"),
    (cli, "write_report_files", "testbed.write_report_files"),
    (approx, "derive_moments", "model.derive_moments"),
    (approx, "mean_wait", "approx.mean_wait"),
    (approx, "pcl_residual", "approx.pcl_residual"),
    (model, "fit_two_moments", "fitting.fit_two_moments"),
    (sim, "fit_two_moments", "fitting.fit_two_moments"),
    (sim, "sample_array", "fitting.sample_array"),
    (sim, "simulate", "sim.simulate"),
    (testbed, "materialize_case", "testbed.materialize_case"),
    (testbed, "simulate", "sim.simulate"),
    (testbed, "mean_wait", "approx.mean_wait"),
    (testbed, "report_from_csv", "testbed.report_from_csv"),
]

# Span fields: name, start, end, parent index (-1 at the top), data.
NAME, START, END, PARENT, DATA = range(5)


def _data(name: str, args: tuple, result: Any) -> Any:
    if name == "fitting.sample_array":
        return args[2]  # variates drawn
    if name == "sim.simulate":
        spec, cfg = args[0], args[1]
        return {
            "rho": spec.rho,
            "n": spec.n,
            "reps": cfg.replications,
            "cycles": cfg.warmup_cycles + cfg.measured_cycles,
            "measured": cfg.measured_cycles,
            "events": result.total_events,
            "samples": result.samples,
        }
    if name == "testbed.report_from_csv":
        return {"records": len(result.records), "flagged": len(result.flagged)}
    if name == "testbed.run_comparison":
        return {"cases": len(args[0])}
    return {}


class Tracer:
    """Install with ``with Tracer() as t:``; the wrappers go on exit."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call `fn` inside a span called `name`."""
        spans, stack = self.spans, self._stack
        index = len(spans)
        record = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None]
        spans.append(record)
        stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            record[END] = time.perf_counter()
            stack.pop()
        record[DATA] = _data(name, args, result)
        return result

    def _wrap(self, fn: Callable, name: str) -> Callable:
        if name == "cli":
            @functools.wraps(fn)
            def wrapper(argv):
                return self.span(f"cli.{argv[0]}", fn, argv)
        elif name == "approx.mean_wait":
            @functools.wraps(fn)
            def wrapper(spec, method):
                return self.span(f"{name}.{method.value}", fn, spec, method)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self.span(name, fn, *args, **kwargs)
        return wrapper

    def __enter__(self) -> "Tracer":
        for module, attr, name in WRAPPED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))
        init = pollwait.SystemSpec.__init__
        self._saved.append((pollwait.SystemSpec, "__init__", init))
        pollwait.SystemSpec.__init__ = self._wrap(init, "model.SystemSpec")
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "data"],
                 "spans": self.spans},
                handle,
                separators=(",", ":"),
            )


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics from the spans of a traced run.

    Times are per call unless the name says otherwise; a metric whose
    layer the workload never calls reads 0.
    """
    child_time = [0.0] * len(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        if s[DATA] is not None:  # None: the call raised
            by_name.setdefault(s[NAME], []).append(i)
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]

    def dur(i: int) -> float:
        return spans[i][END] - spans[i][START]

    def calls(name: str) -> list[int]:
        return by_name.get(name, [])

    def total(name: str) -> float:
        return sum(dur(i) for i in calls(name))

    def per_call(name: str, scale: float) -> float:
        found = calls(name)
        return scale * total(name) / len(found) if found else 0.0

    def self_per_call(name: str, scale: float) -> float:
        found = calls(name)
        if not found:
            return 0.0
        return scale * sum(dur(i) - child_time[i] for i in found) / len(found)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict[str, float] = {}
    m["cli.load_spec_file.calls"] = len(calls("cli.load_spec_file"))
    m["cli.load_spec_file.us"] = per_call("cli.load_spec_file", 1e6)
    m["cli.sweep.ms"] = per_call("cli.sweep", 1e3)
    m["cli.analyze.self_us"] = self_per_call("cli.analyze", 1e6)
    m["model.derive_moments.calls"] = len(calls("model.derive_moments"))
    m["model.derive_moments.us"] = per_call("model.derive_moments", 1e6)
    m["model.SystemSpec.us"] = per_call("model.SystemSpec", 1e6)
    methods = [meth.value for meth in pollwait.Method]
    m["approx.mean_wait.calls"] = sum(
        len(calls(f"approx.mean_wait.{meth}")) for meth in methods
    )
    for meth in methods:
        m[f"approx.mean_wait.us.{meth}"] = per_call(f"approx.mean_wait.{meth}", 1e6)
    m["approx.pcl_residual.us"] = per_call("approx.pcl_residual", 1e6)

    m["fitting.fit_two_moments.calls"] = len(calls("fitting.fit_two_moments"))
    draws = calls("fitting.sample_array")
    drawn = sum(spans[i][DATA] for i in draws)
    sim_time = total("sim.simulate")
    m["fitting.sample_array.calls"] = len(draws)
    m["fitting.sample_array.variates_per_s"] = ratio(drawn, total("fitting.sample_array"))
    m["fitting.sample_array.self_share"] = ratio(
        sum(dur(i) - child_time[i] for i in draws), sim_time
    )
    runs = [spans[i][DATA] for i in calls("sim.simulate")]
    # Each service takes one service and one interarrival variate, each
    # switch-over one switch-over variate, and every replication starts
    # with one interarrival variate per queue.  No workload has a
    # deterministic law, which would draw nothing.
    consumed = 0
    for r in runs:
        switches = r["reps"] * r["cycles"] * r["n"]
        consumed += 2 * (r["events"] - switches) + switches + r["reps"] * r["n"]
    m["fitting.sample_array.used_ratio"] = ratio(consumed, drawn)
    m["sim.simulate.calls"] = len(runs)
    m["sim.simulate.self_s"] = self_per_call("sim.simulate", 1.0)
    events = sum(r["events"] for r in runs)
    m["sim.events"] = events
    m["sim.events_per_s"] = ratio(events, sim_time)
    m["sim.customers_per_visit"] = ratio(
        sum(r["samples"] for r in runs),
        sum(r["measured"] * r["reps"] * r["n"] for r in runs),
    )

    comparisons = calls("testbed.run_comparison")
    reloads = [spans[i][DATA] for i in calls("testbed.report_from_csv")]
    m["testbed.cases"] = sum(spans[i][DATA]["cases"] for i in comparisons)
    m["testbed.records"] = sum(r["records"] for r in reloads)
    m["testbed.flagged"] = sum(r["flagged"] for r in reloads)
    m["testbed.materialize_case.us"] = per_call("testbed.materialize_case", 1e6)
    inside = set(comparisons)
    bed_sims = [
        i for i in calls("sim.simulate") if spans[i][PARENT] in inside
    ]
    m["testbed.simulate_share"] = ratio(
        sum(dur(i) for i in bed_sims), total("testbed.run_comparison")
    )
    for stratum in TESTBED_STRATA:
        m[f"testbed.sim_s.rho{stratum}"] = sum(
            dur(i) for i in bed_sims
            if round(spans[i][DATA]["rho"], 1) == stratum
        )
    m["testbed.write_report_files.ms"] = per_call("testbed.write_report_files", 1e3)
    m["testbed.report_from_csv.ms"] = per_call("testbed.report_from_csv", 1e3)
    return m
