"""One fresh process of a benchmark run.

    python3 bench/worker.py setup --workload W --seed N --workdir DIR
    python3 bench/worker.py run   --workload W --seed N --workdir DIR
                                  --seconds S --trace 0|1 [--trace-out F]

``setup`` imports the package, builds the workload's inputs and prints
one JSON line with the import and input times; it then times the speed
probe and prints the line again with the probe's median time.  ``run``
does the same set-up, runs whole rounds of the workload with the probe
ticking, then the workload's untimed long check, and prints one JSON
line with its counts and measurements.
``run.py`` starts both with ``src`` on ``PYTHONPATH``; the package is not
installed.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import signal
import statistics
import sys
import time

# The speed probe: a fixed pure-Python loop that takes about 250 us on the
# reference machine, timed every PROBE_INTERVAL_S of wall time.
PROBE_LOOPS = 2000
PROBE_INTERVAL_S = 0.05
SETUP_PROBES = 400


def probe_once() -> float:
    start = time.perf_counter()
    x = 0.0
    for i in range(PROBE_LOOPS):
        x += (i * 0.5) % 3.0
    return time.perf_counter() - start


class SpeedProbe:
    """Times the probe from a SIGALRM handler every PROBE_INTERVAL_S of
    wall time, so its median follows the machine's speed during the
    timed rounds.  ``spent`` is the time the probes took, which
    ``call_round`` takes out of each operation's time."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.spent = 0.0

    def _tick(self, *_) -> None:
        took = probe_once()
        self.times.append(took)
        self.spent += took

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class _NoProbe:
    spent = 0.0


def call_round(workload, probe=_NoProbe) -> list:
    """Call every operation of one round; return (output, seconds) pairs,
    without the time of the probes that ran during the call.  An
    operation that raises gives its exception as output."""
    outputs = []
    for op in workload.ops:
        spent = probe.spent
        start = time.perf_counter()
        try:
            output = op.call()
        except Exception as exc:  # counted as a failed operation
            output = exc
        elapsed = time.perf_counter() - start - (probe.spent - spent)
        outputs.append((output, elapsed))
    return outputs


class Tally:
    """Checks the outputs of whole rounds and adds up what they did.

    An operation fails when it raises or its checks find a problem.  Every
    round repeats the same calls on the same inputs, so each output must
    also equal that of the first round.  When the workload's long
    simulation check fails, every operation that simulates fails too, so
    the failed share of a run does not depend on how many rounds it holds.
    """

    def __init__(self, digest) -> None:
        self.digest = digest
        self.first: dict[str, str] = {}
        self.found: dict[str, list[str]] = {}
        self.seconds = 0.0
        # One entry per attempted operation: [op, problems, seconds, work].
        self.attempts: list[list] = []

    def add(self, workload, outputs) -> float:
        spent = 0.0
        for op, (output, elapsed) in zip(workload.ops, outputs):
            spent += elapsed
            if isinstance(output, Exception):
                found = [f"raised {output!r}"]
            else:
                key = self.digest(output)
                if self.first.setdefault(op.label, key) != key:
                    found = ["output differs from the first round"]
                else:
                    # Output equal to the first round's has its problems.
                    if op.label not in self.found:
                        self.found[op.label] = op.problems(output)
                    found = self.found[op.label]
            work = 0 if found else op.work(output)
            self.attempts.append([op, found, elapsed, work])
        self.seconds += spent
        return spent

    def check(self, op) -> None:
        """Call the untimed check `op`; if it finds a problem, fail every
        operation that simulates."""
        try:
            found = op.problems(op.call())
        except Exception as exc:
            found = [f"raised {exc!r}"]
        if found:
            for attempt in self.attempts:
                if attempt[0].simulates:
                    attempt[1] = attempt[1] + [f"{op.label}: {p}" for p in found]

    def summary(self) -> dict:
        """Counts, work and latency of the operations that passed."""
        failed = [a for a in self.attempts if a[1]]
        passed = [a for a in self.attempts if not a[1]]
        latencies: dict[str, list[float]] = {}
        for op, _, elapsed, _ in passed:
            if op.latency_ms is not None:
                latencies.setdefault(op.label, []).append(op.latency_ms(elapsed))
        # Each kind of operation has its own latency; the mean of their
        # medians does not jump between kinds as a median of all would.
        medians = [statistics.median(v) for v in latencies.values()]
        work = sum(a[3] for a in passed)
        return {
            "attempted": len(self.attempts),
            "failed": len(failed),
            "work": work,
            "timed_s": self.seconds,
            "work_per_s": work / self.seconds if self.seconds else 0.0,
            "op_p50_ms": statistics.fmean(medians) if medians else math.nan,
            "latency_samples": sum(map(len, latencies.values())),
            "problems": [(a[0].label, a[1][:3]) for a in failed[:10]],
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "run"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import pollwait  # noqa: F401  (setup.import_s times this import)

    t1 = time.perf_counter()
    import workloads

    workload = workloads.build(args.workload, args.seed, args.workdir)
    t2 = time.perf_counter()
    result = {"import_s": t1 - t0, "inputs_s": t2 - t1}
    if args.mode == "setup":
        print(json.dumps(result), flush=True)  # ready
        # Probe right after, outside the time to ready.
        probes = [probe_once() for _ in range(SETUP_PROBES)]
        print(json.dumps({**result, "probe_s": statistics.median(probes)}), flush=True)
        return 0

    tally = Tally(workloads.digest)
    if args.trace:
        import tracer

        # The same fixed number of rounds untraced and then traced, so the
        # counts repeat exactly and the two wall times compare.
        untraced = traced = 0.0
        for _ in range(workload.trace_rounds):
            untraced += tally.add(workload, call_round(workload))
        with tracer.Tracer() as t:
            rounds = [call_round(workload) for _ in range(workload.trace_rounds)]
        for outputs in rounds:
            traced += tally.add(workload, outputs)
        result["layers"] = tracer.layer_metrics(t.spans)
        result["layers"]["trace.overhead_share"] = traced / untraced - 1.0
        if args.trace_out:
            t.write(args.trace_out)
    else:
        spent = 0.0
        with SpeedProbe() as probe:
            while spent < args.seconds:
                spent += tally.add(workload, call_round(workload, probe))
        result["probe_s"] = statistics.median(probe.times or [probe_once()])
        result["probes"] = len(probe.times)
    # Read before the long check, which is not part of the workload.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if workload.check is not None:
        tally.check(workload.check)
    result.update(tally.summary())
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
