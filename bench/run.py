"""Benchmark of pollwait: simulator, closed forms and test bed.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is taken from ``src``
without installing it.  Workloads: sim-sparse, closed-form and
testbed-sampled (see README.md).

A run starts fresh single-threaded Python processes and waits for each:

* one untimed start that warms the file cache, then ``SETUP_STARTS``
  timed starts that import the package and build the workload's inputs;
  ``setup_s`` is the median time from process start until ready;
* one worker that builds the inputs again, runs whole rounds of the
  workload for ``--seconds`` of timed calls and checks every output.

Every time is scaled to the reference speed: it is multiplied by
``PROBE_REF_S`` over the median time of the speed probe, a fixed Python
loop timed in the same process (see worker.py).  The cores of a shared
machine run faster and slower by a third within minutes; the probe
follows that, and the scaled times do not.  The wall times are kept in
the result's details.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a separate traced run instead.  Each result is also written
to ``.bench_results/`` and the spans of a traced run to ``.bench_trace/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim-sparse", "closed-form", "testbed-sampled")
SETUP_STARTS = 5
PROBE_REF_S = 250e-6  # the probe's median time on the reference machine
DEADLINE_S = 170.0

# One thread in every process: no BLAS pool, no worker processes.
SINGLE_THREAD = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "POLLWAIT_JOBS": "1",
}


class BenchError(Exception):
    pass


def _start(argv: list[str], env: dict, deadline: float) -> tuple[subprocess.Popen, threading.Timer]:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time")
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *argv],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    timer = threading.Timer(remaining, proc.kill)
    timer.start()
    return proc, timer


def _finish(proc: subprocess.Popen, timer: threading.Timer, read: str = "") -> dict:
    """Wait for `proc` and return the JSON of its last output line; `read`
    is output already read from it."""
    lines = (read + proc.stdout.read()).splitlines()
    proc.wait()
    timer.cancel()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def setup_sample(argv: list[str], env: dict, deadline: float) -> tuple[float, dict]:
    """Seconds from starting a process until it has built the inputs, and
    the process's own import and input times."""
    start = time.perf_counter()
    proc, timer = _start(["setup", *argv], env, deadline)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    return ready, _finish(proc, timer, line)


def measure(args) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), **SINGLE_THREAD)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", workdir]
    deadline = time.monotonic() + DEADLINE_S
    try:
        setup_sample(common, env, deadline)  # warms the file cache
        samples = [setup_sample(common, env, deadline) for _ in range(SETUP_STARTS)]
        run = ["run", *common, "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            trace_dir = os.path.join(ROOT, ".bench_trace")
            os.makedirs(trace_dir, exist_ok=True)
            run += ["--trace-out", os.path.join(
                trace_dir, f"{args.workload}-seed{args.seed}.json")]
        proc, timer = _start(run, env, deadline)
        out = _finish(proc, timer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values = dict(out["layers"])
        values["setup.import_s"] = statistics.median(s[1]["import_s"] for s in samples)
        values["setup.inputs_s"] = statistics.median(s[1]["inputs_s"] for s in samples)
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        slowdown = out["probe_s"] / PROBE_REF_S
        out["wall_setup_s"] = statistics.median(ready for ready, _ in samples)
        out["wall_work_per_s"] = out.pop("work_per_s")
        out["wall_op_p50_ms"] = out.pop("op_p50_ms")
        values = {
            "setup_s": statistics.median(
                ready * PROBE_REF_S / s["probe_s"] for ready, s in samples
            ),
            "work_per_s": out["wall_work_per_s"] * slowdown,
            "op_p50_ms": out["wall_op_p50_ms"] / slowdown,
            "peak_rss_mb": out["peak_rss_mb"],
        }
        wanted = [m["name"] for m in spec["end_to_end"]]
    missing = set(wanted) - set(values)
    if missing:
        raise BenchError(f"metrics not produced: {sorted(missing)}")
    for label, problems in out["problems"]:
        print(f"check failed: {label}: {problems}", file=sys.stderr)
    return {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in wanted},
        "details": {
            "setup_samples": samples,
            **{k: v for k, v in out.items() if k not in ("layers", "attempted", "failed")},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "pollwait", "__init__.py")):
        print(f"error: no package source under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    details = result.pop("details")
    results_dir = os.path.join(ROOT, ".bench_results")
    os.makedirs(results_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results_dir, name), "w") as handle:
        json.dump({**result, "details": details}, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
