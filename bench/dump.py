"""Write every workload's outputs from the checked-out commit.

    python3 bench/dump.py [--seed N] [--out DIR]

Runs one round of each workload and its long check, and writes what the
program returned: ``SimEstimate`` fields as JSON lines (sim-sparse and
the checks), the analyze JSON, sweep CSV and standard-bed waits
(closed-form), and the test-bed CSVs and tables (testbed-sampled).  The
outputs depend only on the seed, so two commits compare byte for byte:

    python3 bench/dump.py --out /tmp/a     # on one commit
    python3 bench/dump.py --out /tmp/b     # on the other
    diff -r /tmp/a /tmp/b

Every output is also checked as in a benchmark run; the exit code is 1
if any check fails.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import workloads  # noqa: E402


def dump(name: str, seed: int, out: str) -> int:
    """Write one round of workload `name` under `out`; return failures."""
    workdir = os.path.join(ROOT, ".bench_work", f"dump-{os.getpid()}")
    failed = 0
    try:
        workload = workloads.build(name, seed, workdir)
        target = os.path.join(out, name)
        shutil.rmtree(target, ignore_errors=True)
        ops = workload.ops + ([workload.check] if workload.check else [])
        for op in ops:
            output = op.call()
            problems = op.problems(output)
            if problems:
                failed += 1
                print(f"{name}: {op.label}: {problems[:3]}", file=sys.stderr)
            for relative, text in op.dump(output).items():
                path = os.path.join(target, relative)
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(path, "a") as handle:
                    handle.write(text)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=os.path.join(ROOT, ".bench_dump"))
    args = parser.parse_args(argv)
    failed = 0
    for name in workloads.WORKLOADS:
        failed += dump(name, args.seed, args.out)
        print(f"wrote {os.path.join(args.out, name)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
