"""Run the mutations of ``tools/mutations.json`` against the tests named to kill them.

    python3 tools/mutate.py

Each mutation replaces one exact snippet of one file with its replacement.
The script copies the repository to a temporary directory.  For each
mutation it first runs the mutation's own tests, alone, on the unmutated
copy: they must pass, or it stops with exit code 2, so a test cannot pass
there only because another test ran before it.  Then it applies the
mutation and runs the same tests again.  A mutation is killed when one of
them fails or errors, or when they run longer than twice their unmutated
run plus 30 s (a mutated loop can run forever), and survives when all pass.
Mutations that name the same tests share one unmutated run.  Each status,
with the failing test ids, is written to ``results/mutation.json``; the
exit code is 1 if any mutation survived.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, "results", "mutation.json")
_SKIP = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_*", "results"
)


def _run_tests(
    copy: str, tests: list[str], timeout: float | None = None
) -> tuple[bool, list[str]]:
    """Run `tests` in `copy`; return whether all passed and the failing ids."""
    env = dict(
        os.environ,
        PYTHONPATH=os.path.join(copy, "src"),
        # A mutation can keep a file's size and mtime second, so no
        # bytecode is cached that a later run could take for current.
        PYTHONDONTWRITEBYTECODE="1",
    )
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests],
            cwd=copy,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return False, [f"timed out after {timeout:.0f} s"]
    # Exit code 1 is failing tests, 2 an error while collecting them.
    if proc.returncode not in (0, 1, 2):
        raise SystemExit(f"pytest exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    failed = [
        line.split(" ", 1)[1].split(" - ", 1)[0]
        for line in proc.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    ]
    return proc.returncode == 0, failed


def main() -> int:
    with open(os.path.join(HERE, "mutations.json")) as handle:
        mutations = json.load(handle)
    results = []
    with tempfile.TemporaryDirectory() as scratch:
        copy = os.path.join(scratch, "repo")
        shutil.copytree(ROOT, copy, ignore=_SKIP)
        timeouts: dict[tuple[str, ...], float] = {}
        for mutation in mutations:
            path = os.path.join(copy, mutation["file"])
            with open(path) as handle:
                source = handle.read()
            if source.count(mutation["snippet"]) != 1:
                print(f"{mutation['name']}: snippet not found once", file=sys.stderr)
                return 2
            tests = tuple(mutation["tests"])
            if tests not in timeouts:
                begin = time.monotonic()
                passed, failed = _run_tests(copy, list(tests))
                if not passed:
                    print(f"{mutation['name']}: unmutated tests fail: {failed}", file=sys.stderr)
                    return 2
                timeouts[tests] = 2.0 * (time.monotonic() - begin) + 30.0
            timeout = timeouts[tests]
            with open(path, "w") as handle:
                handle.write(source.replace(mutation["snippet"], mutation["replacement"]))
            passed, failed = _run_tests(copy, mutation["tests"], timeout)
            with open(path, "w") as handle:
                handle.write(source)
            status = "survived" if passed else "killed"
            print(f"{mutation['name']}: {status} ({len(failed)} failed)")
            results.append(
                {"name": mutation["name"], "file": mutation["file"], "status": status, "failed": failed}
            )

    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    return int(any(r["status"] == "survived" for r in results))


if __name__ == "__main__":
    sys.exit(main())
