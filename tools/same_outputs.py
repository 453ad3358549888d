"""Check that the working tree writes the same outputs as a commit.

    python3 tools/same_outputs.py [--ref REF] [--seed N]

Exports REF (default ``HEAD``) with ``git archive`` to a temporary
directory, runs that tree's own ``bench/dump.py --seed N`` and then the
working tree's (uncommitted edits included), each into a temporary output
directory, and compares the two directories byte for byte.  Every file that
differs, or that only one side wrote, is printed.  The exit code is 0 when
the outputs match, 1 when they differ and 2 when the export or a dump
fails.  One run takes about half a minute on two CPUs.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _files(root: str) -> set[str]:
    return {
        os.path.relpath(os.path.join(folder, name), root)
        for folder, _, names in os.walk(root)
        for name in names
    }


def compare(ref: str, tree: str) -> list[str]:
    """One line per file that differs between `ref` and `tree`, sorted."""
    in_ref, in_tree = _files(ref), _files(tree)
    lines = []
    for path in sorted(in_ref | in_tree):
        if path not in in_tree:
            lines.append(f"{path}: only in the ref's output")
        elif path not in in_ref:
            lines.append(f"{path}: only in the working tree's output")
        else:
            with open(os.path.join(ref, path), "rb") as a, open(
                os.path.join(tree, path), "rb"
            ) as b:
                if a.read() != b.read():
                    lines.append(f"{path}: differs")
    return lines


def _dump(tree: str, seed: int, out: str) -> bool:
    """Run `tree`'s own dump into `out`; return whether it succeeded."""
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "bench", "dump.py"),
         "--seed", str(seed), "--out", out],
        cwd=tree,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        print(f"{tree}: dump exited {proc.returncode}", file=sys.stderr)
        sys.stderr.write(proc.stderr)
    return proc.returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ref", default="HEAD")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        tree = os.path.join(scratch, "ref")
        os.mkdir(tree)
        archive = subprocess.run(
            ["git", "-C", ROOT, "archive", "--format=tar", args.ref],
            capture_output=True,
        )
        if archive.returncode != 0:
            print(archive.stderr.decode(errors="replace"), file=sys.stderr)
            return 2
        subprocess.run(["tar", "-x", "-C", tree], input=archive.stdout, check=True)
        outs = [os.path.join(scratch, "out-ref"), os.path.join(scratch, "out-tree")]
        if not (_dump(tree, args.seed, outs[0]) and _dump(ROOT, args.seed, outs[1])):
            return 2
        lines = compare(*outs)
        for line in lines:
            print(line)
        total = len(_files(outs[0]) | _files(outs[1]))
        print(f"{len(lines)} of {total} files differ")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
