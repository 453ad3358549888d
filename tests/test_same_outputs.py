"""The comparison of `tools/same_outputs.py` on small directories.  The
tool's dumps take about half a minute, so they are not part of this suite."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "same_outputs", os.path.join(ROOT, "tools", "same_outputs.py")
)
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)

FILES = {"a.csv": b"rho,wait\n0.5,1.25\n", os.path.join("sub", "b.json"): b"{}\n"}


def _write(root, files):
    for path, data in files.items():
        (root / path).parent.mkdir(parents=True, exist_ok=True)
        (root / path).write_bytes(data)


@pytest.mark.parametrize(
    "tree_files, expected",
    [
        (FILES, []),
        ({**FILES, "a.csv": b"rho,wait\n0.5,1.26\n"}, ["a.csv: differs"]),
        (
            {"a.csv": FILES["a.csv"]},
            [f"{os.path.join('sub', 'b.json')}: only in the ref's output"],
        ),
    ],
    ids=["identical", "changed-byte", "missing-file"],
)
def test_compare_names_each_file_that_differs(tmp_path, tree_files, expected):
    ref, tree = tmp_path / "ref", tmp_path / "tree"
    _write(ref, FILES)
    _write(tree, tree_files)
    assert same_outputs.compare(str(ref), str(tree)) == expected
    # Swapping the sides swaps only which side a missing file is named in.
    swapped = [line.replace("ref's", "working tree's") for line in expected]
    assert same_outputs.compare(str(tree), str(ref)) == swapped
