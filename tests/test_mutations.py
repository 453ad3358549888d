"""The mutation list that `tools/mutate.py` runs stays applicable: each
snippet occurs exactly once in its file, and each test named to kill it
exists.  The mutation run itself is not part of this suite."""

import json
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "tools", "mutations.json")) as handle:
    MUTATIONS = json.load(handle)


def test_mutation_names_are_unique():
    names = [m["name"] for m in MUTATIONS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutation", MUTATIONS, ids=[m["name"] for m in MUTATIONS])
def test_mutation_snippet_occurs_once(mutation):
    with open(os.path.join(ROOT, mutation["file"])) as handle:
        assert handle.read().count(mutation["snippet"]) == 1
    assert mutation["replacement"] != mutation["snippet"]
    assert mutation["tests"]
    for test in mutation["tests"]:
        path, name = test.split("::")
        with open(os.path.join(ROOT, path)) as handle:
            assert re.search(rf"^def {name}\(", handle.read(), re.MULTILINE), test
