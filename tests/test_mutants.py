"""The committed code mutants still apply: tests/mutants.py runs them."""

import os
import re

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_mutant_old_string_occurs_once_in_src():
    with open(os.path.join(ROOT, "tests", "mutants.toml"), "rb") as fh:
        mutants = tomllib.load(fh)["mutant"]
    assert len({m["name"] for m in mutants}) == len(mutants)
    for m in mutants:
        assert m["file"].startswith("src/") and m["old"] != m["new"], m["name"]
        with open(os.path.join(ROOT, m["file"]), encoding="utf-8") as fh:
            assert fh.read().count(m["old"]) == 1, m["name"]
        # the test it names is defined in the module it names
        module, name = re.fullmatch(r"(tests/\w+\.py)::(\w+)(\[[^\]]+\])?", m["test"]).group(1, 2)
        with open(os.path.join(ROOT, module), encoding="utf-8") as fh:
            assert re.search(rf"(?m)^def {name}\(", fh.read()), m["name"]
