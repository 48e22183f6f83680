"""The committed code mutants still apply: tests/mutants.py runs them."""

import ast
import os
import re

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the verdict functions, each deciding a pass, a fail or an abort: these and
# every verify_* function of these modules
VERDICTS = {
    "src/kolsys/properties.py": {"rate_report", "counterexample_mode", "jordan_asymptotics_check"},
    "src/kolsys/semigroup.py": {"nested_converged"},
    "src/kolsys/hypotheses.py": {"check_hypotheses", "compute_common_kernel", "check_lyapunov",
                                 "check_growth", "estimate_kp", "spectral_check_C"},
    "src/kolsys/invariant_measure.py": {"_normalize", "check_infinitesimal_invariance"},
}

# verdict functions that no mutant loosens yet; a new mutant removes its
# function from this set, and a new verdict function needs a mutant
WITHOUT_MUTANT = {
    "check_infinitesimal_invariance", "counterexample_mode", "verify_cesaro_identity",
    "verify_fixed_points",
}


def load_mutants():
    with open(os.path.join(ROOT, "tests", "mutants.toml"), "rb") as fh:
        return tomllib.load(fh)["mutant"]


def test_every_mutant_old_string_occurs_once_in_src():
    mutants = load_mutants()
    assert len({m["name"] for m in mutants}) == len(mutants)
    for m in mutants:
        assert m["file"].startswith("src/") and m["old"] != m["new"], m["name"]
        with open(os.path.join(ROOT, m["file"]), encoding="utf-8") as fh:
            assert fh.read().count(m["old"]) == 1, m["name"]
        # the test it names is defined in the module it names
        module, name = re.fullmatch(r"(tests/\w+\.py)::(\w+)(\[[^\]]+\])?", m["test"]).group(1, 2)
        with open(os.path.join(ROOT, module), encoding="utf-8") as fh:
            assert re.search(rf"(?m)^def {name}\(", fh.read()), m["name"]


def test_verdict_functions_without_a_mutant_are_the_committed_set():
    olds = {}
    for m in load_mutants():
        olds.setdefault(m["file"], []).append(m["old"])
    without = set()
    for path, names in VERDICTS.items():
        with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
            text = fh.read()
        lines = text.splitlines(keepends=True)
        functions = {node.name: "".join(lines[node.lineno - 1:node.end_lineno])
                     for node in ast.parse(text).body if isinstance(node, ast.FunctionDef)}
        verdicts = names | {n for n in functions if n.startswith("verify_")}
        assert verdicts <= functions.keys(), sorted(verdicts - functions.keys())
        without |= {n for n in verdicts
                    if not any(old in functions[n] for old in olds.get(path, []))}
    assert without == WITHOUT_MUTANT
