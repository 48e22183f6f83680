"""Apply each code mutant of tests/mutants.toml and check that its test fails.

Run from anywhere, with Python 3.11 or later:

    python3 tests/mutants.py

Each mutant replaces `old`, which must occur exactly once in `file`, with
`new`, in a fresh copy of this checkout in a temporary directory, and runs
its `test` there (`python -m pytest -q -x TEST`, on that copy's `src/`).
The mutant is caught when the test fails, or gives no result within
TIMEOUT seconds (a mutant that never kills its workers hangs), and
survives when it passes.  One line per mutant goes to stdout; the exit
status is 1 if any mutant survived or could not be applied.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import tomllib

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TABLE = os.path.join(ROOT, "tests", "mutants.toml")
SKIP = shutil.ignore_patterns(".git", ".perfbench", ".hypothesis", ".pytest_cache",
                              "__pycache__")
TIMEOUT = 600.0


def load():
    with open(TABLE, "rb") as fh:
        return tomllib.load(fh)["mutant"]


def apply(mutant, root):
    """Write the mutant into the copy at `root`; ValueError unless its old
    text occurs exactly once."""
    path = os.path.join(root, mutant["file"])
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.count(mutant["old"]) != 1:
        raise ValueError(f"old text occurs {text.count(mutant['old'])} times in {mutant['file']}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(mutant["old"], mutant["new"]))


def verdict(mutant):
    """One line: the mutant's name, then caught, SURVIVED or ERROR and why."""
    with tempfile.TemporaryDirectory(prefix="kolsys-mutant-") as tmp:
        root = os.path.join(tmp, "kolsys")
        shutil.copytree(ROOT, root, ignore=SKIP)
        try:
            apply(mutant, root)
        except ValueError as exc:
            return f"{mutant['name']}: ERROR {exc}"
        env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
        try:
            proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                                   "-x", mutant["test"]], cwd=root, env=env,
                                  capture_output=True, text=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return f"{mutant['name']}: caught (no result after {TIMEOUT:g} s)"
    if proc.returncode == 0:
        return f"{mutant['name']}: SURVIVED {mutant['test']}"
    if proc.returncode != 1:    # not a test failure: collection error, no such test
        return f"{mutant['name']}: ERROR pytest exited {proc.returncode}: {proc.stdout[-500:]}"
    return f"{mutant['name']}: caught by {mutant['test']}"


def main():
    bad = 0
    for mutant in load():
        line = verdict(mutant)
        bad += " SURVIVED " in line or " ERROR " in line
        print(line, flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
