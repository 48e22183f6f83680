"""The package pins numpy's and SciPy's BLAS to one thread before they load.

The pin only works if `kolsys/__init__.py` sets the thread variables before
its first numpy, SciPy or kolsys import; an import moved above that block
lets OpenBLAS start its worker threads at load time, which these tests see,
in a fresh interpreter and in the test process itself.
"""

import json
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS")


def test_cli_import_runs_blas_on_one_thread():
    code = ("import json, os, sys, kolsys.cli; tasks = '/proc/self/task'; "
            "print(json.dumps({'env': {v: os.environ.get(v) for v in sys.argv[1:]}, "
            "'threads': len(os.listdir(tasks)) if os.path.isdir(tasks) else None}))")
    env = {**os.environ, "PYTHONPATH": SRC, "OMP_NUM_THREADS": "3",
           **dict.fromkeys(BLAS_VARS, "4")}
    out = subprocess.run([sys.executable, "-c", code, *BLAS_VARS, "OMP_NUM_THREADS"], env=env,
                         capture_output=True, text=True, check=True)
    seen = json.loads(out.stdout)
    # inherited values are overwritten; OMP_NUM_THREADS is not the package's to set
    assert seen["env"] == {**dict.fromkeys(BLAS_VARS, "1"), "OMP_NUM_THREADS": "3"}
    if seen["threads"] is not None:
        assert seen["threads"] == 1


def test_test_process_runs_blas_on_one_thread():
    # the root conftest.py imports kolsys before numpy loads; a numpy import
    # ahead of it, such as a numpy class named in pyproject.toml's
    # filterwarnings, gives this process a native OpenBLAS thread
    tasks = "/proc/self/task"
    if os.path.isdir(tasks):
        assert len(os.listdir(tasks)) == threading.active_count()


def test_rank_warning_is_an_error():
    # a RuntimeWarning, so pyproject.toml's error::RuntimeWarning covers it
    # without naming the numpy class
    with pytest.raises(np.exceptions.RankWarning):
        warnings.warn("rank deficient fit", np.exceptions.RankWarning)
