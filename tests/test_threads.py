"""The package pins numpy's and SciPy's BLAS to one thread before they load.

The pin only works if `kolsys/__init__.py` sets the thread variables before
its first numpy, SciPy or kolsys import; an import moved above that block
lets OpenBLAS start its worker threads at load time, which this test sees.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

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
