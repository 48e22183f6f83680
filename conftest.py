"""Tier-1 test setup: the test process runs BLAS on one thread, as the CLI does.

`kolsys` pins numpy's and SciPy's BLAS to one thread when it is imported
before numpy, so it is imported here, before any test module loads numpy.
Nothing in pyproject.toml's pytest settings may name a numpy class: pytest
resolves `filterwarnings` while it reads its configuration, before any
conftest.py, and would import numpy first.  numpy's RankWarning is a
RuntimeWarning, so `error::RuntimeWarning` makes it an error too.
"""

import kolsys  # noqa: F401
