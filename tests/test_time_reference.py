"""An exact-in-time reference for the shipped nonlinear config exchange2.

The semi-discrete system u' = A_h u, with A_h the assembled system operator,
has the solution e^{t A_h} f, which `scipy.sparse.linalg.expm_multiply`
computes to near machine precision.  So T_dt(t) f - e^{t A_h} f is the pure
time error of a run, free of the error in h.  exchange2 has the drift
-x(1 + x^2) and the x-dependent coupling c(x) [[-1, 1], [1, -1]], which the
OU oracle does not cover.  Runs on 481 nodes of [-6, 6] with the data
(tanh, gauss) are compared at t = 1 on |x| <= 3.
"""

import numpy as np
import pytest
from scipy.sparse.linalg import expm_multiply

from kolsys.coefficients import BuiltinFamily, make_builtin
from kolsys.discretization import assemble_system_operator, build_grid, grid_function_from_callable
from kolsys.semigroup import evolve

T, R_OBS = 1.0, 3.0
DTS = (0.1, 0.05, 0.025)


@pytest.fixture(scope="module")
def problem():
    """The operator, the datum and the window mask, and e^{T A_h} f on it."""
    field = make_builtin(BuiltinFamily(dim_d=1, dim_m=2, gamma=0.0, beta=1.0, b0=1.0,
                                       Q0=np.eye(1), coupling_kind="exchange2"))
    grid = build_grid(1, 6.0, 481, "neumann")
    op = assemble_system_operator(field, grid)
    f = grid_function_from_callable(grid, lambda x: [np.tanh(x[..., 0]), np.exp(-x[..., 0] ** 2)])
    exact = op.embed(expm_multiply(T * op.matrix.tocsc(), op.restrict(f))).values
    window = grid.window_mask(R_OBS)
    return op, f, window, exact[:, window]


def time_errors(problem, theta):
    op, f, window, exact = problem
    return [float(np.max(np.abs(
        evolve(op, f, T, dt=dt, theta=theta, store_times=[]).values[-1][:, window] - exact)))
        for dt in DTS]


def orders(errors):
    return [float(np.log2(a / b)) for a, b in zip(errors, errors[1:])]


def test_crank_nicolson_is_second_order_in_time(problem):
    # measured: 1.80e-3, 4.48e-4, 1.12e-4
    errors = time_errors(problem, 0.5)
    assert min(orders(errors)) >= 1.8, errors


def test_implicit_euler_is_first_order_in_time(problem):
    # negative control: theta = 1 cannot pass the order bar above
    assert max(orders(time_errors(problem, 1.0))) < 1.2
