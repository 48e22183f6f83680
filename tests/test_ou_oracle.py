"""An exact trajectory oracle: the Ornstein-Uhlenbeck field with constant coupling.

With gamma = beta = 0 the field is Q = Q0, b = -b0 x, and with
coupling_kind = constant_matrix the generator is A = A0 (x) I + C0, whose two
parts commute.  So T(t) f = e^{t C0} (S(t) f_j)_j, where S is the Mehler
semigroup of A0 u = Q0 u'' - b0 x u'.  For the Gaussian datum exp(-x^2 P / 2)
at d = 1,

    S(t) f(x) = (1 + Sigma_t P)^{-1/2} exp(-m_t^2 / (2 (1 / P + Sigma_t))),

with m_t = e^{-b0 t} x and Sigma_t = (Q0 / b0) (1 - e^{-2 b0 t}).  The runs
below are checked against it on |x| <= 3 at t = 0.5, on the box L = 6.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from kolsys.coefficients import BuiltinFamily, make_builtin
from kolsys.discretization import assemble_system_operator, build_grid, grid_function_from_callable
from kolsys.semigroup import evolve

C0 = np.array([[-1.0, 1.0], [1.0, -1.0]])
Q0, B0, P, L, T, R_OBS = 1.0, 1.0, 2.0, 6.0, 0.5, 3.0


def mehler(x, t):
    """S(t) exp(-x^2 P / 2) at the points x."""
    sigma = (Q0 / B0) * (1.0 - np.exp(-2.0 * B0 * t))
    m = np.exp(-B0 * t) * x
    return (1.0 + sigma * P) ** -0.5 * np.exp(-0.5 * m ** 2 / (1.0 / P + sigma))


def exact(x, t, coupling=C0):
    """T(t) f for f = (exp(-x^2), 0): e^{t C} applied to (S(t) f_1, 0)."""
    return expm(t * coupling)[:, :1] * mehler(x, t)


def sup_error(n_nodes, dt, theta=0.5, coupling=C0):
    """sup over |x| <= R_OBS and both components of |T_h(T) f - oracle|."""
    field = make_builtin(BuiltinFamily(dim_d=1, dim_m=2, gamma=0.0, beta=0.0, b0=B0,
                                       Q0=np.eye(1) * Q0, coupling_kind="constant_matrix",
                                       C0=C0))
    grid = build_grid(1, L, n_nodes, "neumann")
    f = grid_function_from_callable(grid, lambda x: [np.exp(-x[..., 0] ** 2), 0.0])
    traj = evolve(assemble_system_operator(field, grid), f, T, dt=dt, theta=theta,
                  store_times=[])
    window = grid.window_mask(R_OBS)
    x = grid.nodes[window, 0]
    return float(np.max(np.abs(traj.values[-1][:, window] - exact(x, T, coupling))))


def orders(errors):
    return [float(np.log2(a / b)) for a, b in zip(errors, errors[1:])]


def test_second_order_in_h():
    errors = [sup_error(n, 1e-3) for n in (121, 241, 481)]
    assert min(orders(errors)) >= 1.8, errors


def test_second_order_in_dt():
    errors = [sup_error(961, dt) for dt in (0.1, 0.05, 0.025)]
    assert min(orders(errors)) >= 1.8, errors


def test_implicit_euler_is_first_order_in_dt():
    # negative control: theta = 1 is first order, so it cannot pass the test above
    errors = [sup_error(961, dt, theta=1.0) for dt in (0.1, 0.05, 0.025)]
    assert max(orders(errors)) < 1.2, errors


def test_oracle_with_the_wrong_coupling_sign_misses():
    # negative control: e^{-t C0} in the oracle misses the run by far more
    # than the run's own error
    right = sup_error(481, 1e-3)
    wrong = sup_error(481, 1e-3, coupling=-C0)
    assert wrong > 1e3 * right, (right, wrong)


@pytest.mark.parametrize("t", [0.0, 0.3])
def test_oracle_is_the_datum_at_zero_and_keeps_the_component_sum(t):
    # e^{t C0} keeps u_1 + u_2 (C0 has zero column sums), so the sum is S(t) f_1
    x = np.linspace(-3.0, 3.0, 13)
    u = exact(x, t)
    assert np.allclose(u.sum(axis=0), mehler(x, t), rtol=1e-14, atol=0)
    if t == 0.0:
        assert np.array_equal(u[0], np.exp(-x ** 2)) and not u[1].any()
