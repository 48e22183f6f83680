"""An exact trajectory oracle: the Ornstein-Uhlenbeck field with constant coupling.

With gamma = beta = 0 the field is Q = Q0, b = -b0 x, and with
coupling_kind = constant_matrix the generator is A = A0 (x) I + C0, whose two
parts commute.  So T(t) f = e^{t C0} (S(t) f_j)_j, where S is the Mehler
semigroup of A0 u = tr(Q0 D^2 u) - b0 x . grad u.  For the Gaussian datum
exp(-|x|^2 P / 2),

    S(t) f(x) = det(I + Sigma_t P)^{-1/2} exp(-m_t^T (P^{-1} + Sigma_t)^{-1} m_t / 2),

with m_t = e^{-b0 t} x and Sigma_t = (Q0 / b0) (1 - e^{-2 b0 t}) (Metafune,
Pallara & Priola, J. Funct. Anal. 196, 2002).  The runs below are checked
against it on |x|_inf <= 3 at t = 0.5, on the box L = 6, at d = 1 and at d = 2
with q12 != 0; the box test varies L.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from kolsys.coefficients import BuiltinFamily, make_builtin
from kolsys.discretization import assemble_system_operator, build_grid, grid_function_from_callable
from kolsys.semigroup import evolve

C0 = np.array([[-1.0, 1.0], [1.0, -1.0]])
Q0 = np.eye(1)
Q0_2D = np.array([[1.0, 0.3], [0.3, 0.8]])
B0, P, L, T, R_OBS = 1.0, 2.0, 6.0, 0.5, 3.0


def mehler(x, t, q0=Q0):
    """S(t) exp(-|x|^2 P / 2) at the points x, of shape (n, d), for Q = q0."""
    eye = np.eye(len(q0))
    sigma = (q0 / B0) * (1.0 - np.exp(-2.0 * B0 * t))
    m = np.exp(-B0 * t) * x
    quad = np.sum(m * np.linalg.solve(eye / P + sigma, m.T).T, axis=1)
    return np.linalg.det(eye + sigma * P) ** -0.5 * np.exp(-0.5 * quad)


def exact(x, t, coupling=C0, q0=Q0):
    """T(t) f for f = (exp(-|x|^2), 0): e^{t C} applied to (S(t) f_1, 0)."""
    return expm(t * coupling)[:, :1] * mehler(x, t, q0)


def run(n_nodes, dt, theta=0.5, q0=Q0, box=L, t=T, r_obs=R_OBS):
    """(x, u): the nodes of the box [-box, box]^d within |x|_inf <= r_obs,
    and T_h(t) f on them, for f = (exp(-|x|^2), 0) and Q = q0."""
    d = len(q0)
    field = make_builtin(BuiltinFamily(dim_d=d, dim_m=2, gamma=0.0, beta=0.0, b0=B0, Q0=q0,
                                       coupling_kind="constant_matrix", C0=C0))
    grid = build_grid(d, box, n_nodes, "neumann")
    f = grid_function_from_callable(grid, lambda x: [np.exp(-np.sum(x * x, axis=-1)), 0.0])
    traj = evolve(assemble_system_operator(field, grid), f, t, dt=dt, theta=theta,
                  store_times=[])
    window = grid.window_mask(r_obs)
    return grid.nodes[window], traj.values[-1][:, window]


def sup_error(x_u, t=T, coupling=C0, q0=Q0):
    """sup over the window and both components of |T_h(t) f - oracle|."""
    x, u = x_u
    return float(np.max(np.abs(u - exact(x, t, coupling, q0))))


def orders(errors):
    return [float(np.log2(a / b)) for a, b in zip(errors, errors[1:])]


def test_second_order_in_h():
    errors = [sup_error(run(n, 1e-3)) for n in (121, 241, 481)]
    assert min(orders(errors)) >= 1.8, errors


def test_second_order_in_dt():
    errors = [sup_error(run(961, dt)) for dt in (0.1, 0.05, 0.025)]
    assert min(orders(errors)) >= 1.8, errors


def test_implicit_euler_is_first_order_in_dt():
    # negative control: theta = 1 is first order, so it cannot pass the test above
    errors = [sup_error(run(961, dt, theta=1.0)) for dt in (0.1, 0.05, 0.025)]
    assert max(orders(errors)) < 1.2, errors


def test_oracle_with_the_wrong_coupling_sign_misses():
    # negative control: e^{-t C0} in the oracle misses the run by far more
    # than the run's own error
    x_u = run(481, 1e-3)
    right, wrong = sup_error(x_u), sup_error(x_u, coupling=-C0)
    assert wrong > 1e3 * right, (right, wrong)


@pytest.fixture(scope="module")
def d2_runs():
    """d = 2 with q12 != 0, dt = 1e-2, on 31^2, 61^2 and 121^2 nodes."""
    return [run(n, 1e-2, q0=Q0_2D) for n in (31, 61, 121)]


def test_second_order_in_h_at_d2_with_a_cross_term(d2_runs):
    errors = [sup_error(x_u, q0=Q0_2D) for x_u in d2_runs]
    assert min(orders(errors)) >= 1.8, errors


def test_oracle_with_the_wrong_cross_term_sign_misses_at_d2(d2_runs):
    # negative control: q12 -> -q12 in the oracle misses the 121^2 run by far
    # more than the run's own error, so the test above sees the cross term
    flipped = Q0_2D * np.array([[1.0, -1.0], [-1.0, 1.0]])
    right = sup_error(d2_runs[-1], q0=Q0_2D)
    wrong = sup_error(d2_runs[-1], q0=flipped)
    assert wrong > 50 * right, (right, wrong)


def test_error_falls_as_the_box_grows():
    # h = 0.025 on L = 3, 4 and 6, sup on |x| <= 2 at t = 2; at dt = 1e-3 the
    # time error is about 1e-9, far below the L = 6 error of about 6e-6
    errors = [sup_error(run(n, 1e-3, box=box, t=2.0, r_obs=2.0), t=2.0)
              for box, n in ((3.0, 241), (4.0, 321), (6.0, 481))]
    assert errors[0] > errors[1] > errors[2] and errors[0] >= 10 * errors[2], errors


@pytest.mark.parametrize("t", [0.0, 0.3])
def test_oracle_is_the_datum_at_zero_and_keeps_the_component_sum(t):
    # e^{t C0} keeps u_1 + u_2 (C0 has zero column sums), so the sum is S(t) f_1
    x = np.linspace(-3.0, 3.0, 13)[:, None]
    u = exact(x, t)
    assert np.allclose(u.sum(axis=0), mehler(x, t), rtol=1e-14, atol=0)
    if t == 0.0:
        assert np.array_equal(u[0], np.exp(-x[:, 0] ** 2)) and not u[1].any()
