"""A closed-form invariant density of the builtin family at every d.

With s = 1 + |x|^2, Q = s^gamma Q0 and b = -b0 x s^beta, a stationary density
with zero flux solves sum_j D_j(q_ij rho) = b_i rho.  Since
div Q = 2 gamma s^(gamma - 1) Q0 x, this asks

    grad log rho = -2 gamma x / s - b0 s^(beta - gamma) Q0^-1 x,

a gradient for every Q0 exactly when beta = gamma, and then

    rho = Z^-1 s^-gamma exp(-b0 x^T Q0^-1 x / 2),

with any cross term q12 (Risken, The Fokker-Planck Equation, Springer 1989,
section 6.2).  Below it has zero flux at round-off under the field's analytic
Q, dQ and b, equals oracle_density_1d at d = 1, and agrees with
solve_scalar_invariant_density at d = 2 on the beta = gamma fields where that
solver converges.
"""

import numpy as np
import pytest

from kolsys.coefficients import BuiltinFamily, make_builtin, rowdot
from kolsys.discretization import build_grid
from kolsys.invariant_measure import oracle_density_1d, solve_scalar_invariant_density

CROSS = [np.array([[1.0, 0.3], [0.3, 1.0]]), np.array([[2.0, 0.5], [0.5, 1.0]])]


def field(q0, gamma, beta, b0=1.0):
    q0 = np.atleast_2d(q0)
    return make_builtin(BuiltinFamily(dim_d=len(q0), dim_m=2, gamma=gamma, beta=beta, b0=b0,
                                      Q0=q0))


def unnormalized(x, q0, gamma, b0):
    """s^-gamma exp(-b0 x^T Q0^-1 x / 2) at the points x of shape (n, d), and its
    gradient, rho (-2 gamma x / s - b0 Q0^-1 x)."""
    s = 1.0 + rowdot(x, x)
    q0_inv_x = np.linalg.solve(q0, x.T).T
    rho = s ** -gamma * np.exp(-0.5 * b0 * rowdot(x, q0_inv_x))
    return rho, rho[:, None] * (-2.0 * gamma * x / s[:, None] - b0 * q0_inv_x)


def closed_form_density(grid, q0, gamma, b0=1.0):
    """The closed form on the grid's nodes, of mass 1 under its trapezoid weights."""
    rho, _ = unnormalized(grid.nodes, np.atleast_2d(q0), gamma, b0)
    return rho / np.sum(grid.quadrature_weights() * rho)


def flux(fld, x, q0, gamma, b0):
    """sum_j D_j(q_ij rho) - b_i rho of the closed form at the points x, from
    the field's analytic Q, dQ and b, and the sum of the sizes of its terms."""
    rho, grad = unnormalized(x, q0, gamma, b0)
    Q, dQ, b = fld.Q(x), fld.dQ(x), fld.b(x)
    div_q = np.einsum("njij->ni", dQ)        # dQ[n, k, i, j] = D_k q_ij at point n
    terms = [div_q * rho[:, None], np.einsum("nij,nj->ni", Q, grad), -b * rho[:, None]]
    sizes = [np.abs(div_q) * rho[:, None], np.einsum("nij,nj->ni", np.abs(Q), np.abs(grad)),
             np.abs(b) * rho[:, None]]
    return sum(terms), sum(sizes)


@pytest.mark.parametrize("q0", CROSS, ids=["q12=0.3", "q12=0.5"])
@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("b0", [1.0, 2.5])
def test_closed_form_has_zero_flux_at_d2_with_a_cross_term(q0, gamma, b0):
    x = np.random.default_rng(19).uniform(-4.0, 4.0, size=(500, 2))
    j, size = flux(field(q0, gamma, gamma, b0), x, q0, gamma, b0)
    assert np.all(np.abs(j) <= 1e-14 * size), np.max(np.abs(j) / size)


@pytest.mark.parametrize("gamma", [0.0, 0.5])
def test_closed_form_flux_is_not_zero_when_beta_is_not_gamma(gamma):
    # negative control: with beta = gamma + 1/2 the drift no longer balances
    # the diffusion, so the check above would see the wrong density
    q0 = CROSS[0]
    x = np.random.default_rng(19).uniform(-4.0, 4.0, size=(500, 2))
    j, size = flux(field(q0, gamma, gamma + 0.5), x, q0, gamma, 1.0)
    assert np.max(np.abs(j) / size) > 0.1


@pytest.mark.parametrize("q0", [1.0, 0.7])
@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("b0", [1.0, 2.0])
def test_closed_form_equals_the_1d_oracle(q0, gamma, b0):
    grid = build_grid(1, 6.0, 241, "neumann")
    oracle = oracle_density_1d(field(q0, gamma, gamma, b0), grid)
    assert np.allclose(closed_form_density(grid, q0, gamma, b0), oracle.rho, rtol=1e-12, atol=0)


# the beta = gamma fields of the d = 2 census (Q0 in I, CROSS; L in 4, 6; 41 or
# 81 nodes per axis) on which today's solver converges
CONVERGED = [(0.0, np.eye(2), 41), (0.0, CROSS[0], 41),
             (1.0, np.eye(2), 41), (1.0, np.eye(2), 81),
             (1.0, CROSS[0], 41), (1.0, CROSS[0], 81)]


def sup_error(gamma, q0, n):
    """sup over |x| <= 2 of |rho_h - rho|, relative to sup rho, and h, on L = 6."""
    grid = build_grid(2, 6.0, n, "neumann")
    mu = solve_scalar_invariant_density(field(q0, gamma, gamma), grid)
    exact = closed_form_density(grid, q0, gamma)
    window = grid.window_mask(2.0)
    return float(np.max(np.abs(mu.rho - exact)[window]) / np.max(exact)), grid.h


@pytest.mark.parametrize("gamma, q0, n", CONVERGED,
                         ids=[f"gamma={g:g}-q12={q[0, 1]:g}-{n}" for g, q, n in CONVERGED])
def test_solver_agrees_with_the_closed_form_where_it_converges(gamma, q0, n):
    error, h = sup_error(gamma, q0, n)
    assert error <= 0.25 * h ** 2, error


@pytest.mark.parametrize("q0", [np.eye(2), CROSS[0]], ids=["q12=0", "q12=0.3"])
def test_solver_error_falls_at_second_order_at_gamma_one(q0):
    coarse, fine = (sup_error(1.0, q0, n)[0] for n in (41, 81))
    assert coarse >= 3.5 * fine, (coarse, fine)
