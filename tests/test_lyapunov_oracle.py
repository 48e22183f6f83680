"""A closed-form oracle for the sampled Lyapunov check on the builtin family.

For the builtin field at d = 1, Q = q0 s^gamma and b = -b0 x s^beta with
s = 1 + x^2, the scalar generator applied to phi = s^sigma is a sum of powers
of s:

    A0 phi = 2 sigma q0 s^(gamma+sigma-1) + 4 sigma (sigma-1) q0 (s-1) s^(gamma+sigma-2)
             - 2 sigma b0 (s-1) s^(beta+sigma-1).

At sigma = 1 it is 2 q0 s^gamma - 2 b0 (s-1) s^beta, so for beta >= 0 the
inequality A0 phi <= a - c phi holds on all of R for some c > 0 iff
gamma < beta + 1.  On exchange2 (gamma = 0, beta = 1, q0 = b0 = 1) it is
2 - 2x^2 - 2x^4; with u = x^2 the supremum of A0 phi + c phi is

    a(c) = 2 + c + max(c - 2, 0)^2 / 8,

and min_c a(c) / c = 1/2 + sqrt(5)/2 at c = sqrt(20).  `check_lyapunov`
takes a(c) as the maximum over its sample and c from a grid of powers of 2.
"""

import numpy as np
import pytest

from kolsys.coefficients import BuiltinFamily, make_builtin
from kolsys.hypotheses import SampleSpec, _LYAPUNOV_C_GRID, _phi_and_generator, check_lyapunov

SPEC = SampleSpec(radius=6.0, n_per_axis=81)


def field(gamma=0.0, beta=1.0, q0=1.0, b0=1.0, Q0=None):
    Q0 = q0 * np.eye(1) if Q0 is None else np.asarray(Q0)
    return make_builtin(BuiltinFamily(dim_d=len(Q0), dim_m=2, gamma=gamma, beta=beta, b0=b0,
                                      Q0=Q0, coupling_kind="exchange2"))


def generator_of_phi(x, sigma, gamma=0.0, beta=1.0, q0=1.0, b0=1.0):
    """A0 phi at the points x for phi = (1+x^2)^sigma, in closed form."""
    s = 1.0 + x * x
    return (2 * sigma * q0 * s ** (gamma + sigma - 1)
            + 4 * sigma * (sigma - 1) * q0 * (s - 1) * s ** (gamma + sigma - 2)
            - 2 * sigma * b0 * (s - 1) * s ** (beta + sigma - 1))


def generator_of_phi_2d(pts, sigma, gamma, beta, Q0, b0):
    """A0 phi at points of shape (n, 2) for Q = s^gamma Q0, b = -b0 x s^beta:
    2 sigma s^(sigma-1) Tr Q + 4 sigma (sigma-1) s^(sigma-2) x^T Q x
    + 2 sigma s^(sigma-1) <b, x>."""
    s = 1.0 + np.sum(pts * pts, axis=1)
    xq0x = np.einsum("ni,ij,nj->n", pts, Q0, pts)
    return (2 * sigma * s ** (sigma - 1) * s ** gamma * np.trace(Q0)
            + 4 * sigma * (sigma - 1) * s ** (sigma - 2) * s ** gamma * xq0x
            - 2 * sigma * s ** (sigma - 1) * b0 * (s - 1) * s ** beta)


def exact_a(c):
    """sup over R of A0 phi + c phi on exchange2 at sigma = 1."""
    return 2.0 + c + max(c - 2.0, 0.0) ** 2 / 8.0


def test_generator_matches_the_closed_form():
    pts = SPEC.points(1)
    for gamma, beta, sigma, q0, b0 in [(0.0, 1.0, 1.0, 1.0, 1.0), (0.5, 0.3, 0.7, 2.0, 0.5),
                                       (1.5, 1.0, 2.0, 0.5, 3.0)]:
        phi, a_phi = _phi_and_generator(field(gamma, beta, q0, b0), pts, sigma)
        exact = generator_of_phi(pts[:, 0], sigma, gamma, beta, q0, b0)
        assert np.allclose(phi, (1.0 + pts[:, 0] ** 2) ** sigma, rtol=1e-15, atol=0.0)
        assert np.max(np.abs(a_phi - exact) / np.maximum(1.0, np.abs(exact))) < 1e-13
    # d = 2 with a cross term q12 != 0 in Q0, and sigma away from 1
    pts = SPEC.points(2)
    for gamma, beta, sigma, Q0, b0 in [(0.5, 0.3, 0.7, [[2.0, 0.6], [0.6, 1.0]], 0.5),
                                       (1.0, 1.0, 2.5, [[1.0, -0.4], [-0.4, 0.8]], 1.5)]:
        phi, a_phi = _phi_and_generator(field(gamma, beta, b0=b0, Q0=Q0), pts, sigma)
        exact = generator_of_phi_2d(pts, sigma, gamma, beta, np.array(Q0), b0)
        s = 1.0 + np.sum(pts * pts, axis=1)
        assert np.allclose(phi, s ** sigma, rtol=1e-15, atol=0.0)
        # where the diffusion and drift terms cancel to 1% of their size the
        # relative error reads 4.6e-14; flipping q12 moves it by more than 1
        assert np.max(np.abs(a_phi - exact) / np.maximum(1.0, np.abs(exact))) < 1e-12


def test_sampled_a_never_exceeds_the_exact_supremum():
    # a maximum over samples can only be lower than the supremum over R
    phi, a_phi = _phi_and_generator(field(), SPEC.points(1), 1.0)
    for c in _LYAPUNOV_C_GRID:
        assert np.max(a_phi + c * phi) <= exact_a(c) * (1 + 1e-14), c
    res = check_lyapunov(field(), 1.0, SPEC)
    assert res.passed and res.a <= exact_a(res.c)


def test_best_ratio_lies_within_the_candidate_grid_resolution():
    # between the exact optimum over all c > 0 (1.6180) and the exact
    # optimum over the candidate grid (1.625, at c = 4); check reads 1.6230
    best = 0.5 + np.sqrt(5.0) / 2.0
    assert exact_a(np.sqrt(20.0)) / np.sqrt(20.0) == pytest.approx(best, rel=1e-15)
    on_grid = min(exact_a(c) / c for c in _LYAPUNOV_C_GRID)
    res = check_lyapunov(field(), 1.0, SPEC)
    assert best <= res.best_tail_ratio <= on_grid
    assert on_grid - best < 0.01


def test_pass_and_inconclusive_split_at_gamma_equal_beta_plus_one():
    # gamma < beta + 1 holds on R and passes; gamma >= beta + 1 fails for
    # every c, and the outer-annulus trend turns it inconclusive, not pass
    for beta in (0.0, 0.5, 1.0, 1.5, 2.0):
        for gamma in (0.0, beta + 0.5, beta + 0.9, beta + 1.1, beta + 1.5):
            res = check_lyapunov(field(gamma, beta), 1.0, SPEC)
            assert res.status == ("pass" if gamma < beta + 1 else "inconclusive"), (gamma, beta)
