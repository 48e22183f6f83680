"""Invariant density of the scalar semigroup and the induced measure system.

The density is the kernel of the discrete stationary Fokker-Planck operator,
found by inverse iteration; a closed-form 1-D oracle provides the independent
cross-check.  A kernel direction xi turns the scalar measure mu into the
family mu_j = c xi_j mu.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from kolsys.coefficients import CoefficientField, _float_or_array, libm_pow
from kolsys.discretization import (
    Grid,
    assemble_adjoint_operator,
    assemble_scalar_operator,
    build_grid,
    fd_gradient,
    fd_hessian_frobenius_sq,
    grid_function_from_callable,
)
from kolsys.hypotheses import KernelVector
from kolsys.reports import PropertyReport, Witness

# the oracle's Gauss-Legendre rule takes 2n points per grid interval, checked
# against the n-point rule
ORACLE_GAUSS_POINTS = 8


@dataclass
class MeasureDensity:
    """Nonnegative nodal density with unit trapezoidal mass."""

    grid: Grid
    rho: np.ndarray
    weights: np.ndarray
    norm_residual: float
    clip_mass: float = 0.0

    def integrate(self, values):
        """Quadrature of `values` against the density over the last (node)
        axis: a float for one nodal vector, else an array of the leading shape."""
        return _float_or_array(np.sum(self.weights * self.rho * values, axis=-1))

    def mass(self):
        return float(np.sum(self.weights * self.rho))


@dataclass
class MeasureSystem:
    """System of measures mu_j = c xi_j mu induced by the kernel direction."""

    xi: KernelVector
    mu: MeasureDensity
    scale: float = 1.0

    def masses(self):
        return self.scale * self.xi.xi * self.mu.mass()

    def _total(self, values):
        """sum_j int values_j dmu_j over the last two axes (m, N)."""
        return np.sum(self.scale * self.xi.xi * self.mu.integrate(values), axis=-1)

    def lp_norm(self, f, p):
        """Discrete norm (sum_j int |f_j|^p dmu_j)^(1/p) of a GridFunction, or
        of each stored state of a Trajectory as an array over its times."""
        _check_same_nodes(f, self.mu)
        totals = self._total(np.abs(f.values) ** p)
        # the root value by value, as of one float: numpy's vectorized pow
        # rounds some values differently
        roots = np.array([t ** (1.0 / p) for t in np.ravel(totals)])
        return _float_or_array(roots.reshape(np.shape(totals)))


def _check_same_nodes(f, mu: MeasureDensity):
    """`f`, a GridFunction or a Trajectory, must lie on the density's nodes."""
    if f.grid is not mu.grid and not np.array_equal(f.grid.nodes, mu.grid.nodes):
        raise ValueError("grid mismatch between function and measure")


def _normalize(grid, rho, clip_tol):
    weights = grid.quadrature_weights()
    total = float(np.sum(weights * rho))
    if total < 0:
        rho, total = -rho, -total
    neg = np.minimum(rho, 0.0)
    clip_mass = float(-np.sum(weights * neg))
    denom = max(abs(total), 1e-300)
    if clip_mass / denom > clip_tol:
        raise RuntimeError(
            f"negative density mass {clip_mass / denom:.3e} exceeds {clip_tol:.1e}; "
            "grid too coarse or box too small for this field")
    rho = np.maximum(rho, 0.0)
    total = float(np.sum(weights * rho))
    if total <= 0:
        raise RuntimeError("density vanished after clipping")
    rho = rho / total
    residual = abs(float(np.sum(weights * rho)) - 1.0)
    return rho, weights, residual, clip_mass / denom


def solve_scalar_invariant_density(field: CoefficientField, grid: Grid,
                                   tol=1e-10, max_iter=50,
                                   clip_tol=1e-6) -> MeasureDensity:
    """Kernel of the discrete adjoint operator by shifted inverse iteration.

    Stops when ||A* rho|| <= tol * ||A*|| * ||rho|| in the max norm (the
    residual is scaled by the operator norm).  Tiny negative kernel entries
    are clipped and their relative mass reported; more than `clip_tol` of
    clipped mass aborts with a diagnostic.
    """
    adj = assemble_adjoint_operator(field, grid)
    A = adj.matrix.tocsc()
    op_scale = float(np.abs(A).sum(axis=1).max())
    try:
        lu = spla.splu(A)
    except RuntimeError:
        shift = 1e-12 * op_scale
        lu = spla.splu((A - shift * sp.identity(A.shape[0], format="csc")).tocsc())

    x_int = grid.nodes[adj.dof_indices]
    y = np.exp(-0.5 * np.sum(x_int * x_int, axis=1))
    y /= np.linalg.norm(y)
    last_res = np.inf
    for _ in range(max_iter):
        y = lu.solve(y)
        norm = np.linalg.norm(y)
        if not np.isfinite(norm) or norm == 0.0:
            raise RuntimeError("inverse iteration produced a non-finite iterate")
        y /= norm
        res = float(np.max(np.abs(A @ y))) / (op_scale * float(np.max(np.abs(y))))
        if res <= tol:
            break
        if res > 0.9 * last_res and last_res < np.inf:
            raise RuntimeError(
                f"inverse iteration stagnated at residual {res:.3e} "
                f"(tolerance {tol:.1e}); refine the grid or enlarge the box")
        last_res = res
    else:
        raise RuntimeError(f"inverse iteration did not converge in {max_iter} steps")

    full = np.zeros(grid.n_nodes)
    full[adj.dof_indices] = y
    rho, weights, residual, clip_mass = _normalize(grid, full, clip_tol)
    return MeasureDensity(grid=grid, rho=rho, weights=weights,
                          norm_residual=residual, clip_mass=clip_mass)


def oracle_density_1d(field: CoefficientField, grid: Grid,
                      quad_tol=1e-12) -> MeasureDensity:
    """Closed-form 1-D stationary density rho = Z^-1 q^-1 exp(int_0^x b/q).

    The inner integral is accumulated over the grid intervals, each taken by
    the 2n-point Gauss-Legendre rule (n = ORACLE_GAUSS_POINTS), with b and q
    evaluated once for all intervals.  The n-point rule checks it: where the
    two differ on an interval by more than max(quad_tol, quad_tol |I|), the
    integrand is not smooth enough there and ValueError says where.  Z comes
    from the trapezoid rule on the grid.
    """
    if grid.d != 1:
        raise ValueError("the density oracle is one-dimensional")

    n = ORACLE_GAUSS_POINTS
    (t_n, w_n), (t_2n, w_2n) = (np.polynomial.legendre.leggauss(k) for k in (n, 2 * n))
    xs = grid.axis
    half, mid = np.diff(xs) / 2.0, (xs[:-1] + xs[1:]) / 2.0
    nodes = mid[:, None] + half[:, None] * np.concatenate([t_n, t_2n])
    pts = np.concatenate([nodes.ravel(), xs])
    q = field.Q(pts[:, None])[:, 0, 0]
    if not np.all(q > 0):
        raise ValueError(f"diffusion vanishes at x = {pts[np.argmin(q > 0)]}")
    ratio = field.b(nodes.reshape(-1, 1))[:, 0] / q[:nodes.size]
    ratio = ratio.reshape(nodes.shape)
    coarse = half * (ratio[:, :n] @ w_n)
    fine = half * (ratio[:, n:] @ w_2n)
    gap = np.abs(fine - coarse)
    bad = ~(gap <= np.maximum(quad_tol, quad_tol * np.abs(fine)))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"Gauss-Legendre rules disagree by {gap[i]:.2e} on "
                         f"[{xs[i]}, {xs[i + 1]}], beyond quad_tol = {quad_tol:.1e}; "
                         "b/q is not smooth enough there")

    # int b/q from the node nearest 0: the constant this shifts by cancels in Z
    i0 = int(np.argmin(np.abs(xs)))
    cumulative = np.zeros(len(xs))
    cumulative[i0 + 1:] = np.cumsum(fine[i0:])
    cumulative[:i0] = -np.cumsum(fine[:i0][::-1])[::-1]

    log_rho = cumulative - np.log(q[nodes.size:])
    log_rho -= log_rho.max()
    rho = np.exp(log_rho)
    rho, weights, residual, clip_mass = _normalize(grid, rho, clip_tol=1.0)
    return MeasureDensity(grid=grid, rho=rho, weights=weights,
                          norm_residual=residual, clip_mass=clip_mass)


def build_measure_system(xi: KernelVector, mu: MeasureDensity, c=1.0) -> MeasureSystem:
    """Scale the kernel direction into the measure family mu_j = c xi_j mu."""
    if c <= 0:
        raise ValueError("the scale c must be positive")
    return MeasureSystem(xi=xi, mu=mu, scale=float(c))


def functional_Mf(f, sys: MeasureSystem):
    """sum_k int f_k dmu_k, the long-time mass functional, of a GridFunction
    (a float) or of each stored state of a Trajectory (an array over its times)."""
    _check_same_nodes(f, sys.mu)
    return _float_or_array(sys._total(f.values))


def l1_distance(a: MeasureDensity, b: MeasureDensity) -> float:
    return float(np.sum(a.weights * np.abs(a.rho - b.rho)))


def check_infinitesimal_invariance(field: CoefficientField, mu: MeasureDensity,
                                   test_functions, inv_tol=1e-4) -> PropertyReport:
    """|int A0 psi dmu| <= inv_tol * ||psi||_C2 for compactly supported psi.

    All test functions are sampled in one call and checked as the rows of one
    (K, N) array; the witness is the last test function of the worst ratio.
    """
    grid = mu.grid
    op = assemble_scalar_operator(field, build_grid(grid.d, grid.L, grid.n_per_axis, "dirichlet"))
    fns = list(test_functions)
    worst, witness = 0.0, None
    if fns:
        psi = grid_function_from_callable(grid, lambda x: [fn(x) for fn in fns],
                                          m=len(fns)).values
        c2 = _c2_norm(psi, grid)
        a_psi = np.zeros_like(psi)
        a_psi[:, op.dof_indices] = (op.matrix @ psi[:, op.dof_indices].T).T
        residual = np.abs(mu.integrate(a_psi))
        rel = np.where(c2 > 0, residual / np.maximum(c2, 1e-300), residual)
        i = len(rel) - 1 - int(np.argmax(rel[::-1]))
        worst = float(rel[i])
        witness = Witness(tuple(grid.nodes[np.argmax(np.abs(psi[i]))]), float(residual[i]))
    status = "pass" if worst <= inv_tol else "fail"
    return PropertyReport(name="infinitesimal_invariance", status=status,
                          measured=worst, bound=0.0, tolerance=inv_tol,
                          witness=witness,
                          details={"n_test_functions": len(fns)})


def _c2_norm(psi, grid):
    """sup |psi| + sup |grad psi| + sup |D^2 psi| of each row of (..., N) values."""
    grad = fd_gradient(psi, grid)
    hess_sq = fd_hessian_frobenius_sq(psi, grid)
    return (np.max(np.abs(psi), axis=-1)
            + np.max(np.linalg.norm(grad, axis=0), axis=-1)
            + np.max(np.sqrt(hess_sq), axis=-1))


def bump_function(center, width):
    """C^2 polynomial bump (1 - r^2)^3 supported on |x - center| < width, as a
    function of points of shape (N, d) with one value per point."""
    center = np.atleast_1d(np.asarray(center, dtype=float))

    def psi(x):
        r2 = np.sum((x - center) ** 2, axis=-1) / width ** 2
        return np.where(r2 < 1.0, libm_pow(1.0 - r2, 3), 0.0)

    return psi
