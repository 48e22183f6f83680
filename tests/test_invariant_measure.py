import numpy as np
import pytest
import scipy.integrate

from kolsys.coefficients import BuiltinFamily, CoefficientField, make_builtin
from kolsys.discretization import (
    GridFunction,
    assemble_scalar_operator,
    build_grid,
    grid_function_from_callable,
)
from kolsys.hypotheses import SampleSpec, compute_common_kernel
from kolsys.invariant_measure import (
    MeasureDensity,
    _c2_norm,
    _normalize,
    bump_function,
    build_measure_system,
    check_infinitesimal_invariance,
    functional_Mf,
    l1_distance,
    oracle_density_1d,
    solve_scalar_invariant_density,
)

SPEC = SampleSpec(radius=6.0, n_per_axis=81)


def field_1d(gamma=0.0, beta=1.0, b0=1.0):
    return make_builtin(BuiltinFamily(dim_d=1, dim_m=2, gamma=gamma, beta=beta,
                                      b0=b0, Q0=np.eye(1)))


def ou_field():
    return field_1d(beta=0.0)


def normalized_on_grid(grid, values):
    w = grid.quadrature_weights()
    return values / np.sum(w * values)


def test_oracle_gaussian_for_ou():
    # b/q = -x: the Gauss-Legendre rule integrates it exactly
    grid = build_grid(1, 6.0, 241)
    mu = oracle_density_1d(ou_field(), grid)
    expected = normalized_on_grid(grid, np.exp(-0.5 * grid.nodes[:, 0] ** 2))
    assert np.max(np.abs(mu.rho - expected)) <= 1e-14


def test_oracle_quartic_family():
    grid = build_grid(1, 6.0, 241)
    mu = oracle_density_1d(field_1d(), grid)
    x = grid.nodes[:, 0]
    expected = normalized_on_grid(grid, np.exp(-0.5 * x ** 2 - 0.25 * x ** 4))
    assert np.max(np.abs(mu.rho - expected)) <= 1e-10


def test_oracle_gamma1_prefactor():
    # q = 1 + x^2, b = -x(1+x^2): b/q = -x, so rho ~ (1+x^2)^-1 e^{-x^2/2}
    grid = build_grid(1, 6.0, 241)
    mu = oracle_density_1d(field_1d(gamma=1.0), grid)
    x = grid.nodes[:, 0]
    expected = normalized_on_grid(grid, np.exp(-0.5 * x ** 2) / (1 + x ** 2))
    assert np.max(np.abs(mu.rho - expected)) <= 1e-10


def quad_reference_oracle(field, grid):
    """rho = Z^-1 q^-1 exp(int_0^x b/q) with adaptive quadrature per grid cell."""
    def ratio(x):
        return field.b(np.array([x]))[0] / field.Q(np.array([x]))[0, 0]

    xs = grid.axis
    cells = [scipy.integrate.quad(ratio, a, b, epsabs=1e-13, epsrel=1e-13)[0]
             for a, b in zip(xs[:-1], xs[1:])]
    i0 = int(np.argmin(np.abs(xs)))
    cumulative = np.concatenate([[0.0], np.cumsum(cells)])
    cumulative -= cumulative[i0]
    rho = np.exp(cumulative - np.log(field.Q(grid.nodes)[:, 0, 0]))
    return normalized_on_grid(grid, rho)


@pytest.mark.parametrize("gamma, beta, q0, n", [(0.0, 0.0, 1.0, 121), (0.0, 1.0, 0.7, 201),
                                                (1.0, 0.0, 1.0, 121), (1.0, 1.0, 2.0, 241),
                                                (0.5, 2.0, 1.3, 161)])
def test_oracle_matches_adaptive_quadrature(gamma, beta, q0, n):
    field = make_builtin(BuiltinFamily(dim_d=1, dim_m=2, gamma=gamma, beta=beta,
                                       b0=1.0, Q0=q0 * np.eye(1)))
    grid = build_grid(1, 6.0, n)
    expected = quad_reference_oracle(field, grid)
    rho = oracle_density_1d(field, grid).rho
    assert np.max(np.abs(rho - expected)) <= 1e-12 * np.max(expected)


def kinked_field(kink):
    return CoefficientField.from_pointwise(
        1, 1, lambda x: np.eye(1), lambda x: -x - 0.5 * np.abs(x - kink),
        lambda x: np.zeros((1, 1)))


def test_oracle_rejects_a_kink_inside_a_cell():
    # negative control for the n-point / 2n-point check: b/q has a kink at
    # x = 0.43, inside the cell [0.4, 0.5], and is linear on every other cell
    grid = build_grid(1, 6.0, 121)
    with pytest.raises(ValueError, match=r"disagree by \S+ on \[0\.4\d*, 0\.5\d*\]"):
        oracle_density_1d(kinked_field(0.43), grid, quad_tol=1e-12)
    # the same kink on a grid node leaves every cell smooth
    mu = oracle_density_1d(kinked_field(0.4), grid, quad_tol=1e-12)
    assert mu.mass() == pytest.approx(1.0, abs=1e-14)


def test_oracle_rejects_vanishing_diffusion():
    field = CoefficientField.from_pointwise(
        1, 1, lambda x: np.atleast_2d(x[0] ** 2), lambda x: -x, lambda x: np.zeros((1, 1)))
    with pytest.raises(ValueError, match="diffusion vanishes at x = 0.0"):
        oracle_density_1d(field, build_grid(1, 6.0, 121))


def test_oracle_requires_1d():
    grid = build_grid(2, 2.0, 11)
    with pytest.raises(ValueError):
        oracle_density_1d(ou_field(), grid)


def test_solved_density_matches_oracle():
    grid = build_grid(1, 6.0, 241)
    field = ou_field()
    mu = solve_scalar_invariant_density(field, grid)
    oracle = oracle_density_1d(field, grid)
    assert mu.clip_mass <= 1e-6
    assert mu.norm_residual <= 1e-10
    assert l1_distance(mu, oracle) <= 1e-3


def test_solved_density_even_symmetry():
    grid = build_grid(1, 6.0, 241)
    mu = solve_scalar_invariant_density(field_1d(), grid)
    assert np.max(np.abs(mu.rho - mu.rho[::-1])) <= 1e-8


def test_measure_system_masses():
    grid = build_grid(1, 6.0, 161)
    field = field_1d()
    mu = solve_scalar_invariant_density(field, grid)
    xi = compute_common_kernel(field, SPEC)
    sys1 = build_measure_system(xi, mu, c=1.0)
    assert np.allclose(sys1.masses(), xi.xi, atol=1e-10)
    # scale sqrt(2) turns both exchange2 masses into probabilities
    sys2 = build_measure_system(xi, mu, c=np.sqrt(2.0))
    assert np.allclose(sys2.masses(), [1.0, 1.0], atol=1e-10)
    with pytest.raises(ValueError):
        build_measure_system(xi, mu, c=0.0)


def test_functional_mf_examples():
    grid = build_grid(1, 6.0, 161)
    field = field_1d()
    mu = solve_scalar_invariant_density(field, grid)
    xi = compute_common_kernel(field, SPEC)
    sys = build_measure_system(xi, mu, c=1.0)

    f_xi = GridFunction(grid, np.repeat(xi.xi[:, None], grid.n_nodes, axis=1))
    assert functional_Mf(f_xi, sys) == pytest.approx(1.0, abs=1e-10)

    f_e1 = GridFunction(grid, np.vstack([np.ones(grid.n_nodes), np.zeros(grid.n_nodes)]))
    assert functional_Mf(f_e1, sys) == pytest.approx(1 / np.sqrt(2), abs=1e-10)

    f_odd = grid_function_from_callable(grid, lambda x: [np.sin(x[..., 0]), x[..., 0] ** 3])
    assert abs(functional_Mf(f_odd, sys)) <= 1e-10


def test_mf_and_lp_norm_reject_other_nodes():
    # same node count, other box: the nodes differ, so the quadrature would
    # pair values with the wrong points
    field = field_1d()
    xi = compute_common_kernel(field, SPEC)
    sys = build_measure_system(xi, solve_scalar_invariant_density(field, build_grid(1, 6.0, 61)))
    f = grid_function_from_callable(build_grid(1, 4.0, 61), lambda x: [1.0, 1.0])
    with pytest.raises(ValueError, match="grid mismatch"):
        functional_Mf(f, sys)
    with pytest.raises(ValueError, match="grid mismatch"):
        sys.lp_norm(f, 2.0)
    # a copy of the measure's grid holds the same nodes and is accepted
    same = grid_function_from_callable(build_grid(1, 6.0, 61, "dirichlet"), lambda x: [1.0, 1.0])
    assert functional_Mf(same, sys) == pytest.approx(float(np.sum(xi.xi)), rel=1e-12)
    assert sys.lp_norm(same, 2.0) == pytest.approx(np.sqrt(np.sum(xi.xi)), rel=1e-12)


def test_scale_doubling_doubles_mf():
    grid = build_grid(1, 6.0, 161)
    field = field_1d()
    mu = solve_scalar_invariant_density(field, grid)
    xi = compute_common_kernel(field, SPEC)
    f = grid_function_from_callable(grid, lambda x: [np.tanh(x[..., 0]), np.exp(-x[..., 0] ** 2)])
    m1 = functional_Mf(f, build_measure_system(xi, mu, c=1.0))
    m2 = functional_Mf(f, build_measure_system(xi, mu, c=2.0))
    assert m2 == pytest.approx(2.0 * m1, rel=1e-10)


def test_infinitesimal_invariance_ou_oracle():
    grid = build_grid(1, 6.0, 481)
    field = ou_field()
    mu = oracle_density_1d(field, grid)
    bumps = [bump_function([0.0], 2.0), bump_function([1.0], 1.5),
             bump_function([-2.0], 1.0)]
    rep = check_infinitesimal_invariance(field, mu, bumps, inv_tol=1e-4)
    assert rep.passed


def test_infinitesimal_invariance_zero_function():
    grid = build_grid(1, 6.0, 161)
    field = ou_field()
    mu = oracle_density_1d(field, grid)
    rep = check_infinitesimal_invariance(field, mu, [lambda x: 0.0])
    assert rep.measured == 0.0


def _invariance_by_loop(field, mu, fns):
    """The per-test-function loop: (worst ratio, witness node, witness residual)."""
    grid = mu.grid
    op = assemble_scalar_operator(field, build_grid(grid.d, grid.L, grid.n_per_axis, "dirichlet"))
    worst, witness = 0.0, None
    for fn in fns:
        psi = grid_function_from_callable(grid, fn, m=1).values[0]
        c2 = float(_c2_norm(psi, grid))
        a_psi = np.zeros(grid.n_nodes)
        a_psi[op.dof_indices] = op.matrix @ psi[op.dof_indices]
        residual = abs(mu.integrate(a_psi))
        rel = residual / max(c2, 1e-300) if c2 > 0 else residual
        if rel >= worst:
            worst = rel
            witness = (tuple(grid.nodes[np.argmax(np.abs(psi))]), residual)
    return worst, witness


@pytest.mark.parametrize("d", [1, 2])
def test_infinitesimal_invariance_equals_per_function_loop(d):
    field = make_builtin(BuiltinFamily(dim_d=d, dim_m=2, gamma=0.0, beta=0.0, b0=1.0,
                                       Q0=np.eye(d)))
    grid = build_grid(d, 4.0, 81 if d == 1 else 21)
    # any density serves: the check and the loop integrate against the same one
    w = grid.quadrature_weights()
    rho = normalized_on_grid(grid, np.exp(-0.5 * np.sum(grid.nodes ** 2, axis=1)))
    mu = MeasureDensity(grid=grid, rho=rho, weights=w, norm_residual=0.0)
    twin = bump_function([0.0] * d, 2.0)      # the worst ratio, twice
    fns = [twin, bump_function([0.5] * d, 1.5), bump_function([-1.0] * d, 1.0), twin]
    rep = check_infinitesimal_invariance(field, mu, fns, inv_tol=1.0)
    worst, (x, value) = _invariance_by_loop(field, mu, fns)
    assert (rep.measured, rep.witness.x, rep.witness.value) == (worst, x, value)
    assert rep.details["n_test_functions"] == 4

    # both ratios are 0: the last test function, peaked at the far corner, wins
    def edge(x):
        return np.where(np.all(x >= grid.L - 1e-9, axis=-1), 1.0, 0.0)

    rep = check_infinitesimal_invariance(field, mu, [lambda x: 0.0, edge])
    assert (rep.measured, rep.witness.x, rep.witness.value) == (0.0, (grid.L,) * d, 0.0)
    assert _invariance_by_loop(field, mu, [lambda x: 0.0, edge]) == (0.0, ((grid.L,) * d, 0.0))

    rep = check_infinitesimal_invariance(field, mu, [])
    assert (rep.status, rep.measured, rep.witness) == ("pass", 0.0, None)
    assert rep.details["n_test_functions"] == 0


def test_infinitesimal_invariance_refines_at_second_order():
    field = ou_field()
    residuals = []
    for n in (121, 241):
        grid = build_grid(1, 6.0, n)
        mu = oracle_density_1d(field, grid)
        rep = check_infinitesimal_invariance(field, mu, [bump_function([0.0], 2.0)],
                                             inv_tol=1.0)
        residuals.append(rep.measured)
    assert np.log2(residuals[0] / residuals[1]) >= 1.8


def test_density_matches_long_time_fokker_planck_evolution():
    # independent route to the kernel: evolve d rho/dt = A* rho from a
    # generic positive datum and compare with the inverse-iteration result
    from kolsys.discretization import assemble_adjoint_operator
    from kolsys.semigroup import evolve

    field = ou_field()
    grid = build_grid(1, 6.0, 161)
    mu = solve_scalar_invariant_density(field, grid)
    adj = assemble_adjoint_operator(field, grid)
    start = GridFunction(grid, np.exp(-2.0 * (grid.nodes[:, 0] - 1.0) ** 2))
    traj = evolve(adj, start, t_final=15.0, dt=1e-2, theta=1.0, store_times=[15.0])
    rho = traj.snapshots[-1].values[0]
    rho = rho / np.sum(grid.quadrature_weights() * rho)
    l1 = np.sum(grid.quadrature_weights() * np.abs(rho - mu.rho))
    assert l1 <= 1e-6


def test_solved_density_2d_product_gaussian():
    field = make_builtin(BuiltinFamily(dim_d=2, dim_m=2, gamma=0.0, beta=0.0,
                                       b0=1.0, Q0=np.eye(2)))
    errors = []
    for n in (57, 113):
        grid = build_grid(2, 7.0, n)
        mu = solve_scalar_invariant_density(field, grid)
        w = grid.quadrature_weights()
        exact = normalized_on_grid(grid, np.exp(-0.5 * np.sum(grid.nodes ** 2, axis=1)))
        errors.append(np.sum(w * np.abs(mu.rho - exact)))
        assert mu.clip_mass <= 1e-6
    assert errors[1] <= 5e-3
    assert np.log2(errors[0] / errors[1]) >= 1.8


def test_density_solve_diagnoses_small_box():
    # at L = 5 the truncated 2-D OU tail mass keeps the kernel residual
    # above tolerance; the solver must say so instead of returning junk
    field = make_builtin(BuiltinFamily(dim_d=2, dim_m=2, gamma=0.0, beta=0.0,
                                       b0=1.0, Q0=np.eye(2)))
    grid = build_grid(2, 5.0, 41)
    with pytest.raises(RuntimeError, match="enlarge the box"):
        solve_scalar_invariant_density(field, grid)


def test_normalize_rejects_large_negative_mass():
    grid = build_grid(1, 1.0, 11)
    rho = np.ones(grid.n_nodes)
    rho[3] = -1.0
    with pytest.raises(RuntimeError, match="negative density mass"):
        _normalize(grid, rho, clip_tol=1e-6)


def test_normalize_clips_tiny_negatives():
    grid = build_grid(1, 1.0, 11)
    rho = np.ones(grid.n_nodes)
    rho[3] = -1e-9
    out, _, residual, clip = _normalize(grid, rho, clip_tol=1e-6)
    assert np.all(out >= 0)
    assert clip <= 1e-6
    assert residual <= 1e-12
