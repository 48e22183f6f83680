import numpy as np
import pytest

from kolsys.coefficients import BuiltinFamily, make_builtin
from kolsys.discretization import (
    GridFunction,
    assemble_scalar_operator,
    assemble_system_operator,
    build_grid,
    grid_function_from_callable,
)
from kolsys.hypotheses import SampleSpec, compute_common_kernel
from kolsys.invariant_measure import (
    build_measure_system,
    bump_function,
    solve_scalar_invariant_density,
)
from kolsys.properties import (
    counterexample_mode,
    estimate_gradient_rate,
    estimate_gradient_rates,
    jordan_asymptotics_check,
    rate_report,
    verify_fixed_points,
    verify_invariance,
    verify_l2_gradient_decay,
    verify_longtime,
    verify_lp_bound,
    verify_positivity,
    verify_semigroup_bounds,
)
from kolsys.semigroup import evolve

XI = np.array([1.0, 1.0]) / np.sqrt(2.0)


def exchange2_field():
    return make_builtin(BuiltinFamily(dim_d=1, dim_m=2, gamma=0.0, beta=1.0,
                                      b0=1.0, Q0=np.eye(1)))


def constant_c_field(C0):
    return make_builtin(BuiltinFamily(dim_d=1, dim_m=2, gamma=0.0, beta=1.0, b0=1.0,
                                      Q0=np.eye(1), coupling_kind="constant_matrix",
                                      C0=np.asarray(C0, dtype=float)))


@pytest.fixture(scope="module")
def setup():
    field = exchange2_field()
    grid = build_grid(1, 6.0, 161, "neumann")
    op = assemble_system_operator(field, grid)
    op_s = assemble_scalar_operator(field, grid)
    xi = compute_common_kernel(field, SampleSpec(6.0, 81))
    mu = solve_scalar_invariant_density(field, grid)
    sys = build_measure_system(xi, mu, 1.0)
    return field, grid, op, op_s, xi, mu, sys


def xi_function(grid):
    return GridFunction(grid, np.repeat(XI[:, None], grid.n_nodes, axis=1))


def tanh_gauss(grid):
    return grid_function_from_callable(grid, lambda x: [np.tanh(x[..., 0]), np.exp(-x[..., 0] ** 2)])


def test_domination_fixed_point_equality(setup):
    field, grid, op, op_s, *_ = setup
    f = xi_function(grid)
    absf2 = GridFunction(grid, np.sum(f.values ** 2, axis=0))
    tv = evolve(op, f, 0.5, dt=2e-3, theta=1.0)
    ts = evolve(op_s, absf2, 0.5, dt=2e-3, theta=1.0)
    rep = verify_semigroup_bounds(tv, ts, p=2.0)
    assert rep.passed
    assert abs(rep.details["domination_margin"]) <= 1e-8


def test_domination_standard_data(setup):
    field, grid, op, op_s, *_ = setup
    f = tanh_gauss(grid)
    absf2 = GridFunction(grid, np.sum(f.values ** 2, axis=0))
    tv = evolve(op, f, 1.0, dt=1e-3, theta=1.0)
    ts = evolve(op_s, absf2, 1.0, dt=1e-3, theta=1.0)
    rep = verify_semigroup_bounds(tv, ts, p=2.0)
    assert rep.passed
    assert rep.details["domination_margin"] <= 1e-6
    assert rep.details["contraction_margin"] <= 1e-6


def test_domination_rejects_mismatched_times(setup):
    field, grid, op, op_s, *_ = setup
    f = tanh_gauss(grid)
    absf2 = GridFunction(grid, np.sum(f.values ** 2, axis=0))
    tv = evolve(op, f, 0.2, dt=2e-3, theta=1.0)
    ts = evolve(op_s, absf2, 0.4, dt=2e-3, theta=1.0)
    with pytest.raises(ValueError):
        verify_semigroup_bounds(tv, ts, p=2.0)


def test_positivity_coupling_floor(setup):
    field, grid, op, *_ = setup
    f = grid_function_from_callable(grid, lambda x: [np.exp(-x[..., 0] ** 2), 0.0])
    traj = evolve(op, f, 1.5, dt=1e-3, theta=1.0, store_times=[0.5, 1.0, 1.5])
    rep = verify_positivity(traj)
    assert rep.passed
    assert rep.details["floor_min"] >= 1e-6    # initially zero component turned positive


def test_positivity_zero_datum(setup):
    field, grid, op, *_ = setup
    f = GridFunction(grid, np.zeros((2, grid.n_nodes)))
    traj = evolve(op, f, 0.5, dt=2e-3, theta=1.0, store_times=[0.5])
    rep = verify_positivity(traj)
    assert rep.passed
    assert rep.details["floor_min"] is None


def test_positivity_rejects_signed_datum(setup):
    field, grid, op, *_ = setup
    f = tanh_gauss(grid)
    traj = evolve(op, f, 0.1, dt=2e-3, theta=1.0)
    with pytest.raises(ValueError):
        verify_positivity(traj)


def test_invariance_fixed_point(setup):
    field, grid, op, _, xi, mu, sys = setup
    traj = evolve(op, xi_function(grid), 0.5, dt=2e-3)
    rep = verify_invariance(traj, sys)
    assert rep.passed
    assert rep.measured <= 1e-10


def test_invariance_scale_free(setup):
    field, grid, op, _, xi, mu, sys = setup
    from kolsys.invariant_measure import build_measure_system as bms
    traj = evolve(op, tanh_gauss(grid), 1.0, dt=1e-3, store_times=[0.1, 1.0])
    r1 = verify_invariance(traj, sys)
    r2 = verify_invariance(traj, bms(xi, mu, 2.0))
    assert r1.passed and r2.passed
    assert r1.measured == pytest.approx(r2.measured, rel=1e-10)


def test_fixed_points(setup):
    field, grid, *_ = setup
    xi_gf = xi_function(grid)
    eta = GridFunction(grid, np.repeat((np.array([1.0, -1.0]) / np.sqrt(2))[:, None],
                                       grid.n_nodes, axis=1))
    sine = grid_function_from_callable(grid, lambda x: [np.sin(x[..., 0]), np.sin(x[..., 0])])
    rep = verify_fixed_points(field, grid, [(xi_gf, True), (eta, False), (sine, False)],
                              dt=1e-3)
    assert rep.passed
    assert rep.details["fixed_residual"] <= 1e-8
    assert rep.details["moving_gap"] >= 0.1


def test_gradient_rate_smooth_bounded(setup):
    field, *_ = setup
    grid = build_grid(1, 4.0, 321, "neumann")
    f = grid_function_from_callable(grid, lambda x: [np.tanh(x[..., 0]), np.exp(-x[..., 0] ** 2)])
    fit = estimate_gradient_rate(field, f, p=2.0, k=1, h=1, r_obs=3.0, dt=5e-4)
    assert fit.product_exponent == 0.0
    assert fit.product_ratio <= 10.0
    rep = rate_report(fit, k=1, h=1, p=2.0, ratio_cap=10.0)
    assert rep.passed


def test_gradient_rate_validates_arguments(setup):
    field, grid, *_ = setup
    f = tanh_gauss(grid)
    with pytest.raises(ValueError):
        estimate_gradient_rate(field, f, p=2.0, k=3, h=0)
    with pytest.raises(ValueError):
        estimate_gradient_rate(field, f, p=0.5, k=1, h=0)
    with pytest.raises(ValueError):
        estimate_gradient_rate(field, f, p=2.0, k=1, h=0, n_samples=5)
    with pytest.raises(ValueError):
        estimate_gradient_rates(field, [], p=2.0)


def test_gradient_rates_batch_equals_single_estimates(setup):
    # shared data and denominators run once, in one block per operator; each
    # fit must equal its own estimate_gradient_rate exactly
    field, *_ = setup
    grid = build_grid(1, 4.0, 161, "neumann")
    f_step = grid_function_from_callable(grid, lambda x: [np.tanh(x[..., 0] / 0.1), 0.0])
    f_smooth = grid_function_from_callable(grid, lambda x: [np.tanh(x[..., 0]), np.exp(-x[..., 0] ** 2)])
    cases = [(f_step, 1, 0, 50.0), (f_step, 2, 0, 50.0), (f_step, 2, 1, 50.0),
             (f_smooth, 1, 1, 10.0)]
    fits = estimate_gradient_rates(field, cases, p=2.0, dt=5e-4)
    for fit, (f, k, h, cap) in zip(fits, cases):
        assert fit == estimate_gradient_rate(field, f, p=2.0, k=k, h=h, dt=5e-4, ratio_cap=cap)


def test_lp_bound_fixed_point_constant_norm(setup):
    field, grid, op, _, xi, mu, sys = setup
    traj = evolve(op, xi_function(grid), 0.5, dt=2e-3)
    rep = verify_lp_bound(traj, sys, p=1.0)
    assert rep.passed
    assert rep.measured <= rep.details["initial_norm"] + 1e-6


def test_lp_bound_p2_and_p4(setup):
    field, grid, op, _, xi, mu, sys = setup
    traj = evolve(op, tanh_gauss(grid), 1.0, dt=1e-3)
    for p in (2.0, 4.0):
        assert verify_lp_bound(traj, sys, p).passed


def test_longtime_fixed_point_zero_error(setup):
    field, grid, op, _, xi, mu, sys = setup
    traj = evolve(op, xi_function(grid), 2.0, dt=2e-3)
    rep = verify_longtime(traj, sys, r_obs=3.0)
    assert rep.passed
    assert rep.measured <= 1e-9


def test_longtime_constant_e1(setup):
    field, grid, op, _, xi, mu, sys = setup
    f = GridFunction(grid, np.vstack([np.ones(grid.n_nodes), np.zeros(grid.n_nodes)]))
    traj = evolve(op, f, 20.0, dt=2e-3, store_every=500)
    rep = verify_longtime(traj, sys, r_obs=3.0)
    assert rep.passed
    assert rep.details["m_f"] == pytest.approx(1 / np.sqrt(2), abs=1e-6)
    # limit is (1/2, 1/2): check directly
    final = traj.snapshots[-1].values
    assert np.max(np.abs(final - 0.5)) <= 1e-2


def test_longtime_tanh_gauss_plateau_matches_quadrature(setup):
    field, grid, op, _, xi, mu, sys = setup
    traj = evolve(op, tanh_gauss(grid), 20.0, dt=2e-3, store_every=500)
    rep = verify_longtime(traj, sys, r_obs=3.0)
    assert rep.passed
    # two independent limit values: quadrature M_f vs plateau of <T(t)f, xi>
    assert rep.details["plateau_gap"] <= 1e-3


def test_verifiers_are_deterministic(setup):
    field, grid, op, _, xi, mu, sys = setup
    traj = evolve(op, tanh_gauss(grid), 1.0, dt=2e-3)
    a = verify_invariance(traj, sys)
    b = verify_invariance(traj, sys)
    assert a.measured == b.measured
    ra = verify_lp_bound(traj, sys, 2.0)
    rb = verify_lp_bound(traj, sys, 2.0)
    assert ra.measured == rb.measured


def test_l2_gradient_decay_fixed_point(setup):
    field, grid, op, _, xi, mu, sys = setup
    traj = evolve(op, xi_function(grid), 1.0, dt=2e-3, store_times=[0.1, 0.5, 1.0])
    rep = verify_l2_gradient_decay(traj, mu, mu0=1.0)
    assert rep.measured <= 1e-12


def test_l2_gradient_decay_bump(setup):
    field, grid, op, _, xi, mu, sys = setup
    f = grid_function_from_callable(
        grid, lambda x: [bump_function([0.0], 2.0)(x), bump_function([0.5], 1.5)(x)])
    traj = evolve(op, f, 20.0, dt=2e-3, store_every=50)
    rep = verify_l2_gradient_decay(traj, mu, mu0=1.0)
    assert rep.passed
    assert rep.measured <= 0.05 * rep.details["h_ref"]
    assert rep.details["integral"] <= rep.details["integral_bound"]


def test_counterexample_growth(setup):
    _, grid, _, _, _, mu, _ = setup
    field = constant_c_field(np.eye(2))
    f = GridFunction(grid, np.full((2, grid.n_nodes), 1 / np.sqrt(2)))
    rep = counterexample_mode(field, f, t_final=3.0, dt=1e-3, mu_hat=mu)
    assert rep.passed
    assert rep.measured == pytest.approx(1.0, abs=0.05)


def test_counterexample_decay(setup):
    _, grid, _, _, _, mu, _ = setup
    field = constant_c_field(-np.eye(2))
    f = GridFunction(grid, np.full((2, grid.n_nodes), 1 / np.sqrt(2)))
    rep = counterexample_mode(field, f, t_final=3.0, dt=1e-3, mu_hat=mu)
    assert rep.passed
    assert rep.measured == pytest.approx(1.0, abs=0.05)


def test_counterexample_neutral_direction(setup):
    _, grid, _, _, _, mu, _ = setup
    field = constant_c_field([[-1.0, 1.0], [1.0, -1.0]])
    f = tanh_gauss(grid)
    f = GridFunction(grid, np.abs(f.values) + 0.1)
    rep = counterexample_mode(field, f, t_final=2.0, dt=1e-3, mu_hat=mu)
    assert rep.details["mode"] == "neutral"
    assert rep.passed


# -- negative controls: inputs the theory says violate the property ------------

def test_counterexample_coupling_fails_invariance_and_lp_bound(setup):
    # C = +I (the paper's counterexample): both components grow like e^t, so
    # neither the measure system's integral nor the L^2 bound survives
    _, grid, _, _, _, _, sys = setup
    op = assemble_system_operator(constant_c_field(np.eye(2)), grid)
    traj = evolve(op, tanh_gauss(grid), 1.0, dt=1e-2, store_times=[0.5, 1.0])
    assert verify_invariance(traj, sys).status == "fail"
    assert verify_lp_bound(traj, sys, p=2.0).status == "fail"


def test_negative_off_diagonal_coupling_fails_positivity(setup):
    # -u_1 drives the second component, which starts at 0, below zero
    _, grid, *_ = setup
    op = assemble_system_operator(constant_c_field([[-1.0, -1.0], [-1.0, -1.0]]), grid)
    f = grid_function_from_callable(grid, lambda x: [np.exp(-x[..., 0] ** 2), 0.0])
    traj = evolve(op, f, 1.0, dt=1e-2, theta=1.0, store_times=[0.5, 1.0])
    rep = verify_positivity(traj)
    assert rep.status == "fail"
    assert rep.measured < -1e-3


def test_counterexample_requires_constant_coupling(setup):
    field, grid, *_ = setup                   # exchange2 has x-dependent coupling
    f = xi_function(grid)
    with pytest.raises(ValueError):
        counterexample_mode(field, f, t_final=0.5)


def test_jordan_exchange_matrix():
    C0 = np.array([[-1.0, 1.0], [1.0, -1.0]])
    rep = jordan_asymptotics_check(C0, np.array([1.0, 0.0]), np.linspace(0.0, 8.0, 17))
    assert rep.passed
    assert np.allclose(rep.details["limit"], [0.5, 0.5], atol=1e-12)
    assert rep.measured == pytest.approx(2.0, abs=0.05)


def test_jordan_kernel_direction_is_stationary():
    C0 = np.array([[-1.0, 1.0], [1.0, -1.0]])
    rep = jordan_asymptotics_check(C0, XI, np.linspace(0.0, 5.0, 11))
    assert rep.passed
    assert rep.details["final_distance"] <= 1e-12


def test_jordan_symmetric_3x3():
    # equal weights make the 3x3 zero-row-sum pattern symmetric
    C0 = np.array([[-2.0, 1.0, 1.0], [1.0, -3.0, 2.0], [1.0, 2.0, -3.0]])
    xi3 = np.ones(3) / np.sqrt(3.0)
    g = np.array([1.0, -0.3, 0.2])
    rep = jordan_asymptotics_check(C0, g, np.linspace(0.0, 6.0, 13))
    assert rep.passed
    assert np.allclose(rep.details["limit"], (g @ xi3) * xi3, atol=1e-10)


def test_jordan_rejects_positive_spectrum():
    with pytest.raises(ValueError):
        jordan_asymptotics_check(np.eye(2), np.array([1.0, 0.0]), [0.0, 1.0])
