import numpy as np
import pytest

from kolsys.coefficients import BuiltinFamily, make_builtin
from kolsys.discretization import (
    GridFunction,
    assemble_scalar_operator,
    assemble_system_operator,
    build_grid,
    fd_gradient,
    fd_hessian_frobenius_sq,
    grid_function_from_callable,
)
from kolsys.hypotheses import KernelVector, SampleSpec, compute_common_kernel
from kolsys.invariant_measure import (
    MeasureDensity,
    build_measure_system,
    bump_function,
    check_infinitesimal_invariance,
    functional_Mf,
    solve_scalar_invariant_density,
)
from kolsys.properties import (
    _decay_rate,
    _rate_fit,
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
    verify_cesaro_identity,
    verify_nested_convergence,
    verify_scalar_invariance,
    verify_semigroup_bounds,
)
from kolsys.semigroup import NestedSolveResult, Trajectory, evolve, solve_nested

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


def test_fixed_point_flags_can_fail(setup):
    # a moving datum flagged as fixed, and a fixed one flagged as moving
    field, grid, *_ = setup
    sine = grid_function_from_callable(grid, lambda x: [np.sin(x[..., 0]), np.sin(x[..., 0])])
    rep = verify_fixed_points(field, grid, [(sine, True)], dt=1e-3)
    assert rep.status == "fail"
    assert rep.details["fixed_residual"] > 1.0          # 1.185 against 1e-8
    assert rep.witness is not None
    two_xi = GridFunction(grid, 2.0 * xi_function(grid).values)
    rep = verify_fixed_points(field, grid, [(two_xi, False)], dt=1e-3)
    assert rep.status == "fail"
    assert rep.details["moving_gap"] <= 1e-12           # 6.0e-15 against 0.1


def test_gradient_rate_fails_against_a_smaller_exponent(setup):
    # the step datum's (k, h) = (2, 0) fit passes its own report, and the
    # same fit judged as (k, h) = (2, 2), where no blow-up is allowed, fails
    field, *_ = setup
    grid = build_grid(1, 4.0, 161, "neumann")
    f_step = grid_function_from_callable(grid, lambda x: [np.tanh(x[..., 0] / 0.1), 0.0])
    fit = estimate_gradient_rate(field, f_step, p=2.0, k=2, h=0, dt=5e-4)
    assert rate_report(fit, k=2, h=0, p=2.0).passed
    rep = rate_report(fit, k=2, h=2, p=2.0)
    assert rep.status == "fail"
    assert rep.measured < rep.bound == -0.25            # slope -1.642


def _rate_fit_by_loop(traj, traj_den, k, h, p, r_obs, den_floor):
    """The per-time loop of the rate fit: one stored time, one component at a time."""
    grid = traj.grid
    window = grid.window_mask(r_obs)
    values, excluded = [], 0
    for t in traj.times[1:]:
        total = np.zeros(grid.n_nodes)
        for comp in traj.snapshot_at(t).values:
            total += np.sum(fd_gradient(comp, grid) ** 2, axis=0) if k == 1 \
                else fd_hessian_frobenius_sq(comp, grid)
        num = (total ** (p / 2.0))[window]
        den = traj_den.snapshot_at(t).values[0][window]
        good = den > den_floor
        excluded += int(np.sum(~good))
        values.append(float(np.max(num[good] / den[good])))
    return values, excluded


@pytest.mark.parametrize("d", [1, 2])
def test_rate_fit_equals_per_time_loop(d):
    grid = build_grid(d, 3.0, 41 if d == 1 else 13)
    times = 0.01 * np.arange(10.0)
    rng = np.random.default_rng(11)
    x = grid.nodes[:, 0]
    num = np.array([[np.tanh(x / (0.2 + t)), np.exp(-x ** 2) * (1 + t)] for t in times])
    num += 1e-3 * rng.standard_normal(num.shape)
    den = 0.5 + rng.random((len(times), 1, grid.n_nodes))
    window = np.flatnonzero(grid.window_mask(1.5))
    den[3, 0, window[::3]] = 1e-20                      # planted below den_floor
    den[7, 0, window[1]] = 0.0
    run = dict(times=times, grid=grid, dt=0.01, theta=0.5, boundary_kind="neumann")
    traj, traj_den = Trajectory(values=num, **run), Trajectory(values=den, **run)
    for k, h, p in [(1, 0, 2.0), (2, 1, 2.0), (2, 0, 3.0)]:
        fit = _rate_fit(traj, traj_den, k, h, p, 1.5, 50.0, 1e-14)
        values, excluded = _rate_fit_by_loop(traj, traj_den, k, h, p, 1.5, 1e-14)
        assert fit.values == values
        assert fit.excluded_nodes == excluded == len(window[::3]) + 1
        assert fit.times == times[1:].tolist()
    den[5, 0, window] = 0.0                             # every node excluded at one time
    with pytest.raises(ValueError, match="den_floor"):
        _rate_fit(traj, Trajectory(values=den, **run), 1, 0, 2.0, 1.5, 50.0, 1e-14)


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
    # the rate is the log-linear fit of the error curve above 1e-12, which
    # here drops its last two points
    errs = rep.details["errors"]
    usable = errs > 1e-12
    slope, _ = np.polyfit(traj.times[usable], np.log(errs[usable]), 1)
    assert np.sum(~usable) == 2 and rep.details["decay_rate"] == -slope


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


@pytest.mark.parametrize("C0, name", [(np.eye(2), "counterexample_growth"),
                                      (-np.eye(2), "counterexample_decay")])
@pytest.mark.parametrize("window", [(0.5, 0.5), (2.0, 3.0)])
def test_counterexample_rate_needs_two_points_in_its_window(C0, name, window):
    # (0.5, 0.5) holds one stored time and (2, 3) none: no rate can be fit
    grid = build_grid(1, 6.0, 61, "neumann")
    f = grid_function_from_callable(grid, lambda _: [1 / np.sqrt(2)] * 2)
    rep = counterexample_mode(constant_c_field(C0), f, t_final=1.0, dt=1e-2,
                              rate_window=window)
    assert rep.name == name and rep.status == "fail" and np.isnan(rep.measured)
    assert rep.details["reason"] == "fewer than two usable stored times in the rate window"
    assert counterexample_mode(constant_c_field(C0), f, t_final=1.0, dt=1e-2,
                               rate_window=(0.5, 1.0)).passed


def test_decay_rate_fits_usable_points_only():
    t = np.linspace(0.0, 2.0, 5)
    v = 3.0 * np.exp(-2.0 * t)
    assert _decay_rate(t, v, v > 0) == pytest.approx(2.0, rel=1e-12)
    assert _decay_rate(t, v, t > 1.0) == pytest.approx(2.0, rel=1e-12)
    assert _decay_rate(t, v, t > 1.5) == np.inf
    assert _decay_rate(t, v, t > 2.0) == np.inf


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


def test_inflated_mu0_fails_l2_gradient_integral_bound(setup):
    # the time integral of h is bounded by |f|^2 / mu0; with mu0 taken 100x
    # above the ellipticity constant (1 here) that bound no longer holds.
    # The honest bound sits about 11x above the integral on this datum.
    _, grid, op, _, _, mu, _ = setup
    f = grid_function_from_callable(
        grid, lambda x: [bump_function([0.0], 2.0)(x), bump_function([0.5], 1.5)(x)])
    traj = evolve(op, f, 5.0, dt=2e-3, store_every=25)
    assert verify_l2_gradient_decay(traj, mu, mu0=1.0).passed
    rep = verify_l2_gradient_decay(traj, mu, mu0=100.0)
    assert rep.status == "fail"
    assert rep.details["integral"] > rep.details["integral_bound"]
    assert rep.measured <= rep.bound            # the decay itself still holds


def test_uniform_density_fails_infinitesimal_invariance(setup):
    # constants span the kernel of the generator itself (A 1 = 0), not of its
    # adjoint: under a nonzero drift the uniform law is not invariant
    field, grid, _, _, _, mu, _ = setup
    w = grid.quadrature_weights()
    uniform = MeasureDensity(grid=grid, rho=np.full(grid.n_nodes, 1.0 / np.sum(w)),
                             weights=w, norm_residual=0.0)
    bumps = [bump_function([0.0], 2.0), bump_function([1.0], 1.5),
             bump_function([-2.0], 1.0)]
    assert check_infinitesimal_invariance(field, mu, bumps, inv_tol=1e-4).passed
    rep = check_infinitesimal_invariance(field, uniform, bumps, inv_tol=1e-4)
    assert rep.status == "fail"
    assert rep.measured > 1e-2


def test_positive_coupling_fails_domination_and_contraction(setup):
    # C = +I: the constant datum grows like e^t while the scalar run of
    # |f|^2 = 1 stays at 1, so both bounds break, by e^2 - 1 and e - 1 at t = 1
    _, grid, *_ = setup
    field = constant_c_field(np.eye(2))
    f = xi_function(grid)
    absf2 = GridFunction(grid, np.sum(f.values ** 2, axis=0))
    tv = evolve(assemble_system_operator(field, grid), f, 1.0, dt=1e-2, theta=1.0)
    ts = evolve(assemble_scalar_operator(field, grid), absf2, 1.0, dt=1e-2, theta=1.0)
    rep = verify_semigroup_bounds(tv, ts, p=2.0)
    assert rep.status == "fail"
    assert rep.details["domination_margin"] == pytest.approx(6.46, abs=0.01)
    assert rep.details["contraction_margin"] == pytest.approx(1.73, abs=0.01)
    assert rep.witness.t == 1.0


def test_decoupled_run_fails_longtime_convergence(setup):
    # with C = 0 each component relaxes to its own mean, not to M_f xi: the
    # exchange2 measure system's limit is wrong for this run
    field, grid, _, _, _, _, sys = setup
    f = tanh_gauss(grid)
    reports = [verify_longtime(evolve(assemble_system_operator(c, grid), f, 10.0, dt=1e-2), sys)
               for c in (constant_c_field(np.zeros((2, 2))), field)]
    assert reports[0].status == "fail"
    assert reports[0].measured == pytest.approx(0.497, abs=1e-3)
    assert reports[1].passed and reports[1].measured <= 1e-6


def test_uniform_density_fails_scalar_invariance(setup):
    # the scalar runs conserve their mass against mu, not against the uniform law
    field, grid, _, op_s, _, mu, _ = setup
    w = grid.quadrature_weights()
    uniform = MeasureDensity(grid=grid, rho=np.full(grid.n_nodes, 1.0 / np.sum(w)),
                             weights=w, norm_residual=0.0)
    scalars = [grid_function_from_callable(grid, fn, m=1)
               for fn in (lambda x: np.tanh(x[..., 0]), lambda x: np.exp(-x[..., 0] ** 2))]
    runs = evolve(op_s, scalars, 2.0, dt=1e-2, store_times=[0.1, 1.0, 2.0])
    rep = verify_scalar_invariance(runs, mu)
    assert rep.passed and rep.measured <= 1e-12
    rep = verify_scalar_invariance(runs, uniform)
    assert rep.status == "fail"
    assert rep.measured == pytest.approx(0.555, abs=1e-3)


def test_cesaro_identity_fails_for_another_semigroup(setup):
    # P_n f = R_n(P_1 f) holds for the semigroup that made the run: averaged
    # with the decoupled operator instead, the two sides differ by O(1)
    _, grid, op, *_ = setup
    traj = evolve(op, tanh_gauss(grid), 4.0, dt=2e-3)
    rep = verify_cesaro_identity(op, traj, r_obs=3.0)
    assert rep.passed and rep.details["n"] == 4
    decoupled = assemble_system_operator(constant_c_field(np.zeros((2, 2))), grid)
    rep = verify_cesaro_identity(decoupled, traj, r_obs=3.0)
    assert rep.status == "fail"
    assert rep.measured == pytest.approx(0.305, abs=1e-3)


def test_cesaro_identity_needs_an_integer_end_time_of_two_or_more(setup):
    _, grid, op, *_ = setup
    for t_end in (1.0, 2.5):
        traj = evolve(op, tanh_gauss(grid), t_end, dt=0.1)
        with pytest.raises(ValueError, match="integer n >= 2"):
            verify_cesaro_identity(op, traj)


def test_short_ladder_with_weak_drift_fails_nested_convergence():
    # b = -x/2 confines weakly: the 3:61 and 4:81 boxes still disagree by
    # 3e-2 on the window at t = 2, where the quartic drift agrees to round-off
    def run(beta, b0):
        field = make_builtin(BuiltinFamily(dim_d=1, dim_m=2, gamma=0.0, beta=beta,
                                           b0=b0, Q0=np.eye(1)))
        result = solve_nested(field, lambda x: [np.tanh(x[..., 0]), np.exp(-x[..., 0] ** 2)],
                              2.0, [(3.0, 61), (4.0, 81)], 1e-4, 2.0, dt=1e-2)
        return verify_nested_convergence(result, 1e-4)
    weak, quartic = run(0.0, 0.5), run(1.0, 1.0)
    assert weak.status == "fail"
    assert weak.measured == pytest.approx(3.17e-2, abs=1e-4)
    assert quartic.passed and quartic.measured <= 1e-12


@pytest.mark.parametrize("discrepancies, gap, passed", [
    ([5e-5, 8e-5], 1e-4, True),            # all within nest_tol: order is not asked
    ([2e-2, 5e-5, 8e-5], 1e-6, False),     # above it once, then not decreasing
    ([2e-2, 5e-4, 1e-5], 8e-5, True),      # decreasing, 2 x last < gap <= nest_tol
    ([2e-2, 5e-4, 5e-5], 2e-4, False),     # gap above both
    ([2e-2, 5e-4, 2e-4], 1e-5, False),     # last discrepancy above nest_tol
])
def test_nested_convergence_rule(discrepancies, gap, passed):
    result = NestedSolveResult(trajectory=None, discrepancies=discrepancies,
                               converged=discrepancies[-1] <= 1e-4, dirichlet_neumann_gap=gap)
    assert verify_nested_convergence(result, 1e-4).passed == passed


def test_l2_decay_and_counterexample_reject_density_on_other_nodes(setup):
    # same node count, other box: the trajectory's nodes are not the density's
    field, _, _, _, _, mu, _ = setup
    grid4 = build_grid(1, 4.0, 161, "neumann")
    f = tanh_gauss(grid4)
    traj = evolve(assemble_system_operator(field, grid4), f, 0.1, dt=1e-2)
    with pytest.raises(ValueError, match="grid mismatch"):
        verify_l2_gradient_decay(traj, mu, mu0=1.0)
    with pytest.raises(ValueError, match="grid mismatch"):
        counterexample_mode(constant_c_field(np.eye(2)), f, t_final=0.1, dt=1e-2, mu_hat=mu)


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


# -- the array reductions against per-snapshot loops, with planted ties -------

def _tie_setup():
    """A 9-node trajectory whose states at t = 0.1 and 0.3 are equal, with
    two nodes tied in each extreme, a scalar run to go with it, and a
    measure system on the same grid."""
    grid = build_grid(1, 2.0, 9, "neumann")
    x = grid.nodes[:, 0]
    f = np.array([np.exp(-x ** 2), 0.5 * np.exp(-x ** 2)])
    a = np.array([1.0 - 0.1 * x ** 2, 0.2 + 0.0 * x])
    a[0, 2] = a[0, 6] = 3.0                     # the peak, at two nodes
    a[1, 1] = a[1, 7] = -0.5                    # the minimum, at two nodes
    b = 0.5 * a
    c = np.array([0.55 + 0.01 * x ** 2, 0.55 + 0.01 * x ** 2])
    c[:, 3] = c[:, 5] = 1.0                     # the final farthest from M_f xi
    values = np.array([f, a, b, a, c])
    times = np.array([0.0, 0.1, 0.2, 0.3, 0.4])
    traj = Trajectory(times=times, values=values, grid=grid, dt=0.1, theta=1.0,
                      boundary_kind="neumann")
    scal = Trajectory(times=times, values=np.array([[1.0 + 0.0 * x]] * 5), grid=grid,
                      dt=0.1, theta=1.0, boundary_kind="neumann")
    w = grid.quadrature_weights()
    rho = np.exp(-x ** 2 / 2)
    mu = MeasureDensity(grid=grid, rho=rho / np.sum(w * rho), weights=w, norm_residual=0.0)
    sys = build_measure_system(KernelVector(xi=XI, residual=0.0, sample_count=1), mu, 1.3)
    return traj, scal, mu, sys


def _outcome(rep):
    return rep.status, rep.measured, rep.witness.x, rep.witness.t


def test_array_reductions_equal_per_snapshot_loops():
    traj, scal, mu, sys = _tie_setup()
    grid, snaps = traj.grid, traj.snapshots
    sup0 = float(np.sqrt(np.sum(np.max(np.abs(snaps[0].values), axis=1) ** 2)))

    # the batched functionals equal their one-state values bit for bit
    totals = functional_Mf(traj, sys)
    assert np.array_equal(totals, [functional_Mf(s, sys) for s in snaps])
    for p in (1.0, 2.0, 4.0):
        assert np.array_equal(sys.lp_norm(traj, p), [sys.lp_norm(s, p) for s in snaps])
    assert np.array_equal(mu.integrate(traj.values),
                          [[mu.integrate(c) for c in s.values] for s in snaps])

    # domination and contraction: the first time of the worst violation
    worst, worst_sup = -np.inf, -np.inf
    for t, s, sc in zip(traj.times, snaps, scal.snapshots):
        mag = np.sqrt(np.sum(s.values ** 2, axis=0))
        dom = mag ** 2.0 - sc.values[0]
        if np.max(dom) > worst:
            worst, wx, wt = float(np.max(dom)), tuple(grid.nodes[np.argmax(dom)]), float(t)
        worst_sup = max(worst_sup, float(np.max(mag)) - sup0)
    assert (wt, wx) == (0.1, (-1.0,))
    ref = ("pass" if max(worst, worst_sup) <= 1e-6 else "fail", max(worst, worst_sup), wx, wt)
    assert _outcome(verify_semigroup_bounds(traj, scal, p=2.0)) == ref

    # positivity: the first time of the minimum, its first node
    worst = np.inf
    for t, s in zip(traj.times, snaps):
        if np.min(s.values) < worst:
            worst, wt = float(np.min(s.values)), float(t)
            wx = tuple(grid.nodes[np.unravel_index(np.argmin(s.values), s.values.shape)[1]])
    assert (wt, wx) == (0.1, (-1.5,))
    rep = verify_positivity(traj, pos_tol=1e-8, floor_time=0.4)
    assert _outcome(rep) == ("fail", worst, wx, wt)

    # invariance: the last time of the worst drift
    base = functional_Mf(snaps[0], sys)
    denom = max(abs(base), sys.scale * sup0)
    worst = 0.0
    for t, s in zip(traj.times, snaps):
        total = functional_Mf(s, sys)
        if abs(total - base) / denom >= worst:
            worst, value, wt = abs(total - base) / denom, total, float(t)
    assert wt == 0.3
    rep = verify_invariance(traj, sys)
    assert _outcome(rep) == ("pass" if worst <= 1e-2 else "fail", worst, (0.0,), wt)
    assert rep.witness.value == value

    # L^p bound: the first time of the largest norm
    for p in (1.0, 2.0, 4.0):
        worst = -np.inf
        for t, s in zip(traj.times, snaps):
            if sys.lp_norm(s, p) > worst:
                worst, wt = sys.lp_norm(s, p), float(t)
        assert wt == 0.1
        bound = 2.0 ** ((p - 1.0) / p) * sys.lp_norm(snaps[0], p) + 1e-6
        assert _outcome(verify_lp_bound(traj, sys, p)) == \
            ("pass" if worst <= bound else "fail", worst, (0.0,), wt)

    # long-time limit: the error curve, and the first farthest node at the end
    m_f = functional_Mf(snaps[0], sys) / sys.scale
    errs = [float(np.max(np.sqrt(np.sum((s.values - m_f * XI[:, None]) ** 2, axis=0))))
            for s in snaps]
    mag = np.sqrt(np.sum((snaps[-1].values - m_f * XI[:, None]) ** 2, axis=0))
    rep = verify_longtime(traj, sys, r_obs=2.0, decrease_from=10.0)
    assert np.array_equal(rep.details["errors"], errs)
    assert rep.witness.x == tuple(grid.nodes[np.argmax(mag)]) == (-0.5,)
    assert (rep.measured, rep.witness.t) == (errs[-1], 0.4)

    # L^2 gradient decay: h(t) summed per component, as a loop would
    hs = [sum(mu.integrate(np.sum(fd_gradient(c, grid) ** 2, axis=0)) for c in s.values)
          for s in snaps]
    rep = verify_l2_gradient_decay(traj, mu, mu0=1.0, t_ref=0.1)
    assert (rep.measured, rep.details["h_ref"]) == (hs[-1], hs[1])
    assert rep.details["integral"] == float(np.trapezoid(hs, traj.times))
