"""Executable checks of the semigroup's quantitative properties.

Every verify_* call is a deterministic function of its inputs.  Most take
trajectories and measures and evolve nothing; verify_fixed_points and
verify_cesaro_identity evolve runs of their own (the candidates to t = 1, and
the run to t = 1 that gives P_1 f).  Sup-norms over R^d are taken over a
finite observation window, matching the locally uniform statements being
tested.  Checks may run concurrently: inputs are immutable.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from kolsys.coefficients import CoefficientField, evaluate
from kolsys.discretization import (
    GridFunction,
    assemble_scalar_operator,
    assemble_system_operator,
    fd_gradient,
    fd_hessian_frobenius_sq,
)
from kolsys.invariant_measure import (
    MeasureDensity,
    MeasureSystem,
    _check_same_nodes,
    functional_Mf,
    solve_scalar_invariant_density,
)
from kolsys.reports import PropertyReport, RateFit, Witness
from kolsys.semigroup import (
    Trajectory,
    _check_same_times,
    cesaro_average,
    discrete_average,
    evolve,
    nested_converged,
)

DOM_TOL = 1e-6
SCALAR_INV_TOL = 1e-3
CESARO_TOL = 1e-3
SUP_TOL = 1e-6
POS_TOL_IMPLICIT = 1e-8
POS_TOL_CRANK = 1e-4
INV_TOL = 1e-2
LONGTIME_TOL = 1e-2
SLOPE_MARGIN = 0.25
NO_FIT = {"reason": "fewer than two usable stored times in the rate window"}


def _vector_magnitude(values):
    """|u| nodewise, over the component axis of (..., m, N) values."""
    return np.sqrt(np.sum(values ** 2, axis=-2))


def _sup_norms(values):
    """Vector sup norm sqrt(sum_k sup_x |u_k|^2) of (..., m, N) values."""
    return np.sqrt(np.sum(np.max(np.abs(values), axis=-1) ** 2, axis=-1))


def _decay_rate(times, values, usable):
    """Minus the slope of the line fit to (t, log v) at the usable points; inf below two."""
    if np.sum(usable) < 2:
        return np.inf
    slope, _ = np.polyfit(times[usable], np.log(values[usable]), 1)
    return -float(slope)


def verify_semigroup_bounds(traj_vec: Trajectory, traj_scalar_abs_p: Trajectory,
                            p, dom_tol=DOM_TOL, sup_tol=SUP_TOL) -> PropertyReport:
    """Pointwise domination |T(t)f|^p <= T(t)|f|^p and sup-norm contraction.

    `traj_scalar_abs_p` must be the scalar evolution of |f|^p on the same
    grid and time grid.
    """
    if p <= 1:
        raise ValueError("p must exceed 1")
    _check_same_times(traj_vec, traj_scalar_abs_p)
    mag = _vector_magnitude(traj_vec.values)
    dom = mag ** p - traj_scalar_abs_p.values[:, 0]
    i = int(np.argmax(np.max(dom, axis=1)))     # the first time of the worst violation
    worst_dom = float(np.max(dom[i]))
    worst_sup = float(np.max(mag) - _sup_norms(traj_vec.values[0]))
    witness = Witness(tuple(traj_vec.grid.nodes[np.argmax(dom[i])]), worst_dom,
                      t=float(traj_vec.times[i]))
    ok = worst_dom <= dom_tol and worst_sup <= sup_tol
    return PropertyReport(name="domination_contraction",
                          status="pass" if ok else "fail",
                          measured=max(worst_dom, worst_sup), bound=0.0,
                          tolerance=min(dom_tol, sup_tol), witness=witness,
                          details={"domination_margin": worst_dom,
                                   "contraction_margin": worst_sup, "p": p})


def verify_positivity(traj_vec: Trajectory, pos_tol=None, pos_floor=1e-6,
                      r_obs=3.0, floor_time=1.0,
                      floor_components=None) -> PropertyReport:
    """Componentwise nonnegativity plus strict positivity at a later time.

    Requires a componentwise nonnegative initial datum.  With irreducible
    coupling every component of a nontrivial datum is checked against the
    floor on the window; pass `floor_components` to restrict that check.
    """
    v = traj_vec.values
    if np.min(v[0]) < -1e-12:
        raise ValueError("initial datum must be componentwise nonnegative")
    if pos_tol is None:
        pos_tol = POS_TOL_IMPLICIT if traj_vec.theta == 1.0 else POS_TOL_CRANK
    # the first time of the minimum, and its first component and node there
    k = np.argmin(v)
    i, _, node = np.unravel_index(k, v.shape)
    worst = float(v.flat[k])
    witness = Witness(tuple(traj_vec.grid.nodes[node]), worst, t=float(traj_vec.times[i]))
    ok = worst >= -pos_tol

    floor_min = None
    if np.max(v[0]) > 0:
        snap = traj_vec.snapshot_at(floor_time)
        window = snap.grid.window_mask(r_obs)
        comps = range(snap.m) if floor_components is None else floor_components
        floor_min = float(min(np.min(snap.values[k][window]) for k in comps))
        ok = ok and floor_min >= pos_floor
    return PropertyReport(name="positivity", status="pass" if ok else "fail",
                          measured=worst, bound=0.0, tolerance=pos_tol,
                          witness=witness,
                          details={"min_value": worst, "floor_min": floor_min,
                                   "theta_flagged": traj_vec.theta != 1.0})


def verify_invariance(traj_vec: Trajectory, sys: MeasureSystem,
                      inv_tol=INV_TOL) -> PropertyReport:
    """Relative drift of sum_j int (T(t)f)_j dmu_j over the stored times."""
    totals = functional_Mf(traj_vec, sys)
    baseline = float(totals[0])
    denom = max(abs(baseline), sys.scale * _sup_norms(traj_vec.values[0]))
    rel = np.abs(totals - baseline) / denom
    i = len(rel) - 1 - int(np.argmax(rel[::-1]))     # the last time of the worst drift
    worst = float(rel[i])
    witness = Witness((0.0,) * traj_vec.grid.d, float(totals[i]), t=float(traj_vec.times[i]))
    return PropertyReport(name="system_invariance",
                          status="pass" if worst <= inv_tol else "fail",
                          measured=worst, bound=0.0, tolerance=inv_tol,
                          witness=witness, details={"baseline": baseline})


def verify_scalar_invariance(runs, mu: MeasureDensity) -> PropertyReport:
    """Worst drift of int T(t)g dmu over scalar runs, relative to sup |g|."""
    worst = 0.0
    for traj in runs:
        _check_same_nodes(traj, mu)
        masses = mu.integrate(traj.values[:, 0])
        drift = np.max(np.abs(masses - masses[0]))
        worst = max(worst, drift / max(np.max(np.abs(traj.values[0])), 1e-300))
    return PropertyReport(name="scalar_invariance",
                          status="pass" if worst <= SCALAR_INV_TOL else "fail",
                          measured=worst, bound=0.0, tolerance=SCALAR_INV_TOL)


def verify_fixed_points(field: CoefficientField, grid, candidates, dt=1e-3,
                        theta=0.5, t_check=1.0, fp_tol=1e-8,
                        fp_gap=0.1) -> PropertyReport:
    """Fixed candidates must return to themselves at t = 1; others must move.

    `candidates` is a list of (GridFunction, expect_fixed) pairs, evolved
    together in one batched run; the kernel direction is the only expected
    fixed point up to scale.
    """
    op = assemble_system_operator(field, grid)
    trajs = evolve(op, [gf for gf, _ in candidates], t_final=t_check, dt=dt,
                   theta=theta, store_times=[t_check]) if candidates else []
    worst_fixed = 0.0
    worst_gap = np.inf
    witness = None
    saw_moving = False
    for (gf, expect_fixed), traj in zip(candidates, trajs):
        change = np.abs(traj.values[-1] - gf.values)
        diff = np.max(change)
        if expect_fixed:
            worst_fixed = max(worst_fixed, float(diff))
            if diff > fp_tol:
                node = int(np.argmax(np.max(change, axis=0)))
                witness = Witness(tuple(grid.nodes[node]), float(diff), t=t_check)
        else:
            saw_moving = True
            worst_gap = min(worst_gap, float(diff))
    ok = worst_fixed <= fp_tol and (not saw_moving or worst_gap >= fp_gap)
    return PropertyReport(name="fixed_points", status="pass" if ok else "fail",
                          measured=worst_fixed, bound=fp_gap, tolerance=fp_tol,
                          witness=witness,
                          details={"fixed_residual": worst_fixed,
                                   "moving_gap": None if not saw_moving else worst_gap})


def _derivative_magnitude_p(values, grid, k, p):
    """(sum_j |D^k u_j|^2)^(p/2) nodewise from central differences, for
    (..., m, N) values: the sum runs over the component axis."""
    if k == 1:
        sq = np.sum(fd_gradient(values, grid) ** 2, axis=0)
    else:
        sq = fd_hessian_frobenius_sq(values, grid)
    return np.sum(sq, axis=-2) ** (p / 2.0)


def derivative_data(f: GridFunction, h):
    """(sum_{j<=h} |D^j f|^2)^(1/2)-squared pile used in the rate denominators."""
    # one sequential sum over f_1^2, ..., f_m^2, then each component's
    # gradient terms, then its Hessian terms: the order fixes the bits
    terms = [f.values ** 2]
    if h >= 1:
        terms.append(np.sum(fd_gradient(f.values, f.grid) ** 2, axis=0))
    if h >= 2:
        terms.append(fd_hessian_frobenius_sq(f.values, f.grid))
    return np.sum(np.concatenate(terms), axis=0)


def estimate_gradient_rate(field: CoefficientField, f: GridFunction, p, k, h,
                           time_window=(1e-3, 1e-1), r_obs=3.0, dt=1e-4,
                           theta=0.5, n_samples=9, ratio_cap=50.0,
                           den_floor=1e-14) -> RateFit:
    """Blow-up rate of |D^k T(t)f|^p against T(t) (sum_{j<=h} |D^j f|^2)^(p/2).

    Samples R(t) = sup over the window of the pointwise ratio at
    geometrically spaced times, fits a log-log slope, and reports whether
    R(t) * t^((k-h) p / 2) stays within `ratio_cap` of flat over the window.
    Only the bound direction is asserted; constants are informational.
    """
    return estimate_gradient_rates(field, [(f, k, h, ratio_cap)], p, time_window=time_window,
                                   r_obs=r_obs, dt=dt, theta=theta, n_samples=n_samples,
                                   den_floor=den_floor)[0]


def estimate_gradient_rates(field: CoefficientField, cases, p, time_window=(1e-3, 1e-1),
                            r_obs=3.0, dt=1e-4, theta=0.5, n_samples=9,
                            den_floor=1e-14) -> list:
    """estimate_gradient_rate for each (f, k, h, ratio_cap) of `cases`, one grid.

    Each distinct datum f (by identity) is evolved once, and so is each
    distinct denominator (f, h): one batched run on the system operator and
    one on the scalar operator.  Each fit equals its estimate_gradient_rate.
    """
    if not cases:
        raise ValueError("no rate cases given")
    for _, k, h, _ in cases:
        if k not in (1, 2) or not 0 <= h <= k:
            raise ValueError("need k in {1,2} and 0 <= h <= k")
    if p <= 1:
        raise ValueError("p must exceed 1")
    if n_samples < 8:
        raise ValueError("at least 8 geometric samples are required")
    t_min, t_max = time_window
    raw = np.geomspace(t_min, t_max, n_samples)
    times = sorted({max(1, int(round(t / dt))) * dt for t in raw})
    if len(times) < 8:
        raise ValueError("dt too coarse to resolve the requested time window")

    grid = cases[0][0].grid
    op_sys = assemble_system_operator(field, grid)
    op_scal = assemble_scalar_operator(field, grid)
    data = {id(f): f for f, _, _, _ in cases}
    dens = {(id(f), h): GridFunction(grid, derivative_data(f, h) ** (p / 2.0))
            for f, _, h, _ in cases}
    trajs = dict(zip(data, evolve(op_sys, list(data.values()), t_final=times[-1], dt=dt,
                                  theta=theta, store_times=times)))
    traj_dens = dict(zip(dens, evolve(op_scal, list(dens.values()), t_final=times[-1],
                                      dt=dt, theta=theta, store_times=times)))
    return [_rate_fit(trajs[id(f)], traj_dens[id(f), h], k, h, p, r_obs, ratio_cap, den_floor)
            for f, k, h, ratio_cap in cases]


def _rate_fit(traj, traj_den, k, h, p, r_obs, ratio_cap, den_floor) -> RateFit:
    """The fit over every stored time after t = 0 of the two runs."""
    _check_same_times(traj, traj_den)
    window = traj.grid.window_mask(r_obs)
    num = _derivative_magnitude_p(traj.values[1:], traj.grid, k, p)[:, window]
    den = traj_den.values[1:, 0][:, window]
    good = den > den_floor
    if not np.all(np.any(good, axis=1)):
        raise ValueError(f"no window node has a denominator above den_floor = {den_floor:g}")
    values = np.max(np.where(good, num, -np.inf) / np.where(good, den, 1.0), axis=1)
    excluded = int(np.sum(~good))
    ts = traj.times[1:]

    slope, intercept = np.polyfit(np.log(ts), np.log(values), 1)
    resid = float(np.sqrt(np.mean(
        (np.log(values) - slope * np.log(ts) - intercept) ** 2)))
    exponent = (k - h) * p / 2.0
    product = values * ts ** exponent
    product_ratio = float(np.max(product) / np.min(product))
    return RateFit(t_min=float(ts[0]), t_max=float(ts[-1]),
                   times=ts.tolist(), values=values.tolist(),
                   slope=float(slope), intercept=float(intercept),
                   fit_residual=resid, product_exponent=exponent,
                   product_ratio=product_ratio,
                   bounded_product=product_ratio <= ratio_cap,
                   excluded_nodes=excluded)


def rate_report(fit: RateFit, k, h, p, slope_margin=SLOPE_MARGIN,
                ratio_cap=50.0) -> PropertyReport:
    """Turn a RateFit into a pass/fail record against the theoretical exponent."""
    exponent = (k - h) * p / 2.0
    slope_ok = fit.slope >= -exponent - slope_margin
    ok = slope_ok and fit.product_ratio <= ratio_cap
    return PropertyReport(name=f"gradient_rate_k{k}_h{h}",
                          status="pass" if ok else "fail",
                          measured=fit.slope, bound=-exponent - slope_margin,
                          tolerance=slope_margin,
                          details={"product_ratio": fit.product_ratio,
                                   "ratio_cap": ratio_cap, "p": p,
                                   "excluded_nodes": fit.excluded_nodes})


def verify_lp_bound(traj_vec: Trajectory, sys: MeasureSystem, p,
                    lp_tol=1e-6) -> PropertyReport:
    """Discrete L^p_mu operator bound with constant 2^((p-1)/p)."""
    if p < 1:
        raise ValueError("p must be at least 1")
    norms = sys.lp_norm(traj_vec, p)
    f_norm = float(norms[0])
    bound = 2.0 ** ((p - 1.0) / p) * f_norm + lp_tol
    i = int(np.argmax(norms))       # the first time of the largest norm
    worst = float(norms[i])
    witness = Witness((0.0,) * traj_vec.grid.d, worst, t=float(traj_vec.times[i]))
    return PropertyReport(name=f"lp_bound_p{p}",
                          status="pass" if worst <= bound else "fail",
                          measured=worst, bound=bound, tolerance=lp_tol,
                          witness=witness, details={"initial_norm": f_norm, "p": p})


def verify_longtime(traj_vec: Trajectory, sys: MeasureSystem, r_obs=3.0,
                    longtime_tol=LONGTIME_TOL, plateau_tol=1e-3,
                    jitter=1e-6, decrease_from=1.0) -> PropertyReport:
    """Locally uniform convergence of T(t)f to the constant M_f xi.

    The limit value is computed two independent ways: the measure-system
    quadrature M_f and the plateau of <T(t)f, xi>; they must agree within
    `plateau_tol`.  The L^2_mu distance at the final time is checked as well.
    `details["decay_rate"]` fits the error curve above 1e-12 (informational).
    The error curve is taken one stored time at a time.
    """
    grid = traj_vec.grid
    window = grid.window_mask(r_obs)
    xi = sys.xi.xi
    m_f = functional_Mf(GridFunction(grid, traj_vec.values[0]), sys) / sys.scale

    limit = m_f * xi[:, None]
    errs = np.array([np.max(_vector_magnitude(v - limit)[window]) for v in traj_vec.values])
    final_diff = traj_vec.values[-1] - limit

    after = traj_vec.times >= decrease_from
    tail = errs[after]
    monotone = bool(np.all(np.diff(tail) <= jitter)) if len(tail) > 1 else True
    final_err = float(errs[-1])

    plateau = np.einsum("k,kn->n", xi, traj_vec.values[-1])
    plateau_gap = float(np.max(np.abs(plateau[window] - m_f)))

    unit = MeasureSystem(xi=sys.xi, mu=sys.mu, scale=1.0)
    l2_dist = unit.lp_norm(GridFunction(grid, final_diff), 2)

    ok = monotone and final_err <= longtime_tol and \
        plateau_gap <= plateau_tol and l2_dist <= longtime_tol
    node = int(np.argmax(_vector_magnitude(final_diff)))
    return PropertyReport(name="longtime_convergence",
                          status="pass" if ok else "fail",
                          measured=final_err, bound=longtime_tol,
                          tolerance=longtime_tol,
                          witness=Witness(tuple(grid.nodes[node]), final_err,
                                          t=float(traj_vec.times[-1])),
                          details={"monotone_after": monotone,
                                   "plateau_gap": plateau_gap,
                                   "l2_distance": l2_dist, "m_f": m_f, "errors": errs,
                                   "decay_rate": _decay_rate(traj_vec.times, errs, errs > 1e-12)})


def verify_cesaro_identity(op, traj: Trajectory, r_obs=3.0) -> PropertyReport:
    """P_n f = R_n(P_1 f) on the window, for `traj` the run of f by `op` to t = n.

    P_1 f averages a run of f to t = 1 stored every 0.01, with the run's dt
    and theta.  The identity holds only for the semigroup that made `traj`.
    """
    t_end = float(traj.times[-1])
    n = int(round(t_end))
    if n < 2 or abs(t_end - n) > 1e-9:
        raise ValueError(f"the Cesaro identity needs a run to an integer n >= 2, not {t_end:g}")
    dt, theta = traj.dt, traj.theta
    traj_1 = evolve(op, GridFunction(traj.grid, traj.values[0]), 1.0, dt=dt, theta=theta,
                    store_every=max(1, int(0.01 / dt)))
    r_n = discrete_average(op, cesaro_average(traj_1), n, dt=dt, theta=theta)
    window = traj.grid.window_mask(r_obs)
    gap = float(np.max(np.abs(cesaro_average(traj).values - r_n.values)[:, window]))
    return PropertyReport(name="cesaro_identity",
                          status="pass" if gap <= CESARO_TOL else "fail",
                          measured=gap, bound=0.0, tolerance=CESARO_TOL, details={"n": n})


def verify_nested_convergence(result, nest_tol) -> PropertyReport:
    """A solve_nested ladder converges by the rule of `nested_converged`, judged
    at this nest_tol."""
    disc = result.discrepancies
    ok = nested_converged(disc, result.dirichlet_neumann_gap, nest_tol)
    return PropertyReport(name="nested_convergence", status="pass" if ok else "fail",
                          measured=disc[-1], bound=nest_tol, tolerance=nest_tol,
                          details={"discrepancies": disc,
                                   "dirichlet_neumann_gap": result.dirichlet_neumann_gap})


def verify_l2_gradient_decay(traj_vec: Trajectory, mu: MeasureDensity, mu0,
                             t_ref=0.1, decay_factor=0.05, jitter=1e-8,
                             integral_slack=1.1) -> PropertyReport:
    """Decay of h(t) = sum_j int |grad (T(t)f)_j|^2 dmu and its time integral.

    The integral of h is bounded by mu0^{-1} sum_j int f_j^2 dmu up to the
    stated slack; mu0 is the ellipticity constant of the field.  h is
    taken one stored time at a time.
    """
    _check_same_nodes(traj_vec, mu)
    grid = traj_vec.grid
    hs = np.array([np.sum(mu.integrate(np.sum(fd_gradient(v, grid) ** 2, axis=0)))
                   for v in traj_vec.values])
    times = traj_vec.times

    h_ref = float(hs[np.argmin(np.abs(times - t_ref))])
    h_final = float(hs[-1])
    decay_ok = h_final <= decay_factor * h_ref
    tail = hs[times >= 1.0]
    scale = max(h_ref, 1e-300)
    monotone = bool(np.all(np.diff(tail) <= jitter * scale)) if len(tail) > 1 else True

    integral = float(np.trapezoid(hs, times))
    f_l2_sq = float(np.sum(mu.integrate(traj_vec.values[0] ** 2)))
    integral_bound = integral_slack * f_l2_sq / mu0
    ok = decay_ok and monotone and integral <= integral_bound
    return PropertyReport(name="l2_gradient_decay",
                          status="pass" if ok else "fail",
                          measured=h_final, bound=decay_factor * h_ref,
                          tolerance=decay_factor,
                          details={"h_ref": h_ref, "integral": integral,
                                   "integral_bound": integral_bound,
                                   "monotone_after": monotone})


def counterexample_mode(field: CoefficientField, f: GridFunction, t_final,
                        dt=1e-3, theta=0.5, weights=None,
                        mu_hat: MeasureDensity | None = None,
                        rate_window=None) -> PropertyReport:
    """Behaviour of the semigroup when the coupling sign condition is dropped.

    With a constant coupling matrix whose quadratic form takes positive
    values, a weighted mass functional grows exponentially (no invariant
    system can exist); with a strictly negative form the sup-norm decays
    exponentially; along a kernel direction the mass stays constant.
    """
    grid = f.grid
    probes = np.array([np.zeros(grid.d), np.full(grid.d, 0.7), np.full(grid.d, -1.3)])
    C0, *others = evaluate(field, probes)[2]
    if not np.allclose(others, C0, rtol=0, atol=1e-12 * max(1.0, np.linalg.norm(C0))):
        raise ValueError("counterexample mode requires a constant coupling matrix")
    sym_max = float(np.max(np.linalg.eigvalsh(0.5 * (C0 + C0.T))))
    if mu_hat is not None:
        _check_same_nodes(f, mu_hat)

    op = assemble_system_operator(field, grid)
    traj = evolve(op, f, t_final=t_final, dt=dt, theta=theta)
    times = traj.times
    if rate_window is not None:
        sel = (times >= rate_window[0]) & (times <= rate_window[1])
    else:
        sel = np.ones(len(times), dtype=bool)

    if weights is None:
        weights = np.full(field.dim_m, 1.0 / np.sqrt(field.dim_m))
    weights = np.asarray(weights, dtype=float)

    tol = 1e-12 * max(1.0, np.linalg.norm(C0))
    if sym_max < -tol:
        sup = _sup_norms(traj.values)
        sigma = _decay_rate(times, sup, (sup > 1e-300) & sel)
        if np.isinf(sigma):
            return PropertyReport("counterexample_decay", "fail", np.nan, 0.0, 0.1,
                                  details={"mode": "decay", **NO_FIT})
        envelope_ok = bool(np.all(sup <= np.exp(-sigma * times) * sup[0] * 1.1))
        ok = sigma > 0 and envelope_ok
        return PropertyReport(name="counterexample_decay",
                              status="pass" if ok else "fail",
                              measured=float(sigma), bound=0.0, tolerance=0.1,
                              details={"mode": "decay", "envelope_ok": envelope_ok})

    if mu_hat is None:
        mu_hat = solve_scalar_invariant_density(field, grid)
    growth = sym_max > tol
    if not growth:
        # neutral direction: mass along the kernel of C is conserved
        null = scipy.linalg.null_space(C0, rcond=1e-10)
        if null.shape[1] >= 1:
            weights = null[:, 0] if null[0, 0] > 0 else -null[:, 0]
    mass = np.sum(weights * mu_hat.integrate(traj.values), axis=-1)
    if growth:
        lam = -_decay_rate(times, mass, (mass > 0) & sel)
        if np.isinf(lam):
            return PropertyReport("counterexample_growth", "fail", np.nan, 0.0, 0.0,
                                  details={"mode": "growth", **NO_FIT})
        factor = mass[-1] / mass[0]
        ok = lam > 0 and factor >= np.exp(lam * (times[-1] - times[0])) / 2.0
        return PropertyReport(name="counterexample_growth",
                              status="pass" if ok else "fail",
                              measured=float(lam), bound=0.0, tolerance=0.0,
                              details={"mode": "growth", "mass_factor": float(factor)})
    drift = float(np.max(np.abs(mass - mass[0])))
    ok = drift <= 1e-6 * max(1.0, abs(mass[0]))
    return PropertyReport(name="counterexample_neutral",
                          status="pass" if ok else "fail",
                          measured=drift, bound=0.0, tolerance=1e-6,
                          details={"mode": "neutral", "mass0": float(mass[0])})


def jordan_asymptotics_check(C0, g, t_grid, rate_slack=0.05,
                             tol=1e-10) -> PropertyReport:
    """Exponential convergence of exp(t C0) g to its kernel projection.

    The matrix exponential is evaluated by scaling and squaring; the fitted
    decay rate must reach the spectral gap (largest nonzero real part, in
    absolute value) up to `rate_slack`.
    """
    C0 = np.asarray(C0, dtype=float)
    g = np.asarray(g, dtype=float)
    scale = max(1.0, float(np.linalg.norm(C0)))
    eig = np.linalg.eigvals(C0)
    if np.max(eig.real) > tol * scale:
        raise ValueError("C0 has an eigenvalue with positive real part")
    nonzero = eig[np.abs(eig) > tol * scale]
    gap = float(np.min(-nonzero.real)) if len(nonzero) else np.inf

    null = scipy.linalg.null_space(C0, rcond=1e-10)
    if null.shape[1] == 0:
        proj = np.zeros_like(g)
    elif null.shape[1] == 1:
        left = scipy.linalg.null_space(C0.T, rcond=1e-10)[:, 0]
        xi = null[:, 0]
        proj = xi * (left @ g) / (left @ xi)
    else:
        raise ValueError("kernel dimension >= 2 is not supported")

    ts = np.asarray(t_grid, dtype=float)
    dists = np.array([float(np.linalg.norm(scipy.linalg.expm(t * C0) @ g - proj))
                      for t in ts])
    rate = _decay_rate(ts, dists, dists > 1e-13 * max(1.0, np.linalg.norm(g)))
    ok = rate >= gap - rate_slack
    return PropertyReport(name="jordan_asymptotics",
                          status="pass" if ok else "fail",
                          measured=rate, bound=gap - rate_slack,
                          tolerance=rate_slack,
                          details={"gap": gap, "final_distance": float(dists[-1]),
                                   "limit": proj.tolist()})
