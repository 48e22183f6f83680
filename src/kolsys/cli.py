"""Command-line front door: check, simulate, measure, verify, sweep.

Exit codes: 0 when every executed check passes, 1 on a property failure,
2 on configuration or runtime errors.  Outputs are written atomically and
floats are formatted as shortest round-trip decimals, so identical configs
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import itertools
import os
import secrets
import sys
from dataclasses import replace

import numpy as np

from kolsys.config import (
    DATA_BUILDERS,
    SUITES,
    ConfigError,
    data_callable,
    data_from_config,
    family_from_config,
    grid_from_config,
    ladder_from_config,
    parse_config,
    time_from_config,
)
from kolsys.coefficients import derivative_bundle, make_builtin, rowdot
from kolsys.discretization import (
    GridFunction,
    assemble_scalar_operator,
    assemble_system_operator,
    grid_function_from_callable,
)
from kolsys.hypotheses import (
    SampleSpec,
    check_growth,
    check_hypotheses,
    check_lyapunov,
    compute_common_kernel,
    estimate_kp,
    spectral_check_C,
)
from kolsys.invariant_measure import (
    build_measure_system,
    bump_function,
    oracle_density_1d,
    solve_scalar_invariant_density,
)
from kolsys.properties import (
    counterexample_mode,
    estimate_gradient_rates,
    jordan_asymptotics_check,
    rate_report,
    verify_cesaro_identity,
    verify_fixed_points,
    verify_invariance,
    verify_l2_gradient_decay,
    verify_longtime,
    verify_lp_bound,
    verify_nested_convergence,
    verify_positivity,
    verify_scalar_invariance,
    verify_semigroup_bounds,
)
from kolsys.reports import CheckRecord
from kolsys.semigroup import SolveError, evolve, solve_nested


def fmt(x):
    """Shortest round-trip decimal representation."""
    return repr(float(x))


def atomic_write(path, text):
    """Write via a temp file in the target directory plus rename.

    The file gets the mode a plain open() would give: 0o666 masked by the umask.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = os.path.join(directory, f".kolsys-{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _records_text(records):
    blocks = []
    for rec in records:
        lines = [f"check = {rec.name}", f"status = {rec.status}"]
        for key, value in rec.constants.items():
            out = fmt(value) if isinstance(value, (int, float, np.floating)) else str(value)
            lines.append(f"{key} = {out}")
        if rec.witness is not None:
            for key, value in rec.witness.as_dict().items():
                lines.append(f"{key} = {value}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def _report_text(reports):
    lines = ["property, status, measured, bound, tolerance, witness_t, witness_x"]
    lines += [rep.report_line() for rep in reports]
    return "\n".join(lines) + "\n"


def _sample_spec(cfg):
    radius = cfg.get("grid", "L")
    return SampleSpec(radius=radius, n_per_axis=81)


def _out_path(args, cfg, fallback):
    """--out wins over the [output] section, which wins over the default name."""
    return args.out or cfg.get("output", "out") or fallback


def cmd_check(args):
    cfg = parse_config(args.config)
    field = make_builtin(family_from_config(cfg))
    spec = _sample_spec(cfg)
    sigma = cfg.get("verify", "phi_exponent")

    report = check_hypotheses(field, spec)
    records = list(report.records)

    try:
        kv = compute_common_kernel(field, spec)
        constants = {f"xi_{j + 1}": float(v) for j, v in enumerate(kv.xi)}
        constants["residual"] = kv.residual
        records.append(CheckRecord(name="common_kernel", status="pass",
                                   constants=constants))
    except ValueError as exc:
        records.append(CheckRecord(name="common_kernel", status="fail",
                                   constants={"reason": str(exc)}))

    lyap = check_lyapunov(field, sigma, spec)
    constants = {"a": lyap.a, "c": lyap.c, "phi_exponent": lyap.sigma}
    if lyap.passed:
        # int phi dmu <= a/c, so the mass outside the sampled ball is at
        # most (a/c) / inf phi there; qualitative, not certified
        constants["tail_mass_bound"] = \
            lyap.best_tail_ratio / (1.0 + spec.radius ** 2) ** sigma
    records.append(CheckRecord(name="lyapunov", status=lyap.status,
                               witness=lyap.witness, constants=constants))

    growth = check_growth(field, sigma, spec)
    records.append(CheckRecord(name="growth", status=growth.status,
                               witness=growth.witness,
                               constants={"c": growth.c, "q_sup": growth.q_sup,
                                          "drift_sup": growth.drift_sup}))

    if args.kp:
        for cp in (0.25, 1.0, 4.0):
            est = estimate_kp(field, p=2.0, sample_spec=spec, constants={"c_p": cp})
            records.append(CheckRecord(
                name=f"kp_sup_cp_{fmt(cp)}",
                status="pass" if est.bounded else "inconclusive",
                constants={"sup": est.sups["K_p"], "trend": est.trend}))

    atomic_write(_out_path(args, cfg, "report.txt"), _records_text(records))
    return 0 if all(r.status == "pass" for r in records) else 1


def _node_cells(grid):
    """The `node_index,x1[,x2]` cells of every node, formatted once."""
    return [",".join([str(idx)] + list(map(repr, x)))
            for idx, x in enumerate(grid.nodes.tolist())]


def _rows(prefixes, values):
    """CSV lines, joined: each prefix followed by its row of `values` (N, k),
    the numbers written as `fmt` writes them."""
    return "\n".join(f"{head},{','.join(map(repr, row))}"
                     for head, row in zip(prefixes, values.tolist()))


def _trajectory_csv(traj):
    grid = traj.grid
    m = traj.m
    coord_cols = [f"x{i + 1}" for i in range(grid.d)]
    header = ["t", "node_index"] + coord_cols + [f"u_{k + 1}" for k in range(m)]
    blocks = [",".join(header)]
    nodes = _node_cells(grid)
    for t, values in zip(traj.times, traj.values):
        t_cell = fmt(t)
        blocks.append(_rows((f"{t_cell},{cells}" for cells in nodes), values.T))
    return "\n".join(blocks) + "\n"


def cmd_simulate(args):
    cfg = parse_config(args.config)
    field = make_builtin(family_from_config(cfg))
    dt, t_final, theta, store_every = time_from_config(cfg)
    if args.nested:
        ladder = ladder_from_config(cfg)
        nest_tol = cfg.get("nest", "nest_tol")
        r_obs = cfg.get("nest", "R_obs")
        boundary = cfg.get("grid", "boundary")
        result = solve_nested(field, data_callable(cfg, field.dim_m), t_final,
                              ladder, nest_tol, r_obs, dt=dt, theta=theta,
                              boundary_kind=boundary, store_every=store_every)
        atomic_write(_out_path(args, cfg, "traj.csv"),
                     _trajectory_csv(result.trajectory))
        for k, disc in enumerate(result.discrepancies, start=1):
            print(f"rung {k} discrepancy = {fmt(disc)}")
        print(f"dirichlet_neumann_gap = {fmt(result.dirichlet_neumann_gap)}")
        print(f"converged = {result.converged}")
        return 0 if result.converged else 1
    grid = grid_from_config(cfg)
    op = assemble_system_operator(field, grid)
    f = data_from_config(cfg, grid, field.dim_m)
    traj = evolve(op, f, t_final, dt=dt, theta=theta, store_every=store_every)
    atomic_write(_out_path(args, cfg, "traj.csv"), _trajectory_csv(traj))
    return 0


def cmd_measure(args):
    cfg = parse_config(args.config)
    field = make_builtin(family_from_config(cfg))
    grid = grid_from_config(cfg)
    mu = solve_scalar_invariant_density(field, grid)
    coord_cols = [f"x{i + 1}" for i in range(grid.d)]
    header = ["node_index"] + coord_cols + ["rho"]
    oracle = None
    if args.oracle:
        if grid.d != 1:
            raise ConfigError("--oracle requires d = 1")
        oracle = oracle_density_1d(field, grid)
        header += ["rho_oracle", "diff"]
    columns = [mu.rho]
    if oracle is not None:
        columns += [oracle.rho, mu.rho - oracle.rho]
    text = ",".join(header) + "\n" + _rows(_node_cells(grid), np.column_stack(columns)) + "\n"
    atomic_write(_out_path(args, cfg, "density.csv"), text)
    return 0


def _measure_pipeline(cfg, field, grid):
    spec = _sample_spec(cfg)
    xi = compute_common_kernel(field, spec)
    mu = solve_scalar_invariant_density(field, grid)
    return xi, mu, build_measure_system(xi, mu, 1.0)


def _suite_core(cfg, field):
    grid = grid_from_config(cfg, boundary_override="neumann")
    dt, t_final, theta, _ = time_from_config(cfg)
    r_obs = cfg.get("verify", "R_obs")
    seed = cfg.get("run", "seed")
    xi, mu, sys = _measure_pipeline(cfg, field, grid)
    reports = []

    rng = np.random.default_rng(seed)
    pts = rng.uniform(-grid.L, grid.L, size=(1000, grid.d))
    reports.append(spectral_check_C(field, pts))

    # eta: the unit direction of e1 orthogonal to the kernel vector
    eta = np.eye(field.dim_m)[0] - xi.xi[0] * xi.xi
    xi_gf = grid_function_from_callable(grid, lambda _: list(xi.xi))
    eta_gf = grid_function_from_callable(grid, lambda _: list(eta / np.linalg.norm(eta)))
    sine = grid_function_from_callable(
        grid, lambda x: [np.sin(x[..., 0])] * field.dim_m, m=field.dim_m)
    reports.append(verify_fixed_points(
        field, grid, [(xi_gf, True), (eta_gf, False), (sine, False)], dt=dt,
        theta=theta, fp_tol=cfg.get("verify", "fp_tol"),
        fp_gap=cfg.get("verify", "fp_gap")))

    op = assemble_system_operator(field, grid)
    op_s = assemble_scalar_operator(field, grid)

    pos_datum = grid_function_from_callable(
        grid, lambda x: [np.exp(-rowdot(x, x))] + [0.0] * (field.dim_m - 1),
        m=field.dim_m)
    t_pos = max(1.0, min(2.0, t_final))
    traj_pos = evolve(op, pos_datum, t_pos, dt=dt, theta=1.0,
                      store_times=[t_pos / 2, 1.0, t_pos])
    reports.append(verify_positivity(
        traj_pos, pos_tol=cfg.get("verify", "pos_tol"), r_obs=r_obs))

    f = data_from_config(cfg, grid, field.dim_m)
    absf2 = GridFunction(grid, np.sum(f.values ** 2, axis=0))
    dom_tol = cfg.get("verify", "dom_tol")
    traj_v1 = evolve(op, f, t_final, dt=dt, theta=1.0)
    traj_s1 = evolve(op_s, absf2, t_final, dt=dt, theta=1.0)
    reports.append(verify_semigroup_bounds(traj_v1, traj_s1, p=2.0,
                                           dom_tol=dom_tol, sup_tol=dom_tol))

    inv_tol = cfg.get("verify", "inv_tol")
    check_times = sorted({min(0.1, t_final), min(1.0, t_final), t_final})
    traj_v = evolve(op, f, t_final, dt=dt, theta=theta, store_times=check_times)
    reports.append(verify_invariance(traj_v, sys, inv_tol=inv_tol))

    scalars = [grid_function_from_callable(grid, DATA_BUILDERS[name], m=1)
               for name in ("tanh", "gauss")]
    reports.append(verify_scalar_invariance(
        evolve(op_s, scalars, t_final, dt=dt, theta=theta, store_times=check_times), mu))

    lp_tol = cfg.get("verify", "lp_tol")
    for p in (1.0, 2.0, 4.0):
        reports.append(verify_lp_bound(traj_v, sys, p, lp_tol=lp_tol))
    return reports


def _suite_rates(cfg, field):
    grid = grid_from_config(cfg, boundary_override="neumann")
    dt, _, theta, _ = time_from_config(cfg)
    r_obs = cfg.get("verify", "R_obs")
    slope_margin = cfg.get("verify", "slope_margin")
    eps = 2.0 * grid.h

    def radial(x):
        # at d = 1 this is x itself: sqrt(x * x) == |x| in floating point
        return np.sqrt(rowdot(x, x)) * np.sign(x[..., 0] + 1e-300)

    pad = [0.0] * (field.dim_m - 1)
    f_step = grid_function_from_callable(
        grid, lambda x: [np.tanh(radial(x) / eps)] + pad, m=field.dim_m)
    f_kink = grid_function_from_callable(
        grid, lambda x: [eps * np.log(np.cosh(radial(x) / eps))] + pad, m=field.dim_m)
    f_smooth = grid_function_from_callable(
        grid, lambda x: [np.tanh(x[..., 0]), np.exp(-rowdot(x, x))] + pad[1:], m=field.dim_m)

    # (k, h) = (1, 0) and (2, 0) share f_step and its denominator: each
    # distinct run happens once
    cases = [(f_step, 1, 0, 50.0), (f_step, 2, 0, 50.0),
             (f_kink, 2, 1, 50.0), (f_smooth, 1, 1, 10.0)]
    fits = estimate_gradient_rates(field, cases, p=2.0, r_obs=r_obs, dt=dt, theta=theta)
    return [rate_report(fit, k=k, h=h, p=2.0, slope_margin=slope_margin, ratio_cap=cap)
            for fit, (_, k, h, cap) in zip(fits, cases)]


def _suite_asymptotic(cfg, field):
    grid = grid_from_config(cfg, boundary_override="neumann")
    dt, t_final, theta, store_every = time_from_config(cfg)
    r_obs = cfg.get("verify", "R_obs")
    longtime_tol = cfg.get("verify", "longtime_tol")
    xi, mu, sys = _measure_pipeline(cfg, field, grid)
    op = assemble_system_operator(field, grid)
    reports = []

    e1 = grid_function_from_callable(grid, lambda _: [1.0] + [0.0] * (field.dim_m - 1))
    bumps = [bump_function([0.0] * grid.d, 2.0), bump_function([0.5] * grid.d, 1.5)]
    fb = grid_function_from_callable(
        grid, lambda x: [bumps[k % len(bumps)](x) for k in range(field.dim_m)],
        m=field.dim_m)
    # the Cesaro check below needs f run to t = n: with t_final = n that run
    # joins the block, and the nested ladder reuses it for its rung on this grid
    n = max(2, int(t_final))
    f = data_from_config(cfg, grid, field.dim_m)
    data = [e1, fb] + ([f] if float(n) == t_final else [])
    traj, traj_b, *runs_f = evolve(op, data, t_final, dt=dt, theta=theta,
                                   store_every=store_every)
    traj_f = runs_f[0] if runs_f else evolve(op, f, float(n), dt=dt, theta=theta,
                                             store_every=store_every)

    reports.append(verify_longtime(traj, sys, r_obs=r_obs,
                                   longtime_tol=longtime_tol))
    spec = _sample_spec(cfg)
    bundle = derivative_bundle(field)
    mu0 = float(np.min(bundle.mu_q(spec.points(field.dim_d)[::4])))
    reports.append(verify_l2_gradient_decay(traj_b, mu, mu0=mu0))
    reports.append(verify_cesaro_identity(op, traj_f, r_obs))

    if cfg.has_section("nest"):
        ladder = ladder_from_config(cfg)
        nest_tol = cfg.get("nest", "nest_tol")
        result = solve_nested(field, data_callable(cfg, field.dim_m), t_final,
                              ladder, nest_tol, cfg.get("nest", "R_obs"), dt=dt, theta=theta,
                              store_every=store_every, runs=runs_f)
        reports.append(verify_nested_convergence(result, nest_tol))
    return reports


def _suite_counterexample(cfg, field):
    grid = grid_from_config(cfg, boundary_override="neumann")
    dt, t_final, theta, _ = time_from_config(cfg)
    mu = solve_scalar_invariant_density(field, grid)
    m = field.dim_m
    family = family_from_config(cfg)
    reports = []
    f = grid_function_from_callable(grid, lambda _: [1.0 / np.sqrt(m)] * m)
    for C0 in (np.eye(m), -np.eye(m)):
        cfield = make_builtin(replace(family, coupling_kind="constant_matrix", C0=C0))
        reports.append(counterexample_mode(cfield, f, t_final=min(t_final, 5.0),
                                           dt=dt, theta=theta, mu_hat=mu))
    reports.append(jordan_asymptotics_check(field.C(np.zeros(field.dim_d)), np.eye(m)[0],
                                            np.linspace(0.0, 8.0, 17)))
    return reports


def cmd_verify(args):
    cfg = parse_config(args.config)
    field = make_builtin(family_from_config(cfg))
    suite = args.suite or cfg.get("verify", "suite")
    runner = {"core": _suite_core, "rates": _suite_rates,
              "asymptotic": _suite_asymptotic,
              "counterexample": _suite_counterexample}[suite]
    reports = runner(cfg, field)
    atomic_write(_out_path(args, cfg, "report.txt"), _report_text(reports))
    return 0 if all(r.passed for r in reports) else 1


def _sweep_row(cfg, family, ps):
    """The summary rows of one drift family, one per L^p exponent in `ps`.

    Only the L^p bound depends on p: the hypotheses, the measure system and
    the trajectory are computed once for the family.
    """
    field = make_builtin(family)
    grid = grid_from_config(cfg, boundary_override="neumann")
    dt, t_final, theta, store_every = time_from_config(cfg)
    spec = _sample_spec(cfg)
    sigma = cfg.get("verify", "phi_exponent")
    r_obs = cfg.get("verify", "R_obs")

    lyap = check_lyapunov(field, sigma, spec)
    growth = check_growth(field, sigma, spec)
    rows = [{"gamma": family.gamma, "beta": family.beta, "b0": family.b0, "p": p,
             "lyapunov": lyap.status, "growth": growth.status} for p in ps]
    if not lyap.passed:
        for row in rows:
            row.update({"invariance": "", "lp_bound": "", "longtime_err": "",
                        "decay_rate": "", "m_f": ""})
        return rows

    *_, sys = _measure_pipeline(cfg, field, grid)
    op = assemble_system_operator(field, grid)
    f = data_from_config(cfg, grid, field.dim_m)
    traj = evolve(op, f, t_final, dt=dt, theta=theta, store_every=store_every)
    inv = verify_invariance(traj, sys, inv_tol=cfg.get("verify", "inv_tol"))
    longtime = verify_longtime(traj, sys, r_obs=r_obs).details

    for row in rows:
        row.update({"invariance": inv.status,
                    "lp_bound": verify_lp_bound(traj, sys, row["p"],
                                                lp_tol=cfg.get("verify", "lp_tol")).status,
                    "longtime_err": fmt(longtime["errors"][-1]),
                    "decay_rate": fmt(longtime["decay_rate"]), "m_f": fmt(longtime["m_f"])})
    return rows


SWEEP_COLUMNS = ("gamma", "beta", "b0", "p", "lyapunov", "growth",
                 "invariance", "lp_bound", "longtime_err", "decay_rate", "m_f")


def cmd_sweep(args):
    cfg = parse_config(args.config)
    cfg.require_section("sweep")
    family = family_from_config(cfg)
    varied = ("gamma", "beta", "b0")
    # each sweep list defaults to the [problem] family's own value
    lists = [[getattr(family, key)] if cfg.get("sweep", key) is None
             else cfg.get("sweep", key) for key in varied]
    cap = cfg.get("sweep", "cap")
    combos = sorted(itertools.product(*lists, cfg.get("sweep", "p")))
    if len(combos) > cap:
        raise ConfigError(f"sweep of {len(combos)} runs exceeds the cap {cap}")

    # rows that differ only in p share one _sweep_row call
    families = [(key, [c[3] for c in group])
                for key, group in itertools.groupby(combos, key=lambda c: c[:3])]
    rows = [row for key, p_values in families
            for row in _sweep_row(cfg, replace(family, **dict(zip(varied, key))), p_values)]

    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        cells = []
        for col in SWEEP_COLUMNS:
            value = row[col]
            cells.append(fmt(value) if isinstance(value, float) else str(value))
        lines.append(",".join(cells))
    atomic_write(_out_path(args, cfg, "summary.csv"), "\n".join(lines) + "\n")
    bad = any(row["lyapunov"] != "pass" or row["growth"] != "pass"
              or row.get("invariance") not in ("pass", "")
              or row.get("lp_bound") not in ("pass", "") for row in rows)
    return 1 if bad else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kolsys",
        description="Simulate weakly coupled Kolmogorov systems and verify "
                    "their semigroup properties.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="certify the standing hypotheses")
    p_check.add_argument("--config", required=True)
    p_check.add_argument("--out", default=None)
    p_check.add_argument("--kp", action="store_true",
                         help="also report curvature suprema on a grid of c_p")
    p_check.set_defaults(func=cmd_check)

    p_sim = sub.add_parser("simulate", help="evolve the system and dump a CSV")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", default=None)
    p_sim.add_argument("--nested", action="store_true",
                       help="run the nested-domain ladder from [nest]")
    p_sim.set_defaults(func=cmd_simulate)

    p_meas = sub.add_parser("measure", help="solve the invariant density")
    p_meas.add_argument("--config", required=True)
    p_meas.add_argument("--out", default=None)
    p_meas.add_argument("--oracle", action="store_true",
                        help="add the 1-D closed-form density and the difference")
    p_meas.set_defaults(func=cmd_measure)

    p_ver = sub.add_parser("verify", help="run a property suite")
    p_ver.add_argument("--config", required=True)
    p_ver.add_argument("--suite", choices=SUITES)
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="parameter sweep with a CSV summary")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def run(argv) -> int:
    """Entry point used by tests: argv excludes the program name."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SolveError, RuntimeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
