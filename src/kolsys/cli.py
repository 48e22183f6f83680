"""Command-line front door: check, simulate, measure, verify, sweep.

Every command is `cmd_*(args, cfg) -> (text, exit_code)`.  The frame they
share lives in `run()`: it parses the config once, calls the command and
writes the text it returns to `--out`, else `[output] out`, else the
command's default file name; a command that raises writes nothing.

Exit codes: 0 when every executed check passes, 1 on a property failure,
2 on configuration or runtime errors.  Outputs are written atomically and
floats are formatted as shortest round-trip decimals, so identical configs
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import multiprocessing
import os
import pickle
import secrets
import sys
import threading
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
from kolsys.coefficients import make_builtin, rowdot
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
from kolsys.semigroup import _stepping, evolve, judge_ladder, nested_ladder, whole_steps


def fmt(x):
    """Shortest round-trip decimal representation."""
    return repr(float(x))


def atomic_write(path, text):
    """Write `text`, a str or a list of str chunks, via a temp file in the
    target directory plus rename.

    The file gets the mode a plain open() would give: 0o666 masked by the umask.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = os.path.join(directory, f".kolsys-{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Chunks(list):
    """A text as str chunks, which atomic_write writes one by one, never
    joined; encode() gives the joined text's bytes, as str.encode does."""

    def encode(self, encoding="utf-8"):
        return "".join(self).encode(encoding)


def _records_text(records):
    blocks = []
    for rec in records:
        lines = [f"check = {rec.name}", f"status = {rec.status}"]
        for key, value in rec.constants.items():
            out = fmt(value) if isinstance(value, (int, float, np.floating)) else str(value)
            lines.append(f"{key} = {out}")
        if rec.witness is not None:     # a check witness carries no time
            lines += ["witness_x = " + " ".join(repr(float(c)) for c in rec.witness.x),
                      f"witness_value = {float(rec.witness.value)!r}"]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def _report_text(reports):
    lines = ["property, status, measured, bound, tolerance, witness_t, witness_x"]
    lines += [rep.report_line() for rep in reports]
    return "\n".join(lines) + "\n"


def cmd_check(args, cfg):
    field = make_builtin(family_from_config(cfg))
    spec = SampleSpec(cfg.get("grid", "L"))
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

    return _records_text(records), 0 if all(r.status == "pass" for r in records) else 1


def _node_cells(grid):
    """The `node_index,x1[,x2]` cells of every node, formatted once."""
    return [",".join([str(idx)] + list(map(repr, x)))
            for idx, x in enumerate(grid.nodes.tolist())]


def _rows(cells, values):
    """CSV lines, joined: line i joins the i-th entry of each text column in
    `cells` and of each row of `values` (k, N), whose numbers are written as
    `fmt` writes them."""
    return "\n".join(map(",".join, zip(*cells, *(map(repr, row) for row in values.tolist()))))


def _trajectory_csv(traj, i, nodes, chunks):
    """Append to `chunks` the CSV block of stored time i of `traj`, after the
    header when i is 0; `nodes` holds the node cells of its grid."""
    if i == 0:
        header = ["t", "node_index"] + [f"x{k + 1}" for k in range(traj.grid.d)] \
            + [f"u_{k + 1}" for k in range(traj.m)]
        chunks.append(",".join(header) + "\n")
    chunks.append(_rows([itertools.repeat(fmt(traj.times[i])), nodes], traj.values[i]) + "\n")


def cmd_simulate(args, cfg):
    field = make_builtin(family_from_config(cfg))
    dt, t_final, theta, store_every = time_from_config(cfg)
    text = _Chunks()
    if args.nested:
        nest_tol = cfg.get("nest", "nest_tol")
        r_obs = cfg.get("nest", "R_obs")
        # no local keeps the runs, or the grids and data they start from
        result = judge_ladder(_ladder_runs(field, *nested_ladder(
            field, data_callable(cfg, field.dim_m), ladder_from_config(cfg), r_obs,
            cfg.get("grid", "boundary")), t_final, dt, theta, store_every, csv=text),
            r_obs, nest_tol)
        for k, disc in enumerate(result.discrepancies, start=1):
            print(f"rung {k} discrepancy = {fmt(disc)}")
        print(f"dirichlet_neumann_gap = {fmt(result.dirichlet_neumann_gap)}")
        converged = verify_nested_convergence(result, nest_tol).passed
        print(f"converged = {converged}")
        return text, 0 if converged else 1
    grid = grid_from_config(cfg)
    _stream(_stepping([assemble_system_operator(field, grid)], [data_from_config(
        cfg, grid, field.dim_m)], t_final, dt, theta, store_every, None), text, 0)
    return text, 0


def cmd_measure(args, cfg):
    field = make_builtin(family_from_config(cfg))
    grid = grid_from_config(cfg)
    if args.oracle and grid.d != 1:
        raise ConfigError("--oracle requires d = 1")
    mu = solve_scalar_invariant_density(field, grid)
    header = ["node_index"] + [f"x{i + 1}" for i in range(grid.d)] + ["rho"]
    columns = [mu.rho]
    if args.oracle:
        oracle = oracle_density_1d(field, grid)
        header += ["rho_oracle", "diff"]
        columns += [oracle.rho, mu.rho - oracle.rho]
    return ",".join(header) + "\n" + _rows([_node_cells(grid)], np.array(columns)) + "\n", 0


def _pickled(ok, value):
    """(ok, value) pickled, the frame a worker sends."""
    try:
        return pickle.dumps((ok, value), pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        return pickle.dumps((False, RuntimeError(f"unpicklable result: {exc}")))


@contextlib.contextmanager
def _forked(items, name):
    """An iterator over the items of the generator `items`.

    On two or more usable cores a worker forked on entry evaluates `items`
    and pickles each item to a pipe as it comes, or the exception it raised;
    this process drops its copy of `items` and reads them back, raising that
    exception with its type and message, or RuntimeError naming `name` if
    the worker ends before the next item, whatever its exit status: callers
    read only the items they know are coming.  On one usable core it is
    `items` itself, evaluated here as it is read.  On exit a worker still
    running is killed, joined and its pipe closed.
    """
    if _usable_cores() < 2:
        yield items
        return
    r, w = os.pipe()

    def target():
        os.close(r)
        with os.fdopen(w, "wb") as fh:
            try:
                for item in items:
                    fh.write(_pickled(True, item))
                    fh.flush()
            except BaseException as exc:
                fh.write(_pickled(False, exc))

    def received():
        while True:
            try:
                ok, value = pickle.load(fh)
            except (EOFError, pickle.UnpicklingError):   # it died before it wrote it all
                proc.join()
                raise RuntimeError(
                    f"{name} ended without a result, exit status {proc.exitcode}") from None
            if not ok:
                raise value
            yield value

    proc = multiprocessing.get_context("fork").Process(target=target)
    with os.fdopen(r, "rb") as fh:
        try:
            proc.start()
        finally:
            os.close(w)
        items.close()       # the worker evaluates items: this process frees its copy
        try:
            yield received()
        finally:
            proc.kill()     # a no-op on a worker already reaped
            proc.join()


def _usable_cores():
    """The cores _forked may fork for and _ladder_runs splits a ladder
    over: 1, so that everything runs here as one stack, when one core is
    usable (or the platform cannot fork or tell), when another Python
    thread runs (forking it could deadlock), or inside a worker."""
    if multiprocessing.parent_process() is not None or threading.active_count() > 1 \
            or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _balanced(ops, n):
    """The indices of `ops` split into at most n stacks, balanced by rows:
    each operator, largest first, joins the stack with the fewest rows so
    far.  Each stack lists its indices in order; empty stacks are dropped."""
    stacks = [[] for _ in range(n)]
    rows = [0] * n
    for i in sorted(range(len(ops)), key=lambda i: -ops[i].matrix.shape[0]):
        k = rows.index(min(rows))
        stacks[k].append(i)
        rows[k] += ops[i].matrix.shape[0]
    return [sorted(s) for s in stacks if s]


def _ladder_runs(field, grids, data, t_final, dt, theta, store_every, csv=None):
    """The runs of the system operator of `field` on each of `grids` from
    the datum of `data` on it, in `grids` order, evolved as row-balanced
    stacks (`_balanced`), one per usable core, each one task of
    `_concurrently`.  With `csv`, a list, the CSV of run len(grids) - 2, a
    ladder's final rung, goes into it through `_stream`, and its stack is
    task 0, so that on two or more cores every stack steps in a worker."""
    ops = [assemble_system_operator(field, g) for g in grids]
    final = len(ops) - 2
    stacks = sorted(_balanced(ops, _usable_cores()), key=lambda rows: final not in rows)

    def stack(rows):
        if csv is not None and final in rows:
            return lambda: _stream(_stepping([ops[i] for i in rows], [data[i] for i in rows],
                                             t_final, dt, theta, store_every, None),
                                   csv, rows.index(final))
        return lambda: evolve([ops[i] for i in rows], [data[i] for i in rows], t_final,
                              dt=dt, theta=theta, store_every=store_every)

    # the runs come stack by stack: each goes back to its grid's index
    runs = dict(zip(itertools.chain.from_iterable(stacks), itertools.chain.from_iterable(
        _concurrently([stack(rows) for rows in stacks]))))
    return [runs[i] for i in range(len(ops))]


def _stream(steps, csv, at):
    """evolve's result from `steps`, a fresh `_stepping` generator of a
    stack, with the CSV of its run `at` put into the list `csv` one stored
    time at a time.  The stored states come through `_forked`: on two or
    more usable cores a worker steps and sends each one over a pipe into
    the result's arrays, and this process formats them as they come; on one
    this process steps and formats in turn."""
    result, outs = next(steps)
    run, nodes = result[at], _node_cells(result[at].grid)
    _trajectory_csv(run, 0, nodes, csv)
    states = (tuple(out[:, i] for out in outs) for i in steps)
    with _forked(states, f"task 0 ({steps.__qualname__})") as states:
        del steps       # once a worker steps, this frees this process's copy of the stepper
        for i in range(1, len(run.times)):
            for out, state in zip(outs, next(states)):
                out[:, i] = state
            _trajectory_csv(run, i, nodes, csv)
    return result


def _concurrently(tasks):
    """The results of the list `tasks` of zero-argument callables, in order.

    The first task runs in this process and every other one through a
    `_forked` of its own, entered for all of them at once: callers pass at
    most one task per usable core.  Each task computes what it would
    compute in the serial run, so the results are the same bits; every task
    runs here, in order, when `_usable_cores()` is 1.  As in the serial
    run, the exception of the earliest failing task is raised, with its
    type and message; every worker still running is then killed, and every
    worker is reaped before this returns or raises.
    """
    with contextlib.ExitStack() as stack:
        rest = [stack.enter_context(_forked(
            (t() for t in [task]), f"task {i} ({getattr(task, '__qualname__', task)})"))
            for i, task in enumerate(tasks[1:], start=1)]
        return [task() for task in tasks[:1]] + [next(results) for results in rest]


def _check_dt_divides(cfg, suite, times):
    """ConfigError at the time.dt line, before any run, unless dt divides
    each of `times`: those the suite runs to or stores besides t_final."""
    dt = cfg.get("time", "dt")
    for t in times:
        try:
            whole_steps(t, dt, "time")
        except ValueError:
            raise ConfigError(f"time.dt = {dt} does not divide {float(t)}, a time the "
                              f"{suite} suite runs to", cfg.line("time", "dt")) from None


def _measure_pipeline(cfg, field, grid):
    xi = compute_common_kernel(field, SampleSpec(cfg.get("grid", "L")))
    mu = solve_scalar_invariant_density(field, grid)
    return xi, mu, build_measure_system(xi, mu, 1.0)


def _suite_core(cfg, field, grid):
    dt, t_final, theta, _ = time_from_config(cfg)
    check_times = sorted({min(0.1, t_final), min(1.0, t_final), t_final})
    # the fixed points run to 1, the positivity run to t_pos storing t_pos / 2
    t_pos = max(1.0, min(2.0, t_final))
    _check_dt_divides(cfg, "core", check_times + [1.0, t_pos / 2, t_pos])
    r_obs = cfg.get("verify", "R_obs")
    seed = cfg.get("run", "seed")
    xi, mu, sys = _measure_pipeline(cfg, field, grid)

    rng = np.random.default_rng(seed)
    pts = rng.uniform(-grid.L, grid.L, size=(1000, grid.d))
    spectral = spectral_check_C(field, pts)
    op = assemble_system_operator(field, grid)
    op_s = assemble_scalar_operator(field, grid)

    def fixed_points_positivity_bounds():
        # eta: the unit direction of e1 orthogonal to the kernel vector
        eta = np.eye(field.dim_m)[0] - xi.xi[0] * xi.xi
        xi_gf = grid_function_from_callable(grid, lambda _: list(xi.xi))
        eta_gf = grid_function_from_callable(grid, lambda _: list(eta / np.linalg.norm(eta)))
        sine = grid_function_from_callable(
            grid, lambda x: [DATA_BUILDERS["sin"](x)] * field.dim_m, m=field.dim_m)
        reports = [verify_fixed_points(
            field, grid, [(xi_gf, True), (eta_gf, False), (sine, False)], dt=dt,
            theta=theta, fp_tol=cfg.get("verify", "fp_tol"),
            fp_gap=cfg.get("verify", "fp_gap"))]

        pos_datum = grid_function_from_callable(
            grid, lambda x: [DATA_BUILDERS["gauss"](x)] + [0.0] * (field.dim_m - 1),
            m=field.dim_m)
        traj_pos = evolve(op, pos_datum, t_pos, dt=dt, theta=1.0,
                          store_times=[t_pos / 2, 1.0, t_pos])
        reports.append(verify_positivity(
            traj_pos, pos_tol=cfg.get("verify", "pos_tol"), r_obs=r_obs))

        f = data_from_config(cfg, grid, field.dim_m)
        absf2 = GridFunction(grid, np.sum(f.values ** 2, axis=0))
        dom_tol = cfg.get("verify", "dom_tol")
        traj_v1, traj_s1 = evolve([op, op_s], [f, absf2], t_final, dt=dt, theta=1.0)
        reports.append(verify_semigroup_bounds(traj_v1, traj_s1, p=2.0,
                                               dom_tol=dom_tol, sup_tol=dom_tol))
        return reports

    def invariance():
        f = data_from_config(cfg, grid, field.dim_m)
        tanh, gauss = (grid_function_from_callable(grid, DATA_BUILDERS[name], m=1)
                       for name in ("tanh", "gauss"))
        traj_v, *scalar_runs = evolve([op, op_s, op_s], [f, tanh, gauss], t_final, dt=dt,
                                      theta=theta, store_times=check_times)
        reports = [verify_invariance(traj_v, sys, inv_tol=cfg.get("verify", "inv_tol")),
                   verify_scalar_invariance(scalar_runs, mu)]
        lp_tol = cfg.get("verify", "lp_tol")
        return reports + [verify_lp_bound(traj_v, sys, p, lp_tol=lp_tol) for p in (1.0, 2.0, 4.0)]

    # two independent groups of runs: the first here, the second in a worker
    first, second = _concurrently([fixed_points_positivity_bounds, invariance])
    return [spectral] + first + second


def _suite_rates(cfg, field, grid):
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
        grid, lambda x: [DATA_BUILDERS[name](x) for name in ("tanh", "gauss")] + pad[1:],
        m=field.dim_m)

    # (k, h) = (1, 0) and (2, 0) share f_step and its denominator: each
    # distinct run happens once
    cases = [(f_step, 1, 0, 50.0), (f_step, 2, 0, 50.0),
             (f_kink, 2, 1, 50.0), (f_smooth, 1, 1, 10.0)]
    fits = estimate_gradient_rates(field, cases, p=2.0, r_obs=r_obs, dt=dt, theta=theta)
    return [rate_report(fit, k=k, h=h, p=2.0, slope_margin=slope_margin, ratio_cap=cap)
            for fit, (_, k, h, cap) in zip(fits, cases)]


def _suite_asymptotic(cfg, field, grid):
    dt, t_final, theta, store_every = time_from_config(cfg)
    # the Cesaro check below needs f run to t = n: with t_final = n that run
    # joins the block, and it is the nested ladder's run on its rung on this
    # grid, if the ladder has one
    n = max(2, int(t_final))
    _check_dt_divides(cfg, "asymptotic", range(1, n + 1))
    f_in_block = float(n) == t_final

    def block():
        r_obs = cfg.get("verify", "R_obs")
        xi, mu, sys = _measure_pipeline(cfg, field, grid)
        op = assemble_system_operator(field, grid)
        e1 = grid_function_from_callable(grid, lambda _: [1.0] + [0.0] * (field.dim_m - 1))
        bumps = [bump_function([0.0] * grid.d, 2.0), bump_function([0.5] * grid.d, 1.5)]
        fb = grid_function_from_callable(
            grid, lambda x: [bumps[k % len(bumps)](x) for k in range(field.dim_m)],
            m=field.dim_m)
        f = data_from_config(cfg, grid, field.dim_m)
        data = [e1, fb] + ([f] if f_in_block else [])
        traj, traj_b, *runs_f = evolve(op, data, t_final, dt=dt, theta=theta,
                                       store_every=store_every)
        traj_f = runs_f[0] if runs_f else evolve(op, f, float(n), dt=dt, theta=theta,
                                                 store_every=store_every)

        reports = [verify_longtime(traj, sys, r_obs=r_obs,
                                   longtime_tol=cfg.get("verify", "longtime_tol"))]
        spec = SampleSpec(cfg.get("grid", "L"))
        mu0 = check_hypotheses(field, spec).record("ellipticity").constants["mu0"]
        reports.append(verify_l2_gradient_decay(traj_b, mu, mu0=mu0))
        reports.append(verify_cesaro_identity(op, traj_f, r_obs))
        return reports, runs_f

    def ladder():
        # the index among the ladder's runs of the one the block makes, or
        # None, and the other runs in order; in a worker, _ladder_runs steps
        # them as one stack
        grids, data = nested_ladder(field, data_callable(cfg, field.dim_m),
                                    ladder_from_config(cfg), cfg.get("nest", "R_obs"))
        key = (grid.L, grid.n_per_axis, grid.boundary_kind)
        at = next((i for i, g in enumerate(grids)
                   if f_in_block and (g.L, g.n_per_axis, g.boundary_kind) == key), None)
        if at is not None:
            del grids[at], data[at]
        return at, _ladder_runs(field, grids, data, t_final, dt, theta, store_every)

    if not cfg.has_section("nest"):
        return block()[0]
    (reports, runs_f), (at, runs) = _concurrently([block, ladder])
    if at is not None:
        runs.insert(at, runs_f[0])
    nest_tol = cfg.get("nest", "nest_tol")
    result = judge_ladder(runs, cfg.get("nest", "R_obs"), nest_tol)
    return reports + [verify_nested_convergence(result, nest_tol)]


def _suite_counterexample(cfg, field, grid):
    dt, t_final, theta, _ = time_from_config(cfg)
    t_end = min(t_final, 5.0)
    _check_dt_divides(cfg, "counterexample", [t_end])
    mu = solve_scalar_invariant_density(field, grid)
    m = field.dim_m
    family = family_from_config(cfg)
    f = grid_function_from_callable(grid, lambda _: [1.0 / np.sqrt(m)] * m)

    def mode(C0):
        cfield = make_builtin(replace(family, coupling_kind="constant_matrix", C0=C0))
        return counterexample_mode(cfield, f, t_final=t_end,
                                   dt=dt, theta=theta, mu_hat=mu)

    # C0 = I here, C0 = -I in a worker
    reports = _concurrently([lambda: mode(np.eye(m)), lambda: mode(-np.eye(m))])
    reports.append(jordan_asymptotics_check(field.C(np.zeros(field.dim_d)), np.eye(m)[0],
                                            np.linspace(0.0, 8.0, 17)))
    return reports


def cmd_verify(args, cfg):
    field = make_builtin(family_from_config(cfg))
    suite = args.suite or cfg.get("verify", "suite")
    runner = {"core": _suite_core, "rates": _suite_rates,
              "asymptotic": _suite_asymptotic,
              "counterexample": _suite_counterexample}[suite]
    reports = runner(cfg, field, grid_from_config(cfg, boundary_override="neumann"))
    return _report_text(reports), 0 if all(r.passed for r in reports) else 1


def _sweep_family(cfg, family):
    """The Lyapunov and growth checks of one drift family, and the run it
    needs if it passes the Lyapunov check: its measure system, system
    operator and datum (None otherwise)."""
    field = make_builtin(family)
    grid = grid_from_config(cfg, boundary_override="neumann")
    spec = SampleSpec(cfg.get("grid", "L"))
    sigma = cfg.get("verify", "phi_exponent")
    lyap = check_lyapunov(field, sigma, spec)
    growth = check_growth(field, sigma, spec)
    if not lyap.passed:
        return lyap, growth, None
    *_, sys = _measure_pipeline(cfg, field, grid)
    return lyap, growth, (sys, assemble_system_operator(field, grid),
                          data_from_config(cfg, grid, field.dim_m))


def _sweep_row(cfg, family, ps, lyap, growth, sys=None, traj=None):
    """The summary rows of one drift family, one per L^p exponent in `ps`,
    each a list of cells in `SWEEP_COLUMNS` order, from its Lyapunov and
    growth checks and, if it passed the Lyapunov check, its measure system
    and trajectory.

    Only the L^p bound depends on p: the rest is computed once for the family.
    """
    head = [fmt(family.gamma), fmt(family.beta), fmt(family.b0)]
    checks = [lyap.status, growth.status]
    if traj is None:
        return [head + [fmt(p)] + checks + [""] * 5 for p in ps]
    inv = verify_invariance(traj, sys, inv_tol=cfg.get("verify", "inv_tol")).status
    longtime = verify_longtime(traj, sys, r_obs=cfg.get("verify", "R_obs")).details
    fits = [fmt(longtime["errors"][-1]), fmt(longtime["decay_rate"]), fmt(longtime["m_f"])]
    return [head + [fmt(p)] + checks
            + [inv, verify_lp_bound(traj, sys, p, lp_tol=cfg.get("verify", "lp_tol")).status]
            + fits for p in ps]


SWEEP_COLUMNS = ("gamma", "beta", "b0", "p", "lyapunov", "growth",
                 "invariance", "lp_bound", "longtime_err", "decay_rate", "m_f")


def cmd_sweep(args, cfg):
    cfg.require_section("sweep")
    family = family_from_config(cfg)
    varied = ("gamma", "beta", "b0")
    # each sweep list defaults to the [problem] family's own value
    lists = [[getattr(family, key)] if cfg.get("sweep", key) is None
             else cfg.get("sweep", key) for key in varied] + [cfg.get("sweep", "p")]
    for key, values in zip(varied + ("p",), lists):
        if not values:
            raise ConfigError(f"sweep.{key} needs at least one value", cfg.line("sweep", key))
    cap = cfg.get("sweep", "cap")
    combos = sorted(itertools.product(*lists))
    if len(combos) > cap:
        raise ConfigError(f"sweep of {len(combos)} runs exceeds the cap {cap}")

    # rows that differ only in p share one family's checks, run and _sweep_row call
    families = [(replace(family, **dict(zip(varied, key))), [c[3] for c in group])
                for key, group in itertools.groupby(combos, key=lambda c: c[:3])]
    checked = [_sweep_family(cfg, fam) for fam, _ in families]
    # every family that passes the Lyapunov check evolves in one stack
    runs = [run for *_, run in checked if run is not None]
    dt, t_final, theta, store_every = time_from_config(cfg)
    trajs = iter(evolve([op for _, op, _ in runs], [f for *_, f in runs], t_final, dt=dt,
                        theta=theta, store_every=store_every) if runs else ())
    rows = []
    for (fam, ps), (lyap, growth, run) in zip(families, checked):
        ran = (run[0], next(trajs)) if run is not None else ()
        rows += _sweep_row(cfg, fam, ps, lyap, growth, *ran)
    text = "\n".join(map(",".join, [SWEEP_COLUMNS, *rows])) + "\n"
    # the lyapunov, growth, invariance and lp_bound cells are each pass or empty
    return text, 0 if all(cell in ("pass", "") for row in rows for cell in row[4:8]) else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kolsys",
        description="Simulate weakly coupled Kolmogorov systems and verify "
                    "their semigroup properties.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, default_out, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.set_defaults(func=func, default_out=default_out)
        return p

    command("check", cmd_check, "report.txt", "certify the standing hypotheses").add_argument(
        "--kp", action="store_true", help="also report curvature suprema on a grid of c_p")
    command("simulate", cmd_simulate, "traj.csv", "evolve the system and dump a CSV").add_argument(
        "--nested", action="store_true", help="run the nested-domain ladder from [nest]")
    command("measure", cmd_measure, "density.csv", "solve the invariant density").add_argument(
        "--oracle", action="store_true",
        help="add the 1-D closed-form density and the difference")
    command("verify", cmd_verify, "report.txt", "run a property suite").add_argument(
        "--suite", choices=SUITES)
    command("sweep", cmd_sweep, "summary.csv", "parameter sweep with a CSV summary")
    return parser


def run(argv) -> int:
    """Entry point used by tests: argv excludes the program name."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = parse_config(args.config)
        text, code = args.func(args, cfg)
        # --out wins over the [output] section, which wins over the default name
        atomic_write(args.out or cfg.get("output", "out") or args.default_out, text)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
