import itertools
import os
import pickle
import re
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import kolsys.cli as cli
import kolsys.semigroup as semigroup
from kolsys.coefficients import BuiltinFamily, CoefficientField, make_builtin, rowdot
from kolsys.discretization import (
    DiscreteOperator,
    GridFunction,
    assemble_scalar_operator,
    assemble_system_operator,
    build_grid,
    grid_function_from_callable,
)
from kolsys.properties import verify_nested_convergence
from kolsys.semigroup import (
    SolveError,
    ThetaStepper,
    Trajectory,
    _window_discrepancy,
    cesaro_average,
    discrete_average,
    evolve,
    judge_ladder,
    solve_nested,
    step,
)


def exchange2_field(gamma=0.0, beta=1.0, b0=1.0):
    return make_builtin(BuiltinFamily(dim_d=1, dim_m=2, gamma=gamma, beta=beta,
                                      b0=b0, Q0=np.eye(1)))


def tanh_gauss(x):
    return [np.tanh(x[..., 0]), np.exp(-x[..., 0] ** 2)]


def test_step_zero_operator_is_identity():
    grid = build_grid(1, 1.0, 9)
    zero = DiscreteOperator(matrix=sp.csr_matrix((9, 9)), grid=grid, m=1,
                            boundary_kind="neumann", dof_indices=np.arange(9))
    u = np.linspace(-1, 1, 9)
    assert np.allclose(step(zero, u, dt=0.1, theta=0.7), u, atol=1e-14)


def test_step_implicit_euler_eigenvector():
    # u+ = v / (1 - dt * lambda) for an eigenvector v of the operator
    grid = build_grid(1, 2.0, 9, "dirichlet")
    field = CoefficientField.from_pointwise(1, 1, lambda x: np.eye(1),
                                            lambda x: np.zeros(1), lambda x: np.zeros((1, 1)))
    op = assemble_scalar_operator(field, grid)
    lam, vecs = np.linalg.eigh(op.matrix.toarray())
    v = vecs[:, 0]
    dt = 0.05
    got = step(op, v, dt=dt, theta=1.0)
    assert np.allclose(got, v / (1 - dt * lam[0]), atol=1e-12)


def test_step_preserves_constants_neumann():
    field = exchange2_field()
    grid = build_grid(1, 6.0, 41, "neumann")
    op = assemble_scalar_operator(field, grid)
    u = np.full(grid.n_nodes, 3.7)
    assert np.allclose(step(op, u, dt=1e-2, theta=0.5), u, atol=1e-12)


def test_step_nan_entry_raises():
    # a NaN residual compares False against the tolerance, so it used to pass
    field = exchange2_field()
    grid = build_grid(1, 6.0, 41, "neumann")
    op = assemble_system_operator(field, grid)
    u = op.restrict(grid_function_from_callable(grid, tanh_gauss))
    u[7] = np.nan
    with pytest.raises(SolveError, match="non-finite state"):
        step(op, u, dt=1e-2)


def test_step_rejects_non_vector():
    field = exchange2_field()
    grid = build_grid(1, 6.0, 41, "neumann")
    op = assemble_system_operator(field, grid)
    u = op.restrict(grid_function_from_callable(grid, tanh_gauss))
    with pytest.raises(ValueError, match="dof vector"):
        step(op, np.stack([u, u], axis=1), dt=1e-2)


def test_stepper_rejects_wrong_length():
    # a block's first product runs the bare CSR kernel, which checks no sizes
    op, data = _block_operator("system")
    n = op.matrix.shape[0]
    for bad in (np.zeros(n - 1), np.zeros((n + 1, 3)), np.zeros((n, 2, 2))):
        with pytest.raises(ValueError, match=f"u must have {n} rows"):
            ThetaStepper(op, 1e-2, 0.5, bad)


@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_run_equals_chained_one_step_runs(theta):
    # a run carries B x (x itself at theta = 1) from step to step; its k-th
    # state is k runs of one step each, every one made from the state before
    field = exchange2_field()
    grid = build_grid(1, 6.0, 41, "neumann")
    op = assemble_system_operator(field, grid)
    u = op.restrict(grid_function_from_callable(grid, tanh_gauss))
    stepper = ThetaStepper(op, 1e-2, theta, u[:, None])
    chained = u
    for k in range(1, 6):
        x = stepper.step()
        chained = step(op, chained, dt=1e-2, theta=theta)
        assert chained.flags.writeable
        assert np.array_equal(x[:, 0], chained), f"step {k}"
        with pytest.raises(ValueError):
            x[0, 0] = 0.0


@pytest.mark.parametrize("theta", [0.5, 1 - 1e-7, 1.0])
def test_evolve_bitwise_matches_textbook_loop(theta):
    # u <- splu(I - theta dt A).solve((I + (1 - theta) dt A) @ u), bit for bit;
    # at theta = 1 - 1e-7 a residual formed from B x alone reads ~1e-9 and
    # would reject these exact solves
    field = exchange2_field()
    grid = build_grid(1, 6.0, 81, "neumann")
    op = assemble_system_operator(field, grid)
    f = grid_function_from_callable(grid, tanh_gauss)
    dt = 1e-2
    traj = evolve(op, f, t_final=0.4, dt=dt, theta=theta, store_every=1)
    assert len(traj.snapshots) == 41

    eye = sp.identity(op.matrix.shape[0], format="csr")
    lu = spla.splu((eye - theta * dt * op.matrix).tocsc())
    rhs_matrix = eye + (1.0 - theta) * dt * op.matrix
    u = op.restrict(f)
    for k, snap in enumerate(traj.snapshots[1:], start=1):
        u = lu.solve(rhs_matrix @ u)
        assert np.array_equal(snap.values, op.embed(u).values), f"step {k}"


def _perturb_solves_from(monkeypatch, first_call):
    """From the `first_call`-th direct solve on, return the true solution
    perturbed by 1e-8 relative in a fixed random direction."""
    real_direct = ThetaStepper._direct
    calls = itertools.count(1)
    rng = np.random.default_rng(3)

    def direct(self):
        lu = real_direct(self)

        def solve(rhs):
            x = lu.solve(rhs)
            if next(calls) < first_call:
                return x
            w = rng.standard_normal(x.shape)
            return x + 1e-8 * np.linalg.norm(x) / np.linalg.norm(w) * w

        return SimpleNamespace(solve=solve)

    monkeypatch.setattr(ThetaStepper, "_direct", direct)


@pytest.mark.parametrize("theta", [0.0, 0.5, 0.995, 1.0])
def test_evolve_rejects_solution_off_by_1e8(monkeypatch, theta):
    # negative control for the per-step residual check, on every product path:
    # steps 1-29 are exact, step 30 is 1e-8 off
    field = exchange2_field()
    grid = build_grid(1, 6.0, 81, "neumann")
    op = assemble_system_operator(field, grid)
    f = grid_function_from_callable(grid, tanh_gauss)
    _perturb_solves_from(monkeypatch, 30)
    with pytest.raises(SolveError, match=r"residual \S+ exceeds 1e-10 at t = 0\.3$"):
        evolve(op, f, t_final=0.5, dt=1e-2, theta=theta)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_explicit_euler_above_stability_limit_raises():
    # h = 0.1, so dt = 0.1 is far above the explicit limit ~h^2 / 2
    field = exchange2_field()
    grid = build_grid(1, 6.0, 121, "neumann")
    op = assemble_system_operator(field, grid)
    f = grid_function_from_callable(grid, tanh_gauss)
    dt = 0.1
    with pytest.raises(SolveError, match="time step unstable") as err:
        evolve(op, f, t_final=100.0, dt=dt, theta=0.0)
    t = float(re.fullmatch(r"non-finite state at t = (\S+); .*", str(err.value)).group(1))
    assert 0 < t < 100.0
    assert abs(t / dt - round(t / dt)) < 1e-6


def test_evolve_kernel_direction_is_fixed():
    field = exchange2_field()
    grid = build_grid(1, 6.0, 81, "neumann")
    op = assemble_system_operator(field, grid)
    xi = np.array([1.0, 1.0]) / np.sqrt(2)
    f = GridFunction(grid, np.repeat(xi[:, None], grid.n_nodes, axis=1))
    traj = evolve(op, f, t_final=0.5, dt=1e-2, theta=0.5)
    for snap in traj.snapshots:
        assert np.max(np.abs(snap.values - f.values)) <= 1e-10


def test_evolve_initial_snapshot_exact():
    field = exchange2_field()
    grid = build_grid(1, 6.0, 41, "dirichlet")
    op = assemble_system_operator(field, grid)
    f = grid_function_from_callable(grid, tanh_gauss)
    traj = evolve(op, f, t_final=0.05, dt=1e-2)
    assert np.array_equal(traj.snapshots[0].values, f.values)


def test_trajectory_values_read_only():
    # stored runs are shared (solve_nested's `runs`) and the snapshot views
    # point into them, so no check may write to a run another check reads
    grid = build_grid(1, 6.0, 41, "dirichlet")
    op = assemble_system_operator(exchange2_field(), grid)
    f = grid_function_from_callable(grid, tanh_gauss)
    traj = evolve(op, f, t_final=0.1, dt=1e-2, store_every=5)
    assert traj.values.shape == (3, 2, grid.n_nodes)
    assert np.all(traj.values[1:, :, [0, -1]] == 0.0)       # the Dirichlet boundary
    u = op.restrict(f)
    for k in range(1, 11):
        u = step(op, u, 1e-2)
        if k % 5 == 0:
            assert np.array_equal(traj.values[k // 5], op.embed(u).values)
    with pytest.raises(ValueError, match="read-only"):
        traj.values[1, 0, 5] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        traj.snapshots[1].values[0, 5] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        traj.snapshot_at(0.05).values[0] += 1.0
    assert np.shares_memory(traj.snapshot_at(0.05).values, traj.values)
    with pytest.raises(ValueError, match="n_times, m, N"):
        Trajectory(times=np.array([0.0]), values=np.ones((2, 1, grid.n_nodes)), grid=grid,
                   dt=1.0, theta=0.5, boundary_kind="dirichlet")


def test_trajectory_stays_read_only_through_pickle():
    # a run received from a worker process is unpickled, which bypasses __post_init__
    grid = build_grid(1, 6.0, 41, "neumann")
    op = assemble_system_operator(exchange2_field(), grid)
    traj = evolve(op, grid_function_from_callable(grid, tanh_gauss), t_final=0.1, dt=1e-2)
    back = pickle.loads(pickle.dumps(traj, pickle.HIGHEST_PROTOCOL))
    assert _same_trajectory(back, traj)
    with pytest.raises(ValueError, match="read-only"):
        back.values[1, 0, 5] = 1.0


@pytest.mark.parametrize("store_every", [0, -5])
def test_evolve_rejects_store_every_below_one(store_every):
    grid = build_grid(1, 2.0, 21, "neumann")
    op = assemble_system_operator(exchange2_field(), grid)
    f = grid_function_from_callable(grid, tanh_gauss)
    with pytest.raises(ValueError, match="store_every must be at least 1"):
        evolve(op, f, t_final=0.05, dt=1e-2, store_every=store_every)


@pytest.mark.parametrize("t_final", [0.0105, 0.0004])
def test_evolve_rejects_a_t_final_that_is_not_a_multiple_of_dt(t_final):
    # such a t_final used to run round(t_final / dt) steps, at least one,
    # and end the run at another time than asked
    grid = build_grid(1, 2.0, 21, "neumann")
    op = assemble_system_operator(exchange2_field(), grid)
    f = grid_function_from_callable(grid, tanh_gauss)
    with pytest.raises(ValueError, match=f"t_final {t_final} is not a multiple of dt = 0.001"):
        evolve(op, f, t_final=t_final, dt=1e-3)
    assert evolve(op, f, t_final=0.0105, dt=1.5e-3).times[-1] == pytest.approx(0.0105)


def test_markov_property_scalar_neumann():
    field = exchange2_field()
    grid = build_grid(1, 6.0, 81, "neumann")
    op = assemble_scalar_operator(field, grid)
    one = GridFunction(grid, np.ones((1, grid.n_nodes)))
    traj = evolve(op, one, t_final=1.0, dt=1e-2, theta=1.0)
    for snap in traj.snapshots:
        assert np.max(np.abs(snap.values - 1.0)) <= 1e-10


def test_implicit_euler_sup_nonexpansive():
    field = exchange2_field()
    grid = build_grid(1, 6.0, 161, "neumann")
    op = assemble_scalar_operator(field, grid)
    f = grid_function_from_callable(grid, lambda x: np.tanh(x[..., 0]))
    traj = evolve(op, f, t_final=0.5, dt=5e-3, theta=1.0, store_every=1)
    sups = [np.max(np.abs(s.values)) for s in traj.snapshots]
    for prev, nxt in zip(sups, sups[1:]):
        assert nxt <= prev + 1e-10


def test_positivity_of_nonnegative_data():
    field = exchange2_field()
    grid = build_grid(1, 6.0, 161, "neumann")
    op = assemble_system_operator(field, grid)
    f = grid_function_from_callable(grid, lambda x: [np.exp(-x[..., 0] ** 2), 0.0])
    traj = evolve(op, f, t_final=1.0, dt=2e-3, theta=1.0)
    assert min(np.min(s.values) for s in traj.snapshots) >= -1e-8


@pytest.mark.parametrize("theta,min_order", [(1.0, 0.9), (0.5, 1.8)])
def test_time_refinement_order(theta, min_order):
    field = exchange2_field()
    grid = build_grid(1, 4.0, 81, "neumann")
    op = assemble_system_operator(field, grid)
    f = grid_function_from_callable(grid, tanh_gauss)
    finals = []
    for dt in (4e-3, 2e-3, 1e-3):
        traj = evolve(op, f, t_final=0.5, dt=dt, theta=theta, store_times=[0.5])
        finals.append(traj.snapshots[-1].values)
    e1 = np.max(np.abs(finals[0] - finals[1]))
    e2 = np.max(np.abs(finals[1] - finals[2]))
    assert np.log2(e1 / e2) >= min_order


def test_vector_scalar_reduction_along_kernel():
    # <T(t)f, xi> equals the scalar evolution of <f, xi>
    field = exchange2_field()
    grid = build_grid(1, 6.0, 81, "neumann")
    op_sys = assemble_system_operator(field, grid)
    op_scal = assemble_scalar_operator(field, grid)
    xi = np.array([1.0, 1.0]) / np.sqrt(2)
    f = grid_function_from_callable(grid, tanh_gauss)
    fv = GridFunction(grid, xi @ f.values)
    traj_v = evolve(op_sys, f, t_final=0.5, dt=2e-3, theta=0.5)
    traj_s = evolve(op_scal, fv, t_final=0.5, dt=2e-3, theta=0.5)
    for sv, ss in zip(traj_v.snapshots, traj_s.snapshots):
        assert np.max(np.abs(xi @ sv.values - ss.values[0])) <= 1e-8


def test_cesaro_average_constant():
    grid = build_grid(1, 1.0, 9)
    xi = np.array([0.6, 0.8])
    values = np.repeat(xi[None, :, None], 9, axis=2).repeat(5, axis=0)
    traj = Trajectory(times=np.linspace(0, 1, 5), values=values, grid=grid,
                      dt=0.25, theta=0.5, boundary_kind="neumann")
    avg = cesaro_average(traj)
    assert np.allclose(avg.values, values[0], atol=1e-14)


def test_cesaro_average_exponential_decay():
    # u(t) = exp(-t) v integrates to (1 - e^-1) v on [0, 1]
    grid = build_grid(1, 1.0, 9)
    v = np.linspace(1, 2, 9)
    times = np.linspace(0, 1, 101)
    traj = Trajectory(times=times, values=np.exp(-times)[:, None, None] * v[None, None, :],
                      grid=grid, dt=0.01, theta=0.5, boundary_kind="neumann")
    avg = cesaro_average(traj)
    expected = (1 - np.exp(-1.0)) * v
    assert np.max(np.abs(avg.values[0] - expected)) <= 2e-5 * np.max(v)


def test_cesaro_needs_two_snapshots():
    grid = build_grid(1, 1.0, 9)
    traj = Trajectory(times=np.array([0.0]), values=np.ones((1, 1, 9)),
                      grid=grid, dt=1.0, theta=0.5, boundary_kind="neumann")
    with pytest.raises(ValueError):
        cesaro_average(traj)


def test_discrete_average_single_term():
    field = exchange2_field()
    grid = build_grid(1, 6.0, 41, "neumann")
    op = assemble_system_operator(field, grid)
    f = grid_function_from_callable(grid, tanh_gauss)
    avg = discrete_average(op, f, n=1)
    assert np.array_equal(avg.values, f.values)


def test_discrete_average_kernel_direction():
    field = exchange2_field()
    grid = build_grid(1, 6.0, 41, "neumann")
    op = assemble_system_operator(field, grid)
    xi = np.array([1.0, 1.0]) / np.sqrt(2)
    f = GridFunction(grid, np.repeat(xi[:, None], grid.n_nodes, axis=1))
    avg = discrete_average(op, f, n=3, dt=1e-2)
    assert np.max(np.abs(avg.values - f.values)) <= 1e-9


def test_nested_discrepancies_decrease():
    # weakly confining drift: domain truncation is measurable on every rung
    field = exchange2_field(beta=0.0, b0=0.5)
    result = solve_nested(field, tanh_gauss, t_final=2.0,
                          ladder=[(4.0, 161), (6.0, 241), (8.0, 321)],
                          nest_tol=1e-3, r_obs=3.0, dt=4e-3)
    assert result.discrepancies[0] > 1e-3        # rung 4 -> 6 clearly visible
    assert result.discrepancies[1] < result.discrepancies[0]
    assert result.converged
    assert result.dirichlet_neumann_gap <= 2 * result.discrepancies[-1]


def test_nested_quartic_drift_boundary_negligible():
    # strongly confining drift: every rung already agrees to solver precision
    field = exchange2_field()
    result = solve_nested(field, tanh_gauss, t_final=0.5,
                          ladder=[(4.0, 161), (6.0, 241), (8.0, 321)],
                          nest_tol=1e-10, r_obs=3.0, dt=2e-3)
    assert all(d <= 1e-10 for d in result.discrepancies)
    assert result.converged
    assert result.dirichlet_neumann_gap <= 1e-10


def test_nested_small_time_compact_support():
    field = exchange2_field()

    def bump(x):
        r2 = x[..., 0] ** 2
        val = np.where(r2 < 1, (1 - r2) ** 3, 0.0)
        return [val, 0.5 * val]

    result = solve_nested(field, bump, t_final=0.01,
                          ladder=[(4.0, 161), (6.0, 241)],
                          nest_tol=1e-8, r_obs=3.0, dt=1e-3)
    assert result.discrepancies[0] <= 1e-8
    assert result.converged


def test_nested_converged_is_the_shipped_verdict():
    # b = -0.2 x: the last rung is within nest_tol (7.0e-3 <= 1e-2), but the
    # Dirichlet-Neumann gap 3.8e-2 exceeds max(2 x 7.0e-3, 1e-2)
    result = solve_nested(exchange2_field(beta=0.0, b0=0.2), tanh_gauss, t_final=2.0,
                          ladder=[(3.0, 61), (4.0, 81), (5.0, 101)],
                          nest_tol=1e-2, r_obs=2.0, dt=1e-2)
    assert result.discrepancies[-1] == pytest.approx(7.02e-3, abs=1e-5)
    assert result.dirichlet_neumann_gap == pytest.approx(3.84e-2, abs=1e-4)
    assert not result.converged
    assert not verify_nested_convergence(result, 1e-2).passed


def test_evolve_2d_markov_and_positivity():
    # 71^2 = 5041 nodes, 10,082 dofs, through the d = 2 direct solve
    fam = BuiltinFamily(dim_d=2, dim_m=2, gamma=0.0, beta=1.0, b0=1.0,
                        Q0=np.array([[1.0, 0.2], [0.2, 1.0]]))
    field = make_builtin(fam)
    grid = build_grid(2, 3.0, 71, "neumann")
    op = assemble_system_operator(field, grid)
    xi = np.array([1.0, 1.0]) / np.sqrt(2)
    f = GridFunction(grid, np.repeat(xi[:, None], grid.n_nodes, axis=1))
    traj = evolve(op, f, t_final=0.05, dt=1e-2, theta=1.0)
    assert np.max(np.abs(traj.snapshots[-1].values - f.values)) <= 1e-9

    g = grid_function_from_callable(
        grid, lambda x: [np.exp(-rowdot(x, x)), 0.0])
    traj_g = evolve(op, g, t_final=0.05, dt=1e-2, theta=1.0)
    assert min(np.min(s.values) for s in traj_g.snapshots) >= -1e-8


def test_2d_steps_take_one_direct_factor_in_mmd_order(monkeypatch):
    def no_iterative_solves(*args, **kwargs):
        raise AssertionError("d = 2 steps must not take an iterative solve")

    monkeypatch.setattr(spla, "spilu", no_iterative_solves)
    monkeypatch.setattr(spla, "bicgstab", no_iterative_solves)
    factorizations = []
    real_splu = spla.splu

    def counting_splu(*args, **kwargs):
        factorizations.append(args)
        return real_splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    fam = BuiltinFamily(dim_d=2, dim_m=2, gamma=1.0, beta=1.0, b0=1.0,
                        Q0=np.array([[2.0, 0.5], [0.5, 1.0]]))
    grid = build_grid(2, 3.0, 71, "neumann")
    op = assemble_system_operator(make_builtin(fam), grid)
    u = op.restrict(grid_function_from_callable(
        grid, lambda x: [np.exp(-rowdot(x, x)), np.tanh(x[..., 0] - x[..., 1])]))
    stepper = ThetaStepper(op, 1e-2, 0.5, u[:, None])
    for _ in range(5):
        x = stepper.step()
    assert len(factorizations) == 1

    # one more step from x, checked here against M x+ = B x
    rhs = (sp.identity(u.size) + 0.5e-2 * op.matrix) @ x[:, 0]
    x_next = stepper.step()
    assert np.linalg.norm(stepper.M @ x_next[:, 0] - rhs) <= 1e-10 * np.linalg.norm(rhs)
    perm_c = stepper._lu.perm_c
    assert np.array_equal(perm_c, real_splu(stepper.M, permc_spec="MMD_AT_PLUS_A").perm_c)
    assert not np.array_equal(perm_c, real_splu(stepper.M).perm_c)


@pytest.mark.parametrize("d", [1, 2])
def test_window_discrepancy_pairs_nodes_by_coordinate(d):
    # reference: pair the window nodes of two boxes by their coordinates in
    # units of h, one node at a time
    rng = np.random.default_rng(d)
    trajs = []
    for L, n in ((2.0, 21), (3.0, 31)):
        grid = build_grid(d, L, n, "neumann")
        trajs.append(Trajectory(times=np.array([0.0, 0.1, 0.2]),
                                values=rng.standard_normal((3, 2, grid.n_nodes)), grid=grid,
                                dt=0.1, theta=0.5, boundary_kind="neumann"))
    r_obs = 1.5
    index = [{tuple(np.round(x / t.grid.h).astype(int)): i for i, x in enumerate(t.grid.nodes)
              if np.all(np.abs(x) <= r_obs + 1e-9)} for t in trajs]
    assert set(index[0]) == set(index[1])
    reference = max(abs(sa.values[c, index[0][key]] - sb.values[c, index[1][key]])
                    for sa, sb in zip(trajs[0].snapshots, trajs[1].snapshots)
                    for key in index[0] for c in range(2))
    assert _window_discrepancy(trajs[0], trajs[1], r_obs) == reference
    assert _window_discrepancy(trajs[1], trajs[0], r_obs) == reference


def test_nested_rejects_bad_ladder():
    field = exchange2_field()
    with pytest.raises(ValueError):
        solve_nested(field, tanh_gauss, 0.1, [(6.0, 241), (4.0, 161)],
                     nest_tol=1e-6, r_obs=3.0)
    with pytest.raises(ValueError):
        solve_nested(field, tanh_gauss, 0.1, [(4.0, 161), (6.0, 241)],
                     nest_tol=1e-6, r_obs=5.0)


# -- batched stepping: data that share an operator step as one block ----------

def _block_operator(kind):
    """A small operator of each kind and four distinct data on its grid."""
    if kind == "d2":
        field = make_builtin(BuiltinFamily(dim_d=2, dim_m=2, gamma=0.0, beta=1.0, b0=1.0,
                                           Q0=np.array([[1.0, 0.2], [0.2, 1.0]])))
        grid = build_grid(2, 3.0, 15, "neumann")
    else:
        field = exchange2_field()
        grid = build_grid(1, 6.0, 81, "neumann")
    if kind == "scalar":
        op = assemble_scalar_operator(field, grid)
        data = [grid_function_from_callable(grid, lambda x, a=a: np.tanh(a * x[..., 0]), m=1)
                for a in (0.5, 1.0, 2.0, 3.0)]
    else:
        op = assemble_system_operator(field, grid)
        data = [grid_function_from_callable(
            grid, lambda x, a=a: [np.tanh(a * x[..., 0]), np.exp(-a * rowdot(x, x))])
            for a in (0.5, 1.0, 2.0, 3.0)]
    return op, data


def _same_trajectory(a, b):
    return (np.array_equal(a.times, b.times) and len(a.snapshots) == len(b.snapshots)
            and all(np.array_equal(sa.values, sb.values)
                    for sa, sb in zip(a.snapshots, b.snapshots)))


@pytest.mark.parametrize("theta", [0.0, 0.5, 0.995, 1.0])
@pytest.mark.parametrize("kind", ["system", "scalar", "d2"])
def test_batched_evolve_equals_per_datum_bitwise(kind, theta):
    op, data = _block_operator(kind)
    for k in (1, 2, 4):
        for store in ({"store_every": 3}, {"store_times": [0.01, 0.02, 0.04]}):
            batch = evolve(op, data[:k], t_final=0.04, dt=2e-3, theta=theta, **store)
            assert len(batch) == k
            for f, traj in zip(data, batch):
                alone = evolve(op, f, t_final=0.04, dt=2e-3, theta=theta, **store)
                assert _same_trajectory(traj, alone), (k, store)


def test_block_step_columns_equal_vector_steps():
    op, data = _block_operator("system")
    block = np.array([op.restrict(f) for f in data[:3]]).T
    stepper = ThetaStepper(op, 1e-2, 0.5, block)
    stepper.step()
    x = stepper.step()
    assert x.shape == block.shape and not x.flags.writeable
    for j in range(3):
        alone = ThetaStepper(op, 1e-2, 0.5, block[:, j:j + 1])
        alone.step()
        assert np.array_equal(x[:, j], alone.step()[:, 0])


def _perturbed(x, rng):
    """x off by 1e-8 relative in a random direction."""
    w = rng.standard_normal(x.shape)
    return x + 1e-8 * np.linalg.norm(x) / np.linalg.norm(w) * w


def _perturb_column_from(monkeypatch, column, first_step):
    """From the `first_step`-th block solve on, return the true solution with
    `column` perturbed by 1e-8 relative."""
    real_direct = ThetaStepper._direct
    block_solves = itertools.count(1)
    rng = np.random.default_rng(3)

    def direct(self):
        lu = real_direct(self)

        def solve(rhs):
            x = lu.solve(rhs)
            if next(block_solves) >= first_step:
                x[:, column] = _perturbed(x[:, column], rng)
            return x

        return SimpleNamespace(solve=solve)

    monkeypatch.setattr(ThetaStepper, "_direct", direct)


@pytest.mark.parametrize("theta", [0.0, 0.5, 0.995, 1.0])
def test_batched_evolve_rejects_one_column_off_by_1e8(monkeypatch, theta):
    # negative control for the column-wise residual: columns 0, 1 and 3 are
    # exact throughout, column 2 is 1e-8 off from step 30 on
    op, data = _block_operator("system")
    _perturb_column_from(monkeypatch, 2, 30)
    with pytest.raises(SolveError,
                       match=r"residual \S+ exceeds 1e-10 at t = 0\.3 in column 2$"):
        evolve(op, data, t_final=0.5, dt=1e-2, theta=theta)


@pytest.mark.parametrize("kind", ["system", "d2"])
@pytest.mark.parametrize("k", [None, 3])
def test_failing_column_raises_after_its_one_solve(monkeypatch, kind, k):
    # the solve is deterministic, so a column whose solve misses the residual
    # fails the step at once; k = None steps a lone datum
    op, data = _block_operator(kind)
    u = np.array([op.restrict(f) for f in data[:k or 1]]).T
    stepper = ThetaStepper(op, 1e-2, 0.5, u)
    bad = 0 if k is None else 1
    # B u as the stepper forms it
    B = (sp.identity(u.shape[0], format="csr") + (1.0 - 0.5) * 1e-2 * op.matrix).tocsr()
    bad_rhs = B @ u[:, bad]
    real_direct = ThetaStepper._direct
    rng = np.random.default_rng(5)
    solved = []                                  # one entry per column solved

    def direct(self):
        lu = real_direct(self)

        def solve(rhs):
            x = lu.solve(rhs)
            cols = x[:, None] if x.ndim == 1 else x
            for j, rhs_j in enumerate(rhs.T if rhs.ndim == 2 else [rhs]):
                solved.append(np.array_equal(rhs_j, bad_rhs))
                if solved[-1]:
                    cols[:, j] = _perturbed(cols[:, j], rng)
            return x

        return SimpleNamespace(solve=solve)

    monkeypatch.setattr(ThetaStepper, "_direct", direct)
    where = "" if k is None else f" in column {bad}"
    with pytest.raises(SolveError, match=rf"residual \S+ exceeds 1e-10 at t = 0\.01{where}$"):
        stepper.step()
    assert len(solved) == (1 if k is None else k)
    assert solved.count(True) == 1


def test_block_step_nan_in_one_column_raises():
    op, data = _block_operator("system")
    block = np.array([op.restrict(f) for f in data[:3]]).T
    block[7, 1] = np.nan
    with pytest.raises(SolveError, match=r"non-finite state at t = 0\.01 in column 1; "):
        ThetaStepper(op, 1e-2, 0.5, block).step()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_batched_explicit_euler_names_the_unstable_column():
    # explicit Euler far above its stability limit: the kernel direction
    # stays fixed in column 0, the tanh/gauss datum in column 1 blows up
    field = exchange2_field()
    grid = build_grid(1, 6.0, 121, "neumann")
    op = assemble_system_operator(field, grid)
    xi = GridFunction(grid, np.full((2, grid.n_nodes), 1.0 / np.sqrt(2)))
    f = grid_function_from_callable(grid, tanh_gauss)
    with pytest.raises(SolveError, match=r"non-finite state at t = \S+ in column 1; "):
        evolve(op, [xi, f], t_final=100.0, dt=0.1, theta=0.0)


def test_batched_evolve_rejects_mixed_or_empty_batches():
    op, data = _block_operator("system")
    other_grid = build_grid(1, 4.0, 81, "neumann")
    on_other = grid_function_from_callable(other_grid, tanh_gauss)
    scalar = grid_function_from_callable(op.grid, lambda x: np.tanh(x[..., 0]), m=1)
    for batch in ([], [data[0], on_other], [data[0], scalar]):
        with pytest.raises(ValueError):
            evolve(op, batch, t_final=0.1, dt=1e-2)


def test_judged_ladder_runs_equal_solve_nested(monkeypatch):
    # the runs simulate --nested makes, as two row-balanced stacks on two
    # pretended cores (the second in a worker) and as one stack on one core,
    # come back in ladder order, and judged there they give solve_nested's
    # result field for field
    field = exchange2_field()
    ladder, r_obs = [(4.0, 161), (6.0, 241), (8.0, 321)], 3.0
    plain = solve_nested(field, tanh_gauss, t_final=0.02, ladder=ladder, nest_tol=1e-8,
                         r_obs=r_obs, dt=1e-3)
    grids, data = semigroup.nested_ladder(field, tanh_gauss, ladder, r_obs)
    for cores in ({0, 1}, {0}):
        with monkeypatch.context() as mp:
            mp.setattr(os, "sched_getaffinity", lambda pid: cores)
            if len(cores) == 1:
                mp.setattr(os, "fork", lambda: pytest.fail("forked on one core"))
            runs = cli._ladder_runs(field, grids, data, 0.02, 1e-3, 0.5, None)
        assert [(r.grid.L, r.boundary_kind) for r in runs] == \
            [(g.L, g.boundary_kind) for g in grids]
        result = judge_ladder(runs, r_obs, 1e-8)
        assert result.trajectory is runs[-2]
        assert _same_trajectory(result.trajectory, plain.trajectory)
        assert (result.discrepancies, result.converged, result.dirichlet_neumann_gap) == \
            (plain.discrepancies, plain.converged, plain.dirichlet_neumann_gap)


# -- stacked stepping: runs on different operators step as one block-diagonal system

def _stack_recorder(monkeypatch):
    """Record every evolve call solve_nested makes: (operators, data, result)."""
    calls = []
    real_evolve = semigroup.evolve

    def recording_evolve(op, f, *args, **kwargs):
        result = real_evolve(op, f, *args, **kwargs)
        calls.append((op, f, result))
        return result

    monkeypatch.setattr(semigroup, "evolve", recording_evolve)
    return calls


@pytest.mark.parametrize("d", [1, 2])
def test_stacked_nested_runs_equal_their_lone_evolves_bitwise(monkeypatch, d):
    # d = 1: the [nest] ladder of configs/exchange2.cfg and its field, whose
    # L = 8 rung pivots, plus the Dirichlet twin of that rung; d = 2: a small
    # two-rung ladder with a cross term
    if d == 1:
        field, f_fn, ladder, r_obs = exchange2_field(), tanh_gauss, \
            [(4.0, 321), (6.0, 481), (8.0, 641)], 3.0
    else:
        field = make_builtin(BuiltinFamily(dim_d=2, dim_m=2, gamma=1.0, beta=1.0, b0=1.0,
                                           Q0=np.array([[2.0, 0.5], [0.5, 1.0]])))
        f_fn, ladder, r_obs = (lambda x: [np.tanh(x[..., 0] - x[..., 1]),
                                          np.exp(-rowdot(x, x))]), [(2.0, 21), (3.0, 31)], 1.5
    calls = _stack_recorder(monkeypatch)
    result = solve_nested(field, f_fn, t_final=0.05, ladder=ladder, nest_tol=1.0,
                          r_obs=r_obs, dt=1e-3, store_every=10)
    [(ops, data, stack)] = calls
    assert [(o.grid.L, o.grid.n_per_axis, o.boundary_kind) for o in ops] == \
        [(L, n, "neumann") for L, n in ladder] + [(*ladder[-1], "dirichlet")]
    assert result.trajectory is stack[-2]
    for op, f, traj in zip(ops, data, stack):
        alone = evolve(op, f, t_final=0.05, dt=1e-3, store_every=10)
        assert _same_trajectory(traj, alone), op.grid


def test_nested_takes_every_run_from_runs_and_evolves_none(monkeypatch):
    # the rungs and the Dirichlet twin, evolved elsewhere as one stack
    field = exchange2_field()
    kwargs = dict(t_final=0.02, ladder=[(4.0, 161), (6.0, 241)], nest_tol=1e-8, r_obs=3.0,
                  dt=1e-3)
    plain = solve_nested(field, tanh_gauss, **kwargs)
    grids, data = semigroup.nested_ladder(field, tanh_gauss, kwargs["ladder"], 3.0)
    assert [(g.L, g.boundary_kind) for g in grids] == \
        [(4.0, "neumann"), (6.0, "neumann"), (6.0, "dirichlet")]
    runs = evolve([assemble_system_operator(field, g) for g in grids], data, 0.02, dt=1e-3)
    calls = _stack_recorder(monkeypatch)
    result = judge_ladder(runs, 3.0, 1e-8)
    assert calls == []
    assert result.trajectory is runs[1]
    assert (result.discrepancies, result.dirichlet_neumann_gap) == \
        (plain.discrepancies, plain.dirichlet_neumann_gap)


def _stack():
    """Operators of several boxes and both boundary kinds on d = 1 grids,
    each with two data."""
    field = exchange2_field()
    grids = [build_grid(1, 6.0, 81, "neumann"), build_grid(1, 6.0, 41, "dirichlet"),
             build_grid(1, 4.0, 61, "neumann")]
    ops = [assemble_system_operator(field, grid) for grid in grids]
    data = [[grid_function_from_callable(
        grid, lambda x, a=a: [np.tanh(a * x[..., 0]), np.exp(-a * x[..., 0] ** 2)])
        for a in (0.5, 2.0)] for grid in grids]
    return ops, data


@pytest.mark.parametrize("theta", [0.0, 0.5, 0.995, 1.0])
def test_stacked_evolve_equals_each_operator_alone_bitwise(theta):
    ops, data = _stack()
    kwargs = dict(t_final=0.04, dt=2e-3, theta=theta, store_times=[0.01, 0.02])
    for batch in (data, [d[0] for d in data]):
        stack = evolve(ops, batch, **kwargs)
        assert len(stack) == len(ops)
        for op, f, got in zip(ops, batch, stack):
            alone = evolve(op, f, **kwargs)
            pairs = zip(got, alone) if isinstance(f, list) else [(got, alone)]
            assert all(_same_trajectory(a, b) for a, b in pairs)


@pytest.mark.parametrize("m", [1, 3])
def test_stacked_d1_runs_with_m_other_than_2_agree_to_round_off(m):
    # at d = 1 COLAMD on the whole stack orders scalar or three-component
    # operators of different sizes differently from each operator alone; the
    # stack is factored under each block's own order, so the runs are equal
    field = make_builtin(BuiltinFamily(dim_d=1, dim_m=max(m, 2), gamma=0.0, beta=1.0, b0=1.0,
                                       Q0=np.eye(1), coupling_kind="zeta3" if m == 3 else
                                       "exchange2"))
    assemble = assemble_scalar_operator if m == 1 else assemble_system_operator
    grids = [build_grid(1, L, n, "neumann") for L, n in ((4.0, 81), (6.0, 121), (8.0, 161))]
    ops = [assemble(field, grid) for grid in grids]
    data = [grid_function_from_callable(grid, lambda x: [np.tanh(x[..., 0] + k) for k in range(m)],
                                        m=m) for grid in grids]
    kwargs = dict(t_final=0.2, dt=2e-3, store_every=10)
    for op, f, got in zip(ops, data, evolve(ops, data, **kwargs)):
        alone = evolve(op, f, **kwargs)
        assert _same_trajectory(got, alone)


def test_stacked_evolve_rejects_ragged_or_mixed_stacks():
    ops, data = _stack()
    op2, data2 = _block_operator("d2")
    for stack, batch in ((ops, data[:2]), (ops, [data[0], data[1][0], data[2]]),
                         ([ops[0], op2], [data[0][0], data2[0]]), ([], []),
                         (ops, [data[0], data[1], [data[2][0]] * 3])):
        with pytest.raises(ValueError):
            evolve(stack, batch, t_final=0.1, dt=1e-2)


def test_stacked_solve_off_by_1e9_in_one_block_names_that_block(monkeypatch):
    # negative control for the residual of each (block, column) segment: the
    # solve of block 1 is 1e-9 off (relative to that block) from step 30 on,
    # every other block is exact.  Block 1 carries a datum 1e-3 the size of
    # the others, so a residual over the whole stacked column would read
    # about 1e-12 and miss it.
    ops, data = _stack()
    batch = [data[0][0], GridFunction(data[1][0].grid, 1e-3 * data[1][0].values), data[2][0]]
    ends = np.cumsum([o.matrix.shape[0] for o in ops])
    lo, hi = ends[0], ends[1]
    real_direct = ThetaStepper._direct
    solves = itertools.count(1)
    rng = np.random.default_rng(7)

    def direct(self):
        lu = real_direct(self)

        def solve(rhs):
            x = lu.solve(rhs)
            if next(solves) >= 30:
                w = rng.standard_normal(hi - lo)
                x[lo:hi, 0] += 1e-9 * np.linalg.norm(x[lo:hi, 0]) / np.linalg.norm(w) * w
            return x

        return SimpleNamespace(solve=solve)

    monkeypatch.setattr(ThetaStepper, "_direct", direct)
    with pytest.raises(SolveError, match=r"residual \S+ exceeds 1e-10 at t = 0\.3 in block 1 "
                                         r"\(dirichlet, L = 6, 41 nodes per axis\)$"):
        evolve(ops, batch, t_final=0.5, dt=1e-2)


def test_stacked_nan_names_the_block_and_column():
    ops, data = _stack()
    u = np.vstack([np.array([o.restrict(g) for g in d]).T for o, d in zip(ops, data)])
    lo = u.shape[0] - ops[2].matrix.shape[0]
    u[lo + 3, 1] = np.nan
    stepper = ThetaStepper(ops, 1e-2, 0.5, u)
    assert stepper.blocks[2][0] == lo
    with pytest.raises(SolveError, match=r"non-finite state at t = 0\.01 in block 2 "
                                         r"\(neumann, L = 4, 61 nodes per axis\), column 1; "):
        stepper.step()
