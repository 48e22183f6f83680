"""Time stepping for the coupled parabolic system: theta-scheme, nested domains,
Cesaro averages.

A theta-step solves (I - theta dt A) x = (I + (1 - theta) dt A) u with one
linear solve and one sparse product, and checks the relative residual of
that solve on every step (see ThetaStepper).  Every datum steps as a column
of an (n, k) block, a lone datum as k = 1: evolve takes a list of data that
share an operator, dt and theta and steps them together, with one
factorization for all of them.  Runs on different operators that share dt,
theta, t_final and the stored times step as the blocks of one
block-diagonal system, in one loop with one factorization: solve_nested
stacks its rungs and the other-boundary twin this way.  Every (block,
column) segment is held to the 1e-10 relative residual on its own, and
equals, bit for bit, the run of that datum alone (see ThetaStepper).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.blas import daxpy, ddot
from scipy.sparse import _sparsetools

from kolsys.discretization import (
    DiscreteOperator,
    GridFunction,
    assemble_system_operator,
    build_grid,
    grid_function_from_callable,
)

SOLVE_RTOL = 1e-10
# largest theta whose step residual is formed from B x alone (see ThetaStepper);
# that residual's round-off grows like 1e-16 / (1 - theta)
FUSED_THETA_MAX = 0.99


class SolveError(RuntimeError):
    pass


@dataclass
class Trajectory:
    """One evolve run: `values[i]` is the (m, N) state at `times[i]` on the
    full grid, and values[0] the initial datum.  `values`, of shape
    (n_times, m, N), is read-only: runs are shared (solve_nested's `runs`),
    and the GridFunctions of `snapshots` and `snapshot_at` are views of it."""

    times: np.ndarray
    values: np.ndarray
    grid: "object"
    dt: float
    theta: float
    boundary_kind: str

    def __post_init__(self):
        # a view: the flag below leaves the caller's own array writable
        v = self.values = np.asarray(self.values, dtype=float).view()
        if v.ndim != 3 or (v.shape[0], v.shape[2]) != (len(self.times), self.grid.n_nodes):
            raise ValueError("values must have shape (n_times, m, N)")
        v.setflags(write=False)

    def __setstate__(self, state):
        # unpickling bypasses __post_init__: a run received from another
        # process is read-only as well
        self.__dict__.update(state)
        self.values.setflags(write=False)

    @property
    def m(self):
        return self.values.shape[1]

    @property
    def snapshots(self):
        """The stored states as GridFunction views, in time order."""
        return [GridFunction(self.grid, v) for v in self.values]

    def snapshot_at(self, t, tol=1e-9):
        """The stored state at time t, as a GridFunction view."""
        hits = np.flatnonzero(np.abs(self.times - t) <= tol)
        if hits.size == 0:
            raise KeyError(f"no snapshot stored at t = {t}")
        return GridFunction(self.grid, self.values[hits[0]])


@dataclass
class NestedSolveResult:
    """A nested-ladder run; `converged` is `nested_converged` at the solve's nest_tol."""

    trajectory: Trajectory
    discrepancies: list
    converged: bool
    dirichlet_neumann_gap: float | None = None


class ThetaStepper:
    """Factorized M = I - theta dt A, stepping M x = B u with B = I + (1 - theta) dt A.

    `ops` is one DiscreteOperator or a sequence of them on grids of one
    dimension d.  A sequence is a stack: A = diag(A_1, ..., A_r), so runs
    on different operators that share dt and theta step as one system,
    with one factorization and one solve per step; a lone operator is a
    stack of one.  `blocks` holds the rows [lo, hi) of each operator.  A
    step at d = 1 costs about 9.5 us of fixed SuperLU call overhead plus
    about 29 ns per row, so a stack pays the fixed part once.

    `step` takes an (n, k) block whose columns are independent data (column
    j holds a datum of every operator of the stack); a dof vector steps as
    its (n, 1) view and comes back as a vector.  A step is one solve and
    one sparse product.  For theta < 1 the product is y = B x of the new
    state x: it is the next step's right-hand side, and
    M x = (x - theta y) / (1 - theta) gives this step's residual.  The
    stepper carries (x, B x): handed back the array it returned (read-only),
    it reuses B x.  For theta = 1, B is the identity, the state is the
    right-hand side, and the product is M x.  Above FUSED_THETA_MAX the
    1 / (1 - theta) factor would amplify the round-off of B x, so M x is
    formed as well.

    M is factored once by SuperLU: COLAMD at d = 1, a d = 1 stack under the
    concatenation of each block's own COLAMD order (COLAMD on the whole
    stack may order a block of m != 2 another way), and at d = 2 the minimum
    degree ordering of M^T + M (MMD_AT_PLUS_A), with about half of COLAMD's
    fill on a 2-D stencil.  At d = 1 a block takes one multi-right-hand-side
    solve: all supernodes of a d = 1 factor but the last (3 to 5 columns) are
    one column wide, and the block solve has matched the one-column solve bit
    for bit in every case tried (the tests pin it).  At d = 2, SuperLU's
    BLAS-3 kernels on wide supernodes may round a block differently, so it
    is solved column by column.  Each column equals the step of that datum
    alone, bit for bit.  A stacked operator's segment equals its step alone
    bit for bit when the ordering of the stack keeps that operator's own
    elimination order: at d = 1 by construction, and at d = 2 in every case
    tried (the tests pin both).

    Every (block, column) segment must meet |M x - B u| <= SOLVE_RTOL |B u|
    on its own; NaN and inf fail.  The solve is deterministic, so a failing
    segment raises SolveError after its one solve, naming the time k dt of
    the carried run and, in a stack, the operator's block and grid, and,
    when k > 1, the column; it calls the time step unstable when x or B x
    is not finite.
    """

    def __init__(self, ops, dt, theta):
        if dt <= 0:
            raise ValueError("dt must be positive")
        if not 0.0 <= theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")
        self.ops = [ops] if isinstance(ops, DiscreteOperator) else list(ops)
        if not self.ops:
            raise ValueError("a stack needs at least one operator")
        if len({op.grid.d for op in self.ops}) > 1:
            raise ValueError("stacked operators must share the dimension d")
        self.dt = float(dt)
        self.theta = float(theta)
        ends = np.cumsum([op.matrix.shape[0] for op in self.ops]).tolist()
        # the rows [lo, hi) of each operator's block
        self.blocks = list(zip([0] + ends[:-1], ends))
        A = self.ops[0].matrix if len(self.ops) == 1 else \
            sp.block_diag([op.matrix for op in self.ops], format="csr")
        eye = sp.identity(A.shape[0], format="csr")
        self.M = (eye - theta * dt * A).tocsc()
        self.B = None if theta == 1.0 else (eye + (1.0 - theta) * dt * A).tocsr()
        self._fused = self.theta <= FUSED_THETA_MAX
        self._multi_rhs = self.ops[0].grid.d == 1
        self._lu = None
        self._widen(1)
        # carried state: the last returned x, the next right-hand side, x's step number
        self._x = self._rhs = None
        self._k = 0

    def _direct(self):
        if self._lu is None:
            d = self.ops[0].grid.d
            try:
                self._lu = self._block_ordered() if d == 1 and len(self.ops) > 1 else \
                    spla.splu(self.M, permc_spec="MMD_AT_PLUS_A" if d == 2 else "COLAMD")
            except RuntimeError as exc:   # pragma: no cover - singular system
                raise SolveError(f"time-step matrix is singular: {exc}") from exc
        return self._lu

    def _block_ordered(self):
        """The factor of a d = 1 stack under each block's own COLAMD order.

        Column j of a block's A Pc is its column inv(perm_c)[j], so the stack
        is factored as M[:, q] in its natural order, q the concatenation of
        each block's inv(perm_c) shifted to its rows, and a solve's y of
        M[:, q] y = b gives x = y[inv(q)] by one precomputed take.  Each
        block's order costs one more splu of that block, milliseconds at d = 1.
        """
        q = np.concatenate([np.argsort(spla.splu(self.M[lo:hi, lo:hi], permc_spec="COLAMD")
                                       .perm_c) + lo for lo, hi in self.blocks])
        lu, undo = spla.splu(self.M[:, q], permc_spec="NATURAL"), np.argsort(q)
        return SimpleNamespace(solve=lambda rhs: np.asfortranarray(lu.solve(rhs).take(undo, axis=0)))

    def _widen(self, k):
        """B, and M where the residual forms M x, as diag(A, ..., A) with k
        blocks: on a block's column-major memory one product meets each
        column's entries in A's order, so it gives the bits of k products."""
        def wide(A):
            return A if k == 1 else sp.block_diag([A] * k, format="csr")
        self._width, self._x = k, None      # a carried run of another width ends
        self._B_k = None if self.B is None else wide(self.B)
        self._M_k = None if self._fused else wide(self.M.tocsr())

    @staticmethod
    def _add_product(A, x, y):
        """y += A x for F-ordered (n, k) blocks and A from _widen, by the CSR kernel
        behind `A @ x` without scipy's dispatch, as costly as the kernel at d = 1."""
        _sparsetools.csr_matvec(A.shape[0], A.shape[1], A.indptr, A.indices, A.data, x.T, y.T)
        return y

    def _fail(self, k, x, bx, residual, where):
        t = k * self.dt
        if not (np.all(np.isfinite(x)) and (bx is None or np.all(np.isfinite(bx)))):
            raise SolveError(f"non-finite state at t = {t:.6g}{where}; "
                             "time step unstable for this operator")
        raise SolveError(f"linear solve residual {residual:.2e} exceeds "
                         f"{SOLVE_RTOL} at t = {t:.6g}{where}")

    def _where(self, b, j, k):
        """Where in a step a segment lies: the operator's block in a stack, the column in a block."""
        parts = [f"column {j}"] if k > 1 else []
        if len(self.ops) > 1:
            g = self.ops[b].grid
            parts.insert(0, f"block {b} ({g.boundary_kind}, L = {g.L:g}, "
                            f"{g.n_per_axis} nodes per axis)")
        return " in " + ", ".join(parts) if parts else ""

    def step(self, u):
        """One theta-step from the dof vector u, or from an (n, k) block of k
        data; returns the new state in u's shape, read-only."""
        if u is self._x:
            rhs, k = self._rhs, self._k + 1
        else:
            rhs, k = np.asfortranarray(u if u.ndim == 2 else u[:, None], dtype=float), 1
            if rhs.ndim != 2 or rhs.shape[0] != self.M.shape[0]:
                raise ValueError(f"u must have {self.M.shape[0]} rows")
            if rhs.shape[1] != self._width:
                self._widen(rhs.shape[1])
            if self.B is not None:
                rhs = self._add_product(self._B_k, rhs, np.zeros(rhs.shape, order="F"))
        if self._multi_rhs:
            x = self._direct().solve(rhs)
        else:
            x = np.empty(rhs.shape, order="F")
            for j in range(rhs.shape[1]):
                x[:, j] = self._direct().solve(rhs[:, j])
        bx = None if self.B is None else self._add_product(self._B_k, x, np.zeros(x.shape, order="F"))
        # r = M x - rhs up to the factor r_scale; BLAS takes the F-ordered
        # blocks as their memory, where column j starts at offset j n
        if self._fused:
            r = daxpy(rhs, daxpy(bx, x.copy(order="F"), a=-self.theta), a=self.theta - 1.0)
            r_scale = 1.0 - self.theta
        else:
            r = self._add_product(self._M_k, x, np.negative(rhs))
            r_scale = 1.0
        n, width = x.shape
        for j in range(width):
            for b, (lo, hi) in enumerate(self.blocks):
                at = j * n + lo
                rr, hh = ddot(r, r, hi - lo, at, 1, at, 1), ddot(rhs, rhs, hi - lo, at, 1, at, 1)
                residual = math.sqrt(rr) / r_scale / max(math.sqrt(hh), 1e-300)
                if not residual <= SOLVE_RTOL:
                    self._fail(k, x[lo:hi, j], None if bx is None else bx[lo:hi, j], residual,
                               self._where(b, j, width))
        x.setflags(write=False)
        x_out = x if u.ndim == 2 else x[:, 0]
        # the next step's right-hand side: B x, or x itself for theta = 1
        self._x, self._rhs, self._k = x_out, (x if bx is None else bx), k
        return x_out


def step(op: DiscreteOperator, u, dt, theta=0.5):
    """Single theta-step applied to a dof vector: (I - theta dt A) u+ = (I + (1-theta) dt A) u;
    returns a new, writable array."""
    u = np.asarray(u, dtype=float)
    if u.shape != (op.matrix.shape[0],):
        raise ValueError(f"u must be a dof vector of length {op.matrix.shape[0]}")
    return ThetaStepper(op, dt, theta).step(u).copy()


def _store_steps(n_steps, dt, store_every, store_times):
    if store_every is not None and store_every < 1:
        raise ValueError(f"store_every must be at least 1, got {store_every}")
    marks = {0, n_steps}
    if store_times is not None:
        for t in store_times:
            k = int(round(float(t) / dt))
            if not 0 <= k <= n_steps:
                raise ValueError(f"store time {t} outside the run")
            if abs(k * dt - float(t)) > 1e-6 * max(dt, abs(t)) + 1e-12:
                raise ValueError(f"store time {t} is not a multiple of dt = {dt}")
            marks.add(k)
    else:
        if store_every is None:
            store_every = max(1, int(np.ceil(n_steps / 199)))
        marks.update(range(0, n_steps, int(store_every)))
    return sorted(marks)


def _batch(op: DiscreteOperator, data):
    """The data of a batched evolve call, checked to be stepped together."""
    data = list(data)
    if not data:
        raise ValueError("evolve needs at least one datum")
    for g in data:
        if g.m != op.m:
            raise ValueError(f"datum has {g.m} components, the operator {op.m}")
        if g.grid is not op.grid and not np.array_equal(g.grid.nodes, op.grid.nodes):
            raise ValueError("every datum of a batch must lie on the operator's grid")
    return data


def evolve(op: DiscreteOperator, f, t_final, dt=1e-3, theta=0.5,
           store_every=None, store_times=None):
    """Repeated theta-steps from f; writes each stored state, on the full
    grid, straight into the Trajectory's (n_times, m, N) `values` array.

    `f` is a GridFunction, and the result its Trajectory; or `f` is a
    sequence of GridFunctions on the operator's grid with its component
    count, and the result is one Trajectory per datum, in order.  The data
    share t_final and the stored times and step as the columns of one
    block, a lone datum as one column (see ThetaStepper): one
    factorization, the 1e-10 relative residual held column by column, and
    each Trajectory bitwise equal to evolving that datum alone.

    `op` may also be a sequence of operators, which step as the blocks of
    one block-diagonal system: `f` then holds one entry per operator, each
    a datum or a sequence of data as above, every sequence of one length.
    The result is a list whose i-th entry is what evolve(op[i], f[i], ...)
    returns, bit for bit, from one stepping loop and one factorization (see
    ThetaStepper).

    Dirichlet runs store the initial datum exactly and later states with
    zero boundary values.  Aborts with SolveError if a step fails its residual
    check, naming the time (and, in a stack, the operator's block), and says
    so when the state has left the finite range (instability).
    """
    if t_final <= 0:
        raise ValueError("t_final must be positive")
    stacked = not isinstance(op, DiscreteOperator)
    ops, entries = (list(op), list(f)) if stacked else ([op], [f])
    if not ops or len(entries) != len(ops):
        raise ValueError("a stack needs one entry of data per operator, and at least one")
    batched = [not isinstance(g, GridFunction) for g in entries]
    data = [_batch(o, g) if many else [g] for o, g, many in zip(ops, entries, batched)]
    k = len(data[0])
    if any(len(d) != k for d in data):
        raise ValueError("every operator of a stack must carry equally many data")
    n_steps = max(1, int(round(t_final / dt)))
    marks = _store_steps(n_steps, dt, store_every, store_times)
    stepper = ThetaStepper(ops, dt, theta)

    # each operator's (k, n) rows transposed, stacked: an (n, k) block whose
    # columns hold one datum of every operator
    u = np.vstack([np.array([o.restrict(g) for g in d]).T for o, d in zip(ops, data)])
    # every datum's stored states, written in place; zero off the dof nodes
    outs = [np.zeros((k, len(marks), o.m, o.grid.n_nodes)) for o in ops]
    for out, d in zip(outs, data):
        out[:, 0] = [g.values for g in d]
    slot = {s: i for i, s in enumerate(marks)}
    for s in range(1, n_steps + 1):
        u = stepper.step(u)
        if s in slot:
            for o, out, (lo, hi) in zip(ops, outs, stepper.blocks):
                out[:, slot[s]][..., o.dof_indices] = u[lo:hi].T.reshape(k, o.m, o.n_dof)
    results = []
    for o, out, many in zip(ops, outs, batched):
        trajectories = [Trajectory(times=np.array(marks) * dt, values=v, grid=o.grid, dt=dt,
                                   theta=theta, boundary_kind=o.boundary_kind) for v in out]
        results.append(trajectories if many else trajectories[0])
    return results if stacked else results[0]


def cesaro_average(traj: Trajectory) -> GridFunction:
    """Time average (1/t) int_0^t u(s) ds by trapezoid over the stored snapshots.

    From u(0) = f this is the running average P_n f at t = n.  It and the
    discrete average R_n f (discrete_average) both tend to the long-time
    limit, but P_n f - R_n f = O(1/n) by a boundary term of the continuous
    semigroup, not by discretization error.  The identity that holds exactly
    at integer n is P_n f = R_n(P_1 f).
    """
    if len(traj.times) < 2:
        raise ValueError("cesaro_average needs at least two stored snapshots")
    avg = np.trapezoid(traj.values, traj.times, axis=0) / (traj.times[-1] - traj.times[0])
    return GridFunction(traj.grid, avg)


def discrete_average(op: DiscreteOperator, f: GridFunction, n, dt=1e-3, theta=0.5) -> GridFunction:
    """(1/n) sum_{k=0}^{n-1} of the semigroup at unit times applied to f.

    This is R_n f.  It differs from the running average P_n f (cesaro_average)
    by O(1/n); applied to P_1 f instead of f it gives P_n f exactly:
    P_n f = R_n(P_1 f) at integer n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return f.copy()
    traj = evolve(op, f, t_final=float(n - 1), dt=dt, theta=theta,
                  store_times=[float(k) for k in range(n)])
    # the stored times are 0, 1, ..., n - 1; the sum runs in that order
    return GridFunction(traj.grid, np.sum(traj.values, axis=0) / n)


def _check_same_times(a: Trajectory, b: Trajectory):
    """ValueError unless the two runs store the same times, to 1e-9."""
    if len(a.times) != len(b.times) or np.max(np.abs(a.times - b.times)) > 1e-9:
        raise ValueError("trajectories store different times")


def _window_discrepancy(traj_a: Trajectory, traj_b: Trajectory, r_obs):
    """Sup over window nodes, stored times and components of |a - b|.

    The grids share h and both boxes reach beyond r_obs, so the two windows
    hold the same nodes in the same lexicographic order.
    """
    ga, gb = traj_a.grid, traj_b.grid
    ia = np.flatnonzero(ga.window_mask(r_obs))
    ib = np.flatnonzero(gb.window_mask(r_obs))
    if ia.size == 0 or ia.size != ib.size or \
            np.max(np.abs(ga.nodes[ia] - gb.nodes[ib])) > 1e-9 * ga.h:
        raise ValueError("observation windows do not hold the same grid nodes")
    _check_same_times(traj_a, traj_b)
    return float(np.max(np.abs(traj_a.values[..., ia] - traj_b.values[..., ib])))


def _same_run(runs, grid, f, dt, theta, times):
    """The trajectory of `runs` that started from f on `grid` with this dt,
    theta and these stored times, or None."""
    key = (grid.d, grid.L, grid.n_per_axis, grid.boundary_kind)
    for traj in runs:
        g = traj.grid
        if (g.d, g.L, g.n_per_axis, g.boundary_kind) == key and \
                (traj.dt, traj.theta) == (dt, theta) and np.array_equal(traj.times, times) \
                and np.array_equal(traj.values[0], f.values):
            return traj
    return None


def nested_ladder(field, f_fn, ladder, r_obs, boundary_kind="neumann"):
    """The grids of a nested ladder and the datum on each, checked as
    solve_nested needs them: the rungs in order, then the final rung's twin
    with the other boundary condition, and f_fn sampled on each grid."""
    if len(ladder) < 2:
        raise ValueError("ladder needs at least two rungs")
    Ls = [entry[0] for entry in ladder]
    if any(b <= a for a, b in zip(Ls, Ls[1:])):
        raise ValueError("ladder must be strictly increasing in L")
    if r_obs >= min(Ls):
        raise ValueError("observation radius must be smaller than the smallest box")
    other = "dirichlet" if boundary_kind == "neumann" else "neumann"
    grids = [build_grid(field.dim_d, L, n, boundary_kind) for L, n in ladder]
    grids.append(build_grid(field.dim_d, *ladder[-1], other))
    hs = [grid.h for grid in grids]
    if max(hs) - min(hs) > 1e-9 * max(hs):
        raise ValueError("ladder rungs must share the grid spacing h")
    return grids, [grid_function_from_callable(grid, f_fn, m=field.dim_m) for grid in grids]


def solve_nested(field, f_fn, t_final, ladder, nest_tol, r_obs, dt=1e-3, theta=0.5,
                 boundary_kind="neumann", store_every=None, runs=()) -> NestedSolveResult:
    """Evolve on an increasing ladder of boxes and track window discrepancies.

    `ladder` is a list of (L, n_per_axis) with strictly increasing L and a
    common spacing h; `f_fn` samples the initial datum on each rung's grid.
    The final rung is re-run with the other boundary condition and the gap
    between the two is reported (both approximate the same whole-space
    semigroup).

    `runs` may hold trajectories the caller has already evolved with this
    field to t_final (for example as one column of a batch).  A rung or the
    twin whose grid, initial values, dt, theta and stored times match one of
    them takes it as its run instead of evolving again; the field is the
    caller's word.  Every other run evolves in one call, as the blocks of
    one stack (see evolve); when `runs` holds them all, nothing evolves.
    """
    grids, data = nested_ladder(field, f_fn, ladder, r_obs, boundary_kind)
    n_steps = max(1, int(round(t_final / dt)))
    times = np.array([k * dt for k in _store_steps(n_steps, dt, store_every, None)])
    trajectories = [_same_run(runs, grid, f, dt, theta, times) for grid, f in zip(grids, data)]
    # every run not taken from `runs` steps in one stack
    todo = [i for i, traj in enumerate(trajectories) if traj is None]
    stack = evolve([assemble_system_operator(field, grids[i]) for i in todo],
                   [data[i] for i in todo], t_final, dt=dt, theta=theta,
                   store_every=store_every) if todo else []
    for i, traj in zip(todo, stack):
        trajectories[i] = traj
    *rungs, traj_o = trajectories

    discrepancies = [_window_discrepancy(rungs[k], rungs[k - 1], r_obs)
                     for k in range(1, len(rungs))]
    gap = _window_discrepancy(rungs[-1], traj_o, r_obs)

    return NestedSolveResult(trajectory=rungs[-1], discrepancies=discrepancies,
                             converged=nested_converged(discrepancies, gap, nest_tol),
                             dirichlet_neumann_gap=gap)


def nested_converged(discrepancies, gap, nest_tol) -> bool:
    """The nested-ladder verdict: the last discrepancy is within nest_tol, the
    discrepancies decrease strictly unless all are within it, and the
    Dirichlet-Neumann gap is at most max(2 x the last, nest_tol)."""
    decreasing = (all(d <= nest_tol for d in discrepancies)
                  or all(b < a for a, b in zip(discrepancies, discrepancies[1:])))
    return (discrepancies[-1] <= nest_tol and decreasing
            and gap <= max(2.0 * discrepancies[-1], nest_tol))
