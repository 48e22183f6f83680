"""Time stepping for the coupled parabolic system: theta-scheme, nested domains,
Cesaro averages.

A theta-step solves (I - theta dt A) x = (I + (1 - theta) dt A) u with one
linear solve and one sparse product, and checks the relative residual of
that solve on every step (see ThetaStepper).

Data that share an operator, dt and theta are stepped together: evolve takes
a list of data and steps them as the columns of one (n, k) block, with one
factorization for all of them.  Every column is held to the same
1e-10 relative residual as a lone datum, and every column equals, bit for
bit, the run of that datum on its own.

One evolve call is sequential in time; independent rungs, data, and parameter
sweeps can run concurrently since operators and trajectories are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
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
    """Stored snapshots of one evolve run; snapshot(0) is the initial datum."""

    times: np.ndarray
    snapshots: list
    grid: "object"
    dt: float
    theta: float
    boundary_kind: str

    @property
    def m(self):
        return self.snapshots[0].m

    def snapshot_at(self, t, tol=1e-9):
        for tk, snap in zip(self.times, self.snapshots):
            if abs(tk - t) <= tol:
                return snap
        raise KeyError(f"no snapshot stored at t = {t}")

    def stack(self):
        """All snapshots as an array of shape (n_times, m, N)."""
        return np.stack([s.values for s in self.snapshots])


@dataclass
class NestedSolveResult:
    trajectory: Trajectory
    ladder: list
    discrepancies: list
    converged: bool
    dirichlet_neumann_gap: float | None = None
    meta: dict = dc_field(default_factory=dict)


class ThetaStepper:
    """Factorized M = I - theta dt A, stepping M x = B u with B = I + (1 - theta) dt A.

    A step costs one solve and one sparse product.  For theta < 1 the product
    is y = B x of the new state x: it is the next step's right-hand side, and
    M x = (x - theta y) / (1 - theta) gives this step's residual.  The
    stepper carries (x, B x): handed back the array it returned (read-only),
    it reuses B x instead of forming it again.  For theta = 1, B is the
    identity, the state itself is the right-hand side, and the product is
    M x.  Above FUSED_THETA_MAX the 1 / (1 - theta) factor would amplify the
    round-off of B x, so M x is formed as well.

    Every step must meet |M x - B u| <= SOLVE_RTOL |B u|; the test also
    rejects NaN and inf.  d = 1 systems go straight to a sparse direct
    factorization; large d = 2 systems try an ILU-preconditioned BiCGStab
    first and fall back to the direct solve, and a step whose residual fails
    is solved again directly.  If that fails too, SolveError names the time
    k dt of the carried run, and calls the time step unstable when x or B x
    is not finite.  The contract is the relative residual, not the method.

    `step` also takes an (n, k) block whose columns are independent data,
    and each column equals the vector step of that column bit for bit.  The
    block takes one product per column through the same CSR kernel.  At
    d = 1 it takes one multi-right-hand-side solve: all supernodes of a
    d = 1 factor but the last (3 to 5 columns) are one column wide, which
    SuperLU solves column by column whatever k is, and the block solve has
    matched the vector solve bit for bit in every case tried (the tests pin
    it).  At d = 2, SuperLU's BLAS-3 kernels on wide supernodes do round a
    k-column block differently from one column, so the block is solved
    column by column (iteratively where a vector would be; after an
    iterative failure every column goes direct).  The residual test applies
    to every column on its own: one column that misses it, or holds a NaN
    or inf, fails the step, and the error names the time and the column.
    """

    def __init__(self, op: DiscreteOperator, dt, theta):
        if dt <= 0:
            raise ValueError("dt must be positive")
        if not 0.0 <= theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")
        self.op = op
        self.dt = float(dt)
        self.theta = float(theta)
        n = op.matrix.shape[0]
        eye = sp.identity(n, format="csr")
        self.M = (eye - theta * dt * op.matrix).tocsc()
        self.B = None if theta == 1.0 else (eye + (1.0 - theta) * dt * op.matrix).tocsr()
        self._fused = self.theta <= FUSED_THETA_MAX
        # the residual's M x, where it is formed, takes the CSR kernel too
        self._M_csr = None if self._fused else self.M.tocsr()
        self._lu = None
        self._ilu = None
        self._use_iterative = op.grid.d == 2 and n > 4000
        # carried state: the last returned x, B x, and its step number
        self._x = self._bx = None
        self._k = 0

    def _direct(self):
        if self._lu is None:
            try:
                self._lu = spla.splu(self.M)
            except RuntimeError as exc:   # pragma: no cover - singular system
                raise SolveError(f"time-step matrix is singular: {exc}") from exc
        return self._lu

    def _solve(self, rhs):
        if self._use_iterative:
            if self._ilu is None:
                try:
                    self._ilu = spla.spilu(self.M, drop_tol=1e-6, fill_factor=20)
                except RuntimeError:
                    self._use_iterative = False
                    return self._direct().solve(rhs)
            prec = spla.LinearOperator(self.M.shape, self._ilu.solve)
            u, info = spla.bicgstab(self.M, rhs, rtol=1e-12, atol=0.0, M=prec)
            if info == 0:
                return u
            self._use_iterative = False
        return self._direct().solve(rhs)

    @staticmethod
    def _times(A, x):
        """A @ x for a CSR matrix A and a float64 vector x, or column by column
        for an (n, k) block: the CSR kernel behind `A @ x`, minus scipy's
        per-call dispatch, which costs about as much as the kernel at d = 1."""
        ax = np.zeros(x.shape, order="F")
        if x.ndim == 1:
            _sparsetools.csr_matvec(A.shape[0], A.shape[1], A.indptr, A.indices, A.data, x, ax)
            return ax
        for x_col, ax_col in zip(x.T, ax.T):
            _sparsetools.csr_matvec(A.shape[0], A.shape[1], A.indptr, A.indices, A.data,
                                    x_col, ax_col)
        return ax

    def _residual(self, x, rhs):
        """|M x - rhs| / |rhs| (NaN or inf if anything is non-finite), and B x;
        for an (n, k) block, the list of the k column residuals."""
        bx = None if self.B is None else self._times(self.B, x)
        if self._fused:
            r = x - self.theta * bx
            r -= (1.0 - self.theta) * rhs
            r_scale = 1.0 - self.theta
        else:
            r = self._times(self._M_csr, x) - rhs
            r_scale = 1.0
        if x.ndim == 1:
            return math.sqrt(r.dot(r)) / r_scale / max(math.sqrt(rhs.dot(rhs)), 1e-300), bx
        return [math.sqrt(r_col.dot(r_col)) / r_scale / max(math.sqrt(rhs_col.dot(rhs_col)), 1e-300)
                for r_col, rhs_col in zip(r.T, rhs.T)], bx

    def _fail(self, k, x, bx, residual, where=""):
        t = k * self.dt
        if not (np.all(np.isfinite(x)) and (bx is None or np.all(np.isfinite(bx)))):
            raise SolveError(f"non-finite state at t = {t:.6g}{where}; "
                             "time step unstable for this operator")
        raise SolveError(f"linear solve residual {residual:.2e} exceeds "
                         f"{SOLVE_RTOL} at t = {t:.6g}{where}")

    def _step_block(self, rhs, k):
        """Solve every column of the (n, k) block rhs; returns (x, B x)."""
        if self.op.grid.d == 1:
            x = self._direct().solve(rhs)
        else:
            x = np.asfortranarray(np.column_stack([self._solve(col) for col in rhs.T]))
        residuals, bx = self._residual(x, rhs)
        for j, residual in enumerate(residuals):
            if not residual <= SOLVE_RTOL:
                x[:, j] = x_j = self._direct().solve(rhs[:, j])
                residual, bx_j = self._residual(x_j, rhs[:, j])
                if bx is not None:
                    bx[:, j] = bx_j
                if not residual <= SOLVE_RTOL:
                    self._fail(k, x_j, bx_j, residual, f" in column {j}")
        return x, bx

    def step(self, u):
        """One theta-step from the dof vector u, or from an (n, k) block of k
        data; returns the new state, read-only."""
        carried = u is self._x
        k = self._k + 1 if carried else 1
        block = u.ndim == 2
        if self.B is None:
            rhs = u
        elif carried:
            rhs = self._bx
        else:
            rhs = self._times(self.B, u) if block else self.B @ u
        if block:
            x, bx = self._step_block(rhs, k)
        else:
            x = self._solve(rhs)
            residual, bx = self._residual(x, rhs)
            if not residual <= SOLVE_RTOL:
                x = self._direct().solve(rhs)
                residual, bx = self._residual(x, rhs)
                if not residual <= SOLVE_RTOL:
                    self._fail(k, x, bx, residual)
        x.flags.writeable = False
        self._x, self._bx, self._k = x, bx, k
        return x


def step(op: DiscreteOperator, u, dt, theta=0.5):
    """Single theta-step applied to a dof vector: (I - theta dt A) u+ = (I + (1-theta) dt A) u.

    Returns a new, writable array.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (op.matrix.shape[0],):
        raise ValueError(f"u must be a dof vector of length {op.matrix.shape[0]}")
    return ThetaStepper(op, dt, theta).step(u).copy()


def _store_steps(n_steps, dt, store_every, store_times):
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
    """Repeated theta-steps from f; stores snapshots on the full grid.

    `f` is a GridFunction, and the result its Trajectory; or `f` is a
    sequence of GridFunctions on the operator's grid with its component
    count, and the result is one Trajectory per datum, in order.  The data
    of a sequence share t_final and the stored times and are stepped as the
    columns of one block (see ThetaStepper): one factorization, one
    multi-right-hand-side solve per step at d = 1, the 1e-10 relative
    residual held column by column, and each Trajectory bitwise equal to
    evolving that datum alone.  A one-element sequence takes the vector
    step.

    Dirichlet runs store the initial datum exactly and later snapshots with
    zero boundary values.  Aborts with SolveError if a step fails its residual
    check, naming the time, and says so when the state has left the finite
    range (instability).
    """
    if t_final <= 0:
        raise ValueError("t_final must be positive")
    batched = not isinstance(f, GridFunction)
    data = _batch(op, f) if batched else [f]
    n_steps = max(1, int(round(t_final / dt)))
    marks = _store_steps(n_steps, dt, store_every, store_times)
    stepper = ThetaStepper(op, dt, theta)

    if len(data) == 1:
        u = op.restrict(data[0])
    else:
        # (k, n) rows transposed: an (n, k) block whose columns are contiguous
        u = np.array([op.restrict(g) for g in data]).T
    times = [0.0]
    snapshots = [[g.copy()] for g in data]
    next_marks = [k for k in marks if k > 0]
    mark_pos = 0
    for k in range(1, n_steps + 1):
        u = stepper.step(u)
        if mark_pos < len(next_marks) and k == next_marks[mark_pos]:
            times.append(k * dt)
            for snaps, column in zip(snapshots, u.T if u.ndim == 2 else [u]):
                snaps.append(op.embed(column))
            mark_pos += 1
    trajectories = [Trajectory(times=np.array(times), snapshots=snaps, grid=op.grid,
                               dt=dt, theta=theta, boundary_kind=op.boundary_kind)
                    for snaps in snapshots]
    return trajectories if batched else trajectories[0]


def cesaro_average(traj: Trajectory) -> GridFunction:
    """Time average (1/t) int_0^t u(s) ds by trapezoid over the stored snapshots.

    From u(0) = f this is the running average P_n f at t = n.  It and the
    discrete average R_n f (discrete_average) both tend to the long-time
    limit, but P_n f - R_n f = O(1/n) by a boundary term of the continuous
    semigroup, not by discretization error.  The identity that holds exactly
    at integer n is P_n f = R_n(P_1 f).
    """
    if len(traj.snapshots) < 2:
        raise ValueError("cesaro_average needs at least two stored snapshots")
    stackv = traj.stack()
    avg = np.trapezoid(stackv, traj.times, axis=0) / (traj.times[-1] - traj.times[0])
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
    acc = np.zeros_like(f.values)
    for k in range(n):
        acc += traj.snapshot_at(float(k)).values
    return GridFunction(traj.grid, acc / n)


def _coord_index_map(grid, r_obs):
    """Map integer coordinates (units of h) of window nodes to node indices."""
    mask = grid.window_mask(r_obs)
    idx = np.flatnonzero(mask)
    keys = np.round(grid.nodes[idx] / grid.h).astype(int)
    exact = np.all(np.abs(keys * grid.h - grid.nodes[idx]) <= 1e-9 * max(grid.h, 1.0), axis=1)
    if not np.all(exact):
        raise ValueError("grid nodes are not aligned to multiples of h")
    return {tuple(key): i for key, i in zip(keys, idx)}


def _window_discrepancy(traj_a: Trajectory, traj_b: Trajectory, r_obs):
    """Sup over common window nodes, stored times and components of |a - b|."""
    map_a = _coord_index_map(traj_a.grid, r_obs)
    map_b = _coord_index_map(traj_b.grid, r_obs)
    common = sorted(set(map_a) & set(map_b))
    if not common:
        raise ValueError("observation windows share no grid nodes")
    ia = np.array([map_a[c] for c in common])
    ib = np.array([map_b[c] for c in common])
    if len(traj_a.times) != len(traj_b.times) or \
            np.max(np.abs(traj_a.times - traj_b.times)) > 1e-9:
        raise ValueError("trajectories store different times")
    worst = 0.0
    for sa, sb in zip(traj_a.snapshots, traj_b.snapshots):
        worst = max(worst, float(np.max(np.abs(sa.values[:, ia] - sb.values[:, ib]))))
    return worst


def _same_run(runs, grid, f, dt, theta, times):
    """The trajectory of `runs` that started from f on `grid` with this dt,
    theta and these stored times, or None."""
    key = (grid.d, grid.L, grid.n_per_axis, grid.boundary_kind)
    for traj in runs:
        g = traj.grid
        if (g.d, g.L, g.n_per_axis, g.boundary_kind) == key and \
                (traj.dt, traj.theta) == (dt, theta) and np.array_equal(traj.times, times) \
                and np.array_equal(traj.snapshots[0].values, f.values):
            return traj
    return None


def solve_nested(field, f_fn, t_final, ladder, nest_tol, r_obs, dt=1e-3, theta=0.5,
                 boundary_kind="neumann", store_every=None, runs=()) -> NestedSolveResult:
    """Evolve on an increasing ladder of boxes and track window discrepancies.

    `ladder` is a list of (L, n_per_axis) with strictly increasing L and a
    common spacing h; `f_fn` samples the initial datum on each rung's grid.
    The final rung is re-run with the other boundary condition and the gap
    between the two is reported (both approximate the same whole-space
    semigroup).

    `runs` may hold trajectories the caller has already evolved with this
    field to t_final (for example as one column of a batch).  A rung whose
    grid, initial values, dt, theta and stored times match one of them takes
    it as its run instead of evolving again; the field is the caller's word.
    """
    if len(ladder) < 2:
        raise ValueError("ladder needs at least two rungs")
    Ls = [entry[0] for entry in ladder]
    if any(b <= a for a, b in zip(Ls, Ls[1:])):
        raise ValueError("ladder must be strictly increasing in L")
    if r_obs >= min(Ls):
        raise ValueError("observation radius must be smaller than the smallest box")

    n_steps = max(1, int(round(t_final / dt)))
    times = np.array([k * dt for k in _store_steps(n_steps, dt, store_every, None)])
    trajectories = []
    hs = []
    for L, n in ladder:
        grid = build_grid(field.dim_d, L, n, boundary_kind)
        hs.append(grid.h)
        f = grid_function_from_callable(grid, f_fn, m=field.dim_m)
        traj = _same_run(runs, grid, f, dt, theta, times)
        if traj is None:
            op = assemble_system_operator(field, grid)
            traj = evolve(op, f, t_final, dt=dt, theta=theta, store_every=store_every)
        trajectories.append(traj)
    if max(hs) - min(hs) > 1e-9 * max(hs):
        raise ValueError("ladder rungs must share the grid spacing h")

    discrepancies = [_window_discrepancy(trajectories[k], trajectories[k - 1], r_obs)
                     for k in range(1, len(trajectories))]
    converged = discrepancies[-1] <= nest_tol

    other = "dirichlet" if boundary_kind == "neumann" else "neumann"
    L_fin, n_fin = ladder[-1]
    grid_o = build_grid(field.dim_d, L_fin, n_fin, other)
    op_o = assemble_system_operator(field, grid_o)
    f_o = grid_function_from_callable(grid_o, f_fn, m=field.dim_m)
    traj_o = evolve(op_o, f_o, t_final, dt=dt, theta=theta, store_every=store_every)
    gap = _window_discrepancy(trajectories[-1], traj_o, r_obs)

    return NestedSolveResult(trajectory=trajectories[-1], ladder=list(ladder),
                             discrepancies=discrepancies, converged=converged,
                             dirichlet_neumann_gap=gap,
                             meta={"boundary_kind": boundary_kind})
