"""Time stepping for the coupled parabolic system: theta-scheme, nested domains,
Cesaro averages.

A theta-step solves (I - theta dt A) x = (I + (1 - theta) dt A) u with one
linear solve and one sparse product, and checks the relative residual of
that solve on every step (see ThetaStepper).

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

    def _times_b(self, x):
        """B @ x for a float64 solution x: the CSR kernel behind `B @ x`, minus
        scipy's per-call dispatch, which costs about as much as the kernel at d = 1."""
        B = self.B
        bx = np.zeros(B.shape[0])
        _sparsetools.csr_matvec(B.shape[0], B.shape[1], B.indptr, B.indices, B.data, x, bx)
        return bx

    def _residual(self, x, rhs):
        """|M x - rhs| / |rhs| (NaN or inf if anything is non-finite), and B x."""
        bx = None if self.B is None else self._times_b(x)
        if self._fused:
            r = x - self.theta * bx
            r -= (1.0 - self.theta) * rhs
            r_norm = math.sqrt(r @ r) / (1.0 - self.theta)
        else:
            r = self.M @ x - rhs
            r_norm = math.sqrt(r @ r)
        return r_norm / max(math.sqrt(rhs @ rhs), 1e-300), bx

    def step(self, u):
        """One theta-step from the dof vector u; returns the new state, read-only."""
        carried = u is self._x
        k = self._k + 1 if carried else 1
        if self.B is None:
            rhs = u
        else:
            rhs = self._bx if carried else self.B @ u
        x = self._solve(rhs)
        residual, bx = self._residual(x, rhs)
        if not residual <= SOLVE_RTOL:
            x = self._direct().solve(rhs)
            residual, bx = self._residual(x, rhs)
            if not residual <= SOLVE_RTOL:
                t = k * self.dt
                if not (np.all(np.isfinite(x)) and (bx is None or np.all(np.isfinite(bx)))):
                    raise SolveError(f"non-finite state at t = {t:.6g}; "
                                     "time step unstable for this operator")
                raise SolveError(f"linear solve residual {residual:.2e} exceeds "
                                 f"{SOLVE_RTOL} at t = {t:.6g}")
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


def evolve(op: DiscreteOperator, f: GridFunction, t_final, dt=1e-3, theta=0.5,
           store_every=None, store_times=None) -> Trajectory:
    """Repeated theta-steps from f; stores snapshots on the full grid.

    Dirichlet runs store the initial datum exactly and later snapshots with
    zero boundary values.  Aborts with SolveError if a step fails its residual
    check, naming the time, and says so when the state has left the finite
    range (instability).
    """
    if t_final <= 0:
        raise ValueError("t_final must be positive")
    n_steps = max(1, int(round(t_final / dt)))
    marks = _store_steps(n_steps, dt, store_every, store_times)
    stepper = ThetaStepper(op, dt, theta)

    u = op.restrict(f)
    times = [0.0]
    snapshots = [f.copy()]
    next_marks = [k for k in marks if k > 0]
    mark_pos = 0
    for k in range(1, n_steps + 1):
        u = stepper.step(u)
        if mark_pos < len(next_marks) and k == next_marks[mark_pos]:
            times.append(k * dt)
            snapshots.append(op.embed(u))
            mark_pos += 1
    return Trajectory(times=np.array(times), snapshots=snapshots, grid=op.grid,
                      dt=dt, theta=theta, boundary_kind=op.boundary_kind)


def cesaro_average(traj: Trajectory) -> GridFunction:
    """Time average (1/t) int_0^t u(s) ds by trapezoid over the stored snapshots."""
    if len(traj.snapshots) < 2:
        raise ValueError("cesaro_average needs at least two stored snapshots")
    stackv = traj.stack()
    avg = np.trapezoid(stackv, traj.times, axis=0) / (traj.times[-1] - traj.times[0])
    return GridFunction(traj.grid, avg)


def discrete_average(op: DiscreteOperator, f: GridFunction, n, dt=1e-3, theta=0.5) -> GridFunction:
    """(1/n) sum_{k=0}^{n-1} of the semigroup at unit times applied to f."""
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


def solve_nested(field, f_fn, t_final, ladder, nest_tol, r_obs, dt=1e-3, theta=0.5,
                 boundary_kind="neumann", store_every=None) -> NestedSolveResult:
    """Evolve on an increasing ladder of boxes and track window discrepancies.

    `ladder` is a list of (L, n_per_axis) with strictly increasing L and a
    common spacing h; `f_fn` samples the initial datum on each rung's grid.
    The final rung is re-run with the other boundary condition and the gap
    between the two is reported (both approximate the same whole-space
    semigroup).
    """
    if len(ladder) < 2:
        raise ValueError("ladder needs at least two rungs")
    Ls = [entry[0] for entry in ladder]
    if any(b <= a for a, b in zip(Ls, Ls[1:])):
        raise ValueError("ladder must be strictly increasing in L")
    if r_obs >= min(Ls):
        raise ValueError("observation radius must be smaller than the smallest box")

    trajectories = []
    hs = []
    for L, n in ladder:
        grid = build_grid(field.dim_d, L, n, boundary_kind)
        hs.append(grid.h)
        op = assemble_system_operator(field, grid)
        f = grid_function_from_callable(grid, f_fn, m=field.dim_m)
        trajectories.append(evolve(op, f, t_final, dt=dt, theta=theta,
                                   store_every=store_every))
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
