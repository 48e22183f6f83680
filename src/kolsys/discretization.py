"""Tensor-product grids on truncated boxes and finite-difference operators.

Assembles second-order central-difference matrices for the coupled operator
Tr(Q D^2) + <b, grad> + C, its scalar part, and the formal adjoint
(stationary Fokker-Planck) operator.  Boxes [-L, L]^d stand in for an
exhausting family of balls; d <= 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse as sp

from kolsys.coefficients import evaluate

BOUNDARY_KINDS = ("dirichlet", "neumann")


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid on [-L, L]^d with lexicographic node ordering."""

    d: int
    L: float
    n_per_axis: int
    boundary_kind: str
    h: float
    axis: np.ndarray                      # node coordinates along one axis
    nodes: np.ndarray                     # (N, d)

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def shape(self):
        return (self.n_per_axis,) * self.d

    def interior_mask(self):
        n = self.n_per_axis
        if self.d == 1:
            m = np.zeros(n, dtype=bool)
            m[1:-1] = True
            return m
        m1 = np.zeros((n, n), dtype=bool)
        m1[1:-1, 1:-1] = True
        return m1.ravel()

    def boundary_mask(self):
        return ~self.interior_mask()

    def interior_indices(self):
        return np.flatnonzero(self.interior_mask())

    def window_mask(self, r_obs):
        """Nodes inside the closed observation box [-r_obs, r_obs]^d."""
        tol = 1e-9 * max(self.h, 1.0)
        return np.all(np.abs(self.nodes) <= r_obs + tol, axis=1)

    def quadrature_weights(self):
        """Trapezoidal weights, tensor-product in d = 2."""
        w1 = np.full(self.n_per_axis, self.h)
        w1[0] = w1[-1] = 0.5 * self.h
        if self.d == 1:
            return w1
        return np.outer(w1, w1).ravel()


def build_grid(d, L, n_per_axis, boundary_kind="neumann") -> Grid:
    """Build a grid; n_per_axis must be odd (>= 3) so the origin is a node."""
    if d not in (1, 2):
        raise ValueError("only d in {1, 2} is supported")
    if L <= 0:
        raise ValueError("L must be positive")
    n = int(n_per_axis)
    if n < 3 or n % 2 == 0:
        raise ValueError("n_per_axis must be an odd integer >= 3")
    if boundary_kind not in BOUNDARY_KINDS:
        raise ValueError(f"boundary_kind must be one of {BOUNDARY_KINDS}")
    axis = np.linspace(-L, L, n)
    axis[n // 2] = 0.0
    if d == 1:
        nodes = axis[:, None].copy()
    else:
        X1, X2 = np.meshgrid(axis, axis, indexing="ij")
        nodes = np.column_stack([X1.ravel(), X2.ravel()])
    h = 2.0 * L / (n - 1)
    return Grid(d=d, L=float(L), n_per_axis=n, boundary_kind=boundary_kind,
                h=h, axis=axis, nodes=nodes)


@dataclass
class GridFunction:
    """Values of an m-component function on the nodes of a grid."""

    grid: Grid
    values: np.ndarray                    # (m, N)

    def __post_init__(self):
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if self.values.shape[1] != self.grid.n_nodes:
            raise ValueError("values do not match the grid node count")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite grid function values")

    @property
    def m(self):
        return self.values.shape[0]

    def component(self, i):
        return self.values[i]

    def copy(self):
        return GridFunction(self.grid, self.values.copy())

    def sup_norm_vector(self):
        """Vector sup norm: sqrt(sum_k sup_x |f_k(x)|^2)."""
        return float(np.sqrt(np.sum(np.max(np.abs(self.values), axis=1) ** 2)))


def grid_function_from_callable(grid, fn, m=None):
    """Sample `fn` in one call on the (N, d) node array: it returns one
    component or a list of m, each an (N,) array or a constant."""
    out = fn(grid.nodes)
    comps = [np.asarray(c, dtype=float) for c in (out if isinstance(out, (list, tuple)) else [out])]
    n, m = grid.n_nodes, len(comps) if m is None else m
    if len(comps) != m or any(c.shape not in ((), (n,)) for c in comps):
        raise ValueError(f"expected {m} component(s) of shape ({n},), one value per row of "
                         f"the ({n}, {grid.d}) node array, or constants; got shapes "
                         f"{[c.shape for c in comps]}")
    return GridFunction(grid, np.array([np.broadcast_to(c, (n,)) for c in comps]))


@dataclass
class DiscreteOperator:
    """Assembled sparse operator with block structure over components.

    `dof_indices` maps operator rows to grid nodes: all nodes for Neumann,
    interior nodes for Dirichlet (zero extension outside).
    """

    matrix: sp.csr_matrix
    grid: Grid
    m: int
    boundary_kind: str
    dof_indices: np.ndarray
    meta: dict = dc_field(default_factory=dict)

    @property
    def n_dof(self):
        return len(self.dof_indices)

    def restrict(self, f: GridFunction):
        """Flatten full-grid values into the component-major dof vector."""
        if f.values.shape[0] != self.m:
            raise ValueError("component count mismatch")
        return f.values[:, self.dof_indices].ravel()

    def embed(self, u):
        """Inverse of restrict; zero on eliminated boundary nodes."""
        vals = np.zeros((self.m, self.grid.n_nodes))
        vals[:, self.dof_indices] = np.asarray(u).reshape(self.m, self.n_dof)
        return GridFunction(self.grid, vals)

    def apply(self, f: GridFunction) -> GridFunction:
        return self.embed(self.matrix @ self.restrict(f))

    def component_block(self, k, l):
        """(k, l) component-coupling block as a sparse matrix."""
        n = self.n_dof
        return self.matrix[k * n:(k + 1) * n, l * n:(l + 1) * n]


def _scalar_stencil_entries(Q, b, grid, dof):
    """Sparse matrix of the scalar operator Tr(Q D^2) + <b, grad> on the dof
    rows, from Q and b at the dof nodes.

    Neumann boundaries use second-order ghost elimination: the ghost node
    obtained by stepping outside is reflected back inside, which encodes a
    vanishing normal derivative at the boundary node.  Dirichlet keeps
    interior rows only and drops boundary-neighbor contributions.

    Entries form one (N, K) slot table: per node, up, down and centre along
    each axis, then the four cross terms; zero slots are dropped.
    """
    n, h, d = grid.n_per_axis, grid.h, grid.d
    inv_h2 = 1.0 / (h * h)
    inv_2h = 1.0 / (2.0 * h)
    offsets, vals = [], []
    for axis_i, unit in enumerate(np.eye(d, dtype=int)):
        q, bi = Q[:, axis_i, axis_i], b[:, axis_i]
        offsets += [unit, -unit, 0 * unit]
        vals += [q * inv_h2 + bi * inv_2h, q * inv_h2 - bi * inv_2h, -2.0 * q * inv_h2]
    if d == 2:
        c = 2.0 * Q[:, 0, 1] / (4.0 * h * h)   # Tr picks up q12 twice
        offsets += [(1, 1), (1, -1), (-1, 1), (-1, -1)]
        vals += [c, -c, -c, c]
    vals = np.stack(vals, axis=1)
    cols = np.stack(np.unravel_index(dof, grid.shape), axis=-1)[:, None, :] + np.array(offsets)
    if grid.boundary_kind == "neumann":
        cols = np.where(cols == -1, 1, np.where(cols == n, n - 2, cols))
    cols = np.ravel_multi_index(tuple(np.moveaxis(cols, -1, 0)), grid.shape)
    rows = np.broadcast_to(dof[:, None], cols.shape)
    keep = vals != 0.0
    mat = sp.coo_matrix((vals[keep], (rows[keep], cols[keep])), shape=(n ** d, n ** d)).tocsr()
    if grid.boundary_kind == "dirichlet":
        mat = mat[dof][:, dof]              # zero extension drops the boundary columns
    return mat


def _assemble(field, grid):
    """Dof indices, the scalar stencil on them and C at the dof nodes, from one
    evaluation of the field."""
    if grid.d != field.dim_d:
        raise ValueError("grid dimension does not match the field")
    dof = grid.interior_indices() if grid.boundary_kind == "dirichlet" \
        else np.arange(grid.n_nodes)
    Q, b, C = evaluate(field, grid.nodes[dof])
    return dof, _scalar_stencil_entries(Q, b, grid, dof), C


def assemble_scalar_operator(field, grid) -> DiscreteOperator:
    """Finite-difference matrix for the scalar operator (no coupling)."""
    dof, mat, _ = _assemble(field, grid)
    return DiscreteOperator(matrix=mat, grid=grid, m=1,
                            boundary_kind=grid.boundary_kind, dof_indices=dof)


def assemble_system_operator(field, grid) -> DiscreteOperator:
    """Block operator: m copies of the scalar stencil plus node-diagonal coupling."""
    dof, a0, c_nodes = _assemble(field, grid)
    m = field.dim_m
    blocks = [[None] * m for _ in range(m)]
    for k in range(m):
        for l in range(m):
            coupling = sp.diags(c_nodes[:, k, l])
            blocks[k][l] = a0 + coupling if k == l else coupling
    mat = sp.bmat(blocks, format="csr")
    return DiscreteOperator(matrix=mat, grid=grid, m=m,
                            boundary_kind=grid.boundary_kind, dof_indices=dof)


def assemble_adjoint_operator(field, grid) -> DiscreteOperator:
    """Conservative-form stationary Fokker-Planck operator.

    Discretizes rho -> sum_ij D_ij(q_ij rho) - sum_i D_i(b_i rho) with zero
    far-field values.  On a uniform grid the central-difference conservative
    form is exactly the transpose of the Dirichlet scalar stencil, which
    makes the discrete duality <A0 u, rho> = <u, A0* rho> an identity.
    """
    dgrid = grid if grid.boundary_kind == "dirichlet" else \
        build_grid(grid.d, grid.L, grid.n_per_axis, "dirichlet")
    dof, mat, _ = _assemble(field, dgrid)
    return DiscreteOperator(matrix=mat.T.tocsr(), grid=grid, m=1,
                            boundary_kind="dirichlet", dof_indices=dof,
                            meta={"adjoint": True})


def fd_gradient(values, grid):
    """Central-difference gradient of nodal values, one-sided at the box edge.

    `values` holds the nodes on its last axis, shape (..., N); the gradient
    has shape (d, ..., N).
    """
    if grid.d == 1:
        return np.gradient(values, grid.h, axis=-1)[None]
    f = values.reshape(values.shape[:-1] + grid.shape)
    return np.stack([g.reshape(values.shape)
                     for g in np.gradient(f, grid.h, grid.h, axis=(-2, -1))])


def fd_hessian_diag(values, grid):
    """Pure second differences D_ii of nodal values, shape (d, N).

    Boundary entries are copied from the adjacent interior node; callers
    restrict to an interior observation window anyway.
    """
    if grid.d == 1:
        out = np.empty_like(values)
        out[1:-1] = (values[2:] - 2 * values[1:-1] + values[:-2]) / grid.h ** 2
        out[0], out[-1] = out[1], out[-2]
        return out[None, :]
    f = values.reshape(grid.shape)
    d11 = np.empty_like(f)
    d11[1:-1, :] = (f[2:, :] - 2 * f[1:-1, :] + f[:-2, :]) / grid.h ** 2
    d11[0, :], d11[-1, :] = d11[1, :], d11[-2, :]
    d22 = np.empty_like(f)
    d22[:, 1:-1] = (f[:, 2:] - 2 * f[:, 1:-1] + f[:, :-2]) / grid.h ** 2
    d22[:, 0], d22[:, -1] = d22[:, 1], d22[:, -2]
    return np.stack([d11.ravel(), d22.ravel()])


def fd_hessian_frobenius_sq(values, grid):
    """|D^2 u|^2 = sum over ordered index pairs (i,j) of (D_ij u)^2, shape (N,)."""
    diag = fd_hessian_diag(values, grid)
    total = np.sum(diag ** 2, axis=0)
    if grid.d == 2:
        g = fd_gradient(values, grid)
        d12 = fd_gradient(g[0], grid)[1]
        total = total + 2.0 * d12 ** 2
    return total
