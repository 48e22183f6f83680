import numpy as np
import pytest
import scipy.sparse as sp

from kolsys.coefficients import BuiltinFamily, CoefficientField, make_builtin, rowdot
from kolsys.discretization import (
    GridFunction,
    assemble_adjoint_operator,
    assemble_scalar_operator,
    assemble_system_operator,
    build_grid,
    grid_function_from_callable,
)


def custom_field(d=1, m=1, q=None, b=None, C=None):
    q = q or (lambda x: np.eye(d))
    b = b or (lambda x: np.zeros(d))
    C = C or (lambda x: np.zeros((m, m)))
    return CoefficientField.from_pointwise(d, m, q, b, C)


def exchange2_field():
    return make_builtin(BuiltinFamily(dim_d=1, dim_m=2, gamma=0.0, beta=1.0,
                                      b0=1.0, Q0=np.eye(1)))


def test_grid_spacing():
    grid = build_grid(1, 6.0, 481)
    assert grid.h == pytest.approx(0.025)
    assert 0.0 in grid.axis


def test_grid_2d_node_count():
    grid = build_grid(2, 3.0, 61)
    assert grid.n_nodes == 3721


def test_grid_rejects_even_n():
    with pytest.raises(ValueError):
        build_grid(1, 1.0, 4)
    with pytest.raises(ValueError):
        build_grid(3, 1.0, 5)


def test_laplacian_stencil_row():
    # q = 1, b = 0, h = 1: interior row is [1, -2, 1]
    grid = build_grid(1, 2.0, 5, "dirichlet")
    op = assemble_scalar_operator(custom_field(), grid)
    row = op.matrix[1].toarray().ravel()     # middle interior node
    assert np.allclose(row, [1.0, -2.0, 1.0])


def test_neumann_constant_in_kernel():
    field = exchange2_field()
    grid = build_grid(1, 6.0, 81, "neumann")
    op = assemble_scalar_operator(field, grid)
    ones = GridFunction(grid, np.ones((1, grid.n_nodes)))
    assert np.max(np.abs(op.apply(ones).values)) <= 1e-12


def test_neumann_constant_in_kernel_2d():
    fam = BuiltinFamily(dim_d=2, dim_m=2, gamma=1.0, beta=1.0, b0=1.0,
                        Q0=np.array([[1.0, 0.3], [0.3, 1.0]]))
    field = make_builtin(fam)
    grid = build_grid(2, 2.0, 21, "neumann")
    op = assemble_scalar_operator(field, grid)
    ones = GridFunction(grid, np.ones((1, grid.n_nodes)))
    assert np.max(np.abs(op.apply(ones).values)) <= 1e-11


def test_coupling_block_at_origin():
    field = exchange2_field()
    grid = build_grid(1, 6.0, 41, "neumann")
    op = assemble_system_operator(field, grid)
    scalar = assemble_scalar_operator(field, grid)
    i0 = int(np.argmin(np.abs(grid.axis)))
    block01 = op.component_block(0, 1)
    block00 = op.component_block(0, 0)
    assert block01[i0, i0] == pytest.approx(1.0)       # C(0) = [[-1,1],[1,-1]]
    assert (block00 - scalar.matrix)[i0, i0] == pytest.approx(-1.0)


def test_coupling_blocks_are_diagonal():
    field = exchange2_field()
    grid = build_grid(1, 6.0, 41, "dirichlet")
    op = assemble_system_operator(field, grid)
    off = op.component_block(0, 1).tocoo()
    assert np.all(off.row == off.col)


def test_adjoint_of_pure_diffusion_is_symmetric():
    grid = build_grid(1, 2.0, 21, "dirichlet")
    fwd = assemble_scalar_operator(custom_field(), grid)
    adj = assemble_adjoint_operator(custom_field(), grid)
    assert np.max(np.abs((fwd.matrix - adj.matrix).toarray())) == 0.0


def test_adjoint_annihilates_ou_density_at_second_order():
    # q = 1, b = -x has stationary density exp(-x^2/2)
    field = make_builtin(BuiltinFamily(dim_d=1, dim_m=2, gamma=0.0, beta=0.0,
                                       b0=1.0, Q0=np.eye(1)))
    residuals = []
    for n in (161, 321):
        grid = build_grid(1, 8.0, n, "dirichlet")
        adj = assemble_adjoint_operator(field, grid)
        rho = np.exp(-0.5 * grid.nodes[:, 0] ** 2)
        res = adj.matrix @ rho[adj.dof_indices]
        residuals.append(np.max(np.abs(res)))
    order = np.log2(residuals[0] / residuals[1])
    assert order >= 1.8


def test_transpose_consistency():
    field = exchange2_field()
    grid = build_grid(1, 6.0, 201, "dirichlet")
    fwd = assemble_scalar_operator(field, grid)
    adj = assemble_adjoint_operator(field, grid)
    rng = np.random.default_rng(42)
    n = fwd.n_dof
    u = np.zeros(n)
    rho = np.zeros(n)
    lo, hi = n // 4, 3 * n // 4
    u[lo:hi] = rng.standard_normal(hi - lo)
    rho[lo:hi] = rng.standard_normal(hi - lo)
    lhs = grid.h * np.dot(fwd.matrix @ u, rho)
    rhs = grid.h * np.dot(u, adj.matrix @ rho)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


@pytest.mark.parametrize("d,ns", [(1, (81, 161)), (2, (41, 81))])
def test_scalar_operator_convergence_order(d, ns):
    Q0 = np.eye(d) if d == 1 else np.array([[1.0, 0.3], [0.3, 1.0]])
    fam = BuiltinFamily(dim_d=d, dim_m=2, gamma=1.0, beta=1.0, b0=1.0, Q0=Q0)
    field = make_builtin(fam)

    def u_fn(x):
        return np.exp(-rowdot(x, x))

    def analytic(x):
        u = np.exp(-np.dot(x, x))
        Q = field.Q(x)
        b = field.b(x)
        hess = (-2.0 * np.eye(d) + 4.0 * np.outer(x, x)) * u
        return np.sum(Q * hess) + np.dot(b, -2.0 * x * u)

    errs = []
    for n in ns:
        grid = build_grid(d, 4.0, n, "dirichlet")
        op = assemble_scalar_operator(field, grid)
        u = grid_function_from_callable(grid, u_fn, m=1)
        got = op.apply(u).values[0]
        want = np.array([analytic(x) for x in grid.nodes])
        mask = grid.interior_mask()
        errs.append(np.max(np.abs(got - want)[mask]))
    order = np.log2(errs[0] / errs[1])
    assert order >= 1.8


def test_dirichlet_and_neumann_agree_on_compact_support():
    field = exchange2_field()
    grid_d = build_grid(1, 6.0, 81, "dirichlet")
    grid_n = build_grid(1, 6.0, 81, "neumann")
    op_d = assemble_scalar_operator(field, grid_d)
    op_n = assemble_scalar_operator(field, grid_n)

    def bump(x):
        r2 = rowdot(x, x) / 4.0
        return np.where(r2 < 1, (1 - r2) ** 3, 0.0)

    u = grid_function_from_callable(grid_d, bump, m=1)
    a_d = op_d.apply(u).values[0]
    a_n = op_n.apply(u).values[0]
    inner = grid_d.interior_mask()
    assert np.allclose(a_d[inner], a_n[inner], atol=1e-12)


def test_grid_function_rejects_nonfinite():
    grid = build_grid(1, 1.0, 5)
    with pytest.raises(ValueError):
        GridFunction(grid, np.full((1, grid.n_nodes), np.nan))


@pytest.mark.parametrize("d", [1, 2])
def test_grid_function_samples_all_nodes_in_one_call(d):
    grid = build_grid(d, 1.0, 5)
    calls = []

    def fn(x):
        calls.append(x.shape)
        return [np.tanh(x[..., 0]), 2.0]

    f = grid_function_from_callable(grid, fn)
    assert calls == [(grid.n_nodes, d)]
    assert np.array_equal(f.values[0], np.tanh(grid.nodes[:, 0]))
    assert np.all(f.values[1] == 2.0)
    # written for one point, the callable returns d values where N are expected
    with pytest.raises(ValueError, match=rf"shape \({grid.n_nodes},\)"):
        grid_function_from_callable(grid, lambda x: [np.tanh(x[0]), 2.0])


def test_restrict_embed_roundtrip():
    grid = build_grid(1, 2.0, 9, "dirichlet")
    field = exchange2_field()
    op = assemble_system_operator(field, grid)
    f = grid_function_from_callable(grid, lambda x: [np.tanh(x[..., 0]), np.exp(-x[..., 0] ** 2)])
    back = op.embed(op.restrict(f))
    assert np.allclose(back.values[:, op.dof_indices], f.values[:, op.dof_indices])
    assert np.all(back.values[:, grid.boundary_mask()] == 0.0)


def reference_system_matrix(field, grid, m=None):
    """Node-by-node assembly, one field evaluation per node: the oracle for the
    slot-table assembler.  With m = None only the scalar stencil is built."""
    n, h, d = grid.n_per_axis, grid.h, grid.d
    dirichlet = grid.boundary_kind == "dirichlet"
    rows, cols, vals = [], [], []

    def reflect(i):
        return 1 if i == -1 else n - 2 if i == n else i

    def on_boundary(multi):
        return any(i == 0 or i == n - 1 for i in multi)

    def flat(multi):
        return multi[0] if d == 1 else multi[0] * n + multi[1]

    def add(row_multi, col_multi, v):
        if v == 0.0:
            return
        if dirichlet:
            if on_boundary(col_multi):
                return
            col = col_multi
        else:
            col = tuple(reflect(i) for i in col_multi)
        rows.append(flat(row_multi))
        cols.append(flat(col))
        vals.append(v)

    inv_h2, inv_2h = 1.0 / (h * h), 1.0 / (2.0 * h)
    it = ((i,) for i in range(n)) if d == 1 else ((i, j) for i in range(n) for j in range(n))
    for multi in it:
        if dirichlet and on_boundary(multi):
            continue
        x = grid.nodes[flat(multi)]
        Q, b = field.Q(x), field.b(x)
        for axis_i in range(d):
            q, bi = Q[axis_i, axis_i], b[axis_i]
            up = list(multi); up[axis_i] += 1
            dn = list(multi); dn[axis_i] -= 1
            add(multi, tuple(up), q * inv_h2 + bi * inv_2h)
            add(multi, tuple(dn), q * inv_h2 - bi * inv_2h)
            add(multi, multi, -2.0 * q * inv_h2)
        if d == 2 and Q[0, 1] != 0.0:
            c = 2.0 * Q[0, 1] / (4.0 * h * h)
            i, j = multi
            add(multi, (i + 1, j + 1), c)
            add(multi, (i + 1, j - 1), -c)
            add(multi, (i - 1, j + 1), -c)
            add(multi, (i - 1, j - 1), c)

    mat = sp.coo_matrix((vals, (rows, cols)), shape=(n ** d, n ** d)).tocsr()
    dof = grid.interior_indices() if dirichlet else np.arange(n ** d)
    if dirichlet:
        mat = mat[dof][:, dof]
    if m is None:
        return mat
    c_nodes = np.array([field.C(grid.nodes[idx]) for idx in dof])
    blocks = [[mat + sp.diags(c_nodes[:, k, l]) if k == l else sp.diags(c_nodes[:, k, l])
               for l in range(m)] for k in range(m)]
    return sp.bmat(blocks, format="csr")


def assert_same_csr(got, want):
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.data.dtype == want.data.dtype
    assert np.array_equal(got.data, want.data)


REFERENCE_CASES = [
    # d, n, q12, gamma, beta, coupling kind, m
    (1, 41, 0.0, 0.0, 1.0, "exchange2", 2),
    (1, 41, 0.0, 1.0, 2.0, "zeta3", 3),
    (1, 41, 0.0, 0.7, 0.5, "constant_matrix", 1),
    (2, 11, 0.0, 0.0, 1.0, "exchange2", 2),
    (2, 11, 0.5, 1.0, 1.0, "zeta3", 3),
    (2, 11, 0.5, 0.5, 0.7, "constant_matrix", 1),
    (2, 11, -0.3, 2.0, 0.0, "exchange2", 2),
]


@pytest.mark.parametrize("boundary", ["dirichlet", "neumann"])
@pytest.mark.parametrize("d,n,q12,gamma,beta,kind,m", REFERENCE_CASES)
def test_assembly_matches_node_loop_reference(d, n, q12, gamma, beta, kind, m, boundary):
    # every case matches bit for bit, non-integer exponents included: the
    # batched field evaluates the same pow and BLAS dot per point
    Q0 = np.eye(1) if d == 1 else np.array([[2.0, q12], [q12, 1.0]])
    C0 = np.array([[-0.5]]) if kind == "constant_matrix" else None
    field = make_builtin(BuiltinFamily(dim_d=d, dim_m=m, gamma=gamma, beta=beta, b0=1.0,
                                       Q0=Q0, coupling_kind=kind, C0=C0))
    grid = build_grid(d, 3.0, n, boundary)
    assert_same_csr(assemble_scalar_operator(field, grid).matrix,
                    reference_system_matrix(field, grid))
    assert_same_csr(assemble_system_operator(field, grid).matrix,
                    reference_system_matrix(field, grid, m))
    dgrid = build_grid(d, 3.0, n, "dirichlet")
    assert_same_csr(assemble_adjoint_operator(field, grid).matrix,
                    reference_system_matrix(field, dgrid).T.tocsr())


def test_from_pointwise_wrapper_assembles_the_builtin_matrix():
    field = make_builtin(BuiltinFamily(dim_d=2, dim_m=2, gamma=1.0, beta=1.0, b0=1.0,
                                       Q0=np.array([[2.0, 0.5], [0.5, 1.0]])))
    wrapped = CoefficientField.from_pointwise(2, 2, field.Q, field.b, field.C)
    for boundary in ("dirichlet", "neumann"):
        grid = build_grid(2, 3.0, 15, boundary)
        assert_same_csr(assemble_system_operator(wrapped, grid).matrix,
                        assemble_system_operator(field, grid).matrix)


def test_point_callables_without_wrapper_are_rejected():
    # one-point callables ignore the batch axis; unwrapped they would broadcast
    field = CoefficientField(dim_d=1, dim_m=1, Q=lambda x: np.eye(1),
                             b=lambda x: np.zeros(1), C=lambda x: np.zeros((1, 1)))
    with pytest.raises(ValueError, match="from_pointwise"):
        assemble_system_operator(field, build_grid(1, 2.0, 9, "neumann"))


def test_nonfinite_coefficient_names_the_node():
    field = CoefficientField.from_pointwise(
        1, 1, lambda x: np.eye(1) * (np.inf if x[0] == 0.5 else 1.0), lambda x: np.zeros(1),
        lambda x: np.zeros((1, 1)))
    with pytest.raises(ValueError, match=r"non-finite Q at \(0\.5,\)"):
        assemble_scalar_operator(field, build_grid(1, 2.0, 9, "neumann"))
