import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kolsys.coefficients import (
    BuiltinFamily,
    CoefficientField,
    derivative_bundle,
    evaluate,
    libm_pow,
    make_builtin,
    rowdot,
)


def family_1d(gamma=0.0, beta=1.0, b0=1.0, kind="exchange2", m=2, C0=None):
    return BuiltinFamily(dim_d=1, dim_m=m, gamma=gamma, beta=beta, b0=b0,
                         Q0=np.array([[1.0]]), coupling_kind=kind, C0=C0)


def test_example31_specialization_1d():
    # gamma=0, beta=1, b0=1: q(x) = 1, b(x) = -x(1+x^2)
    field = make_builtin(family_1d())
    for x in [-2.0, -0.3, 0.0, 1.7]:
        Q, b, _ = evaluate(field, [x])
        assert Q[0, 0] == pytest.approx(1.0, abs=0)
        assert b[0] == pytest.approx(-x * (1 + x * x), rel=1e-14)


def test_exchange2_coupling_at_origin():
    field = make_builtin(family_1d())
    _, _, C = evaluate(field, [0.0])
    assert np.allclose(C, [[-1.0, 1.0], [1.0, -1.0]])


def test_q_scaling_2d_gamma1():
    fam = BuiltinFamily(dim_d=2, dim_m=2, gamma=1.0, beta=1.0, b0=2.0,
                        Q0=np.eye(2), coupling_kind="exchange2")
    field = make_builtin(fam)
    Q, _, _ = evaluate(field, [1.0, 0.0])
    assert np.allclose(Q, 2.0 * np.eye(2))


def test_exchange2_far_field_decay():
    field = make_builtin(family_1d())
    _, _, C = evaluate(field, [1e3])
    scale = 1.0 / (1.0 + 1e6)
    assert np.allclose(C, scale * np.array([[-1, 1], [1, -1]]), rtol=1e-12)
    assert np.max(np.abs(C)) < 1.1e-6


def test_evaluate_rejects_nonfinite():
    field = make_builtin(family_1d())
    with pytest.raises(ValueError):
        evaluate(field, [np.nan])
    with pytest.raises(ValueError):
        evaluate(field, [np.inf])


def test_evaluate_is_pure():
    field = make_builtin(family_1d(gamma=1.5, beta=0.7))
    x = np.array([0.731])
    a = evaluate(field, x)
    b = evaluate(field, x)
    for u, v in zip(a, b):
        assert np.array_equal(u, v)


def test_make_builtin_rejects_bad_inputs():
    with pytest.raises(ValueError):
        make_builtin(family_1d(b0=0.0))
    with pytest.raises(ValueError):
        make_builtin(BuiltinFamily(dim_d=1, dim_m=2, gamma=0, beta=1, b0=1,
                                   Q0=np.array([[-1.0]]), coupling_kind="exchange2"))
    with pytest.raises(ValueError):
        make_builtin(BuiltinFamily(dim_d=1, dim_m=3, gamma=0, beta=1, b0=1,
                                   Q0=np.array([[1.0]]), coupling_kind="exchange2"))
    with pytest.raises(ValueError):
        make_builtin(family_1d(kind="constant_matrix"))  # missing C0
    with pytest.raises(ValueError):
        make_builtin(BuiltinFamily(dim_d=2, dim_m=2, gamma=0, beta=1, b0=1,
                                   Q0=np.array([[1.0, 2.0], [0.0, 1.0]])))


def test_drift_jacobian_and_r():
    # b(x) = -x(1+x^2) so Jb(x) = -1 - 3x^2 and r(0) = -1
    field = make_builtin(family_1d())
    bundle = derivative_bundle(field)
    for x in [0.0, 0.5, -2.0]:
        assert bundle.jac_b([x])[0, 0] == pytest.approx(-1 - 3 * x * x, rel=1e-13)
    assert bundle.r([0.0]) == pytest.approx(-1.0)


def test_q1_vanishes_for_constant_q():
    bundle = derivative_bundle(make_builtin(family_1d(gamma=0.0)))
    for x in [0.0, 1.0, -3.3]:
        assert bundle.q1([x]) == 0.0


def test_c1_at_origin_vanishes():
    # c(x) = 1/(1+x^2) is even, so the gradient of C vanishes at 0
    bundle = derivative_bundle(make_builtin(family_1d()))
    assert bundle.c1([0.0]) == pytest.approx(0.0, abs=1e-14)
    assert bundle.c1([1.0]) > 0


def finite_difference_jacobian(fn, x, h=1e-4):
    """Central-difference Jacobian of a vector/matrix-valued map, O(h^2)."""
    x = np.asarray(x, dtype=float)
    base = np.asarray(fn(x))
    out = np.zeros((len(x),) + base.shape)
    for k in range(len(x)):
        e = np.zeros_like(x)
        e[k] = h
        out[k] = (np.asarray(fn(x + e)) - np.asarray(fn(x - e))) / (2 * h)
    return out


@pytest.mark.parametrize("gamma,beta,kind,m,d", [
    (0.0, 1.0, "exchange2", 2, 1),
    (1.0, 1.0, "exchange2", 2, 1),
    (2.0, 0.5, "zeta3", 3, 1),
    (1.0, 1.0, "zeta3", 3, 2),
])
def test_bundle_matches_finite_differences(gamma, beta, kind, m, d):
    Q0 = np.eye(d) + 0.1 * np.ones((d, d))
    fam = BuiltinFamily(dim_d=d, dim_m=m, gamma=gamma, beta=beta, b0=1.3,
                        Q0=Q0, coupling_kind=kind)
    field = make_builtin(fam)
    rng = np.random.default_rng(7)
    for _ in range(4):
        x = rng.uniform(-1.5, 1.5, size=d)
        for analytic, fn in [(field.dQ, field.Q), (field.dC, field.C)]:
            fd = finite_difference_jacobian(fn, x)
            assert np.allclose(analytic(x), fd, rtol=1e-4, atol=1e-6)
        fd_jb = finite_difference_jacobian(field.b, x)
        # finite_difference_jacobian returns D_k b_i at [k, i]; jac_b is [i, k]
        assert np.allclose(field.jac_b(x), fd_jb.T, rtol=1e-4, atol=1e-6)
        fd_d2b = finite_difference_jacobian(lambda y: field.jac_b(y).T, x)
        assert np.allclose(field.d2b(x), fd_d2b, rtol=1e-4, atol=1e-5)
        fd_d2q = finite_difference_jacobian(field.dQ, x)
        assert np.allclose(field.d2Q(x), fd_d2q, rtol=1e-4, atol=1e-5)
        fd_d2c = finite_difference_jacobian(field.dC, x)
        assert np.allclose(field.d2C(x), fd_d2c, rtol=1e-4, atol=1e-5)


def test_zero_row_and_column_sums():
    for kind, m in [("exchange2", 2), ("zeta3", 3)]:
        field = make_builtin(family_1d(kind=kind, m=m))
        for x in [0.0, 0.7, -4.0]:
            _, _, C = evaluate(field, [x])
            assert np.allclose(C.sum(axis=0), 0.0, atol=1e-14)
            assert np.allclose(C.sum(axis=1), 0.0, atol=1e-14)
            offdiag = C - np.diag(np.diag(C))
            assert np.all(offdiag >= 0)


@settings(max_examples=30, deadline=None)
@given(x=st.floats(-50, 50), kind=st.sampled_from(["exchange2", "zeta3"]))
def test_symmetrized_coupling_dissipative(x, kind):
    m = 2 if kind == "exchange2" else 3
    field = make_builtin(family_1d(kind=kind, m=m))
    _, _, C = evaluate(field, [x])
    sym = 0.5 * (C + C.T)
    scale = max(1.0, np.linalg.norm(C))
    assert np.max(np.linalg.eigvalsh(sym)) <= 1e-12 * scale


def test_q_symmetry_everywhere():
    fam = BuiltinFamily(dim_d=2, dim_m=2, gamma=1.2, beta=0.4, b0=0.9,
                        Q0=np.array([[2.0, 0.3], [0.3, 1.0]]))
    field = make_builtin(fam)
    rng = np.random.default_rng(0)
    for _ in range(10):
        Q, _, _ = evaluate(field, rng.uniform(-3, 3, size=2))
        assert np.linalg.norm(Q - Q.T) <= 1e-12 * np.linalg.norm(Q)


def test_second_order_magnitudes_1d():
    # gamma=0: q2 = 0; b(x) = -x - x^3 has b'' = -6x
    bundle = derivative_bundle(make_builtin(family_1d()))
    assert bundle.q2([1.0]) == 0.0
    assert bundle.b2([1.0]) == pytest.approx(6.0, rel=1e-12)
    assert bundle.mu_q([2.0]) == pytest.approx(1.0)


def test_batch_with_nan_point_names_it():
    field = make_builtin(family_1d())
    pts = np.array([[0.0], [1.5], [np.nan], [2.0]])
    with pytest.raises(ValueError, match=r"non-finite evaluation point \(nan,\)"):
        field.Q(pts)
    field2 = make_builtin(BuiltinFamily(dim_d=2, dim_m=2, gamma=0.0, beta=1.0, b0=1.0,
                                        Q0=np.eye(2)))
    pts = np.array([[0.0, 1.0], [-0.25, np.inf]])
    with pytest.raises(ValueError, match=r"non-finite evaluation point \(-0\.25, inf\)"):
        evaluate(field2, pts)


def test_batch_with_wrong_last_axis_rejected():
    field = make_builtin(BuiltinFamily(dim_d=2, dim_m=2, gamma=0.0, beta=1.0, b0=1.0,
                                       Q0=np.eye(2)))
    for bad in (np.zeros((5, 3)), np.zeros((2, 5)), np.zeros(3)):
        with pytest.raises(ValueError, match="expected points in R\\^2"):
            field.C(bad)
        with pytest.raises(ValueError, match="expected points in R\\^2"):
            evaluate(field, bad)


def test_from_pointwise_keeps_single_point_meaning():
    field = CoefficientField.from_pointwise(
        1, 2, lambda x: 2.0, lambda x: -x, lambda x: np.array([[-1.0, 1.0], [1.0, -1.0]]))
    assert field.Q(0.3).shape == (1, 1) and field.Q([0.3])[0, 0] == 2.0
    Q, b, C = evaluate(field, np.linspace(-1, 1, 5)[:, None])
    assert Q.shape == (5, 1, 1) and b.shape == (5, 1) and C.shape == (5, 2, 2)
    assert np.array_equal(b[:, 0], -np.linspace(-1, 1, 5))


EVALUATORS = ("Q", "b", "C", "dQ", "jac_b", "dC", "d2Q", "d2b", "d2C")
BUNDLE_VALUES = ("r", "mu_q", "q1", "c1", "q2", "c2", "b2")


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([1, 2]),
       gamma=st.sampled_from([0.0, 1.0, 2.0, 0.7, 1.5]),
       beta=st.sampled_from([0.0, 1.0, 2.0, 0.4]),
       kind=st.sampled_from(["exchange2", "zeta3", "constant_matrix"]),
       seed=st.integers(0, 2 ** 16))
def test_batched_evaluation_equals_single_points(d, gamma, beta, kind, seed):
    m = 3 if kind == "zeta3" else 2
    C0 = np.array([[-1.0, 0.5], [0.5, -1.0]]) if kind == "constant_matrix" else None
    Q0 = np.eye(1) if d == 1 else np.array([[2.0, 0.5], [0.5, 1.0]])
    field = make_builtin(BuiltinFamily(dim_d=d, dim_m=m, gamma=gamma, beta=beta, b0=1.3,
                                       Q0=Q0, coupling_kind=kind, C0=C0))
    bundle = derivative_bundle(field)
    pts = np.random.default_rng(seed).uniform(-6.0, 6.0, size=(3, 4, d))
    pts[0, 0] = 0.0
    for name in EVALUATORS + BUNDLE_VALUES:
        fn = getattr(field, name) if name in EVALUATORS else getattr(bundle, name)
        batch = fn(pts)
        single = np.array([[fn(x) for x in row] for row in pts])
        assert batch.shape == single.shape, name
        assert np.array_equal(batch, single), name
        assert np.array_equal(np.signbit(batch), np.signbit(single)), name


def test_libm_pow_matches_python_float_pow():
    # numpy's vectorized power rounds differently for a few percent of these
    base = 1.0 + np.random.default_rng(3).uniform(0.0, 72.0, 2000)
    for p in (0.0, 1.0, 2.0, 3.0, -1.0, -2.0, 0.7):
        assert np.array_equal(libm_pow(base, p), [v ** p for v in base.tolist()])


def test_rowdot_matches_np_dot_bitwise():
    rng = np.random.default_rng(4)
    for d in (1, 2, 3):
        u, v = rng.uniform(-6, 6, (50, d)), rng.uniform(-6, 6, (50, d))
        u[0], v[0] = -0.0, 0.0
        want = np.array([np.dot(a, b) for a, b in zip(u, v)])
        got = rowdot(u, v)
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
