import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kolsys.coefficients import BuiltinFamily, CoefficientField, make_builtin
from kolsys.hypotheses import (
    SampleSpec,
    check_growth,
    check_hypotheses,
    check_lyapunov,
    compute_common_kernel,
    estimate_kp,
    irreducibility_graph,
    spectral_check_C,
)

SPEC = SampleSpec(radius=6.0, n_per_axis=81)


def poly_family(gamma=0.0, beta=1.0, b0=1.0, kind="exchange2", m=2, C0=None, d=1):
    return make_builtin(BuiltinFamily(
        dim_d=d, dim_m=m, gamma=gamma, beta=beta, b0=b0,
        Q0=np.eye(d), coupling_kind=kind, C0=C0))


def constant_field(C0, d=1):
    C0 = np.asarray(C0, dtype=float)
    return poly_family(kind="constant_matrix", m=C0.shape[0], C0=C0, d=d)


def test_exchange2_all_checks_pass():
    report = check_hypotheses(poly_family(), SPEC)
    assert report.passed
    assert report.record("ellipticity").constants["mu0"] == pytest.approx(1.0)


def test_zeta3_dissipativity():
    report = check_hypotheses(poly_family(kind="zeta3", m=3), SPEC)
    assert report.passed
    # brute-force eigensolve cross-check on a dense sample
    field = poly_family(kind="zeta3", m=3)
    rng = np.random.default_rng(11)
    for x in rng.uniform(-6, 6, size=(1000, 1)):
        C = field.C(x)
        assert np.max(np.linalg.eigvalsh(0.5 * (C + C.T))) <= 1e-12


def test_diagonal_coupling_fails_irreducibility():
    report = check_hypotheses(constant_field([[-1.0, 0.0], [0.0, -1.0]]), SPEC)
    rec = report.record("irreducibility")
    assert rec.status == "fail"
    assert rec.constants["closed_set"] in {"1", "2"}


def test_kernel_exchange2():
    kv = compute_common_kernel(poly_family(), SPEC)
    assert np.allclose(kv.xi, np.array([1.0, 1.0]) / np.sqrt(2), atol=1e-12)
    assert kv.residual <= 1e-10


def test_kernel_zeta3():
    kv = compute_common_kernel(poly_family(kind="zeta3", m=3), SPEC)
    assert np.allclose(kv.xi, np.ones(3) / np.sqrt(3), atol=1e-10)
    assert np.min(kv.xi) > 0


def test_kernel_refinement_stability():
    kv1 = compute_common_kernel(poly_family(), SPEC)
    fine = SampleSpec(radius=SPEC.radius, n_per_axis=2 * SPEC.n_per_axis - 1,
                      n_annuli=SPEC.n_annuli)
    kv2 = compute_common_kernel(poly_family(), fine)
    assert np.linalg.norm(kv1.xi - kv2.xi) <= 1e-8


def test_kernel_negative_definite_coupling_errors():
    # eigenvalues -1 and -3: no kernel at all
    with pytest.raises(ValueError, match="nullspace dimension 0"):
        compute_common_kernel(constant_field([[-2.0, 1.0], [1.0, -2.0]]), SPEC)


def test_lyapunov_quartic_drift():
    field = poly_family()
    res = check_lyapunov(field, 1.0, SPEC)
    assert res.passed
    # hard pointwise assertion for the fitted pair on an independent sample
    xs = np.linspace(-6, 6, 401)
    phi = 1 + xs ** 2
    a_phi = 2 - 2 * xs ** 2 - 2 * xs ** 4
    assert np.all(a_phi <= res.a - res.c * phi + 1e-9)
    # the pair (a, c) = (4, 2) quoted for this family is valid as well
    assert np.all(a_phi <= 4 - 2 * phi + 1e-12)


def test_lyapunov_beta_exceeds_gamma_minus_one():
    # confining whenever beta > (gamma - 1)^+
    assert check_lyapunov(poly_family(gamma=1.0, beta=1.0), 1.0, SPEC).passed
    assert check_lyapunov(poly_family(gamma=2.0, beta=1.5), 1.0, SPEC).passed


def test_lyapunov_fails_when_diffusion_dominates():
    field = poly_family(gamma=2.0, beta=0.0)
    res = check_lyapunov(field, 1.0, SPEC)
    assert res.status == "inconclusive"


def test_lyapunov_rejects_bad_exponent():
    with pytest.raises(ValueError):
        check_lyapunov(poly_family(), 0.0, SPEC)


def test_growth_quartic_drift():
    res = check_growth(poly_family(), 1.0, SPEC)
    assert res.passed
    assert res.c == pytest.approx(1.0)
    assert res.drift_sup == pytest.approx(0.0)


def test_growth_exact_cancellation():
    res = check_growth(poly_family(gamma=2.0), 1.0, SPEC)
    assert res.passed
    assert res.c == pytest.approx(1.0)


def test_growth_fails_for_small_exponent():
    res = check_growth(poly_family(gamma=2.0), 0.5, SPEC)
    assert res.status == "fail"


def test_kp_first_order_exchange2():
    est = estimate_kp(poly_family(), p=2.0, sample_spec=SPEC)
    assert est.bounded
    # gamma = 0: the Q1^2 term vanishes; expression is r - mu_Q + C1^2 < 0
    assert est.sups["K_p"] < 0
    assert abs(est.sups["K_p"]) < 2.5  # sup sits near the origin


def test_kp_second_order_requires_constants():
    with pytest.raises(ValueError, match="missing constants"):
        estimate_kp(poly_family(), p=2.0, sample_spec=SPEC, constants={"c_1p": 1.0})


def test_kp_trend_verdict_for_growing_diffusion():
    # gamma = 2, beta = 1: the Q1^2/mu_Q term and the drift term compete;
    # the annulus trend must produce a verdict either way
    est = estimate_kp(poly_family(gamma=2.0, beta=1.0), p=2.0, sample_spec=SPEC)
    assert est.trend in ("bounded", "unbounded")
    assert np.isfinite(est.sups["K_p"])


def test_kp_second_order_ratios():
    constants = {f"c_{j}p": 1.0 for j in range(1, 7)}
    est = estimate_kp(poly_family(gamma=1.0), p=2.0, sample_spec=SPEC,
                      constants=constants)
    assert "K_1p" in est.sups and "K_2p" in est.sups
    # |Q| = (1+x^2) and mu_Q = (1+x^2): ratio 1/(1+x^2) <= 1
    assert est.ratio_sups["q_over_phi_mu"] <= 1.0 + 1e-12


def test_spectral_check_builtin_families():
    rng = np.random.default_rng(3)
    pts = {1: rng.uniform(-6, 6, size=(200, 1)), 2: rng.uniform(-6, 6, size=(400, 2))}
    for kind, m, d in [("exchange2", 2, 1), ("zeta3", 3, 1), ("exchange2", 2, 2)]:
        rep = spectral_check_C(poly_family(kind=kind, m=m, d=d), pts[d])
        assert rep.passed
        assert rep.details["kernel_angle"] <= 1e-8


def test_spectral_check_pass_witness_is_the_largest_real_part():
    field = poly_family(kind="zeta3", m=3)
    pts = np.random.default_rng(3).uniform(-6, 6, size=(200, 1))
    rep = spectral_check_C(field, pts)
    re_max = [np.max(np.linalg.eigvals(C).real) / max(1.0, np.linalg.norm(C))
              for C in field.C(pts)]
    i = int(np.argmax(re_max))
    assert rep.passed and i > 0
    assert rep.witness.x == tuple(pts[i])
    assert rep.witness.value == rep.measured == re_max[i]


def test_spectral_check_kernel_mismatch_fails():
    # Ker C = span(1, 1) and Ker C^T = span(0, 1) meet at an angle of pi/4
    pts = np.linspace(-3.0, 3.0, 7)[:, None]
    rep = spectral_check_C(constant_field([[-1.0, 1.0], [0.0, 0.0]]), pts)
    assert rep.status == "fail"
    assert rep.details["kernel_angle"] == pytest.approx(np.pi / 4, rel=1e-12)
    assert rep.witness.x == (-3.0,)


def test_spectral_check_fails_without_kernel_inside_eigenvalue_tolerance():
    # both eigenvalues lie within tol_eig of 0, but C has no kernel
    rep = spectral_check_C(constant_field(np.diag([-1e-12, -2e-12])), np.zeros((1, 1)))
    assert rep.status == "fail"
    assert rep.details["reason"] == "zero eigenvalue or kernel missing"


def test_spectral_check_exchange2_eigenvalues_at_origin():
    field = poly_family()
    C = field.C(np.array([0.0]))
    eig = np.sort(np.linalg.eigvalsh(C))
    assert np.allclose(eig, [-2.0, 0.0], atol=1e-14)


def test_spectral_check_identity_fails():
    rep = spectral_check_C(constant_field(np.eye(2)), np.zeros((1, 1)))
    assert rep.status == "fail"
    assert rep.measured > 0.4


def irreducibility_brute_force(pattern):
    """No proper nonempty K with pattern[i, j] false for all i in K, j not in K.

    Exponential reference implementation, usable for m <= 12.
    """
    m = pattern.shape[0]
    if m > 12:
        raise ValueError("brute force limited to m <= 12")
    for bits in range(1, 2 ** m - 1):
        K = [i for i in range(m) if bits >> i & 1]
        rest = [j for j in range(m) if not bits >> j & 1]
        if not any(pattern[i, j] for i in K for j in rest):
            return False, K
    return True, None


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2 ** 30 - 1))
def test_irreducibility_graph_matches_brute_force(m, seed):
    rng = np.random.default_rng(seed)
    pattern = rng.random((m, m)) < 0.35
    np.fill_diagonal(pattern, False)
    ok_graph, wit_graph = irreducibility_graph(pattern)
    ok_brute, wit_brute = irreducibility_brute_force(pattern)
    assert ok_graph == ok_brute
    if not ok_graph:
        K = wit_graph
        rest = [j for j in range(m) if j not in K]
        assert not pattern[np.ix_(K, rest)].any()


def test_irreducibility_larger_m():
    rng = np.random.default_rng(5)
    for _ in range(5):
        m = 12
        pattern = rng.random((m, m)) < 0.18
        np.fill_diagonal(pattern, False)
        assert irreducibility_graph(pattern)[0] == irreducibility_brute_force(pattern)[0]


def test_empty_sample_rejected():
    with pytest.raises(ValueError):
        check_hypotheses(poly_family(), SampleSpec(radius=6.0, n_per_axis=5))


def test_checks_in_two_dimensions():
    field = poly_family(kind="zeta3", m=3, d=2)
    spec = SampleSpec(radius=3.0, n_per_axis=11)
    report = check_hypotheses(field, spec)
    assert report.passed
    kv = compute_common_kernel(field, spec)
    assert np.allclose(kv.xi, np.ones(3) / np.sqrt(3), atol=1e-10)
    assert check_lyapunov(field, 1.0, spec).passed


def test_point_callables_without_wrapper_are_rejected():
    def one_point(x):
        return np.eye(2)
    field = CoefficientField(dim_d=2, dim_m=2, Q=one_point, b=lambda x: np.zeros(2),
                             C=lambda x: np.array([[-1.0, 1.0], [1.0, -1.0]]))
    with pytest.raises(ValueError, match="from_pointwise"):
        check_hypotheses(field, SPEC)
    wrapped = CoefficientField.from_pointwise(2, 2, field.Q, field.b, field.C)
    assert check_hypotheses(wrapped, SampleSpec(radius=2.0, n_per_axis=11)).passed
