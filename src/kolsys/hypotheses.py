"""Sampled certification of the standing assumptions on a coefficient field.

Conditions quantified over all of R^d are checked on a sampled ball plus an
annulus trend test, so reports distinguish `pass` (bounded trend) from
`inconclusive`.  The Lyapunov function (1+|x|^2)^sigma, its derivatives and
the growth weight come from the coefficients' radial power.  Also computes
the common kernel direction of the coupling matrices, the vector spanning
the fixed-point space of the semigroup.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from kolsys.coefficients import CoefficientField, _radial_power, derivative_bundle, evaluate, rowdot
from kolsys.discretization import tensor_nodes
from kolsys.reports import CheckRecord, HypothesisReport, PropertyReport, Witness

_EQ_TOL = 1e-12


@dataclass(frozen=True)
class SampleSpec:
    """Tensor sampling of the ball of radius `radius` with an annulus partition."""

    radius: float = 6.0
    n_per_axis: int = 81
    n_annuli: int = 4

    def points(self, d):
        if self.n_per_axis < 10:
            raise ValueError("sample_spec needs at least 10 points per axis")
        if d not in (1, 2):
            raise ValueError("only d in {1, 2} is supported")
        return tensor_nodes(np.linspace(-self.radius, self.radius, self.n_per_axis), d)

    def annulus_index(self, points):
        radii = np.linalg.norm(points, axis=1)
        top = radii.max() * (1 + 1e-12)
        edges = np.linspace(0.0, top, self.n_annuli + 1)
        return np.clip(np.searchsorted(edges, radii, side="right") - 1,
                       0, self.n_annuli - 1)


@dataclass
class KernelVector:
    """Common unit kernel vector of the coupling matrices, all entries positive."""

    xi: np.ndarray
    residual: float
    sample_count: int


def _annulus_reduce(values, idx, n_annuli, reducer):
    out = np.full(n_annuli, np.nan)
    for a in range(n_annuli):
        sel = idx == a
        if np.any(sel):
            out[a] = reducer(values[sel])
    return out


def irreducibility_graph(pattern):
    """No proper nonempty K with pattern[i, j] false for all i in K, j not in K,
    decided by reachability in the off-diagonal edge graph.

    Squaring `pattern | I` m times closes it under paths (Horn & Johnson,
    Matrix Analysis, 2nd ed., 6.2): the pattern is irreducible iff the
    closure has no false entry.  Otherwise the nodes that a node reaching
    the fewest reaches are closed and strongly connected, the witness.
    """
    m = pattern.shape[0]
    reach = pattern | np.eye(m, dtype=bool)
    for _ in range(m):
        reach = reach @ reach
    if reach.all():
        return True, None
    return False, np.flatnonzero(reach[np.argmin(reach.sum(axis=1))]).tolist()


def check_hypotheses(field: CoefficientField, sample_spec=None) -> HypothesisReport:
    """Certify ellipticity, coupling dissipativity, off-diagonal sign and
    irreducibility on the sample set."""
    spec = sample_spec or SampleSpec()
    pts = spec.points(field.dim_d)
    if pts.size == 0:
        raise ValueError("empty sample set")
    m = field.dim_m

    Q, _, C = evaluate(field, pts)
    mu_vals = np.min(np.linalg.eigvalsh(Q), axis=-1)
    sym_eig = np.max(np.linalg.eigvalsh(0.5 * (C + np.swapaxes(C, -1, -2))), axis=-1)
    # the diagonal is masked with +inf; adding 0.0 elsewhere turns -0.0 into 0.0
    offdiag_min = np.min(C + np.where(np.eye(m, dtype=bool), np.inf, 0.0), axis=(-2, -1))
    pattern_max = np.max(np.abs(C), axis=0)
    c_scale = float(np.max(np.linalg.norm(C, axis=(-2, -1))))

    def tightest(name, key, pick, values, ok):
        """The record of `values` at its tightest sample point, pick(values),
        whose value is both witness and constant; ok is its pass rule."""
        i = int(pick(values))
        v = float(values[i])
        return CheckRecord(name=name, status="pass" if ok(v) else "fail",
                           witness=Witness(tuple(pts[i]), v), constants={key: v})

    tol = _EQ_TOL * max(1.0, c_scale)
    records = [
        tightest("ellipticity", "mu0", np.argmin, mu_vals, lambda v: v > 0),
        tightest("dissipativity", "max_sym_eigenvalue", np.argmax, sym_eig, lambda v: v <= tol),
        tightest("offdiagonal_nonnegative", "min_offdiagonal", np.argmin, offdiag_min,
                 lambda v: v >= -tol)]

    pattern_tol = _EQ_TOL * max(1.0, float(pattern_max.max()))
    pattern = pattern_max > pattern_tol
    np.fill_diagonal(pattern, False)
    ok, witness_set = irreducibility_graph(pattern)
    records.append(CheckRecord(
        name="irreducibility",
        status="pass" if ok else "fail",
        witness=None if ok else Witness((float("nan"),) * field.dim_d, 0.0),
        constants={} if ok else {"closed_set": " ".join(str(int(k) + 1) for k in witness_set)}))

    return HypothesisReport(records=records, sample_spec=spec)


def compute_common_kernel(field: CoefficientField, sample_spec=None,
                          kernel_tol=None, gap_factor=10.0) -> KernelVector:
    """Unit-norm common nullspace vector of the sampled coupling matrices.

    Stacks C(x_1); ...; C(x_S) and takes the right singular vector of the
    smallest singular value; requires a clear gap to the next singular value
    (the kernel is one-dimensional when the standing assumptions hold).
    """
    spec = sample_spec or SampleSpec()
    pts = spec.points(field.dim_d)
    mats = evaluate(field, pts)[2]
    c_scale = float(np.max(np.linalg.norm(mats, axis=(-2, -1))))
    if kernel_tol is None:
        kernel_tol = 1e-10 * max(1.0, c_scale)
    stacked = mats.reshape(-1, field.dim_m)
    _, svals, vh = np.linalg.svd(stacked, full_matrices=False)
    if svals[-1] > kernel_tol:
        raise ValueError(
            f"no common kernel: smallest singular value {svals[-1]:.3e} "
            f"exceeds tolerance {kernel_tol:.3e} (nullspace dimension 0)")
    if len(svals) > 1 and svals[-2] <= gap_factor * kernel_tol:
        raise ValueError(
            "degenerate coupling: common kernel dimension >= 2 (inconclusive)")
    xi = vh[-1]
    if np.all(xi <= 0):
        xi = -xi
    if np.any(xi <= 0):
        raise ValueError("kernel vector has entries of both signs; "
                         "coupling violates the standing sign assumptions")
    xi = xi / np.linalg.norm(xi)
    residual = float(np.max(np.linalg.norm(mats @ xi, axis=-1)))
    return KernelVector(xi=xi, residual=residual, sample_count=len(pts))


_LYAPUNOV_C_GRID = [2.0 ** k for k in range(-10, 11)]


def _phi_and_generator(field, pts, sigma):
    """phi(x) = (1+|x|^2)^sigma and A0 phi = Tr(Q D^2 phi) + <b, grad phi>."""
    Q, b, _ = evaluate(field, pts)
    # D^2 phi is symmetric, so Tr(Q D^2 phi) is the sum of the entrywise product
    trace_term = np.sum(Q * _radial_power(pts, sigma, 2), axis=(-2, -1))
    drift_term = rowdot(b, _radial_power(pts, sigma, 1))
    return _radial_power(pts, sigma, 0), trace_term + drift_term


@dataclass
class LyapunovResult:
    status: str                       # pass | inconclusive
    a: float
    c: float
    sigma: float
    witness: Witness | None = None
    best_tail_ratio: float = float("nan")   # min of a(c)/c over passing candidates

    @property
    def passed(self):
        return self.status == "pass"


def check_lyapunov(field: CoefficientField, phi_exponent, sample_spec=None) -> LyapunovResult:
    """Search the candidate grid for the smallest c with generator(phi) <= a - c phi.

    a is the sampled max of generator(phi) + c phi, so the margin is
    nonnegative by construction; validity beyond the sample radius is
    inferred from the margin growing on the outermost annulus.
    """
    sigma = float(phi_exponent)
    if sigma <= 0:
        raise ValueError("phi exponent must be positive")
    spec = sample_spec or SampleSpec()
    pts = spec.points(field.dim_d)
    ann = spec.annulus_index(pts)
    phi, a_phi = _phi_and_generator(field, pts, sigma)

    found = None
    best_ratio = np.inf
    for c in _LYAPUNOV_C_GRID:
        a = float(np.max(a_phi + c * phi))
        if not np.isfinite(a):
            continue
        margin = a - c * phi - a_phi
        assert np.min(margin) >= -1e-9 * max(1.0, abs(a)), "margin must be nonnegative"
        mins = _annulus_reduce(margin, ann, spec.n_annuli, np.min)
        scale = max(1.0, abs(a))
        if mins[-1] > mins[-2] + _EQ_TOL * scale:
            best_ratio = min(best_ratio, a / c)
            if found is None:
                i_tight = int(np.argmin(margin))
                found = LyapunovResult(
                    status="pass", a=a, c=float(c), sigma=sigma,
                    witness=Witness(tuple(pts[i_tight]), float(margin[i_tight])))
    if found is not None:
        found.best_tail_ratio = float(best_ratio)
        return found
    return LyapunovResult(status="inconclusive", a=float("nan"), c=float("nan"),
                          sigma=sigma)


@dataclass
class GrowthResult:
    status: str                       # pass | fail
    c: float
    q_sup: float
    drift_sup: float
    witness: Witness | None = None

    @property
    def passed(self):
        return self.status == "pass"


def _sup_trend_ok(values, ann, n_annuli):
    """Sup attained away from the boundary annulus, or non-increasing outward."""
    sups = _annulus_reduce(values, ann, n_annuli, np.max)
    scale = max(1.0, float(np.nanmax(np.abs(sups))))
    overall = float(np.nanmax(sups))
    if sups[-1] < overall - _EQ_TOL * scale:
        return True
    return sups[-1] <= sups[-2] + _EQ_TOL * scale


def check_growth(field: CoefficientField, phi_exponent, sample_spec=None) -> GrowthResult:
    """Boundedness of |q_ij| and <b, x>^+ against (1+|x|^2) phi(x)."""
    sigma = float(phi_exponent)
    spec = sample_spec or SampleSpec()
    pts = spec.points(field.dim_d)
    ann = spec.annulus_index(pts)
    denom = _radial_power(pts, sigma + 1.0, 0)

    Q, b, _ = evaluate(field, pts)
    q_ratio = np.max(np.abs(Q), axis=(-2, -1)) / denom
    bx = rowdot(b, pts)
    b_ratio = np.where(0.0 > bx, 0.0, bx) / denom       # max(bx, 0.0), keeping -0.0

    ok = _sup_trend_ok(q_ratio, ann, spec.n_annuli) and \
        _sup_trend_ok(b_ratio, ann, spec.n_annuli)
    c = float(max(q_ratio.max(), b_ratio.max()))
    i_w = int(np.argmax(np.maximum(q_ratio, b_ratio)))
    return GrowthResult(status="pass" if ok else "fail", c=c,
                        q_sup=float(q_ratio.max()), drift_sup=float(b_ratio.max()),
                        witness=Witness(tuple(pts[i_w]), c))


@dataclass
class KpEstimate:
    sups: dict
    trend: str                        # bounded | unbounded
    ratio_sups: dict
    constants: dict

    @property
    def bounded(self):
        return self.trend == "bounded"


def estimate_kp(field: CoefficientField, p, sample_spec=None, constants=None) -> KpEstimate:
    """Sampled suprema of the first- or second-order curvature expressions.

    With a `c_p` constant the first-order expression
        r + (1-p) mu_Q + Q1^2 / (4 (p-1) mu_Q) + c_p C1^2
    is evaluated; with constants c_1p..c_6p the two second-order expressions
    are evaluated instead, together with the growth-ratio suprema
    |Q| / ((1+|x|^2) mu_Q), |Qx| / ((1+|x|^2) mu_Q) and
    <b,x> / ((1+|x|^2) mu_Q).
    """
    if p <= 1:
        raise ValueError("p must exceed 1")
    spec = sample_spec or SampleSpec()
    constants = dict(constants or {"c_p": 1.0})
    bundle = derivative_bundle(field)
    pts = spec.points(field.dim_d)
    ann = spec.annulus_index(pts)

    second_order = "c_p" not in constants
    names = [f"c_{j}p" for j in range(1, 7)] if second_order else ["c_p"]
    missing = [k for k in names if k not in constants]
    if missing:
        raise ValueError(f"missing constants for the second-order expressions: {missing}")
    coef = [float(constants[k]) for k in names]

    sups, ratios = {}, {}
    mu = bundle.mu_q(pts)
    r = bundle.r(pts)
    q1sq = np.power(bundle.q1(pts), 2)
    if not second_order:
        vals = r + (1.0 - p) * mu + q1sq / (4.0 * (p - 1.0) * mu) \
            + coef[0] * np.power(bundle.c1(pts), 2)
        sups["K_p"] = float(vals.max())
        trend_ok = _sup_trend_ok(vals, ann, spec.n_annuli)
    else:
        c1p, c2p, c3p, c4p, c5p, c6p = coef
        b2 = bundle.b2(pts)
        v1 = r - c3p * mu + c1p * np.power(bundle.c1(pts), 2) \
            + 1.5 * q1sq / ((p - 1.0) * mu) + c2p * b2
        v2 = 2.0 * r - c6p * mu + c4p * b2 + c5p * np.power(bundle.c2(pts), 2) \
            + 4.0 * q1sq / ((p - 1.0) * mu) + bundle.q2(pts)
        Q, b, _ = evaluate(field, pts)
        den = _radial_power(pts, 1.0, 0) * mu
        rq = np.linalg.norm(Q, axis=(-2, -1)) / den
        rqx = np.linalg.norm(Q @ pts[:, :, None], axis=(-2, -1)) / den
        rb = rowdot(b, pts) / den
        sups["K_1p"] = float(v1.max())
        sups["K_2p"] = float(v2.max())
        ratios = {"q_over_phi_mu": float(rq.max()),
                  "qx_over_phi_mu": float(rqx.max()),
                  "b_over_phi_mu": float(rb.max())}
        trend_ok = all(_sup_trend_ok(v, ann, spec.n_annuli)
                       for v in (v1, v2, rq, rqx, rb))

    return KpEstimate(sups=sups, trend="bounded" if trend_ok else "unbounded",
                      ratio_sups=ratios, constants=constants)


def spectral_check_C(field: CoefficientField, sample_points,
                     tol_eig=1e-10, angle_tol=1e-8) -> PropertyReport:
    """Spectrum of C(x) in the closed left half-plane with 0 the only
    imaginary-axis eigenvalue, and Ker C(x) = Ker C(x)^T, at every point.

    A fail reports the first failing point in sample order, a pass the point
    of the largest real part.  Both kernels come from one SVD of C(x).
    """
    pts = np.atleast_2d(np.asarray(sample_points, dtype=float))
    C = evaluate(field, pts)[2]
    scale = np.maximum(1.0, np.linalg.norm(C, axis=(-2, -1)))
    eig = np.linalg.eigvals(C)
    re_max = np.max(eig.real, axis=-1) / scale
    on_axis = np.abs(eig.real) <= tol_eig * scale[:, None]
    imag_on_axis = np.max(np.where(on_axis, np.abs(eig.imag), 0.0), axis=-1) / scale
    has_zero = np.any(on_axis & (np.abs(eig) <= tol_eig * scale[:, None]), axis=-1)
    # Ker C is spanned by rows of Vh, Ker C^T by columns of U; for kernels of
    # equal dimension |P_C - P_C^T|_2 is the sine of their largest angle
    U, svals, Vh = np.linalg.svd(C)
    kernel = svals <= 1e-8 * svals[:, :1]
    proj_c = np.swapaxes(Vh, -1, -2) @ (kernel[:, :, None] * Vh)
    proj_ct = (U * kernel[:, None, :]) @ np.swapaxes(U, -1, -2)
    angle = np.arcsin(np.minimum(np.linalg.norm(proj_c - proj_ct, 2, axis=(-2, -1)), 1.0))

    missing = ~kernel.any(axis=-1) | ~has_zero
    bad = missing | (re_max > tol_eig) | (imag_on_axis > tol_eig) | (angle > angle_tol)
    failed = bool(bad.any())
    i = int(np.argmax(bad if failed else re_max))
    at = [i] if failed else slice(None)          # the failing point, or every point
    details = {"max_re": float(re_max[i]), "kernel_angle": float(np.max(angle[at])),
               "imag_on_axis": float(np.max(imag_on_axis[at])), "n_points": len(pts)}
    if failed and missing[i]:
        details["reason"] = "zero eigenvalue or kernel missing"
    return PropertyReport(name="spectral_structure", status="fail" if failed else "pass",
                          measured=float(re_max[i]), bound=0.0, tolerance=tol_eig,
                          witness=Witness(tuple(pts[i]), float(re_max[i])), details=details)
