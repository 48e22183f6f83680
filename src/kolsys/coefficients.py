"""Coefficient fields (diffusion Q, drift b, zero-order coupling C) and their derivatives.

Builtin families follow the polynomial pattern

    Q(x) = (1 + |x|^2)^gamma * Q0,      b(x) = -b0 * x * (1 + |x|^2)^beta,

with coupling chosen among a 2x2 exchange matrix, a 3x3 zero-row-and-column-sum
family, or a user-supplied constant matrix.  All derivatives are analytic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

COUPLING_KINDS = ("exchange2", "zeta3", "constant_matrix")


@dataclass(frozen=True)
class CoefficientField:
    """Evaluators for the coefficients of a weakly coupled elliptic operator.

    Q maps a point to a symmetric d x d matrix, b to a d-vector, C to an
    m x m matrix with nonnegative off-diagonal entries.  Every evaluator
    broadcasts over leading axes: points of shape (..., d) map to (..., d, d),
    (..., d) and (..., m, m), and a single point of shape (d,) still maps to
    one matrix.  Callables that take one point at a time are wrapped with
    `from_pointwise`.  Derivative evaluators are present up to
    `smoothness_order`.  Instances are immutable and safe to share across
    workers.
    """

    dim_d: int
    dim_m: int
    Q: Callable
    b: Callable
    C: Callable
    smoothness_order: int = 1
    # first derivatives: dQ[k,i,j] = D_k q_ij, jac_b[i,j] = D_j b_i, dC[k,h,l] = D_k c_hl
    dQ: Callable | None = None
    jac_b: Callable | None = None
    dC: Callable | None = None
    # second derivatives: d2Q[k,l,i,j] = D_kl q_ij, d2b[k,l,i] = D_kl b_i, d2C[k,l,h,s]
    d2Q: Callable | None = None
    d2b: Callable | None = None
    d2C: Callable | None = None

    @classmethod
    def from_pointwise(cls, dim_d, dim_m, Q, b, C):
        """Field from callables that each take one point of shape (d,)."""
        def batched(fn, shape, core):
            one = np.vectorize(lambda x: np.reshape(np.asarray(fn(x), dtype=float), shape),
                               signature=f"(d)->{core}", otypes=[float])
            return lambda x: one(_as_point(x, dim_d))
        return cls(dim_d=dim_d, dim_m=dim_m, Q=batched(Q, (dim_d, dim_d), "(d,d)"),
                   b=batched(b, (dim_d,), "(d)"), C=batched(C, (dim_m, dim_m), "(m,m)"))


@dataclass(frozen=True)
class BuiltinFamily:
    """Parameters of the builtin coefficient family."""

    dim_d: int
    dim_m: int
    gamma: float
    beta: float
    b0: float
    Q0: np.ndarray
    coupling_kind: str = "exchange2"
    C0: np.ndarray | None = None      # only for coupling_kind == "constant_matrix"


def _as_point(x, d):
    """Points of shape (..., d) as a float array; a scalar is one point when d = 1."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x.reshape(1)
    if x.shape[-1] != d:
        raise ValueError(f"expected points in R^{d}, got shape {x.shape}")
    bad = ~np.isfinite(x).all(axis=-1)
    if bad.any():
        raise ValueError(f"non-finite evaluation point {tuple(x[bad][0].tolist())}")
    return x


_pow = np.frompyfunc(pow, 2, 1)


def libm_pow(base, p):
    """base ** p elementwise through the C library's pow, as Python's float **
    computes it; numpy's vectorized power differs from it in the last bit."""
    if p == 0.0 or p == 1.0:      # pow is exact there
        return np.ones_like(base) if p == 0.0 else np.array(base, dtype=float)
    return np.asarray(_pow(base, float(p)), dtype=float)


def _outer(x):
    return x[..., :, None] * x[..., None, :]


def rowdot(u, v):
    """np.dot of each pair of vectors on the last axis, bit for bit: one BLAS
    dot per pair, and a plain product for length 1, as np.dot takes it."""
    if u.shape[-1] == 1:
        return u[..., 0] * v[..., 0]
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _coupling_scalar(x):
    """Decay profile 1/(1+|x|^2) and its first two radial building blocks."""
    c = 1.0 / (1.0 + rowdot(x, x))
    dc = -2.0 * x * c[..., None] * c[..., None]                       # gradient
    cm = c[..., None, None]
    d2c = (-2.0 * np.eye(x.shape[-1]) * cm * cm
           + 8.0 * _outer(x) * libm_pow(c, 3)[..., None, None])
    return c, dc, d2c


_EXCHANGE2 = np.array([[-1.0, 1.0], [1.0, -1.0]])

# Zero row- and column-sum 3x3 pattern built from three positive weights.
def _zeta3_matrix(z1, z2, z3):
    return np.array([
        [-z1 - z2, z1, z2],
        [z2, -z1 - z2 - z3, z1 + z3],
        [z1, z2 + z3, -z1 - z2 - z3],
    ])


def make_builtin(family: BuiltinFamily) -> CoefficientField:
    """Build a CoefficientField for a builtin family with analytic derivatives.

    Rejects a non-symmetric or non-positive-definite Q0, an m mismatched with
    the coupling kind, and b0 <= 0.  beta = 0 is accepted so the
    Ornstein-Uhlenbeck drift b(x) = -b0 x is representable.
    """
    d, m = family.dim_d, family.dim_m
    Q0 = np.asarray(family.Q0, dtype=float)
    if Q0.shape != (d, d):
        raise ValueError(f"Q0 must be {d}x{d}, got {Q0.shape}")
    if not np.allclose(Q0, Q0.T, rtol=0, atol=1e-12 * max(1.0, np.linalg.norm(Q0))):
        raise ValueError("Q0 must be symmetric")
    if np.min(np.linalg.eigvalsh(Q0)) <= 0:
        raise ValueError("Q0 must be positive definite")
    if family.b0 <= 0:
        raise ValueError("b0 must be positive")
    if family.beta < 0:
        raise ValueError("beta must be nonnegative")
    if family.coupling_kind not in COUPLING_KINDS:
        raise ValueError(f"unknown coupling_kind {family.coupling_kind!r}")
    if family.coupling_kind == "exchange2" and m != 2:
        raise ValueError("exchange2 coupling requires dim_m = 2")
    if family.coupling_kind == "zeta3" and m != 3:
        raise ValueError("zeta3 coupling requires dim_m = 3")
    if family.coupling_kind == "constant_matrix":
        if family.C0 is None:
            raise ValueError("constant_matrix coupling requires C0")
        C0 = np.asarray(family.C0, dtype=float)
        if C0.shape != (m, m):
            raise ValueError(f"C0 must be {m}x{m}, got {C0.shape}")
    else:
        C0 = None

    gamma, beta, b0 = float(family.gamma), float(family.beta), float(family.b0)
    eye = np.eye(d)

    def phi_pow(x, p):
        # (1 + |x|^2)^p with a trailing axis, to scale one vector or matrix per point
        return libm_pow(1.0 + rowdot(x, x), p)[..., None]

    def Q(x):
        x = _as_point(x, d)
        return phi_pow(x, gamma)[..., None] * Q0

    def dQ(x):
        x = _as_point(x, d)
        fac = 2.0 * gamma * phi_pow(x, gamma - 1.0)
        return (fac * x)[..., None, None] * Q0

    def d2Q(x):
        x = _as_point(x, d)
        fac1 = 2.0 * gamma * phi_pow(x, gamma - 1.0)[..., None]
        fac2 = 4.0 * gamma * (gamma - 1.0) * phi_pow(x, gamma - 2.0)[..., None]
        core = fac1 * eye + fac2 * _outer(x)
        return core[..., None, None] * Q0

    def b(x):
        x = _as_point(x, d)
        return -b0 * x * phi_pow(x, beta)

    def jac_b(x):
        x = _as_point(x, d)
        p = phi_pow(x, beta)[..., None]
        pm1 = phi_pow(x, beta - 1.0)[..., None]
        return -b0 * (p * eye + 2.0 * beta * pm1 * _outer(x))

    def d2b(x):
        # out[..., k, l, i] = -b0 (2 beta phi^(beta-1) sym_kli
        #                          + 4 beta (beta-1) phi^(beta-2) x_i x_k x_l)
        x = _as_point(x, d)
        pm1 = phi_pow(x, beta - 1.0)[..., None, None]
        pm2 = phi_pow(x, beta - 2.0)[..., None, None]
        xk, xl, xi = x[..., :, None, None], x[..., None, :, None], x[..., None, None, :]
        sym = eye[:, None, :] * xl + eye[None, :, :] * xk + eye[:, :, None] * xi
        return -b0 * (2.0 * beta * pm1 * sym
                      + 4.0 * beta * (beta - 1.0) * pm2 * xi * xk * xl)

    if family.coupling_kind == "constant_matrix":
        def C(x):
            x = _as_point(x, d)
            return np.broadcast_to(C0, x.shape[:-1] + (m, m)).copy()

        def dC(x):
            x = _as_point(x, d)
            return np.zeros(x.shape[:-1] + (d, m, m))

        def d2C(x):
            x = _as_point(x, d)
            return np.zeros(x.shape[:-1] + (d, d, m, m))

    else:
        # exchange2, or zeta3 with zeta_i(x) = i / (1 + |x|^2), a concrete
        # smooth positive choice
        pattern = _EXCHANGE2 if family.coupling_kind == "exchange2" \
            else _zeta3_matrix(1.0, 2.0, 3.0)

        def C(x):
            x = _as_point(x, d)
            c, _, _ = _coupling_scalar(x)
            return c[..., None, None] * pattern

        def dC(x):
            x = _as_point(x, d)
            _, dc, _ = _coupling_scalar(x)
            return dc[..., None, None] * pattern

        def d2C(x):
            x = _as_point(x, d)
            _, _, d2c = _coupling_scalar(x)
            return d2c[..., None, None] * pattern

    return CoefficientField(dim_d=d, dim_m=m, Q=Q, b=b, C=C, smoothness_order=2,
                            dQ=dQ, jac_b=jac_b, dC=dC, d2Q=d2Q, d2b=d2b, d2C=d2C)


def evaluate(field: CoefficientField, x):
    """Evaluate (Q(x), b(x), C(x)) at a finite point or a batch of points.

    Each result must have the batch shape of `x` plus its own shape and be
    finite; a field built from one-point callables fails the shape test on a
    batch and is named as needing `CoefficientField.from_pointwise`.
    """
    d, m = field.dim_d, field.dim_m
    x = _as_point(x, d)
    out = []
    for name, fn, shape in (("Q", field.Q, (d, d)), ("b", field.b, (d,)),
                            ("C", field.C, (m, m))):
        value = np.asarray(fn(x), dtype=float)
        if value.shape != x.shape[:-1] + shape:
            raise ValueError(
                f"{name} returned shape {value.shape} for points of shape {x.shape}; "
                "wrap one-point callables with CoefficientField.from_pointwise")
        bad = ~np.isfinite(value.reshape(x.shape[:-1] + (-1,))).all(axis=-1)
        if bad.any():
            raise ValueError(f"non-finite {name} at {tuple(x[bad][0].tolist())}")
        out.append(value)
    return tuple(out)


def _float_or_array(values):
    """A float for a reduction to one value (one point), else the array (a batch)."""
    return float(values) if np.ndim(values) == 0 else values


def _sum_sq(a, n_axes):
    """Sum of squares over the last `n_axes` axes, in the order np.sum takes on
    one point's array."""
    sq = a ** 2
    return np.sum(sq.reshape(sq.shape[:sq.ndim - n_axes] + (-1,)), axis=-1)


class DerivativeBundle:
    """Derivative evaluators plus the scalar quantities derived from them.

    Exposes r(x) (largest eigenvalue of the symmetrized drift Jacobian),
    mu_q(x) (smallest eigenvalue of Q), and the multi-index derivative
    magnitudes q1, q2, c1, c2 and b2 used in the curvature-type suprema.
    Each takes one point (and returns a float) or a batch of points (and
    returns one value per point).
    """

    def __init__(self, field: CoefficientField):
        if field.jac_b is None or field.dQ is None or field.dC is None:
            raise ValueError("field supplies no analytic first derivatives")
        self.field = field
        self.jac_b = field.jac_b
        self.dQ = field.dQ
        self.dC = field.dC
        self.d2Q = field.d2Q
        self.d2b = field.d2b
        self.d2C = field.d2C

    @property
    def has_second_order(self):
        return (self.field.smoothness_order >= 2 and self.d2Q is not None
                and self.d2b is not None and self.d2C is not None)

    def _require_second(self):
        if not self.has_second_order:
            raise ValueError("field smoothness_order < 2: second derivatives unavailable")

    def r(self, x):
        jb = self.jac_b(x)
        sym = 0.5 * (jb + np.swapaxes(jb, -1, -2))
        return _float_or_array(np.max(np.linalg.eigvalsh(sym), axis=-1))

    def mu_q(self, x):
        return _float_or_array(np.min(np.linalg.eigvalsh(self.field.Q(x)), axis=-1))

    def q1(self, x):
        return _float_or_array(np.sqrt(_sum_sq(self.dQ(x), 3)))

    def c1(self, x):
        return _float_or_array(np.sqrt(_sum_sq(self.dC(x), 3)))

    def _mixed_pairs(self, d2):
        # sum over multi-indices |alpha| = 2: mixed pairs counted once
        d = self.field.dim_d
        total = 0.0
        for k in range(d):
            for l in range(k, d):
                total = total + _sum_sq(d2[..., k, l, :, :], 2)
        return _float_or_array(np.sqrt(total))

    def q2(self, x):
        self._require_second()
        return self._mixed_pairs(self.d2Q(x))

    def c2(self, x):
        self._require_second()
        return self._mixed_pairs(self.d2C(x))

    def b2(self, x):
        # ordered index pairs, matching sum_{i,j} |D_ij b|^2
        self._require_second()
        return _float_or_array(np.sqrt(_sum_sq(self.d2b(x), 3)))


def derivative_bundle(field: CoefficientField) -> DerivativeBundle:
    """Return the analytic derivative bundle of a field."""
    return DerivativeBundle(field)
