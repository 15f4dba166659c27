"""Simplex quadrature with construction-time exactness certification.

Every rule built here is checked, monomial by monomial, against the exact
moment oracle before it is returned; a misprinted or mis-derived rule fails
loudly instead of silently polluting an assembly.

Families:

* d=1: Gauss-Legendre on [0, 1].
* d=2, exactness <= 7: Grundmann-Moller (exact rational weights, some
  negative; its weight-sum ratio stays within the conditioning guard up to
  degree 7).
* d=2, exactness >= 8: conical-product Gauss-Legendre x Gauss-Jacobi
  (all-positive weights; Grundmann-Moller's |w|-sum grows past the guard
  at degree 9 and above).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial.legendre import leggauss

from .exactbasis import exponents_of_degree, monomial_integral, multi_indices

__all__ = [
    "MAX_EXACTNESS",
    "QuadratureRule",
    "conical_product_rule",
    "gauss_legendre_interval",
    "grundmann_moeller",
    "simplex_rule",
]

MAX_EXACTNESS = 30

# Relative error allowed per monomial when certifying a rule.
CERTIFICATE_RTOL = 1e-13

# Conditioning guard: sum |w| may exceed the simplex volume by at most this factor.
WEIGHT_SUM_GUARD = 10.0


@dataclass(frozen=True)
class QuadratureRule:
    """Points/weights on the reference simplex, exact for degree <= exactness."""

    dim: int
    points: np.ndarray  # (nq, dim)
    weights: np.ndarray  # (nq,)
    exactness: int

    def __post_init__(self):
        points = np.ascontiguousarray(self.points, dtype=float)
        weights = np.ascontiguousarray(self.weights, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise ValueError("points must have shape (nq, dim)")
        if weights.shape != (points.shape[0],):
            raise ValueError("weights must have shape (nq,)")
        points.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)

    @property
    def num_points(self) -> int:
        return self.weights.shape[0]

    def integrate_monomial(self, alpha) -> float:
        vals = np.prod(self.points ** np.asarray(alpha, dtype=float), axis=1)
        return float(self.weights @ vals)


def _certify(rule: QuadratureRule) -> QuadratureRule:
    """Check the rule against the exact moment oracle; raise on any failure."""
    if not np.all(np.isfinite(rule.weights)) or not np.all(np.isfinite(rule.points)):
        raise RuntimeError("quadrature rule has non-finite entries")
    volume = 1.0 / math.factorial(rule.dim)
    weight_sum = float(np.sum(rule.weights))
    if abs(weight_sum - volume) > 1e-14:
        raise RuntimeError(
            f"weight sum {weight_sum!r} differs from simplex volume {volume!r}"
        )
    if float(np.sum(np.abs(rule.weights))) > WEIGHT_SUM_GUARD * volume:
        raise RuntimeError("quadrature rule fails the |w|-sum conditioning guard")
    alphas = multi_indices(rule.dim, rule.exactness)
    # every monomial at every point at once, shape (nq, M)
    table = np.prod(rule.points[:, None, :] ** np.array(alphas, dtype=float), axis=2)
    exact = np.array([float(monomial_integral(alpha)) for alpha in alphas])
    rel = np.abs(rule.weights @ table - exact) / exact
    failing = np.flatnonzero(rel > CERTIFICATE_RTOL)
    if failing.size:
        first = failing[0]
        raise RuntimeError(
            f"exactness certificate failed for x^{alphas[first]}: "
            f"relative error {rel[first]:.3e} (rule d={rule.dim}, exactness={rule.exactness})"
        )
    return rule


def gauss_legendre_interval(exactness: int) -> QuadratureRule:
    """Gauss-Legendre rule on [0, 1], exact for polynomials of degree <= exactness."""
    if exactness < 1 or exactness > MAX_EXACTNESS:
        raise ValueError(f"unsupported exactness {exactness}")
    m = (exactness + 2) // 2  # 2m - 1 >= exactness
    x, w = leggauss(m)
    return _certify(
        QuadratureRule(
            dim=1,
            points=((x + 1.0) / 2.0).reshape(-1, 1),
            weights=w / 2.0,
            exactness=exactness,
        )
    )


def grundmann_moeller(dim: int, s: int) -> QuadratureRule:
    """Grundmann-Moller rule of index s (degree 2s+1) on the d-simplex.

    Weights are computed as exact rationals from the closed formula and only
    then converted to float.  Weights alternate in sign for s >= 1.
    """
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    if s < 0:
        raise ValueError(f"index must be >= 0, got {s}")
    degree = 2 * s + 1
    points = []
    weights = []
    for i in range(s + 1):
        scale = degree + dim - 2 * i
        w = Fraction(
            (-1) ** i * scale**degree,
            4**s * math.factorial(i) * math.factorial(degree + dim - i),
        )
        for beta in exponents_of_degree(dim + 1, s - i):
            points.append([Fraction(2 * b + 1, scale) for b in beta[1:]])
            weights.append(w)
    return _certify(
        QuadratureRule(
            dim=dim,
            points=np.array([[float(c) for c in p] for p in points]),
            weights=np.array([float(w) for w in weights]),
            exactness=degree,
        )
    )


def conical_product_rule(exactness: int) -> QuadratureRule:
    """Conical-product rule on the unit triangle: Gauss-Legendre x Gauss-Jacobi.

    The collapsed coordinates (x, y) = (xi (1 - eta), eta) turn the triangle
    integral into int_0^1 int_0^1 f(xi(1-eta), eta) (1-eta) dxi deta, handled
    by an m-point Gauss-Legendre rule in xi and an m-point Gauss-Jacobi rule
    with weight (1-eta) in eta.  All weights positive; exact for total degree
    <= 2m - 1.
    """
    from scipy.special import roots_jacobi  # deferred: see the import rule in fem

    if exactness < 1 or exactness > MAX_EXACTNESS:
        raise ValueError(f"unsupported exactness {exactness}")
    m = (exactness + 2) // 2
    x, u = leggauss(m)
    xi = (x + 1.0) / 2.0
    u = u / 2.0
    t, v = roots_jacobi(m, 1.0, 0.0)
    eta = (t + 1.0) / 2.0
    v = v / 4.0  # maps int_{-1}^{1} (1-t) g dt onto int_0^1 (1-eta) g deta

    points = []
    weights = []
    for j in range(m):
        for i in range(m):
            points.append((xi[i] * (1.0 - eta[j]), eta[j]))
            weights.append(u[i] * v[j])
    return _certify(
        QuadratureRule(
            dim=2,
            points=np.array(points),
            weights=np.array(weights),
            exactness=exactness,
        )
    )


def simplex_rule(dim: int, exactness: int) -> QuadratureRule:
    """Quadrature rule on the reference simplex with prescribed polynomial exactness.

    The returned rule carries a construction-time certificate: every monomial
    of total degree <= exactness integrates to within 1e-13 relative error of
    the exact moment.
    """
    if dim == 1:
        return gauss_legendre_interval(exactness)
    if dim == 2:
        if exactness < 1 or exactness > MAX_EXACTNESS:
            raise ValueError(f"unsupported exactness {exactness}")
        if exactness <= 7:
            return grundmann_moeller(2, exactness // 2)  # degree 2s+1 >= exactness
        return conical_product_rule(exactness)
    raise ValueError(f"unsupported dimension {dim}; rules exist for d in {{1, 2}}")
