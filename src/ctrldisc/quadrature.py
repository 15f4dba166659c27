"""Simplex quadrature with construction-time exactness certification.

Every rule built here is checked, monomial by monomial, against the exact
moments (each rounded once) before it is returned; a misprinted or
mis-derived rule fails loudly instead of silently polluting a result.
Assembly uses no rule (its blocks are exact Gram matrices, see
:func:`ctrldisc.exactbasis.gram`); rules serve the integrands that are not
polynomials: the negative part in ``ocp.feasibility_audit``,
``fem.assemble_load`` and ``fem.l2_error``.

Families:

* d=1: Gauss-Legendre on [0, 1].
* d=2, exactness <= 7: Grundmann-Moller (exact rational weights, some
  negative; its weight-sum ratio stays within the conditioning guard up to
  degree 7).
* d=2, exactness >= 8: conical-product Gauss-Legendre x Gauss-Jacobi
  (all-positive weights; Grundmann-Moller's |w|-sum grows past the guard
  at degree 9 and above).  Its Gauss-Jacobi factor is computed here with
  numpy (`_gauss_jacobi_1_0`), so building it loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial.legendre import leggauss

from .exactbasis import (
    MAX_EXACTNESS,
    SOLVE_DIMENSIONS,
    _check_size,
    _moment_scales,
    exponents_of_degree,
    multi_indices,
)

__all__ = [
    "QuadratureRule",
    "conical_product_rule",
    "gauss_legendre_interval",
    "grundmann_moeller",
    "simplex_rule",
]

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
    # prod(a!) / (|a| + d)!, one correctly rounded int / int each: float(monomial_integral(a))
    scales = _moment_scales(rule.dim, rule.exactness)
    top = math.factorial(rule.exactness + rule.dim)
    exact = np.array([math.prod(map(math.factorial, a)) * scales[sum(a)] / top for a in alphas])
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
    exactness = _check_size("exactness", exactness, 1, MAX_EXACTNESS)
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
    dim = _check_size("dimension", dim, 1)
    s = _check_size("index", s, 0)
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


def _jacobi_1_0(m: int, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P_{m-1}(t), P_m(t) and P_m'(t) for the Jacobi polynomials P_n^(1,0), m >= 1, |t| < 1.

    P_n by the three-term recurrence (n + 1)(2n - 1) P_n = ((4n^2 - 1) t + 1)
    P_{n-1} - (n - 1)(2n + 1) P_{n-2} from P_0 = 1, P_1 = (3t + 1) / 2; then
    (2m + 1)(1 - t^2) P_m' = m (1 - (2m + 1) t) P_m + 2m (m + 1) P_{m-1}.
    All in the precision of t.
    """
    previous, p = np.ones_like(t), (3 * t + 1) / 2
    for n in range(2, m + 1):
        s = (4 * n * n - 1) * t + 1
        previous, p = p, (s * p - (n - 1) * (2 * n + 1) * previous) / ((n + 1) * (2 * n - 1))
    dp = m * ((1 - (2 * m + 1) * t) * p + 2 * (m + 1) * previous) / ((2 * m + 1) * (1 - t * t))
    return previous, p, dp


def _gauss_jacobi_1_0(m: int) -> tuple[np.ndarray, np.ndarray]:
    """m-point Gauss rule for int_{-1}^{1} (1 - t) g(t) dt: nodes ascending, weights.

    Golub & Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues of
    the symmetric Jacobi matrix of the weight, with diagonal -1 / ((2n + 1)
    (2n + 3)) and off-diagonal sqrt(n (n + 1)) / (2n + 1).  One Newton step
    on P_m^(1,0) then corrects them, and the weights are 1 / (P_{m-1} P_m')
    at the corrected nodes (Christoffel-Darboux), scaled to sum to mu_0 = 2.
    The Newton step and the weights are computed in numpy's long double,
    which on x86-64 carries 11 more bits than a double; so for m <= 16 each
    node and weight is the correctly rounded double (tests/test_quadrature.py
    compares them with mpmath at 40 digits).  Where long double is double,
    the rule is a few hundred ulps less accurate at m = 16 and still certified.
    """
    n = np.arange(m)
    k = n[1:]
    jacobi = np.diag(-1.0 / ((2 * n + 1) * (2 * n + 3)))
    jacobi[k, k - 1] = np.sqrt(k * (k + 1.0)) / (2 * k + 1)  # eigvalsh reads the lower triangle
    t = np.linalg.eigvalsh(jacobi).astype(np.longdouble)
    _, p, dp = _jacobi_1_0(m, t)
    t -= p / dp
    previous, _, dp = _jacobi_1_0(m, t)
    w = 1 / (previous * dp)
    return t.astype(float), (w * (2 / w.sum())).astype(float)


def conical_product_rule(exactness: int) -> QuadratureRule:
    """Conical-product rule on the unit triangle: Gauss-Legendre x Gauss-Jacobi.

    The collapsed coordinates (x, y) = (xi (1 - eta), eta) turn the triangle
    integral into int_0^1 int_0^1 f(xi(1-eta), eta) (1-eta) dxi deta, handled
    by an m-point Gauss-Legendre rule in xi and an m-point Gauss-Jacobi rule
    (`_gauss_jacobi_1_0`) with weight (1-eta) in eta.  All weights positive;
    exact for total degree <= 2m - 1.
    """
    exactness = _check_size("exactness", exactness, 1, MAX_EXACTNESS)
    m = (exactness + 2) // 2
    x, u = leggauss(m)
    xi = (x + 1.0) / 2.0
    u = u / 2.0
    t, v = _gauss_jacobi_1_0(m)
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
    _check_size("dimension", dim, 1, SOLVE_DIMENSIONS[-1])
    if dim == 1:
        return gauss_legendre_interval(exactness)
    _check_size("exactness", exactness, 1, MAX_EXACTNESS)
    if exactness <= 7:
        return grundmann_moeller(2, exactness // 2)  # degree 2s+1 >= exactness
    return conical_product_rule(exactness)
