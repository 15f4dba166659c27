"""Quadrature rules: examples and the exactness/conditioning certificates."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from ctrldisc.exactbasis import monomial_integral, multi_indices
from ctrldisc.quadrature import (
    MAX_EXACTNESS,
    QuadratureRule,
    _certify,
    _gauss_jacobi_1_0,
    conical_product_rule,
    gauss_legendre_interval,
    grundmann_moeller,
    simplex_rule,
)


def certificate_error(rule):
    worst = 0.0
    for alpha in multi_indices(rule.dim, rule.exactness):
        exact = float(monomial_integral(alpha))
        worst = max(worst, abs(rule.integrate_monomial(alpha) - exact) / exact)
    return worst


def test_midpoint_rule_d1():
    rule = simplex_rule(1, 1)
    np.testing.assert_allclose(rule.points.ravel(), [0.5])
    np.testing.assert_allclose(rule.weights, [1.0])


def test_centroid_rule_d2():
    rule = simplex_rule(2, 1)
    np.testing.assert_allclose(rule.points, [[1 / 3, 1 / 3]])
    np.testing.assert_allclose(rule.weights, [0.5])


def test_d2_exactness4_x2y2():
    rule = simplex_rule(2, 4)
    assert monomial_integral((2, 2)) == Fraction(1, 180)
    assert rule.integrate_monomial((2, 2)) == pytest.approx(1 / 180, rel=1e-13, abs=0)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("exactness", range(1, MAX_EXACTNESS + 1))
def test_shipped_rules_certify(d, exactness):
    rule = simplex_rule(d, exactness)
    volume = 1.0 / math.factorial(d)
    assert abs(rule.weights.sum() - volume) < 1e-14
    assert np.abs(rule.weights).sum() <= 10.0 * volume
    assert np.isfinite(rule.weights).all()
    assert certificate_error(rule) <= 1e-13


def test_certificate_names_the_first_failing_monomial():
    # shifting x breaks every monomial with an x factor; graded-lex order
    # puts (0, 1) before (1, 0)
    rule = simplex_rule(2, 4)
    shifted = rule.points + [1e-9, 0.0]
    with pytest.raises(RuntimeError, match=r"failed for x\^\(1, 0\): relative error"):
        _certify(QuadratureRule(2, shifted, rule.weights, rule.exactness))


def test_certificate_checks_the_highest_degree_monomial():
    # 3-point Gauss-Legendre is exact to degree 5 only: claiming 6 fails on x^6
    rule = simplex_rule(1, 5)
    with pytest.raises(RuntimeError, match=r"failed for x\^\(6,\).*exactness=6"):
        _certify(QuadratureRule(1, rule.points, rule.weights, 6))


def test_grundmann_moeller_s1_frozen():
    # degree-3 rule on the triangle: 3 points at weight 25/96, centroid at -9/32
    rule = grundmann_moeller(2, 1)
    np.testing.assert_allclose(sorted(rule.weights), [-9 / 32, 25 / 96, 25 / 96, 25 / 96])
    assert rule.weights.sum() == pytest.approx(0.5, abs=1e-15)
    centroid = rule.points[np.argmin(rule.weights)]
    np.testing.assert_allclose(centroid, [1 / 3, 1 / 3])


def test_grundmann_moeller_has_negative_weights():
    for s in (1, 2, 3):
        assert grundmann_moeller(2, s).weights.min() < 0


def test_conical_product_weights_positive():
    for exactness in (8, 12, 18):
        rule = conical_product_rule(exactness)
        assert (rule.weights > 0).all()
        assert rule.num_points == ((exactness + 2) // 2) ** 2


def ulps_off(values, reference):
    """Largest distance of `values` from `reference`, in units of the reference's last place."""
    return float(np.max(np.abs(values - reference) / np.spacing(np.abs(reference))))


@pytest.mark.parametrize("m", range(1, (MAX_EXACTNESS + 2) // 2 + 1))
def test_gauss_jacobi_rule_against_mpmath(m):
    # the oracle: mpmath's Gauss-Jacobi rule for the weight (1 - t)^1 (1 + t)^0
    # at 40 digits; the numpy rule must be no farther from it than scipy's
    from scipy.special import roots_jacobi

    with mpmath.workdps(40):
        nodes, weights = mpmath.gauss_quadrature(m, "jacobi", 1, 0)
        nodes = np.array([float(x) for x in list(nodes)])
        weights = np.array([float(w) for w in list(weights)])
    order = np.argsort(nodes)
    nodes, weights = nodes[order], weights[order]
    t, w = _gauss_jacobi_1_0(m)
    scipy_t, scipy_w = roots_jacobi(m, 1.0, 0.0)
    assert ulps_off(t, nodes) <= ulps_off(scipy_t, nodes)
    assert ulps_off(w, weights) <= ulps_off(scipy_w, weights)
    if np.finfo(np.longdouble).eps < np.finfo(float).eps:
        # the Newton step and the weights in long double: every value correctly rounded
        assert ulps_off(t, nodes) == 0 and ulps_off(w, weights) == 0


@pytest.mark.parametrize("exactness,scipy_error", [(10, 1.13e-15), (18, 1.68e-15)])
def test_conical_rule_is_as_accurate_as_with_scipy_nodes(exactness, scipy_error):
    # demo 02's worst moment errors; scipy's Gauss-Jacobi nodes gave scipy_error
    assert certificate_error(simplex_rule(2, exactness)) <= 2 * scipy_error


def test_families_agree_on_low_degree():
    gm = grundmann_moeller(2, 3)  # degree 7
    cp = conical_product_rule(7)
    for alpha in multi_indices(2, 7):
        assert gm.integrate_monomial(alpha) == pytest.approx(
            cp.integrate_monomial(alpha), rel=1e-12
        )


def test_gauss_legendre_point_counts():
    assert gauss_legendre_interval(1).num_points == 1
    assert gauss_legendre_interval(5).num_points == 3
    assert gauss_legendre_interval(18).num_points == 10


def test_unsupported_requests_rejected():
    with pytest.raises(ValueError):
        simplex_rule(3, 2)
    with pytest.raises(ValueError):
        simplex_rule(2, 0)
    with pytest.raises(ValueError):
        simplex_rule(2, 31)
    with pytest.raises(ValueError):
        simplex_rule(1, 0)


def test_rule_shape_validation():
    with pytest.raises(ValueError):
        QuadratureRule(dim=2, points=np.zeros((3, 1)), weights=np.zeros(3), exactness=1)
    with pytest.raises(ValueError):
        QuadratureRule(dim=1, points=np.zeros((3, 1)), weights=np.zeros(2), exactness=1)
