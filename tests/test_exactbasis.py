"""Exact basis construction checked against independent oracles.

Oracles used here are deliberately separate from the library code paths:
iterated symbolic integration (sympy) for simplex moments, a local
fraction-arithmetic elimination for moment-matched quadrature weights, the
closed factorial formula for barycentric monomial integrals, and the float
reference mass matrix (built by certified quadrature) for exact squares.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrldisc.exactbasis import (
    audit_degrees,
    basis_integrals,
    integral_of_square,
    lagrange_basis,
    lattice_nodes,
    monomial_integral,
    multi_indices,
    solve_rational_system,
)
from ctrldisc.fem import ControlSpace, reference_mass_matrix
from ctrldisc.mesh import SimplexMesh
from ctrldisc.quadrature import grundmann_moeller, simplex_rule

SUPPORTED = (
    [(1, k) for k in range(1, 12)]
    + [(2, k) for k in range(1, 9)]
    + [(3, k) for k in range(1, 7)]
)


def solve_fractions(matrix, rhs):
    """Tiny independent rational solver (no pivot search, first nonzero pivot)."""
    n = len(matrix)
    rows = [[Fraction(v) for v in matrix[i]] + [Fraction(rhs[i])] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        for r in range(n):
            if r == col or rows[r][col] == 0:
                continue
            f = rows[r][col] / rows[col][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def barycentric_integral(exponents, d):
    """Exact integral of a barycentric monomial over the unit d-simplex.

    int prod lambda_i^{a_i} = (prod a_i!) * d! * |T| / (sum a_i + d)! with
    |T| = 1/d!, i.e. (prod a_i!) / (sum a_i + d)!.
    """
    num = 1
    for a in exponents:
        num *= math.factorial(a)
    return Fraction(num, math.factorial(sum(exponents) + d))


# ---------------------------------------------------------------------------
# moment oracle


def test_monomial_integral_examples():
    assert monomial_integral((0, 0)) == Fraction(1, 2)
    assert monomial_integral((1, 1)) == Fraction(1, 24)
    assert monomial_integral((3,)) == Fraction(1, 4)


def test_monomial_integral_dimension_check():
    with pytest.raises(ValueError):
        monomial_integral((1, 2), dim=3)
    with pytest.raises(ValueError):
        monomial_integral((1, -1))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_monomial_integral_matches_sympy(d):
    if d == 1:
        x = sympy.Symbol("x")
        for (a,) in multi_indices(1, 6):
            exact = sympy.integrate(x**a, (x, 0, 1))
            assert Fraction(int(exact.p), int(exact.q)) == monomial_integral((a,))
    elif d == 2:
        x, y = sympy.symbols("x y")
        for a, b in multi_indices(2, 4):
            exact = sympy.integrate(sympy.integrate(x**a * y**b, (y, 0, 1 - x)), (x, 0, 1))
            assert Fraction(int(exact.p), int(exact.q)) == monomial_integral((a, b))
    else:
        x, y, z = sympy.symbols("x y z")
        for a, b, c in multi_indices(3, 3):
            inner = sympy.integrate(x**a * y**b * z**c, (z, 0, 1 - x - y))
            mid = sympy.integrate(inner, (y, 0, 1 - x))
            exact = sympy.integrate(mid, (x, 0, 1))
            assert Fraction(int(exact.p), int(exact.q)) == monomial_integral((a, b, c))


# ---------------------------------------------------------------------------
# nodes


def test_multi_indices_graded_lex():
    assert multi_indices(2, 2) == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


def test_lattice_nodes_examples():
    assert lattice_nodes(1, 2) == [(0,), (Fraction(1, 2),), (1,)]
    assert set(lattice_nodes(2, 1)) == {(0, 0), (1, 0), (0, 1)}
    assert len(lattice_nodes(2, 4)) == 15


@pytest.mark.parametrize("d,k", SUPPORTED)
def test_lattice_nodes_distinct_and_inside(d, k):
    nodes = lattice_nodes(d, k)
    assert len(nodes) == math.comb(d + k, d)
    assert len(set(nodes)) == len(nodes)
    for node in nodes:
        assert all(x >= 0 for x in node)
        assert sum(node) <= 1


def test_lattice_nodes_rejects_bad_input():
    with pytest.raises(ValueError):
        lattice_nodes(4, 1)
    with pytest.raises(ValueError):
        lattice_nodes(0, 1)
    with pytest.raises(ValueError):
        lattice_nodes(2, 0)


# ---------------------------------------------------------------------------
# basis construction


def test_lagrange_basis_d1k1():
    # monomials 1, x
    spec = lagrange_basis(1, 1)
    assert spec.coefficients == ((1, -1), (0, 1))


def test_lagrange_basis_d1k2_frozen():
    # monomials 1, x, x^2
    spec = lagrange_basis(1, 2)
    assert spec.coefficients == ((1, -3, 2), (0, 4, -4), (0, -1, 2))
    assert all(type(c) is Fraction for row in spec.coefficients for c in row)


def test_lagrange_basis_d2k1_barycentric():
    # monomials 1, y, x (graded-lex: (0, 0), (0, 1), (1, 0))
    spec = lagrange_basis(2, 1)
    by_node = dict(zip(spec.nodes, spec.coefficients))
    assert by_node[(0, 0)] == (1, -1, -1)
    assert by_node[(1, 0)] == (0, 0, 1)
    assert by_node[(0, 1)] == (0, 1, 0)


@pytest.mark.parametrize("d,k", SUPPORTED)
def test_coefficient_rows_share_one_zero(d, k):
    spec = lagrange_basis(d, k)
    zeros = {id(c) for row in spec.coefficients for c in row if not c}
    assert len(zeros) == 1
    assert all(len(row) == spec.node_count for row in spec.coefficients)


@pytest.mark.parametrize("d,k", SUPPORTED)
def test_delta_property_exact(d, k):
    spec = lagrange_basis(d, k)
    monos = multi_indices(d, k)
    for j, node in enumerate(spec.nodes):
        mono_vals = {}
        for alpha in monos:
            v = Fraction(1)
            for x, a in zip(node, alpha):
                if a:
                    v *= x**a
            mono_vals[alpha] = v
        for i, row in enumerate(spec.coefficients):
            value = sum((c * mono_vals[a] for a, c in zip(monos, row)), Fraction(0))
            assert value == (1 if i == j else 0)


@pytest.mark.parametrize("d,k", SUPPORTED)
def test_partition_of_unity_exact(d, k):
    spec = lagrange_basis(d, k)
    total = [sum(column, Fraction(0)) for column in zip(*spec.coefficients)]
    assert multi_indices(d, k)[0] == (0,) * d
    assert total == [1] + [0] * (spec.node_count - 1)


@pytest.mark.parametrize("d,k", SUPPORTED)
def test_moment_sum_exact(d, k):
    integrals = basis_integrals(lagrange_basis(d, k))
    assert sum(integrals, Fraction(0)) == Fraction(1, math.factorial(d))


def vandermonde_basis(d, k):
    """Basis terms from the generalized Vandermonde system, inverted exactly."""
    monos = multi_indices(d, k)
    matrix = [
        [math.prod(x**a for x, a in zip(node, alpha)) for alpha in monos]
        for node in lattice_nodes(d, k)
    ]
    n = len(monos)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    inverse = solve_rational_system(matrix, identity)
    return [{monos[j]: inverse[j][i] for j in range(n) if inverse[j][i]} for i in range(n)]


@pytest.mark.parametrize(
    "d,k",
    [(1, k) for k in range(1, 11)] + [(2, k) for k in range(1, 9)] + [(3, k) for k in range(1, 7)],
)
def test_closed_form_equals_vandermonde_oracle(d, k):
    monos = multi_indices(d, k)
    terms = [{b: c for b, c in zip(monos, row) if c} for row in lagrange_basis(d, k).coefficients]
    assert terms == vandermonde_basis(d, k)


@pytest.mark.parametrize("d,k", SUPPORTED)
def test_stored_integrals_equal_term_by_term_integrals(d, k):
    spec = lagrange_basis(d, k)
    monos = multi_indices(d, k)
    assert spec.integrals == tuple(
        sum((c * monomial_integral(beta) for beta, c in zip(monos, row)), Fraction(0))
        for row in spec.coefficients
    )
    assert basis_integrals(spec) is spec.integrals


def test_lagrange_basis_rejects_bad_input():
    with pytest.raises(ValueError):
        lagrange_basis(4, 2)
    with pytest.raises(ValueError):
        lagrange_basis(2, 0)


# ---------------------------------------------------------------------------
# integrals against independent oracles


def test_basis_integrals_d1k2_simpson():
    assert basis_integrals(lagrange_basis(1, 2)) == (
        Fraction(1, 6),
        Fraction(2, 3),
        Fraction(1, 6),
    )


def test_basis_integrals_d2k2_barycentric_oracle():
    # vertex function lam(2 lam - 1), edge function 4 lam_a lam_b; oracle is
    # the factorial formula, not the Vandermonde path under test
    vertex = 2 * barycentric_integral((2,), 2) - barycentric_integral((1,), 2)
    edge = 4 * barycentric_integral((1, 1), 2)
    assert vertex == 0
    assert edge == Fraction(1, 6)

    spec = lagrange_basis(2, 2)
    integrals = basis_integrals(spec)
    for idx, node in enumerate(spec.nodes):
        if all(x in (0, 1) for x in node):  # simplex vertex
            assert integrals[idx] == vertex
        else:
            assert integrals[idx] == edge
    assert sorted(integrals) == [0, 0, 0, Fraction(1, 6), Fraction(1, 6), Fraction(1, 6)]


def test_basis_integrals_d3k2_barycentric_oracle():
    vertex = 2 * barycentric_integral((2,), 3) - barycentric_integral((1,), 3)
    edge = 4 * barycentric_integral((1, 1), 3)
    assert vertex == Fraction(-1, 120)
    assert edge == Fraction(1, 30)

    spec = lagrange_basis(3, 2)
    integrals = basis_integrals(spec)
    for idx, node in enumerate(spec.nodes):
        if all(x in (0, 1) for x in node):
            assert integrals[idx] == vertex
        else:
            assert integrals[idx] == edge


@pytest.mark.parametrize("k", range(1, 12))
def test_newton_cotes_equivalence_d1(k):
    # closed Newton-Cotes weights by independent moment matching:
    # sum_i w_i x_i^p = 1/(p+1) for p = 0..k
    nodes = [Fraction(i, k) for i in range(k + 1)]
    moments = [Fraction(1, p + 1) for p in range(k + 1)]
    system = [[node**p for node in nodes] for p in range(k + 1)]
    weights = solve_fractions(system, moments)
    assert tuple(weights) == basis_integrals(lagrange_basis(1, k))


def test_newton_cotes_first_negative_weight_at_k8():
    for k in range(1, 8):
        assert min(basis_integrals(lagrange_basis(1, k))) >= 0
    assert min(basis_integrals(lagrange_basis(1, 8))) < 0


# ---------------------------------------------------------------------------
# integrals of squares


@pytest.mark.parametrize("d,k", SUPPORTED)
def test_square_of_the_whole_basis_is_the_volume(d, k):
    # the basis sums to the constant 1, so the square integrates to 1/d!
    spec = lagrange_basis(d, k)
    assert integral_of_square(spec, range(spec.node_count)) == Fraction(1, math.factorial(d))


def test_square_of_the_quadratic_triangle_counterexample():
    # the certificate's d! M^2 for the degree-4 triangle's negative set
    spec = lagrange_basis(2, 4)
    negative = [j for j, v in enumerate(spec.integrals) if v < 0]
    assert 2 * integral_of_square(spec, negative) == Fraction(272, 1575)


# Above k = 6 in 1D the float monomial tabulation behind the mass matrix
# loses digits, so the float oracle stops there.
SQUARE_ORACLE_CASES = [(d, k) for d in (1, 2) for k in range(1, 7)] + [(3, 1), (3, 2)]


@st.composite
def index_sets(draw):
    d, k = draw(st.sampled_from(SQUARE_ORACLE_CASES))
    indices = draw(st.sets(st.integers(0, math.comb(d + k, d) - 1), min_size=1))
    return d, k, sorted(indices)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=index_sets())
def test_integral_of_square_matches_float_mass_matrix(case):
    d, k, indices = case
    cell = SimplexMesh(d, np.vstack([np.zeros(d), np.eye(d)]), np.arange(d + 1)[None, :], 1.0)
    rule = simplex_rule(d, 2 * k) if d < 3 else grundmann_moeller(3, k)
    mass = reference_mass_matrix(ControlSpace(cell, k), rule)
    mask = np.zeros(len(mass))
    mask[indices] = 1.0
    exact = integral_of_square(lagrange_basis(d, k), indices)
    assert float(exact) == pytest.approx(mask @ mass @ mask, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# audits


def test_audit_d1_list():
    report = audit_degrees(1, 11)
    assert report.nonnegative_degrees() == (1, 2, 3, 4, 5, 6, 7, 9)


def test_audit_d2_list():
    report = audit_degrees(2, 8)
    assert report.nonnegative_degrees() == (1, 2, 3, 5)


def test_audit_d3_list():
    report = audit_degrees(3, 6)
    assert report.nonnegative_degrees() == (1, 3)


def test_audit_zero_integral_counts_nonnegative():
    report = audit_degrees(3, 3)
    record = report.records[2]
    assert record.degree == 3
    assert any(v == 0 for v in record.integrals)
    assert record.all_nonnegative
    assert record.negative_indices == ()


def test_audit_record_consistency():
    report = audit_degrees(2, 6)
    for record in report.records:
        negative = tuple(i for i, v in enumerate(record.integrals) if v < 0)
        assert record.negative_indices == negative
        assert record.all_nonnegative == (not negative)


def test_audit_json_schema():
    payload = audit_degrees(2, 3).to_json_dict()
    assert payload["dimension"] == 2
    assert [r["k"] for r in payload["records"]] == [1, 2, 3]
    for rec in payload["records"]:
        assert isinstance(rec["all_nonnegative"], bool)
        assert all(isinstance(i, int) for i in rec["negative_indices"])
        for s in rec["integrals"]:
            num, den = s.split("/")
            assert int(den) > 0
            Fraction(int(num), int(den))


# ---------------------------------------------------------------------------
# rational solver


def test_solve_rational_system_singular():
    with pytest.raises(ValueError):
        solve_rational_system([[1, 2], [2, 4]], [[1], [1]])
