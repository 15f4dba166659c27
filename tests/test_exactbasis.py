"""Exact basis construction checked against independent oracles.

Oracles used here are deliberately separate from the library code paths:
iterated symbolic integration (sympy) for simplex moments, a local
fraction-arithmetic elimination for moment-matched quadrature weights, the
closed factorial formula for barycentric monomial integrals, the general-d
monomial expansion of the basis (`integer_rows`, which the library keeps for
d = 1 only), a Fraction-per-product double sum for the exact Gram matrix, and
a float Gram matrix built here by certified quadrature for exact squares.
"""

import dataclasses
import itertools
import math
import operator
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrldisc import exactbasis
from ctrldisc.exactbasis import (
    audit_degrees,
    basis_integrals,
    build_certificate,
    exponents_of_degree,
    gram,
    integral_of_square,
    lagrange_basis,
    lattice_nodes,
    monomial_integral,
    multi_indices,
    solve_rational_system,
)
from ctrldisc.fem import ControlSpace, StateSpace
from ctrldisc.mesh import SimplexMesh, unit_interval_mesh, unit_square_mesh
from ctrldisc.ocp import (
    Discretization,
    OcpConfig,
    convergence_study,
    feasibility_audit,
    solve_qp,
)
from ctrldisc.quadrature import (
    conical_product_rule,
    gauss_legendre_interval,
    grundmann_moeller,
    simplex_rule,
)

SUPPORTED = (
    [(1, k) for k in range(1, 12)]
    + [(2, k) for k in range(1, 9)]
    + [(3, k) for k in range(1, 7)]
)
# the closed-form integrals are cross-checked past the degrees SUPPORTED covers
WIDE = (
    [(1, k) for k in range(1, 15)]
    + [(2, k) for k in range(1, 15)]
    + [(3, k) for k in range(1, 9)]
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


def falling_factorial(shift, m):
    """Integer coefficients of prod_{j<m} (t + shift - j), lowest power of t first."""
    coeffs = [1]
    for j in range(m):
        coeffs = [(shift - j) * c + lower for c, lower in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def polynomial_product(a, b):
    """Product of two polynomials stored as {exponent tuple: int}."""
    out = Counter()
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[tuple(map(operator.add, ea, eb))] += ca * cb
    return out


@lru_cache(maxsize=None)
def integer_rows(d, k):
    """{alpha: k! times the monomial coefficients of the basis function of node alpha / k}.

    Silvester's product form (see `lagrange_basis`) expanded in y = k x: k!
    phi_alpha is k! / prod_i alpha_i! times the falling factorial of k -
    sum(y) of order alpha_0 = k - |alpha| and those of each y_i of order
    alpha_i, and the coefficient of x^beta is that of y^beta times k^|beta|.
    Columns follow multi_indices(d, k).  The partition of unity is checked.
    """
    monomials = multi_indices(d, k)
    zero = (0,) * d
    rows = {}
    for alpha in monomials:
        alpha_0 = k - sum(alpha)
        # (k - s)(k - 1 - s) ... in t = -s, through s^p = sum_{|beta| = p} p! / prod(beta!) y^beta
        f = falling_factorial(k, alpha_0)
        product = {
            beta: (-1) ** sum(beta) * f[sum(beta)]
            * (math.factorial(sum(beta)) // math.prod(map(math.factorial, beta)))
            for beta in multi_indices(d, alpha_0)
        }
        for c, a in enumerate(alpha):
            falling = falling_factorial(0, a)
            y_c = {zero[:c] + (p,) + zero[c + 1 :]: v for p, v in enumerate(falling)}
            product = polynomial_product(product, y_c)
        multiplier = math.factorial(k) // math.prod(map(math.factorial, (alpha_0, *alpha)))
        rows[alpha] = tuple(product.get(b, 0) * k ** sum(b) * multiplier for b in monomials)
    unity = [math.factorial(k)] + [0] * (len(monomials) - 1)
    assert [sum(column) for column in zip(*rows.values())] == unity
    return rows


def coefficients(spec):
    """The monomial coefficients of spec's basis functions as Fractions, in spec's node order."""
    rows, scale = integer_rows(spec.dim, spec.degree), math.factorial(spec.degree)
    return [[Fraction(v, scale) for v in rows[alpha]] for alpha in spec.alphas]


def coefficient_gram(a, b):
    """`gram(a, b)`'s numerators as A P B^T: integer coefficient rows against the moments."""
    d, top = a.dim, a.degree + b.degree
    scale = math.factorial(top + d)
    moment = {sigma: int(monomial_integral(sigma) * scale) for sigma in multi_indices(d, top)}
    rows_a, rows_b = integer_rows(d, a.degree), integer_rows(d, b.degree)
    columns = [  # column gamma of P
        [moment[tuple(map(operator.add, beta, gamma))] for beta in multi_indices(d, a.degree)]
        for gamma in multi_indices(d, b.degree)
    ]
    left = [
        [sum(map(operator.mul, rows_a[alpha], column)) for column in columns] for alpha in a.alphas
    ]
    return tuple(
        tuple(sum(map(operator.mul, row, rows_b[beta])) for beta in b.alphas) for row in left
    )


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
    # an exponent is an integer: truncating 1.5 or reading True as 1 would
    # answer for x y^2
    for alpha, bad in (((1.5, 2), "1.5"), ((True, 2), "True"), ((2, 2.0), "2.0")):
        with pytest.raises(ValueError, match=f"^exponent must be an integer, got {bad}$"):
            monomial_integral(alpha)
    assert monomial_integral((np.int64(1), 2)) == monomial_integral((1, 2)) == Fraction(1, 60)


@pytest.mark.parametrize("d,top", [(1, 30), (2, 30), (3, 14)])
def test_moment_scales_give_correctly_rounded_moments(d, top):
    # quadrature certification divides prod(a!) * scales[|a|] by (e + d)! in
    # floats; int / int rounds correctly, so this is float(monomial_integral(a))
    for exactness in range(top + 1):
        scales = exactbasis._moment_scales(d, exactness)
        denominator = math.factorial(exactness + d)
        for a in multi_indices(d, exactness):
            moment = math.prod(map(math.factorial, a)) * scales[sum(a)]
            assert Fraction(moment, denominator) == monomial_integral(a)
            assert moment / denominator == float(monomial_integral(a))


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


def test_index_enumerations_reject_dimensions_below_one():
    for d in (0, -1):
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            multi_indices(d, 2)
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            exponents_of_degree(d, 2)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_exponents_of_a_negative_degree_are_rejected_in_every_dimension(d):
    with pytest.raises(ValueError, match="total degree must be >= 0"):
        exponents_of_degree(d, -1)
    with pytest.raises(ValueError, match="total degree must be >= 0"):
        multi_indices(d, -1)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_multi_indices_equal_the_sorted_lattice(d):
    # oracle: every length-d tuple with sum <= k, sorted by (sum, tuple)
    for k in range(15):
        lattice = [alpha for alpha in itertools.product(range(k + 1), repeat=d) if sum(alpha) <= k]
        expected = sorted(lattice, key=lambda alpha: (sum(alpha), alpha))
        assert multi_indices(d, k) == expected
        assert len(expected) == math.comb(d + k, d)
        assert exponents_of_degree(d, k) == [alpha for alpha in expected if sum(alpha) == k]


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


# every builder that takes sizes, with the names its errors give them
SIZED_BUILDERS = [
    (lattice_nodes, ("dimension", "degree")),
    (lagrange_basis, ("dimension", "degree")),
    (audit_degrees, ("dimension", "k_max")),
    (multi_indices, ("dimension", "total degree")),
    (exponents_of_degree, ("dimension", "total degree")),
    (grundmann_moeller, ("dimension", "index")),
    (simplex_rule, ("dimension", "exactness")),
    (gauss_legendre_interval, ("exactness",)),
    (conical_product_rule, ("exactness",)),
    (unit_interval_mesh, ("cell count",)),
    (unit_square_mesh, ("subdivision count",)),
]


def _fields(result):
    """A result as nested tuples that np.testing.assert_equal can compare, arrays included."""
    return dataclasses.astuple(result) if dataclasses.is_dataclass(result) else result


def _integer_types(value) -> set:
    """The types of the integers in nested tuples and lists, Fraction terms included."""
    if isinstance(value, (tuple, list)):
        return set().union(*map(_integer_types, value))
    if isinstance(value, Fraction):
        return {type(value.numerator), type(value.denominator)}
    return {type(value)} if isinstance(value, (int, np.integer)) else set()


@pytest.mark.parametrize(
    "build, names", [pytest.param(b, names, id=b.__name__) for b, names in SIZED_BUILDERS]
)
@pytest.mark.parametrize(
    "d, k", [(True, 2), (2.0, 2), (3.0, 2), (2, True), (2, 2.0)], ids=repr
)
def test_sizes_must_be_integers_not_bools(build, names, d, k):
    # True == 1 and 2.0 == 2, so without a type check a bool or a float would
    # pass the range checks, or hit the memo of the int it equals; a builder
    # of one size is given the one of d, k that is not an int
    lagrange_basis(1, 2)  # the memo entries that True and 2.0 equal
    lagrange_basis(2, 2)
    position = 1 if type(d) is int else 0
    bad = (d, k)[position]
    name = names[position] if len(names) == 2 else names[0]
    message = f"^{name} must be an integer, got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=message):
        build(*((d, k) if len(names) == 2 else (bad,)))
    # a numpy-integer size is an int once checked: the result is the int
    # call's, field for field, with int fields, and the memoized spec itself
    typed, plain = build(*[np.int64(2)] * len(names)), build(*[2] * len(names))
    np.testing.assert_equal(_fields(typed), _fields(plain))
    assert _integer_types(_fields(typed)) <= {int, bool}
    if build is lagrange_basis:
        assert typed is plain


# ---------------------------------------------------------------------------
# basis construction


def test_lagrange_basis_d1k1():
    # monomials 1, x
    spec = lagrange_basis(1, 1)
    assert coefficients(spec) == [[1, -1], [0, 1]]
    assert exactbasis._interval_rows(1, spec.alphas) == [[1, -1], [0, 1]]


def test_lagrange_basis_d1k2_frozen():
    # monomials 1, x, x^2
    spec = lagrange_basis(1, 2)
    assert coefficients(spec) == [[1, -3, 2], [0, 4, -4], [0, -1, 2]]
    assert exactbasis._interval_rows(2, spec.alphas) == [[2, -6, 4], [0, 8, -8], [0, -2, 4]]


def test_lagrange_basis_d2k1_barycentric():
    # monomials 1, y, x (graded-lex: (0, 0), (0, 1), (1, 0))
    spec = lagrange_basis(2, 1)
    by_node = dict(zip(spec.nodes, coefficients(spec)))
    assert by_node[(0, 0)] == [1, -1, -1]
    assert by_node[(1, 0)] == [0, 0, 1]
    assert by_node[(0, 1)] == [0, 1, 0]


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
        for i, row in enumerate(coefficients(spec)):
            value = sum((c * mono_vals[a] for a, c in zip(monos, row)), Fraction(0))
            assert value == (1 if i == j else 0)


@pytest.mark.parametrize("d,k", SUPPORTED)
def test_partition_of_unity_exact(d, k):
    spec = lagrange_basis(d, k)
    total = [sum(column, Fraction(0)) for column in zip(*coefficients(spec))]
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
    terms = [{b: c for b, c in zip(monos, row) if c} for row in coefficients(lagrange_basis(d, k))]
    assert terms == vandermonde_basis(d, k)


@pytest.mark.parametrize("k", range(1, 15))
def test_interval_rows_equal_the_vandermonde_inverse(k):
    # the library's own d = 1 expansion, behind every d = 1 Gram
    rows = exactbasis._interval_rows(k, lagrange_basis(1, k).alphas)
    scale = math.factorial(k)
    terms = [{(p,): Fraction(c, scale) for p, c in enumerate(row) if c} for row in rows]
    assert terms == vandermonde_basis(1, k)


@pytest.mark.parametrize("d,k", WIDE)
def test_stored_integrals_equal_term_by_term_integrals(d, k):
    # two independent routes: the closed form per orbit, and the coefficient
    # rows against the moment oracle
    spec = lagrange_basis(d, k)
    monos = multi_indices(d, k)
    assert spec.integrals == tuple(
        sum((c * monomial_integral(beta) for beta, c in zip(monos, row)), Fraction(0))
        for row in coefficients(spec)
    )
    assert basis_integrals(spec) is spec.integrals


@st.composite
def permuted_basis_functions(draw):
    d, k = draw(st.sampled_from(WIDE))
    alpha = draw(st.sampled_from(multi_indices(d, k)))
    full = draw(st.permutations((k - sum(alpha), *alpha)))
    return d, k, alpha, tuple(full[1:])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=permuted_basis_functions())
def test_integrals_are_invariant_under_barycentric_permutations(case):
    d, k, alpha, image = case
    spec = lagrange_basis(d, k)
    assert spec.integrals[spec.alphas.index(image)] == spec.integrals[spec.alphas.index(alpha)]


@pytest.fixture
def matrix_builds(monkeypatch):
    """Counts of the d = 1 coefficient-row builds per degree, on freshly built bases."""
    builds = Counter()
    build = exactbasis._interval_rows

    def counting(k, alphas):
        builds[k] += 1
        return build(k, alphas)

    monkeypatch.setattr(exactbasis, "_interval_rows", counting)
    lagrange_basis.cache_clear()
    yield builds
    lagrange_basis.cache_clear()


def test_audits_and_clean_solves_build_no_coefficient_matrix(matrix_builds):
    audit_degrees(3, 6)
    audit_degrees(1, 10)
    for config in (OcpConfig(2, 3, 4), OcpConfig(1, 3, 4)):
        disc = Discretization(config)
        solution = solve_qp(disc)
        feasibility_audit(disc, solution.control)
    assert not matrix_builds


def test_a_negative_solve_builds_no_coefficient_matrix(matrix_builds):
    # at d >= 2 every Gram comes by orbits, and nothing else reads the matrix
    config = OcpConfig(2, 4, 4)
    solve_qp(Discretization(config))
    build_certificate(2, 4, config.alpha)
    assert not matrix_builds


def test_a_negative_interval_solve_builds_rows_once_per_gram(matrix_builds):
    # the control mass, the coupling and the P1 mass: two row sets per Gram
    solve_qp(Discretization(OcpConfig(1, 8, 4)))
    assert matrix_builds == {8: 3, 1: 3}


def test_audit_raises_when_the_construction_is_corrupted(monkeypatch):
    # audit_degrees relies on the sum check that lagrange_basis runs on
    # construction; a wrong moment formula must still stop the audit
    scales = exactbasis._moment_scales
    monkeypatch.setattr(
        exactbasis, "_moment_scales", lambda d, top: [s + 1 for s in scales(d, top)]
    )
    lagrange_basis.cache_clear()
    with pytest.raises(RuntimeError, match="do not sum to 1/d!"):
        audit_degrees(3, 6)
    lagrange_basis.cache_clear()


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


def gram_oracle(a, b):
    """int a_i b_j as a double sum over monomial pairs, one Fraction per product."""
    monomials_a = multi_indices(a.dim, a.degree)
    monomials_b = multi_indices(b.dim, b.degree)
    return [
        [
            sum(
                (
                    ca * cb * monomial_integral([x + y for x, y in zip(beta, gamma)])
                    for beta, ca in zip(monomials_a, row_a)
                    if ca
                    for gamma, cb in zip(monomials_b, row_b)
                    if cb
                ),
                Fraction(0),
            )
            for row_b in coefficients(b)
        ]
        for row_a in coefficients(a)
    ]


GRAM_ORACLE_CASES = [
    (1, 1, 12), (1, 12, 12), (2, 1, 4), (2, 4, 4), (2, 3, 5), (3, 1, 2), (3, 2, 2)
]


def gram_fractions(a, b):
    """gram(a, b) as a matrix of Fractions."""
    numerators, denominator = gram(a, b)
    return [[Fraction(n, denominator) for n in row] for row in numerators]


@pytest.mark.parametrize("d,ka,kb", GRAM_ORACLE_CASES)
def test_gram_equals_the_fraction_double_sum(d, ka, kb):
    a, b = lagrange_basis(d, ka), lagrange_basis(d, kb)
    assert gram_fractions(a, b) == gram_oracle(a, b)


@pytest.mark.parametrize("d,k", SUPPORTED)
def test_gram_rows_sum_to_the_basis_integrals(d, k):
    # the basis sums to 1, so row i of G(a, b) sums to int a_i (and column j
    # to int b_j); G(a, a) is exactly symmetric
    spec = lagrange_basis(d, k)
    matrix = gram_fractions(spec, spec)
    assert tuple(sum(row, Fraction(0)) for row in matrix) == spec.integrals
    assert all(matrix[i][j] == matrix[j][i] for i in range(len(matrix)) for j in range(i))
    p1 = lagrange_basis(d, 1)
    coupling = gram_fractions(p1, spec)
    assert tuple(sum(column, Fraction(0)) for column in zip(*coupling)) == spec.integrals
    assert tuple(sum(row, Fraction(0)) for row in coupling) == p1.integrals


# the Gram by both routes: each is the other's oracle
ROUTE_CASES = (
    [(1, k) for k in range(1, 15)] + [(2, k) for k in range(1, 11)] + [(3, k) for k in range(1, 7)]
)


@pytest.mark.parametrize("d,k", ROUTE_CASES)
def test_orbit_route_equals_coefficient_route(d, k):
    spec, p1, lower = lagrange_basis(d, k), lagrange_basis(d, 1), lagrange_basis(d, max(k - 1, 1))
    reordered = exactbasis.LagrangeBasisSpec(d, k, spec.alphas[::-1], spec.integrals[::-1])
    pairs = [(spec, spec), (p1, spec), (spec, p1), (lower, spec), (spec, lower), (reordered, spec),
             (reordered, reordered)]
    for a, b in pairs:
        expected = coefficient_gram(a, b)
        assert exactbasis._gram_by_orbits(a, b) == expected
        if d == 1:
            assert exactbasis._gram_on_interval(a, b) == expected


def barycentric_pairs(a, i, b, j):
    """The multiset {(A_l, B_l)} that fixes entry (i, j) of gram(a, b)."""
    rows = (a.degree - sum(a.alphas[i]), *a.alphas[i])
    columns = (b.degree - sum(b.alphas[j]), *b.alphas[j])
    return sorted(zip(rows, columns))


@pytest.mark.parametrize("ka,kb", [(4, 4), (1, 4), (3, 2)])
def test_one_corrupted_orbit_value_trips_the_sum_check(monkeypatch, ka, kb):
    route = exactbasis._gram_by_orbits

    def corrupted(a, b):
        orbit = barycentric_pairs(a, 0, b, 0)
        return tuple(
            tuple(
                value + (barycentric_pairs(a, i, b, j) == orbit)
                for j, value in enumerate(row)
            )
            for i, row in enumerate(route(a, b))
        )

    monkeypatch.setattr(exactbasis, "_gram_by_orbits", corrupted)
    lagrange_basis.cache_clear()
    with pytest.raises(RuntimeError, match="does not sum to the basis integrals"):
        gram(lagrange_basis(2, ka), lagrange_basis(2, kb))
    lagrange_basis.cache_clear()


@pytest.fixture
def gram_computations(monkeypatch):
    """Counts of the Gram computations per (route, d, a.degree, b.degree), on fresh bases."""
    computations = Counter()
    for name in ("_gram_by_orbits", "_gram_on_interval"):

        def counting(a, b, name=name, route=getattr(exactbasis, name)):
            computations[name, a.dim, a.degree, b.degree] += 1
            return route(a, b)

        monkeypatch.setattr(exactbasis, name, counting)
    lagrange_basis.cache_clear()
    yield computations
    lagrange_basis.cache_clear()


def test_each_gram_is_computed_once(gram_computations):
    # the certificate and each mesh's control mass share the P4 Gram, and
    # every mesh's reordered P1 basis shares the P1 Grams
    convergence_study(OcpConfig(2, 4, 4), [4, 8, 16])
    assert gram_computations == {
        ("_gram_by_orbits", 2, 4, 4): 1,
        ("_gram_by_orbits", 2, 1, 4): 1,
        ("_gram_by_orbits", 2, 1, 1): 1,
    }


def test_the_gram_memo_goes_with_the_basis_memo(gram_computations):
    spec = lagrange_basis(1, 3)
    first = gram(spec, spec)
    assert gram(spec, spec) is first
    lagrange_basis.cache_clear()
    spec = lagrange_basis(1, 3)
    assert gram(spec, spec) == first
    assert gram_computations == {("_gram_on_interval", 1, 3, 3): 2}


def test_gram_rejects_bases_of_different_dimensions():
    with pytest.raises(ValueError, match="dimensions 1 and 2"):
        gram(lagrange_basis(1, 2), lagrange_basis(2, 2))


def quadrature_gram(d, k, rule):
    """Float Gram matrix of the degree-k basis, sum_q w_q phi_i(x_q) phi_j(x_q)."""
    cell = SimplexMesh(d, np.vstack([np.zeros(d), np.eye(d)]), np.arange(d + 1)[None, :], 1.0)
    values = ControlSpace(cell, k).tabulate(rule.points)
    return (values * rule.weights) @ values.T


# the product-form tabulation keeps the float oracle accurate up to d=1, k=12
SQUARE_ORACLE_CASES = (
    [(1, k) for k in range(1, 13)] + [(2, k) for k in range(1, 9)] + [(3, 1), (3, 2)]
)


@st.composite
def index_sets(draw):
    d, k = draw(st.sampled_from(SQUARE_ORACLE_CASES))
    indices = draw(st.sets(st.integers(0, math.comb(d + k, d) - 1), min_size=1))
    return d, k, sorted(indices)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=index_sets())
def test_integral_of_square_matches_float_mass_matrix(case):
    d, k, indices = case
    rule = simplex_rule(d, 2 * k) if d < 3 else grundmann_moeller(3, k)
    mass = quadrature_gram(d, k, rule)
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


@pytest.mark.parametrize("d,k", WIDE)
def test_negative_indices_equal_the_exact_comparison(d, k):
    spec = lagrange_basis(d, k)
    reordered = exactbasis.LagrangeBasisSpec(d, k, spec.alphas[::-1], spec.integrals[::-1])
    # the reference simplex as a one-cell mesh, for StateSpace's reordered P1 copy
    cell = SimplexMesh(d, np.vstack([np.zeros(d), np.eye(d)]), np.arange(d + 1)[None], 1.0)
    p1_copy = StateSpace(cell).ref
    for basis in (spec, reordered, p1_copy):
        assert basis.negative_indices == tuple(i for i, v in enumerate(basis.integrals) if v < 0)


def test_audit_record_consistency():
    report = audit_degrees(2, 6)
    for record in report.records:
        negative = tuple(i for i, v in enumerate(record.integrals) if v < 0)
        assert record.negative_indices == negative
        assert record.all_nonnegative == (not negative)


def test_exact_records_are_immutable_and_compare_by_fields():
    # the memoized spec is shared by every caller, so no field may change
    spec = lagrange_basis(2, 3)
    report = audit_degrees(2, 3)
    for record in (spec, report.records[2], report):
        cls = type(record)
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
            with pytest.raises(AttributeError):
                delattr(record, name)
        twin = cls(**dict(zip(record._fields, record)))
        assert twin is not record and twin == record and hash(twin) == hash(record)
        assert twin != cls(record[0] + 1, *record[1:])  # dim or degree
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(record._fields, record))
        assert repr(record) == f"{cls.__name__}({fields})"
    # the two audit records take no other attributes either
    for record in (report.records[2], report):
        with pytest.raises(AttributeError):
            record.extra = 1
    # the spec keeps its cached nodes and Gram memo, which its equal copy does not share
    assert spec.nodes == tuple(lattice_nodes(2, 3)) and spec.nodes is spec.nodes
    grams = gram(spec, spec)
    assert gram(spec, spec) is grams and spec._grams[spec.alphas, spec.alphas] is grams
    copy = exactbasis.LagrangeBasisSpec(*spec)
    assert copy.nodes == spec.nodes and copy._grams is not spec._grams
    assert gram(copy, copy) is grams  # kept on the memoized spec


# ---------------------------------------------------------------------------
# rational solver


def test_solve_rational_system_singular():
    with pytest.raises(ValueError):
        solve_rational_system([[1, 2], [2, 4]], [[1], [1]])
