"""Exact Lagrange bases on the reference simplex and sign audits of their integrals.

Everything in this module runs in rational arithmetic (`fractions.Fraction`)
or in integers over one known denominator.  The downstream feasibility
question hinges on the *sign* of basis integrals, and some of those integrals
are exactly zero (e.g. the vertex functions of the quadratic triangle), so
floating point is never allowed near a sign decision.

The reference simplex in dimension ``d`` is ``{x in R^d : x_i >= 0, sum x <= 1}``
with volume ``1/d!``.  Basis functions are the nodal (Lagrange) polynomials of
degree ``k`` on the equispaced lattice ``{alpha/k : |alpha| <= k}``, in
Silvester's closed product form in barycentric coordinates (see
`lagrange_basis`), so a basis is its barycentric multi-indices and their exact
integrals.  Both exact quantities come from that product form and Dirichlet's
moment formula.  The basis integrals, which decide every sign question, are
one univariate convolution per permutation orbit of (k - |alpha|, alpha).  An
entry of the Gram matrix of two bases (`gram`), which gives every reference
block of the assembly and `integral_of_square`, is a chain of short univariate
convolutions per orbit of the pairs (A_i, B_i) of the two barycentric
multi-indices, checked by row and column sums against the integrals.  At
d = 1 a Gram is instead A H B^T over the monomials x^p, the only place where
monomial coefficients are built.  Lagrange interpolation on the lattice is
unique, so the closed form gives exactly the rationals of the generalized
Vandermonde solve, which the tests keep as an oracle (`solve_rational_system`).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

__all__ = [
    "AuditReport",
    "DegreeRecord",
    "LagrangeBasisSpec",
    "audit_degrees",
    "basis_integrals",
    "exponents_of_degree",
    "gram",
    "integral_of_square",
    "lagrange_basis",
    "lattice_nodes",
    "monomial_integral",
    "multi_indices",
    "solve_rational_system",
]

SUPPORTED_DIMENSIONS = (1, 2, 3)


def _check_dimension(d: int) -> None:
    if d not in SUPPORTED_DIMENSIONS:
        raise ValueError(f"unsupported dimension {d}; expected one of {SUPPORTED_DIMENSIONS}")


def _graded_exponents(d: int, k: int) -> list[list[tuple[int, ...]]]:
    """The length-d tuples of non-negative ints by sum t = 0..k, lexicographic, built bottom up."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if k < 0:
        raise ValueError(f"total degree must be >= 0, got {k}")
    by_total = [[(t,)] for t in range(k + 1)]
    for _ in range(d - 1):
        by_total = [
            [(first,) + rest for first in range(t + 1) for rest in by_total[t - first]]
            for t in range(k + 1)
        ]
    return by_total


def exponents_of_degree(d: int, total: int) -> list[tuple[int, ...]]:
    """All length-d tuples of non-negative ints summing to `total`, lexicographic."""
    return _graded_exponents(d, total)[total]


def multi_indices(d: int, k: int) -> list[tuple[int, ...]]:
    """All multi-indices of length d with order <= k, in graded-lexicographic order.

    Graded-lex: ascending total degree, lexicographic (as tuples) within each degree.
    This single ordering fixes the node and basis-function orderings everywhere.
    """
    return [alpha for level in _graded_exponents(d, k) for alpha in level]


def lattice_nodes(d: int, k: int) -> list[tuple[Fraction, ...]]:
    """Equispaced Lagrange nodes alpha/k, |alpha| <= k, on the closed unit simplex.

    Returned in graded-lexicographic order of the defining multi-index alpha;
    there are binomial(d+k, d) of them.
    """
    _check_dimension(d)
    if k < 1:
        raise ValueError(f"degree must be >= 1, got {k}")
    return [tuple(Fraction(a, k) for a in alpha) for alpha in multi_indices(d, k)]


def monomial_integral(alpha, dim: int | None = None) -> Fraction:
    """Exact integral of x^alpha over the unit simplex: (prod alpha_i!) / (|alpha| + d)!.

    The moment oracle for the whole package: every other integral (exact or
    floating) is checked against it.
    """
    alpha = tuple(int(a) for a in alpha)
    if dim is not None and dim != len(alpha):
        raise ValueError(f"multi-index {alpha} does not have length {dim}")
    if any(a < 0 for a in alpha):
        raise ValueError(f"negative exponent in {alpha}")
    d = len(alpha)
    num = 1
    for a in alpha:
        num *= math.factorial(a)
    return Fraction(num, math.factorial(sum(alpha) + d))


def solve_rational_system(matrix, rhs):
    """Solve A X = B exactly over the rationals.

    Dense Gaussian elimination with partial pivoting by rational magnitude.
    `matrix` is a square list-of-rows, `rhs` a list-of-rows with the same row
    count; both are left untouched.  Raises ValueError on a singular matrix.
    The package no longer calls it (`lagrange_basis` uses the closed form);
    it is kept as a public utility and as the tests' Vandermonde oracle.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    if len(rhs) != n:
        raise ValueError("rhs row count must match matrix")
    width = len(rhs[0]) if n else 0
    rows = [[Fraction(v) for v in matrix[i]] + [Fraction(v) for v in rhs[i]] for i in range(n)]

    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(rows[r][col]))
        if rows[piv][col] == 0:
            raise ValueError(f"singular system (rank deficit at column {col})")
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
        piv_row = rows[col]
        piv_val = piv_row[col]
        for r in range(col + 1, n):
            factor = rows[r][col]
            if not factor:
                continue
            factor /= piv_val
            row = rows[r]
            for c in range(col, n + width):
                if piv_row[c]:
                    row[c] -= factor * piv_row[c]

    solution = [[Fraction(0)] * width for _ in range(n)]
    for r in range(n - 1, -1, -1):
        row = rows[r]
        for c in range(width):
            s = row[n + c]
            for j in range(r + 1, n):
                if row[j]:
                    s -= row[j] * solution[j][c]
            solution[r][c] = s / row[r]
    return solution


@dataclass(frozen=True)
class LagrangeBasisSpec:
    """Degree-k Lagrange basis on the d-dimensional reference simplex.

    Basis function i is the one of node alphas[i] / degree: phi_i(nodes[j])
    is exactly the Kronecker delta, and the basis sums exactly to the
    constant 1.  integrals[i] is the exact integral of phi_i over the
    reference simplex.  The functions themselves are Silvester's product form
    (`lagrange_basis`); no monomial coefficients are kept.
    """

    dim: int
    degree: int
    alphas: tuple[tuple[int, ...], ...]
    integrals: tuple[Fraction, ...]

    @property
    def node_count(self) -> int:
        return len(self.alphas)

    @property
    def negative_indices(self) -> tuple[int, ...]:
        """Indices i with integrals[i] < 0, by numerator sign: the one regime test."""
        return tuple([i for i, v in enumerate(self.integrals) if v.numerator < 0])

    @cached_property
    def nodes(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(a, self.degree) for a in alpha) for alpha in self.alphas)

    @cached_property
    def _grams(self) -> dict:
        """`gram`'s memo, on the spec so that `lagrange_basis.cache_clear()` drops it."""
        return {}


def _moment_scales(d: int, top: int) -> list[int]:
    """(top + d)! / (s + d)! for s = 0..top: the package's one integer moment formula.

    By Dirichlet's formula the integral over the reference simplex of x^a is
    prod(a!) / (|a| + d)!, and that of prod_{i=0..d} lambda_i^b_i over the
    barycentric coordinates is prod(b!) / (|b| + d)!.  Either one is
    prod(a!) * scales[|a|] / (top + d)! for |a| <= top (`monomial_integral`
    stays as the oracle).
    """
    scales = [1] * (top + 1)
    for s in range(top - 1, -1, -1):
        scales[s] = scales[s + 1] * (s + 1 + d)
    return scales


def _falling_factorial(m: int) -> list[int]:
    """Integer coefficients of t (t - 1) ... (t - m + 1), lowest power of t first."""
    coeffs = [1]
    for j in range(m):
        nxt = [-j * c for c in coeffs] + [0]
        for p, c in enumerate(coeffs):
            nxt[p + 1] += c
        coeffs = nxt
    return coeffs


def _convolve(a: list[int], b: list[int]) -> list[int]:
    """Product of two univariate integer polynomials, lowest power first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


@lru_cache(maxsize=None)
def lagrange_basis(d: int, k: int) -> LagrangeBasisSpec:
    """Construct the degree-k Lagrange basis on the reference simplex, exactly.

    Silvester's closed form for the equispaced lattice: with barycentric
    coordinates lambda_0 = 1 - sum(x), lambda_i = x_i and alpha_0 = k - |alpha|,

        phi_alpha = prod_{i=0..d} q_{alpha_i}(lambda_i),
        q_a(lambda) = prod_{j<a} (k lambda - j) / (j + 1)
                    = sum_b f_a[b] k^b lambda^b / a!,

    a product of univariate polynomials in distinct barycentric coordinates
    (f_a the coefficients of the falling factorial t (t - 1) ... (t - a + 1)).
    Dirichlet's formula, int prod lambda_i^b_i = prod(b!) / (|b| + d)!, then
    makes each integral one univariate convolution: with w_a[b] = f_a[b] k^b
    b! and u the convolution of the w_{alpha_i}, i = 0..d,

        int phi_alpha = sum_s u[s] (k + d)! / (s + d)! / ((k + d)! prod_i alpha_i!).

    It depends only on the multiset (alpha_0, alpha), so it is computed once
    per permutation orbit.  The integrals sum exactly to 1/d! (checked on the
    integer numerators; `audit_degrees` relies on this check).  Memoized; the
    spec also keeps every Gram computed from it (`gram`), and is immutable
    otherwise.
    """
    _check_dimension(d)
    if k < 1:
        raise ValueError(f"degree must be >= 1, got {k}")
    alphas = tuple(multi_indices(d, k))
    # w_a, a = 0..k: q_a(lambda) = sum_b f_a[b] k^b lambda^b / a!, times b!
    weights = [
        [f * k**b * math.factorial(b) for b, f in enumerate(_falling_factorial(a))]
        for a in range(k + 1)
    ]
    scales = _moment_scales(d, k)
    top, k_factorial = math.factorial(k + d), math.factorial(k)
    orbits = {}  # sorted (alpha_0, alpha) -> (integral, k! (k + d)! * integral)
    integrals, total = [], 0
    for alpha in alphas:
        orbit = tuple(sorted((k - sum(alpha), *alpha)))
        if orbit not in orbits:
            u = [1]
            for a in orbit:
                u = _convolve(u, weights[a])
            numerator = sum(map(operator.mul, u, scales))
            denominator = math.prod(map(math.factorial, orbit))  # divides k!
            orbits[orbit] = (
                Fraction(numerator, top * denominator),
                numerator * (k_factorial // denominator),
            )
        integral, share = orbits[orbit]
        integrals.append(integral)
        total += share
    if total * math.factorial(d) != top * k_factorial:
        raise RuntimeError(f"basis integrals do not sum to 1/d! for d={d}, k={k}")
    return LagrangeBasisSpec(d, k, alphas, tuple(integrals))


def basis_integrals(spec: LagrangeBasisSpec) -> tuple[Fraction, ...]:
    """Exact integrals of every basis function over the reference simplex: `spec.integrals`."""
    return spec.integrals


def gram(a: LagrangeBasisSpec, b: LagrangeBasisSpec) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Exact Gram matrix G[i][j] = integral of a_i b_j over the reference simplex.

    Returned as integer numerators over one common denominator, G[i][j] =
    numerators[i][j] / denominator, with denominator = a.degree! b.degree!
    (a.degree + b.degree + d)!.  For d >= 2 the entries come by permutation
    orbits (`_gram_by_orbits`; only the upper triangle when a and b list the
    same nodes in the same order); the row sums must then equal a's
    integrals and the column sums b's (the basis sums to 1), an exact check
    against the integrals that `lagrange_basis` computed by its own route.  For d = 1,
    where the symmetry group has two elements and the orbits cost more than
    they save, the entries come as A H B^T over the monomials
    (`_gram_on_interval`), whose coefficient rows are checked for the
    partition of unity.  Each Gram is computed once and kept on the memoized
    `lagrange_basis(d, a.degree)`, keyed by both node orders, so that a
    reordered copy of a basis (`fem.StateSpace.ref`) shares it and
    `lagrange_basis.cache_clear()` drops it.  Only work that reads a Gram
    twice gains from the memo, such as `ocp.convergence_study`, where every
    mesh and the certificate read the same Grams.
    """
    if a.dim != b.dim:
        raise ValueError(f"bases of dimensions {a.dim} and {b.dim} share no simplex")
    memo = lagrange_basis(a.dim, a.degree)._grams
    key = (a.alphas, b.alphas)
    if key in memo:
        return memo[key]
    denominator = (
        math.factorial(a.degree) * math.factorial(b.degree)
        * math.factorial(a.degree + b.degree + a.dim)
    )
    if a.dim == 1:  # `_interval_rows` checks the partition of unity
        numerators = _gram_on_interval(a, b)
    else:
        numerators = _gram_by_orbits(a, b)
        for sums, spec in ((map(sum, numerators), a), (map(sum, zip(*numerators)), b)):
            if any(
                s * v.denominator != v.numerator * denominator
                for s, v in zip(sums, spec.integrals)
            ):
                raise RuntimeError(
                    f"Gram of d={a.dim}, k={a.degree} and k={b.degree} does not sum "
                    "to the basis integrals"
                )
    memo[key] = numerators, denominator
    return memo[key]


def _interval_rows(k: int, alphas) -> list[list[int]]:
    """k! times the coefficients of x^0, ..., x^k of the d = 1 basis functions of nodes alphas / k.

    In y = k x, Silvester's product form (see `lagrange_basis`) of node a / k is
    k! phi_a = comb(k, a) (k - y) (k - 1 - y) ... (a + 1 - y) * y (y - 1) ... (y - a + 1),
    two falling factorials, each built for a = 0..k one linear factor in x
    at a time.  Lagrange interpolation on the lattice is unique, so these are
    k! times the rationals of the Vandermonde inverse.  The partition of
    unity is checked exactly.
    """
    # right[a] = y (y - 1) ... (y - a + 1) and left[a] = (k - y) ... (k - a + 1 - y)
    right, left = [[1]], [[1]]
    for a in range(k):
        right.append(_convolve(right[-1], [-a, k]))
        left.append(_convolve(left[-1], [k - a, -k]))
    rows = [[math.comb(k, a) * c for c in _convolve(left[k - a], right[a])] for (a,) in alphas]
    # sum_a phi_a = 1: the columns of k! phi sum to k!, 0, ..., 0
    if [sum(column) for column in zip(*rows)] != [math.factorial(k)] + [0] * k:
        raise RuntimeError(f"partition of unity violated for d=1, k={k}")
    return rows


def _gram_on_interval(a: LagrangeBasisSpec, b: LagrangeBasisSpec) -> tuple[tuple[int, ...], ...]:
    """Gram numerators at d = 1 as A H B^T, over a.degree! b.degree! (a.degree + b.degree + 1)!.

    A and B are the coefficient rows of `_interval_rows`, and H[p][q] is the
    integral of x^(p + q) over [0, 1] times (a.degree + b.degree + 1)!: the
    Hankel matrix of (a.degree + b.degree + 1)! / (s + 1).
    """
    top = a.degree + b.degree
    hankel = [math.factorial(top + 1) // (s + 1) for s in range(top + 1)]
    left = [
        [sum(map(operator.mul, row, hankel[q:])) for q in range(b.degree + 1)]
        for row in _interval_rows(a.degree, a.alphas)
    ]
    rows_b = _interval_rows(b.degree, b.alphas)
    return tuple(tuple([sum(map(operator.mul, row, other)) for other in rows_b]) for row in left)


def _gram_by_orbits(
    a: LagrangeBasisSpec, b: LagrangeBasisSpec
) -> tuple[tuple[int, ...], ...]:
    """Gram numerators from Silvester's product form, once per permutation orbit.

    With barycentric multi-indices A = (ka - |alpha|, alpha), B = (kb -
    |beta|, beta) and q_m as in `lagrange_basis`, a_alpha b_beta is the
    product over i = 0..d of the univariate q_{A_i}(lambda_i) q_{B_i}(lambda_i)
    = sum_c g[c] lambda_i^c / (A_i! B_i!), g the convolution of f_{A_i}[c]
    ka^c and f_{B_i}[c] kb^c.  By Dirichlet's formula the entry, times
    ka! kb! (ka + kb + d)!, is

        sum_s u[s] (ka + kb + d)! / (s + d)! * ka! / prod A_i! * kb! / prod B_i!,

    u the convolution over i of w_i[c] = g[c] c!.  It depends only on the
    multiset of pairs (A_i, B_i), so it is computed once per orbit, from the
    pairs sorted as (A_i + B_i, A_i): the scales are correlated with the w of
    the highest-degree pair (once per pair), then with each middle w, then
    dotted with the first.
    """
    d, ka, kb = a.dim, a.degree, b.degree
    top = ka + kb
    scales = _moment_scales(d, top)
    factorials = [1]
    for c in range(1, top + 1):
        factorials.append(factorials[-1] * c)
    # q_m(lambda) = sum_c v[k][m][c] lambda^c / m!, per degree k and order m
    v = {
        k: [[f * k**c for c, f in enumerate(_falling_factorial(m))] for m in range(k + 1)]
        for k in {ka, kb}
    }
    weights, divisors = {}, {}  # per pair (A_i + B_i, A_i): w, and A_i! B_i!
    for m in range(ka + 1):
        for n in range(kb + 1):
            weights[m + n, m] = list(map(operator.mul, _convolve(v[ka][m], v[kb][n]), factorials))
            divisors[m + n, m] = factorials[m] * factorials[n]
    numerator_scale = factorials[ka] * factorials[kb]
    tails, orbits = {}, {}

    def orbit_value(key):
        last = key[-1]
        if last not in tails:  # tail[s] = sum_c w[c] scales[s + c]
            w = weights[last]
            tails[last] = [sum(map(operator.mul, w, scales[s:])) for s in range(top - last[0] + 1)]
        tail = tails[last]
        for pair in key[-2:0:-1]:
            w = weights[pair]
            tail = [sum(map(operator.mul, w, tail[s:])) for s in range(len(tail) - pair[0])]
        divisor = math.prod(map(divisors.__getitem__, key))  # divides ka! kb!
        return sum(map(operator.mul, weights[key[0]], tail)) * (numerator_scale // divisor)

    rows = [(ka - sum(alpha), *alpha) for alpha in a.alphas]
    columns = [(kb - sum(beta), *beta) for beta in b.alphas]
    # The orbit's multiset as one integer: digit A_i (kb + 1) + B_i in base 8
    # counts the coordinates with that pair (at most d + 1 <= 4, so no
    # carries), and the digit's 8^power splits into a row and a column factor.
    row_codes = [[1 << 3 * (kb + 1) * m for m in row] for row in rows]
    column_codes = [[1 << 3 * n for n in column] for column in columns]
    # One basis on both sides: G is symmetric, so only j >= i is computed, and
    # an orbit's transpose (pairs (B_i, A_i)) is stored with it, same value.
    symmetric = a.alphas == b.alphas
    numerators = [[0] * len(columns) for _ in rows]
    for i, row in enumerate(row_codes):
        for j in range(i if symmetric else 0, len(columns)):
            code = sum(map(operator.mul, row, column_codes[j]))
            value = orbits.get(code)
            if value is None:
                key = tuple(sorted(zip(map(operator.add, rows[i], columns[j]), rows[i])))
                value = orbits[code] = orbit_value(key)
                if symmetric:
                    orbits[sum(map(operator.mul, row_codes[j], column_codes[i]))] = value
            numerators[i][j] = value
            if symmetric:
                numerators[j][i] = value
    return tuple(map(tuple, numerators))


def integral_of_square(spec: LagrangeBasisSpec, indices) -> Fraction:
    """Exact integral of (sum_{j in indices} phi_j)^2: the sum of G[i][j] over `indices`."""
    indices = list(indices)
    numerators, denominator = gram(spec, spec)
    return Fraction(sum(numerators[i][j] for i in indices for j in indices), denominator)


@dataclass(frozen=True)
class DegreeRecord:
    """Audit result for a single polynomial degree."""

    degree: int
    integrals: tuple[Fraction, ...]
    all_nonnegative: bool
    negative_indices: tuple[int, ...]


@dataclass(frozen=True)
class AuditReport:
    """Per-degree sign audit of Lagrange basis integrals in one dimension."""

    dim: int
    records: tuple[DegreeRecord, ...]

    def nonnegative_degrees(self) -> tuple[int, ...]:
        return tuple(r.degree for r in self.records if r.all_nonnegative)

    def to_json_dict(self) -> dict:
        return {
            "dimension": self.dim,
            "records": [
                {
                    "k": r.degree,
                    "integrals": [f"{v.numerator}/{v.denominator}" for v in r.integrals],
                    "all_nonnegative": r.all_nonnegative,
                    "negative_indices": list(r.negative_indices),
                }
                for r in self.records
            ],
        }


def audit_degrees(d: int, k_max: int) -> AuditReport:
    """Audit the sign of every basis integral for k = 1..k_max in dimension d.

    An integral equal to exactly 0 counts as non-negative.  All sign tests read
    exact numerators.
    """
    _check_dimension(d)
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    records = []
    for k in range(1, k_max + 1):
        spec = lagrange_basis(d, k)
        integrals = basis_integrals(spec)  # their sum, 1/d!, is checked on construction
        negative = spec.negative_indices
        records.append(
            DegreeRecord(
                degree=k,
                integrals=integrals,
                all_nonnegative=not negative,
                negative_indices=negative,
            )
        )
    return AuditReport(dim=d, records=tuple(records))
