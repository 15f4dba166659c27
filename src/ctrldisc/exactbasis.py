"""Exact Lagrange bases on the reference simplex and sign audits of their integrals.

Everything in this module runs in rational arithmetic (`fractions.Fraction`).
The downstream feasibility question hinges on the *sign* of basis integrals,
and some of those integrals are exactly zero (e.g. the vertex functions of the
quadratic triangle), so floating point is never allowed near a sign decision.

The reference simplex in dimension ``d`` is ``{x in R^d : x_i >= 0, sum x <= 1}``
with volume ``1/d!``.  Basis functions are the nodal (Lagrange) polynomials of
degree ``k`` on the equispaced lattice ``{alpha/k : |alpha| <= k}``, built
from Silvester's closed product form in barycentric coordinates (see
`lagrange_basis`).  A basis is stored as one rational coefficient matrix: row
i holds basis function i's coefficients over the monomials x^beta,
beta in `multi_indices(d, k)`.  Every exact quantity is a linear or bilinear
form of such matrices against the monomial moments: the basis integrals, and
the Gram matrix of two bases (`gram`), which gives every reference block of
the assembly and `integral_of_square`.  Lagrange interpolation on the lattice is
unique, so the closed form gives exactly the rationals of the generalized
Vandermonde solve, which the tests keep as an oracle (`solve_rational_system`).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

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

# The one zero that every coefficient row shares: no Fraction is built or
# added for an exactly zero coefficient.
_ZERO = Fraction(0)


def _check_dimension(d: int) -> None:
    if d not in SUPPORTED_DIMENSIONS:
        raise ValueError(f"unsupported dimension {d}; expected one of {SUPPORTED_DIMENSIONS}")


def exponents_of_degree(d: int, total: int):
    """Yield all length-d tuples of non-negative ints summing to `total`, lexicographic."""
    if d == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in exponents_of_degree(d - 1, total - first):
            yield (first,) + rest


def multi_indices(d: int, k: int) -> list[tuple[int, ...]]:
    """All multi-indices of length d with order <= k, in graded-lexicographic order.

    Graded-lex: ascending total degree, lexicographic (as tuples) within each degree.
    This single ordering fixes the node ordering, the monomial ordering of the
    interpolation system, and the basis-function ordering everywhere else.
    """
    out: list[tuple[int, ...]] = []
    for total in range(k + 1):
        out.extend(exponents_of_degree(d, total))
    return out


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

    Basis function i is phi_i(x) = sum_j coefficients[i][j] x^beta_j, with
    beta_j = multi_indices(dim, degree)[j]; exact zeros are the shared
    `_ZERO`.  nodes[i] and coefficients[i] correspond: phi_i(nodes[j]) is
    exactly the Kronecker delta and the basis sums exactly to the constant 1.
    integrals[i] is the exact integral of phi_i over the reference simplex.
    """

    dim: int
    degree: int
    nodes: tuple[tuple[Fraction, ...], ...]
    coefficients: tuple[tuple[Fraction, ...], ...]
    integrals: tuple[Fraction, ...]

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def negative_indices(self) -> tuple[int, ...]:
        """Indices i with integrals[i] < 0, by exact comparison: the one regime test."""
        return tuple(i for i, v in enumerate(self.integrals) if v < 0)


def _falling_factorial(shift: int, m: int) -> list[int]:
    """Integer coefficients of prod_{j<m} (t + shift - j), lowest power of t first."""
    coeffs = [1]
    for j in range(m):
        nxt = [(shift - j) * c for c in coeffs] + [0]
        for p, c in enumerate(coeffs):
            nxt[p + 1] += c
        coeffs = nxt
    return coeffs


def _integer_product(a: dict, b: dict) -> dict:
    """Product of two polynomials stored as {exponent tuple: int}."""
    out: dict[tuple[int, ...], int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return out


@lru_cache(maxsize=None)
def lagrange_basis(d: int, k: int) -> LagrangeBasisSpec:
    """Construct the degree-k Lagrange basis on the reference simplex, exactly.

    Silvester's closed form for the equispaced lattice: with barycentric
    coordinates lambda_0 = 1 - sum(x), lambda_i = x_i and alpha_0 = k - |alpha|,

        phi_alpha = prod_{i=0..d} prod_{j<alpha_i} (k lambda_i - j) / (j + 1).

    The products are expanded in integer arithmetic in y = k x (the falling
    factorials of each y_i and of k - sum(y) are built once per order), and
    the coefficient of x^beta is c_beta * k^|beta| / prod_i alpha_i!; each
    integral is one Fraction from the same integers and the moment formula.
    The interpolant on the lattice is unique, so every coefficient is the
    same Fraction that solving the generalized Vandermonde system in the
    monomial basis gives (`solve_rational_system`, kept as the test oracle).
    The partition of unity (on the integer numerators) and the integral sum
    1/d! are checked exactly.  Memoized; the result is immutable and safe to
    share.
    """
    _check_dimension(d)
    if k < 1:
        raise ValueError(f"degree must be >= 1, got {k}")
    alphas = multi_indices(d, k)
    zero = (0,) * d

    # y_c (y_c - 1) ... (y_c - m + 1), per (coordinate c, order m)
    falling_y = {}
    for m in range(k + 1):
        coeffs = _falling_factorial(0, m)
        for c in range(d):
            falling_y[c, m] = {
                zero[:c] + (p,) + zero[c + 1 :]: v for p, v in enumerate(coeffs) if v
            }
    # (k - s)(k - 1 - s) ... (k - m + 1 - s) with s = sum(y), per order m,
    # through s^p = sum_{|beta| = p} p! / prod(beta!) y^beta
    falling_0 = {}
    for m in range(k + 1):
        coeffs = _falling_factorial(k, m)  # in t = -s
        falling_0[m] = {
            beta: (-1) ** sum(beta)
            * coeffs[sum(beta)]
            * (math.factorial(sum(beta)) // math.prod(map(math.factorial, beta)))
            for beta in multi_indices(d, m)
            if coeffs[sum(beta)]
        }

    # x^beta = y^beta / k^|beta|, and over the simplex
    # int x^beta = prod(beta!) / (|beta| + d)! = moment[beta] / (k + d)!
    scale = {beta: k ** sum(beta) for beta in alphas}
    moment = {
        beta: scale[beta]
        * math.prod(map(math.factorial, beta))
        * (math.factorial(k + d) // math.factorial(sum(beta) + d))
        for beta in alphas
    }

    # Partition of unity, sum_i phi_i = 1, in integers: prod_i alpha_i! divides
    # k!, so summing c_beta k^|beta| k! / prod_i alpha_i! over the basis must
    # give k! at beta = 0 and 0 elsewhere.
    column = {beta: j for j, beta in enumerate(alphas)}
    k_factorial = math.factorial(k)
    unity = [0] * len(alphas)
    rows, integrals = [], []
    for alpha in alphas:
        alpha_0 = k - sum(alpha)
        product = falling_0[alpha_0]
        denominator = math.factorial(alpha_0)
        for c, a in enumerate(alpha):
            if a:
                product = _integer_product(product, falling_y[c, a])
                denominator *= math.factorial(a)
        row = [_ZERO] * len(alphas)
        for beta, v in product.items():
            if v:
                row[column[beta]] = Fraction(v * scale[beta], denominator)
                unity[column[beta]] += v * scale[beta] * (k_factorial // denominator)
        rows.append(tuple(row))
        integrals.append(
            Fraction(
                sum(v * moment[beta] for beta, v in product.items()),
                denominator * math.factorial(k + d),
            )
        )

    # Exact self-checks: partition of unity and total moment.
    if unity != [k_factorial] + [0] * (len(alphas) - 1):
        raise RuntimeError(f"partition of unity violated for d={d}, k={k}")
    if sum(integrals, _ZERO) != Fraction(1, math.factorial(d)):
        raise RuntimeError(f"basis integrals do not sum to 1/d! for d={d}, k={k}")

    return LagrangeBasisSpec(d, k, tuple(lattice_nodes(d, k)), tuple(rows), tuple(integrals))


def basis_integrals(spec: LagrangeBasisSpec) -> tuple[Fraction, ...]:
    """Exact integrals of every basis function over the reference simplex.

    Computed once, when the basis is built; this returns `spec.integrals`.
    """
    return spec.integrals


def _integer_rows(spec: LagrangeBasisSpec) -> list[list[int]]:
    """degree! times the coefficient matrix, an integer matrix (see lagrange_basis)."""
    scale = math.factorial(spec.degree)
    return [[v.numerator * (scale // v.denominator) for v in row] for row in spec.coefficients]


def gram(a: LagrangeBasisSpec, b: LagrangeBasisSpec) -> tuple[list[list[int]], int]:
    """Exact Gram matrix G[i][j] = integral of a_i b_j over the reference simplex.

    Returned as integer numerators over one common denominator, G[i][j] =
    numerators[i][j] / denominator.  G = A P B^T for the coefficient matrices
    A, B and the monomial moments P[beta][gamma] = int x^(beta + gamma), all
    in integers: A times a.degree!, B times b.degree! and P times
    (a.degree + b.degree + d)!.
    """
    if a.dim != b.dim:
        raise ValueError(f"bases of dimensions {a.dim} and {b.dim} share no simplex")
    d = a.dim
    top = math.factorial(a.degree + b.degree + d)
    # top * int x^sigma = prod(sigma!) * top / (|sigma| + d)!
    moment = {
        sigma: math.prod(map(math.factorial, sigma)) * (top // math.factorial(sum(sigma) + d))
        for sigma in multi_indices(d, a.degree + b.degree)
    }
    betas = multi_indices(d, a.degree)
    columns = [  # column gamma of P
        [moment[tuple(map(operator.add, beta, gamma))] for beta in betas]
        for gamma in multi_indices(d, b.degree)
    ]
    rows_a, rows_b = _integer_rows(a), _integer_rows(b)
    left = [[sum(map(operator.mul, row, column)) for column in columns] for row in rows_a]
    numerators = [[sum(map(operator.mul, row, other)) for other in rows_b] for row in left]
    return numerators, math.factorial(a.degree) * math.factorial(b.degree) * top


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

    An integral equal to exactly 0 counts as non-negative.  All sign tests are
    exact rational comparisons.
    """
    _check_dimension(d)
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    records = []
    for k in range(1, k_max + 1):
        spec = lagrange_basis(d, k)
        integrals = basis_integrals(spec)
        if sum(integrals, Fraction(0)) != Fraction(1, math.factorial(d)):
            raise RuntimeError(f"audit consistency failure at d={d}, k={k}")
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
