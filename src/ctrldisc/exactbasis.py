"""Exact Lagrange bases on the reference simplex and sign audits of their integrals.

Everything in this module runs in rational arithmetic (`fractions.Fraction`).
The downstream feasibility question hinges on the *sign* of basis integrals,
and some of those integrals are exactly zero (e.g. the vertex functions of the
quadratic triangle), so floating point is never allowed near a sign decision.

The reference simplex in dimension ``d`` is ``{x in R^d : x_i >= 0, sum x <= 1}``
with volume ``1/d!``.  Basis functions are the nodal (Lagrange) polynomials of
degree ``k`` on the equispaced lattice ``{alpha/k : |alpha| <= k}``, built
from Silvester's closed product form in barycentric coordinates (see
`lagrange_basis`).  Lagrange interpolation on the lattice is unique, so the
closed form gives exactly the rationals of the generalized Vandermonde
solve, which the tests keep as an oracle (`solve_rational_system`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "AuditReport",
    "DegreeRecord",
    "ExactPolynomial",
    "LagrangeBasisSpec",
    "audit_degrees",
    "basis_integrals",
    "exponents_of_degree",
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


class ExactPolynomial:
    """Multivariate polynomial with rational coefficients.

    ``terms`` maps exponent tuples (length ``dim``) to nonzero Fractions; zero
    coefficients are never stored.  Instances are treated as immutable.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms=()):
        self.dim = int(dim)
        acc: dict[tuple[int, ...], Fraction] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for alpha, coeff in items:
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != self.dim:
                raise ValueError(f"exponent {alpha} does not have length {self.dim}")
            if any(a < 0 for a in alpha):
                raise ValueError(f"negative exponent in {alpha}")
            coeff = Fraction(coeff)
            if coeff:
                acc[alpha] = acc[alpha] + coeff if alpha in acc else coeff
        self.terms = {a: c for a, c in acc.items() if c}

    @classmethod
    def _trusted(cls, dim: int, terms: dict) -> "ExactPolynomial":
        """Wrap terms the package built itself, without re-validating them.

        `terms` must map length-`dim` tuples of non-negative ints to
        Fractions; zero coefficients are dropped here, nothing else is checked.
        """
        poly = object.__new__(cls)
        poly.dim = dim
        poly.terms = {a: c for a, c in terms.items() if c}
        return poly

    @classmethod
    def zero(cls, dim: int) -> "ExactPolynomial":
        return cls(dim)

    @classmethod
    def constant(cls, dim: int, value) -> "ExactPolynomial":
        return cls(dim, {(0,) * dim: Fraction(value)})

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree 0."""
        return max((sum(a) for a in self.terms), default=0)

    def __add__(self, other: "ExactPolynomial") -> "ExactPolynomial":
        if not isinstance(other, ExactPolynomial):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        merged = dict(self.terms)
        for a, c in other.terms.items():
            merged[a] = merged.get(a, Fraction(0)) + c
        return ExactPolynomial._trusted(self.dim, merged)

    def __neg__(self) -> "ExactPolynomial":
        return ExactPolynomial._trusted(self.dim, {a: -c for a, c in self.terms.items()})

    def __sub__(self, other: "ExactPolynomial") -> "ExactPolynomial":
        if not isinstance(other, ExactPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, ExactPolynomial):
            if other.dim != self.dim:
                raise ValueError("dimension mismatch")
            prod: dict[tuple[int, ...], Fraction] = {}
            for a, ca in self.terms.items():
                for b, cb in other.terms.items():
                    key = tuple(x + y for x, y in zip(a, b))
                    prod[key] = prod.get(key, Fraction(0)) + ca * cb
            return ExactPolynomial._trusted(self.dim, prod)
        if isinstance(other, (int, Fraction)):
            return ExactPolynomial._trusted(
                self.dim, {a: c * other for a, c in self.terms.items()}
            )
        return NotImplemented

    __rmul__ = __mul__

    def __call__(self, point) -> Fraction:
        """Exact evaluation at a rational point (sequence of length dim)."""
        point = tuple(Fraction(x) for x in point)
        if len(point) != self.dim:
            raise ValueError("point dimension mismatch")
        total = Fraction(0)
        for alpha, coeff in self.terms.items():
            val = coeff
            for x, a in zip(point, alpha):
                if a:
                    val *= x**a
            total += val
        return total

    def integral_over_simplex(self) -> Fraction:
        """Exact integral over the unit simplex, term by term via the moment oracle."""
        return sum((c * monomial_integral(a) for a, c in self.terms.items()), Fraction(0))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactPolynomial)
            and self.dim == other.dim
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return f"ExactPolynomial({self.dim}, 0)"
        parts = [f"{c}*x^{a}" for a, c in sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]))]
        return f"ExactPolynomial({self.dim}, {' + '.join(parts)})"


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

    nodes[i] and basis[i] correspond; basis[i](nodes[j]) is exactly the
    Kronecker delta and the basis sums exactly to the constant 1.
    integrals[i] is the exact integral of basis[i] over the reference simplex.
    """

    dim: int
    degree: int
    nodes: tuple[tuple[Fraction, ...], ...]
    basis: tuple[ExactPolynomial, ...]
    integrals: tuple[Fraction, ...]

    @property
    def node_count(self) -> int:
        return len(self.nodes)


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
    The partition of unity and the integral sum 1/d! are checked exactly.
    Memoized; the result is immutable and safe to share.
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

    basis, integrals = [], []
    for alpha in alphas:
        alpha_0 = k - sum(alpha)
        product = falling_0[alpha_0]
        denominator = math.factorial(alpha_0)
        for c, a in enumerate(alpha):
            if a:
                product = _integer_product(product, falling_y[c, a])
                denominator *= math.factorial(a)
        basis.append(
            ExactPolynomial._trusted(
                d,
                {
                    beta: Fraction(v * scale[beta], denominator)
                    for beta, v in product.items()
                    if v
                },
            )
        )
        integrals.append(
            Fraction(
                sum(v * moment[beta] for beta, v in product.items()),
                denominator * math.factorial(k + d),
            )
        )

    # Exact self-checks: partition of unity and total moment.
    total: dict[tuple[int, ...], Fraction] = {}
    for p in basis:
        for beta, v in p.terms.items():
            total[beta] = total.get(beta, 0) + v
    if {beta: v for beta, v in total.items() if v} != {zero: 1}:
        raise RuntimeError(f"partition of unity violated for d={d}, k={k}")
    if sum(integrals, Fraction(0)) != Fraction(1, math.factorial(d)):
        raise RuntimeError(f"basis integrals do not sum to 1/d! for d={d}, k={k}")

    return LagrangeBasisSpec(d, k, tuple(lattice_nodes(d, k)), tuple(basis), tuple(integrals))


def basis_integrals(spec: LagrangeBasisSpec) -> tuple[Fraction, ...]:
    """Exact integrals of every basis function over the reference simplex.

    Computed once, when the basis is built; this returns `spec.integrals`.
    """
    return spec.integrals


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
        integrals = basis_integrals(lagrange_basis(d, k))
        if sum(integrals, Fraction(0)) != Fraction(1, math.factorial(d)):
            raise RuntimeError(f"audit consistency failure at d={d}, k={k}")
        negative = tuple(i for i, v in enumerate(integrals) if v < 0)
        records.append(
            DegreeRecord(
                degree=k,
                integrals=integrals,
                all_nonnegative=not negative,
                negative_indices=negative,
            )
        )
    return AuditReport(dim=d, records=tuple(records))
