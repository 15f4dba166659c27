"""Output oracles for the benchmark's ops, independent of the code under test.

Each oracle takes the op's argv, exit code and captured stdout and returns
``None`` when the output is correct, else a one-line reason.  The reference
values are exact rationals held here, never read back from ``ctrldisc``:

* beta = 1/15 and M^2 = 272/1575 for degree-4 triangles, so any solve of
  that configuration must reach J <= 1 - beta^2 / ((1 + alpha) M^2);
* in 3D the audit's non-negative degrees up to 6 are exactly (1, 3), the
  quadratic tetrahedron's vertex integrals are exactly -1/120, and every
  degree's integrals sum to 1/3! = 1/6.
"""

from __future__ import annotations

import json
from fractions import Fraction

KKT_TOL = 1e-10  # the CLI's documented default --tol, which the ops do not override
BETA_D2_K4 = Fraction(1, 15)
M2_D2_K4 = Fraction(272, 1575)
FEASIBLE_J_TOL = 1e-12
AUDIT_NONNEGATIVE_D3 = (1, 3)
QUADRATIC_TET_VERTEX_INTEGRAL = Fraction(-1, 120)
SIMPLEX_VOLUME_D3 = Fraction(1, 6)


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _solve_report(argv, code, stdout):
    if code != 0:
        return None, f"exit code {code}"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as err:
        return None, f"stdout is not JSON: {err}"
    cfg = report.get("config", {})
    expected = {
        "dim": int(_flag(argv, "--dim")),
        "degree": int(_flag(argv, "--degree")),
        "mesh": int(_flag(argv, "--mesh")),
        "alpha": float(_flag(argv, "--alpha")),
    }
    for key, value in expected.items():
        if cfg.get(key) != value:
            return None, f"config.{key} is {cfg.get(key)!r}, expected {value!r}"
    return report, None


def counterexample_qp(argv, code, stdout):
    report, why = _solve_report(argv, code, stdout)
    if why:
        return why
    alpha = Fraction(float(_flag(argv, "--alpha")))
    bound = 1 - BETA_D2_K4**2 / ((1 + alpha) * M2_D2_K4)
    if not report["kkt_residual"] <= KKT_TOL:
        return f"kkt_residual {report['kkt_residual']!r} > {KKT_TOL}"
    if not report["min_cell_avg"] < 0:
        return f"min_cell_avg {report['min_cell_avg']!r} is not negative"
    if not Fraction(report["J"]) <= bound:
        return f"J {report['J']!r} exceeds the certified bound {float(bound)!r}"
    return None


def feasible_assembly(argv, code, stdout):
    report, why = _solve_report(argv, code, stdout)
    if why:
        return why
    if not abs(report["J"] - 1.0) <= FEASIBLE_J_TOL:
        return f"J {report['J']!r} is not 1 within {FEASIBLE_J_TOL}"
    if report["iterations"] != 0:
        return f"iterations {report['iterations']!r}, expected 0"
    if not report["min_cell_avg"] >= 0:
        return f"min_cell_avg {report['min_cell_avg']!r} is negative"
    return None


def _graded_lex(d: int, k: int) -> list[tuple[int, ...]]:
    """Multi-indices |a| <= k, ascending total degree, lexicographic within a degree."""

    def of_total(dim, total):
        if dim == 1:
            return [(total,)]
        return [(f,) + r for f in range(total + 1) for r in of_total(dim - 1, total - f)]

    return [a for total in range(k + 1) for a in of_total(d, total)]


def exact_audit(argv, code, stdout):
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as err:
        return f"stdout is not JSON: {err}"
    dim = int(_flag(argv, "--dim"))
    max_degree = int(_flag(argv, "--max-degree"))
    if report.get("dimension") != dim:
        return f"dimension {report.get('dimension')!r}, expected {dim}"
    records = report.get("records", [])
    if [r["k"] for r in records] != list(range(1, max_degree + 1)):
        return "records do not cover degrees 1..max-degree in order"
    nonnegative = []
    for rec in records:
        k = rec["k"]
        integrals = [Fraction(v) for v in rec["integrals"]]
        if len(integrals) != len(_graded_lex(dim, k)):
            return f"k={k}: {len(integrals)} integrals, expected one per lattice node"
        if sum(integrals) != SIMPLEX_VOLUME_D3:
            return f"k={k}: integrals sum to {sum(integrals)}, expected {SIMPLEX_VOLUME_D3}"
        negative = [i for i, v in enumerate(integrals) if v < 0]
        if rec["negative_indices"] != negative or rec["all_nonnegative"] != (not negative):
            return f"k={k}: sign flags disagree with the integrals"
        if not negative:
            nonnegative.append(k)
        if k == 2:
            vertices = [i for i, a in enumerate(_graded_lex(dim, k)) if k in a or sum(a) == 0]
            if any(integrals[i] != QUADRATIC_TET_VERTEX_INTEGRAL for i in vertices):
                return f"k=2 vertex integrals are not all {QUADRATIC_TET_VERTEX_INTEGRAL}"
    if tuple(nonnegative) != AUDIT_NONNEGATIVE_D3:
        return f"non-negative degrees {tuple(nonnegative)}, expected {AUDIT_NONNEGATIVE_D3}"
    return None


ORACLES = {
    "counterexample-qp": counterexample_qp,
    "feasible-assembly": feasible_assembly,
    "exact-audit": exact_audit,
}


def check(workload: str, argv, code: int, stdout: str) -> str | None:
    """Run the workload's oracle; malformed output is a failure, not a crash."""
    try:
        return ORACLES[workload](argv, code, stdout)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as err:
        return f"malformed output: {type(err).__name__}: {err}"
