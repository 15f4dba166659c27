"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from ctrldisc.exactbasis import (
    audit_degrees,
    basis_integrals,
    lagrange_basis,
    monomial_integral,
    multi_indices,
)
from ctrldisc.fem import assemble_load, l2_error
from ctrldisc.ocp import (
    Discretization,
    OcpConfig,
    build_certificate,
    feasibility_audit,
    minimize_nonneg_quadratic,
    solve_qp,
)
from ctrldisc.quadrature import simplex_rule

from test_exactbasis import barycentric_integral, solve_fractions
from test_ocp import enumerate_nonneg_qp


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} {criterion}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def counterexample_runs():
    """Criterion-4 configuration solved on n in {4, 8, 16}; shared with criterion 6."""
    base = OcpConfig(dim=2, degree=4, alpha=0.1, n=4)
    runs = {}
    for n in (4, 8, 16):
        disc = Discretization(replace(base, n=n))
        certificate = build_certificate(disc.config)
        solution = solve_qp(disc)
        audit = feasibility_audit(disc, solution.control)
        runs[n] = (certificate, solution, audit)
    return runs


def test_criterion_1_sign_table_reproduction():
    start = time.time()
    expected = {
        1: ((1, 2, 3, 4, 5, 6, 7, 9), 11),
        2: ((1, 2, 3, 5), 8),
        3: ((1, 3), 6),
    }
    ok = True
    for dim, (nonneg, k_max) in expected.items():
        ok = ok and audit_degrees(dim, k_max).nonnegative_degrees() == nonneg
    elapsed = time.time() - start
    ok = ok and elapsed < 60.0
    report("criterion 1: sign-table reproduction (exact)", ok, f"{elapsed:.1f}s")


def test_criterion_2_newton_cotes_oracle():
    ok = True
    for k in range(1, 12):
        nodes = [Fraction(i, k) for i in range(k + 1)]
        moments = [Fraction(1, p + 1) for p in range(k + 1)]
        weights = solve_fractions([[x**p for x in nodes] for p in range(k + 1)], moments)
        ok = ok and tuple(weights) == basis_integrals(lagrange_basis(1, k))
    report("criterion 2: Newton-Cotes weights match exactly for k <= 11", ok)


def test_criterion_3_exact_spot_values():
    vertex2 = 2 * barycentric_integral((2,), 2) - barycentric_integral((1,), 2)
    edge2 = 4 * barycentric_integral((1, 1), 2)
    spec2 = lagrange_basis(2, 2)
    vals2 = basis_integrals(spec2)
    is_vertex = [all(x in (0, 1) for x in node) for node in spec2.nodes]
    ok = sorted(vals2) == [0, 0, 0, Fraction(1, 6), Fraction(1, 6), Fraction(1, 6)]
    ok = ok and all(
        v == (vertex2 if vert else edge2) for v, vert in zip(vals2, is_vertex)
    )

    vertex3 = 2 * barycentric_integral((2,), 3) - barycentric_integral((1,), 3)
    spec3 = lagrange_basis(3, 2)
    vals3 = basis_integrals(spec3)
    ok = ok and vertex3 == Fraction(-1, 120)
    for v, node in zip(vals3, spec3.nodes):
        if all(x in (0, 1) for x in node):
            ok = ok and v == Fraction(-1, 120)
    report("criterion 3: exact spot values (d=2,k=2 and d=3,k=2)", ok)


def test_criterion_4_counterexample_gap(counterexample_runs):
    ok = True
    details = []
    betas, m2s = [], []
    for n, (certificate, solution, _) in sorted(counterexample_runs.items()):
        alpha = certificate.config.alpha
        delta = certificate.beta**2 / ((1 + alpha) * certificate.m_squared)
        ok = ok and solution.objective <= 1.0 - delta + 1e-8
        ok = ok and solution.objective <= certificate.measured_objective + 1e-10
        betas.append(certificate.beta)
        m2s.append(certificate.m_squared)
        details.append(f"n={n}: J={solution.objective:.6f} <= {1.0 - delta:.6f}")
    ok = ok and max(betas) - min(betas) <= 1e-10
    ok = ok and max(m2s) - min(m2s) <= 1e-10
    report("criterion 4: counterexample gap (d=2, k=4)", ok, "; ".join(details))


def test_criterion_5_feasible_regime_sharpness():
    ok = True
    for degree in (1, 2, 3):
        for n in (4, 8, 16):
            disc = Discretization(OcpConfig(dim=2, degree=degree, alpha=0.1, n=n))
            gradient_at_zero = disc.gradient_objective_state(np.zeros(disc.num_control_dofs))[0]
            ok = ok and gradient_at_zero.min() >= -1e-12
            solution = solve_qp(disc)
            ok = ok and np.linalg.norm(solution.control) <= 1e-8
            ok = ok and abs(solution.objective - 1.0) <= 1e-8
    report("criterion 5: feasible regime sharpness (d=2, k in {1,2,3})", ok)


def test_criterion_6_infeasibility_fingerprint(counterexample_runs):
    norms = {n: audit.negative_part_norm for n, (_, _, audit) in counterexample_runs.items()}
    ok = all(v > 0 for v in norms.values())
    drop = (norms[4] - norms[16]) / norms[4]
    ok = ok and drop < 0.20
    report(
        "criterion 6: non-vanishing negative part",
        ok,
        f"norms={norms[4]:.6f}/{norms[8]:.6f}/{norms[16]:.6f}, drop={drop:.2%}",
    )


def test_criterion_7a_quadrature_exactness():
    worst = 0.0
    for dim in (1, 2):
        for exactness in range(1, 19):
            rule = simplex_rule(dim, exactness)
            for alpha in multi_indices(dim, exactness):
                exact = float(monomial_integral(alpha))
                rel = abs(rule.integrate_monomial(alpha) - exact) / exact
                worst = max(worst, rel)
    report("criterion 7a: quadrature exactness vs moment oracle", worst <= 1e-13, f"max rel {worst:.2e}")


def test_criterion_7b_manufactured_solution_rate():
    def exact(pts):
        return np.cos(np.pi * pts[:, 0]) * np.cos(np.pi * pts[:, 1])

    def forcing(pts):
        return (2.0 * np.pi**2 + 1.0) * exact(pts)

    errors = []
    for n in (8, 16, 32, 64):
        disc = Discretization(OcpConfig(dim=2, degree=1, n=n))
        space = disc.state_space
        y = disc.solve(assemble_load(space, simplex_rule(2, 6), forcing))
        errors.append(l2_error(space, y, exact, simplex_rule(2, 6)))
    rates = [math.log(errors[i] / errors[i + 1]) / math.log(2.0) for i in range(3)]
    ok = all(abs(rate - 2.0) <= 0.2 for rate in rates)
    report("criterion 7b: P1 manufactured-solution L2 rate 2.0 +/- 0.2", ok,
           "rates " + ", ".join(f"{r:.3f}" for r in rates))


def test_criterion_7c_conservation():
    worst = 0.0
    rng = np.random.default_rng(23)
    for dim, n, degree in ((1, 8, 3), (2, 4, 2)):
        disc = Discretization(OcpConfig(dim=dim, degree=degree, n=n))
        ones = np.ones(disc.state_space.num_dofs)
        for _ in range(5):
            u = rng.standard_normal(disc.num_control_dofs)
            y = disc.solve_state(u)
            worst = max(worst, abs(ones @ (disc.mass @ y) - (disc.coupling.T @ ones) @ u))
    report("criterion 7c: conservation |int y - int u| <= 1e-10", worst <= 1e-10, f"max {worst:.2e}")


def test_criterion_7d_gradient_vs_finite_differences():
    disc = Discretization(OcpConfig(dim=2, degree=2, n=4))
    rng = np.random.default_rng(17)
    lam = np.abs(rng.standard_normal(disc.num_control_dofs))
    gradient = disc.gradient_objective_state(lam)[0]
    step = 1e-5
    fd = np.empty_like(gradient)
    for i in range(lam.size):
        bump = np.zeros_like(lam)
        bump[i] = step
        forward = disc.gradient_objective_state(lam + bump)[1]
        backward = disc.gradient_objective_state(lam - bump)[1]
        fd[i] = (forward - backward) / (2 * step)
    rel = np.linalg.norm(fd - gradient) / np.linalg.norm(gradient)
    report("criterion 7d: gradient vs central differences", rel <= 1e-6, f"rel {rel:.2e}")


def test_criterion_7e_qp_vs_enumeration_oracle():
    rng = np.random.default_rng(29)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 11))
        raw = rng.standard_normal((n, n))
        matrix = raw @ raw.T + n * np.eye(n)
        linear = 3.0 * rng.standard_normal(n)
        _, val_ref = enumerate_nonneg_qp(matrix, linear)
        _, _, val, _, _, failure = minimize_nonneg_quadratic(
            lambda x: matrix @ x + linear, linear, 0.0, 1e-12, 50_000
        )
        assert failure is None
        worst = max(worst, abs(val - val_ref))
    report("criterion 7e: QP matches active-set enumeration", worst <= 1e-8, f"max gap {worst:.2e}")
