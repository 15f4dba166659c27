"""QP solver, certificate, and audit checks against enumeration, FD and exact-rational oracles."""

import itertools
import json
import math
import re
import reprlib
from fractions import Fraction
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ctrldisc import cli, exactbasis, ocp
from ctrldisc.exactbasis import (
    MAX_CONTROL_DEGREE,
    basis_integrals,
    build_certificate,
    gram,
    lagrange_basis,
    solve_rational_system,
)
from ctrldisc.fem import (
    ControlSpace,
    StateSpace,
    assemble_control_mass,
    assemble_coupling,
    assemble_p1_stiffness_mass,
)
from ctrldisc.mesh import cell_geometry
from ctrldisc.ocp import (
    Discretization,
    OcpConfig,
    QpConvergenceError,
    convergence_study,
    estimate_operator_norm,
    feasibility_audit,
    minimize_nonneg_quadratic,
    solve_qp,
)


def enumerate_nonneg_qp(matrix, linear):
    """Active-set enumeration oracle for min 0.5 x'Qx + c'x s.t. x >= 0.

    Tries every subset of active (pinned-to-zero) coordinates; a candidate is
    KKT-valid when the free block solves to non-negative values and the
    gradient is non-negative on the active set.  Singular free blocks are
    skipped: for a PSD matrix some optimal point has a regular one.  Returns
    (x, objective).
    """
    n = matrix.shape[0]
    best_x, best_val = None, np.inf
    for active in itertools.product((False, True), repeat=n):
        free = [i for i in range(n) if not active[i]]
        x = np.zeros(n)
        if free:
            sub = matrix[np.ix_(free, free)]
            if np.linalg.matrix_rank(sub) < len(free):
                continue
            x[free] = np.linalg.solve(sub, -linear[free])
            if (x[free] < -1e-11).any():
                continue
        grad = matrix @ x + linear
        if any(grad[i] < -1e-11 for i in range(n) if active[i]):
            continue
        val = 0.5 * float(x @ (matrix @ x)) + float(linear @ x)
        if val < best_val:
            best_x, best_val = x, val
    assert best_x is not None
    return best_x, best_val


# ---------------------------------------------------------------------------
# generic QP core


def _seeded_problems(count=20, seed=42):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 11))
        raw = rng.standard_normal((n, n))
        yield raw @ raw.T + n * np.eye(n), 3.0 * rng.standard_normal(n)


def test_core_solver_matches_enumeration_oracle():
    for trial, (matrix, linear) in enumerate(_seeded_problems()):
        x_ref, val_ref = enumerate_nonneg_qp(matrix, linear)
        x, _, val, res, iters, failure = minimize_nonneg_quadratic(
            lambda x: matrix @ x + linear, linear, 0.0, 1e-12, 50_000
        )
        assert failure is None, f"trial {trial}: {failure}"
        assert val == pytest.approx(val_ref, abs=1e-8)
        np.testing.assert_allclose(x, x_ref, atol=1e-6)
        assert (x >= 0).all()


@st.composite
def psd_problems(draw):
    """(H, c) for min 0.5 x'Hx + c'x over x >= 0, with H PSD and often singular.

    H = Q diag(eigenvalues) Q' with some eigenvalues 0, and c = H v + s with
    s >= 0, so c'd = s'd >= 0 along every null direction d >= 0 of H: the
    objective is bounded below on the orthant.
    """
    n = draw(st.integers(1, 6))
    eigenvalues = draw(
        st.lists(st.sampled_from([0.0, 0.1, 1.0, 3.0, 10.0]), min_size=n, max_size=n).filter(any)
    )
    entries = st.floats(-2.0, 2.0)
    q, _ = np.linalg.qr(draw(hnp.arrays(np.float64, (n, n), elements=entries)))
    matrix = (q * eigenvalues) @ q.T
    matrix = 0.5 * (matrix + matrix.T)
    v = draw(hnp.arrays(np.float64, n, elements=entries))
    s = np.maximum(draw(hnp.arrays(np.float64, n, elements=entries)), 0.0)
    return matrix, matrix @ v + s


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(problem=psd_problems())
def test_core_solver_matches_enumeration_on_singular_hessians(problem):
    # CG on a face may meet a null direction of H, where its curvature is 0;
    # the minimizer need not be unique, so only J and the KKT residual are
    # compared
    matrix, linear = problem
    _, val_ref = enumerate_nonneg_qp(matrix, linear)
    x, g, val, res, iters, failure = minimize_nonneg_quadratic(
        lambda x: matrix @ x + linear, linear, 0.0, 1e-10, 100_000
    )
    assert failure is None
    assert (x >= 0).all() and res <= 1e-10
    assert val == pytest.approx(val_ref, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_core_solver_needs_no_hessian_norm(scale):
    # the first projected step has length 1 whatever the Hessian's norm:
    # too long, the search shrinks it; too short, the next step is a
    # Barzilai-Borwein step
    for trial, (matrix, linear) in enumerate(_seeded_problems()):
        matrix, linear = scale * matrix, scale * linear
        x_ref, val_ref = enumerate_nonneg_qp(matrix, linear)
        x, _, val, _, _, failure = minimize_nonneg_quadratic(
            lambda x: matrix @ x + linear, linear, 0.0, 1e-12 * scale, 50_000
        )
        assert failure is None, f"trial {trial}: {failure}"
        assert val == pytest.approx(val_ref, abs=1e-8 * scale)
        np.testing.assert_allclose(x, x_ref, atol=1e-6)


def test_iterations_count_every_gradient_evaluation():
    # the start x = 0 uses the given g0; every later call of the gradient,
    # for a trial point or for a CG Hessian product, is one iteration
    for matrix, linear in _seeded_problems():
        points = []

        def gradient(x):
            points.append(x)
            return matrix @ x + linear

        x, g, *_, iters, failure = minimize_nonneg_quadratic(gradient, linear, 0.0, 1e-12, 50_000)
        assert failure is None
        assert len(points) == iters
        # a returned point other than 0 is a trial point, with its own gradient
        assert any(p is x for p in points) or not x.any()
        np.testing.assert_array_equal(g, matrix @ x + linear)


def test_core_solver_stops_on_lipschitz_independent_kkt_residual():
    # the residual is ||min(x, g)|| at the returned point, from its own
    # gradient; the core takes no L, so no L can change it
    for matrix, linear in _seeded_problems(count=5, seed=3):
        x_ref, _ = enumerate_nonneg_qp(matrix, linear)
        x, g, _, res, iters, failure = minimize_nonneg_quadratic(
            lambda x: matrix @ x + linear, linear, 0.0, 1e-10, 50_000
        )
        assert failure is None and iters > 0
        np.testing.assert_allclose(g, matrix @ x + linear, atol=1e-12)
        assert res == np.linalg.norm(np.minimum(x, g))
        assert res <= 1e-10
        np.testing.assert_allclose(x, x_ref, atol=1e-8)


def test_core_solver_reports_an_unbounded_objective():
    # J = -|x|^2/2 - sum(x) is not convex: CG meets negative curvature along
    # a direction that stays feasible
    matrix, linear = -np.eye(3), -np.ones(3)
    x, g, val, res, iters, failure = minimize_nonneg_quadratic(
        lambda x: matrix @ x + linear, linear, 0.0, 1e-10, 100_000
    )
    # the last iterate, with its finite objective
    assert failure == f"QP objective is unbounded below after {iters} iterations"
    assert iters > 0
    assert math.isfinite(val) and val < 0
    assert np.isfinite(x).all() and (x > 0).all()
    np.testing.assert_array_equal(g, matrix @ x + linear)
    assert res == np.linalg.norm(np.minimum(x, g))


def test_core_solver_reports_a_nonfinite_gradient():
    linear = np.array([-1.0, 2.0])

    def gradient(x):
        return np.full_like(x, np.nan) if x.any() else linear.copy()

    x, g, val, _, iters, failure = minimize_nonneg_quadratic(gradient, linear, 0.5, 1e-10, 100)
    # the first trial point's gradient is the non-finite one; x = 0 is returned
    assert failure == "QP objective became non-finite after 1 iterations"
    assert iters == 1
    assert val == 0.5
    np.testing.assert_array_equal(x, np.zeros(2))
    assert g is linear


def test_core_solver_stops_when_the_residual_stagnates():
    # an interior optimum: the KKT residual is |g| and cannot go below roundoff
    rng = np.random.default_rng(8)
    factor = rng.standard_normal((8, 8))
    matrix = factor @ factor.T + np.eye(8)
    linear = -matrix @ rng.uniform(0.5, 1.5, 8)
    x, g, _, res, iters, failure = minimize_nonneg_quadratic(
        lambda x: matrix @ x + linear, linear, 0.0, 1e-300, 100_000
    )
    assert 0 < iters < 1000
    assert re.fullmatch(
        r"QP did not reach tol=1\.000e-300 and stagnated: the search step vanished; "
        rf"no new best in the last \d+ of {iters} iterations \(residual {res:.3e}\)",
        failure,
    )
    assert res == np.linalg.norm(np.minimum(x, g))
    np.testing.assert_allclose(x, np.linalg.solve(matrix, -linear), rtol=1e-12)


def test_core_solver_flags_iteration_cap():
    matrix = np.array([[2.0, 0.0], [0.0, 1.0]])
    linear = np.array([-1.0, -1.0])
    *_, res, iters, failure = minimize_nonneg_quadratic(
        lambda x: matrix @ x + linear, linear, 0.0, 1e-14, 2
    )
    assert iters == 2
    assert failure == f"QP did not reach tol=1.000e-14 within 2 iterations (residual {res:.3e})"


def test_estimate_operator_norm():
    diag = np.diag([3.0, 1.0, 0.5])
    est = estimate_operator_norm(lambda v: diag @ v, 3, max_iterations=200, rtol=1e-10)
    assert est == pytest.approx(3.0, rel=1e-6)
    assert estimate_operator_norm(lambda v: 0.0 * v, 3) == 0.0


# ---------------------------------------------------------------------------
# objective and gradient


@pytest.fixture(scope="module")
def disc_d2k2():
    return Discretization(OcpConfig(dim=2, degree=2, n=4))


def objective(disc, lam):
    return disc.gradient_objective_state(lam)[1]


def gradient(disc, lam):
    return disc.gradient_objective_state(lam)[0]


def column_sums(disc):
    """C'1: the integral of each global control basis function."""
    return disc.coupling.T @ np.ones(disc.state_space.num_dofs)


def test_objective_at_zero_is_volume(disc_d2k2):
    assert objective(disc_d2k2, np.zeros(disc_d2k2.num_control_dofs)) == pytest.approx(
        1.0, abs=1e-14
    )


def test_objective_at_ones(disc_d2k2):
    # u = 1 gives y = 1: ||1 + 1||^2 + alpha ||1||^2 = 4 + alpha
    value = objective(disc_d2k2, np.ones(disc_d2k2.num_control_dofs))
    assert value == pytest.approx(4.0 + disc_d2k2.config.alpha, abs=1e-10)


def test_gradient_at_zero_is_twice_column_sums(disc_d2k2):
    # y = 0 makes the adjoint solve A p = M 1, i.e. p = 1, so g = 2 C' 1
    g0 = gradient(disc_d2k2, np.zeros(disc_d2k2.num_control_dofs))
    np.testing.assert_allclose(g0, 2.0 * column_sums(disc_d2k2), atol=1e-12)


@pytest.mark.parametrize(
    "dim,degree,n",
    [(1, 1, 4), (1, 2, 5), (1, 8, 6), (1, 10, 3), (2, 1, 4), (2, 2, 4), (2, 3, 6), (2, 4, 4)],
)
def test_origin_ties_coupling_and_masses_together(dim, degree, n):
    # K 1 = 0 makes A 1 = M 1, so the adjoint at lam = 0 (y = 0, A p = M 1)
    # is the constant 1 and the gradient there is 2 C' 1: an identity between
    # C, C' and M with no oracle.  The roundoff in p grows like cond(A) ~ h^-2
    # (about 1e-12 on a 64-cell interval), hence the coarse meshes.
    disc = Discretization(OcpConfig(dim=dim, degree=degree, n=n))
    ones = np.ones(disc.state_space.num_dofs)
    p = disc.solve(disc.mass @ ones)
    assert np.abs(p - 1.0).max() <= 1e-14
    g0 = gradient(disc, np.zeros(disc.num_control_dofs))
    assert np.abs(g0 - 2.0 * column_sums(disc)).max() <= 1e-14


def test_gradient_matches_central_differences(disc_d2k2):
    disc = disc_d2k2
    rng = np.random.default_rng(0)
    lam = np.abs(rng.standard_normal(disc.num_control_dofs))
    g = gradient(disc, lam)
    step = 1e-5
    fd = np.empty_like(g)
    for i in range(lam.size):
        bump = np.zeros_like(lam)
        bump[i] = step
        fd[i] = (objective(disc, lam + bump) - objective(disc, lam - bump)) / (2 * step)
    assert np.linalg.norm(fd - g) / np.linalg.norm(g) <= 1e-6


def test_objective_is_quadratic_secant_identity(disc_d2k2):
    # J(lam + s) - J(lam) - g(lam).s is independent of lam for a quadratic
    disc = disc_d2k2
    rng = np.random.default_rng(1)
    s = rng.standard_normal(disc.num_control_dofs)
    lam1 = np.abs(rng.standard_normal(disc.num_control_dofs))
    lam2 = 2.0 * np.abs(rng.standard_normal(disc.num_control_dofs))
    excess1 = objective(disc, lam1 + s) - objective(disc, lam1) - gradient(disc, lam1) @ s
    excess2 = objective(disc, lam2 + s) - objective(disc, lam2) - gradient(disc, lam2) @ s
    assert excess1 == pytest.approx(excess2, abs=1e-8)


def test_wrong_length_rejected(disc_d2k2):
    with pytest.raises(ValueError):
        disc_d2k2.gradient_objective_state(np.zeros(3))


# ---------------------------------------------------------------------------
# exact-rational oracle: the whole discrete problem in Fractions


def exact_cell_geometry(mesh, cell):
    """|det B| and B^-1 of one cell in rationals (d = 1, 2); the vertices are floats."""
    vertices = [[Fraction(x) for x in mesh.vertices[v]] for v in cell]
    # B[i][j]: coordinate i of vertex j + 1 minus vertex 0
    edges = [[v[i] - vertices[0][i] for v in vertices[1:]] for i in range(mesh.dim)]
    if mesh.dim == 1:
        return abs(edges[0][0]), [[1 / edges[0][0]]]
    (a, b), (c, d) = edges
    det = a * d - b * c
    return abs(det), [[d / det, -b / det], [-c / det, a / det]]


def dot(u, v):
    return sum(map(mul, u, v))


def exact_objective_and_gradient(disc, lam):
    """J(lam) and grad J(lam) with exact K, C, M_u and M and exact solves."""
    mesh, state, control = disc.mesh, disc.state_space, disc.control_space
    d, nv, m = mesh.dim, state.num_dofs, control.local_dim
    mass_ref, coupling_ref, control_ref = (
        [[Fraction(n, denominator) for n in row] for row in numerators]
        for numerators, denominator in (
            gram(state.ref, state.ref),
            gram(state.ref, control.ref),
            gram(control.ref, control.ref),
        )
    )
    ref_grads = [[Fraction(-1)] * d] + [[Fraction(i == c) for c in range(d)] for i in range(d)]
    state_operator = [[Fraction(0)] * nv for _ in range(nv)]
    mass = [[Fraction(0)] * nv for _ in range(nv)]
    coupling_lam = [Fraction(0)] * nv
    control_mass_lam, cells = [], []
    for ci, cell in enumerate(mesh.cells.tolist()):
        abs_det, inverse = exact_cell_geometry(mesh, cell)
        # physical gradients: rows of the reference gradients times B^-1
        grads = [[dot(g, column) for column in zip(*inverse)] for g in ref_grads]
        local = lam[ci * m : (ci + 1) * m]
        for a, va in enumerate(cell):
            for b, vb in enumerate(cell):
                stiffness = abs_det / math.factorial(d) * dot(grads[a], grads[b])
                state_operator[va][vb] += stiffness + abs_det * mass_ref[a][b]
                mass[va][vb] += abs_det * mass_ref[a][b]
            coupling_lam[va] += abs_det * dot(coupling_ref[a], local)
        control_mass_lam += [abs_det * dot(row, local) for row in control_ref]
        cells.append((cell, abs_det))

    def solve(rhs):
        return [row[0] for row in solve_rational_system(state_operator, [[v] for v in rhs])]

    alpha = Fraction(disc.config.alpha)
    residual = [v - Fraction(ocp.DESIRED_STATE) for v in solve(coupling_lam)]
    weighted = [dot(row, residual) for row in mass]
    objective = dot(residual, weighted) + alpha * dot(lam, control_mass_lam)
    adjoint = solve(weighted)
    gradient = []
    for ci, (cell, abs_det) in enumerate(cells):
        cell_adjoint = [adjoint[v] for v in cell]
        for j, column in enumerate(zip(*coupling_ref)):
            coupling_adjoint = abs_det * dot(column, cell_adjoint)
            gradient.append(2 * coupling_adjoint + 2 * alpha * control_mass_lam[ci * m + j])
    return objective, gradient


EXACT_ORACLE_CASES = [(1, 8), (1, 10), (1, 12), (2, 4), (2, 6)]


@pytest.mark.parametrize("dim,degree", EXACT_ORACLE_CASES)
def test_objective_and_gradient_match_exact_rationals(dim, degree):
    # dyadic meshes and a dyadic lam: every input is exact, so the floats are
    # checked against the exact discrete J and grad J, not against old floats
    disc = Discretization(OcpConfig(dim=dim, degree=degree, n=4))
    lam = [Fraction(1 + (7 * i) % 5, 4) for i in range(disc.num_control_dofs)]
    g, j, _ = disc.gradient_objective_state(np.array([float(v) for v in lam]))
    exact_j, exact_g = exact_objective_and_gradient(disc, lam)
    assert abs(j - float(exact_j)) <= 1e-13 * float(exact_j)
    exact_g = np.array([float(v) for v in exact_g])
    assert np.abs(g - exact_g).max() <= 1e-13 * np.abs(exact_g).max()


def certificate_of(config):
    """The certificate of a config's (dim, degree, alpha); its mesh parameter plays no part."""
    return build_certificate(config.dim, config.degree, config.alpha)


def certificate_direction(disc, cert):
    """The 0/1 coefficient vector of w: the negative-integral functions of every cell."""
    mask = np.zeros(disc.control_space.local_dim)
    mask[list(cert.ref_negative_indices)] = 1.0
    return np.tile(mask, disc.mesh.num_cells)


@pytest.mark.parametrize("n", [2, 4, 8])
@pytest.mark.parametrize("dim,degree", EXACT_ORACLE_CASES)
def test_certificate_direction_has_a_constant_state(dim, degree, n):
    # the negative set is invariant under vertex permutations, so int w v_a
    # is the same for every vertex a of a cell: C w = d! (int w) M 1 =
    # -beta M 1, and A 1 = M 1 makes y(w) exactly the constant -beta, with
    # L_n = ||y(w)|| = beta on the unit domain; build_certificate relies on
    # it, and the float state solve checks it here
    disc = Discretization(OcpConfig(dim=dim, degree=degree, n=n))
    cert = certificate_of(disc.config)
    y = disc.solve_state(certificate_direction(disc, cert))
    assert np.ptp(y) <= 1e-14
    assert abs(y.mean() + cert.beta) <= 1e-12 * cert.beta


# ---------------------------------------------------------------------------
# solve_qp


def test_zero_is_kkt_point_for_clean_degrees():
    for degree in (1, 2, 3, 5):
        disc = Discretization(OcpConfig(dim=2, degree=degree, n=2 if degree == 5 else 4))
        g0 = gradient(disc, np.zeros(disc.num_control_dofs))
        assert g0.min() >= -1e-12
        solution = solve_qp(disc)
        assert np.linalg.norm(solution.control) <= 1e-8
        assert solution.objective == pytest.approx(1.0, abs=1e-8)
        assert solution.kkt_residual <= disc.config.qp_tol


def count_calls(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records each call; return the record."""
    original = getattr(owner, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_kkt_point_at_zero_needs_no_gradient_evaluation(monkeypatch):
    # the clean regime is decided from the exact integrals: no gradient, no
    # factorization of A, no audit quadrature
    disc = Discretization(OcpConfig(2, 3, 8))
    gradients = count_calls(monkeypatch, Discretization, "gradient_objective_state")
    factors = count_calls(monkeypatch, ocp, "_banded_cholesky_solver")
    solution = solve_qp(disc)
    audit = feasibility_audit(disc, solution.control)
    assert (len(gradients), len(factors)) == (0, 0)
    assert solution.iterations == 0
    assert solution.objective == 1.0
    assert solution.kkt_residual == 0.0
    assert not solution.control.any() and not solution.state.any()
    assert audit.negative_part_norm == 0.0


def test_negative_regime_makes_two_band_solves_per_gradient_evaluation(monkeypatch):
    # every gradient of the QP, CG's Hessian products included, is one call
    # of the scaled kernel with one state and one adjoint solve: g0 is
    # solve_qp's, every other one the core's.  The final state is one more
    # solve; the (g, j, y) wrapper and the power iteration are never called
    disc = Discretization(OcpConfig(2, 4, 8))
    solves = count_calls(monkeypatch, disc, "solve")
    kernel = count_calls(monkeypatch, disc, "scaled_gradient")
    wrapper = count_calls(monkeypatch, Discretization, "gradient_objective_state")
    power = count_calls(monkeypatch, ocp, "estimate_operator_norm")
    solution = solve_qp(disc)
    assert solution.iterations == 6
    assert len(kernel) == 1 + solution.iterations
    assert len(solves) == 2 * len(kernel) + 1
    assert not wrapper and not power


def test_one_gradient_evaluation_makes_two_band_solves(monkeypatch):
    # one state and one adjoint solve per call of the QP's kernel, no more,
    # and the (g, j, y) wrapper takes its state from the same two solves
    disc = Discretization(OcpConfig(2, 4, 4))
    solves = count_calls(monkeypatch, disc, "solve")
    for total in (2, 4):
        disc.scaled_gradient(np.ones(disc.num_control_dofs))
        assert len(solves) == total
    lam = np.linspace(0.0, 1.0, disc.num_control_dofs)
    for total in (6, 8):
        g, j, y = disc.gradient_objective_state(lam)
        assert len(solves) == total
    np.testing.assert_allclose(y, disc.solve_state(lam), rtol=1e-13, atol=1e-15)
    scale = disc.control_scale
    np.testing.assert_array_equal(g, disc.scaled_gradient(lam / scale) / scale)


def test_negative_regime_factors_once_per_discretization(monkeypatch):
    factors = count_calls(monkeypatch, ocp, "_banded_cholesky_solver")
    disc = Discretization(OcpConfig(2, 4, 4))
    assert len(factors) == 0
    solution = solve_qp(disc)
    certificate_of(disc.config)
    feasibility_audit(disc, solution.control)
    assert len(factors) == 1
    assert solution.iterations > 0


# Every floating-point layer of a Discretization, built on first use.
FLOAT_LAYERS = (
    "cell_geometry",
    "assemble_p1_stiffness_mass",
    "assemble_coupling",
    "assemble_control_mass",
)


@pytest.mark.parametrize("dim,degree", [(2, 3), (1, 2)])
def test_clean_regime_builds_no_float_layer(monkeypatch, capsys, dim, degree):
    def refuse(name):
        def call(*args):
            raise AssertionError(f"{name} called in the clean regime")

        return call

    for name in FLOAT_LAYERS:
        monkeypatch.setattr(ocp, name, refuse(name))
    # nor the QP's gradient kernel, its blocks or its scaling
    for name in ("scaled_gradient", "_scaled_blocks", "control_scale"):
        monkeypatch.setattr(Discretization, name, property(refuse(name)))
    # nor the control dofs' cell layout, which only the cell-block operators read
    monkeypatch.setattr(ControlSpace, "cell_dofs", property(refuse("cell_dofs")))
    config = OcpConfig(dim, degree, 8)
    disc = Discretization(config)
    solution = solve_qp(disc)
    audit = feasibility_audit(disc, solution.control)
    study = convergence_study(config, [4, 8])
    assert not solution.control.any() and solution.objective == 1.0
    assert (audit.min_cell_average, audit.negative_part_norm) == (0.0, 0.0)
    assert study.regime == "FEASIBLE_LIMIT"
    assert all((run.objective, run.iterations) == (1.0, 0) for run in study.runs)
    capsys.readouterr()
    shape = ["--dim", str(dim), "--degree", str(degree)]
    assert cli.main(["solve", *shape, "--mesh", "8"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["J"], report["iterations"], report["control_norm"]) == (1.0, 0, 0.0)
    assert cli.main(["convergence", *shape, "--meshes", "4,8"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["regime"] == "FEASIBLE_LIMIT"
    assert [(run["J"], run["iters"]) for run in report["runs"]] == [(1.0, 0), (1.0, 0)]


def test_lazy_operators_equal_eager_assembly_and_are_built_once(monkeypatch):
    calls = {name: count_calls(monkeypatch, ocp, name) for name in FLOAT_LAYERS}
    disc = Discretization(OcpConfig(2, 4, 4))
    assert not any(calls.values())
    solution = solve_qp(disc)
    certificate_of(disc.config)
    feasibility_audit(disc, solution.control)

    mesh = disc.mesh
    geometry = cell_geometry(mesh)
    state, control = StateSpace(mesh), ControlSpace(mesh, 4)
    band, mass = assemble_p1_stiffness_mass(state, geometry)
    coupling = assemble_coupling(state, control, geometry)
    control_mass = assemble_control_mass(control, geometry)
    rng = np.random.default_rng(7)
    y, lam = rng.standard_normal(state.num_dofs), rng.standard_normal(control.num_dofs)
    assert np.array_equal(disc.abs_dets, geometry[1])
    assert np.array_equal(disc.operator, band)
    assert np.array_equal(disc.mass @ y, mass @ y)
    assert np.array_equal(disc.coupling @ lam, coupling @ lam)
    assert np.array_equal(disc.coupling.T @ y, coupling.T @ y)
    assert np.array_equal(disc.control_mass @ lam, control_mass @ lam)
    # operator and mass share the one stiffness/mass assembly
    assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(FLOAT_LAYERS, 1)


CLEAN_DEGREES = [
    (dim, degree)
    for dim in (1, 2)
    for degree in range(1, 8)
    if min(basis_integrals(lagrange_basis(dim, degree))) >= 0
]


def test_clean_degrees_are_the_known_ones():
    # Newton-Cotes weights turn negative at k = 8 on the interval; on the
    # triangle the quadratic's vertex integrals are exactly 0, and k = 4, 6, 7
    # have negative ones
    assert CLEAN_DEGREES == [(1, k) for k in range(1, 8)] + [(2, 1), (2, 2), (2, 3), (2, 5)]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    case=st.sampled_from(CLEAN_DEGREES),
    n=st.integers(1, 6),
    alpha=st.floats(1e-3, 10.0),
    tol=st.sampled_from([1e-8, 1e-16, 1e-18, 1e-300]),
)
def test_clean_regime_solution_is_exactly_zero(case, n, alpha, tol):
    dim, degree = case
    solution = solve_qp(Discretization(OcpConfig(dim, degree, n, alpha=alpha, qp_tol=tol)))
    assert not solution.control.any()
    assert solution.objective == 1.0
    assert (solution.kkt_residual, solution.iterations) == (0.0, 0)


def test_regime_label_certificate_and_origin_share_one_test():
    for dim, degree in [(1, 7), (1, 8), (2, 2), (2, 3), (2, 4)]:
        disc = Discretization(OcpConfig(dim, degree, 2))
        negative = disc.negative_reference_indices
        assert negative == tuple(
            j for j, v in enumerate(basis_integrals(disc.control_space.ref)) if v < 0
        )
        study = convergence_study(disc.config, [1, 2])
        assert (study.regime == "INFEASIBLE_LIMIT") == bool(negative)
        assert (study.runs[0].iterations > 0) == bool(negative)
        if negative:
            assert certificate_of(disc.config).ref_negative_indices == negative
        else:
            assert certificate_of(disc.config) is None


def test_counterexample_solution_beats_certificate_bound():
    disc = Discretization(OcpConfig(dim=2, degree=4, n=4))
    certificate = certificate_of(disc.config)
    solution = solve_qp(disc)
    assert solution.objective <= certificate.objective_bound + 1e-8
    assert solution.objective <= certificate.measured_objective + 1e-10
    assert solution.objective <= 1.0  # never worse than lam = 0
    assert solution.control.min() >= -1e-12
    assert solution.kkt_residual <= disc.config.qp_tol


def scaled_kkt_residual(disc, lam):
    """||min(lam sqrt(m), g / sqrt(m))|| with m = diag(M_u), from a fresh gradient.

    m is |det B| times diag(M_ref) on each cell, from the assembled control
    mass's block and the mesh's cells, not from the solver's control_scale.
    """
    m = cell_geometry(disc.mesh)[1][:, None] * np.diag(disc.control_mass.block)
    root = np.sqrt(m.ravel())
    return np.linalg.norm(np.minimum(lam * root, gradient(disc, lam) / root))


def test_kkt_residual_is_the_scaled_natural_residual():
    for degree in (3, 4):
        disc = Discretization(OcpConfig(dim=2, degree=degree, n=4))
        solution = solve_qp(disc)
        expected = scaled_kkt_residual(disc, solution.control)
        assert solution.kkt_residual == pytest.approx(expected, rel=1e-6, abs=1e-15)
        assert solution.kkt_residual <= disc.config.qp_tol
        if degree == 3:
            assert solution.kkt_residual == 0.0 and solution.iterations == 0


@pytest.mark.parametrize(
    "n,alpha",
    [(4, 0.1), (8, 0.1), (16, 0.1), (8, 0.05), (8, 0.0805), (8, 0.0878), (8, 0.4)],
)
def test_qp_iteration_budget_d2k4(n, alpha):
    # the diagonal scaling makes the count mesh-independent; the projected
    # steps find the face and CG solves on it in a few steps
    disc = Discretization(OcpConfig(dim=2, degree=4, n=n, alpha=alpha))
    solution = solve_qp(disc)
    assert solution.iterations == (5 if alpha == 0.4 else 6)
    assert scaled_kkt_residual(disc, solution.control) <= 1.01 * disc.config.qp_tol
    assert solution.objective <= certificate_of(disc.config).objective_bound


@pytest.mark.parametrize(
    "dim,degree,n,iterations", [(2, 4, 4, 6), (2, 4, 8, 6), (2, 4, 16, 6), (1, 8, 256, 10)]
)
def test_qp_iteration_count_ignores_one_ulp_changes_of_alpha(dim, degree, n, iterations):
    # the primary metric: no J comparison decides a step, so changes at the
    # roundoff level leave the count alone, and so does refining the mesh
    for i in range(4):
        config = OcpConfig(dim, degree, n, alpha=0.1 * (1 + i * 2**-52))
        assert solve_qp(Discretization(config)).iterations == iterations


# Hard cases of the QP: high degrees, whose M^ is ill-conditioned, and
# alphas spread over the d=2, k=4 regime.  Each row gives the kernel calls
# (g0 plus the core's iterations) allowed: the calls FISTA with its power
# iteration took on the same solve (g0, 5 power products, iterations).
# GPCG measured 7 / 10 / 139 / 115 / 592, 11 / 10 / 46 and 7 / 7 / 7 / 6.
HARD_CASES = [
    pytest.param(2, 4, 2, 0.1, 129, id="d2-k4"),
    pytest.param(2, 6, 2, 0.1, 124, id="d2-k6"),
    pytest.param(2, 10, 2, 0.1, 270, id="d2-k10"),
    pytest.param(2, 12, 2, 0.1, 820, id="d2-k12"),
    pytest.param(2, 14, 2, 0.1, 1414, id="d2-k14"),
    pytest.param(1, 8, 4, 0.1, 65, id="d1-k8"),
    pytest.param(1, 10, 4, 0.1, 55, id="d1-k10"),
    pytest.param(1, 14, 4, 0.1, 87, id="d1-k14"),
    pytest.param(2, 4, 4, 0.01, 297, id="d2-k4-alpha0.01"),
    pytest.param(2, 4, 4, 0.0805, 138, id="d2-k4-alpha0.0805"),
    pytest.param(2, 4, 4, 0.0878, 109, id="d2-k4-alpha0.0878"),
    pytest.param(2, 4, 4, 0.4, 72, id="d2-k4-alpha0.4"),
]


@pytest.mark.parametrize("dim,degree,n,alpha,kernel_calls", HARD_CASES)
def test_qp_hard_cases_converge_within_fistas_kernel_calls(
    monkeypatch, dim, degree, n, alpha, kernel_calls
):
    disc = Discretization(OcpConfig(dim, degree, n, alpha=alpha))
    calls = count_calls(monkeypatch, disc, "scaled_gradient")
    solution = solve_qp(disc)
    assert len(calls) == 1 + solution.iterations <= kernel_calls
    assert solution.kkt_residual <= disc.config.qp_tol
    assert scaled_kkt_residual(disc, solution.control) <= 1.01 * disc.config.qp_tol


def exact_reference_optimum(dim, degree, alpha, support):
    """The reference QP's minimizer mu*, c = d! r'mu* and J = 1 + c, in Fractions.

    The reference QP is min over mu >= 0 of f(mu) = (1 + d! r'mu)^2 + alpha
    d! mu'M_ref mu, with r the exact reference basis integrals, M_ref the
    exact reference mass and alpha taken exactly (a float as its double).
    Off `support` mu is 0; on it half of grad f / d!, r (1 + d! r'mu) +
    alpha M_ref mu, vanishes, a linear system solved exactly.  Asserts
    exactly that mu > 0 on the support and grad f >= 0 off it: f is strictly
    convex, so mu is then its unique minimizer, and mu'grad f = 0 gives
    J = (1 + c)^2 + alpha d! mu'M_ref mu = 1 + c.
    """
    ref = lagrange_basis(dim, degree)
    r = basis_integrals(ref)
    numerators, denominator = gram(ref, ref)
    mass = [[Fraction(a, denominator) for a in row] for row in numerators]
    fact, alpha, support = math.factorial(dim), Fraction(alpha), sorted(support)
    system = [[fact * r[i] * r[j] + alpha * mass[i][j] for j in support] for i in support]
    mu = [Fraction(0)] * len(r)
    for i, (value,) in zip(support, solve_rational_system(system, [[-r[i]] for i in support])):
        mu[i] = value
    c = fact * sum(map(mul, r, mu))
    half_gradient = [(1 + c) * r[i] + alpha * sum(map(mul, mass[i], mu)) for i in range(len(r))]
    assert all(mu[i] > 0 for i in support)
    assert all(half_gradient[i] >= 0 for i in range(len(r)) if i not in support)
    return mu, c, 1 + c


def solution_support(dim, degree, alpha):
    """Indices of the positive entries of a float solve's block on its first cell."""
    solution = solve_qp(Discretization(OcpConfig(dim, degree, 2, alpha=alpha)))
    return np.flatnonzero(solution.control[: math.comb(degree + dim, dim)] > 0.0)


def kkt_error_bounds(dim, degree, alpha, mu, tol):
    """Bounds on |J - J*| and |cell average - c| of a solve whose KKT residual is <= tol.

    A solve's blocks are the same on every cell (to roundoff), and in the
    reference coordinates w = s mu, s = diag(M_ref)^(1/2), its scaled KKT
    residual is sqrt(d!) ||min(w, grad F(w))|| for F(w) = f(w / s) / d!, whose
    Hessian is 2 d! r^ r^' + 2 alpha M^ (r^ = r / s, M^ = M_ref / s s').  With
    sigma and L its extreme eigenvalues, the natural-residual error bound for
    strongly convex QPs (Pang, Math. Oper. Res. 12, 1987) gives ||w - w*|| <=
    delta = (1 + L) / sigma tol / sqrt(d!).  Then |c - c*| = d! |r^'(w - w*)|
    <= d! |r^| delta and 0 <= J - J* = d! (F(w) - F(w*)) <= d! (|grad F(w*)|
    delta + L delta^2 / 2).  Eigenvalues and norms are taken in floats from
    the exact values.
    """
    ref = lagrange_basis(dim, degree)
    r = np.array([float(v) for v in basis_integrals(ref)])
    numerators, denominator = gram(ref, ref)
    mass = np.array([[a / denominator for a in row] for row in numerators])
    s = np.sqrt(np.diag(mass))
    fact = math.factorial(dim)
    r_hat = r / s
    hessian = 2.0 * fact * np.outer(r_hat, r_hat) + 2.0 * alpha * mass / np.outer(s, s)
    sigma, lipschitz = np.linalg.eigvalsh(hessian)[[0, -1]]
    delta = (1.0 + lipschitz) / sigma * tol / math.sqrt(fact)
    w = s * np.array([float(v) for v in mu])
    grad_w = hessian @ w + 2.0 * r_hat  # grad F(0) = 2 r^
    j_bound = fact * (np.linalg.norm(grad_w) * delta + lipschitz * delta**2 / 2)
    return j_bound, fact * np.linalg.norm(r_hat) * delta


@pytest.mark.parametrize(
    "dim,degree,n",
    [(2, 4, 2), (2, 4, 8), (2, 4, 16), (2, 6, 2), (2, 6, 4), (1, 8, 4), (1, 8, 64),
     (1, 10, 8), (1, 10, 256)],
)
def test_discrete_optimum_is_the_same_on_every_mesh(dim, degree, n):
    # The reference QP has a unique solution mu*, and it is symmetric under
    # permutations of the barycentric coordinates, which permute the basis
    # and leave r and M_ref alone.  So lam = mu* on every cell has C lam a
    # multiple of M 1, its state is the constant c = d! r'mu*, the adjoint is
    # the constant 1 + c, and the full gradient on each cell is |det B| / d!
    # times the reference one: lam satisfies the full KKT conditions, and
    # J_n = 1 + c on every mesh.  mu* is computed exactly on the support of
    # the solve's first block, which the oracle proves optimal.  Measured:
    # cell averages spread by at most 1.6e-13 and y by 1.8e-13 (roundoff:
    # every cell sees the same iteration), |J - (1 + min avg)| <= 5.7e-12,
    # |J / J* - 1| <= 1.2e-11 and each block within 2.7e-12 |mu*| of mu*,
    # all at d=1, n=256, where the state solves' roundoff dominates.
    config = OcpConfig(dim, degree, n)
    tol = config.qp_tol
    disc = Discretization(config)
    solution = solve_qp(disc)
    averages = feasibility_audit(disc, solution.control).cell_averages
    blocks = solution.control.reshape(disc.mesh.num_cells, -1)
    mu, c, j_exact = exact_reference_optimum(dim, degree, config.alpha, np.flatnonzero(blocks[0]))
    mu = np.array([float(v) for v in mu])

    assert np.ptp(averages) <= tol / 50
    assert np.ptp(solution.state) <= tol / 50
    assert abs(solution.objective - (1.0 + averages.min())) <= 6 * tol
    assert abs(solution.objective / float(j_exact) - 1.0) <= tol
    assert np.linalg.norm(blocks - mu, axis=1).max() <= tol * np.linalg.norm(mu)
    assert c < 0  # the optimum has a negative part on every cell


def test_exact_discrete_optimum_d2k4_at_one_tenth():
    # alpha = 1/10 exactly, on the support of the float solve at the double 0.1
    support = solution_support(2, 4, 0.1)
    _, c, j = exact_reference_optimum(2, 4, Fraction(1, 10), support)
    assert (j, c) == (Fraction(9259, 11737), Fraction(-2478, 11737))


def test_solve_qp_iteration_cap_carries_best(monkeypatch):
    monkeypatch.setattr(ocp, "MAX_QP_ITERATIONS", 3)
    disc = Discretization(OcpConfig(dim=1, degree=8, n=2))
    with pytest.raises(QpConvergenceError) as excinfo:
        solve_qp(disc)
    best = excinfo.value.best
    assert best.iterations == 3
    assert best.objective <= 1.0
    np.testing.assert_array_equal(best.state, disc.solve_state(best.control))


# ---------------------------------------------------------------------------
# certificate


def test_certificate_refused_when_all_integrals_nonnegative():
    for degree in (1, 2, 3, 5):
        assert build_certificate(2, degree, 0.1) is None


def test_certificate_exists_for_d1_k8():
    certificate = build_certificate(1, 8, 0.1)
    assert certificate.beta > 0
    assert certificate.m_squared > 0
    assert len(certificate.ref_negative_indices) > 0


def test_certificate_existence_matches_audit_d1():
    from ctrldisc.exactbasis import audit_degrees

    report = audit_degrees(1, 11)
    for record in report.records:
        if record.all_nonnegative:
            assert build_certificate(1, record.degree, 0.1) is None
        else:
            certificate = build_certificate(1, record.degree, 0.1)
            assert certificate.ref_negative_indices == record.negative_indices


def test_certificate_d2k4_values_and_mesh_independence():
    # no argument names a mesh, so no field can depend on one; the float
    # pipeline checks the same values mesh by mesh below
    cert = build_certificate(2, 4, 0.1)
    assert (cert.dim, cert.degree, cert.alpha) == (2, 4, 0.1)

    # the d=2 degree-4 negative functions are the three edge midpoints at -1/90
    assert cert.ref_negative_indices == (3, 5, 12)
    assert cert.beta_exact == Fraction(1, 15)
    assert cert.beta == pytest.approx(2.0 * 3.0 / 90.0, abs=1e-15)
    assert cert.m2_exact == Fraction(272, 1575)

    # step and margin follow the closed formulas
    assert cert.step == pytest.approx(cert.beta / ((1 + cert.alpha) * cert.m_squared))
    assert cert.margin == pytest.approx(cert.beta**2 / ((1 + cert.alpha) * cert.m_squared))
    assert cert.measured_objective <= cert.objective_bound


# The d=2 cases keep their bare-degree ids; d=1 adds every negative degree.
NEGATIVE_CERTIFICATE_CASES = [pytest.param(2, k, id=str(k)) for k in (4, 6, 7, 8)] + [
    pytest.param(1, k, id=f"d1-{k}")
    for k in range(1, MAX_CONTROL_DEGREE + 1)
    if min(basis_integrals(lagrange_basis(1, k))) < 0
]


@pytest.mark.parametrize("dim,degree", NEGATIVE_CERTIFICATE_CASES)
def test_certificate_descent_bound_all_negative_degrees_d2(dim, degree):
    # J(t_hat w) <= (1+alpha) M^2 t^2 - 2 beta t + 1 = 1 - delta for every
    # degree with a negative integral (builder enforces it; assert explicitly)
    certificate = build_certificate(dim, degree, 0.1)
    assert certificate.measured_objective <= certificate.objective_bound + 1e-8
    closed_form = (
        (1 + certificate.alpha) * certificate.m_squared * certificate.step**2
        - 2 * certificate.beta * certificate.step
        + 1.0
    )
    assert certificate.objective_bound == pytest.approx(closed_form, abs=1e-14)


def test_certificate_matches_mesh_assembled_quantities():
    # the float pipeline is the oracle of the mesh-free certificate: the
    # assembled column sums and control mass reproduce beta and M^2, and the
    # solved objective at t_hat w is the exact J(t_hat w)
    for (dim, degree), n in itertools.product(EXACT_ORACLE_CASES, (2, 4, 8)):
        disc = Discretization(OcpConfig(dim=dim, degree=degree, n=n))
        cert = certificate_of(disc.config)
        w = certificate_direction(disc, cert)
        measured = {
            "beta": (-float(column_sums(disc) @ w), cert.beta),
            "M2": (float(w @ (disc.control_mass @ w)), cert.m_squared),
            "J": (objective(disc, cert.step * w), cert.measured_objective),
        }
        for name, (value, certified) in measured.items():
            assert abs(value - certified) <= 1e-13 * certified, (name, dim, degree, n)


def test_certificate_bound_is_an_exact_comparison(monkeypatch):
    # Cauchy-Schwarz gives beta^2 <= M^2 on the unit domains, and J(t_hat w)
    # is exactly 1 - delta at equality; an M^2 a factor 1 - 1e-30 below it
    # must be refused, which no float comparison could tell
    beta = Fraction(1, 15)
    monkeypatch.setattr(exactbasis, "integral_of_square", lambda ref, indices: beta**2 / 2)
    assert build_certificate(2, 4, 0.1).m2_exact == beta**2
    below = beta**2 / 2 * (1 - Fraction(1, 10**30))
    monkeypatch.setattr(exactbasis, "integral_of_square", lambda ref, indices: below)
    with pytest.raises(RuntimeError, match="exceeds the certificate bound"):
        build_certificate(2, 4, 0.1)


# The instance rule that build_certificate and OcpConfig share: one message
# from both.  The long double is > 0, but its double is 0; the int and the
# Fraction are finite, but their doubles overflow.
BAD_ALPHAS = (0.0, -1e-3, math.inf, math.nan, True, np.True_, "0.1", None, np.longdouble("1e-400"),
              10**400, Fraction(10**400, 3))
BAD_INSTANCES = [
    ((3, 4, 0.1), "dim must be in 1..2, got 3"),
    ((True, 4, 0.1), "dim must be an integer, got True"),
    ((2, 0, 0.1), "control degree must be in 1..14, got 0"),
    ((1, 25, 0.1), "control degree must be in 1..14, got 25"),
    ((2, 4.0, 0.1), "control degree must be an integer, got 4.0"),
    *(((2, 4, alpha), f"alpha must be finite and > 0, got {alpha!r}") for alpha in BAD_ALPHAS),
]


@pytest.mark.parametrize(
    "instance, message", [pytest.param(*case, id=reprlib.repr(case[0])) for case in BAD_INSTANCES]
)
def test_certificate_and_config_share_the_instance_rule(instance, message):
    for build in (build_certificate, lambda dim, degree, alpha: OcpConfig(dim, degree, 2, alpha)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(*instance)


@pytest.mark.parametrize(
    "alpha",
    [np.float32(0.1), np.float16(0.1), np.longdouble(0.1), np.float64(0.1), Fraction(1, 10), 1],
    ids=repr,
)
def test_certificate_takes_a_weight_as_its_double(alpha):
    # numpy registers its floats as numbers.Real: the certificate, like
    # OcpConfig (test_config_validation), keeps the Python float a weight
    # rounds to, a Fraction's included
    certificate = build_certificate(2, 4, alpha)
    assert type(certificate.alpha) is float
    assert certificate == build_certificate(2, 4, float(alpha))


# ---------------------------------------------------------------------------
# feasibility audit


def test_audit_of_zero_control(disc_d2k2):
    audit = feasibility_audit(disc_d2k2, np.zeros(disc_d2k2.num_control_dofs))
    assert audit.min_cell_average == 0.0
    assert audit.negative_part_norm == 0.0
    assert audit.negative_cell_fraction == 0.0


class NoQuadrature:
    """Stands in for the audit tabulation; any product with it fails."""

    __array_ufunc__ = None  # numpy defers `array @ self` to __rmatmul__

    def __rmatmul__(self, other):
        raise AssertionError("audit quadrature used")


def test_audit_of_zero_control_needs_no_quadrature(monkeypatch):
    disc = Discretization(OcpConfig(dim=2, degree=4, n=2))
    monkeypatch.setattr(disc, "_audit_tab", NoQuadrature())
    audit = feasibility_audit(disc, np.zeros(disc.num_control_dofs))
    assert audit.negative_part_norm == 0.0
    assert np.array_equal(audit.cell_averages, np.zeros(disc.mesh.num_cells))
    lam = np.zeros(disc.num_control_dofs)
    lam[0] = 1.0  # any nonzero coefficient needs the quadrature
    with pytest.raises(AssertionError, match="audit quadrature used"):
        feasibility_audit(disc, lam)


class NoReferenceIntegrals:
    """Stands in for the exact reference integrals; reading them fails."""

    def __iter__(self):
        raise AssertionError("reference integrals read")


def test_zero_audit_is_exactly_zero_without_the_reference_integrals(monkeypatch):
    disc = Discretization(OcpConfig(dim=2, degree=4, n=3))
    monkeypatch.setattr(disc, "ref_integrals", NoReferenceIntegrals())
    audit = feasibility_audit(disc, np.zeros(disc.num_control_dofs))
    assert audit.cell_averages.shape == (disc.mesh.num_cells,)
    assert not audit.cell_averages.any() and not np.signbit(audit.cell_averages).any()
    assert audit.min_cell_average == 0.0 and not np.signbit(audit.min_cell_average)
    assert audit.negative_part_norm == 0.0
    assert audit.negative_cell_fraction == 0.0
    with pytest.raises(ValueError):
        feasibility_audit(disc, np.zeros(disc.num_control_dofs + 1))


def test_audit_nonneg_coeffs_clean_for_clean_basis(disc_d2k2):
    rng = np.random.default_rng(2)
    lam = np.abs(rng.standard_normal(disc_d2k2.num_control_dofs))
    audit = feasibility_audit(disc_d2k2, lam)
    assert audit.min_cell_average >= -1e-12


def test_audit_detects_negative_cells():
    disc = Discretization(OcpConfig(dim=2, degree=4, n=4))
    solution = solve_qp(disc)
    audit = feasibility_audit(disc, solution.control)
    assert audit.min_cell_average < 0
    assert audit.negative_part_norm > 0
    assert 0 < audit.negative_cell_fraction <= 1


# ---------------------------------------------------------------------------
# convergence studies


def test_study_feasible_regime_d1():
    config = OcpConfig(dim=1, degree=7, n=4)
    study = convergence_study(config, [2, 4])
    assert study.regime == "FEASIBLE_LIMIT"
    assert study.certificate is None
    for run in study.runs:
        assert run.objective == pytest.approx(1.0, abs=1e-8)
        assert run.min_cell_average >= -1e-12


def test_study_infeasible_regime_d1():
    config = OcpConfig(dim=1, degree=8, n=4)
    study = convergence_study(config, [2, 4])
    assert study.regime == "INFEASIBLE_LIMIT"
    assert study.certificate is not None
    bound = 1.0 - study.certificate.margin
    for run in study.runs:
        assert run.objective <= bound + 1e-8
        assert run.negative_part_norm > 0


@pytest.mark.parametrize("degree,builds", [(4, 1), (3, 0)])
def test_a_study_builds_the_audit_rule_once(monkeypatch, capsys, degree, builds):
    # the rule and its table depend only on (d, k); a clean-regime study
    # audits only zero controls, which need no quadrature
    rules = count_calls(monkeypatch, ocp, "simplex_rule")
    argv = ["convergence", "--dim", "2", "--degree", str(degree), "--meshes", "4,8,16"]
    assert cli.main(argv) == 0
    assert len(rules) == builds
    assert len(json.loads(capsys.readouterr().out)["runs"]) == 3


def test_study_requires_two_meshes():
    with pytest.raises(ValueError):
        convergence_study(OcpConfig(dim=1, degree=2, n=4), [4])


def test_study_rejects_non_integral_mesh_parameters():
    config = OcpConfig(dim=1, degree=2, n=4)
    for meshes, bad in (([2, 4.9], "4.9"), ([True, 4], "True")):
        with pytest.raises(ValueError, match=f"mesh parameter must be an integer, got {bad}"):
            convergence_study(config, meshes)
    study = convergence_study(config, np.array([4, 2]))
    assert [type(run.n) for run in study.runs] == [int, int]
    assert [run.n for run in study.runs] == [2, 4]


def test_config_validation():
    with pytest.raises(ValueError):
        OcpConfig(dim=3, degree=1, n=2)
    with pytest.raises(ValueError):
        OcpConfig(dim=2, degree=0, n=2)
    # the audit rule of exactness 2k + 2 exists up to quadrature.MAX_EXACTNESS
    assert OcpConfig(dim=1, degree=14, n=2).degree == 14
    with pytest.raises(ValueError, match=r"control degree must be in 1\.\.14, got 15"):
        OcpConfig(dim=1, degree=15, n=2)
    with pytest.raises(ValueError):
        OcpConfig(dim=2, degree=1, n=0)
    with pytest.raises(ValueError):
        OcpConfig(dim=2, degree=1, n=2, alpha=0.0)
    with pytest.raises(ValueError):
        OcpConfig(dim=2, degree=1, n=2, qp_tol=0.0)
    # np.True_ is no bool and no Real; a str or None is no number at all; an
    # int beyond the float range has no finite double
    for value in (math.inf, math.nan, True, np.True_, "0.1", None, 10**400):
        with pytest.raises(ValueError, match="alpha"):
            OcpConfig(dim=2, degree=1, n=2, alpha=value)
        with pytest.raises(ValueError, match="qp_tol"):
            OcpConfig(dim=2, degree=1, n=2, qp_tol=value)
    # numpy floats are numbers.Real: each is kept as the float it rounds to,
    # so a long double weight solves as its double does
    for value in (np.float32(0.1), np.float16(0.1), np.longdouble(0.1)):
        config = OcpConfig(dim=2, degree=4, n=2, alpha=value, qp_tol=value)
        assert (config.alpha, config.qp_tol) == (float(value), float(value))
        assert (type(config.alpha), type(config.qp_tol)) == (float, float)
    solution = solve_qp(Discretization(OcpConfig(2, 4, 2, alpha=np.longdouble(0.1))))
    assert solution.objective == solve_qp(Discretization(OcpConfig(2, 4, 2, alpha=0.1))).objective


@pytest.mark.parametrize("name", ["dim", "degree", "n"])
def test_config_sizes_must_be_integers(name):
    # a float passes every range check, then misbuilds the mesh; True, an
    # Integral, would pass as 1
    base = {"dim": 2, "degree": 4, "n": 2}
    named = {"dim": "dim", "degree": "control degree", "n": "mesh parameter"}[name]
    for value in (base[name] + 0.5, float(base[name]), True):
        with pytest.raises(ValueError, match=f"{named} must be an integer, got {value!r}"):
            OcpConfig(**{**base, name: value})
    config = OcpConfig(**{**base, name: np.int64(base[name])})
    assert config == OcpConfig(**base) and type(getattr(config, name)) is int


def test_monotonicity_objective_never_above_volume():
    for config in (OcpConfig(dim=1, degree=8, n=4), OcpConfig(dim=2, degree=4, n=4)):
        solution = solve_qp(Discretization(config))
        assert solution.objective <= 1.0 + 1e-12
