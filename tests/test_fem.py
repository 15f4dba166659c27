"""Assembly and state-solver checks against hand computations and dense oracles."""

import math
import re
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from ctrldisc import exactbasis, fem
from ctrldisc.exactbasis import basis_integrals, gram, lagrange_basis, multi_indices
from ctrldisc.fem import (
    CellBlockOperator,
    CgConvergenceError,
    ControlSpace,
    StateSpace,
    _banded_cholesky_solver,
    _inverse,
    _reference_block,
    assemble_control_mass,
    assemble_coupling,
    assemble_load,
    assemble_p1_stiffness_mass,
    cg_solve,
    l2_error,
)
from ctrldisc.mesh import SimplexMesh, cell_geometry, unit_interval_mesh, unit_square_mesh
from ctrldisc.ocp import DESIRED_STATE, Discretization, OcpConfig
from ctrldisc.quadrature import simplex_rule
from test_exactbasis import coefficient_gram, coefficients


def dense(operator: CellBlockOperator) -> np.ndarray:
    """The operator's matrix, one column per unit vector."""
    return np.column_stack([operator @ e for e in np.eye(operator.shape[1])])


def dense_from_band(band: np.ndarray) -> np.ndarray:
    """The symmetric matrix whose upper band storage is band[u + i - j, j] = A[i, j]."""
    u, n = band.shape[0] - 1, band.shape[1]
    upper = sum(np.diag(band[u - k, k:], k) for k in range(u + 1))
    return upper + np.triu(upper, 1).T


def test_state_operator_single_interval_cell():
    # hand assembly on [0,1]: stiffness [[1,-1],[-1,1]], mass [[1/3,1/6],[1/6,1/3]]
    mesh = unit_interval_mesh(1)
    band = assemble_p1_stiffness_mass(StateSpace(mesh), cell_geometry(mesh))[0]
    operator = dense_from_band(band)
    expected = np.array([[1 + 1 / 3, -1 + 1 / 6], [-1 + 1 / 6, 1 + 1 / 3]])
    np.testing.assert_allclose(operator, expected, atol=1e-15)


@pytest.mark.parametrize("maker,n", [(unit_interval_mesh, 5), (unit_square_mesh, 3)])
def test_stiffness_kernel_and_mass_volume(maker, n):
    mesh = maker(n)
    space = StateSpace(mesh)
    band, mass = assemble_p1_stiffness_mass(space, cell_geometry(mesh))
    ones = np.ones(space.num_dofs)
    # K 1 = 0, so A 1 = (K + M) 1 = M 1
    assert np.abs(dense_from_band(band) @ ones - mass @ ones).max() < 1e-13
    assert ones @ (mass @ ones) == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("maker,n,degree", [(unit_interval_mesh, 4, 2), (unit_square_mesh, 3, 3)])
def test_assembled_matrices_exactly_symmetric_positive_diagonal(maker, n, degree):
    mesh = maker(n)
    state = StateSpace(mesh)
    geometry = cell_geometry(mesh)
    band, mass = assemble_p1_stiffness_mass(state, geometry)
    control = ControlSpace(mesh, degree)
    control_mass = assemble_control_mass(control, geometry)
    for matrix in (dense(mass), dense_from_band(band), dense(control_mass)):
        assert (matrix == matrix.T).all()
        assert (np.diag(matrix) > 0).all()


def test_control_mass_single_cell_p1():
    mesh = unit_interval_mesh(1)
    block = dense(assemble_control_mass(ControlSpace(mesh, 1), cell_geometry(mesh)))
    np.testing.assert_allclose(block, [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], atol=1e-15)


def test_control_mass_blocks_scale_with_det():
    mesh = unit_square_mesh(2)
    control = ControlSpace(mesh, 2)
    assembled = assemble_control_mass(control, cell_geometry(mesh))
    control_mass = dense(assembled)
    from ctrldisc.mesh import cell_affine_map

    ref = assembled.block
    m = control.local_dim
    off_block = np.ones_like(control_mass, dtype=bool)
    for ci in range(mesh.num_cells):
        det = cell_affine_map(mesh, ci).abs_det
        block = control_mass[ci * m : (ci + 1) * m, ci * m : (ci + 1) * m]
        np.testing.assert_allclose(block, det * ref, rtol=1e-14)
        off_block[ci * m : (ci + 1) * m, ci * m : (ci + 1) * m] = False
    # off-block entries are exactly zero (block-diagonal layout); the blocks
    # themselves hold exact zeros too (P2 vertex/edge pairs), so counting
    # nonzeros would not test the layout
    assert not control_mass[off_block].any()


@pytest.mark.parametrize("maker,n,degree", [(unit_interval_mesh, 3, 1), (unit_square_mesh, 2, 2)])
def test_partition_of_unity_has_unit_norm(maker, n, degree):
    mesh = maker(n)
    control = ControlSpace(mesh, degree)
    control_mass = assemble_control_mass(control, cell_geometry(mesh))
    ones = np.ones(control.num_dofs)
    assert ones @ (control_mass @ ones) == pytest.approx(1.0, abs=1e-12)


def test_coupling_column_sums_match_reference_integrals():
    # column sums equal |det B| * reference integrals (P1 partition of unity)
    mesh = unit_square_mesh(4)
    control = ControlSpace(mesh, 4)
    coupling = assemble_coupling(StateSpace(mesh), control, cell_geometry(mesh))
    col_sums = coupling.T @ np.ones(coupling.shape[0])
    ref = np.array([float(v) for v in basis_integrals(control.ref)])
    expected = np.tile(ref / 16.0, mesh.num_cells)  # |det B| = 1/n^2
    np.testing.assert_allclose(col_sums, expected, atol=1e-12)
    assert col_sums.min() < 0  # degree 4 on the triangle has negative integrals


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_coupling_column_sums_nonnegative_for_clean_degrees(degree):
    mesh = unit_square_mesh(3)
    coupling = assemble_coupling(StateSpace(mesh), ControlSpace(mesh, degree), cell_geometry(mesh))
    col_sums = coupling.T @ np.ones(coupling.shape[0])
    assert col_sums.min() >= -1e-13


def test_cg_identity_one_iteration():
    rhs = np.array([1.0, -2.0, 3.0])
    x, report = cg_solve(sp.identity(3, format="csr"), rhs, tol=1e-12)
    np.testing.assert_allclose(x, rhs, atol=1e-14)
    assert report.iterations <= 1
    assert report.converged


def test_cg_zero_rhs():
    x, report = cg_solve(sp.identity(4, format="csr"), np.zeros(4))
    assert (x == 0).all()
    assert report.iterations == 0


def test_cg_matches_dense_oracle():
    rng = np.random.default_rng(7)
    raw = rng.standard_normal((10, 10))
    spd = raw @ raw.T + 10 * np.eye(10)
    rhs = rng.standard_normal(10)
    expected = np.linalg.solve(spd, rhs)
    x, report = cg_solve(sp.csr_matrix(spd), rhs, tol=1e-12)
    np.testing.assert_allclose(x, expected, atol=1e-8)
    assert report.converged


def test_cg_iteration_cap_raises_with_report():
    rng = np.random.default_rng(3)
    raw = rng.standard_normal((12, 12))
    spd = raw @ raw.T + 10 * np.eye(12)
    with pytest.raises(CgConvergenceError) as excinfo:
        cg_solve(sp.csr_matrix(spd), rng.standard_normal(12), tol=1e-14, max_iterations=1)
    err = excinfo.value
    assert not err.report.converged
    assert err.report.iterations == 1
    assert err.best.shape == (12,)


def discretization(maker, n, degree):
    """The assembled model problem on maker(n), which is the mesh Discretization builds."""
    return Discretization(OcpConfig(maker(n).dim, degree, n))


@pytest.mark.parametrize("maker,n,degree", [(unit_interval_mesh, 4, 1), (unit_square_mesh, 3, 2)])
def test_state_of_zero_and_constant_control(maker, n, degree):
    disc = discretization(maker, n, degree)
    zero = disc.solve_state(np.zeros(disc.num_control_dofs))
    assert np.abs(zero).max() == 0.0
    # u = 1 -> y = 1 is the exact discrete solution of the Neumann problem
    one = disc.solve_state(np.ones(disc.num_control_dofs))
    np.testing.assert_allclose(one, 1.0, atol=1e-10)


@pytest.mark.parametrize("maker,n,degree", [(unit_interval_mesh, 6, 2), (unit_square_mesh, 4, 3)])
def test_conservation_identity(maker, n, degree):
    # testing the discrete equation with v = 1 forces int y = int u
    disc = discretization(maker, n, degree)
    rng = np.random.default_rng(11)
    ones = np.ones(disc.state_space.num_dofs)
    for _ in range(5):
        u = rng.standard_normal(disc.num_control_dofs)
        y = disc.solve_state(u)
        int_y = ones @ (disc.mass @ y)
        int_u = (disc.coupling.T @ ones) @ u
        assert abs(int_y - int_u) < 1e-10


@pytest.mark.parametrize("maker,n,degree", [(unit_interval_mesh, 6, 2), (unit_square_mesh, 4, 3)])
def test_state_solve_residual_at_roundoff(maker, n, degree):
    # the factored solve leaves no iteration error: ||A y - C u|| <= 1e-13 ||C u||
    disc = discretization(maker, n, degree)
    rng = np.random.default_rng(13)
    for _ in range(5):
        u = rng.standard_normal(disc.num_control_dofs)
        rhs = disc.coupling @ u
        y = disc.solve_state(u)
        residual = dense_from_band(disc.operator) @ y - rhs
        assert np.linalg.norm(residual) <= 1e-13 * np.linalg.norm(rhs)


@pytest.mark.parametrize("maker,n", [(unit_interval_mesh, 256), (unit_square_mesh, 32)])
def test_state_solve_is_backward_stable_on_fine_meshes(maker, n):
    # ||A y - b|| / ||b|| grows with the condition number of A, so the
    # mesh-independent contract is the normwise backward error
    disc = discretization(maker, n, 1)
    operator = dense_from_band(disc.operator)
    operator_norm = np.abs(operator).sum(axis=0).max()
    rng = np.random.default_rng(19)
    for _ in range(3):
        rhs = rng.standard_normal(disc.state_space.num_dofs)
        y = disc.solve(rhs)
        backward = np.linalg.norm(operator @ y - rhs, 1) / (
            operator_norm * np.linalg.norm(y, 1) + np.linalg.norm(rhs, 1)
        )
        assert backward <= 1e-15


def test_stability_bound():
    # ||y(u)|| <= ||u|| from testing the equation with y
    disc = Discretization(OcpConfig(2, 2, 4))
    rng = np.random.default_rng(5)
    for _ in range(3):
        u = rng.standard_normal(disc.num_control_dofs)
        y = disc.solve_state(u)
        norm_y = math.sqrt(y @ (disc.mass @ y))
        norm_u = math.sqrt(u @ (disc.control_mass @ u))
        assert norm_y <= norm_u * (1 + 1e-10) + 1e-12


def test_manufactured_solution_rate_two():
    # -lap y + y = (2 pi^2 + 1) cos(pi x) cos(pi y) with natural BCs has the
    # exact solution cos(pi x) cos(pi y); P1 converges at rate 2 in L2
    def exact(pts):
        return np.cos(np.pi * pts[:, 0]) * np.cos(np.pi * pts[:, 1])

    def forcing(pts):
        return (2.0 * np.pi**2 + 1.0) * exact(pts)

    errors = []
    for n in (8, 16, 32, 64):
        mesh = unit_square_mesh(n)
        space = StateSpace(mesh)
        band = assemble_p1_stiffness_mass(space, cell_geometry(mesh))[0]
        solve = _banded_cholesky_solver(band)
        y = solve(assemble_load(space, simplex_rule(2, 6), forcing))
        errors.append(l2_error(space, y, exact, simplex_rule(2, 6)))
    rates = [math.log(errors[i] / errors[i + 1]) / math.log(2.0) for i in range(3)]
    for rate in rates:
        assert abs(rate - 2.0) <= 0.2


def test_control_space_layout():
    mesh = unit_square_mesh(2)
    control = ControlSpace(mesh, 2)
    assert control.local_dim == 6
    assert control.num_dofs == 6 * mesh.num_cells
    assert np.array_equal(control.cell_dofs.ravel(), np.arange(control.num_dofs))
    assert control.cell_dofs.shape == (mesh.num_cells, 6)
    # reference tabulation reproduces the delta property at the nodes
    nodes = np.array([[float(x) for x in node] for node in control.ref.nodes])
    np.testing.assert_allclose(control.tabulate(nodes), np.eye(6), atol=1e-13)


EXACT_BLOCK_CASES = [(1, k) for k in range(1, 13)] + [(2, k) for k in range(1, 9)]


def reference_cell(d):
    """The reference simplex as a one-cell mesh."""
    return SimplexMesh(d, np.vstack([np.zeros(d), np.eye(d)]), np.arange(d + 1)[None, :], 1.0)


@pytest.mark.parametrize("d,k", EXACT_BLOCK_CASES)
def test_reference_blocks_are_the_exact_gram_rounded_once(d, k):
    mesh = reference_cell(d)
    state, control, geometry = StateSpace(mesh), ControlSpace(mesh, k), cell_geometry(mesh)
    blocks = {
        "control mass": (
            assemble_control_mass(control, geometry).block,
            control.ref,
            control.ref,
        ),
        "coupling": (assemble_coupling(state, control, geometry).block, state.ref, control.ref),
        "P1 mass": (assemble_p1_stiffness_mass(state, geometry)[1].block, state.ref, state.ref),
    }
    for name, (block, a, b) in blocks.items():
        assert np.array_equal(block, exact_block(a, b)), name


@pytest.mark.parametrize("d,k", [(1, 8), (1, 12), (2, 4), (2, 8), (3, 2), (3, 5)])
def test_reference_blocks_are_bitwise_equal_by_either_gram_route(monkeypatch, d, k):
    def blocks():
        lagrange_basis.cache_clear()
        mesh = reference_cell(d)
        p1, control = StateSpace(mesh).ref, ControlSpace(mesh, k).ref
        return [_reference_block(a, b) for a, b in ((p1, p1), (p1, control), (control, control))]

    default = blocks()
    # d = 1 by orbits; d >= 2 as A P B^T over the tests' general-d monomial expansion
    monkeypatch.setattr(exactbasis, "_gram_on_interval", exactbasis._gram_by_orbits)
    monkeypatch.setattr(exactbasis, "_gram_by_orbits", coefficient_gram)
    swapped = blocks()
    lagrange_basis.cache_clear()
    assert [block.tobytes() for block in default] == [block.tobytes() for block in swapped]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_p1_reference_basis_follows_the_vertex_order(d):
    # state.ref lists the vertices 0, e_1, ..., e_d, as tabulate and the cells do
    state = StateSpace(reference_cell(d))
    nodes = np.array([[float(x) for x in node] for node in state.ref.nodes])
    assert np.array_equal(nodes, reference_cell(d).vertices)
    assert np.array_equal(state.tabulate(nodes), np.eye(d + 1))
    # int lambda_a lambda_b over the reference simplex is (1 + delta_ab) / (d + 2)!
    expected = [
        [Fraction(1 + (a == b), math.factorial(d + 2)) for b in range(d + 1)] for a in range(d + 1)
    ]
    numerators, denominator = gram(state.ref, state.ref)
    assert [[Fraction(n, denominator) for n in row] for row in numerators] == expected


def exact_values(spec, points):
    """Every basis function of `spec` at float points, evaluated exactly and rounded once."""
    indices = multi_indices(spec.dim, spec.degree)
    out = np.empty((spec.node_count, len(points)))
    for q, point in enumerate(points):
        exact = [Fraction(x) for x in point]
        monomials = [math.prod(x**e for x, e in zip(exact, beta)) for beta in indices]
        for i, row in enumerate(coefficients(spec)):
            out[i, q] = float(sum(c * v for c, v in zip(row, monomials) if c))
    return out


@pytest.mark.parametrize("d,k", EXACT_BLOCK_CASES)
def test_tabulation_matches_exact_evaluation_at_audit_points(d, k):
    # Silvester's product form in floats stays within a few ulps of the exact
    # values where the monomial expansion lost up to 1e-7 (d=1, k=12)
    control = ControlSpace(reference_cell(d), k)
    points = simplex_rule(d, 2 * k + 2).points
    assert np.abs(control.tabulate(points) - exact_values(control.ref, points)).max() <= 4e-15


def test_state_space_contains_constant_one():
    mesh = unit_square_mesh(2)
    space = StateSpace(mesh)
    pts = np.array([[0.1, 0.3], [0.2, 0.5], [1 / 3, 1 / 3]])
    np.testing.assert_allclose(space.tabulate(pts).sum(axis=0), 1.0, atol=1e-15)


def test_solver_rejects_wrong_length():
    disc = Discretization(OcpConfig(1, 1, 2))
    with pytest.raises(ValueError):
        disc.solve_state(np.zeros(3))


# ---------------------------------------------------------------------------
# cell-block assembly against per-cell loop oracles that build sparse
# matrices cell by cell from the exact reference Gram blocks: operators agree
# normwise to 1e-14 relative (the loops sum in another order); load vectors
# and L2 errors are bitwise equal


def _jittered_square_mesh(n, seed=20161):
    mesh = unit_square_mesh(n)
    rng = np.random.default_rng(seed)
    shift = rng.uniform(-0.15 / n, 0.15 / n, size=mesh.vertices.shape)
    return SimplexMesh(dim=2, vertices=mesh.vertices + shift, cells=mesh.cells, h=mesh.h)


def _loop_affine_map(mesh, ci):
    """Per-cell (B, b, |det B|), computed as before assembly was batched."""
    verts = mesh.vertices[mesh.cells[ci]]
    matrix = (verts[1:] - verts[0]).T.copy()
    if mesh.dim == 1:
        det = matrix[0, 0]
    else:
        det = matrix[0, 0] * matrix[1, 1] - matrix[0, 1] * matrix[1, 0]
    return matrix, verts[0], abs(float(det))


def _loop_mirror(n, rows, cols, vals):
    upper = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    return (upper + sp.triu(upper, k=1).T).tocsr()


def exact_block(a, b) -> np.ndarray:
    """float() of every exact entry of the Gram matrix of two reference bases."""
    numerators, denominator = gram(a, b)
    return np.array([[float(Fraction(n, denominator)) for n in row] for row in numerators])


def _loop_stiffness_mass(space):
    mesh = space.mesh
    ref_mass = exact_block(space.ref, space.ref)
    ref_grads = space.reference_gradients()
    rows, cols, k_vals, m_vals = [], [], [], []
    for ci in range(mesh.num_cells):
        matrix, _, abs_det = _loop_affine_map(mesh, ci)
        grads = ref_grads @ np.linalg.inv(matrix)
        volume = abs_det / math.factorial(mesh.dim)
        dofs = mesh.cells[ci]
        for a in range(mesh.dim + 1):
            for b in range(a, mesh.dim + 1):
                rows.append(min(dofs[a], dofs[b]))
                cols.append(max(dofs[a], dofs[b]))
                k_vals.append(volume * float(grads[a] @ grads[b]))
                m_vals.append(abs_det * ref_mass[a, b])
    n = space.num_dofs
    return _loop_mirror(n, rows, cols, k_vals), _loop_mirror(n, rows, cols, m_vals)


def _loop_coupling(state, control):
    mesh = state.mesh
    ref_coupling = exact_block(state.ref, control.ref)
    m = control.local_dim
    rows, cols, vals = [], [], []
    for ci in range(mesh.num_cells):
        local = _loop_affine_map(mesh, ci)[2] * ref_coupling
        for a in range(mesh.dim + 1):
            for j in range(m):
                rows.append(mesh.cells[ci][a])
                cols.append(ci * m + j)
                vals.append(local[a, j])
    shape = (state.num_dofs, control.num_dofs)
    return sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()


def _loop_control_mass(control):
    mesh = control.mesh
    dets = [_loop_affine_map(mesh, ci)[2] for ci in range(mesh.num_cells)]
    return sp.kron(sp.diags(dets), exact_block(control.ref, control.ref), format="csr")


def _loop_load(space, rule, f):
    mesh = space.mesh
    phi = space.tabulate(rule.points)
    out = np.zeros(space.num_dofs)
    for ci in range(mesh.num_cells):
        matrix, offset, abs_det = _loop_affine_map(mesh, ci)
        fvals = f(rule.points @ matrix.T + offset)
        out[mesh.cells[ci]] += abs_det * (phi @ (rule.weights * fvals))
    return out


def _loop_l2_error(space, coeffs, exact, rule):
    mesh = space.mesh
    phi = space.tabulate(rule.points)
    total = 0.0
    for ci in range(mesh.num_cells):
        matrix, offset, abs_det = _loop_affine_map(mesh, ci)
        diff = coeffs[mesh.cells[ci]] @ phi - exact(rule.points @ matrix.T + offset)
        total += abs_det * float(rule.weights @ diff**2)
    return math.sqrt(total)


def _bumpy(points):
    return np.sin(3.0 * points[:, 0]) + np.exp(points.sum(axis=1)) * points[:, -1]


def _assert_close(new, old, scale):
    assert np.abs(new - old).max() <= 1e-14 * np.abs(scale).max()


def _assert_matches_loops(mesh, degree, seed=0):
    """A, C x, C' p, M_u x and M y against the dense loop oracles."""
    state, control = StateSpace(mesh), ControlSpace(mesh, degree)
    geometry = cell_geometry(mesh)
    band, mass = assemble_p1_stiffness_mass(state, geometry)
    stiffness_old, mass_old = _loop_stiffness_mass(state)
    operator_old = (stiffness_old + mass_old).toarray()
    _assert_close(dense_from_band(band), operator_old, operator_old)
    coupling = assemble_coupling(state, control, geometry)
    coupling_old = _loop_coupling(state, control).toarray()
    control_mass_old = _loop_control_mass(control).toarray()
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(control.num_dofs)
    y = rng.standard_normal(state.num_dofs)
    for new, old, v in (
        (coupling, coupling_old, x),
        (coupling.T, coupling_old.T, y),
        (assemble_control_mass(control, geometry), control_mass_old, x),
        (mass, mass_old.toarray(), y),
    ):
        assert new.shape == old.shape
        _assert_close(new @ v, old @ v, np.abs(old) @ np.abs(v))


@pytest.mark.parametrize("degree", [2, 4])
@pytest.mark.parametrize(
    "make_mesh",
    [lambda: unit_interval_mesh(37), lambda: unit_square_mesh(6), lambda: _jittered_square_mesh(6)],
    ids=["interval", "square", "jittered-square"],
)
def test_batched_assembly_equals_per_cell_loops(make_mesh, degree):
    mesh = make_mesh()
    _assert_matches_loops(mesh, degree)
    state = StateSpace(mesh)
    mass_rule = simplex_rule(mesh.dim, 2 * degree + 2)
    coeffs = np.cos(np.arange(state.num_dofs))
    assert (assemble_load(state, mass_rule, _bumpy) == _loop_load(state, mass_rule, _bumpy)).all()
    assert l2_error(state, coeffs, _bumpy, mass_rule) == _loop_l2_error(
        state, coeffs, _bumpy, mass_rule
    )


@st.composite
def distorted_meshes(draw):
    """Unit interval or square meshes with every interior vertex moved on an h/4 grid.

    Coordinates stay dyadic, so |det B| is computed exactly and a cell that
    the shifts flatten is exactly degenerate.
    """
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.sampled_from([1, 2, 4, 8] if dim == 1 else [1, 2, 4]))
    mesh = unit_interval_mesh(n) if dim == 1 else unit_square_mesh(n)
    interior = np.flatnonzero(((mesh.vertices > 0) & (mesh.vertices < 1)).all(axis=1))
    size = interior.size * dim
    steps = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
    vertices = mesh.vertices.copy()
    vertices[interior] += np.reshape(steps, (-1, dim)) / (4 * n)
    return SimplexMesh(dim=dim, vertices=vertices, cells=mesh.cells, h=mesh.h)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(mesh=distorted_meshes(), degree=st.integers(1, 3))
def test_cell_block_assembly_matches_loops_on_distorted_meshes(mesh, degree):
    try:
        cell_geometry(mesh)
    except ValueError as err:
        assert re.fullmatch(r"degenerate cell \d+: \|det B\| = 0", str(err))
        reject()
    _assert_matches_loops(mesh, degree)


def _interior_jittered(mesh, n, seed=20161):
    """mesh (n cells a side) with every interior vertex moved by seeded shifts of up to 0.15 / n.

    The domain stays the unit interval or square, and |det B| differs from
    cell to cell.
    """
    rng = np.random.default_rng(seed)
    interior = ((mesh.vertices > 0) & (mesh.vertices < 1)).all(axis=1)
    shift = rng.uniform(-0.15 / n, 0.15 / n, size=mesh.vertices.shape) * interior[:, None]
    return SimplexMesh(mesh.dim, mesh.vertices + shift, mesh.cells, mesh.h)


@pytest.mark.parametrize(
    "maker,n,degree",
    [(unit_interval_mesh, 9, 3), (unit_square_mesh, 6, 2), (unit_square_mesh, 5, 4)],
)
def test_scaled_gradient_matches_loops_on_jittered_meshes(maker, n, degree):
    # g^(z) = s * grad J(s * z) with s = diag(M_u)^(-1/2), from the per-cell
    # loop oracles and dense solves; with |det B| varying from cell to cell a
    # sqrt(|det B|) mistaken for |det B| (or back) cannot cancel
    mesh = _interior_jittered(maker(n), n)
    alpha = 0.3
    disc = Discretization(OcpConfig(mesh.dim, degree, n, alpha=alpha), mesh=mesh)
    assert disc.mesh is mesh and np.ptp(disc.abs_dets) > 0.1 * disc.abs_dets.max()
    state, control = disc.state_space, disc.control_space
    stiffness, mass = _loop_stiffness_mass(state)
    operator = (stiffness + mass).toarray()
    coupling = _loop_coupling(state, control).toarray()
    control_mass = _loop_control_mass(control).toarray()
    scale = 1.0 / np.sqrt(np.diag(control_mass))
    z = np.random.default_rng(3).standard_normal(control.num_dofs)
    lam = scale * z
    y = np.linalg.solve(operator, coupling @ lam)
    p = np.linalg.solve(operator, mass @ (y - DESIRED_STATE))
    expected = scale * (2.0 * coupling.T @ p + 2.0 * alpha * control_mass @ lam)
    assert np.abs(disc.scaled_gradient(z) - expected).max() <= 1e-14 * np.abs(expected).max()
    assert np.abs(disc.control_scale - scale).max() <= 1e-15 * scale.max()


def test_prebuilt_mesh_must_match_the_config_dimension():
    with pytest.raises(ValueError, match="mesh dimension 1 differs from config dim 2"):
        Discretization(OcpConfig(2, 2, 4), mesh=unit_interval_mesh(4))


def test_prebuilt_mesh_must_cover_a_unit_domain():
    # the objective takes |Omega| = 1: on the square [0, 2]^2 J(0) would read
    # 1 while ||y_d||^2_M is 4
    mesh = unit_square_mesh(4)
    doubled = SimplexMesh(2, 2.0 * mesh.vertices, mesh.cells, 2.0 * mesh.h)
    with pytest.raises(ValueError, match="mesh volume 4.0 is not the unit domain's 1"):
        Discretization(OcpConfig(2, 4, 4), mesh=doubled)
    # a perturbed unit square is accepted, and its checked geometry is kept
    jittered = _interior_jittered(mesh, 4)
    disc = Discretization(OcpConfig(2, 4, 4), mesh=jittered)
    assert np.array_equal(disc.abs_dets, cell_geometry(jittered)[1])
    ones = np.ones(disc.state_space.num_dofs)
    assert ones @ (disc.mass @ ones) == pytest.approx(1.0, rel=1e-14, abs=0)


def exact_inverse(matrix: np.ndarray) -> np.ndarray:
    """Inverse of a 1x1 or 2x2 float matrix in exact rationals, rounded once per entry."""
    (a, *rest), *lower = [[Fraction(x) for x in row] for row in matrix]
    if not rest:
        return np.array([[float(1 / a)]])
    (b,), ((c, d),) = rest, lower
    det = a * d - b * c
    return np.array([[float(d / det), float(-b / det)], [float(-c / det), float(a / det)]])


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 64])
def test_closed_form_inverse_equals_lapack_on_dyadic_meshes(n):
    # every benchmark mesh and golden is dyadic: K must not move by a bit
    for mesh in (unit_interval_mesh(n), unit_square_mesh(n)):
        matrices = cell_geometry(mesh)[0]
        assert np.array_equal(_inverse(matrices), np.linalg.inv(matrices))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(mesh=distorted_meshes())
def test_closed_form_inverse_is_the_rounded_exact_inverse(mesh):
    # dyadic vertices make the adjugate and the determinant exact, so each
    # entry is one correctly rounded division; LAPACK's inverse may differ
    # within its own error bound, a small multiple of cond(B) eps
    try:
        matrices = cell_geometry(mesh)[0]
    except ValueError:
        reject()
    inverse = _inverse(matrices)
    for matrix, entries in zip(matrices, inverse):
        assert np.array_equal(entries, exact_inverse(matrix))
    lapack = np.linalg.inv(matrices)
    error = np.abs(inverse - lapack).max(axis=(1, 2)) / np.abs(lapack).max(axis=(1, 2))
    assert (error <= 4 * np.finfo(float).eps * np.linalg.cond(matrices)).all()


def state_band(maker, n):
    mesh = maker(n)
    return assemble_p1_stiffness_mass(StateSpace(mesh), cell_geometry(mesh))[0]


@pytest.mark.parametrize(
    "maker,n", [(unit_interval_mesh, 256), (unit_square_mesh, 8), (unit_square_mesh, 64)]
)
def test_band_factor_and_solves_equal_scipy_linalg_bitwise(maker, n):
    # the factor and the solves call the very LAPACK routines that
    # cholesky_banded and get_lapack_funcs hand out, kept here as the oracle
    from scipy.linalg import cholesky_banded, get_lapack_funcs

    band = state_band(maker, n)
    oracle = cholesky_banded(band, lower=False, check_finite=False)
    factor, info = fem._flapack().dpbtrf(band, lower=0)
    assert info == 0 and np.array_equal(factor, oracle)
    (pbtrs,) = get_lapack_funcs(("pbtrs",), (oracle,))
    solve = _banded_cholesky_solver(band)
    rng = np.random.default_rng(n)
    for rhs in (np.ones(band.shape[1]), rng.standard_normal(band.shape[1])):
        assert np.array_equal(solve(rhs), pbtrs(oracle, rhs, lower=0)[0])


def test_band_factor_rejects_a_matrix_that_is_not_positive_definite():
    band = state_band(unit_square_mesh, 2)
    band[-1, 4] = -1.0  # a negative diagonal entry at row 4
    with pytest.raises(np.linalg.LinAlgError, match="^5-th leading minor not positive definite$"):
        _banded_cholesky_solver(band)


def test_band_solve_raises_on_lapack_error(monkeypatch):
    lapack = fem._flapack()

    def failing_pbtrs(factor, rhs, lower):
        return rhs, -2

    failing = SimpleNamespace(dpbtrf=lapack.dpbtrf, dpbtrs=failing_pbtrs)
    monkeypatch.setattr(fem, "_flapack", lambda: failing)
    solve = _banded_cholesky_solver(state_band(unit_interval_mesh, 3))
    with pytest.raises(ValueError, match="argument 2 of LAPACK pbtrs"):
        solve(np.ones(4))


def test_assembly_makes_no_per_cell_affine_maps(monkeypatch):
    import ctrldisc.fem
    import ctrldisc.mesh
    import ctrldisc.ocp
    from ctrldisc.ocp import Discretization, OcpConfig, feasibility_audit, solve_qp

    def per_cell(*args, **kwargs):
        raise AssertionError("per-cell affine map in the solve path")

    monkeypatch.setattr(ctrldisc.mesh, "cell_affine_map", per_cell)
    monkeypatch.setattr(ctrldisc.ocp, "cell_affine_map", per_cell)
    monkeypatch.setattr(ctrldisc.fem, "cell_affine_map", per_cell, raising=False)
    disc = Discretization(OcpConfig(2, 3, 8))
    solution = solve_qp(disc)
    assert solution.kkt_residual <= disc.config.qp_tol
    assert feasibility_audit(disc, solution.control).min_cell_average >= 0.0


def test_assembly_names_the_first_degenerate_cell():
    # cells 1 and 2 are flat (vertices 0, 1, 3 are collinear)
    mesh = SimplexMesh(
        dim=2,
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 0.0]]),
        cells=np.array([[0, 1, 2], [0, 1, 3], [0, 3, 1]]),
        h=2.0,
    )
    with pytest.raises(ValueError, match=r"degenerate cell 1\b"):
        assemble_p1_stiffness_mass(StateSpace(mesh), cell_geometry(mesh))
