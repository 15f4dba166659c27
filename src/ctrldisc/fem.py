"""P1 Neumann state equation and discontinuous Lagrange control spaces.

Discretizes ``int (grad y . grad v + y v) = int u v`` for all P1 test
functions v, with states continuous P1 and controls discontinuous Lagrange of
degree k (one independent basis block per cell).  Control basis values are
floats converted once from the exact rational reference basis; the exact
module stays the single source of basis truth.

Assembled symmetric matrices are built from their upper triangle and mirrored,
so A == A.T holds exactly, not just to roundoff.

Assembly is batched: :func:`~ctrldisc.mesh.cell_geometry` gives every cell's
B and |det B| in one pass, the local blocks of all cells are stacked arrays,
and each matrix is one COO construction.  The triplets come in the order of
a per-cell loop (cell by cell, then the upper local pairs (a, b)), and the
local products are per-cell BLAS products (stacked matmul, not einsum), so
the duplicate sums in ``tocsr`` and hence the results are bitwise equal to
those of per-cell loops, which tests/test_fem.py keeps as an oracle.

The state operator A = K + M is fixed and symmetric positive definite, so
:class:`StateSolver` factors it once (banded Cholesky; the vertex numbering
gives bandwidth 1 on the interval and n + 2 on the unit square) and every
state and adjoint solve is two triangular band solves: backward stable, with
no iteration error.
:func:`cg_solve` stays as a general SPD utility for load-driven problems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .exactbasis import lagrange_basis, multi_indices
from .mesh import SimplexMesh, cell_geometry
from .quadrature import QuadratureRule, simplex_rule

# Import rule: scipy is imported inside the functions that use it, never at
# module level, so `import ctrldisc` and an exact audit load no scipy; at
# module level scipy.sparse and scipy.special cost every CLI process about
# 0.23 s (fresh-process `import ctrldisc`: 386 ms with them, 156 ms without).
if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "CgConvergenceError",
    "ControlSpace",
    "LinearSolveReport",
    "StateSolver",
    "StateSpace",
    "assemble_control_mass",
    "assemble_coupling",
    "assemble_load",
    "assemble_p1_stiffness_mass",
    "assemble_state_operator",
    "cg_solve",
    "l2_error",
]


class StateSpace:
    """Continuous P1 space on a simplex mesh; one dof per vertex.

    Contains the constant function 1 exactly (all-ones coefficient vector).
    """

    def __init__(self, mesh: SimplexMesh):
        self.mesh = mesh
        self.num_dofs = mesh.num_vertices

    def tabulate(self, points: np.ndarray) -> np.ndarray:
        """Reference barycentric basis values, shape (d+1, nq)."""
        points = np.asarray(points, dtype=float)
        first = 1.0 - points.sum(axis=1)
        return np.vstack([first, points.T])

    def reference_gradients(self) -> np.ndarray:
        """Constant reference gradients, shape (d+1, d)."""
        d = self.mesh.dim
        return np.vstack([-np.ones((1, d)), np.eye(d)])


class ControlSpace:
    """Discontinuous Lagrange space of degree k: m = C(d+k, d) dofs per cell.

    Global dof layout is cell-major: dof (cell, j) has index cell*m + j, and
    the corresponding global basis function is the affine push-forward of the
    j-th reference basis function, supported on that single cell.
    """

    def __init__(self, mesh: SimplexMesh, degree: int):
        if degree < 1:
            raise ValueError(f"degree must be >= 1, got {degree}")
        self.mesh = mesh
        self.degree = degree
        self.ref = lagrange_basis(mesh.dim, degree)
        self.local_dim = self.ref.node_count
        self.num_dofs = self.local_dim * mesh.num_cells
        # One-time float conversion of the exact reference basis.
        monos = multi_indices(mesh.dim, degree)
        self._exponents = np.array(monos, dtype=float)
        self._coefficients = np.array(
            [[float(p.terms.get(a, 0)) for a in monos] for p in self.ref.basis]
        )

    def tabulate(self, points: np.ndarray) -> np.ndarray:
        """Reference basis values at reference points, shape (m, nq)."""
        points = np.asarray(points, dtype=float)
        mono_vals = np.prod(points[:, None, :] ** self._exponents[None, :, :], axis=2)
        return self._coefficients @ mono_vals.T


@dataclass(frozen=True)
class LinearSolveReport:
    iterations: int
    relative_residual: float
    converged: bool


class CgConvergenceError(RuntimeError):
    """CG failed to reach the requested tolerance; carries report and best iterate."""

    def __init__(self, report: LinearSolveReport, best: np.ndarray):
        super().__init__(
            f"CG did not converge: {report.iterations} iterations, "
            f"relative residual {report.relative_residual:.3e}"
        )
        self.report = report
        self.best = best


def cg_solve(
    matrix: sp.spmatrix,
    rhs: np.ndarray,
    tol: float = 1e-10,
    max_iterations: int | None = None,
    x0: np.ndarray | None = None,
) -> tuple[np.ndarray, LinearSolveReport]:
    """Jacobi-preconditioned conjugate gradients for SPD systems.

    Terminates when ||b - A x|| <= tol * ||b||.  Deterministic: fixed
    traversal order, no randomized components.  Raises CgConvergenceError
    (carrying the report and best iterate) if the iteration cap, default
    10 * dof, is exceeded.
    """
    n = rhs.shape[0]
    if max_iterations is None:
        max_iterations = 10 * n
    b_norm = float(np.linalg.norm(rhs))
    if b_norm == 0.0:
        return np.zeros(n), LinearSolveReport(0, 0.0, True)

    inv_diag = 1.0 / matrix.diagonal()
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    r = rhs - matrix @ x
    rel = float(np.linalg.norm(r)) / b_norm
    if rel <= tol:
        return x, LinearSolveReport(0, rel, True)
    z = inv_diag * r
    p = z.copy()
    rz = float(r @ z)
    for it in range(1, max_iterations + 1):
        ap = matrix @ p
        alpha = rz / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        rel = float(np.linalg.norm(r)) / b_norm
        if rel <= tol:
            return x, LinearSolveReport(it, rel, True)
        z = inv_diag * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise CgConvergenceError(LinearSolveReport(max_iterations, rel, False), x)


def _mirror_upper(n: int, rows, cols, vals) -> sp.csr_matrix:
    # rows[i] <= cols[i] required; returns the exactly symmetric full matrix
    import scipy.sparse as sp

    upper = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    strict = sp.triu(upper, k=1)
    return (upper + strict.T).tocsr()


def assemble_p1_stiffness_mass(
    space: StateSpace, rule: QuadratureRule
) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """P1 stiffness K and mass M; both exactly symmetric by construction."""
    mesh = space.mesh
    if rule.exactness < 2:
        raise ValueError("P1 stiffness/mass assembly needs rule exactness >= 2")
    phi = space.tabulate(rule.points)  # (d+1, nq)
    matrices, abs_det = cell_geometry(mesh)
    # physical gradients: rows of the reference gradients mapped by B^{-T}
    grads = space.reference_gradients() @ np.linalg.inv(matrices)  # (cells, d+1, d)
    w = abs_det[:, None] * rule.weights  # (cells, nq)
    cell_volume = w.sum(axis=1)  # gradients are constant on each cell
    a, b = np.triu_indices(mesh.dim + 1)  # local pairs a <= b
    # the Gram products go through matmul, i.e. BLAS dot products like a
    # per-cell loop's; an einsum rounds differently on distorted cells
    gram = grads @ np.swapaxes(grads, 1, 2)  # (cells, d+1, d+1)
    k_vals = cell_volume[:, None] * gram[:, a, b]
    m_vals = w @ (phi[a] * phi[b]).T
    ga, gb = mesh.cells[:, a], mesh.cells[:, b]
    rows, cols = np.minimum(ga, gb).ravel(), np.maximum(ga, gb).ravel()
    n = space.num_dofs
    return (
        _mirror_upper(n, rows, cols, k_vals.ravel()),
        _mirror_upper(n, rows, cols, m_vals.ravel()),
    )


def assemble_state_operator(space: StateSpace, rule: QuadratureRule) -> sp.csr_matrix:
    """Operator of the Neumann problem: stiffness + mass; symmetric positive definite."""
    stiffness, mass = assemble_p1_stiffness_mass(space, rule)
    return (stiffness + mass).tocsr()


def reference_mass_matrix(space: ControlSpace, rule: QuadratureRule) -> np.ndarray:
    """Mass matrix of the reference basis on the reference simplex, exactly symmetric."""
    if rule.exactness < 2 * space.degree:
        raise ValueError("control mass assembly needs rule exactness >= 2k")
    psi = space.tabulate(rule.points)  # (m, nq)
    m = space.local_dim
    ref = np.empty((m, m))
    for a in range(m):
        for b in range(a, m):
            v = float(rule.weights @ (psi[a] * psi[b]))
            ref[a, b] = v
            ref[b, a] = v
    return ref


def assemble_control_mass(space: ControlSpace, rule: QuadratureRule) -> sp.bsr_matrix:
    """Block-diagonal control mass: one |det B| * M_ref block per cell.

    L2 products of affinely mapped scalars pick up only the |det B| factor, so
    every block is a scaled copy of the reference mass matrix.  Returned in
    BSR format, one m x m block per cell.
    """
    import scipy.sparse as sp

    ref = reference_mass_matrix(space, rule)
    cells = space.mesh.num_cells
    blocks = cell_geometry(space.mesh)[1][:, None, None] * ref
    return sp.bsr_matrix(
        (blocks, np.arange(cells), np.arange(cells + 1)), shape=(space.num_dofs,) * 2
    )


def assemble_coupling(
    state: StateSpace, control: ControlSpace, rule: QuadratureRule
) -> sp.csr_matrix:
    """Rectangular coupling C[a, i] = int_Omega v_a phi_i (P1 row, control column)."""
    import scipy.sparse as sp

    if rule.exactness < control.degree + 1:
        raise ValueError("coupling assembly needs rule exactness >= k + 1")
    mesh = state.mesh
    phi = state.tabulate(rule.points)  # (d+1, nq)
    psi = control.tabulate(rule.points)  # (m, nq)
    m = control.local_dim
    w = cell_geometry(mesh)[1][:, None] * rule.weights  # (cells, nq)
    local = (phi * w[:, None, :]) @ psi.T  # (cells, d+1, m)
    rows = np.broadcast_to(mesh.cells[:, :, None], local.shape)
    cols = np.broadcast_to(np.arange(control.num_dofs).reshape(-1, 1, m), local.shape)
    return sp.coo_matrix(
        (local.ravel(), (rows.ravel(), cols.ravel())), shape=(state.num_dofs, control.num_dofs)
    ).tocsr()


def _at_quadrature_points(f, mesh: SimplexMesh, rule: QuadratureRule):
    """f at every cell's quadrature points, shape (cells, nq), and |det B| per cell.

    f maps an (n, d) array of points to n values; it is called once, with the
    points of all cells.
    """
    matrices, abs_det = cell_geometry(mesh)
    offsets = mesh.vertices[mesh.cells[:, 0]][:, None, :]
    points = rule.points @ np.swapaxes(matrices, 1, 2) + offsets  # (cells, nq, d)
    values = np.asarray(f(points.reshape(-1, mesh.dim)), dtype=float)
    return values.reshape(points.shape[:2]), abs_det


def assemble_load(space: StateSpace, rule: QuadratureRule, f) -> np.ndarray:
    """Load vector b[a] = int_Omega f v_a by quadrature; f maps (n, d) points to n values."""
    mesh = space.mesh
    phi = space.tabulate(rule.points)
    fvals, abs_det = _at_quadrature_points(f, mesh, rule)
    # a stack of one-row products per cell rounds like a per-cell loop; one
    # (cells, nq) @ (nq, d+1) product sums in another order
    local = abs_det[:, None] * ((rule.weights * fvals)[:, None, :] @ phi.T)[:, 0]
    # bincount adds each vertex's contributions one after another, in cell order
    return np.bincount(mesh.cells.ravel(), local.ravel(), minlength=space.num_dofs)


def l2_error(space: StateSpace, coeffs: np.ndarray, exact, rule: QuadratureRule) -> float:
    """L2 distance between a P1 function and a callable, by cellwise quadrature."""
    mesh = space.mesh
    phi = space.tabulate(rule.points)
    exact_vals, abs_det = _at_quadrature_points(exact, mesh, rule)
    # one-row products per cell, as in assemble_load
    approx = (coeffs[mesh.cells][:, None, :] @ phi)[:, 0]  # (cells, nq)
    diff = approx - exact_vals
    per_cell = abs_det * ((diff**2)[:, None, :] @ rule.weights)[:, 0]
    # cumsum adds sequentially in cell order (np.sum would pair terms)
    return math.sqrt(float(np.cumsum(per_cell)[-1]))


def _banded_cholesky_solver(matrix: sp.spmatrix):
    """Factor a sparse SPD matrix once (banded Cholesky); return its solve routine."""
    import scipy.sparse as sp
    from scipy.linalg import cho_solve_banded, cholesky_banded

    # upper band storage: band[u + i - j, j] = A[i, j] for i <= j
    upper = sp.triu(matrix, format="coo")
    bandwidth = int((upper.col - upper.row).max())
    band = np.zeros((bandwidth + 1, matrix.shape[0]))
    band[bandwidth + upper.row - upper.col, upper.col] = upper.data
    factor = cholesky_banded(band, overwrite_ab=True, lower=False, check_finite=False)
    return lambda rhs: cho_solve_banded((factor, False), rhs, check_finite=False)


class StateSolver:
    """Assembled Neumann problem: solves A y = C u for given control coefficients.

    Owns the banded Cholesky factor of A, computed once, on the first solve.
    """

    def __init__(self, state: StateSpace, control: ControlSpace):
        self.state = state
        self.control = control
        state_rule = simplex_rule(state.mesh.dim, 2)
        coupling_rule = simplex_rule(state.mesh.dim, max(control.degree + 1, 2))
        self.stiffness, self.mass = assemble_p1_stiffness_mass(state, state_rule)
        self.operator = (self.stiffness + self.mass).tocsr()
        self.coupling = assemble_coupling(state, control, coupling_rule)
        # factored on first use, after all assembly: factoring here, between
        # the assembly passes, raised the peak memory of a d=2, n=64 solve by
        # about 5 %
        self._solve = None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """x with A x = rhs; A is symmetric, so this serves state and adjoint alike."""
        if self._solve is None:
            self._solve = _banded_cholesky_solver(self.operator)
        return self._solve(rhs)

    def solve_state(self, u_coeffs: np.ndarray) -> np.ndarray:
        """State coefficients y with A y = C u."""
        u_coeffs = np.asarray(u_coeffs, dtype=float)
        if u_coeffs.shape != (self.control.num_dofs,):
            raise ValueError(
                f"control coefficient vector must have length {self.control.num_dofs}"
            )
        return self.solve(self.coupling @ u_coeffs)
