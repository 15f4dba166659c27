"""P1 Neumann state equation and discontinuous Lagrange control spaces.

Discretizes ``int (grad y . grad v + y v) = int u v`` for all P1 test
functions v, with states continuous P1 and controls discontinuous Lagrange of
degree k (one independent basis block per cell).  Control basis values are
floats converted once from the exact rational reference basis; the exact
module stays the single source of basis truth.

Assembled symmetric matrices are built from their upper triangle and mirrored,
so A == A.T holds exactly, not just to roundoff.

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

import numpy as np
import scipy.sparse as sp

from .exactbasis import lagrange_basis, multi_indices
from .mesh import SimplexMesh, cell_affine_map
from .quadrature import QuadratureRule, simplex_rule

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
    ref_grads = space.reference_gradients()
    nloc = mesh.dim + 1

    k_rows, k_cols, k_vals = [], [], []
    m_rows, m_cols, m_vals = [], [], []
    for ci in range(mesh.num_cells):
        amap = cell_affine_map(mesh, ci)
        # physical gradients: rows of ref_grads mapped by B^{-T}
        grads = ref_grads @ np.linalg.inv(amap.matrix)
        dofs = mesh.cells[ci]
        w = amap.abs_det * rule.weights
        cell_volume = float(w.sum())  # gradients are constant on the cell
        for a in range(nloc):
            for b in range(a, nloc):
                kv = cell_volume * float(grads[a] @ grads[b])
                mv = float(w @ (phi[a] * phi[b]))
                ga, gb = dofs[a], dofs[b]
                if ga > gb:
                    ga, gb = gb, ga
                k_rows.append(ga)
                k_cols.append(gb)
                k_vals.append(kv)
                m_rows.append(ga)
                m_cols.append(gb)
                m_vals.append(mv)
    n = space.num_dofs
    return (
        _mirror_upper(n, k_rows, k_cols, k_vals),
        _mirror_upper(n, m_rows, m_cols, m_vals),
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


def assemble_control_mass(space: ControlSpace, rule: QuadratureRule) -> sp.csr_matrix:
    """Block-diagonal control mass: one |det B| * M_ref block per cell.

    L2 products of affinely mapped scalars pick up only the |det B| factor, so
    every block is a scaled copy of the reference mass matrix.
    """
    ref = reference_mass_matrix(space, rule)
    mesh = space.mesh
    dets = np.array([cell_affine_map(mesh, ci).abs_det for ci in range(mesh.num_cells)])
    return sp.kron(sp.diags(dets), ref, format="csr")


def assemble_coupling(
    state: StateSpace, control: ControlSpace, rule: QuadratureRule
) -> sp.csr_matrix:
    """Rectangular coupling C[a, i] = int_Omega v_a phi_i (P1 row, control column)."""
    if rule.exactness < control.degree + 1:
        raise ValueError("coupling assembly needs rule exactness >= k + 1")
    mesh = state.mesh
    phi = state.tabulate(rule.points)  # (d+1, nq)
    psi = control.tabulate(rule.points)  # (m, nq)
    nloc = mesh.dim + 1
    m = control.local_dim

    rows, cols, vals = [], [], []
    for ci in range(mesh.num_cells):
        amap = cell_affine_map(mesh, ci)
        w = amap.abs_det * rule.weights
        local = (phi * w) @ psi.T  # (d+1, m)
        dofs = mesh.cells[ci]
        base = ci * m
        for a in range(nloc):
            for j in range(m):
                rows.append(dofs[a])
                cols.append(base + j)
                vals.append(local[a, j])
    return sp.coo_matrix(
        (vals, (rows, cols)), shape=(state.num_dofs, control.num_dofs)
    ).tocsr()


def assemble_load(space: StateSpace, rule: QuadratureRule, f) -> np.ndarray:
    """Load vector b[a] = int_Omega f v_a by quadrature; f takes (nq, d) points."""
    mesh = space.mesh
    phi = space.tabulate(rule.points)
    out = np.zeros(space.num_dofs)
    for ci in range(mesh.num_cells):
        amap = cell_affine_map(mesh, ci)
        fvals = np.asarray(f(amap.apply(rule.points)), dtype=float)
        out[mesh.cells[ci]] += amap.abs_det * (phi @ (rule.weights * fvals))
    return out


def l2_error(space: StateSpace, coeffs: np.ndarray, exact, rule: QuadratureRule) -> float:
    """L2 distance between a P1 function and a callable, by cellwise quadrature."""
    mesh = space.mesh
    phi = space.tabulate(rule.points)
    total = 0.0
    for ci in range(mesh.num_cells):
        amap = cell_affine_map(mesh, ci)
        approx = coeffs[mesh.cells[ci]] @ phi
        diff = approx - np.asarray(exact(amap.apply(rule.points)), dtype=float)
        total += amap.abs_det * float(rule.weights @ diff**2)
    return math.sqrt(total)


def _banded_cholesky_solver(matrix: sp.spmatrix):
    """Factor a sparse SPD matrix once (banded Cholesky); return its solve routine."""
    # scipy.linalg is imported here rather than at module level: importing it
    # adds about 0.05 s (over 10 %) to `import ctrldisc`, and only solves need it
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
