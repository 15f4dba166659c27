"""P1 Neumann state equation and discontinuous Lagrange control spaces.

Discretizes ``int (grad y . grad v + y v) = int u v`` for all P1 test
functions v, with states continuous P1 and controls discontinuous Lagrange of
degree k (one independent basis block per cell).

A cell integral of affinely pushed-forward functions is the reference
integral times |det B|, so the coupling C, the control mass M_u and the P1
mass M are each one reference block, applied by a :class:`CellBlockOperator`:
the exact Gram matrix of two reference bases (:func:`~ctrldisc.exactbasis.gram`,
by permutation orbits at d >= 2 and over monomials at d = 1, kept with the
basis memo so that every mesh of a study reuses it), rounded to float once per
entry.  Assembly takes no quadrature rule; only integrands that are not
polynomials (loads, :func:`l2_error`) use one.  Only the stiffness depends on
B itself; A = K + M is assembled straight into upper band storage, symmetric
by construction.  Results agree with per-cell loops to roundoff
(tests/test_fem.py keeps them as oracles).

The state operator A is fixed and symmetric positive definite, so
:func:`_banded_cholesky_solver` factors it once with LAPACK dpbtrf (the vertex
numbering gives bandwidth 1 on the interval and n + 2 on the unit square) and
every state and adjoint solve is two triangular band solves, dpbtrs: backward
stable, with no iteration error.  Both routines come from scipy's LAPACK
extension, loaded alone (:func:`_flapack`), not through ``scipy.linalg``.
``ocp.Discretization`` assembles A and the other operators on their first
use and factors A on its first solve, keeping each; a clean-regime solve
does neither.  No solve calls :func:`cg_solve` any more; it stays, with its
report and error types, because the benchmark's tracer
(``perfbench/tracer.py``) wraps it.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from functools import cached_property
from importlib.machinery import PathFinder
from importlib.util import module_from_spec

import numpy as np

from .exactbasis import LagrangeBasisSpec, gram, lagrange_basis, multi_indices
from .mesh import SimplexMesh, cell_geometry
from .quadrature import QuadratureRule

# Import rule: scipy is loaded only by `_flapack`, on the first factorization,
# never at module level, so `import ctrldisc` and an exact audit load no scipy
# (fresh process `import ctrldisc`: 386 ms with module-level scipy imports,
# 156 ms without).

__all__ = [
    "CellBlockOperator",
    "CgConvergenceError",
    "ControlSpace",
    "LinearSolveReport",
    "StateSpace",
    "assemble_control_mass",
    "assemble_coupling",
    "assemble_load",
    "assemble_p1_stiffness_mass",
    "cg_solve",
    "l2_error",
]


class StateSpace:
    """Continuous P1 space on a simplex mesh; one dof per vertex.

    Contains the constant function 1 exactly (all-ones coefficient vector).
    `ref` is the exact reference basis in the cells' vertex order 0, e_1, ..., e_d;
    `gram` keeps its Grams with `lagrange_basis(d, 1)`, so every mesh shares them.
    """

    def __init__(self, mesh: SimplexMesh):
        self.mesh = mesh
        self.num_dofs = mesh.num_vertices
        spec = lagrange_basis(mesh.dim, 1)
        # graded-lex order lists the P1 nodes 0, e_d, ..., e_1
        order = [0, *range(mesh.dim, 0, -1)]
        fields = (spec.alphas, spec.integrals)
        self.ref = LagrangeBasisSpec(mesh.dim, 1, *(tuple(f[i] for i in order) for f in fields))

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

    @cached_property
    def cell_dofs(self) -> np.ndarray:
        """Each cell's dofs, shape (cells, m): row c is c*m, ..., c*m + m - 1."""
        return np.arange(self.num_dofs).reshape(self.mesh.num_cells, self.local_dim)

    def tabulate(self, points: np.ndarray) -> np.ndarray:
        """Reference basis values at reference points, shape (m, nq).

        Silvester's product form in floats, phi_alpha = prod_i prod_{j<alpha_i}
        (k lambda_i - j) / alpha_i! over the barycentric coordinates (lambda_0 =
        1 - sum(x), alpha_0 = k - |alpha|).  With x = high + low, high on a
        2^-40 grid, k lambda(high) - j is exact, so each factor is rounded once.
        """
        k, d = self.degree, self.mesh.dim
        x = np.asarray(points, dtype=float).T  # (d, nq)
        high = np.round(x * 2.0**40) / 2.0**40
        lam_high = np.vstack([1.0 - high.sum(axis=0), high])
        lam_low = np.vstack([(high - x).sum(axis=0), x - high])
        factors = (k * lam_high - np.arange(k)[:, None, None]) + k * lam_low  # (k, d+1, nq)
        # products[m, i] = prod_{j<m} (k lambda_i - j), m = 0..k
        products = np.cumprod(np.concatenate([np.ones_like(factors[:1]), factors]), axis=0)
        alphas = np.array([(k - sum(alpha), *alpha) for alpha in multi_indices(d, k)])
        factorials = np.cumprod([1.0, *range(1, k + 1)])  # m!, m = 0..k; exact for k <= 18
        values = products[alphas, np.arange(d + 1)].prod(axis=1)
        return values / factorials[alphas].prod(axis=1)[:, None]


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
    matrix,
    rhs: np.ndarray,
    tol: float = 1e-10,
    max_iterations: int | None = None,
    x0: np.ndarray | None = None,
) -> tuple[np.ndarray, LinearSolveReport]:
    """Jacobi-preconditioned conjugate gradients for SPD systems.

    `matrix` is anything with ``diagonal()`` and ``@``, sparse or dense.
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


@dataclass(eq=False)
class CellBlockOperator:
    """Linear map sum_c |det B_c| R placed at cell c's dofs, for one reference block R.

    Applying it gathers the cells' entries, multiplies by R once for all
    cells, scales by |det B| and adds each cell's result into its rows, cell
    by cell.  Row r and column s of cell c's copy of R are global row
    rows[c, r] and column cols[c, s].
    """

    block: np.ndarray  # R, shape (r, s)
    abs_det: np.ndarray  # (cells,)
    rows: np.ndarray  # (cells, r)
    cols: np.ndarray  # (cells, s)
    shape: tuple[int, int]

    def __post_init__(self):
        # built once, like the transpose: the QP applies each operator hundreds of times
        self._scale = self.abs_det[:, None]

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        local = (x[self.cols] @ self.block.T) * self._scale
        return np.bincount(self.rows.ravel(), local.ravel(), minlength=self.shape[0])

    @cached_property
    def T(self) -> CellBlockOperator:
        """The transposed operator, built on first use and kept."""
        return CellBlockOperator(self.block.T, self.abs_det, self.cols, self.rows, self.shape[::-1])


def _reference_block(a: LagrangeBasisSpec, b: LagrangeBasisSpec) -> np.ndarray:
    """The exact Gram matrix of two reference bases, each entry rounded to float once."""
    numerators, denominator = gram(a, b)  # int / int is correctly rounded
    return np.array([[n / denominator for n in row] for row in numerators])


def assemble_p1_stiffness_mass(
    space: StateSpace, geometry: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, CellBlockOperator]:
    """State operator A = K + M in upper band storage; the P1 mass M as a cell-block operator.

    band[u + i - j, j] = A[i, j] for i <= j, u the bandwidth: LAPACK's upper
    band storage, as dpbtrf (and scipy.linalg.cholesky_banded) take it.  Only
    the upper triangle is stored, so A is symmetric by construction.  `geometry` is the mesh's
    :func:`~ctrldisc.mesh.cell_geometry`: (B, |det B|) per cell.
    """
    mesh = space.mesh
    matrices, abs_det = geometry
    ref_mass = _reference_block(space.ref, space.ref)
    # physical gradients: rows of the reference gradients mapped by B^{-T}
    grads = space.reference_gradients() @ _inverse(matrices)  # (cells, d+1, d)
    dots = grads @ np.swapaxes(grads, 1, 2)  # (cells, d+1, d+1)
    a, b = np.triu_indices(mesh.dim + 1)  # local pairs a <= b
    # gradients are constant on each cell: K's entries are |T| grad_a . grad_b,
    # with |T| = |det B| / d!
    values = (abs_det / math.factorial(mesh.dim))[:, None] * dots[:, a, b]
    values += abs_det[:, None] * ref_mass[a, b]
    ga, gb = mesh.cells[:, a], mesh.cells[:, b]
    cols, offsets = np.maximum(ga, gb), np.abs(ga - gb)  # A[cols - offsets, cols]
    n, bandwidth = space.num_dofs, int(offsets.max())
    slots = (bandwidth - offsets) * n + cols
    band = np.bincount(slots.ravel(), values.ravel(), minlength=(bandwidth + 1) * n)
    mass = CellBlockOperator(ref_mass, abs_det, mesh.cells, mesh.cells, (n, n))
    return band.reshape(bandwidth + 1, n), mass


def _inverse(matrices: np.ndarray) -> np.ndarray:
    """B^{-1} for a stack of cell matrices: closed form (adjugate / det) for d <= 2."""
    dim = matrices.shape[-1]
    if dim == 1:
        return 1.0 / matrices
    if dim == 2:
        (a, b), (c, d) = np.moveaxis(matrices, 0, -1)
        adjugate = np.stack([d, -b, -c, a], axis=-1).reshape(-1, 2, 2)
        return adjugate / (a * d - b * c)[:, None, None]
    return np.linalg.inv(matrices)


def assemble_control_mass(
    space: ControlSpace, geometry: tuple[np.ndarray, np.ndarray]
) -> CellBlockOperator:
    """Block-diagonal control mass: one |det B| * M_ref block per cell.

    L2 products of affinely mapped scalars pick up only the |det B| factor, so
    every block is a scaled copy of the reference mass matrix.  `geometry` is
    the mesh's :func:`~ctrldisc.mesh.cell_geometry`; only |det B| is read.
    """
    ref = _reference_block(space.ref, space.ref)
    dofs = space.cell_dofs
    return CellBlockOperator(ref, geometry[1], dofs, dofs, (space.num_dofs,) * 2)


def assemble_coupling(
    state: StateSpace, control: ControlSpace, geometry: tuple[np.ndarray, np.ndarray]
) -> CellBlockOperator:
    """Rectangular coupling C[a, i] = int_Omega v_a phi_i (P1 row, control column).

    `geometry` is the mesh's :func:`~ctrldisc.mesh.cell_geometry`; only
    |det B| is read.
    """
    shape = (state.num_dofs, control.num_dofs)
    block = _reference_block(state.ref, control.ref)
    return CellBlockOperator(block, geometry[1], state.mesh.cells, control.cell_dofs, shape)


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


def _flapack():
    """scipy's LAPACK extension module, loaded without running ``scipy.linalg``'s ``__init__``.

    The solve calls two of its routines, dpbtrf and dpbtrs, the very ones
    that ``scipy.linalg.cholesky_banded`` and ``get_lapack_funcs`` hand out.
    Importing ``scipy.linalg`` to reach them costs a fresh process about
    0.2 s and 22 MiB more than this extension alone (3 ms).  So the extension file is found in scipy's ``linalg``
    directory and loaded alone, under its own name in ``sys.modules``, where
    a later ``import scipy.linalg`` finds and reuses it.  An entry already
    there is reused; if the file is not found, the module comes by the
    ordinary import.
    """
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is not None:
        return module
    import scipy  # the top-level package: about 10 ms, and no public subpackage

    spec = PathFinder.find_spec(name, [os.path.join(path, "linalg") for path in scipy.__path__])
    if spec is None:
        from scipy.linalg import _flapack

        return _flapack
    module = module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _banded_cholesky_solver(band: np.ndarray):
    """Factor an SPD matrix in upper band storage once (LAPACK dpbtrf); return its solve (dpbtrs).

    Raises ``np.linalg.LinAlgError`` if the matrix is not positive definite,
    as ``scipy.linalg.cholesky_banded`` does.
    """
    lapack = _flapack()
    factor, info = lapack.dpbtrf(band, lower=0)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK pbtrf")

    def solve(rhs: np.ndarray) -> np.ndarray:
        x, info = lapack.dpbtrs(factor, rhs, lower=0)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK pbtrs")
        return x

    return solve
