"""Model optimal control problem with coefficient-wise non-negative controls.

Minimizes ``||y(u) + 1||^2 + alpha ||u||^2`` over controls in a discontinuous
degree-k Lagrange space, where y(u) solves the discrete Neumann problem and
the pointwise constraint u >= 0 has been replaced by non-negativity of the
basis coefficients.  The desired state is fixed at -1, so u = 0 (objective
= domain volume) is the continuous optimum.

Whether the discrete optima stay near that value is decided by the signs of
the reference basis integrals: if some are negative, the direction built from
the negative-integral basis functions drops the objective below volume - delta
uniformly in the mesh (see :func:`build_certificate`), and the discrete optima
acquire a persistent negative part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

import numpy as np

from .exactbasis import basis_integrals, integral_of_square, lagrange_basis
# cg_solve and cell_affine_map are not called here any more; they stay
# importable from this module because perfbench's tracer test checks that
# ocp.cg_solve is fem.cg_solve and ocp.cell_affine_map is mesh.cell_affine_map
from .fem import (
    ControlSpace,
    StateSpace,
    _banded_cholesky_solver,
    assemble_control_mass,
    assemble_coupling,
    assemble_p1_stiffness_mass,
    cg_solve,
)
from .mesh import (
    SimplexMesh,
    cell_affine_map,
    cell_geometry,
    unit_interval_mesh,
    unit_square_mesh,
)
from .quadrature import MAX_EXACTNESS, simplex_rule

__all__ = [
    "ConvergenceStudy",
    "CounterexampleCertificate",
    "Discretization",
    "FeasibilityAudit",
    "NoNegativeBasisError",
    "OcpConfig",
    "QpConvergenceError",
    "QpSolution",
    "StudyRun",
    "build_certificate",
    "convergence_study",
    "estimate_operator_norm",
    "feasibility_audit",
    "minimize_nonneg_quadratic",
    "solve_qp",
]

# Largest control degree k whose audit rule (exactness 2k + 2) exists.
MAX_CONTROL_DEGREE = (MAX_EXACTNESS - 2) // 2

# The target state of the model problem. Fixed: the whole point of the model
# is that (y, u) = (0, 0) is optimal yet the objective is pushed below volume
# whenever a basis integral goes negative.
DESIRED_STATE = -1.0


class NoNegativeBasisError(Exception):
    """All reference basis integrals are >= 0: no counterexample direction exists."""

    def __init__(self, dim: int, degree: int):
        super().__init__(
            f"all reference basis integrals are non-negative for d={dim}, k={degree}; "
            "discrete optima converge to the feasible optimum"
        )
        self.dim = dim
        self.degree = degree


class QpConvergenceError(RuntimeError):
    """QP iteration cap exceeded, stagnated or objective non-finite; carries the best iterate."""

    def __init__(self, message: str, best: "QpSolution"):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class OcpConfig:
    """Problem instance: dimension, control degree, mesh parameter, weight, QP tolerance."""

    dim: int
    degree: int
    n: int
    alpha: float = 0.1
    qp_tol: float = 1e-10
    max_qp_iterations: int = 200_000

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"solves are supported for dim in {{1, 2}}, got {self.dim}")
        if not 1 <= self.degree <= MAX_CONTROL_DEGREE:
            raise ValueError(
                f"control degree must be in 1..{MAX_CONTROL_DEGREE}, got {self.degree}"
            )
        if self.n < 1:
            raise ValueError(f"mesh parameter must be >= 1, got {self.n}")
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")
        if not 0 < self.qp_tol < math.inf:
            raise ValueError(f"qp_tol must be finite and > 0, got {self.qp_tol}")
        if self.max_qp_iterations < 1:
            raise ValueError("max_qp_iterations must be >= 1")


class Discretization:
    """Everything built for a config: mesh, spaces, exact integrals, operators.

    The mesh is the config's unit interval or unit square mesh, or `mesh`,
    a prebuilt SimplexMesh of the config's dimension that covers the same
    unit domain (config.n is then not read).

    `__init__` holds the config, the mesh, the state and control spaces, the
    exact reference basis integrals (`ref_integrals`), the indices of the
    negative ones (`negative_reference_indices`, which every regime decision
    reads) and `domain_volume`.  Every floating-point layer is built on first
    use and kept: the cell geometry (`abs_dets`); A = K + M in upper band
    storage (`operator`) and the P1 mass (`mass`), from one assembly; the
    coupling (`coupling`) and the control mass (`control_mass`) as cell-block
    operators; `column_sums` = C'1; `solve`, which applies A's banded
    Cholesky factor (A is symmetric, so it serves state and adjoint alike);
    the QP's scaling `control_scale` and the blocks of its gradient map
    `scaled_gradient`; and the audit rule.  A clean-regime solve needs none
    of them.
    """

    def __init__(self, config: OcpConfig, mesh: SimplexMesh | None = None):
        self.config = config
        if mesh is None:
            mesh = unit_interval_mesh(config.n) if config.dim == 1 else unit_square_mesh(config.n)
        elif mesh.dim != config.dim:
            raise ValueError(f"mesh dimension {mesh.dim} differs from config dim {config.dim}")
        self.mesh = mesh
        self.state_space = StateSpace(mesh)
        self.control_space = ControlSpace(mesh, config.degree)
        self.ref_integrals = basis_integrals(self.control_space.ref)
        self.negative_reference_indices = tuple(
            j for j, v in enumerate(self.ref_integrals) if v < 0
        )
        self.domain_volume = 1.0

    # The bodies below look the assemblers up in this module's namespace at
    # call time, where perfbench's tracer wraps them.

    @cached_property
    def _geometry(self) -> tuple[np.ndarray, np.ndarray]:
        """The mesh's cell_geometry: affine matrices B and |det B| per cell."""
        return cell_geometry(self.mesh)

    @cached_property
    def abs_dets(self) -> np.ndarray:
        return self._geometry[1]

    @cached_property
    def _stiffness_mass(self):
        """(A = K + M in upper band storage, M) from one assembly call."""
        return assemble_p1_stiffness_mass(self.state_space, self._geometry)

    @cached_property
    def operator(self) -> np.ndarray:
        return self._stiffness_mass[0]

    @cached_property
    def mass(self):
        return self._stiffness_mass[1]

    @cached_property
    def coupling(self):
        return assemble_coupling(self.state_space, self.control_space, self._geometry)

    @cached_property
    def control_mass(self):
        return assemble_control_mass(self.control_space, self._geometry)

    @cached_property
    def column_sums(self) -> np.ndarray:
        """C'1: the integral of each global control basis function."""
        return self.coupling.T @ np.ones(self.state_space.num_dofs)

    @cached_property
    def _mass_target(self) -> np.ndarray:
        return DESIRED_STATE * (self.mass @ np.ones(self.state_space.num_dofs))

    @cached_property
    def solve(self):
        """Solve routine rhs -> A^-1 rhs; A's banded Cholesky factor is computed on first use."""
        return _banded_cholesky_solver(self.operator)

    @cached_property
    def _scaled_blocks(self):
        """scaled_gradient's parts, built on first use.

        sqrt(|det B|) per cell, diag(M_ref)^(-1/2), C^, 2 C^' and 2 alpha M^.
        C^ = diag(M_ref)^(-1/2) C_ref' is applied with the sqrt(|det B|) factor
        of its cell.  M^ = diag(M_ref)^(-1/2) M_ref diag(M_ref)^(-1/2) is the
        same on every cell: D's |det B|^(-1/2) twice cancels M_u's |det B|.
        """
        root = 1.0 / np.sqrt(np.diag(self.control_mass.block))
        coupling = root[:, None] * self.coupling.block.T  # (m, d+1)
        control = root[:, None] * self.control_mass.block * root
        root_dets = np.sqrt(self.abs_dets)[:, None]
        return root_dets, root, coupling, 2.0 * coupling.T, 2.0 * self.config.alpha * control

    @cached_property
    def control_scale(self) -> np.ndarray:
        """The QP's scaling D = diag(M_u)^(-1/2): |det B|^(-1/2) diag(M_ref)^(-1/2) per cell."""
        root_dets, root = self._scaled_blocks[:2]
        return (root / root_dets).ravel()

    def scaled_gradient(self, z: np.ndarray) -> np.ndarray:
        """The QP's gradient map g^(z) = D grad J(D z), with D = control_scale.

        The one gradient formula: grad J = 2 C'p + 2 alpha M_u lam with the
        state A y = C lam and the adjoint A p = M (y - y_d), in z = D^-1 lam.
        One evaluation: z's cells times C^, scaled and added into the state
        vector, two band solves, one M y, and (p[cells] sqrt(|det B|)) @ 2 C^'
        + z @ 2 alpha M^ cell by cell.  It computes no objective and no
        state, and does not check z: a float array of num_control_dofs entries.
        """
        root_dets, _, coupling, coupling_t, control = self._scaled_blocks
        cells = self.mesh.cells
        local = z.reshape(root_dets.size, -1)
        into_state = (local @ coupling) * root_dets
        rhs = np.bincount(cells.ravel(), into_state.ravel(), minlength=self.state_space.num_dofs)
        p = self.solve(self.mass @ self.solve(rhs) - self._mass_target)
        return ((p[cells] * root_dets) @ coupling_t + local @ control).ravel()

    @cached_property
    def audit_rule(self):
        """The negative-part norm's quadrature rule, exactness 2k + 2, built on first use."""
        return simplex_rule(self.config.dim, 2 * self.config.degree + 2)

    @cached_property
    def _audit_tab(self) -> np.ndarray:
        """Reference control basis values at the audit rule's points, shape (m, nq)."""
        return self.control_space.tabulate(self.audit_rule.points)

    @property
    def num_control_dofs(self) -> int:
        return self.control_space.num_dofs

    def solve_state(self, lam: np.ndarray) -> np.ndarray:
        """State coefficients y with A y = C lam for control coefficients lam."""
        lam = np.asarray(lam, dtype=float)
        if lam.shape != (self.num_control_dofs,):
            raise ValueError(
                f"control coefficient vector must have length {self.num_control_dofs}"
            )
        return self.solve(self.coupling @ lam)

    def objective(self, lam: np.ndarray) -> float:
        """Reduced objective J(lam), from the one formula in gradient_objective_state."""
        return self.gradient_objective_state(lam)[1]

    def gradient(self, lam: np.ndarray) -> np.ndarray:
        """Reduced gradient grad J(lam) = D^-1 g^(D^-1 lam), from scaled_gradient."""
        return self.gradient_objective_state(lam)[0]

    def gradient_objective_state(
        self, lam: np.ndarray
    ) -> tuple[np.ndarray, float, np.ndarray]:
        """(gradient, objective, state) at lam; the gradient is scaled_gradient's, unscaled."""
        lam = np.asarray(lam, dtype=float)
        y = self.solve_state(lam)
        my = self.mass @ y
        mu_lam = self.control_mass @ lam
        scale = self.control_scale
        g = self.scaled_gradient(lam / scale) / scale
        # ||y - y_d||^2 expanded exactly: y'My - 2 y_d 1'My + y_d^2 |Omega|,
        # which keeps J(0) = |Omega| free of cancellation noise
        j = (
            float(y @ my)
            - 2.0 * DESIRED_STATE * float(my.sum())
            + DESIRED_STATE**2 * self.domain_volume
            + self.config.alpha * float(lam @ mu_lam)
        )
        return g, j, y


def estimate_operator_norm(matvec, n: int, max_iterations: int = 60, rtol: float = 1e-3) -> float:
    """Power-iteration estimate of the spectral norm of a symmetric PSD operator."""
    v = np.ones(n) / math.sqrt(n)
    estimate = 0.0
    for it in range(max_iterations):
        w = matvec(v)
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 0.0
        v = w / norm
        if it >= 4 and abs(norm - estimate) <= rtol * norm:
            return norm
        estimate = norm
    return estimate


def minimize_nonneg_quadratic(
    gradient,
    g0: np.ndarray,
    j0: float,
    lipschitz: float,
    tol: float,
    max_iterations: int,
):
    """Minimize a convex quadratic over the non-negative orthant, starting at x = 0.

    `gradient` must be the (affine) gradient map of the quadratic; `g0` its
    value at 0 and `j0` the objective at 0, which recover objective values via
    J(x) = j0 + x . (g(x) + g0) / 2.  The start costs no evaluation.
    Accelerated projected gradient (FISTA, Beck & Teboulle 2009) with step
    1/L and gradient restarts (O'Donoghue & Candes 2015, section 3.2).  The
    momentum-point gradient gz is formed as an exact affine combination of
    stored gradients, so each step costs one gradient evaluation.

    The momentum step x_new = max(z - gz/L, 0) is rejected before any
    evaluation when (z - x_new) . (x_new - x) > 0: the iteration restarts
    and takes the plain projected step from x instead.  Every accepted step
    from z (z = x for a plain step) must pass the quadratic's curvature test
    (x_new - z) . (g_new - gz) <= L ||x_new - z||^2, that is d'Hd <= L d'd,
    taken from gradient differences.  It fails only when `lipschitz`
    underestimates the Hessian norm: L is then doubled and the plain step
    retaken.  No comparison of J values decides a step, so near the optimum,
    where J values agree to roundoff, the iterates do not follow its noise.

    Terminates when the KKT residual ||min(x, g)||_2 drops to `tol`.  It
    vanishes exactly at the KKT points (x >= 0, g >= 0, x_i g_i = 0) and,
    unlike the fixed-point residual ||x - proj(x - g/L)||, does not depend on L.
    Gives up when the smallest residual so far has not improved for
    _STAGNATION_WINDOW iterations: `tol` is then below what roundoff allows.

    Returns (x, g, objective, residual, iterations, failure).  `failure` is
    None when `tol` was reached, else the message saying why not: the cap
    was hit (the last iterate is returned), the iteration stagnated (the
    iterate with the smallest residual is returned) or the objective became
    non-finite at a plain step (the last iterate with a finite objective is
    returned: the quadratic is not convex or `gradient` returned non-finite
    values).  A non-finite objective at a momentum point falls back to the
    plain step.
    """
    L = float(lipschitz)
    if L <= 0:
        raise ValueError("lipschitz estimate must be positive")
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")

    def evaluate(x):
        g = gradient(x)
        return g, j0 + 0.5 * float(x @ (g + g0))

    def curvature_ok(step, g_step):
        return float(step @ g_step) <= L * float(step @ step)

    def unmet(stop, res):
        return f"QP did not reach tol={tol:.3e} {stop} (residual {res:.3e})"

    x, g, j = np.zeros(np.shape(g0)), g0, j0
    res = _kkt_residual(x, g)
    if res <= tol:
        return x, g, j, res, 0, None

    x_prev, g_prev = x, g
    t = 1.0
    best, best_it = (x, g, j, res), 0
    for it in range(1, max_iterations + 1):
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        gamma = (t - 1.0) / t_next
        z = x + gamma * (x - x_prev)
        gz = g + gamma * (g - g_prev)
        x_new = np.maximum(z - gz / L, 0.0)
        restart = float((z - x_new) @ (x_new - x)) > 0.0
        if not restart:
            g_new, j_new = evaluate(x_new)
            restart = not math.isfinite(j_new)
            if not (restart or curvature_ok(x_new - z, g_new - gz)):
                restart, L = True, 2.0 * L
        if restart:
            # plain projected step from x, doubling L until it passes the test
            t_next = 1.0
            while True:
                x_new = np.maximum(x - g / L, 0.0)
                g_new, j_new = evaluate(x_new)
                if not math.isfinite(j_new):
                    failure = f"QP objective became non-finite after {it - 1} iterations"
                    return x, g, j, _kkt_residual(x, g), it - 1, failure
                if curvature_ok(x_new - x, g_new - g):
                    break
                L *= 2.0
        res = _kkt_residual(x_new, g_new)
        x_prev, g_prev = x, g
        x, g, j, t = x_new, g_new, j_new, t_next
        if res <= tol:
            return x, g, j, res, it, None
        if res < best[3]:
            best, best_it = (x, g, j, res), it
        elif it - best_it >= _STAGNATION_WINDOW:
            window = f"no new best in the last {_STAGNATION_WINDOW} of {it} iterations"
            return (*best, it, unmet(f"and stagnated: {window}", best[3]))
    return x, g, j, res, max_iterations, unmet(f"within {max_iterations} iterations", res)


# Iterations without a new smallest KKT residual after which the iteration
# counts as stagnated.
_STAGNATION_WINDOW = 1000


def _kkt_residual(x: np.ndarray, g: np.ndarray) -> float:
    return float(np.linalg.norm(np.minimum(x, g)))


@dataclass(frozen=True)
class QpSolution:
    """Solution of the coefficient-constrained QP, or the iterate a QpConvergenceError carries."""

    control: np.ndarray  # lambda >= 0, length N
    state: np.ndarray  # y(lambda)
    objective: float
    kkt_residual: float  # ||min(D^-1 lam, D grad J)||_2 with D = diag(M_u)^(-1/2)
    iterations: int


def _as_discretization(problem) -> Discretization:
    return problem if isinstance(problem, Discretization) else Discretization(problem)


def solve_qp(problem) -> QpSolution:
    """Solve the QP ``min J(lam) s.t. lam >= 0`` by accelerated projected gradients.

    `problem` is an OcpConfig or a prebuilt Discretization.  The iteration
    runs on z = D^-1 lam with D = diag(M_u)^(-1/2): the scaled Hessian D H D
    has a mesh-independent spectrum, and a positive diagonal scaling leaves
    the constraint (z >= 0) and its projection unchanged.  Every gradient,
    the power iteration's included, is one call of disc.scaled_gradient,
    which evaluates D grad J(D z) in these coordinates with two band solves
    and no objective or state; the objective at z = 0 is |Omega| (y = 0),
    and the core recovers every later one from gradients.  The final state
    is one more solve.  The step size is 1/L with L a power-iteration
    estimate of the scaled Hessian norm (5% safety).
    minimize_nonneg_quadratic starts at z = 0 from the gradient and
    objective computed here, restarts the momentum on a gradient test, which
    costs no gradient evaluation, and doubles L when a step's curvature test,
    taken from gradient differences, shows it too low; no comparison of J
    values decides a step, so the iteration count does not follow roundoff
    in J.  The reported kkt_residual, ||min(z, grad_z J)||_2 =
    ||min(D^-1 lam, D grad J)||_2, is a mesh-independent L2-type KKT measure.
    The config's qp_tol and max_qp_iterations set the tolerance and the
    iteration cap.

    The clean regime is decided exactly, before any floating-point work.
    K 1 = 0 makes the adjoint at lam = 0 the constant 1, so grad J(0) = 2 C'1
    = 2 |det B| (integral of each reference basis function).  When no exact
    reference integral is negative, lam = 0 is therefore the optimum: it is
    returned with state 0, objective |Omega|, kkt_residual 0 and 0
    iterations, without a gradient evaluation, a factorization of A, the
    cell geometry or any assembly.

    When the core reports a failure (the cap is exceeded, the iteration
    stagnates above qp_tol or the objective becomes non-finite), raises
    QpConvergenceError with its message and the QpSolution of the iterate
    the core returned, state included.
    """
    disc = _as_discretization(problem)
    n = disc.num_control_dofs
    if not disc.negative_reference_indices:
        state = np.zeros(disc.state_space.num_dofs)
        return QpSolution(np.zeros(n), state, disc.domain_volume, 0.0, 0)

    grad = disc.scaled_gradient
    g0 = grad(np.zeros(n))
    j0 = DESIRED_STATE**2 * disc.domain_volume  # y(0) = 0

    def hess_mv(s):
        return grad(s) - g0

    lipschitz = 1.05 * estimate_operator_norm(hess_mv, n)
    if lipschitz <= 0.0:
        raise RuntimeError("Hessian norm estimate is zero; degenerate problem")

    z, _, j, res, iterations, failure = minimize_nonneg_quadratic(
        grad, g0, j0, lipschitz, disc.config.qp_tol, disc.config.max_qp_iterations
    )
    lam = disc.control_scale * z
    result = QpSolution(lam, disc.solve_state(lam), j, res, iterations)
    if failure is not None:
        raise QpConvergenceError(failure, result)
    return result


@dataclass(frozen=True)
class CounterexampleCertificate:
    """Mesh-independent witness that discrete optima stay below volume - margin.

    The direction w sums the control basis functions with negative integral.
    beta = -integral of w and m_squared = ||w||^2 are exact reference-simplex
    rationals (beta_exact, m2_exact) times d!, the same on every mesh.  The
    negative set is invariant under permutations of the barycentric
    coordinates, so C w = -beta M 1, and A 1 = M 1 makes the state y(w)
    exactly the constant -beta: ||y(w)|| = beta on the unit domains.  Hence
    J(t w) = (1 - t beta)^2 + alpha t^2 m_squared on every mesh, and at
    step = beta / ((1 + alpha) m_squared) it is at most volume - margin with
    margin = beta * step.  measured_objective is J(step * w) computed in
    rationals at the exact step (alpha's double taken exactly) and rounded once.
    """

    config: OcpConfig
    ref_negative_indices: tuple[int, ...]
    beta_exact: Fraction
    m2_exact: Fraction
    beta: float
    m_squared: float
    step: float
    margin: float
    objective_bound: float
    measured_objective: float

    def to_json_dict(self) -> dict:
        return {
            "beta": self.beta,
            "M2": self.m_squared,
            "t_hat": self.step,
            "delta": self.margin,
        }


def build_certificate(problem) -> CounterexampleCertificate:
    """Build the negative-direction certificate for a config or discretization.

    Reads only the exact reference basis of the config's dimension and
    degree: no mesh, no assembly and no solve.  Raises NoNegativeBasisError
    when every reference basis integral is >= 0 (the regime in which
    coefficient-wise non-negativity is preserved in the limit).  Cell-local
    signs equal reference signs because the push-forward only scales
    integrals by |det B| > 0.
    """
    cfg = problem.config if isinstance(problem, Discretization) else problem
    ref = lagrange_basis(cfg.dim, cfg.degree)
    ref_ints = basis_integrals(ref)
    neg_local = tuple(j for j, v in enumerate(ref_ints) if v < 0)  # as in Discretization
    if not neg_local:
        raise NoNegativeBasisError(cfg.dim, cfg.degree)

    # Exact reference quantities; volume * |That|^{-1} = d! for the unit domains.
    fact = Fraction(math.factorial(cfg.dim))
    beta_exact = -fact * sum((ref_ints[j] for j in neg_local), Fraction(0))
    m2_exact = fact * integral_of_square(ref, neg_local)
    if beta_exact <= 0 or m2_exact <= 0:
        raise RuntimeError("certificate construction produced non-positive invariants")

    # y(t w) is the constant -t beta, so J(t w) = (1 - t beta)^2 + alpha t^2 M^2
    alpha = Fraction(cfg.alpha)
    t_exact = beta_exact / ((1 + alpha) * m2_exact)
    objective = (1 - t_exact * beta_exact) ** 2 + alpha * t_exact**2 * m2_exact
    if objective > 1 - t_exact * beta_exact:
        raise RuntimeError(f"J(t_hat w) = {float(objective)} exceeds the certificate bound")

    beta = float(beta_exact)
    m_squared = float(m2_exact)
    step = beta / ((1.0 + cfg.alpha) * m_squared)
    margin = beta * step
    return CounterexampleCertificate(
        config=cfg,
        ref_negative_indices=neg_local,
        beta_exact=beta_exact,
        m2_exact=m2_exact,
        beta=beta,
        m_squared=m_squared,
        step=step,
        margin=margin,
        objective_bound=1.0 - margin,
        measured_objective=float(objective),
    )


@dataclass(frozen=True)
class FeasibilityAudit:
    """Cell-integral feasibility fingerprints of a discrete control."""

    cell_averages: np.ndarray  # (1/|T|) int_T u per cell
    min_cell_average: float
    negative_part_norm: float  # ||min(u, 0)||_{L2}, by high-order quadrature
    negative_cell_fraction: float


def feasibility_audit(problem, lam: np.ndarray) -> FeasibilityAudit:
    """Audit per-cell integrals and the negative part of a control function.

    Cell averages use the exact reference integrals (scaled by d!), so their
    signs are trustworthy; the negative-part norm uses quadrature of exactness
    2k+2 on min(u, 0)^2 and is reported as approximate.  For a control with
    no nonzero coefficient both are exactly 0, with no quadrature and no
    product with the reference integrals.
    """
    disc = _as_discretization(problem)
    lam = np.asarray(lam, dtype=float)
    lam_cells = lam.reshape(disc.mesh.num_cells, disc.control_space.local_dim)

    if not lam.any():
        averages, norm_sq = np.zeros(disc.mesh.num_cells), 0.0
    else:
        ref = np.array([float(v) for v in disc.ref_integrals])
        averages = math.factorial(disc.config.dim) * (lam_cells @ ref)
        values = lam_cells @ disc._audit_tab  # (cells, nq)
        negative = np.minimum(values, 0.0)
        norm_sq = float(disc.abs_dets @ (negative**2 @ disc.audit_rule.weights))

    return FeasibilityAudit(
        cell_averages=averages,
        min_cell_average=float(averages.min()),
        negative_part_norm=math.sqrt(max(norm_sq, 0.0)),
        negative_cell_fraction=float(np.mean(averages < 0.0)),
    )


@dataclass(frozen=True)
class StudyRun:
    n: int
    objective: float
    min_cell_average: float
    negative_part_norm: float
    iterations: int


@dataclass(frozen=True)
class ConvergenceStudy:
    """Per-mesh solve records plus the regime flag they evidence.

    FEASIBLE_LIMIT: no negative basis integral; objectives stay at the domain
    volume and the audits are clean.  INFEASIBLE_LIMIT: a certificate exists;
    objectives sit below volume - margin uniformly and the negative part of
    the optima persists under refinement.
    """

    config: OcpConfig
    regime: str
    certificate: CounterexampleCertificate | None
    runs: tuple[StudyRun, ...]

    def to_json_dict(self) -> dict:
        return {
            "config": {
                "dim": self.config.dim,
                "degree": self.config.degree,
                "alpha": self.config.alpha,
                "tol": self.config.qp_tol,
            },
            "regime": self.regime,
            "certificate": None if self.certificate is None else self.certificate.to_json_dict(),
            "runs": [
                {
                    "n": r.n,
                    "J": r.objective,
                    "min_cell_avg": r.min_cell_average,
                    "neg_part_norm": r.negative_part_norm,
                    "iters": r.iterations,
                }
                for r in self.runs
            ],
        }


def convergence_study(config: OcpConfig, mesh_parameters) -> ConvergenceStudy:
    """Solve the QP on a family of meshes and classify the limit regime."""
    ns = sorted({int(n) for n in mesh_parameters})
    if len(ns) < 2:
        raise ValueError("a convergence study needs at least two mesh parameters")
    if any(n < 1 for n in ns):
        raise ValueError("mesh parameters must be >= 1")

    try:
        certificate = build_certificate(config)
    except NoNegativeBasisError:
        certificate = None
    runs = []
    for n in ns:
        disc = Discretization(replace(config, n=n))
        solution = solve_qp(disc)
        audit = feasibility_audit(disc, solution.control)
        runs.append(
            StudyRun(
                n=n,
                objective=solution.objective,
                min_cell_average=audit.min_cell_average,
                negative_part_norm=audit.negative_part_norm,
                iterations=solution.iterations,
            )
        )
    # a certificate exists exactly when solve_qp's exact origin test finds a negative integral
    regime = "FEASIBLE_LIMIT" if certificate is None else "INFEASIBLE_LIMIT"
    return ConvergenceStudy(
        config=config, regime=regime, certificate=certificate, runs=tuple(runs)
    )
