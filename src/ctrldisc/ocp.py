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

from .exactbasis import basis_integrals, integral_of_square
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
from .mesh import cell_affine_map, cell_geometry, unit_interval_mesh, unit_square_mesh
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

    `__init__` holds the config, the mesh, the state and control spaces, the
    exact reference basis integrals (`ref_integrals`), the indices of the
    negative ones (`negative_reference_indices`, which every regime decision
    reads) and `domain_volume`.  Every floating-point layer is built on first
    use and kept: the cell geometry (`abs_dets`); A = K + M in upper band
    storage (`operator`) and the P1 mass (`mass`), from one assembly; the
    coupling (`coupling`) and the control mass (`control_mass`) as cell-block
    operators; `column_sums` = C'1; `solve`, which applies A's banded
    Cholesky factor (A is symmetric, so it serves state and adjoint alike);
    and the audit rule.  A clean-regime solve needs none of them.
    """

    def __init__(self, config: OcpConfig):
        self.config = config
        mesh = unit_interval_mesh(config.n) if config.dim == 1 else unit_square_mesh(config.n)
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
        """Reduced gradient 2 C'p + 2 alpha M_u lam with the adjoint A p = M (y - y_d)."""
        return self.gradient_objective_state(lam)[0]

    def gradient_objective_state(
        self, lam: np.ndarray
    ) -> tuple[np.ndarray, float, np.ndarray]:
        """(gradient, objective, state) at lam from one state and one adjoint solve."""
        lam = np.asarray(lam, dtype=float)
        y = self.solve_state(lam)
        my = self.mass @ y
        p = self.solve(my - self._mass_target)
        mu_lam = self.control_mass @ lam
        g = 2.0 * (self.coupling.T @ p) + 2.0 * self.config.alpha * mu_lam
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
    x0: np.ndarray,
    lipschitz: float,
    tol: float,
    max_iterations: int,
):
    """Minimize a convex quadratic over the non-negative orthant.

    `gradient` must be the (affine) gradient map of the quadratic; `g0` its
    value at 0 and `j0` the objective at 0, which recover objective values via
    J(x) = j0 + x . (g(x) + g0) / 2.  Accelerated projected gradient (FISTA,
    Beck & Teboulle 2009) with step 1/L and function-value restarts
    (O'Donoghue & Candes 2015); the momentum-point gradient is formed as an
    exact affine combination of stored gradients, so each step costs one
    gradient evaluation.

    A restart takes the plain projected step from x, which decreases J by at
    least L/2 ||step||^2 whenever L bounds the Hessian.  If it does not (up
    to roundoff in J), `lipschitz` was an underestimate: L is doubled and the
    step retried.

    Terminates when the KKT residual ||min(x, g)||_2 drops to `tol`.  It
    vanishes exactly at the KKT points (x >= 0, g >= 0, x_i g_i = 0) and,
    unlike the fixed-point residual ||x - proj(x - g/L)||, does not depend on L.
    Gives up when the smallest residual so far has not improved for
    _STAGNATION_WINDOW iterations: `tol` is then below what roundoff allows.

    Returns (x, g, objective, residual, iterations); a negative iteration
    count signals that `tol` was not reached: either the cap was hit (the
    last iterate is returned) or the iteration stagnated (the iterate with
    the smallest residual is returned, with minus the iterations run).  Raises
    QpConvergenceError, carrying the last iterate with a finite objective (its
    `state` is None), if the objective becomes non-finite: the quadratic is
    not convex or `gradient` returned non-finite values.
    """
    L = float(lipschitz)
    if L <= 0:
        raise ValueError("lipschitz estimate must be positive")
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")

    def evaluate(x):
        g = gradient(x)
        return g, j0 + 0.5 * float(x @ (g + g0))

    def diverged(x, g, j, iterations):
        return QpConvergenceError(
            f"QP objective became non-finite after {iterations} iterations",
            QpSolution(x, None, j, _kkt_residual(x, g), iterations),
        )

    x = np.maximum(np.asarray(x0, dtype=float), 0.0)
    g, j = evaluate(x)
    if not math.isfinite(j):
        raise diverged(x, g, j, 0)
    res = _kkt_residual(x, g)
    if res <= tol:
        return x, g, j, res, 0

    x_prev, g_prev = x, g
    t = 1.0
    best, best_it = (x, g, j, res), 0
    for it in range(1, max_iterations + 1):
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        gamma = (t - 1.0) / t_next
        z = x + gamma * (x - x_prev)
        gz = g + gamma * (g - g_prev)
        x_new = np.maximum(z - gz / L, 0.0)
        g_new, j_new = evaluate(x_new)
        if not (j_new <= j and math.isfinite(j_new)):
            # momentum overshoot (or a non-finite value): restart with a
            # plain projected step from x, doubling L until it descends
            t_next = 1.0
            while True:
                x_new = np.maximum(x - g / L, 0.0)
                g_new, j_new = evaluate(x_new)
                if not math.isfinite(j_new):
                    raise diverged(x, g, j, it - 1)
                step = x_new - x
                magnitude = abs(j0) + float(np.abs(x) @ (np.abs(g) + np.abs(g0)))
                roundoff = _J_ROUNDOFF * magnitude
                if j_new <= j - 0.5 * L * float(step @ step) + roundoff:
                    break
                L *= 2.0
        res = _kkt_residual(x_new, g_new)
        x_prev, g_prev = x, g
        x, g, j, t = x_new, g_new, j_new, t_next
        if res <= tol:
            return x, g, j, res, it
        if res < best[3]:
            best, best_it = (x, g, j, res), it
        elif it - best_it >= _STAGNATION_WINDOW:
            return (*best, -it)
    return x, g, j, res, -max_iterations  # negative iteration count flags the cap


# Relative roundoff allowed in the descent test of a restart step, measured
# against the magnitudes of the terms of J = j0 + x . (g + g0) / 2.
_J_ROUNDOFF = 1e-13

# Iterations without a new smallest KKT residual after which the iteration
# counts as stagnated.
_STAGNATION_WINDOW = 1000


def _kkt_residual(x: np.ndarray, g: np.ndarray) -> float:
    return float(np.linalg.norm(np.minimum(x, g)))


@dataclass(frozen=True)
class QpSolution:
    """Solution of the coefficient-constrained QP."""

    control: np.ndarray  # lambda >= 0, length N
    state: np.ndarray | None  # None only on a QpConvergenceError of the generic core
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
    the constraint (z >= 0) and its projection unchanged.  The step size is
    1/L with L a power-iteration estimate of the scaled Hessian norm (5%
    safety; the solver doubles it if it proves too low).  The reported
    kkt_residual, ||min(z, grad_z J)||_2 = ||min(D^-1 lam, D grad J)||_2, is a
    mesh-independent L2-type KKT measure.  The config's qp_tol and
    max_qp_iterations set the tolerance and the iteration cap.

    The clean regime is decided exactly, before any floating-point work.
    K 1 = 0 makes the adjoint at lam = 0 the constant 1, so grad J(0) = 2 C'1
    = 2 |det B| (integral of each reference basis function).  When no exact
    reference integral is negative, lam = 0 is therefore the optimum: it is
    returned with state 0, objective |Omega|, kkt_residual 0 and 0
    iterations, without a gradient evaluation, a factorization of A, the
    cell geometry or any assembly.

    Raises QpConvergenceError with the best iterate attached when the cap
    is exceeded, the iteration stagnates above qp_tol or the objective
    becomes non-finite.
    """
    disc = _as_discretization(problem)
    n = disc.num_control_dofs
    if not disc.negative_reference_indices:
        state = np.zeros(disc.state_space.num_dofs)
        return QpSolution(np.zeros(n), state, disc.domain_volume, 0.0, 0)

    tol, max_iterations = disc.config.qp_tol, disc.config.max_qp_iterations
    scale = 1.0 / np.sqrt(disc.control_mass.diagonal())
    g0, j0, _ = disc.gradient_objective_state(np.zeros(n))
    g0 = scale * g0

    def solution(z, objective, residual, iterations):
        lam = scale * z
        return QpSolution(lam, disc.solve_state(lam), objective, residual, iterations)

    def grad(z):
        return scale * disc.gradient_objective_state(scale * z)[0]

    def hess_mv(s):
        return grad(s) - g0

    lipschitz = 1.05 * estimate_operator_norm(hess_mv, n)
    if lipschitz <= 0.0:
        raise RuntimeError("Hessian norm estimate is zero; degenerate problem")

    try:
        z, _, j, res, iters = minimize_nonneg_quadratic(
            grad, g0, j0, np.zeros(n), lipschitz, tol, max_iterations
        )
    except QpConvergenceError as err:
        best = err.best
        raise QpConvergenceError(
            str(err), solution(best.control, best.objective, best.kkt_residual, best.iterations)
        ) from None
    result = solution(z, j, res, abs(iters))
    if iters < 0:
        stop = f"within {max_iterations} iterations"
        if -iters < max_iterations:
            window = _STAGNATION_WINDOW
            stop = f"and stagnated: no new best in the last {window} of {-iters} iterations"
        message = f"QP did not reach tol={tol:.3e} {stop} (residual {res:.3e})"
        raise QpConvergenceError(message, result)
    return result


@dataclass(frozen=True)
class CounterexampleCertificate:
    """Mesh-independent witness that discrete optima stay below volume - margin.

    The direction w sums the control basis functions with negative integral.
    beta = -integral of w and m_squared = ||w||^2 are computed exactly from
    reference-simplex rationals (beta_exact, m2_exact) and do not depend on
    the mesh; state_norm (= ||y(w)||) and measured_objective are measured on
    the configured mesh.  step = beta / ((1 + alpha) m_squared) and
    margin = beta * step, so J(step * w) <= volume - margin.
    """

    config: OcpConfig
    ref_negative_indices: tuple[int, ...]
    negative_indices: np.ndarray  # global control dof indices with negative integral
    w_coefficients: np.ndarray  # 0/1 coefficient vector of the direction w
    beta_exact: Fraction
    m2_exact: Fraction
    beta: float
    m_squared: float
    state_norm: float
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

    Raises NoNegativeBasisError when every reference basis integral is >= 0
    (the regime in which coefficient-wise non-negativity is preserved in the
    limit).  Cell-local signs equal reference signs because the push-forward
    only scales integrals by |det B| > 0.
    """
    disc = _as_discretization(problem)
    cfg = disc.config
    ref_ints = disc.ref_integrals
    neg_local = disc.negative_reference_indices
    if not neg_local:
        raise NoNegativeBasisError(cfg.dim, cfg.degree)

    m = disc.control_space.local_dim
    cells = disc.mesh.num_cells
    mask = np.zeros(m)
    mask[list(neg_local)] = 1.0
    w_coeffs = np.tile(mask, cells)
    negative_indices = np.flatnonzero(w_coeffs > 0)

    # Exact reference quantities; volume * |That|^{-1} = d! for the unit domains.
    fact = Fraction(math.factorial(cfg.dim))
    beta_exact = -fact * sum((ref_ints[j] for j in neg_local), Fraction(0))
    m2_exact = fact * integral_of_square(disc.control_space.ref, neg_local)
    if beta_exact <= 0 or m2_exact <= 0:
        raise RuntimeError("certificate construction produced non-positive invariants")

    beta = float(beta_exact)
    m_squared = float(m2_exact)
    step = beta / ((1.0 + cfg.alpha) * m_squared)
    margin = beta * step
    bound = disc.domain_volume - margin

    z = disc.solve_state(w_coeffs)
    state_norm = math.sqrt(float(z @ (disc.mass @ z)))
    if state_norm > math.sqrt(m_squared) * (1.0 + 1e-9) + 1e-12:
        raise RuntimeError(
            f"state norm {state_norm} exceeds the direction norm {math.sqrt(m_squared)}"
        )
    measured = disc.objective(step * w_coeffs)
    if measured > bound + 1e-8:
        raise RuntimeError(
            f"measured objective {measured} exceeds certificate bound {bound}"
        )

    return CounterexampleCertificate(
        config=cfg,
        ref_negative_indices=neg_local,
        negative_indices=negative_indices,
        w_coefficients=w_coeffs,
        beta_exact=beta_exact,
        m2_exact=m2_exact,
        beta=beta,
        m_squared=m_squared,
        state_norm=state_norm,
        step=step,
        margin=margin,
        objective_bound=bound,
        measured_objective=measured,
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
    2k+2 on min(u, 0)^2 and is reported as approximate; it is exactly 0,
    without quadrature, for a control with no nonzero coefficient.
    """
    disc = _as_discretization(problem)
    lam = np.asarray(lam, dtype=float)
    m = disc.control_space.local_dim
    lam_cells = lam.reshape(disc.mesh.num_cells, m)
    ref = np.array([float(v) for v in disc.ref_integrals])
    averages = math.factorial(disc.config.dim) * (lam_cells @ ref)

    norm_sq = 0.0
    if lam.any():
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

    certificate = None
    runs = []
    for idx, n in enumerate(ns):
        disc = Discretization(replace(config, n=n))
        if idx == 0 and disc.negative_reference_indices:
            certificate = build_certificate(disc)
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
    # the same exact test that decides solve_qp's origin branch
    regime = "INFEASIBLE_LIMIT" if disc.negative_reference_indices else "FEASIBLE_LIMIT"
    return ConvergenceStudy(
        config=config, regime=regime, certificate=certificate, runs=tuple(runs)
    )
