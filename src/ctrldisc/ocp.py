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
import numbers
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

import numpy as np

from .exactbasis import basis_integrals, integral_of_square, lagrange_basis
# cg_solve and cell_affine_map are not called here; perfbench's tracer test
# checks that ocp.cg_solve is fem.cg_solve and ocp.cell_affine_map is mesh's
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
    """The QP core failed: cap, stagnation, or an unbounded or non-finite objective.

    Carries the iterate the core returned as `best`.
    """

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
        for name in ("dim", "degree", "n", "max_qp_iterations"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
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
    a prebuilt SimplexMesh of the config's dimension (config.n is then not
    read) whose cell volumes must sum to |Omega| = 1 within 1e-12, else
    ValueError; the cell geometry of that check is kept.

    `__init__` holds the config, the mesh, the state and control spaces, the
    exact reference basis integrals (`ref_integrals`), the indices of the
    negative ones (`negative_reference_indices`, which every regime decision
    reads) and `domain_volume`.  Every floating-point layer is built on first
    use and kept: the cell geometry (`abs_dets`); A = K + M in upper band
    storage (`operator`) and the P1 mass (`mass`), from one assembly; the
    coupling (`coupling`) and the control mass (`control_mass`) as cell-block
    operators; `solve`, which applies A's banded Cholesky factor (A is
    symmetric, so it serves state and adjoint alike); the QP's scaling
    `control_scale` and the blocks of its gradient map `scaled_gradient`; and
    the audit rule.  A clean-regime solve needs none of them.
    """

    def __init__(self, config: OcpConfig, mesh: SimplexMesh | None = None):
        self.config = config
        if mesh is None:
            mesh = unit_interval_mesh(config.n) if config.dim == 1 else unit_square_mesh(config.n)
        elif mesh.dim != config.dim:
            raise ValueError(f"mesh dimension {mesh.dim} differs from config dim {config.dim}")
        else:
            self._geometry = cell_geometry(mesh)
            volume = float(self._geometry[1].sum()) / math.factorial(mesh.dim)
            if not abs(volume - 1.0) <= 1e-12:
                raise ValueError(f"mesh volume {volume!r} is not the unit domain's 1")
        self.mesh = mesh
        self.state_space = StateSpace(mesh)
        self.control_space = ControlSpace(mesh, config.degree)
        self.ref_integrals = basis_integrals(self.control_space.ref)
        self.negative_reference_indices = self.control_space.ref.negative_indices
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
        + z @ 2 alpha M^ cell by cell.  It computes no objective, and does
        not check z: a float array of num_control_dofs entries.
        """
        return self._scaled_gradient_state(z)[0]

    def _scaled_gradient_state(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """scaled_gradient(z) and the state y(D z) it solved for."""
        root_dets, _, coupling, coupling_t, control = self._scaled_blocks
        cells = self.mesh.cells
        local = z.reshape(root_dets.size, -1)
        into_state = (local @ coupling) * root_dets
        rhs = np.bincount(cells.ravel(), into_state.ravel(), minlength=self.state_space.num_dofs)
        y = self.solve(rhs)
        p = self.solve(self.mass @ y - self._mass_target)
        return ((p[cells] * root_dets) @ coupling_t + local @ control).ravel(), y

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

    def _control_vector(self, lam) -> np.ndarray:
        lam = np.asarray(lam, dtype=float)
        if lam.shape != (self.num_control_dofs,):
            raise ValueError(
                f"control coefficient vector must have length {self.num_control_dofs}"
            )
        return lam

    def solve_state(self, lam: np.ndarray) -> np.ndarray:
        """State coefficients y with A y = C lam for control coefficients lam."""
        return self.solve(self.coupling @ self._control_vector(lam))

    def gradient_objective_state(
        self, lam: np.ndarray
    ) -> tuple[np.ndarray, float, np.ndarray]:
        """(gradient, objective, state) at lam from one scaled_gradient evaluation, unscaled.

        Its two band solves give the state as well, so the objective needs no third.
        """
        lam = self._control_vector(lam)
        scale = self.control_scale
        g, y = self._scaled_gradient_state(lam / scale)
        my = self.mass @ y
        # ||y - y_d||^2 expanded exactly: y'My - 2 y_d 1'My + y_d^2 |Omega|,
        # which keeps J(0) = |Omega| free of cancellation noise
        j = (
            float(y @ my)
            - 2.0 * DESIRED_STATE * float(my.sum())
            + DESIRED_STATE**2 * self.domain_volume
            + self.config.alpha * float(lam @ (self.control_mass @ lam))
        )
        return g / scale, j, y


def estimate_operator_norm(matvec, n: int, max_iterations: int = 60, rtol: float = 1e-3) -> float:
    """Power-iteration estimate of the spectral norm of a symmetric PSD operator.

    No solve calls it; it stays because perfbench's tracer wraps it by name.
    """
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
    tol: float,
    max_iterations: int,
):
    """Minimize a convex quadratic over the non-negative orthant, starting at x = 0.

    `gradient` must be the (affine) gradient map of the quadratic; `g0` its
    value at 0 and `j0` the objective at 0, which recover objective values via
    J(x) = j0 + x . (g(x) + g0) / 2.  The start costs no evaluation.  GPCG
    (More & Toraldo, SIAM J. Optim. 1, 1991): projected-gradient steps find
    the active face, and conjugate gradients minimize on it.

    * A gradient-projection phase steps along -g, with the entries that
      would leave the orthant at once set to 0, until the active set
      {x_i = 0} stops changing or a step decreases J by at most _GP_DECREASE
      times the phase's largest decrease.  The first trial step length is 1,
      every later one the Barzilai-Borwein length s.s / s.(g_new - g) of the
      previous gradient-projection step s.
    * A CG phase runs CG on the free face {x_i > 0} from x, each Hessian
      product H v = gradient(v) - g0 (v scaled to unit norm), until a CG step
      decreases J by at most _CG_DECREASE times the phase's largest or meets
      non-positive curvature, then searches along the CG step.  CG phases
      repeat while every gradient entry on the active set is >= 0 (the
      binding set is the active set); otherwise a gradient-projection phase
      follows.
    * Both search on the projected path max(x + a d, 0), starting with the
      given length: a trial is accepted when J decreases by at least
      _SUFFICIENT_DECREASE times the first-order prediction g . s, where
      s = trial - x; otherwise a shrinks to the minimizer of the quadratic
      through J(x), g . s and J(trial), but not below the first breakpoint
      of the path, where the unbent part of the path ends.  J's change is
      taken from gradients as s . (g + g_new) / 2, exact for a quadratic,
      so no L is needed and no J value is compared with another.

    Every accepted point gets its own gradient, and the KKT residual
    ||min(x, g)||_2 at it decides the stop: it vanishes exactly at the KKT
    points (x >= 0, g >= 0, x_i g_i = 0).  The iteration ends when it drops
    to `tol`.  It gives up when the smallest residual so far has not
    improved for _STAGNATION_WINDOW iterations, or when a search step no
    longer moves x: `tol` is then below what roundoff allows.

    Returns (x, g, objective, residual, iterations, failure), where
    `iterations` counts the calls of `gradient`, Hessian products included,
    and `max_iterations` caps them.  `failure` is None when `tol` was
    reached, else the message saying why not: the cap was hit, the
    iteration stagnated (the iterate with the smallest residual is returned
    then, else the last one), CG found J unbounded below along a feasible
    direction, or a gradient became non-finite.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    x, g, j = np.zeros(np.shape(g0)), g0, j0
    res = _kkt_residual(x, g)
    best, best_at, calls = (x, g, j, res), 0, 0

    def unmet(stop, residual):
        return f"QP did not reach tol={tol:.3e} {stop} (residual {residual:.3e})"

    def evaluate(v):
        nonlocal calls
        if calls == max_iterations:
            raise _Stop(unmet(f"within {max_iterations} iterations", res))
        calls += 1
        return gradient(v)

    def stagnated(reason):
        window = f"no new best in the last {calls - best_at} of {calls} iterations"
        return _Stop(unmet(f"and stagnated: {reason}{window}", best[3]), best)

    def non_finite():
        return _Stop(f"QP objective became non-finite after {calls} iterations")

    def search(d, length):
        """Move x to an accepted point of max(x + a d, 0); return J's decrease."""
        nonlocal x, g, j, res, best, best_at
        shrinking = d < 0.0
        first_break = float(np.min(x[shrinking] / -d[shrinking])) if shrinking.any() else 0.0
        while True:
            x_new = np.maximum(x + length * d, 0.0)
            s = x_new - x
            if not s.any():
                raise stagnated("the search step vanished; ")
            g_new = evaluate(x_new)
            change, first_order = 0.5 * float(s @ (g + g_new)), float(g @ s)
            if not math.isfinite(change):
                raise non_finite()
            if change <= _SUFFICIENT_DECREASE * first_order:
                break
            excess = change - first_order
            ratio = min(max(-0.5 * first_order / excess, 0.01), 0.9) if excess > 0.0 else 0.5
            length = max(ratio * length, first_break if first_break < length else 0.0)
        x, g, j = x_new, g_new, j0 + 0.5 * float(x_new @ (g_new + g0))
        res = _kkt_residual(x, g)
        if res <= tol:
            raise _Stop(None)
        if res < best[3]:
            best, best_at = (x, g, j, res), calls
        elif calls - best_at >= _STAGNATION_WINDOW:
            raise stagnated("")
        return -change

    def cg_direction():
        """The step CG on the free face takes from x (0 off the face)."""
        free = x > 0.0
        r = g[free]
        p, w, rr, top = -r, np.zeros_like(r), float(r @ r), 0.0
        v = np.zeros_like(x)
        while rr > 0.0:
            norm = math.sqrt(float(p @ p))
            v[free] = p / norm
            hp = norm * (evaluate(v) - g0)[free]
            curvature = float(p @ hp)
            if not math.isfinite(curvature):
                raise non_finite()
            if curvature <= 0.0:
                if not w.any():
                    if (p >= 0.0).all():  # x + t p stays feasible as J decreases
                        raise _Stop(f"QP objective is unbounded below after {calls} iterations")
                    w = p
                break
            a = rr / curvature
            w += a * p
            r = r + a * hp
            drop = 0.5 * a * rr
            top = max(top, drop)
            if drop <= _CG_DECREASE * top:
                break
            rr, rr_old = float(r @ r), rr
            p = -r + (rr / rr_old) * p
        d = np.zeros_like(x)
        d[free] = w
        return d

    failure = None
    try:
        if res <= tol:
            raise _Stop(None)
        step = 1.0
        while True:
            top = 0.0
            while True:  # gradient projection
                x_old, g_old, active = x, g, x == 0.0
                drop = search(np.where(active & (g >= 0.0), 0.0, -g), step)
                s = x - x_old
                curvature = float(s @ (g - g_old))
                step = float(s @ s) / curvature if curvature > 0.0 else 2.0 * step
                top = max(top, drop)
                if np.array_equal(x == 0.0, active) or drop <= _GP_DECREASE * top:
                    break
            while True:  # CG, while the binding set is the active set
                d = cg_direction()
                if not d.any():
                    break
                search(d, 1.0)
                if (g[x == 0.0] < 0.0).any():
                    break
    except _Stop as stop:
        failure = stop.failure
        if stop.iterate is not None:
            x, g, j, res = stop.iterate
    return x, g, j, res, calls, failure


class _Stop(Exception):
    """Ends minimize_nonneg_quadratic's iteration.

    `failure` is None when tol was reached; `iterate` is the (x, g, j, res)
    to return when it is not the last accepted one.
    """

    def __init__(self, failure: str | None, iterate=None):
        super().__init__(failure)
        self.failure = failure
        self.iterate = iterate


# The share of the first-order decrease a search step must achieve, and the
# shares of a phase's largest decrease at or below which a CG or a
# gradient-projection phase stops.
_SUFFICIENT_DECREASE = 0.01
_CG_DECREASE = 0.1
_GP_DECREASE = 0.25

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
    iterations: int  # gradient evaluations of the QP core


def solve_qp(disc: Discretization) -> QpSolution:
    """Solve the QP ``min J(lam) s.t. lam >= 0`` by GPCG.

    The iteration runs on z = D^-1 lam with D = diag(M_u)^(-1/2): the scaled
    Hessian D H D has a mesh-independent spectrum, and a positive diagonal
    scaling leaves the constraint (z >= 0) and its projection unchanged.
    Every gradient and every Hessian product H v = g(v) - g(0) is one call
    of disc.scaled_gradient, which evaluates D grad J(D z) in these
    coordinates with two band solves and no objective or state; the
    objective at z = 0 is |Omega| (y = 0), and the core recovers every later
    one from gradients.  The final state is one more solve.
    minimize_nonneg_quadratic starts at z = 0 from the gradient and
    objective computed here; it estimates no Lipschitz constant, and no
    comparison of J values decides a step, so the iteration count does not
    follow roundoff in J.  The reported kkt_residual, ||min(z, grad_z J)||_2
    = ||min(D^-1 lam, D grad J)||_2, is a mesh-independent L2-type KKT
    measure.  The config's qp_tol and max_qp_iterations set the tolerance
    and the cap on the core's gradient evaluations, which the returned
    iterations counts (the gradient at 0 is not among them).

    The clean regime is decided exactly, before any floating-point work.
    K 1 = 0 makes the adjoint at lam = 0 the constant 1, so grad J(0) = 2 C'1
    = 2 |det B| (integral of each reference basis function).  When no exact
    reference integral is negative, lam = 0 is therefore the optimum: it is
    returned with state 0, objective |Omega|, kkt_residual 0 and 0
    iterations, without a gradient evaluation, a factorization of A, the
    cell geometry or any assembly.

    When the core reports a failure (the cap is exceeded, the iteration
    stagnates above qp_tol, or the objective is unbounded below or
    non-finite), raises QpConvergenceError with its message and the
    QpSolution of the iterate the core returned, state included.
    """
    n = disc.num_control_dofs
    if not disc.negative_reference_indices:
        state = np.zeros(disc.state_space.num_dofs)
        return QpSolution(np.zeros(n), state, disc.domain_volume, 0.0, 0)

    grad = disc.scaled_gradient
    g0 = grad(np.zeros(n))
    j0 = DESIRED_STATE**2 * disc.domain_volume  # y(0) = 0
    z, _, j, res, iterations, failure = minimize_nonneg_quadratic(
        grad, g0, j0, disc.config.qp_tol, disc.config.max_qp_iterations
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


def build_certificate(config: OcpConfig) -> CounterexampleCertificate:
    """Build the negative-direction certificate for a config.

    Reads only the exact reference basis of the config's dimension and
    degree: no mesh, no assembly and no solve.  Raises NoNegativeBasisError
    when every reference basis integral is >= 0 (the regime in which
    coefficient-wise non-negativity is preserved in the limit).  Cell-local
    signs equal reference signs because the push-forward only scales
    integrals by |det B| > 0.
    """
    ref = lagrange_basis(config.dim, config.degree)
    ref_ints = basis_integrals(ref)
    neg_local = ref.negative_indices
    if not neg_local:
        raise NoNegativeBasisError(config.dim, config.degree)

    # Exact reference quantities; volume * |That|^{-1} = d! for the unit domains.
    fact = Fraction(math.factorial(config.dim))
    beta_exact = -fact * sum((ref_ints[j] for j in neg_local), Fraction(0))
    m2_exact = fact * integral_of_square(ref, neg_local)
    if beta_exact <= 0 or m2_exact <= 0:
        raise RuntimeError("certificate construction produced non-positive invariants")

    # y(t w) is the constant -t beta, so J(t w) = (1 - t beta)^2 + alpha t^2 M^2
    alpha = Fraction(config.alpha)
    t_exact = beta_exact / ((1 + alpha) * m2_exact)
    objective = (1 - t_exact * beta_exact) ** 2 + alpha * t_exact**2 * m2_exact
    if objective > 1 - t_exact * beta_exact:
        raise RuntimeError(f"J(t_hat w) = {float(objective)} exceeds the certificate bound")

    beta = float(beta_exact)
    m_squared = float(m2_exact)
    step = beta / ((1.0 + config.alpha) * m_squared)
    margin = beta * step
    return CounterexampleCertificate(
        config=config,
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


def feasibility_audit(disc: Discretization, lam: np.ndarray) -> FeasibilityAudit:
    """Audit per-cell integrals and the negative part of a control function.

    Cell averages use the exact reference integrals (scaled by d!), so their
    signs are trustworthy; the negative-part norm uses quadrature of exactness
    2k+2 on min(u, 0)^2 and is reported as approximate.  For a control with
    no nonzero coefficient both are exactly 0, with no quadrature and no
    product with the reference integrals.
    """
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
    iterations: int  # gradient evaluations of the QP core


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
    ns = sorted(set(mesh_parameters))
    if len(ns) < 2:
        raise ValueError("a convergence study needs at least two mesh parameters")
    if any(not isinstance(n, numbers.Integral) or n < 1 for n in ns):
        raise ValueError(f"mesh parameters must be integers >= 1, got {ns}")

    try:
        certificate = build_certificate(config)
    except NoNegativeBasisError:
        certificate = None
    runs = []
    for n in map(int, ns):
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
