"""Sign audits for simplicial Lagrange control bases and a model control problem.

The package decides, in exact rational arithmetic, whether every Lagrange
basis function of degree k on the d-dimensional reference simplex has a
non-negative integral — the condition under which coefficient-wise
non-negativity of discrete controls survives weak limits — and demonstrates
both regimes on a Neumann model problem: when the condition holds the
discrete optima recover the true optimum, and when it fails they converge to
an objective value strictly below it, certified by a mesh-independent margin.

Modules
-------
exactbasis : exact rational Lagrange bases, integrals, sign audits
mesh       : interval meshes and structured unit-square triangulations
quadrature : certified simplex quadrature rules
fem        : P1 Neumann state equation, discontinuous control spaces
ocp        : the constrained QP, certificates, feasibility audits, studies
cli        : `ctrldisc` command-line entry point
"""

from .exactbasis import (
    AuditReport,
    DegreeRecord,
    LagrangeBasisSpec,
    audit_degrees,
    basis_integrals,
    integral_of_square,
    lagrange_basis,
    lattice_nodes,
    monomial_integral,
    multi_indices,
)
from .fem import (
    CgConvergenceError,
    ControlSpace,
    LinearSolveReport,
    StateSpace,
    assemble_control_mass,
    assemble_coupling,
    assemble_load,
    assemble_p1_stiffness_mass,
    cg_solve,
    l2_error,
)
from .mesh import (
    AffineMap,
    SimplexMesh,
    cell_affine_map,
    cell_geometry,
    unit_interval_mesh,
    unit_square_mesh,
)
from .ocp import (
    ConvergenceStudy,
    CounterexampleCertificate,
    Discretization,
    FeasibilityAudit,
    NoNegativeBasisError,
    OcpConfig,
    QpConvergenceError,
    QpSolution,
    StudyRun,
    build_certificate,
    convergence_study,
    feasibility_audit,
    solve_qp,
)
from .quadrature import (
    QuadratureRule,
    conical_product_rule,
    gauss_legendre_interval,
    grundmann_moeller,
    simplex_rule,
)

__version__ = "0.1.0"

__all__ = [
    "AffineMap",
    "AuditReport",
    "CgConvergenceError",
    "ControlSpace",
    "ConvergenceStudy",
    "CounterexampleCertificate",
    "DegreeRecord",
    "Discretization",
    "FeasibilityAudit",
    "LagrangeBasisSpec",
    "LinearSolveReport",
    "NoNegativeBasisError",
    "OcpConfig",
    "QpConvergenceError",
    "QpSolution",
    "QuadratureRule",
    "SimplexMesh",
    "StateSpace",
    "StudyRun",
    "audit_degrees",
    "assemble_control_mass",
    "assemble_coupling",
    "assemble_load",
    "assemble_p1_stiffness_mass",
    "basis_integrals",
    "build_certificate",
    "cell_affine_map",
    "cell_geometry",
    "cg_solve",
    "conical_product_rule",
    "convergence_study",
    "feasibility_audit",
    "gauss_legendre_interval",
    "grundmann_moeller",
    "integral_of_square",
    "l2_error",
    "lagrange_basis",
    "lattice_nodes",
    "monomial_integral",
    "multi_indices",
    "simplex_rule",
    "solve_qp",
    "unit_interval_mesh",
    "unit_square_mesh",
]
