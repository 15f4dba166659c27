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
exactbasis : exact rational Lagrange bases, integrals, sign audits, certificates
mesh       : interval meshes and structured unit-square triangulations
quadrature : certified simplex quadrature rules
fem        : P1 Neumann state equation, discontinuous control spaces
ocp        : the constrained QP, feasibility audits, convergence studies
cli        : `ctrldisc` command-line entry point

Each public name is listed once, in `_PUBLIC` with its defining module, and
served from there by `__getattr__`; `__all__` and `dir()` are derived from it.
Only `exactbasis`, which is pure-Python rationals, is imported with the
package.  `mesh`, `quadrature`, `fem` and `ocp` are registered in sys.modules
and bound here at once, but their bodies, and numpy with them, run at the
first read of one of their attributes or of a public name they define.  So
`import ctrldisc` and an `audit-basis` or `certificate` run load no numpy.
"""

import importlib.util
import sys

from . import exactbasis


def _lazy_submodule(name: str):
    """Register ``ctrldisc.<name>`` in sys.modules; its body runs at its first attribute access.

    The lazy-import recipe of the importlib documentation.  Code that reads
    the module's attributes, or imports from it, loads it as an import would.
    """
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


mesh = _lazy_submodule("mesh")
quadrature = _lazy_submodule("quadrature")
fem = _lazy_submodule("fem")
ocp = _lazy_submodule("ocp")

# every public name, with the module that defines it and serves it on each read
_PUBLIC = {
    name: module
    for module, names in (
        (exactbasis, ("AuditReport", "CounterexampleCertificate", "DegreeRecord",
                      "LagrangeBasisSpec", "audit_degrees", "basis_integrals",
                      "build_certificate", "integral_of_square", "lagrange_basis",
                      "lattice_nodes", "monomial_integral", "multi_indices")),
        (mesh, ("SimplexMesh", "cell_geometry", "unit_interval_mesh", "unit_square_mesh")),
        (quadrature, ("QuadratureRule", "conical_product_rule", "gauss_legendre_interval",
                      "grundmann_moeller", "simplex_rule")),
        (fem, ("ControlSpace", "StateSpace", "assemble_control_mass", "assemble_coupling",
               "assemble_load", "assemble_p1_stiffness_mass", "l2_error")),
        (ocp, ("ConvergenceStudy", "Discretization", "FeasibilityAudit", "OcpConfig",
               "QpConvergenceError", "QpSolution", "StudyRun", "convergence_study",
               "feasibility_audit", "solve_qp")),
    )
    for name in names
}

__version__ = "0.1.0"

__all__ = sorted(_PUBLIC)


def __getattr__(name: str):
    try:
        module = _PUBLIC[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(module, name)


def __dir__():
    return sorted({*globals(), *_PUBLIC})
