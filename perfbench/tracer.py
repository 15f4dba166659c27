"""Per-layer spans and counts, recorded from outside the ``ctrldisc`` package.

``traced()`` wraps the layer-boundary functions of each module for the
duration of a ``with`` block and restores the originals afterwards.  The
package imports several of them by name (``ocp`` and ``fem`` hold their own
references to ``cg_solve``, ``cell_affine_map``, ``simplex_rule``, ...), so
every ``ctrldisc`` module attribute bound to a wrapped function is replaced,
not just the defining one.  ``Discretization`` is patched method by method;
replacing the class itself would break the ``isinstance`` check in
``ocp._as_discretization``.

A span's self time is its duration minus the time covered by its child
spans.  Only the functions below are wrapped: wrapping hot helpers such as
``monomial_integral`` would add overhead to every exact integral and shift
the proportions the trace is meant to show.
"""

from __future__ import annotations

import contextlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

FUNCTIONS = (
    ("exactbasis", "lagrange_basis", "exactbasis.lagrange_basis"),
    ("exactbasis", "solve_rational_system", "exactbasis.rational_solve"),
    ("exactbasis", "basis_integrals", "exactbasis.basis_integrals"),
    ("mesh", "unit_square_mesh", "mesh.build"),
    ("mesh", "unit_interval_mesh", "mesh.build"),
    ("mesh", "cell_affine_map", "mesh.affine_map"),
    ("quadrature", "simplex_rule", "quadrature.rule"),
    ("fem", "assemble_p1_stiffness_mass", "fem.stiffness_mass"),
    ("fem", "assemble_coupling", "fem.coupling"),
    ("fem", "assemble_control_mass", "fem.control_mass"),
    ("fem", "cg_solve", "fem.cg"),
    ("ocp", "estimate_operator_norm", "ocp.lipschitz"),
    ("ocp", "minimize_nonneg_quadratic", "ocp.qp"),
    ("ocp", "feasibility_audit", "ocp.feasibility_audit"),
    ("cli", "dumps", "cli.report"),
)
METHODS = (
    ("ocp", "Discretization", "__init__", "ocp.discretization"),
    ("ocp", "Discretization", "gradient_objective_state", "ocp.gradient"),
)

# Per-layer metrics in report order, with units.  Times are self times except
# ocp.lipschitz_s (the whole power iteration, its gradient evaluations and CG
# solves included) and ocp.qp_iteration_s (the whole QP call per iteration).
LAYER_METRICS = (
    ("exactbasis.lagrange_basis_s", "s"),
    ("exactbasis.rational_solve_s", "s"),
    ("exactbasis.basis_integrals_s", "s"),
    ("exactbasis.bases_built", "count"),
    ("exactbasis.basis_functions", "count"),
    ("mesh.build_s", "s"),
    ("mesh.affine_map_calls", "count"),
    ("mesh.affine_map_s", "s"),
    ("quadrature.rule_s", "s"),
    ("quadrature.rules_built", "count"),
    ("fem.stiffness_mass_s", "s"),
    ("fem.coupling_s", "s"),
    ("fem.control_mass_s", "s"),
    ("ocp.discretization_s", "s"),
    ("fem.cg_calls", "count"),
    ("fem.cg_iterations", "count"),
    ("fem.cg_s", "s"),
    ("ocp.gradient_evals", "count"),
    ("ocp.gradient_s", "s"),
    ("ocp.lipschitz_s", "s"),
    ("ocp.power_gradient_evals", "count"),
    ("ocp.qp_s", "s"),
    ("ocp.qp_iterations", "count"),
    ("ocp.qp_restarts", "count"),
    ("ocp.qp_iteration_s", "s"),
    ("ocp.feasibility_audit_s", "s"),
    ("cli.report_s", "s"),
)


class Tracer:
    """Span and count accumulator for one traced op."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [key, seconds covered by child spans]
        self._specs: dict[int, object] = {}

    def wrap(self, key: str, fn):
        def span(*args, **kwargs):
            frame = [key, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self._stack.pop()
                self.self_s[key] += duration - frame[1]
                self.total_s[key] += duration
                self.calls[key] += 1
                if self._stack:
                    self._stack[-1][1] += duration
            self._observe(key, result)
            return result

        return span

    def _inside(self, key: str) -> bool:
        return any(frame[0] == key for frame in self._stack)

    def _observe(self, key: str, result) -> None:
        if key == "fem.cg":
            self.counts["fem.cg_iterations"] += result[1].iterations
        elif key == "ocp.qp":
            self.counts["ocp.qp_iterations"] += abs(result[4])
        elif key == "ocp.gradient":
            if self._inside("ocp.lipschitz"):
                self.counts["ocp.power_gradient_evals"] += 1
            if self._inside("ocp.qp"):
                self.counts["qp_gradient_evals"] += 1
        elif key == "exactbasis.lagrange_basis" and id(result) not in self._specs:
            # a memo hit returns the spec built earlier; a new object was built now
            self._specs[id(result)] = result
            self.counts["exactbasis.bases_built"] += 1
            self.counts["exactbasis.basis_functions"] += result.node_count

    def metrics(self) -> dict[str, float]:
        """Per-layer values of the op, keyed like LAYER_METRICS."""
        s, c = self.self_s, self.counts
        iterations = c["ocp.qp_iterations"]
        values = {
            "exactbasis.lagrange_basis_s": s["exactbasis.lagrange_basis"],
            "exactbasis.rational_solve_s": s["exactbasis.rational_solve"],
            "exactbasis.basis_integrals_s": s["exactbasis.basis_integrals"],
            "exactbasis.bases_built": c["exactbasis.bases_built"],
            "exactbasis.basis_functions": c["exactbasis.basis_functions"],
            "mesh.build_s": s["mesh.build"],
            "mesh.affine_map_calls": self.calls["mesh.affine_map"],
            "mesh.affine_map_s": s["mesh.affine_map"],
            "quadrature.rule_s": s["quadrature.rule"],
            "quadrature.rules_built": self.calls["quadrature.rule"],
            "fem.stiffness_mass_s": s["fem.stiffness_mass"],
            "fem.coupling_s": s["fem.coupling"],
            "fem.control_mass_s": s["fem.control_mass"],
            "ocp.discretization_s": s["ocp.discretization"],
            "fem.cg_calls": self.calls["fem.cg"],
            "fem.cg_iterations": c["fem.cg_iterations"],
            "fem.cg_s": s["fem.cg"],
            "ocp.gradient_evals": self.calls["ocp.gradient"],
            "ocp.gradient_s": s["ocp.gradient"],
            "ocp.lipschitz_s": self.total_s["ocp.lipschitz"],
            "ocp.power_gradient_evals": c["ocp.power_gradient_evals"],
            "ocp.qp_s": s["ocp.qp"],
            "ocp.qp_iterations": iterations,
            # each QP call evaluates the gradient once up front, once per
            # iteration, and once more for every momentum restart
            "ocp.qp_restarts": c["qp_gradient_evals"] - iterations - self.calls["ocp.qp"],
            "ocp.qp_iteration_s": self.total_s["ocp.qp"] / iterations if iterations else 0.0,
            "ocp.feasibility_audit_s": s["ocp.feasibility_audit"],
            "cli.report_s": s["cli.report"],
        }
        return {name: values[name] for name, _ in LAYER_METRICS}


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Route the layer-boundary calls of the loaded ``ctrldisc`` through `tracer`."""
    modules = [
        m for name, m in list(sys.modules.items())
        if name == "ctrldisc" or name.startswith("ctrldisc.")
    ]
    undo = []
    try:
        for module_name, attr, key in FUNCTIONS:
            original = getattr(sys.modules[f"ctrldisc.{module_name}"], attr)
            wrapper = tracer.wrap(key, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, name, original))
                        setattr(module, name, wrapper)
        for module_name, cls_name, attr, key in METHODS:
            cls = getattr(sys.modules[f"ctrldisc.{module_name}"], cls_name)
            original = cls.__dict__[attr]
            undo.append((cls, attr, original))
            setattr(cls, attr, tracer.wrap(key, original))
        yield tracer
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)
