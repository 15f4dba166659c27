"""
A certified counterexample: degree-4 controls on triangles
==========================================================

The model problem  min ||y(u) + 1||^2 + alpha ||u||^2  over u >= 0 has the
unique solution u = 0 with objective value |Omega| = 1: pushing the state
toward -1 would need a sign-violating control.  Discretizing u >= 0 as
"coefficients >= 0" keeps that optimum as long as every basis integral is
non-negative.  Degree 4 on the triangle breaks the condition: the three
edge-midpoint basis functions integrate to -1/90 each.

Summing the negative-integral basis functions over every cell yields a
direction w whose integral and norm are mesh-independent multiples of exact
reference-simplex rationals:

    beta = -int w = d! * (-int w_hat) > 0,   M^2 = ||w||^2 = d! * ||w_hat||^2.

The negative set is symmetric under permutations of the vertices, so the
state of w is exactly the constant -beta, and on every mesh

    J(t w) = (1 - t beta)^2 + alpha t^2 M^2.

Stepping t * w with t = beta / ((1 + alpha) M^2) then provably drops the
objective to at most 1 - delta with delta = beta * t, no matter how fine the
mesh — so the discrete optima cannot converge to the true optimum, and their
weak limit violates u >= 0.
"""

import numpy as np

from ctrldisc import Discretization, OcpConfig, build_certificate, feasibility_audit, solve_qp

config = OcpConfig(dim=2, degree=4, alpha=0.1, n=8)
disc = Discretization(config)

cert = build_certificate(config)
print("certificate (mesh-independent parts are exact rationals):")
print(f"  negative reference indices : {cert.ref_negative_indices}")
print(f"  beta  = {cert.beta_exact}  = {cert.beta:.12f}")
print(f"  M^2   = {cert.m2_exact}  = {cert.m_squared:.12f}")
print(f"  t_hat = {cert.step:.12f}")
print(f"  delta = {cert.margin:.12f}")
print(f"  guaranteed bound    J(t_hat w) <= {cert.objective_bound:.12f}")
print(f"  measured            J(t_hat w)  = {cert.measured_objective:.12f}")
# y(w) is exactly the constant -beta on every mesh, so its norm L_n is beta
print(f"  measured state norm L_n = {cert.beta:.6f} <= M = {np.sqrt(cert.m_squared):.6f}")

print("\nsolving the constrained QP...")
solution = solve_qp(disc)
print(f"  J_n = {solution.objective:.12f} after {solution.iterations} iterations "
      f"(KKT residual {solution.kkt_residual:.1e})")
print(f"  gap below the feasible value 1: {1.0 - solution.objective:.6f} "
      f">= delta = {cert.margin:.6f}")

audit = feasibility_audit(disc, solution.control)
print("\nfeasibility audit of the discrete optimum:")
print(f"  min cell average        : {audit.min_cell_average:+.6f}")
print(f"  ||min(u, 0)||_L2        : {audit.negative_part_norm:.6f}")
print(f"  cells with int u < 0    : {audit.negative_cell_fraction:.0%}")
print("\nnon-negative coefficients, yet a persistently negative function:")
print("the coefficient cone and the function cone have drifted apart.")
