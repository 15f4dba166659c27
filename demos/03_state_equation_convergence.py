"""
The Neumann state equation and its P1 convergence
=================================================

The model problem couples controls to states through
int (grad y . grad v + y v) = int u v for all P1 test functions v.  Two
structural identities make the later feasibility arguments work, and both are
visible numerically:

* conservation: testing with v = 1 kills the gradient term, so
  int y = int u for every control u;
* stability: testing with v = y gives ||y|| <= ||u||.

The manufactured solution cos(pi x) cos(pi y) (whose normal derivative
vanishes on the unit-square boundary) confirms the expected O(h^2) accuracy.
"""

import math

import numpy as np

from ctrldisc import (
    ControlSpace,
    StateSolver,
    StateSpace,
    assemble_load,
    l2_error,
    simplex_rule,
    unit_square_mesh,
)

rng = np.random.default_rng(1)

print("conservation and stability on random controls (d=2, k=3, n=4):")
mesh = unit_square_mesh(4)
state = StateSpace(mesh)
solver = StateSolver(state, ControlSpace(mesh, 3))
ones = np.ones(state.num_dofs)
col_sums = solver.coupling.T @ ones
for trial in range(3):
    u = rng.standard_normal(solver.control.num_dofs)
    y = solver.solve_state(u)
    int_y = ones @ (solver.mass @ y)
    int_u = col_sums @ u
    print(f"  trial {trial}: int y - int u = {int_y - int_u:+.2e}")


def exact(pts):
    return np.cos(np.pi * pts[:, 0]) * np.cos(np.pi * pts[:, 1])


def forcing(pts):
    return (2.0 * np.pi**2 + 1.0) * exact(pts)


print("\nmanufactured-solution errors (y* = cos(pi x) cos(pi y)):")
previous = None
for n in (8, 16, 32, 64):
    mesh = unit_square_mesh(n)
    space = StateSpace(mesh)
    # the state solver's banded Cholesky factor of A solves for any load
    y = StateSolver(space, ControlSpace(mesh, 1)).solve(
        assemble_load(space, simplex_rule(2, 6), forcing)
    )
    error = l2_error(space, y, exact, simplex_rule(2, 6))
    rate = "" if previous is None else f"  rate {math.log(previous / error) / math.log(2):.3f}"
    print(f"  n={n:3d}: L2 error {error:.3e}{rate}")
    previous = error
