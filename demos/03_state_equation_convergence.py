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

from ctrldisc import Discretization, OcpConfig, assemble_load, l2_error, simplex_rule

rng = np.random.default_rng(1)

print("conservation and stability on random controls (d=2, k=3, n=4):")
disc = Discretization(OcpConfig(dim=2, degree=3, n=4))
ones = np.ones(disc.state_space.num_dofs)
for trial in range(3):
    u = rng.standard_normal(disc.num_control_dofs)
    y = disc.solve_state(u)
    int_y = ones @ (disc.mass @ y)
    int_u = (disc.coupling.T @ ones) @ u
    print(f"  trial {trial}: int y - int u = {int_y - int_u:+.2e}")


def exact(pts):
    return np.cos(np.pi * pts[:, 0]) * np.cos(np.pi * pts[:, 1])


def forcing(pts):
    return (2.0 * np.pi**2 + 1.0) * exact(pts)


print("\nmanufactured-solution errors (y* = cos(pi x) cos(pi y)):")
previous = None
for n in (8, 16, 32, 64):
    disc = Discretization(OcpConfig(dim=2, degree=1, n=n))
    space = disc.state_space
    # the banded Cholesky factor of A that state solves use solves for any load
    y = disc.solve(assemble_load(space, simplex_rule(2, 6), forcing))
    error = l2_error(space, y, exact, simplex_rule(2, 6))
    rate = "" if previous is None else f"  rate {math.log(previous / error) / math.log(2):.3f}"
    print(f"  n={n:3d}: L2 error {error:.3e}{rate}")
    previous = error
