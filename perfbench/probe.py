"""Reference probes: fixed pieces of work that measure how fast the machine is.

The benchmark runs on a shared host whose other tenants slow every op by up
to 2x, in periods from milliseconds to minutes.  The slowdown reaches the
benchmark's own process (steal time stays near zero), so no clock can filter
it out.  The worker therefore runs a probe between ops.  A probe slows down
together with an op that does the same kind of work, and the mean op time
divided by the run's slowdown (mean probe time over its reference time) is
far steadier than any raw op time (NOTES.md).

There is one probe per kind of work that dominates an op, and each workload
names its own (``workloads.PROBE``):

* ``cg``: short conjugate-gradient solves on a sparse matrix of 81 rows,
  where numpy call overhead dominates (``fem.cg_solve``);
* ``cells``: a per-cell Python loop of tiny numpy products that appends to
  lists, then a COO to CSR conversion (assembly in ``fem``), which also
  allocates fresh memory;
* ``rational``: exact ``Fraction`` elimination (``exactbasis``).

The probes use only the standard library, numpy and scipy, never
``ctrldisc``, so a change to the program under test cannot change them.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

import numpy as np
import scipy.sparse as sp

_SIDE = 9  # the P1 state space of the counterexample's 8 x 8 mesh has 81 dofs
_N = _SIDE * _SIDE
_OPERATOR = sp.diags(
    [-1.0, -1.0, 4.1, -1.0, -1.0], [-_SIDE, -1, 0, 1, _SIDE], shape=(_N, _N), format="csr"
)
_RHS = np.linspace(1.0, 2.0, _N)
_CELLS = 320
_FRESH = 1 << 20  # float64 entries, 8 MB of memory the probe touches for the first time
_CORNERS = np.random.default_rng(0).random((_CELLS, 3, 2))
_PHI = np.linspace(0.1, 1.0, 3 * 6).reshape(3, 6)
_WEIGHTS = np.full(6, 1.0 / 12.0)


def _cg() -> float:
    # 60 Jacobi-preconditioned solves of 10 iterations each, as in fem.cg_solve
    total = 0.0
    for _ in range(60):
        inv_diag = 1.0 / _OPERATOR.diagonal()
        b_norm = float(np.linalg.norm(_RHS))
        x = np.zeros(_N)
        r = _RHS - _OPERATOR @ x
        z = inv_diag * r
        p = z.copy()
        rz = float(r @ z)
        for _ in range(10):
            ap = _OPERATOR @ p
            alpha = rz / float(p @ ap)
            x += alpha * p
            r -= alpha * ap
            total += float(np.linalg.norm(r)) / b_norm
            z = inv_diag * r
            rz, rz_old = float(r @ z), rz
            p = z + (rz / rz_old) * p
    return total


def _cells() -> float:
    rows, cols, vals = [], [], []
    for ci in range(_CELLS):
        corners = _CORNERS[ci]
        matrix = (corners[1:] - corners[0]).T
        grads = np.linalg.inv(matrix)
        w = abs(float(np.linalg.det(matrix))) * _WEIGHTS
        for a in range(3):
            for b in range(a, 3):
                rows.append(3 * ci + a)
                cols.append(3 * ci + b)
                vals.append(float(grads[a % 2] @ grads[b % 2]) + float(w @ (_PHI[a] * _PHI[b])))
    n = 3 * _CELLS
    fresh = np.full(_FRESH, vals[0])
    return float(sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr().sum() + fresh[-1])


def _rational() -> Fraction:
    # exact elimination on a Hilbert matrix, as in solve_rational_system
    n = 18
    rows = [[Fraction(1, i + j + 1) for j in range(n)] + [Fraction(int(i == 0))] for i in range(n)]
    for col in range(n):
        pivot = rows[col]
        for row in rows[col + 1:]:
            factor = row[col] / pivot[col]
            for c in range(col, n + 1):
                row[c] -= factor * pivot[c]
    return rows[-1][-1]


# name: (work, seconds it takes on the reference machine, a 2-vCPU Intel Xeon
# VM at 2.1 GHz with Python 3.11.7, numpy 2.4.6 and scipy 1.17.1, when no
# other tenant slows it down)
PROBES = {
    "cg": (_cg, 0.0070),
    "cells": (_cells, 0.0100),
    "rational": (_rational, 0.0058),
}


def run_probe(name: str) -> float:
    """Run the named probe once and return its wall time in seconds."""
    work = PROBES[name][0]
    start = perf_counter()
    work()
    return perf_counter() - start
