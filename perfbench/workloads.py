"""Workload definitions: the seeded CLI argv sequence each run feeds the program.

Every op is one ``ctrldisc`` CLI invocation.  The program sees only the argv
built here; nothing else about the workload reaches it.

``feasible-assembly`` draws the Tikhonov weight alpha log-uniformly on
[ALPHA_LOW, ALPHA_HIGH], one value per op: the run's seed draws a random
shift ``u`` and op j uses ``alpha = ALPHA_LOW * (ALPHA_HIGH / ALPHA_LOW) **
((i + u) / LATTICE)`` with i the bit-reversed j (van der Corput order), so
any prefix of the sequence covers the interval evenly, however many ops fit
in the measured time.

``counterexample-qp`` keeps alpha at 0.1 on every seed.  Its QP iteration
count is erratic in alpha (1,432 iterations at 0.0878 between 3,709 at
0.0805 and 2,809 at 0.0958), so any seeded alpha mix small enough to fit in
a run moves its latency by tens of percent from seed to seed, and the
benchmark would measure the seed instead of the code.  ``exact-audit`` has
no free input.  On these two workloads the seed changes nothing.
"""

from __future__ import annotations

import random

ALPHA_LOW = 0.05
ALPHA_HIGH = 0.4
LATTICE_BITS = 6
LATTICE = 1 << LATTICE_BITS

# The reference probe (probe.py) that does the kind of work each
# workload's op spends most of its time on, from the per-layer trace
# (NOTES.md): fem.cg_s is about 95 % of a counterexample-qp op, per-cell
# assembly loops about 75 % of a feasible-assembly op, and
# exactbasis.rational_solve_s about 80 % of an exact-audit op.
PROBE = {
    "counterexample-qp": "cg",
    "feasible-assembly": "cells",
    "exact-audit": "rational",
}

# Seeds used for claims: tune and compare on DEFAULT_SEED, then confirm a
# claimed gain on HELD_OUT_SEED, which no change may be tuned against.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919


# argv of each workload's op; the token "{alpha}" is replaced per op
WORKLOADS = {
    "counterexample-qp": (
        "solve", "--dim", "2", "--degree", "4", "--mesh", "8", "--alpha", "0.1",
    ),
    "feasible-assembly": (
        "solve", "--dim", "2", "--degree", "3", "--mesh", "64", "--alpha", "{alpha}",
    ),
    "exact-audit": ("audit-basis", "--dim", "3", "--max-degree", "6"),
}


def _bit_reverse(value: int, bits: int) -> int:
    out = 0
    for _ in range(bits):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


def alpha_sequence(seed: int) -> list[str]:
    """The run's alphas as argv strings, in the order the ops use them."""
    shift = random.Random(seed).random()
    ratio = ALPHA_HIGH / ALPHA_LOW
    out = []
    for j in range(LATTICE):
        i = _bit_reverse(j, LATTICE_BITS)
        alpha = ALPHA_LOW * ratio ** ((i + shift) / LATTICE)
        out.append(format(alpha, ".6g"))
    return out


def op_sequence(template: tuple[str, ...], seed: int) -> list[list[str]]:
    """The argv of every op of one cycle; a run repeats the cycle as needed."""
    if "{alpha}" not in template:
        return [list(template)]
    return [[tok.replace("{alpha}", alpha) for tok in template] for alpha in alpha_sequence(seed)]
