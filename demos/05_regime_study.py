"""
Two neighbouring degrees, two different limits
==============================================

In 1D the audit says degree 7 is safe and degree 8 is not (the Newton-Cotes
sign flip).  Running the same convergence study for both degrees shows the
two regimes side by side:

* k=7: the solver returns lambda = 0 on every mesh; J_n == 1 and the audits
  are clean (FEASIBLE_LIMIT);
* k=8: J_n sits below 1 - delta uniformly in n and the negative part of the
  optimum does not vanish under refinement (INFEASIBLE_LIMIT) — the weak
  limit of the discrete optima is not a feasible control.
"""

from ctrldisc import convergence_study
from ctrldisc.cli import main

MESHES = (4, 8, 16)

for degree in (7, 8):
    study = convergence_study(1, degree, MESHES, alpha=0.1)
    print(f"\ndegree {degree}: {study.regime}")
    if study.certificate is not None:
        print(f"  certified objective gap delta = {study.certificate.margin:.6f}")
    for run in study.runs:
        print(
            f"  n={run.n:3d}: J={run.objective:.9f}  "
            f"min cell avg {run.min_cell_average:+.3e}  "
            f"neg part {run.negative_part_norm:.3e}  "
            f"({run.iterations} iterations)"
        )

# The same study as machine-readable JSON: what `ctrldisc convergence` emits.
print("\nJSON report for degree 8, meshes 4 and 8:")
main(["convergence", "--dim", "1", "--degree", "8", "--alpha", "0.1", "--meshes", "4,8"])
