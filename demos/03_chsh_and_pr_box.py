"""CHSH correlations: quantum maximum, classical box, and the PR box.

Self-adjoint unit-trace operators recovered from frame functions need not be
positive semidefinite, but whenever they are, their two-party correlations
obey the quantum CHSH bound 2*sqrt(2).  For two qubits the maximum over all
measurement settings is exact: 2*sqrt(s1^2 + s2^2), with s1 >= s2 the two
largest singular values of the correlation matrix T_ij = tr(t sigma_i (x)
sigma_j) (Horodecki, Horodecki & Horodecki 1995).  The PR box exceeds that
bound (it reaches 4), and a PPT witness certifies that no operator of
weight one that is nonnegative on product states reproduces its statistics.
Below the bound, a noisy PR box is reproduced by t = A + B^Γ with A, B
positive semidefinite, found by alternating projections before any LP runs;
when that search stalls on two qubits, its last step gives the witness.
"""

import numpy as np

from nsgleason import (
    TSIRELSON,
    Box,
    HermitianOperator,
    chsh_optimize,
    chsh_value_box,
    deterministic_box,
    make_rng,
    max_chsh_lp,
    partial_transpose,
    pr_box,
    quantum_extension,
    random_density,
    singlet,
    with_qubit_realizations,
    chsh_value,
)
from nsgleason.nosig import SINGLET_ANGLES, _decomposition, bell_operator, equator_basis

print("=== singlet: saturating the quantum bound ===")
standard = [equator_basis(a) for a in SINGLET_ANGLES]
print(f"CHSH at the standard angles : {chsh_value(singlet(), standard):+.6f}")
val, best = chsh_optimize(singlet())
print(f"exact CHSH maximum          : {val:.6f}")
print(f"CHSH at its settings        : {chsh_value(singlet(), best):.6f}")
print(f"2*sqrt(2)                   : {TSIRELSON:.6f}")

print("\n=== random states never exceed it ===")
rng = make_rng(1)
worst = -np.inf
for _ in range(10):
    v, _ = chsh_optimize(random_density(rng, (2, 2)))
    worst = max(worst, v)
print(f"largest maximum over 10 random two-qubit states: {worst:.6f}")

print("\n=== classical boxes sit at 2 ===")
print(f"deterministic box CHSH: {chsh_value_box(deterministic_box())}")

print("\n=== the PR box has no weight-one operator model ===")
box = with_qubit_realizations(pr_box())
print(f"PR box CHSH: {chsh_value_box(box)}")
verdict = quantum_extension(box, positivity_samples=1000, seed=0)
print(f"extension search verdict : {verdict.verdict}")
print(f"residual floor           : {verdict.residual:.4f} (PPT witness, "
      f"{verdict.rounds} LP rounds)")
print(f"search stalled after     : {verdict.certificate.steps} steps")

print("\n=== noisy PR boxes: a certificate on either side of 2*sqrt(2) ===")
pr = pr_box()
for visibility in (0.70, 0.7072, 0.72):
    noisy = with_qubit_realizations(
        Box(pr.settings, pr.outcomes, visibility * pr.table + (1 - visibility) / 4))
    verdict = quantum_extension(noisy, positivity_samples=500, seed=0)
    if verdict.verdict == "FEASIBLE" and verdict.rounds == 0:
        how = f"decomposed in {verdict.certificate.steps} steps, no LP"
    elif verdict.verdict == "INFEASIBLE" and verdict.rounds == 0:
        how = (f"residual floor {verdict.residual:.1e} from a PPT witness after "
               f"{verdict.certificate.steps} steps, no LP")
    else:  # the witness's floor is too low to decide; the verdict carries no certificate
        witness = _decomposition(noisy)
        how = (f"witness floor {witness.floor:.1e} after {witness.steps} steps, "
               f"then {verdict.rounds} LP rounds")
    print(f"visibility {visibility:.4f} (CHSH {4 * visibility:.4f}): {verdict.verdict:10s} {how}")
print("On two qubits t is nonnegative on every product state exactly when t = A + B^Γ "
      "with A, B >= 0.\nAbove 2*sqrt(2) no such t reproduces the box; just above it the "
      "witness's floor is below 1e-4, and the LPs cannot decide.")

print("\n=== LP relaxations squeeze the bound ===")
schedule = (250, 500, 1000, 2000)
bounds = max_chsh_lp(box, schedule, seed=0)
for n, b in zip(schedule, bounds):
    print(f"  {n:5d} positivity samples -> CHSH <= {b:.4f}")
bell = HermitianOperator((2, 2), bell_operator([*box.bases[0], *box.bases[1]]))
exact = max(np.linalg.eigvalsh(b.mat)[-1] for b in (bell, partial_transpose(bell, 0)))
print(f"  exact bound max(λmax(B), λmax(B^Γ)) -> CHSH <= {exact:.4f}")
print("The relaxation tightens monotonically toward the exact bound over "
      "t = A + C^Γ with A, C >= 0,\nthe quantum value 2*sqrt(2), leaving 4 far outside.")
