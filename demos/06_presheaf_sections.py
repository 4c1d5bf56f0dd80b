"""Measurement contexts as a presheaf: sections and their consistency.

A product context pairs a projective measurement on each factor.  A coarse
node forgets part of a context's outcomes: it is only a label, reached from a
fine context by one 0/1 aggregation matrix per site, and restricting a fine
distribution there is A_L @ dist @ A_R^T.  An operator of weight one assigns
each fine context an outcome distribution, and all fine contexts that share a
coarse node restrict to the same table there — the assignment is a global
section.  A node that forgets one site's outcome is a no-signalling
marginal, so a signalling assignment is not a section.

The generated family is a chain: left bases L_k and right bases R_j, fine
contexts (L_k, R_k) and (L_k, R_k+1), and coarse nodes "L_k|·" (right outcome
forgotten) and "·|R_j" (left outcome forgotten), most with two fine parents.
"""

import numpy as np

from nsgleason import (
    check_section,
    make_rng,
    make_signalling_example,
    random_density,
    section_from_operator,
)
from nsgleason.presheaf import random_context_family, section_from_framefn

contexts, edges = random_context_family((3, 3), 25, seed=7)
parents = {}
for e in edges:
    parents.setdefault(e.coarse, []).append(e.fine.label)
print(f"{len(contexts)} fine contexts, {len(edges)} refinement edges, "
      f"{len(parents)} coarse nodes")
print(f"coarse node L0|· has parents {parents['L0|·']}, ·|R1 has {parents['·|R1']}")

print("\n=== operator tables are global sections ===")
t = random_density(make_rng(7), (3, 3))
rep = check_section(section_from_operator(t, contexts), edges)
print(f"max restriction mismatch: {rep.max_distance:.2e} (passes: {rep.passed})")

print("\n=== a signalling assignment is not a section ===")
f = make_signalling_example((3, 3), np.pi / 4)
rep = check_section(section_from_framefn(f, contexts), edges)
print(f"largest mismatch at a shared coarse node: {rep.max_distance:.4f} (passes: {rep.passed})")
print(f"worst edge: {rep.worst_edge}")
print("One site's marginal depends on which basis the other site measured — "
      "exactly the signalling the section condition forbids.")
