"""Measurement contexts as a presheaf: sections and their consistency.

A product context pairs a projective measurement on each factor; contexts are
partially ordered by coarse-graining.  An operator of weight one assigns each
context an outcome distribution, and these assignments restrict consistently
along every refinement edge — they form a global section.  A signalling
assignment cannot: two fine contexts that share a coarse-graining disagree
about the shared node.

Each context is stored as one (n, d, d) stack of projectors, and each
refinement edge as two 0/1 aggregation matrices, one per site: restricting a
fine distribution is A_L @ dist @ A_R^T.
"""

import numpy as np

from nsgleason import (
    check_section,
    make_rng,
    make_signalling_example,
    random_density,
    section_from_operator,
)
from nsgleason.presheaf import (
    ProductContext,
    RefinementEdge,
    SectionTable,
    random_context_family,
    rank1_context,
    restrict,
    section_from_framefn,
)

print("=== operator tables are global sections ===")
rng = make_rng(7)
t = random_density(rng, (3, 3))
contexts, edges = random_context_family((3, 3), 25, seed=7)
table = section_from_operator(t, contexts)
rep = check_section(table, edges)
print(f"{len(contexts)} contexts, {len(edges)} refinement edges")
print(f"max restriction mismatch: {rep.max_distance:.2e}")

print("\n=== a signalling assignment is not a section ===")
f = make_signalling_example((2, 2), np.pi / 4)
comp = np.eye(2, dtype=complex)
rot = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
right = rank1_context(comp, "R")
fine_a = ProductContext(rank1_context(comp, "La"), right)
fine_b = ProductContext(rank1_context(rot, "Lb"), right)
tab = section_from_framefn(f, [fine_a, fine_b])

# Both fine contexts coarse-grain to "forget the left outcome"; if the
# assignment were a section, both restrictions would give the same
# right-marginal.  Store the one computed from fine_a and test the edge
# from fine_b against it.
coarse_a = ProductContext(fine_a.left.coarse_grain(((0, 1),), "c"), right)
coarse_b = ProductContext(fine_b.left.coarse_grain(((0, 1),), "c"), right)
edge_a = RefinementEdge(coarse_a, fine_a, ((0, 1),), ((0,), (1,)))
edge_b = RefinementEdge(coarse_b, fine_b, ((0, 1),), ((0,), (1,)))
stored = dict(tab.distributions)
stored[coarse_a.label] = restrict(tab[fine_a], edge_a)
section = SectionTable((fine_a, fine_b, coarse_a), stored)
rep = check_section(section, [edge_a, edge_b])
print(f"mismatch at the shared coarse node: {rep.max_distance:.4f}")
print(f"worst edge: {rep.worst_edge}")
print("The right-hand marginal depends on which left basis was measured — "
      "exactly the signalling the section condition forbids.")
