"""Every threshold and budget the library and the CLI decide by, in one table.

The theorem is exact; in double precision each verdict about it is a
comparison against one of these names.  There is one name per decision, not
per value: two checks that happen to share a value keep separate names, so
either can change alone.  Each comparison (``<`` or ``<=``) is written at
its use site, and run reports cite the name that was applied.
"""

# Structural checks on inputs (linalg, bases, presheaf, gleason).
HERMITICITY = 1e-10  # max |M - M^dagger| entry of a matrix accepted as Hermitian
UNIT_NORM = 1e-12  # max | ||v|| - 1 | of a product-state factor accepted as a unit vector
PHASE_AMPLITUDE = 1e-12  # smallest |amplitude| that may fix a vector's global phase
LOCAL_BASIS = 1e-10  # max |Gram - I| entry of a one-site basis (product bases, CHSH settings, contexts)
UNITARY = 1e-10  # max |U^dagger U - I| entry of a twist-move rotation
EFFECT_SPECTRUM = 1e-10  # slack on the [0, 1] spectrum of a local effect

# Unentangled bases and twist moves (bases).
SAME_FACTOR = 1e-10  # |<f|g>| >= 1 - SAME_FACTOR: two site factors agree up to phase
ORTHO_PAIR = 1e-8  # |<e_i|e_j>| <= ORTHO_PAIR: two basis elements are orthogonal
IN_SPAN = 1e-8  # |<u|g>|^2 + |<v|g>|^2 >= 1 - IN_SPAN: g lies in span{u, v}
MOVE_KEY_DECIMALS = 9  # rotations equal to this many decimals are one candidate move
REPLAY_MATCH = 1e-8  # |<e|f>| > 1 - REPLAY_MATCH: a replayed element is a final one

# Reconstruction, positivity and orientation (gleason, orientation).
FEATURE_RANK = 1e-10  # singular values below this do not count toward a feature rank
SEESAW_CONVERGED = 1e-14  # a see-saw restart stops once its value moves by less
PSD = 1e-10  # min eigenvalue >= -PSD: positive semidefinite (density or Choi matrix)
UNIT_TRACE = 1e-8  # |tr t - 1| <= UNIT_TRACE: unit trace
PRODUCT_POSITIVE = 1e-8  # see-saw minimum >= -PRODUCT_POSITIVE: t is nonnegative on products
EFFECT_SPREAD_FLOOR = 1e-12  # smallest spectral width a random effect is divided by

# Boxes, sections, no-signalling and the extension LP (nosig, presheaf).
NEGATIVE_PROBABILITY = 1e-12  # a probability below -NEGATIVE_PROBABILITY is rejected
BLOCK_SUM = 1e-10  # a box block whose sum is farther than this from 1 is rejected
NO_SIGNALLING = 1e-10  # max marginal discrepancy accepted as no-signalling
SECTION_CONSISTENT = 1e-10  # max L1 restriction distance of a consistent section
INFEASIBLE_RESIDUAL = 1e-4  # residual floor, from the vertex LP or a PPT witness, above this: INFEASIBLE
FEASIBLE_RESIDUAL = 1e-8  # LP residual at or below this, on a product-positive t: FEASIBLE
EXTENSION_ROUNDS = 5  # see-saw rounds of quantum_extension before it answers AMBIGUOUS
DECOMPOSITION_STEPS = 3000  # budget of the decomposition search, which stops once ||g|| stalls; no verdict

# CLI verdicts with no library check behind them (cli).
ROUND_TRIP = 1e-8  # max Frobenius distance of a reconstruction from its source operator
HOLDOUT_RESIDUAL = 1e-6  # max in-sample residual of a reconstruction on its product grid
TSIRELSON_SLACK = 1e-8  # how far a CHSH value may exceed 2 sqrt(2)
LP_MONOTONE = 1e-9  # how far a max_chsh_lp bound may exceed the one before it
LP_CHSH_BOUND = 3.2  # the final max_chsh_lp bound must fall below this (2 sqrt(2) < it < 4)
