"""Finite families of product measurement contexts and global sections.

A context is a PVM held as one (n, d, d) projector stack; product contexts
pair one per site, ordered by coarse-graining.  A refinement edge keeps a 0/1
aggregation matrix A per site: the coarse stack is A @ fine, and restriction
is A_L @ dist @ A_R^T.  A section assigns an outcome distribution to each
context and is consistent when every one restricts correctly along every
edge.  Cross-site edges (coarsening one side to the trivial measurement) are
exactly the no-signalling constraints: a signalling frame function fails one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tolerances as tol
from .linalg import (HermitianOperator, ValidationError, basis_products, canonical_phase, make_rng,
                     random_onbs)


@dataclass(frozen=True)
class Context:
    """A PVM: a read-only (n, d, d) stack of mutually orthogonal projectors summing to identity."""

    projectors: np.ndarray
    label: str

    def __post_init__(self):
        p = np.array(self.projectors, dtype=complex)
        p.flags.writeable = False
        if p.ndim != 3 or p.shape[1] != p.shape[2]:
            raise ValidationError(f"projectors of shape {p.shape} are not an (n, d, d) stack")
        not_hermitian = np.abs(p - p.conj().swapaxes(1, 2)).max(axis=(1, 2)) > tol.PVM
        if not_hermitian.any():
            raise ValidationError(f"projector {np.argmax(not_hermitian)} not Hermitian")
        # P_a P_b = delta_ab P_a: idempotent on the diagonal, orthogonal off it.
        eye = np.eye(len(p))[:, :, None, None]
        bad_products = np.abs(np.einsum("aij,bjk->abik", p, p) - eye * p).max(axis=(2, 3)) > tol.PVM
        if np.diagonal(bad_products).any():
            raise ValidationError(f"projector {np.argmax(np.diagonal(bad_products))} not idempotent")
        if bad_products.any():
            raise ValidationError("projectors not mutually orthogonal")
        if np.abs(p.sum(axis=0) - np.eye(p.shape[-1])).max() > tol.PVM:
            raise ValidationError("projectors do not sum to identity")
        object.__setattr__(self, "projectors", p)

    @property
    def n_outcomes(self) -> int:
        return len(self.projectors)

    def coarse_grain(self, groups, label: str) -> "Context":
        """Merge outcome groups (a partition of outcome indices)."""
        a = _aggregation(groups, self.n_outcomes, len(groups), "grouping")
        return Context(np.einsum("kf,fij->kij", a, self.projectors), label)


def _aggregation(groups, n_fine: int, n_coarse: int, name: str) -> np.ndarray:
    """0/1 matrix A, A[k, i] = 1 iff group k holds outcome i, of groups partitioning range(n_fine)."""
    flat = [i for g in groups for i in g]
    if sorted(flat) != list(range(n_fine)):
        raise ValidationError(f"{name} is not a partition")
    if len(groups) != n_coarse:
        raise ValidationError(f"{name} group count mismatch")
    a = np.zeros((n_coarse, n_fine))
    a[np.repeat(np.arange(n_coarse), [len(g) for g in groups]), flat] = 1.0
    return a


def rank1_context(basis: np.ndarray, label: str) -> Context:
    """Rank-1 PVM from an orthonormal basis given as columns."""
    b = np.asarray(basis, dtype=complex).T  # outer products as proj forms them, to the bit
    return Context(b[:, :, None] * b.conj()[:, None, :], label)


@dataclass(frozen=True)
class ProductContext:
    left: Context
    right: Context

    @property
    def label(self) -> str:
        return f"{self.left.label}|{self.right.label}"

    @property
    def shape(self) -> tuple:
        return (self.left.n_outcomes, self.right.n_outcomes)


@dataclass(frozen=True)
class RefinementEdge:
    """fine -> coarse, with per-site outcome aggregation maps.

    ``left_groups`` / ``right_groups`` list, for each coarse outcome, the fine
    outcomes it aggregates; ``left_aggregation`` / ``right_aggregation`` hold them
    as 0/1 matrices, which must sum the fine projectors into the coarse ones.
    """

    coarse: ProductContext
    fine: ProductContext
    left_groups: tuple
    right_groups: tuple
    left_aggregation: np.ndarray = field(init=False, repr=False, compare=False)
    right_aggregation: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for side in ("left", "right"):
            fine, coarse = getattr(self.fine, side), getattr(self.coarse, side)
            a = _aggregation(getattr(self, f"{side}_groups"), fine.n_outcomes, coarse.n_outcomes,
                             f"{side} aggregation")
            summed = np.einsum("kf,fij->kij", a, fine.projectors)
            wrong = np.abs(summed - coarse.projectors).max(axis=(1, 2)) > tol.COARSE_GRAIN
            if wrong.any():
                k = np.argmax(wrong)
                raise ValidationError(f"{side} coarse projector {k} is not the sum of its fine ones")
            object.__setattr__(self, f"{side}_aggregation", a)


def restrict(dist: np.ndarray, edge: RefinementEdge) -> np.ndarray:
    """Sum a fine-context distribution into the coarse context's outcomes."""
    dist = np.asarray(dist, dtype=float)
    if dist.shape != edge.fine.shape:
        raise ValidationError(
            f"distribution shape {dist.shape} does not live on the fine context"
        )
    return edge.left_aggregation @ dist @ edge.right_aggregation.T


@dataclass(frozen=True)
class SectionTable:
    """One outcome distribution per product context, keyed by label."""

    contexts: tuple
    distributions: dict  # label -> ndarray

    def __getitem__(self, ctx: ProductContext) -> np.ndarray:
        return self.distributions[ctx.label]


def section_from_operator(t: HermitianOperator, family) -> SectionTable:
    """Tabulate tr(t (p (x) q)) for every context in the family.

    Each table is one contraction of t with the context's projector stacks.
    Entries are not rescaled, so each distribution sums to tr(t).  An entry
    below ``-tolerances.NEGATIVE_PROBABILITY`` raises ValidationError: t is
    not product-positive.
    """
    family = tuple(family)
    dists = {}
    for ctx in family:
        p = np.einsum("abce,ica,jeb->ij", t.mat.reshape(t.dims + t.dims),
                      ctx.left.projectors, ctx.right.projectors).real
        if p.min() < -tol.NEGATIVE_PROBABILITY:
            raise ValidationError(
                f"negative probability {p.min():.3e} in context {ctx.label}: "
                "operator is not product-positive within tolerance"
            )
        dists[ctx.label] = p
    return SectionTable(family, dists)


def section_from_framefn(f, family) -> SectionTable:
    """Tabulate a frame function over rank-1 product contexts.

    Each context's PVMs must be rank-1 so that outcomes correspond to
    product states.  Outcome (i, j) is the state of the i-th left and j-th
    right vector, phased as ProductState phases it; each context takes one
    ``f.values`` call on the stacks of its outcome states.  For coarser
    contexts, build the coarse distribution by hand (e.g. via
    :func:`restrict` from a chosen fine context) — that is exactly where a
    signalling frame function becomes inconsistent.
    """
    family = tuple(family)
    dists = {}
    for ctx in family:
        left, right = (canonical_phase(_rank1_vector(c.projectors)) for c in (ctx.left, ctx.right))
        dists[ctx.label] = f.values(basis_products(left.T, right.T)).reshape(ctx.shape)
    return SectionTable(family, dists)


def _rank1_vector(p: np.ndarray) -> np.ndarray:
    """The unit vector of a rank-1 projector, or one row per projector of an (n, d, d) stack."""
    vals, vecs = np.linalg.eigh(p)
    if (np.abs(vals[..., -1] - 1.0) > tol.RANK_ONE).any() or (vals[..., :-1] > tol.RANK_ONE).any():
        raise ValidationError("projector is not rank-1")
    return vecs[..., -1]


@dataclass(frozen=True)
class ConsistencyReport:
    max_distance: float
    worst_edge: str | None
    tolerance = tol.SECTION_CONSISTENT  # a class constant: the largest max_distance that passes

    @property
    def passed(self) -> bool:
        return self.max_distance <= self.tolerance


def check_section(s: SectionTable, edges) -> ConsistencyReport:
    """Max L1 distance between restricted fine and stored coarse distributions."""
    worst, worst_edge = 0.0, None
    for e in edges:
        if e.fine.label not in s.distributions or e.coarse.label not in s.distributions:
            raise ValidationError(f"edge endpoints missing from section: {e.fine.label} -> {e.coarse.label}")
        d = float(np.sum(np.abs(restrict(s[e.fine], e) - s[e.coarse])))
        if d > worst:
            worst, worst_edge = d, f"{e.fine.label} -> {e.coarse.label}"
    return ConsistencyReport(worst, worst_edge)


def random_context_family(dims, n_fine: int, seed: int = 0):
    """Seeded family of product contexts plus refinement edges.

    For each of ``n_fine`` draws, a rank-1 fine product context is generated
    together with two coarse-grained parents (merging the first two outcomes
    on one site), giving two edges per draw.
    """
    if n_fine < 1:
        raise ValidationError(f"random_context_family needs n_fine >= 1, not {n_fine!r}")
    d1, d2 = dims
    left, right = random_onbs(make_rng(seed), dims, n_fine)
    groups_l = ((0, 1),) + tuple((i,) for i in range(2, d1))
    groups_r = ((0, 1),) + tuple((i,) for i in range(2, d2))
    full_l = tuple((i,) for i in range(d1))
    full_r = tuple((i,) for i in range(d2))
    contexts, edges = [], []
    for k in range(n_fine):
        lb = rank1_context(left[k], f"L{k}")
        rb = rank1_context(right[k], f"R{k}")
        fine = ProductContext(lb, rb)
        contexts.append(fine)
        coarse_left = ProductContext(lb.coarse_grain(groups_l, f"L{k}c"), rb)
        coarse_right = ProductContext(lb, rb.coarse_grain(groups_r, f"R{k}c"))
        contexts.extend([coarse_left, coarse_right])
        edges.append(RefinementEdge(coarse_left, fine, groups_l, full_r))
        edges.append(RefinementEdge(coarse_right, fine, full_l, groups_r))
    return contexts, edges
