"""Finite families of product measurement contexts and global sections.

A context is a PVM; product contexts pair one PVM per site and are ordered
by coarse-graining on each side.  A section assigns one outcome distribution
to each context in a family; consistency means every distribution restricts
correctly along every refinement edge.  Cross-site edges (coarsening one
side to the trivial measurement) encode exactly the no-signalling
constraints, so a signalling frame function shows up here as a failed edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .linalg import HermitianOperator, ValidationError, canonical_phase, make_rng, proj, random_onbs


@dataclass(frozen=True)
class Context:
    """A PVM: mutually orthogonal projectors summing to identity."""

    projectors: tuple
    label: str

    def __post_init__(self):
        projs = tuple(np.asarray(p, dtype=complex) for p in self.projectors)
        d = projs[0].shape[0]
        total = np.zeros((d, d), dtype=complex)
        for i, p in enumerate(projs):
            if np.max(np.abs(p - p.conj().T)) > tol.PVM:
                raise ValidationError(f"projector {i} not Hermitian")
            if np.max(np.abs(p @ p - p)) > tol.PVM:
                raise ValidationError(f"projector {i} not idempotent")
            for q in projs[:i]:
                if np.max(np.abs(p @ q)) > tol.PVM:
                    raise ValidationError("projectors not mutually orthogonal")
            total += p
        if np.max(np.abs(total - np.eye(d))) > tol.PVM:
            raise ValidationError("projectors do not sum to identity")
        object.__setattr__(self, "projectors", projs)

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.projectors)

    def coarse_grain(self, groups, label: str) -> "Context":
        """Merge outcome groups (a partition of outcome indices)."""
        flat = [i for g in groups for i in g]
        if sorted(flat) != list(range(self.n_outcomes)):
            raise ValidationError("groups must partition the outcomes")
        projs = tuple(sum(self.projectors[i] for i in g) for g in groups)
        return Context(projs, label)


def rank1_context(basis: np.ndarray, label: str) -> Context:
    """Rank-1 PVM from an orthonormal basis given as columns."""
    return Context(tuple(proj(basis[:, k]) for k in range(basis.shape[1])), label)


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

    ``left_groups`` / ``right_groups`` list, for each coarse outcome, the
    fine outcomes it aggregates.  Validated against the projectors.
    """

    coarse: ProductContext
    fine: ProductContext
    left_groups: tuple
    right_groups: tuple

    def __post_init__(self):
        for side, groups, coarse_ctx, fine_ctx in (
            ("left", self.left_groups, self.coarse.left, self.fine.left),
            ("right", self.right_groups, self.coarse.right, self.fine.right),
        ):
            flat = [i for g in groups for i in g]
            if sorted(flat) != list(range(fine_ctx.n_outcomes)):
                raise ValidationError(f"{side} aggregation is not a partition")
            if len(groups) != coarse_ctx.n_outcomes:
                raise ValidationError(f"{side} aggregation group count mismatch")
            for k, g in enumerate(groups):
                summed = sum(fine_ctx.projectors[i] for i in g)
                if np.max(np.abs(summed - coarse_ctx.projectors[k])) > tol.COARSE_GRAIN:
                    raise ValidationError(
                        f"{side} coarse projector {k} is not the sum of its fine ones"
                    )


def restrict(dist: np.ndarray, edge: RefinementEdge) -> np.ndarray:
    """Sum a fine-context distribution into the coarse context's outcomes."""
    dist = np.asarray(dist, dtype=float)
    if dist.shape != edge.fine.shape:
        raise ValidationError(
            f"distribution shape {dist.shape} does not live on the fine context"
        )
    out = np.zeros(edge.coarse.shape)
    for i, gl in enumerate(edge.left_groups):
        for j, gr in enumerate(edge.right_groups):
            out[i, j] = dist[np.ix_(list(gl), list(gr))].sum()
    return out


@dataclass(frozen=True)
class SectionTable:
    """One outcome distribution per product context, keyed by label."""

    contexts: tuple
    distributions: dict  # label -> ndarray

    def __getitem__(self, ctx: ProductContext) -> np.ndarray:
        return self.distributions[ctx.label]

    def to_json(self) -> dict:
        return {lbl: d.tolist() for lbl, d in self.distributions.items()}


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
                      np.array(ctx.left.projectors), np.array(ctx.right.projectors)).real
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
        left, right = (canonical_phase(np.array([_rank1_vector(p) for p in c.projectors]))
                       for c in (ctx.left, ctx.right))
        stacks = [np.repeat(left, len(right), axis=0), np.tile(right, (len(left), 1))]
        dists[ctx.label] = f.values(stacks).reshape(ctx.shape)
    return SectionTable(family, dists)


def _rank1_vector(p: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(p)
    if abs(vals[-1] - 1.0) > tol.RANK_ONE or (len(vals) > 1 and vals[-2] > tol.RANK_ONE):
        raise ValidationError("projector is not rank-1")
    return vecs[:, -1]


@dataclass(frozen=True)
class ConsistencyReport:
    max_distance: float
    worst_edge: str | None

    @property
    def passed(self) -> bool:
        return self.max_distance <= tol.SECTION_CONSISTENT


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
    d1, d2 = dims
    left, right = random_onbs(make_rng(seed), dims, n_fine)
    contexts, edges = [], []
    for k in range(n_fine):
        lb = rank1_context(left[k], f"L{k}")
        rb = rank1_context(right[k], f"R{k}")
        fine = ProductContext(lb, rb)
        contexts.append(fine)
        groups_l = ((0, 1),) + tuple((i,) for i in range(2, d1))
        groups_r = ((0, 1),) + tuple((i,) for i in range(2, d2))
        full_l = tuple((i,) for i in range(d1))
        full_r = tuple((i,) for i in range(d2))
        coarse_left = ProductContext(lb.coarse_grain(groups_l, f"L{k}c"), rb)
        coarse_right = ProductContext(lb, rb.coarse_grain(groups_r, f"R{k}c"))
        contexts.extend([coarse_left, coarse_right])
        edges.append(RefinementEdge(coarse_left, fine, groups_l, full_r))
        edges.append(RefinementEdge(coarse_right, fine, full_l, groups_r))
    return contexts, edges
