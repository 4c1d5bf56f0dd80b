"""Finite families of product measurement contexts and global sections.

A context is a rank-1 PVM held as its orthonormal (d, d) basis, one outcome
per column, and a product context pairs one per site.  A coarse node is a
label only: a refinement edge reaches it from a fine product context by one
0/1 aggregation matrix A per site, and restriction is A_L @ dist @ A_R^T.  A
section is its fine tables, optionally with coarse ones; it is consistent when
every fine parent of a coarse node restricts to the same table (the stored
one, if any).  A node that merges one site to the trivial outcome is a
no-signalling marginal, so a signalling frame function fails a family whose
fine contexts share one.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import tolerances as tol
from .framefn import OperatorInduced
from .linalg import (BitEqual, HermitianOperator, ValidationError, bit_key, is_integer,
                     is_local_basis, make_rng, operator_dims, product_rows, random_onbs)


@dataclass(frozen=True, eq=False)
class Context:
    """A rank-1 PVM: a read-only orthonormal (d, d) basis, one outcome per column;
    equal only to itself (sections look contexts up by label)."""

    basis: np.ndarray
    label: str

    def __post_init__(self):
        b = np.array(self.basis, dtype=complex)
        b.flags.writeable = False
        if b.ndim != 2 or not 0 < b.shape[0] == b.shape[1]:
            raise ValidationError(f"context {self.label}: basis of shape {b.shape} is not (d, d)")
        if not is_local_basis(b):
            raise ValidationError(f"context {self.label}: basis columns are not orthonormal")
        object.__setattr__(self, "basis", b)


@dataclass(frozen=True, eq=False)
class ProductContext:
    left: Context
    right: Context

    @property
    def label(self) -> str:
        return f"{self.left.label}|{self.right.label}"

    @property
    def shape(self) -> tuple:
        return (len(self.left.basis), len(self.right.basis))


@dataclass(frozen=True)
class RefinementEdge:
    """fine -> coarse node, with per-site outcome aggregation maps.

    ``coarse`` is the node's label.  ``left_groups`` / ``right_groups`` list,
    for each coarse outcome, the fine outcomes it aggregates: a partition of
    the fine context's outcomes on that site.  ``left_aggregation`` /
    ``right_aggregation`` hold them as read-only 0/1 matrices, A[k, i] = 1 iff
    group k holds outcome i, one array shared by every edge with that grouping.
    """

    fine: ProductContext
    coarse: str
    left_groups: tuple
    right_groups: tuple
    left_aggregation: np.ndarray = field(init=False, repr=False, compare=False)
    right_aggregation: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for side, n_fine in zip(("left", "right"), self.fine.shape):
            groups = getattr(self, f"{side}_groups")
            a = _aggregation(tuple(tuple(map(operator.index, g)) for g in groups), n_fine)
            if a is None:
                raise ValidationError(f"{side} aggregation is not a partition")
            object.__setattr__(self, f"{side}_aggregation", a)


@lru_cache(maxsize=1024)
def _aggregation(groups: tuple, n_fine: int) -> np.ndarray | None:
    """The read-only 0/1 matrix A[k, i] = 1 iff group k holds outcome i, shared by
    every edge with this grouping; None if the groups do not partition range(n_fine)."""
    flat = [i for g in groups for i in g]
    if sorted(flat) != list(range(n_fine)):
        return None
    a = np.zeros((len(groups), n_fine))
    a[np.repeat(np.arange(len(groups)), [len(g) for g in groups]), flat] = 1.0
    a.flags.writeable = False
    return a


def restrict(dist: np.ndarray, edge: RefinementEdge) -> np.ndarray:
    """Sum a fine-context distribution into the coarse node's outcomes."""
    return edge.left_aggregation @ _fine_table(dist, edge) @ edge.right_aggregation.T


def _fine_table(dist, edge) -> np.ndarray:
    """dist as the C-contiguous float table that restrict and check_section both restrict;
    ValidationError unless it has the shape of the edge's fine context."""
    dist = np.asarray(dist, dtype=float, order="C")
    if dist.shape != edge.fine.shape:
        raise ValidationError(f"distribution shape {dist.shape} does not live on the fine context")
    return dist


@dataclass(frozen=True, eq=False)
class SectionTable(BitEqual):
    """One outcome distribution per product context, keyed by label.

    Coarse nodes need no entry; one stored under a node's label is the table
    its fine parents must restrict to.  Sections compare and hash bit for bit:
    the same contexts (each equal only to itself) and equal tables.
    """

    contexts: tuple
    distributions: dict  # label -> ndarray

    def _key(self) -> tuple:
        return bit_key((self.contexts, self.distributions))

    def __getitem__(self, ctx: ProductContext) -> np.ndarray:
        return self.distributions[ctx.label]


def _check_dims(family, dims, owner) -> tuple:
    """The family as a tuple; ValidationError naming the first context not of these dims."""
    for ctx in (family := tuple(family)):
        if ctx.shape != tuple(dims):
            raise ValidationError(f"context {ctx.label} has dims {ctx.shape}, not {owner} {dims}")
    return family


def section_from_operator(t: HermitianOperator, family) -> SectionTable:
    """Tabulate <u_i (x) v_j|t|u_i (x) v_j> for every context (u, v) in the family.

    The section of the frame function t induces (:func:`section_from_framefn`).
    Entries are not rescaled, so each distribution sums to tr(t).  An entry
    below ``-tolerances.NEGATIVE_PROBABILITY`` raises ValidationError naming the
    first such context: t is not product-positive.
    """
    family = _check_dims(family, t.dims, "the operator's")
    values = _tabulate(OperatorInduced(t), family)
    mins = values.min(axis=(1, 2), initial=np.inf)
    if (bad := np.flatnonzero(mins < -tol.NEGATIVE_PROBABILITY)).size:
        raise ValidationError(f"negative probability {mins[bad[0]]:.3e} in context "
                              f"{family[bad[0]].label}: operator is not product-positive "
                              "within tolerance")
    return _section(family, values)


def section_from_framefn(f, family) -> SectionTable:
    """Tabulate a frame function over product contexts.

    Outcome (i, j) is the state of the i-th left and j-th right basis column,
    as given; one ``f.values`` call on the stacked outcome states of the
    whole family gives every entry.  Coarse nodes need no table:
    :func:`check_section` compares the restrictions of a node's fine parents,
    which is where a signalling frame function becomes inconsistent.
    """
    family = _check_dims(family, f.dims, "the frame function's")
    return _section(family, _tabulate(f, family))


def _tabulate(f, family: tuple) -> np.ndarray:
    """The (C, d1, d2) stack of the family's outcome tables, from one ``f.values`` call."""
    if not family:
        return np.zeros((0, 0, 0))
    # Per site, the (C, d, d) stack of the family's bases, outcome vectors as rows.
    local = [np.array([c.basis.T for c in site])
             for site in zip(*((ctx.left, ctx.right) for ctx in family))]
    return f.values(product_rows(local)).reshape((len(family),) + family[0].shape)


def _section(family: tuple, values: np.ndarray) -> SectionTable:
    return SectionTable(family, {ctx.label: p for ctx, p in zip(family, values)})


@dataclass(frozen=True)
class ConsistencyReport:
    max_distance: float
    worst_edge: str | None
    tolerance = tol.SECTION_CONSISTENT  # a class constant: the largest max_distance that passes

    @property
    def passed(self) -> bool:
        return self.max_distance <= self.tolerance


def check_section(s: SectionTable, edges) -> ConsistencyReport:
    """Max L1 distance of a fine parent's restriction from its coarse node's reference.

    The reference is the node's stored table if the section has one, else the
    restriction of the node's first parent in edge order.  The edges that share
    a pair of aggregation maps are restricted in one stacked product, each as
    :func:`restrict` restricts it alone.  The worst edge is the first of greatest
    distance; a distance that is not finite (from a NaN or inf entry) makes
    ``max_distance`` NaN, which fails, and names the first such edge.
    """
    edges = tuple(edges)
    fine, nodes, groups = [], {}, {}
    for k, e in enumerate(edges):  # every check, in edge order
        if (label := e.fine.label) not in s.distributions:
            raise ValidationError(f"edge source missing from section: {_edge_name(e)}")
        fine.append(_fine_table(s.distributions[label], e))
        a, b = e.left_aggregation, e.right_aggregation
        shape = (a.shape[0], b.shape[0])
        _, node_shape = nodes.setdefault(
            e.coarse, (k, np.shape(s.distributions[e.coarse]) if e.coarse in s.distributions
                       else shape))
        if node_shape != shape:
            raise ValidationError(f"{label} restricts to shape {shape}, but node "
                                  f"{e.coarse} has shape {node_shape}")
        groups.setdefault((id(a), id(b)), (a, b, []))[2].append(k)
    dist = np.zeros(len(edges))
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite distance is reported
        stacks = [(ks, a @ np.stack([fine[k] for k in ks]) @ b.T) for a, b, ks in groups.values()]
        restricted = {k: r for ks, out in stacks for k, r in zip(ks, out)}
        for ks, out in stacks:
            refs = np.array([s.distributions[c] if (c := edges[k].coarse) in s.distributions
                             else restricted[nodes[c][0]] for k in ks])
            dist[ks] = np.abs(out - refs).reshape(len(ks), -1).sum(axis=1)
    if (bad := ~np.isfinite(dist)).any():
        return ConsistencyReport(np.nan, _edge_name(edges[np.argmax(bad)]))
    if not dist.any():
        return ConsistencyReport(0.0, None)
    k = int(np.argmax(dist))
    return ConsistencyReport(float(dist[k]), _edge_name(edges[k]))


def _edge_name(e) -> str:
    return f"{e.fine.label} -> {e.coarse}"


def random_context_family(dims, n_fine: int, seed: int = 0):
    """Seeded chain of rank-1 product contexts that share their coarse nodes.

    Draws ``n_fine`` left bases L_k and ``n_fine + 1`` right bases R_j, and
    returns the fine contexts (L_k, R_k) and (L_k, R_k+1), each with one edge
    to "L_k|·" (its right outcome forgotten) and one to "·|R_j" (its left
    outcome forgotten): 2 ``n_fine`` contexts and 4 ``n_fine`` edges.  These
    nodes are no-signalling marginals, and all but the chain's two ends have
    two fine parents.  Each site's drawn stack is checked once, as ``Context``
    checks a basis, and the contexts and edges are built on the stacks.
    """
    if len(dims) != 2:
        raise ValidationError(f"context families need two sites, not dims {tuple(dims)}")
    dims = operator_dims(dims)
    if not is_integer(n_fine) or n_fine < 1:
        raise ValidationError(f"random_context_family needs an integer n_fine >= 1, not {n_fine!r}")
    left, right = random_onbs(make_rng(seed), dims, n_fine + 1)
    lefts, rights = _contexts("L", left[:n_fine]), _contexts("R", right)
    # The groups of each node kind and their shared maps: "L_k|·" forgets the right
    # outcome, "·|R_j" the left one.
    full, one = [tuple((i,) for i in range(d)) for d in dims], [(tuple(range(d)),) for d in dims]
    kinds = [(groups, [_aggregation(g, d) for g, d in zip(groups, dims)])
             for groups in ((full[0], one[1]), (one[0], full[1]))]
    contexts, edges = [], []
    for k, lb in enumerate(lefts):
        for rb in rights[k:k + 2]:
            fine = ProductContext(lb, rb)
            contexts.append(fine)
            for coarse, (groups, maps) in zip((f"{lb.label}|·", f"·|{rb.label}"), kinds):
                edges.append(_trusted(RefinementEdge, fine=fine, coarse=coarse,
                                      left_groups=groups[0], right_groups=groups[1],
                                      left_aggregation=maps[0], right_aggregation=maps[1]))
    return contexts, edges


def _contexts(name: str, stack: np.ndarray) -> list:
    """Contexts name0, name1, ... on the read-only bases of an (n, d, d) stack."""
    if not (ok := is_local_basis(stack)).all():
        raise ValidationError(f"context {name}{np.argmin(ok)}: basis columns are not orthonormal")
    stack.flags.writeable = False
    return [_trusted(Context, basis=b, label=f"{name}{k}") for k, b in enumerate(stack)]


def _trusted(cls, **fields):
    """An instance of a frozen dataclass holding these fields, built without its
    ``__post_init__`` checks, which the caller has made."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj
