"""Product, unentangled, and twisted product bases.

An *unentangled basis* is an orthonormal basis of the full space all of whose
elements are product states.  A *twisted product basis* is one reachable from
a plain product basis by a sequence of local two-element rotations (twist
moves).  This module applies and searches such moves, and ships the
nine-element C3 x C3 worked example together with its four-move certificate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from . import tolerances as tol
from .linalg import (
    BitEqual,
    ProductState,
    ValidationError,
    _first_rows,
    _phased_classes,
    _rows_as_states,
    bit_key,
    canonical_phase,
    check_unit_rows,
    complex_from_json,
    complex_to_json,
    is_integer,
    is_local_basis,
    product_rows,
    unit_rows,
)


def _byte_classes(f: np.ndarray) -> np.ndarray:
    """Each row's class of bit-equal rows of an (N, d) stack, numbered in byte order: one
    np.unique over the rows, each viewed as one void scalar."""
    keys = np.ascontiguousarray(f).view(np.dtype((np.void, f.itemsize * f.shape[1]))).ravel()
    return np.unique(keys, return_inverse=True)[1].reshape(-1)


@dataclass(frozen=True, eq=False)
class UnentangledBasis(BitEqual):
    """An orthonormal basis consisting of product states, held as per-site
    (N, d_s) read-only stacks of unit factors with canonical phase: element k
    is row k of each stack, normalised as ProductState is (each row its own
    factor, or per site ``(factors, ids)`` by ``_from_classes``)."""

    stacks: tuple

    def __post_init__(self):
        self._set_classes(self.stacks)

    @classmethod
    def _from_classes(cls, classes) -> "UnentangledBasis":
        """The basis whose site s row r is ``factors[ids[r]]``, per site ``(factors, ids)``."""
        b = object.__new__(cls)
        b._set_classes([f for f, _ in classes], [ids for _, ids in classes])
        return b

    def _set_classes(self, factors, ids=None) -> None:
        """Site s holds ``factors[s][ids[s]]``, normalised by :func:`_phased_classes`.  A
        site's classes are np.unique's on its phased factors, one sort a site
        (:func:`_byte_classes`): this joins those that phasing made bit-equal (such as
        e_0 and -e_0), and :meth:`_hold` drops the classes no row holds."""
        phased, stacks = _phased_classes(factors, ids)
        if not stacks or not len(stacks[0]):
            raise ValidationError("empty basis")
        classes = [_byte_classes(f) for f in phased]
        self._hold(stacks, [c[i] for c, i in zip(classes, ids)] if ids else classes)

    def _hold(self, stacks, classes) -> "UnentangledBasis":
        """Hold the phased ``stacks``, made read-only, and per site ``ids``: each row's
        class, the classes no row holds dropped and the others numbered in order (the
        bit-equal rows' classes in byte order), and each class's ``first`` row."""
        site_classes = []
        for f, ids in zip(stacks, classes):
            f.setflags(write=False)
            ids = (np.cumsum(np.bincount(ids) > 0) - 1)[ids]
            site_classes.append((ids, _first_rows(ids, int(ids.max()) + 1)))
        object.__setattr__(self, "stacks", tuple(stacks))
        object.__setattr__(self, "_site_classes", site_classes)
        return self

    @classmethod
    def from_elements(cls, elements) -> "UnentangledBasis":
        """The basis of a sequence of ProductStates or factor tuples."""
        facs = [e.factors if isinstance(e, ProductState) else tuple(e) for e in elements]
        try:  # on factors of different lengths, or numbers of sites (zip is strict)
            stacks = [np.array(f, dtype=complex) for f in zip(*facs, strict=True)]
        except ValueError:
            raise ValidationError("inconsistent dims across basis elements") from None
        return cls(stacks)

    @cached_property
    def elements(self) -> tuple:
        """The ProductStates of the rows, built on first use."""
        return _rows_as_states(self.stacks)

    @cached_property
    def _classes(self) -> list:
        """Per site stack f: each row's class ``ids`` of bit-equal factors and each
        class's ``first`` row, found at construction, and, built on first use,
        ``rows`` = |f[first]^* f^T|, the k distinct rows of the N x N overlap
        matrix: ``rows[ids]`` is that matrix bit for bit."""
        return [(ids, first, np.abs(f[first].conj() @ f.T))
                for f, (ids, first) in zip(self.stacks, self._site_classes)]

    def _key(self) -> tuple:
        return bit_key(self.stacks)

    @property
    def dims(self) -> tuple:
        return tuple(f.shape[1] for f in self.stacks)

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    def to_json(self) -> dict:
        sites = [complex_to_json(f) for f in self.stacks]
        return {
            "dims": list(self.dims),
            "elements": [{"factors": list(facs)} for facs in zip(*sites)],
        }

    @classmethod
    def from_json(cls, data: dict) -> "UnentangledBasis":
        elems = [e["factors"] for e in data["elements"]]
        if len(set(map(len, elems))) > 1:
            raise ValidationError("inconsistent dims across basis elements")
        return cls([complex_from_json(site, 2) for site in zip(*elems)])


def product_basis(local_bases) -> UnentangledBasis:
    """The product basis of per-site orthonormal bases, site s's d_s vectors the rows
    of ``local_bases[s]``: every product of one vector per site, site 0 major."""
    local = [np.asarray(lb, dtype=complex) for lb in local_bases]
    for lb in local:
        d = lb.shape[-1] if lb.ndim else 0  # vectors lie along the last axis
        n = lb.size // d if d else 0
        if lb.ndim != 2 or n != d or not n:
            raise ValidationError(f"local basis has {n} vectors in dim {d}")
        if not is_local_basis(lb.T):  # before phasing, which divides by a lead
            raise ValidationError("local basis Gram matrix deviates from identity")
    grid = product_rows([np.arange(len(lb))[:, None] for lb in local])  # each row's indices
    return UnentangledBasis._from_classes([(lb, g[:, 0]) for lb, g in zip(local, grid)])


@dataclass(frozen=True)
class BasisReport:
    """Validation report for an unentangled basis."""

    is_valid: bool
    complete: bool
    worst_overlap: float
    worst_pair: tuple | None
    tolerance = tol.ORTHO_PAIR  # a class constant: the largest pair overlap that passes


_BLOCK = 1 << 16  # the pair checks take this many pairs at a time


def _class_counts(b: UnentangledBasis, marked):
    """Yield (r, counts) a block of rows at a time: counts[i, k] is the number
    of sites whose class rows are ``marked`` (a boolean function of the k x N
    rows) at element r + i's row and element r + 1 + k's column; k < i is no
    pair.  One product of 0/1 matrices (one-hot classes, stacked marks), so
    the counts are exact in float32."""
    n = len(b.stacks[0])
    none = [np.zeros((0, n))]
    one_hot = np.concatenate(none + [np.arange(len(first))[:, None] == ids
                                     for ids, first, _ in b._classes], dtype=np.float32).T
    marks = np.concatenate(none + [marked(rows) for _, _, rows in b._classes], dtype=np.float32)
    used = marks.any(axis=1)  # a class marked nowhere adds nothing
    one_hot, marks = one_hot[:, used], marks[used]
    step = max(1, _BLOCK // n)
    for r in range(0, n - 1, step):
        yield r, one_hot[r:r + step] @ marks[:, r + 1:]


def validate_unentangled(b: UnentangledBasis) -> BasisReport:
    """Check pairwise orthogonality (factorwise) and completeness.

    A block of rows at a time, each pair i < j multiplies its site overlaps,
    gathered from each site's class rows, never via full D-dimensional
    vectors.  A block in which :func:`_class_counts` finds a site overlap of
    exactly 0.0 for every pair skips the products: each is exactly 0.0.
    """
    worst, worst_pair = 0.0, None
    for r, zeros in _class_counts(b, lambda rows: rows == 0.0):
        below = np.tri(*zeros[:, :len(zeros)].shape, -1, dtype=bool)  # entries k < i: no pairs
        zeros[:, :len(zeros)] += below  # so that only pairs i < j can stop the skip
        if (zeros >= 1).all():  # every product here is 0.0, the first at (r, r + 1)
            worst_pair = worst_pair or (r, r + 1)
            continue
        total = np.ones(zeros.shape)
        for ids, _, rows in b._classes:
            total *= rows[:, r + 1:][ids[r:r + len(total)]]
        total[:, :len(total)][below] = -1.0  # pairs i < j are read in row-major order
        i, k = divmod(int(np.argmax(total)), total.shape[1])
        if worst_pair is None or total[i, k] > worst:
            worst, worst_pair = float(total[i, k]), (r + i, r + 1 + k)
    complete = len(b.stacks[0]) == b.dim
    return BasisReport(complete and worst <= BasisReport.tolerance, complete, worst, worst_pair)


@dataclass(frozen=True, eq=False)
class TwistMove(BitEqual):
    """Rotate two basis elements inside a 2-dim subspace at one site.

    The two referenced elements must agree on every factor except ``site``;
    there their factors span the 2-dim local subspace the rotation acts on.
    """

    site: int
    pair: tuple
    rotation: np.ndarray  # 2x2 unitary

    def __post_init__(self):
        u = np.asarray(self.rotation, dtype=complex)
        if u.shape != (2, 2):
            raise ValidationError("rotation must be 2x2")
        if np.max(np.abs(u.conj().T @ u - np.eye(2))) > tol.UNITARY:
            raise ValidationError("rotation is not unitary within tolerance")
        u.setflags(write=False)
        object.__setattr__(self, "rotation", u)
        object.__setattr__(self, "pair", (int(self.pair[0]), int(self.pair[1])))

    def _key(self) -> tuple:
        return int(self.site), self.pair, bit_key([self.rotation])

    def to_json(self) -> dict:
        return {
            "site": self.site,
            "pair": list(self.pair),
            "rotation": complex_to_json(self.rotation),
        }


def _check_twist_pair(b: UnentangledBasis, site: int, i: int, j: int) -> str | None:
    """Why elements i and j admit no twist move at ``site``, or None: they must
    agree on every factor but ``site``, and be orthogonal there."""
    if any(abs(np.vdot(f[i], f[j])) < 1 - tol.SAME_FACTOR
           for s, f in enumerate(b.stacks) if s != site):
        return f"elements {i},{j} do not agree on all factors except site {site}"
    if abs(np.vdot(b.stacks[site][i], b.stacks[site][j])) > tol.ORTHO_PAIR:
        return "pair factors at the twist site are not orthogonal"
    return None


def apply_twist(b: UnentangledBasis, m: TwistMove) -> UnentangledBasis:
    """Apply a twist move; all elements except the referenced pair are unchanged.

    Edits copies of the stacks: at the twist site rows i and j take the rotated
    factors, unit-checked in element order and phased, and at every other site
    row j takes row i's factor, which agrees with it up to phase, and its class.
    Only the twist site's classes are sorted again, so the basis equals, bit for
    bit, the constructor's on the edited stacks (phasing twice changes no bit).
    """
    i, j = m.pair
    if fault := _check_twist_pair(b, m.site, i, j):
        raise ValidationError(fault)
    u, v = b.stacks[m.site][i], b.stacks[m.site][j]
    new = np.array([x * u + y * v for x, y in m.rotation])  # rotation rows 0, 1 give elements i, j
    check_unit_rows([new], [m.pair])
    stacks, classes = [f.copy() for f in b.stacks], [ids.copy() for ids, _ in b._site_classes]
    for f, ids in zip(stacks, classes):
        f[j], ids[j] = f[i], ids[i]
    stacks[m.site][[i, j]] = canonical_phase(new)
    classes[m.site] = _byte_classes(stacks[m.site])
    return object.__new__(UnentangledBasis)._hold(stacks, classes)


def _local_pairs(b: UnentangledBasis, sites: bool = False) -> tuple:
    """The local pairs as (i, j) index arrays, i < j in row-major order, and with
    ``sites`` first the array of the site where each pair differs.  Each pair's
    count of differing sites (|<f|g>| < 1 - SAME_FACTOR) is read from one one-hot
    product over the site classes (:func:`_class_counts`), a block of rows at a
    time, so no N x N overlap matrix is formed."""
    found = [np.zeros((2, 0), int)]
    for r, n_diff in _class_counts(b, lambda rows: rows < 1 - tol.SAME_FACTOR):
        i, k = divmod(np.flatnonzero(n_diff == 1), n_diff.shape[1])
        found.append([r + i[k >= i], r + 1 + k[k >= i]])
    i, j = np.concatenate(found, axis=1)
    if not sites:
        return i, j
    site = np.argmax([rows[ids[i], j] < 1 - tol.SAME_FACTOR for ids, _, rows in b._classes],
                     axis=0)
    return site, i, j


def find_local_pairs(b: UnentangledBasis) -> list:
    """All (site, (i, j)) pairs differing in exactly one tensor factor.

    These are the 2-dim local subspaces a twist move can act on.  Exhaustive
    over element pairs, listed with i < j in row-major order: the index arrays
    of :func:`_local_pairs` as a list.
    """
    site, i, j = _local_pairs(b, sites=True)
    return list(zip(site.tolist(), zip(i.tolist(), j.tolist())))


@dataclass(frozen=True, eq=False)
class TwistCertificate(BitEqual):
    """A replayable move sequence from an unentangled basis to a product basis."""

    moves: tuple
    initial: UnentangledBasis
    final: tuple  # per site: the read-only (d_s, d_s) local basis reached, vectors as rows

    def _key(self) -> tuple:
        return self.moves, self.initial, bit_key(self.final)

    def walk(self):
        """Apply the moves in order, yielding each intermediate basis."""
        b = self.initial
        for m in self.moves:
            b = apply_twist(b, m)
            yield b

    def replay(self) -> bool:
        """Walk the moves, then match the elements reached with the product basis of
        ``final`` up to phase: as many of each, and every element reached has one
        |<e|g>| = prod_s |F_s^* G_s^T| above 1 - REPLAY_MATCH (F, G their stacks)."""
        b = reduce(apply_twist, self.moves, self.initial)
        final = product_basis(self.final).stacks
        ov = reduce(np.multiply, (np.abs(f.conj() @ g.T) for f, g in zip(b.stacks, final)))
        return ov.shape[0] == ov.shape[1] and bool((ov > 1 - tol.REPLAY_MATCH).any(axis=1).all())

    def to_json(self) -> dict:
        return {
            "moves": [m.to_json() for m in self.moves],
            "initial": self.initial.to_json(),
            "final": [complex_to_json(lb) for lb in self.final],
        }


@dataclass(frozen=True)
class SearchResult:
    found: bool
    certificate: TwistCertificate | None
    reason: str = ""
    moves_tried: int = 0


def _as_product_basis(b: UnentangledBasis) -> tuple | None:
    """Recognize a basis whose elements form a full product grid: each site's
    factors, in element order, join the first earlier representative they
    match (|<f|r>| > 1 - SAME_FACTOR) or become one.  Bit-equal factors join
    the same one, so one factor of each class of bit-equal factors is matched,
    classes in order of first occurrence.  Returns each site's representatives
    as the rows of a read-only local basis, or None."""
    reps, signatures = [], []
    for stack, (ids, first) in zip(b.stacks, b._site_classes):
        reps.append([])
        joins = np.zeros(len(first), int)
        for c in np.argsort(first):
            k = next((k for k, r in enumerate(reps[-1])
                      if abs(np.vdot(stack[first[c]], r)) > 1 - tol.SAME_FACTOR), len(reps[-1]))
            if k == len(reps[-1]):
                reps[-1].append(stack[first[c]])
            joins[c] = k
        signatures.append(joins[ids])
    n = len(b.stacks[0])
    signatures = set(zip(*(s.tolist() for s in signatures)))
    if n != b.dim or tuple(map(len, reps)) != b.dims or len(signatures) != n:
        return None
    local = tuple(np.array(r) for r in reps)
    for lb in local:
        lb.setflags(write=False)
    return local if all(is_local_basis(lb.T) for lb in local) else None


def _aligned(ov: np.ndarray) -> np.ndarray:
    """Which |overlaps| belong to factors that are equal or orthogonal."""
    return (ov > 1 - tol.SAME_FACTOR) | (ov < tol.ORTHO_PAIR)


def _rotation_to_target(u: np.ndarray, v: np.ndarray, g: np.ndarray) -> tuple:
    """2x2 unitaries sending (u, v) to (g, g_perp) inside span{u, v}, one per
    target row of ``g`` (u and v broadcast against it), and which targets lie in
    that span; the others get a zero matrix.  Each overlap is a product summed
    over the last axis, so a row's bits do not depend on how many rows it has."""
    a, c = (np.sum(w.conj() * g, axis=-1) for w in (u, v))
    ok = np.abs(a) ** 2 + np.abs(c) ** 2 >= 1 - tol.IN_SPAN
    nrm = np.hypot(np.abs(a[ok]), np.abs(c[ok]))  # outside the span, 0/0 could occur
    a, c = a[ok] / nrm, c[ok] / nrm
    rot = np.zeros(ok.shape + (2, 2), dtype=complex)
    # Rows act on the (u, v) pair: new_1 = a*u + c*v = g, new_2 = its complement.
    rot[ok] = np.stack([a, c, -np.conj(c), np.conj(a)], axis=-1).reshape(-1, 2, 2)
    return rot, ok


def _twist_gains(aligned, rows, selfs, site, i, j, new, at_site) -> np.ndarray:
    """Change in the alignment score when elements i and j take the rotated
    factors ``new[k]`` (2, d) at ``site``, one entry per candidate k; site, i
    and j are one move's, or one a candidate.

    ``aligned`` is the current basis's (sites, N, N) stack of aligned slots,
    ``rows`` and ``selfs`` its per-site row counts (diagonal excluded) and
    diagonal, and ``at_site`` its (N, d) factor stack at ``site``, or one a
    candidate.  The counts are integers, so their sums are exact in any order.
    """
    others = np.not_equal.outer(np.arange(len(aligned)), site)
    pair = aligned[:, i, j]
    old = (rows[:, i] + rows[:, j] - pair).sum(0)
    # At the other sites both elements hold element i's factor: they repeat
    # its slots against every third element, and agree with each other.
    kept = (others * (2 * (rows[:, i] - pair) + selfs[:, i])).sum(0)
    hits = _aligned(np.abs(new.conj() @ np.swapaxes(at_site, -1, -2)))
    k = np.arange(len(new))
    hits[k, :, i] = hits[k, :, j] = False
    inner = _aligned(np.abs(np.sum(new[:, 0].conj() * new[:, 1], axis=-1)))
    return kept - old + hits.sum(axis=(1, 2)) + inner


def _moves(b: UnentangledBasis, sites, i, j) -> tuple:
    """(sites, rotations, i, j, gains) of the candidate moves in (site, pair, target)
    order, from one stacked pass a d over the local pairs (i, j) at ``sites`` whose
    factors there are orthogonal, read off the class rows as :func:`_check_twist_pair`
    asks; each pair takes its site's (N, d) stack.  A pair's targets are its site's
    other factors, then the computational axes.  A candidate's target is in span, its
    MOVE_KEY_DECIMALS key is new to its pair, and both its rotated factors pass
    check_unit; its gain is :func:`_twist_gains`'s."""
    overlaps = np.array([rows[ids] for ids, _, rows in b._classes])
    aligned = _aligned(overlaps)
    selfs = aligned.diagonal(axis1=1, axis2=2)
    rows = aligned.sum(axis=2) - selfs
    dims, parts = np.array(b.dims), []
    for d in set(dims[sites].tolist()):
        at = (dims[sites] == d) & (overlaps[sites, i, j] <= tol.ORTHO_PAIR)
        s, pi, pj = sites[at], i[at], j[at]
        group = np.flatnonzero(dims == d)
        g = np.stack([np.concatenate([b.stacks[t], np.eye(d)]) for t in group])
        g = g[np.searchsorted(group, s)]  # each pair's targets, its site's stack first
        f = g[:, :len(b.stacks[0])]
        n = np.arange(len(s))
        rot, ok = _rotation_to_target(f[n, pi, None], f[n, pj, None], g)
        ok[n, pi] = ok[n, pj] = False  # no pair targets its own factors
        p, rot = np.nonzero(ok)[0], rot[ok]  # each rotation's pair
        rounded = np.round(rot, tol.MOVE_KEY_DECIMALS) + 0.0  # + 0.0 makes each -0.0 a 0.0
        keys = np.column_stack([p, rounded.reshape(-1, 4).view(np.int64)])
        order = np.lexsort(keys.T)  # bit patterns, compared as bytes; equal keys stay in order
        repeat = np.zeros(len(p), bool)
        repeat[order[1:]] = (keys[order[1:]] == keys[order[:-1]]).all(axis=1)
        rot, p = rot[~repeat], p[~repeat]
        new = canonical_phase(rot[..., :1] * f[p, pi[p], None] + rot[..., 1:] * f[p, pj[p], None])
        unit = unit_rows(new.reshape(-1, d)).reshape(-1, 2).all(axis=1)
        rot, p, new = rot[unit], p[unit], new[unit]
        s, pi, pj = s[p], pi[p], pj[p]
        parts.append((s, rot, pi, pj, _twist_gains(aligned, rows, selfs, s, pi, pj, new, f[p])))
    merged = [np.concatenate(x) for x in zip(*parts)]
    order = np.argsort(merged[0], kind="stable")  # by site, (pair, target) order kept
    return tuple(x[order] for x in merged)


def twist_search(b: UnentangledBasis, budget: int = 50) -> SearchResult:
    """Greedy untwisting: apply moves that strictly improve alignment.

    Alignment counts the (site, pair) slots whose factors are equal or
    orthogonal (:func:`_aligned`); a full product basis maximizes it, as
    every pair of its elements shares a site factor or has orthogonal ones.
    A candidate move changes two elements, so it is scored from the two rows
    it changes: at the twist site, elements i and j take the rotated factors
    and are compared with every other element; at every other site, element
    j takes element i's factors, whose slots are read off the current basis.
    A step scores the candidates at every site in one stacked pass a d
    (:func:`_moves`); only the chosen move is built and applied.

    Ties break deterministically (lowest site, then lowest element pair, then
    earliest target).  A returned certificate is a positive proof of
    twisted-product membership; an exhaustion report is NOT a proof of
    non-membership.
    """
    if not is_integer(budget) or budget < 0:
        raise ValidationError(f"twist search needs an integer budget >= 0, not {budget!r}")
    initial = b
    moves = []
    tried = 0
    for step in itertools.count():
        pb = _as_product_basis(b)
        if pb is not None:
            return SearchResult(True, TwistCertificate(tuple(moves), initial, pb), "", tried)
        if step >= budget:
            return SearchResult(False, None, "move budget exhausted", tried)
        sites, pi, pj = _local_pairs(b, sites=True)
        if not len(sites):
            return SearchResult(
                False, None, "no local pairs exist; no twist move applies", tried
            )
        site, rot, i, j, gains = _moves(b, sites, pi, pj)
        tried += len(gains)
        if not len(gains) or gains.max() <= 0:
            return SearchResult(False, None, "no strictly improving move found", tried)
        k = int(np.argmax(gains))  # the first strictly positive maximum
        moves.append(TwistMove(int(site[k]), (i[k], j[k]), rot[k]))
        b = apply_twist(b, moves[-1])


# ---------------------------------------------------------------------------
# Worked nine-element example on C3 x C3 and its four-move certificate.

def _ket(d: int, *amps) -> np.ndarray:
    """Normalized vector in C^d with the given computational amplitudes."""
    v = np.zeros(d, dtype=complex)
    for idx, a in amps:
        v[idx] = a
    return v / np.linalg.norm(v)


def twisted_example_basis() -> UnentangledBasis:
    """Nine-element twisted (non-product) unentangled basis of C3 x C3."""
    e0 = _ket(3, (0, 1))
    e1 = _ket(3, (1, 1))
    e2 = _ket(3, (2, 1))
    p01 = _ket(3, (0, 1), (1, 1))
    m01 = _ket(3, (0, 1), (1, -1))
    p12 = _ket(3, (1, 1), (2, 1))
    m12 = _ket(3, (1, 1), (2, -1))
    return UnentangledBasis.from_elements([(e0, p01), (e0, m01), (p01, e2), (p12, e0), (e1, e1),
                                           (m01, e2), (m12, e0), (e2, p12), (e2, m12)])


_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def twisted_example_certificate() -> TwistCertificate:
    """Known four-move certificate untwisting :func:`twisted_example_basis`."""
    initial = twisted_example_basis()
    moves = (
        TwistMove(1, (7, 8), _HADAMARD),  # |2>|1+2>, |2>|1-2>  ->  |2>|1>, |2>|2>
        TwistMove(1, (0, 1), _HADAMARD),  # |0>|0+1>, |0>|0-1>  ->  |0>|0>, |0>|1>
        TwistMove(0, (2, 5), _HADAMARD),  # |0+1>|2>, |0-1>|2>  ->  |0>|2>, |1>|2>
        TwistMove(0, (3, 6), _HADAMARD),  # |1+2>|0>, |1-2>|0>  ->  |1>|0>, |2>|0>
    )
    eye = np.eye(3, dtype=complex)
    eye.setflags(write=False)
    return TwistCertificate(moves, initial, (eye, eye))
