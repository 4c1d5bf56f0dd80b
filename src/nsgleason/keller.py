"""Cube-tiling graphs on {0,1,2,3}^n, clique verification/search, and the
clique-to-basis map.

Vertices are integer vectors m with coordinates in {0,1,2,3}.  Two vertices
are adjacent in G when some coordinate differs by exactly 2 (mod-free: the
literal difference |m_i - m_i'| equals 2); they are adjacent in G* when in
addition they differ in at least two coordinates.  A clique of size 2^n in G
encodes a 4Z^n-periodic cube tiling; in G* the tiling is moreover facet-free.
Both graphs are Cayley graphs on (Z_2^2)^n: digits d, d' differ by exactly 2
iff d XOR d' = 2, so with vertex k's digits the 2-bit groups of k, v ~ w iff
S[v XOR w] for a connection set S (:func:`_connection`).  The searches read
adjacency from S; verification and :func:`edge` count one-hot rows.
Mapping digits 0,1,2,3 to the qubit states |0>, |+>, |1>, |-> turns any
size-2^n G-clique into an orthonormal basis of (C^2)^(x n) made of product
states; for G*-cliques that basis admits no local twist pairs at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from importlib import resources

import numpy as np

from .bases import UnentangledBasis
from .linalg import ValidationError, is_integer


class Graph(str, Enum):
    G = "G"
    G_STAR = "G_STAR"


@dataclass(frozen=True)
class CliqueCandidate:
    """A set of distinct vectors in {0,1,2,3}^n, stored as a (N, n) array."""

    n: int
    vectors: np.ndarray

    def __post_init__(self):
        vecs = np.asarray(self.vectors, dtype=np.int8)
        if vecs.ndim != 2 or vecs.shape[1] != self.n:
            raise ValidationError(f"vectors must have shape (N, {self.n})")
        if self.n < 1 or not len(vecs):
            raise ValidationError("a candidate needs n >= 1 and at least one vector")
        if vecs.min() < 0 or vecs.max() > 3:
            raise ValidationError("coordinates must lie in {0,1,2,3}")
        rows = np.ascontiguousarray(vecs).view(f"V{self.n}").ravel()  # each row's bytes
        if len(set(rows.tolist())) != len(vecs):
            raise ValidationError("duplicate vectors in candidate")
        vecs.setflags(write=False)
        object.__setattr__(self, "vectors", vecs)

    @property
    def size(self) -> int:
        return len(self.vectors)


def _one_hot(vecs) -> np.ndarray:
    """The (N, 4n) float32 one-hot rows of an (N, n) digit array, four columns
    a coordinate.  Products of such 0/1 rows are small counts, exact in float32."""
    vecs = np.asarray(vecs, dtype=np.intp)
    return np.eye(4, dtype=np.float32)[vecs].reshape(len(vecs), 4 * vecs.shape[1])


def _links(x, cols, graph: Graph) -> np.ndarray:
    """Adjacency of one-hot rows ``x`` to one-hot rows ``cols``, from two
    counts: with ``opp`` the one-hot of x's digits two steps away (d ^ 2),
    ``two = opp @ cols.T`` counts the coordinates that differ by exactly 2
    (G wants one), ``same = x @ cols.T`` the equal ones (G* also wants
    n - same >= 2)."""
    opp = x.reshape(x.shape[:-1] + (-1, 4))[..., [2, 3, 0, 1]].reshape(x.shape)
    ok = opp @ cols.T >= 1
    if graph == Graph.G:
        return ok
    return ok & (x @ cols.T <= x.shape[-1] // 4 - 2)


def edge(m, m2, graph: Graph = Graph.G) -> bool:
    """Adjacency test for a single vertex pair."""
    m, m2 = np.asarray(m, dtype=int), np.asarray(m2, dtype=int)
    if m.shape != m2.shape:
        raise ValidationError("length mismatch")
    if m.size and (min(m.min(), m2.min()) < 0 or max(m.max(), m2.max()) > 3):
        raise ValidationError("coordinates must lie in {0,1,2,3}")
    x = _one_hot([m, m2])
    return bool(_links(x[0], x[1:], graph)[0])


@dataclass(frozen=True)
class CliqueReport:
    is_clique: bool
    graph: Graph
    size: int
    n: int
    first_failure: tuple | None = None
    tiling_certificate: bool = False
    facet_free: bool = False

    def to_json(self) -> dict:
        return {
            "is_clique": self.is_clique,
            "graph": self.graph.value,
            "size": self.size,
            "n": self.n,
            "first_failure": list(self.first_failure) if self.first_failure else None,
            "tiling_certificate": self.tiling_certificate,
            "facet_free": self.facet_free,
        }


def verify_clique(c: CliqueCandidate, graph: Graph = Graph.G_STAR) -> CliqueReport:
    """Check all pairs, a block of one-hot rows against the later vertices
    at a time (:func:`_links`), so 2^10 vectors verify fast; ``first_failure``
    is the first non-adjacent pair (i, j), i < j, in row-major order.  Blocks
    double from 8 to 256 rows, so a candidate that fails in its first rows is
    rejected after those rows."""
    x = _one_hot(c.vectors)
    n_vec = len(x)
    first_failure = None
    i0, rows = 0, 8
    while i0 < n_vec - 1 and first_failure is None:
        ok = _links(x[i0:i0 + rows], x[i0 + 1:], graph)
        square = ok[:, :rows]  # column k is vertex i0 + 1 + k: row r pairs it iff k >= r
        square |= np.tri(*square.shape, -1, dtype=bool)
        bad = np.flatnonzero(~ok.all(axis=1))
        if bad.size:
            first_failure = (i0 + int(bad[0]), i0 + 1 + int(np.argmin(ok[bad[0]])))
        i0, rows = i0 + rows, min(2 * rows, 256)
    is_clique = first_failure is None
    is_tiling = is_clique and c.size == 2 ** c.n
    return CliqueReport(
        is_clique, graph, c.size, c.n, first_failure,
        tiling_certificate=is_tiling,
        facet_free=is_tiling and graph == Graph.G_STAR,
    )


class SearchMode(str, Enum):
    EXHAUSTIVE = "EXHAUSTIVE"
    HEURISTIC = "HEURISTIC"


def _all_vertices(n: int) -> np.ndarray:
    grids = np.meshgrid(*([np.arange(4)] * n), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1).astype(np.int8)


def _connection(n: int, graph: Graph) -> np.ndarray:
    """The connection set S over all 4^n XOR codes z: S[z] holds when some
    digit (2-bit group) of z is 2, and under G* also two digits are nonzero."""
    z = np.arange(4 ** n)
    low = int("01" * n, 2)  # the low bit of every digit
    s = ((z >> 1) & ~z & low) != 0
    if graph == Graph.G:
        return s
    nonzero = (z | z >> 1) & low
    return s & ((nonzero & (nonzero - 1)) != 0)


def _exhaustive(n: int, target: int, graph: Graph):
    """Deterministic branch and bound over cliques through vertex 0, with
    candidate sets as int bitsets.  XOR by any member maps a clique onto one
    through 0, so a miss there is a proof, and the first clique in index
    order holds 0 anyway."""
    idx = np.arange(4 ** n, dtype=np.uint64)
    rows = _connection(n, graph)[idx[:, None] ^ idx].astype(np.uint64) << idx
    adj = rows.sum(axis=1).tolist()  # bit u of adj[v]: v ~ u (n <= 3, so 64 bits)
    clique = [0]

    def extend(cand: int) -> bool:
        if len(clique) == target:
            return True
        while len(clique) + cand.bit_count() >= target:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            clique.append(v)
            if extend(cand & adj[v]):
                return True
            clique.pop()
        return False

    if extend(adj[0]):
        return CliqueCandidate(n, _all_vertices(n)[clique])
    return None


def _heuristic(n: int, target: int, graph: Graph, budget: int, seed: int):
    """Seeded greedy-with-restarts local search; best-effort only.  Each
    restart takes, in a random order, every vertex adjacent to all taken so
    far: ``cand`` keeps the order's vertices still adjacent to all of them."""
    conn = _connection(n, graph)
    rng = np.random.Generator(np.random.Philox(seed))
    for _ in range(budget):
        cand = rng.permutation(4 ** n)
        clique: list = []
        while cand.size:
            v = cand[0]
            clique.append(v)
            if len(clique) == target:
                return CliqueCandidate(n, _all_vertices(n)[clique])
            cand = cand[1:]
            cand = cand[conn[cand ^ v]]
    return None


def clique_search(
    n: int,
    target: int,
    mode: SearchMode = SearchMode.EXHAUSTIVE,
    budget: int = 1000,
    seed: int = 0,
    graph: Graph = Graph.G_STAR,
):
    """Search for a clique of the given size; EXHAUSTIVE (n <= 3) is a proof.

    EXHAUSTIVE results are deterministic and seed-independent; a NONE result
    proves no clique of that size exists.  HEURISTIC NONE results prove
    nothing.  n, target and budget are integers >= 1 (else ValidationError).
    """
    if not all(is_integer(k) and k >= 1 for k in (n, target)):
        raise ValidationError(f"clique search needs integers n >= 1 and target >= 1, not "
                              f"{n!r} and {target!r}")
    if mode == SearchMode.EXHAUSTIVE:
        if n > 3:
            raise ValidationError("exhaustive search supported only for n <= 3")
        return _exhaustive(n, target, graph)
    if not is_integer(budget) or budget < 1:
        raise ValidationError(f"heuristic search needs an integer budget >= 1, not {budget!r}")
    return _heuristic(n, target, graph, budget, seed)


# Digit-to-qubit-state map: 0 -> |0>, 1 -> |+>, 2 -> |1>, 3 -> |->.
_SQ2 = 1.0 / np.sqrt(2.0)
DIGIT_STATES = (
    np.array([1.0, 0.0], dtype=complex),
    np.array([_SQ2, _SQ2], dtype=complex),
    np.array([0.0, 1.0], dtype=complex),
    np.array([_SQ2, -_SQ2], dtype=complex),
)


def basis_from_clique(c: CliqueCandidate) -> UnentangledBasis:
    """Map a verified size-2^n G-clique to an unentangled basis of (C^2)^n.

    Orthogonality holds factorwise: a coordinate pair differing by exactly 2
    maps to orthogonal qubit states ((0,2) -> |0>,|1>; (1,3) -> |+>,|->).
    """
    return _clique_states(c, verify_clique(c, Graph.G).tiling_certificate, "G-clique of size 2^n")


def family_from_clique(c: CliqueCandidate, graph: Graph = Graph.G) -> UnentangledBasis:
    """Map any verified clique to an orthonormal family of product states.

    Unlike basis_from_clique, the clique may be partial (size < 2^n), so the
    family need not span (C^2)^n; use this to inspect structural properties
    such as local pairs on best-effort search results.
    """
    return _clique_states(c, verify_clique(c, graph).is_clique, f"{graph.value}-clique")


def _clique_states(c: CliqueCandidate, verified: bool, what: str) -> UnentangledBasis:
    if not verified:
        raise ValidationError(f"candidate is not a verified {what}")
    # Site s of element k holds the state of digit c.vectors[k, s]: the digits are the classes.
    digits = np.array(DIGIT_STATES)
    return UnentangledBasis._from_classes([(digits, col) for col in c.vectors.T])


# ---------------------------------------------------------------------------
# File format: ASCII, one vector per line, characters '0'-'3'.

def save_clique(path, c: CliqueCandidate) -> None:
    with open(path, "w") as fh:
        for vec in c.vectors:
            fh.write("".join(str(int(d)) for d in vec) + "\n")


def load_clique(path) -> CliqueCandidate:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except UnicodeDecodeError:
        raise ValidationError(f"{path}: not UTF-8 text") from None
    if not lines:
        raise ValidationError("empty clique file")
    n = len(lines[0])
    # One byte a character (a non-ASCII one becomes "?"), so a digit's offset
    # from "0" is its value and any other character's is above 3.
    digits = np.frombuffer("".join(lines).encode("ascii", "replace"), np.uint8) - ord("0")
    lengths = np.array([len(ln) for ln in lines])
    bad = np.concatenate([np.flatnonzero(lengths != n)[:1], np.searchsorted(
        np.cumsum(lengths), np.flatnonzero(digits > 3)[:1], side="right")])
    if bad.size:
        raise ValidationError(f"malformed line {lines[bad.min()]!r}")
    return CliqueCandidate(n, digits.reshape(len(lines), n).astype(np.int8))


def bundled_candidate() -> CliqueCandidate:
    """The packaged full-scale verification candidate: 1024 vectors, n = 10.

    The shipped file is the even grid {0,2}^10 — a genuine 4Z^10-periodic
    cube tiling (size-2^n clique in G_10) at the dimension where published
    facet-free tilings live.  It is deliberately not facet-free: grid cubes
    that differ in a single coordinate share a facet, so G*-verification
    rejects it.  A published facet-free clique can be dropped into the same
    file format and flows through the identical code path.

    Shipped as data, never trusted: callers must run verify_clique on it.
    """
    ref = resources.files("nsgleason.data").joinpath("keller_candidate_n10.txt")
    with resources.as_file(ref) as path:
        return load_clique(path)
