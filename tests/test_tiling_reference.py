"""The Keller engine (one-hot counts for verification, the XOR connection
set for the searches) and the streamed basis checks against test-only copies
of the per-pair loops and searches they replace: results must agree exactly."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nsgleason import bases
from nsgleason.bases import (
    BasisReport,
    ProductState,
    SearchResult,
    TwistCertificate,
    TwistMove,
    UnentangledBasis,
    _as_product_basis,
    _rotation_to_target,
    apply_twist,
    find_local_pairs,
    product_basis,
    twist_search,
    validate_unentangled,
)
from nsgleason.keller import (
    DIGIT_STATES,
    CliqueCandidate,
    CliqueReport,
    Graph,
    SearchMode,
    _all_vertices,
    _connection,
    _links,
    _one_hot,
    basis_from_clique,
    bundled_candidate,
    clique_search,
    edge,
    family_from_clique,
    verify_clique,
)
from nsgleason.linalg import (ValidationError, canonical_phase, check_unit, complex_from_json,
                              make_rng, random_onb, site_stacks)
from nsgleason.tolerances import IN_SPAN, MOVE_KEY_DECIMALS, ORTHO_PAIR, SAME_FACTOR

seeds = st.integers(min_value=0, max_value=2**31 - 1)


# ---------------------------------------------------------------------------
# Reference loops: the per-pair implementations the engine replaced.

def ref_edge(m, m2, graph):
    diff = np.abs(np.asarray(m, dtype=int) - np.asarray(m2, dtype=int))
    has_two = bool(np.any(diff == 2))
    return has_two if graph == Graph.G else has_two and int(np.count_nonzero(diff)) >= 2


def ref_verify(c, graph):
    vecs = c.vectors
    first_failure = None
    for i0 in range(0, len(vecs), 256):
        diff = np.abs(vecs[i0:i0 + 256, None, :].astype(np.int16) - vecs[None, :, :])
        ok = np.any(diff == 2, axis=2)
        if graph == Graph.G_STAR:
            ok &= np.count_nonzero(diff, axis=2) >= 2
        for a in range(len(ok)):
            row = ok[a, i0 + a + 1:]
            if first_failure is None and not row.all():
                first_failure = (i0 + a, int(i0 + a + 1 + np.argmin(row)))
    ok = first_failure is None
    tiling = ok and c.size == 2 ** c.n
    return CliqueReport(ok, graph, c.size, c.n, first_failure, tiling,
                        tiling and graph == Graph.G_STAR)


def ref_heuristic(n, target, graph, budget, seed):
    verts = _all_vertices(n)
    rng = np.random.Generator(np.random.Philox(seed))
    for _ in range(max(1, budget)):
        clique = []
        for idx in rng.permutation(len(verts)):
            if all(ref_edge(verts[idx], verts[j], graph) for j in clique):
                clique.append(idx)
                if len(clique) == target:
                    return verts[np.array(clique)]
    return None


def ref_exhaustive(n, target, graph):
    """The list-based branch and bound over every start vertex."""
    verts = _all_vertices(n)
    adj = [[ref_edge(a, b, graph) for b in verts] for a in verts]
    clique = []

    def extend(candidates):
        if len(clique) == target:
            return True
        if len(clique) + len(candidates) < target:
            return False
        for idx, v in enumerate(candidates):
            clique.append(v)
            if extend([u for u in candidates[idx + 1:] if adj[v][u]]):
                return True
            clique.pop()
        return False

    return verts[np.array(clique)] if extend(list(range(len(verts)))) else None


def digits_of(k, n):
    """Vertex k's digits: its 2-bit groups, most significant first."""
    return [(k >> 2 * (n - 1 - i)) & 3 for i in range(n)]


def ref_site_overlaps(b):
    out = []
    for s in range(b.elements[0].nsites):
        f = np.array([e.factors[s] for e in b.elements])
        out.append(np.abs(f.conj() @ f.T))
    return out


def ref_validate(b):
    n = len(b.elements)
    total = np.ones((n, n))
    for ov in ref_site_overlaps(b):
        total *= ov
    iu = np.triu_indices(n, k=1)
    pairs = total[iu]
    if not pairs.size:
        return BasisReport(n == b.dim, n == b.dim, 0.0, None)
    k = int(np.argmax(pairs))
    complete = n == b.dim
    return BasisReport(complete and not (pairs > ORTHO_PAIR).any(), complete, float(pairs[k]),
                       (int(iu[0][k]), int(iu[1][k])))


def ref_find_local_pairs(b):
    differs = np.stack([ov < 1 - SAME_FACTOR for ov in ref_site_overlaps(b)])
    iu = np.triu_indices(len(b.elements), k=1)
    out = []
    for k in np.nonzero(differs.sum(axis=0)[iu] == 1)[0]:
        i, j = int(iu[0][k]), int(iu[1][k])
        out.append((int(np.nonzero(differs[:, i, j])[0][0]), (i, j)))
    return out


def ref_alignment_score(b):
    """The (site, pair i < j) slots whose factors are equal or orthogonal, read
    off each site's full Gram matrix."""
    return sum(int(np.count_nonzero(np.triu((ov > 1 - SAME_FACTOR) | (ov < ORTHO_PAIR), 1)))
               for ov in ref_site_overlaps(b))


def ref_twist_search(b, budget):
    """twist_search applying every candidate move and rescoring the whole basis."""
    initial, moves, tried = b, [], 0
    for step in itertools.count():
        pb = _as_product_basis(b)
        if pb is not None:
            return SearchResult(True, TwistCertificate(tuple(moves), initial, pb), "", tried)
        if step >= budget:
            return SearchResult(False, None, "move budget exhausted", tried)
        pairs = ref_find_local_pairs(b)
        if not pairs:
            return SearchResult(False, None, "no local pairs exist; no twist move applies", tried)
        base_score = ref_alignment_score(b)
        best = None
        for site, (i, j) in sorted(pairs):
            u = b.elements[i].factors[site]
            v = b.elements[j].factors[site]
            targets = [e.factors[site] for k, e in enumerate(b.elements) if k not in (i, j)]
            targets += list(np.eye(len(u)))
            tried_keys = set()
            for g in targets:  # one target at a time, through the search's own helper
                rot, in_span = _rotation_to_target(u, v, np.asarray(g, dtype=complex))
                if not in_span:
                    continue
                key = (np.round(rot, MOVE_KEY_DECIMALS) + 0.0).tobytes()
                if key in tried_keys:
                    continue
                tried_keys.add(key)
                move = TwistMove(site, (i, j), rot)
                try:
                    nb = apply_twist(b, move)
                except ValidationError:
                    continue
                tried += 1
                score = ref_alignment_score(nb)
                if score > base_score and (best is None or score > best[0]):
                    best = (score, move, nb)
        if best is None:
            return SearchResult(False, None, "no strictly improving move found", tried)
        moves.append(best[1])
        b = best[2]


def twisted(seed, dims, n_moves):
    """A random product basis with ``n_moves`` random local twists applied."""
    rng = make_rng(seed)
    b = product_basis([random_onb(rng, d).T for d in dims])
    for _ in range(n_moves):
        pairs = find_local_pairs(b)
        site, pair = pairs[int(rng.integers(len(pairs)))]
        b = apply_twist(b, TwistMove(site, pair, random_onb(rng, 2)))
    return b


def check_site_overlaps(b):
    """The overlaps gathered from the basis's cached class rows are, bit for
    bit, each site's N x N Gram matrix."""
    got = [rows[ids] for ids, _, rows in b._classes]
    ref = ref_site_overlaps(b)
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert g.shape == r.shape and (g == r).all()


def check_per_class(b, raw=None):
    """b, built from the per-site stacks ``raw`` when given, holds raw phased row by
    row; its classes are a fresh np.unique's of its stacks; and its pair checks,
    local pairs (as a list, as arrays and as keller basis's count) are the loops'."""
    if raw is not None:
        assert [f.tobytes() for f in b.stacks] == [canonical_phase(r).tobytes() for r in raw]
    for f, (ids, first, _) in zip(b.stacks, b._classes):
        keys = np.ascontiguousarray(f).view(np.dtype((np.void, f.itemsize * f.shape[1]))).ravel()
        _, want_first, want_ids = np.unique(keys, return_index=True, return_inverse=True)
        assert ids.tolist() == want_ids.ravel().tolist() and first.tolist() == want_first.tolist()
    assert validate_unentangled(b) == ref_validate(b)
    pairs = find_local_pairs(b)
    assert pairs == ref_find_local_pairs(b)
    i, j = bases._local_pairs(b)
    assert list(zip(i.tolist(), j.tolist())) == [p for _, p in pairs] and len(i) == len(pairs)
    check_site_overlaps(b)


def sign_flipped(stacks, rng):
    """The stacks with about half their rows times -1: each row phases to the bits of
    its unflipped row."""
    return [f * rng.choice([-1.0, 1.0], (len(f), 1)) for f in stacks]


# ---------------------------------------------------------------------------
# Keller engine

@pytest.mark.parametrize("graph", list(Graph))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_packed_adjacency_matches_edge_loop(n, graph):
    verts = _all_vertices(n)
    x = _one_hot(verts)
    ref = np.array([[ref_edge(a, b, graph) for b in verts] for a in verts])
    np.testing.assert_array_equal(_links(x, x, graph), ref)
    for v in range(len(verts)):  # one row at a time, as edge asks
        np.testing.assert_array_equal(_links(x[v], x, graph), ref[v])
    assert [[edge(a, b, graph) for b in verts] for a in verts] == ref.tolist()


@given(seeds, st.integers(min_value=1, max_value=70))
@example(0, 1)
@example(0, 32)
@example(0, 33)
@example(0, 40)
@settings(max_examples=40, deadline=None)
def test_packed_adjacency_multiword(seed, n):
    # n > 32 took two packed words in the engine the counts replaced.
    rng = np.random.default_rng(seed)
    vecs = rng.integers(0, 4, (12, n))
    vecs[6:] = vecs[:6]  # pairs that differ in at most two coordinates
    for _ in range(2):
        vecs[np.arange(6, 12), rng.integers(0, n, 6)] = rng.integers(0, 4, 6)
    x = _one_hot(vecs)
    for graph in Graph:
        ref = [[ref_edge(a, b, graph) for b in vecs] for a in vecs]
        assert _links(x, x, graph).tolist() == ref


def test_edge_rejects_digits_outside_range():
    with pytest.raises(ValidationError):
        edge((0, 4), (0, 2))


@given(seeds, st.integers(min_value=0, max_value=6), st.sampled_from(list(Graph)))
@settings(max_examples=25, deadline=None)
def test_verify_first_failure_on_corrupted_cliques(seed, n_bad, graph):
    rng = np.random.default_rng(seed)
    base = np.array(list(itertools.product([0, 2], repeat=7)), dtype=np.int8)
    vecs = base.copy()
    for k in rng.choice(len(vecs), n_bad, replace=False):
        while True:
            v = rng.integers(0, 4, 7)
            if not (vecs == v).all(axis=1).any():
                vecs[k] = v
                break
    c = CliqueCandidate(7, vecs)
    assert verify_clique(c, graph) == ref_verify(c, graph)


@pytest.mark.parametrize("row", [0, 7, 8, 23, 24, 55, 56, 119, 120, 126])
def test_verify_finds_the_failure_in_any_row(row):
    # One grid vector gets a 1 where it had a 0: its only non-G-adjacent partner
    # is the later vector with a 2 there, so the first failure is in this row,
    # at the first or last row of a verification block.
    vecs = np.array(list(itertools.product([0, 2], repeat=7)), dtype=np.int8)
    vecs[row, np.flatnonzero(vecs[row] == 0)[-1]] = 1
    c = CliqueCandidate(7, vecs)
    for graph in Graph:
        assert verify_clique(c, graph) == ref_verify(c, graph)
    assert verify_clique(c, Graph.G).first_failure[0] == row


def test_verify_bundled_matches_loop():
    c = bundled_candidate()
    for graph in Graph:
        assert verify_clique(c, graph) == ref_verify(c, graph)


HEURISTIC_CASES = [(3, 5, 5), (3, 8, 3), (4, 8, 2), (4, 12, 3), (5, 16, 1), (5, 28, 1)]


@pytest.mark.parametrize("graph", list(Graph))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_connection_set_matches_edge_loop(n, graph):
    verts = _all_vertices(n)
    assert verts.tolist() == [digits_of(k, n) for k in range(4 ** n)]
    conn = _connection(n, graph)
    for v, w in itertools.product(range(4 ** n), repeat=2):
        assert conn[v ^ w] == ref_edge(verts[v], verts[w], graph)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_connection_set_matches_edge_loop_on_sampled_pairs(n):
    rng = np.random.default_rng(n)
    pairs = rng.integers(0, 4 ** n, (400, 2))
    pairs[:100, 1] = pairs[:100, 0] ^ (2 << 2 * rng.integers(0, n, 100))  # one digit 2 apart
    for graph in Graph:
        conn = _connection(n, graph)
        for v, w in pairs.tolist():
            assert conn[v ^ w] == ref_edge(digits_of(v, n), digits_of(w, n), graph)


@pytest.mark.parametrize("graph", list(Graph))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_exhaustive_matches_every_start_branch_and_bound(n, graph):
    for target in range(1, 2 ** n + 2):
        got = clique_search(n, target, SearchMode.EXHAUSTIVE, graph=graph)
        ref = ref_exhaustive(n, target, graph)
        assert (got is None) == (ref is None)
        if ref is not None:
            np.testing.assert_array_equal(got.vectors, ref)


def found_cliques():
    for n, graph in itertools.product([1, 2, 3], Graph):
        for target in range(1, 2 ** n + 1):
            c = clique_search(n, target, SearchMode.EXHAUSTIVE, graph=graph)
            if c is not None:
                yield c, graph
    for n, size, budget in HEURISTIC_CASES:
        for graph in Graph:
            c = clique_search(n, size, SearchMode.HEURISTIC, budget, 0, graph)
            if c is not None:
                yield c, graph


def test_xor_translates_of_found_cliques_verify():
    found = list(found_cliques())
    assert {c.n for c, _ in found} >= {1, 2, 3, 4, 5}
    for c, graph in found:
        assert verify_clique(c, graph).is_clique
        for k in c.vectors:
            assert verify_clique(CliqueCandidate(c.n, c.vectors ^ k), graph).is_clique


@pytest.mark.parametrize("graph", list(Graph))
@pytest.mark.parametrize("n,size,budget", HEURISTIC_CASES)
def test_heuristic_matches_loop(n, size, budget, graph):
    hits = 0
    for seed in range(4):
        got = clique_search(n, size, SearchMode.HEURISTIC, budget, seed, graph)
        ref = ref_heuristic(n, size, graph, budget, seed)
        assert (got is None) == (ref is None)
        if ref is not None:
            hits += 1
            np.testing.assert_array_equal(got.vectors, ref)
    if (n, size) == (3, 5):
        assert hits


# ---------------------------------------------------------------------------
# Streamed overlaps

def twisted_once(b, seed):
    """b after one seeded random twist: the pair's new factors have generic
    overlaps with the digit states, and every other overlap stays 0.0 or 1.0."""
    rng = make_rng(seed)
    pairs = find_local_pairs(b)
    site, pair = pairs[int(rng.integers(len(pairs)))]
    return apply_twist(b, TwistMove(site, pair, random_onb(rng, 2)))


def clique_bases():
    g = clique_search(3, 8, graph=Graph.G)
    gs = clique_search(3, 5, graph=Graph.G_STAR)
    bundled = basis_from_clique(bundled_candidate())
    return [basis_from_clique(g), family_from_clique(gs, Graph.G_STAR), bundled,
            twisted_once(basis_from_clique(g), 0), twisted_once(bundled, 1)]


@pytest.mark.parametrize("b", clique_bases(),
                         ids=["g3", "gstar3", "bundled", "g3_twisted", "bundled_twisted"])
def test_clique_basis_checks_match_loops(b):
    check_per_class(b)
    flipped = sign_flipped(b.stacks, make_rng(len(b.stacks[0])))
    check_per_class(UnentangledBasis(flipped), flipped)


def test_factors_that_phase_alike_join_one_class():
    e = np.eye(2, dtype=complex)
    raw = [np.array([e[0], -e[0], e[1], -e[1]]), np.array([e[0], e[1], -e[0], -e[1]])]
    b = UnentangledBasis(raw)
    check_per_class(b, raw)
    assert [len(first) for _, first, _ in b._classes] == [2, 2]
    assert validate_unentangled(b).is_valid


@pytest.mark.parametrize("make,graph", [(basis_from_clique, Graph.G),
                                        (family_from_clique, Graph.G_STAR)])
def test_clique_bases_are_their_digit_states_phased(make, graph):
    # The digits are the classes: each site holds the digit states' phased rows.
    for c in (clique_search(3, 8, graph=Graph.G), clique_search(3, 5, graph=Graph.G_STAR),
              bundled_candidate()):
        if verify_clique(c, graph).is_clique and (graph == Graph.G_STAR or c.size == 2 ** c.n):
            digits = np.array(DIGIT_STATES)
            check_per_class(make(c), [digits[col] for col in c.vectors.T])


def test_twisted_clique_basis_mixes_exact_and_generic_overlaps():
    # validate_unentangled skips the products of a block of rows only when
    # each of its pairs has an exactly orthogonal site: the twisted bundled
    # basis has such blocks and others.
    b = clique_bases()[-1]
    n = len(b.elements)
    products, step = np.prod(ref_site_overlaps(b), axis=0), bases._BLOCK // n
    skipped = [not np.triu(products[r:r + step], r + 1).any() for r in range(0, n - 1, step)]
    assert any(skipped) and not all(skipped)


@given(seeds, st.sampled_from([(3, 3), (2, 2, 2), (2, 3), (3, 3, 3), (4,)]),
       st.integers(min_value=0, max_value=4))
@settings(max_examples=40, deadline=None)
def test_basis_checks_match_loops(seed, dims, n_moves):
    b = twisted(seed, dims, n_moves)
    assert validate_unentangled(b) == ref_validate(b)
    assert find_local_pairs(b) == ref_find_local_pairs(b)
    # Invalid inputs: a repeated element, and a single-element family.
    dup = UnentangledBasis.from_elements(b.elements[1:] + b.elements[:2])
    assert validate_unentangled(dup) == ref_validate(dup)
    assert find_local_pairs(dup) == ref_find_local_pairs(dup)
    one = UnentangledBasis.from_elements(b.elements[:1])
    assert validate_unentangled(one) == ref_validate(one)
    # Repeated factors that differ in their bits: their classes split, but
    # the tolerance still calls them equal.
    rng = make_rng(seed)
    jit = UnentangledBasis.from_elements(tuple(ProductState(tuple(
        f * np.exp(1j * rng.uniform(0, 2 * np.pi)) + 1e-13 * rng.standard_normal(len(f))
        for f in e.factors)) for e in b.elements))
    assert find_local_pairs(jit) == ref_find_local_pairs(jit) == find_local_pairs(b)
    assert validate_unentangled(jit) == ref_validate(jit)
    site_factors = [e.factors[0].tobytes() for e in jit.elements]
    assert len(set(site_factors)) == len(site_factors)
    for c in (b, dup, jit):
        check_per_class(c)
    # Factors that differ only by a phase of -1, and a moved factor: built per class,
    # the stacks are every row phased, and the classes are those of the phased rows.
    for raw in (sign_flipped(b.stacks, rng), sign_flipped(dup.stacks, rng),
                sign_flipped(moved(b, rng, 1.0).stacks, rng)):
        c = UnentangledBasis(raw)
        check_per_class(c, raw)


def check_twist_search(b, n_moves):
    def search():
        res = twist_search(b, budget=8)
        cert = res.certificate.to_json() if res.found else None
        return res.found, res.reason, res.moves_tried, cert

    got = search()
    # One move is always undone by one improving move back.
    assert got[0] or n_moves > 1
    with pytest.MonkeyPatch.context() as m:
        m.setattr(bases, "find_local_pairs", ref_find_local_pairs)
        assert search() == got


@given(seeds, st.sampled_from([(3, 3), (2, 2, 2)]), st.integers(min_value=1, max_value=3))
@settings(max_examples=20, deadline=None)
def test_twist_search_matches_loops(seed, dims, n_moves):
    check_twist_search(twisted(seed, dims, n_moves), n_moves)


@given(seeds, st.integers(min_value=1, max_value=3))
@settings(max_examples=3, deadline=None)
def test_twist_search_333_matches_loops(seed, n_moves):
    check_twist_search(twisted(seed, (3, 3, 3), n_moves), n_moves)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_stacked_rotations_match_one_target_calls(d):
    # The search rotates every pair to every target in one call; the reference
    # search calls the same helper one target at a time.  Rows agree bit for bit.
    rng = make_rng(d)
    u, v = np.array([random_onb(rng, d)[:, :2] for _ in range(5)]).transpose(2, 0, 1)
    targets = []
    for p in range(len(u)):
        x = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        in_span = x[:, :1] * u[p] + x[:, 1:] * v[p]
        near = in_span + 1e-5 * rng.standard_normal((4, d))  # just outside, within IN_SPAN
        rand = rng.standard_normal((4, d)) + 1j * rng.standard_normal((4, d))
        g = np.concatenate([in_span, near, rand])
        targets.append(np.concatenate([g / np.linalg.norm(g, axis=1, keepdims=True), np.eye(d)]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rot, ok = _rotation_to_target(u[:, None], v[:, None], np.array(targets))
        for p, k in np.ndindex(ok.shape):
            g = targets[p][k]
            one, one_ok = _rotation_to_target(u[p], v[p], g)
            assert one.tobytes() == rot[p, k].tobytes() and one_ok == ok[p, k]
            span = abs(np.vdot(u[p], g)) ** 2 + abs(np.vdot(v[p], g)) ** 2
            assert one_ok == (span >= 1 - IN_SPAN)
            if one_ok:  # row 0 takes (u, v) to g, and the matrix is unitary
                np.testing.assert_allclose(one[0, 0] * u[p] + one[0, 1] * v[p], g, atol=1e-4)
                np.testing.assert_allclose(one @ one.conj().T, np.eye(2), atol=1e-12)
            else:
                assert not one.any()
    assert ok[:, :4].all()
    assert ok.all() if d == 2 else not ok[:, 8:12].any()  # random targets: in span only at d = 2


def test_target_orthogonal_to_the_span_gives_no_candidate_and_no_warning():
    u, v, g = np.eye(3, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rot, ok = _rotation_to_target(u, v, g)
        assert not ok and not rot.any()
        rot, ok = _rotation_to_target(u, v, np.array([g, u, (u + v) / np.sqrt(2)]))
        assert ok.tolist() == [False, True, True] and not rot[0].any()
        # The twisted example's pairs have computational axes outside their span.
        res = twist_search(bases.twisted_example_basis())
    assert res.found and len(res.certificate.moves) == 4


def moved(b, rng, eps):
    """b with one factor of one element moved by about eps: eps = 3e-9 keeps
    it within ORTHO_PAIR of orthogonal, so rotated factors fail the unit-norm
    check; eps = 1 makes pairs that fail apply_twist's orthogonality check, and
    eps = 1e-7 pairs that fail it while some of their rotated factors, close to
    the pair's own, still pass the unit-norm check."""
    k, s = int(rng.integers(len(b.elements))), int(rng.integers(b.elements[0].nsites))
    facs = list(b.elements[k].factors)
    g = facs[s] + eps * (rng.standard_normal(len(facs[s])) + 1j * rng.standard_normal(len(facs[s])))
    facs[s] = g / np.linalg.norm(g)
    elems = b.elements[:k] + (ProductState(tuple(facs)),) + b.elements[k + 1:]
    return UnentangledBasis.from_elements(elems)


def search_outcome(res):
    return res.found, res.reason, res.moves_tried, res.certificate.to_json() if res.found else None


@given(seeds, st.sampled_from([(3, 3), (2, 2, 2), (2, 3), (3, 3, 3), (2, 3, 2), (3, 2, 3)]),
       st.integers(min_value=0, max_value=3), st.sampled_from([0.0, 3e-9, 1.0]))
@settings(max_examples=30, deadline=None)
def test_twist_gains_match_full_rescoring(seed, dims, n_moves, eps):
    rng = make_rng(seed)
    b = twisted(seed, dims, n_moves)
    if eps:
        b = moved(b, rng, eps)
    stacks = site_stacks(b.elements)
    aligned = np.array([bases._aligned(rows)[ids] for ids, _, rows in b._classes])
    selfs = aligned.diagonal(axis1=1, axis2=2)
    rows = aligned.sum(axis=2) - selfs
    base = ref_alignment_score(b)
    pairs = find_local_pairs(b)
    for site, (i, j) in [pairs[k] for k in rng.permutation(len(pairs))[:4]]:
        changes, new = [], []
        for rot in [random_onb(rng, 2) for _ in range(3)] + [np.eye(2)]:
            try:
                nb = apply_twist(b, TwistMove(site, (i, j), rot))
            except ValidationError:
                continue
            changes.append(ref_alignment_score(nb) - base)
            new.append([nb.elements[i].factors[site], nb.elements[j].factors[site]])
        if new:
            gains = bases._twist_gains(aligned, rows, selfs, site, i, j, np.array(new),
                                       stacks[site])
            assert gains.tolist() == changes


@given(seeds, st.sampled_from([(3, 3), (2, 2, 2), (2, 3), (3, 3, 3), (2, 3, 2), (3, 2, 3)]),
       st.integers(min_value=1, max_value=3), st.sampled_from([0.0, 3e-9, 1e-7, 1.0]))
@settings(max_examples=30, deadline=None)
def test_twist_search_matches_candidate_by_candidate_search(seed, dims, n_moves, eps):
    b = twisted(seed, dims, n_moves)
    if eps:
        b = moved(b, make_rng(seed + 1), eps)
    data = b.to_json()
    got = search_outcome(twist_search(UnentangledBasis.from_json(data), budget=8))
    assert got == search_outcome(ref_twist_search(UnentangledBasis.from_json(data), budget=8))


def edited_stacks(b, m):
    """The stacks of b as a twist move edits them, before phasing: the rotated factors at
    the twist site, and at every other site row j holding row i's factor."""
    i, j = m.pair
    stacks = [f.copy() for f in b.stacks]
    u, v = b.stacks[m.site][i], b.stacks[m.site][j]
    for s, f in enumerate(stacks):
        if s != m.site:
            f[j] = f[i]
    for k, (x, y) in zip((i, j), m.rotation):
        stacks[m.site][k] = x * u + y * v
    return stacks


def check_edit_matches_rebuild(b, m):
    """apply_twist(b, m) equals the basis the constructor builds from the edited stacks:
    stacks bit for bit, and each site's classes."""
    got, want = apply_twist(b, m), UnentangledBasis(edited_stacks(b, m))
    assert [f.shape for f in got.stacks] == [f.shape for f in want.stacks]
    assert [f.tobytes() for f in got.stacks] == [f.tobytes() for f in want.stacks]
    assert all(not f.flags.writeable for f in got.stacks)
    for (ids, first), (want_ids, want_first) in zip(got._site_classes, want._site_classes):
        assert ids.tolist() == want_ids.tolist() and first.tolist() == want_first.tolist()


def jittered(b, rng):
    """b with each factor times a random phase plus about 1e-13 of noise: a pair's
    factors still agree up to phase at its other sites, but no two are bit-equal."""
    return UnentangledBasis([f * np.exp(2j * np.pi * rng.uniform(size=(len(f), 1)))
                             + 1e-13 * rng.standard_normal(f.shape) for f in b.stacks])


@pytest.mark.parametrize("dims", [(3, 3), (2, 2, 2), (2, 3, 2), (4, 2)])
@pytest.mark.parametrize("jitter", [False, True])
def test_apply_twist_matches_the_rebuilt_basis(dims, jitter):
    # Each move is applied with its pair as (i, j) and as (j, i), and walked on from there.
    # Jittered, row j's class at the other sites is its own, and a move empties it.
    for seed in range(8):
        rng = make_rng(seed)
        b = twisted(seed, dims, seed % 4)
        b = jittered(b, rng) if jitter else b
        for _ in range(4):
            site, (i, j) = (pairs := find_local_pairs(b))[int(rng.integers(len(pairs)))]
            rot = random_onb(rng, 2)
            for pair in ((i, j), (j, i)):
                check_edit_matches_rebuild(b, TwistMove(site, pair, rot))
            b = apply_twist(b, TwistMove(site, (i, j), rot))


def test_apply_twist_matches_the_rebuilt_example_basis():
    # The example's exact overlaps make rows bit-equal and classes empty as moves go.
    rng, cert = make_rng(0), bases.twisted_example_certificate()
    for b in [cert.initial, *cert.walk()]:
        for site, (i, j) in find_local_pairs(b):
            for rot in (bases._HADAMARD, random_onb(rng, 2), np.eye(2)[::-1]):
                for pair in ((i, j), (j, i)):
                    if bases._check_twist_pair(b, site, *pair) is None:
                        check_edit_matches_rebuild(b, TwistMove(site, pair, rot))


def test_apply_twist_keeps_the_rebuilt_unit_check_message():
    # Rows scaled by 1 + 2e-11 and 1 + 4e-11 pass the unitarity check but give factors that
    # fail check_unit; the rebuild reports the lower element's, whichever row it comes from.
    rot = np.diag([1 + 2e-11, 1 + 4e-11]) @ bases._HADAMARD
    b = twisted(0, (2, 3, 2), 1)
    site, (i, j) = find_local_pairs(b)[0]
    texts = []
    for pair in ((i, j), (j, i)):
        m = TwistMove(site, pair, rot)
        texts.append(raised(lambda: UnentangledBasis(edited_stacks(b, m))))
        assert texts[-1].startswith("vector norm") and raised(lambda: apply_twist(b, m)) == texts[-1]
    assert texts[0] != texts[1]  # element i holds rotation row 0, then row 1


# ---------------------------------------------------------------------------
# Batched product-state construction

def ref_states(stacks):
    return [ProductState(tuple(f[k] for f in stacks)) for k in range(len(stacks[0]))]


def raised(fn):
    try:
        fn()
    except ValidationError as exc:
        return str(exc)
    return None


@given(seeds, st.sampled_from([(2,), (3, 3), (2, 2, 2), (4, 1, 3)]),
       st.integers(min_value=1, max_value=30))
@settings(max_examples=60, deadline=None)
def test_batch_matches_constructor(seed, dims, n):
    rng = np.random.default_rng(seed)
    stacks = []
    for d in dims:
        f = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        lead = rng.integers(0, d, n)  # zero (or almost zero) leading entries
        for k in range(n):
            f[k, :lead[k]] = rng.choice([0.0, 1e-13, -3e-13j])
        stacks.append(f / np.linalg.norm(f, axis=1, keepdims=True))
    got = ProductState.batch(stacks)
    assert [e.key() for e in got] == [e.key() for e in ref_states(stacks)]
    assert all(not f.flags.writeable for e in got for f in e.factors)
    # Non-unit factors: the same first error, also near the tolerance.
    for eps in rng.choice([1e-6, 2e-12, 1.1e-12, 9e-13, 4e-13], 3):
        bad = [f.copy() for f in stacks]
        for _ in range(int(rng.integers(1, 3))):
            bad[int(rng.integers(len(dims)))][int(rng.integers(n))] *= 1 + eps
        assert raised(lambda: ProductState.batch(bad)) == raised(lambda: ref_states(bad))


def test_batch_keeps_unit_check_message():
    stacks = [np.array([[1.0, 0.0], [0.6, 0.6]])]
    with pytest.raises(ValidationError) as exc:
        ProductState.batch(stacks)
    with pytest.raises(ValidationError) as ref:
        check_unit(canonical_phase(stacks[0][1]))
    assert str(exc.value) == str(ref.value)


def test_batch_rejects_stacks_of_different_lengths():
    with pytest.raises(ValidationError, match="different numbers of states"):
        ProductState.batch([np.eye(2), np.eye(2)[:1]])


@given(seeds, st.integers(min_value=0, max_value=3))
@settings(max_examples=15, deadline=None)
def test_from_json_matches_constructor(seed, n_moves):
    b = twisted(seed, (3, 2), n_moves)
    data = b.to_json()
    ref = [ProductState(tuple(complex_from_json(f, 1) for f in e["factors"]))
           for e in data["elements"]]
    got = UnentangledBasis.from_json(data).elements
    assert [e.key() for e in got] == [e.key() for e in ref]


def test_from_json_rejects_mixed_dims():
    data = twisted(0, (2, 2), 0).to_json()
    data["elements"][1]["factors"].pop()
    with pytest.raises(ValidationError, match="inconsistent dims"):
        UnentangledBasis.from_json(data)


def test_clique_basis_matches_constructor():
    c = clique_search(3, 8, graph=Graph.G)
    ref = [ProductState(tuple(DIGIT_STATES[d] for d in vec)) for vec in c.vectors]
    assert [e.key() for e in basis_from_clique(c).elements] == [e.key() for e in ref]
