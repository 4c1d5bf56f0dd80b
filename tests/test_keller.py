"""Tests for the tiling graphs, clique search, and clique-to-basis map."""

import itertools
import time

import numpy as np
import pytest

from nsgleason.bases import find_local_pairs, validate_unentangled
from nsgleason.keller import (
    CliqueCandidate,
    Graph,
    SearchMode,
    basis_from_clique,
    bundled_candidate,
    clique_search,
    family_from_clique,
    edge,
    load_clique,
    save_clique,
    verify_clique,
)
from nsgleason.linalg import ValidationError


def test_edge_single_coordinate():
    assert edge((0, 0), (2, 0), Graph.G)
    assert not edge((0, 0), (2, 0), Graph.G_STAR)


def test_edge_two_coordinates():
    assert edge((0, 1), (2, 3), Graph.G)
    assert edge((0, 1), (2, 3), Graph.G_STAR)


def test_edge_no_two_gap():
    assert not edge((0, 0), (1, 1), Graph.G)
    assert not edge((0, 0), (1, 1), Graph.G_STAR)


def test_edge_length_mismatch():
    with pytest.raises(ValidationError):
        edge((0, 0), (0,), Graph.G)


def test_edge_symmetric_and_irreflexive():
    rng = np.random.default_rng(1)
    for _ in range(100):
        m = rng.integers(0, 4, 4)
        m2 = rng.integers(0, 4, 4)
        for g in Graph:
            assert edge(m, m2, g) == edge(m2, m, g)
            assert not edge(m, m, g)


def test_verify_1d_tiling():
    c = CliqueCandidate(1, np.array([[0], [2]]))
    rep = verify_clique(c, Graph.G)
    assert rep.is_clique and rep.tiling_certificate


def test_verify_g_but_not_gstar():
    c = CliqueCandidate(2, np.array([[0, 0], [2, 0], [1, 2], [3, 2]]))
    assert verify_clique(c, Graph.G).is_clique
    rep = verify_clique(c, Graph.G_STAR)
    assert not rep.is_clique
    assert rep.first_failure == (0, 1)


def test_exhaustive_n2_g_finds_tiling():
    found = clique_search(2, 4, SearchMode.EXHAUSTIVE, graph=Graph.G)
    assert found is not None
    assert verify_clique(found, Graph.G).tiling_certificate


def test_exhaustive_n2_gstar_none():
    t0 = time.perf_counter()
    assert clique_search(2, 4, SearchMode.EXHAUSTIVE, graph=Graph.G_STAR) is None
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("n,omega", [(2, 2), (3, 5)])
def test_exhaustive_gstar_clique_number(n, omega):
    # Keller clique numbers (Debroni et al., SODA 2011): a maximum G*-clique
    # is found, and the exhaustive search proves that none is larger.
    found = clique_search(n, omega, SearchMode.EXHAUSTIVE, graph=Graph.G_STAR)
    assert found is not None and found.size == omega
    assert verify_clique(found, Graph.G_STAR).is_clique
    assert clique_search(n, omega + 1, SearchMode.EXHAUSTIVE, graph=Graph.G_STAR) is None


def test_exhaustive_n1():
    found = clique_search(1, 2, SearchMode.EXHAUSTIVE, graph=Graph.G)
    assert sorted(map(tuple, found.vectors.tolist())) in (
        [(0,), (2,)], [(1,), (3,)],
    ) or verify_clique(found, Graph.G).tiling_certificate


def test_exhaustive_seed_independent():
    a = clique_search(2, 4, SearchMode.EXHAUSTIVE, seed=1, graph=Graph.G)
    b = clique_search(2, 4, SearchMode.EXHAUSTIVE, seed=99, graph=Graph.G)
    np.testing.assert_array_equal(a.vectors, b.vectors)


def test_exhaustive_rejected_for_large_n():
    with pytest.raises(ValidationError):
        clique_search(4, 16, SearchMode.EXHAUSTIVE)


@pytest.mark.parametrize("mode", list(SearchMode))
@pytest.mark.parametrize("n, target, budget", [(0, 1, 10), (-1, 1, 10), (2, 0, 10),
                                               (2, -3, 10), (3, 5, 0), (3, 5, -2)])
def test_clique_search_rejects_sizes_below_one(mode, n, target, budget):
    # A budget below 1 is checked in HEURISTIC mode only: EXHAUSTIVE reads none.
    if budget < 1 and mode == SearchMode.EXHAUSTIVE:
        assert clique_search(n, target, mode, budget, graph=Graph.G_STAR) is not None
        return
    with pytest.raises(ValidationError, match=">= 1"):
        clique_search(n, target, mode, budget)


def test_basis_from_1d_clique():
    c = CliqueCandidate(1, np.array([[0], [2]]))
    b = basis_from_clique(c)
    np.testing.assert_allclose(b.elements[0].factors[0], [1, 0])
    np.testing.assert_allclose(b.elements[1].factors[0], [0, 1])


def test_basis_from_search_clique_valid():
    found = clique_search(2, 4, SearchMode.EXHAUSTIVE, graph=Graph.G)
    b = basis_from_clique(found)
    assert validate_unentangled(b).is_valid


def test_basis_requires_verified_clique():
    c = CliqueCandidate(2, np.array([[0, 0], [1, 1]]))  # not a clique
    with pytest.raises(ValidationError):
        basis_from_clique(c)


def test_grid_clique_1024_verifies_fast():
    vecs = np.array(list(itertools.product([0, 2], repeat=10)), dtype=np.int8)
    c = CliqueCandidate(10, vecs)
    t0 = time.perf_counter()
    rep = verify_clique(c, Graph.G)
    assert time.perf_counter() - t0 < 10.0
    assert rep.is_clique and rep.tiling_certificate
    assert not verify_clique(c, Graph.G_STAR).is_clique


def test_clique_file_round_trip(tmp_path):
    c = clique_search(2, 4, SearchMode.EXHAUSTIVE, graph=Graph.G)
    path = tmp_path / "clique.txt"
    save_clique(path, c)
    back = load_clique(path)
    np.testing.assert_array_equal(back.vectors, c.vectors)


@pytest.mark.parametrize("text,message", [
    ("", "empty clique file"),
    (" \n\n", "empty clique file"),
    ("0123\n045\n", "malformed line '045'"),
    ("0123\n0122\n01230\n", "malformed line '01230'"),
    ("0123\n0124\n", "malformed line '0124'"),
    ("0123\n01 3\n", "malformed line '01 3'"),
    ("0123\n01\u06623\n", "malformed line '01\u06623'"),  # an Arabic-Indic 2
    ("0123\n0\u00e923\n", "malformed line '0\u00e923'"),
    # The first bad line is named, whichever way it is bad.
    ("0123\n01x3\n012\n", "malformed line '01x3'"),
    ("0123\n012\n01x3\n", "malformed line '012'"),
    ("0123\n2301\n0123\n", "duplicate vectors in candidate"),
], ids=["empty", "blank lines", "ragged line", "long line", "digit 4", "inner space",
        "non-ascii digit", "non-ascii letter", "bad char first", "ragged first",
        "duplicate vectors"])
def test_malformed_clique_file(tmp_path, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValidationError) as exc:
        load_clique(path)
    assert str(exc.value) == message


@pytest.mark.parametrize("vectors, message", [([[0, 1, 2]], r"shape \(N, 2\)"),
                                              ([0, 1], r"shape \(N, 2\)"),
                                              ([[0, 4]], "lie in"), ([[-1, 0]], "lie in")])
def test_clique_candidate_checks_shape_and_range(vectors, message):
    with pytest.raises(ValidationError, match=message):
        CliqueCandidate(2, vectors)


@pytest.mark.parametrize("n, vectors", [(2, np.zeros((0, 2))), (0, np.zeros((1, 0))),
                                        (0, np.zeros((0, 0)))])
def test_clique_candidate_rejects_empty_candidates(n, vectors):
    with pytest.raises(ValidationError, match="at least one vector"):
        CliqueCandidate(n, vectors)


@pytest.mark.parametrize("col", [0, 31, 32, 39])
def test_duplicate_check_reads_every_coordinate(col):
    # Two vectors that differ in one coordinate, first, last or in between,
    # are distinct; equal ones are rejected.
    vecs = np.zeros((3, 40), dtype=np.int8)
    vecs[1, col] = 2
    assert CliqueCandidate(40, vecs[:2]).size == 2
    with pytest.raises(ValidationError, match="duplicate vectors"):
        CliqueCandidate(40, vecs[[0, 1, 2]])


def test_bundled_candidate_is_periodic_tiling():
    c = bundled_candidate()
    assert c.n == 10 and c.size == 2 ** c.n
    t0 = time.perf_counter()
    rep = verify_clique(c, Graph.G)
    assert time.perf_counter() - t0 < 10.0
    assert rep.is_clique and rep.tiling_certificate
    # The shipped grid shares facets, so G*-verification must reject it:
    # the verifier is the authority, never the data file.
    assert not verify_clique(c, Graph.G_STAR).is_clique


def test_bundled_candidate_basis_is_valid_but_twistable():
    c = bundled_candidate()
    b = basis_from_clique(c)
    assert validate_unentangled(b).is_valid
    # Grid pairs differing in one coordinate give local pairs (twist moves
    # apply) — the opposite of what a facet-free clique would produce.
    assert len(find_local_pairs(b)) > 0


def test_gstar_clique_family_has_no_local_pairs():
    c = clique_search(4, 8, SearchMode.HEURISTIC, graph=Graph.G_STAR,
                      budget=200, seed=1)
    assert c is not None
    assert verify_clique(c, Graph.G_STAR).is_clique
    fam = family_from_clique(c, Graph.G_STAR)
    assert validate_unentangled(fam).worst_overlap <= 1e-12
    assert find_local_pairs(fam) == []
