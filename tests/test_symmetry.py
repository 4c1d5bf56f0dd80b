"""Symmetry tests: the orientation and product-positivity classes are invariant under
the setting's symmetries, and reconstruction and sections are covariant under them;
so are local pairs and the twist search under a permutation of a basis's sites.

Local unitaries U (x) V, the site swap and complex conjugation each map product
states to product states, and the first and last keep the spectra of t and of its
partial transpose; the swap exchanges the site-1 and site-2 partial transposes,
which are each other's transpose.  So no class may change under any of them, and
the operator reconstructed from a transformed operator's values on the fixed
design is the transformed reconstruction.  Likewise the section of a transformed
operator on the transformed contexts is the original section, transposed by the swap.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsgleason.bases import (
    TwistMove,
    UnentangledBasis,
    apply_twist,
    find_local_pairs,
    product_basis,
    twist_search,
    twisted_example_basis,
)
from nsgleason.framefn import OperatorInduced, make_signalling_example, sample_from_operator
from nsgleason.gleason import (
    classify_product_positivity,
    random_product_effects,
    reconstruct_povm,
    reconstruct_pvm,
    sample_effects_from_operator,
    spanning_design,
)
from nsgleason.linalg import (
    HermitianOperator,
    make_rng,
    partial_transpose,
    random_density,
    random_hermitian,
    random_onb,
)
from nsgleason.nosig import chsh_optimize
from nsgleason.orientation import classify_orientation
from nsgleason.presheaf import (
    Context,
    ProductContext,
    RefinementEdge,
    SectionTable,
    check_section,
    random_context_family,
    section_from_framefn,
)


def inputs(rng, dims) -> dict:
    """A density, its partial transpose, a mixture with a partially transposed density
    and a traceless Hermitian operator: between them every class of both classifiers."""
    rho, sigma = random_density(rng, dims), random_density(rng, dims)
    h = random_hermitian(rng, dims).mat
    n = h.shape[0]
    return {
        "density": rho,
        "flipped density": partial_transpose(rho, 0),
        "mixture": HermitianOperator(dims, (rho.mat + partial_transpose(sigma, 0).mat) / 2),
        "traceless": HermitianOperator(dims, h - np.trace(h).real / n * np.eye(n)),
    }


def symmetry_maps(rng, dims) -> dict:
    """Each symmetry as a map on operators of the given two-site dims."""
    d1, d2 = dims
    uv = np.kron(random_onb(rng, d1), random_onb(rng, d2))
    return {
        "local unitary": lambda t: HermitianOperator(dims, uv @ t.mat @ uv.conj().T),
        "site swap": lambda t: HermitianOperator((d2, d1), t.mat.reshape(
            d1, d2, d1, d2).transpose(1, 0, 3, 2).reshape(d1 * d2, d1 * d2)),
        "conjugation": lambda t: HermitianOperator(dims, t.mat.conj()),
    }


def symmetries(rng, t: HermitianOperator) -> dict:
    return {name: image(t) for name, image in symmetry_maps(rng, t.dims).items()}


def classes(t: HermitianOperator) -> tuple:
    return classify_orientation(t).value, classify_product_positivity(t)[0]


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (3, 4)])
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_classes_are_invariant_under_local_unitaries_swap_and_conjugation(dims, seed):
    rng = make_rng(seed)
    for kind, t in inputs(rng, dims).items():
        expected = classes(t)
        for name, image in symmetries(rng, t).items():
            assert classes(image) == expected, (kind, name)


def reconstruct(t: HermitianOperator):
    design = spanning_design(t.dims)
    return reconstruct_pvm(sample_from_operator(t, design.states), design)


@pytest.mark.parametrize("dims", [(3, 3), (3, 4), (3, 6)])
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=2, deadline=None)
def test_reconstruction_is_covariant_under_local_unitaries_and_the_swap(dims, seed):
    # The swapped operator is reconstructed on the swapped dims' design.
    rng = make_rng(seed)
    for kind, t in inputs(rng, dims).items():
        rec = reconstruct(t)
        maps = symmetry_maps(rng, dims)
        for name in ("local unitary", "site swap"):
            image = reconstruct(maps[name](t))
            assert np.linalg.norm(image.t.mat - maps[name](rec.t).mat) <= 1e-11, (kind, name)
            assert image.classification is rec.classification, (kind, name)


def reconstruct_on(effects, t: HermitianOperator):
    return reconstruct_povm(sample_effects_from_operator(t, effects), effects)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=5, deadline=None)
def test_effect_reconstruction_is_covariant_under_local_unitaries_and_the_swap(dims, seed):
    # The same effect grid for U (x) V; the swapped operator is read on the swapped grid.
    rng = make_rng(seed)
    effects = random_product_effects(rng, dims, max(dims) ** 2 + 2)
    maps = symmetry_maps(rng, dims)
    for kind, t in inputs(rng, dims).items():
        rec = reconstruct_on(effects, t)
        for name, grid in (("local unitary", effects), ("site swap", effects[::-1])):
            image = reconstruct_on(grid, maps[name](t))
            assert np.linalg.norm(image.t.mat - maps[name](rec.t).mat) <= 1e-11, (kind, name)
            assert image.classification is rec.classification, (kind, name)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_chsh_maximum_is_invariant_under_local_unitaries_swap_and_conjugation(seed):
    rng = make_rng(seed)
    for kind, t in inputs(rng, (2, 2)).items():
        value = chsh_optimize(t)[0]
        for name, image in symmetries(rng, t).items():
            assert abs(chsh_optimize(image)[0] - value) <= 1e-12, (kind, name)


def moved_family(contexts, edges, move, swap=False):
    """The family with each fine context (L, R) replaced by the ProductContext move(L, R),
    and each edge by the edge to the same node from the moved context, its groups
    exchanged if ``swap``."""
    moved = {c.label: move(c.left, c.right) for c in contexts}
    return [moved[c.label] for c in contexts], [
        RefinementEdge(moved[e.fine.label], e.coarse,
                       *((e.right_groups, e.left_groups) if swap else (e.left_groups, e.right_groups)))
        for e in edges]


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (3, 4)])
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_sections_are_covariant_under_local_unitaries_and_the_swap(dims, seed):
    rng = make_rng(seed)
    contexts, edges = random_context_family(dims, 4, seed=seed)
    u, v = random_onb(rng, dims[0]), random_onb(rng, dims[1])
    rotated = moved_family(contexts, edges, lambda a, b: ProductContext(
        Context(u @ a.basis, a.label), Context(v @ b.basis, b.label)))
    swapped = moved_family(contexts, edges, lambda a, b: ProductContext(b, a), swap=True)
    uv = np.kron(u, v)
    maps = {"local unitary": lambda t: HermitianOperator(dims, uv @ t.mat @ uv.conj().T),
            "site swap": symmetry_maps(rng, dims)["site swap"]}
    for kind, t in inputs(rng, dims).items():
        # The traceless operator is negative on some contexts: tabulate it unchecked.
        section = section_from_framefn(OperatorInduced(t), contexts)
        report = check_section(section, edges)
        for name, (family, family_edges) in (("local unitary", rotated), ("site swap", swapped)):
            image = section_from_framefn(OperatorInduced(maps[name](t)), family)
            for c, moved in zip(contexts, family):
                want = section[c].T if name == "site swap" else section[c]
                assert np.abs(image[moved] - want).max() <= 1e-12, (kind, name, c.label)
            moved_report = check_section(image, family_edges)
            assert moved_report.passed is report.passed is True, (kind, name)
    # A signalling section fails, and its transpose fails on the swapped family alike.
    section = section_from_framefn(make_signalling_example(dims, rng.uniform(0.5, 1.0)), contexts)
    report = check_section(section, edges)
    family, family_edges = swapped
    image = SectionTable(tuple(family), {m.label: section[c].T for c, m in zip(contexts, family)})
    moved_report = check_section(image, family_edges)
    assert not report.passed and not moved_report.passed
    assert abs(moved_report.max_distance - report.max_distance) <= 1e-12


def twisted(rng, dims, n_moves) -> UnentangledBasis:
    """A random product basis after ``n_moves`` random twist moves."""
    b = product_basis([random_onb(rng, d).T for d in dims])
    for _ in range(n_moves):
        pairs = find_local_pairs(b)
        site, pair = pairs[int(rng.integers(len(pairs)))]
        b = apply_twist(b, TwistMove(site, pair, random_onb(rng, 2)))
    return b


def check_site_permutations(b: UnentangledBasis):
    # Site s of the permuted basis is site perm[s] of b: each local pair keeps its
    # (i, j) and moves to its site's new place, and the search reaches the same end.
    pairs, res = find_local_pairs(b), twist_search(b, budget=8)
    for perm in itertools.permutations(range(len(b.stacks))):
        moved = UnentangledBasis([b.stacks[s] for s in perm])
        assert find_local_pairs(moved) == [(perm.index(s), p) for s, p in pairs], perm
        image = twist_search(moved, budget=8)
        assert (image.found, image.reason) == (res.found, res.reason), perm


@pytest.mark.parametrize("dims", [(2, 3), (3, 3), (2, 2, 2)])
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_local_pairs_and_twist_search_follow_a_site_permutation(dims, seed):
    rng = make_rng(seed)
    check_site_permutations(twisted(rng, dims, int(rng.integers(0, 4))))


def test_twisted_example_is_untwisted_under_the_site_swap():
    check_site_permutations(twisted_example_basis())
