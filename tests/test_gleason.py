"""Tests for operator reconstruction and product-positivity classification."""

import itertools
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsgleason.framefn import make_signalling_example, sample_from_operator
from nsgleason.gleason import (
    Classification,
    SpanningDesign,
    Witness,
    classify_product_positivity,
    complete_mubs,
    hermitian_basis,
    product_seesaw_min,
    projector_features,
    random_product_effects,
    reconstruct_povm,
    reconstruct_pvm,
    sample_effects_from_operator,
    spanning_design,
    feature_of,
    vec_to_herm,
    _lowest_eigenpairs,
    _upper_pairs,
)
from nsgleason.linalg import (
    HermitianOperator,
    ProductState,
    ValidationError,
    make_rng,
    partial_transpose,
    hermitian_eig,
    proj,
    random_density,
    random_hermitian,
    random_onbs,
    random_unit,
    site_stacks,
    tensor_rows,
)
from nsgleason.orientation import Orientation, OrientationClass, classify_orientation
from nsgleason.tolerances import FEATURE_RANK, PRODUCT_POSITIVE, PSD, ROUND_TRIP, UNIT_TRACE

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=float
)


def test_hermitian_basis_orthonormal():
    basis = hermitian_basis(3)
    gram = np.einsum("aij,bji->ab", basis, basis)
    np.testing.assert_allclose(gram, np.eye(9), atol=1e-12)


def test_hermitian_basis_read_only():
    basis = hermitian_basis(3)
    with pytest.raises(ValueError):
        basis[0, 0, 0] = 2.0
    assert hermitian_basis(3)[0, 0, 0] == 1.0


def test_herm_vec_round_trip():
    rng = make_rng(1)
    m = random_hermitian(rng, (2, 2)).mat
    np.testing.assert_allclose(vec_to_herm(feature_of(m)), m, atol=1e-12)


def test_spanning_design_ranks():
    for dims, n_feat in [((3, 3), 81), ((2, 2), 16), ((1, 1), 1)]:
        rows = projector_features(site_stacks(spanning_design(dims, seed=0).states))
        assert np.linalg.matrix_rank(rows, tol=FEATURE_RANK) == n_feat


def test_spanning_design_oversample_count():
    # The grid oversamples the D^2 coordinates by prod (d + 1) / d, fixed by the dims
    # alone: 144 states for 81 at (3, 3), 900 for 625 at (5, 5).
    for dims in [(3, 3), (4, 4), (5, 5), (3, 4)]:
        ratio = np.prod([(d + 1) / d for d in dims])
        for seed in (0, 1):
            n = len(spanning_design(dims, seed=seed).states)
            assert n == round(ratio * int(np.prod(dims)) ** 2)


@pytest.mark.parametrize("dims, count", [((3, 3), 144), ((3, 4), 240), ((5, 5), 900),
                                         ((3, 3, 3), 1728)])
def test_spanning_design_is_a_grid_of_local_bases(dims, count):
    design = spanning_design(dims, seed=0)
    assert len(design.states) == count  # prod of d (d + 1)
    for d, local in zip(dims, design.local):
        assert local.shape == (d * (d + 1), d) and not local.flags.writeable
        bases = local.reshape(d + 1, d, d)  # basis k holds rows k d ... k d + d - 1
        np.testing.assert_allclose(bases @ bases.conj().swapaxes(1, 2),
                                   np.broadcast_to(np.eye(d), bases.shape), atol=1e-12)


def test_reconstruct_round_trip_density():
    rng = make_rng(2)
    design = spanning_design((3, 3), seed=1)
    rho = random_density(rng, (3, 3))
    rec = reconstruct_pvm(sample_from_operator(rho, design.states), design, seed=2)
    assert np.linalg.norm(rec.t.mat - rho.mat) <= 1e-8
    assert rec.classification is Classification.DENSITY_MATRIX
    assert rec.residual <= 1e-10


def test_reconstruct_partial_transpose_of_entangled_projector():
    phi = np.zeros(9, dtype=complex)
    for i in range(3):
        phi[i * 3 + i] = 1 / np.sqrt(3)
    t = partial_transpose(HermitianOperator((3, 3), proj(phi)), 1)
    design = spanning_design((3, 3), seed=3)
    rec = reconstruct_pvm(sample_from_operator(t, design.states), design, seed=4)
    assert np.linalg.norm(rec.t.mat - t.mat) <= 1e-8
    assert rec.classification is Classification.PRODUCT_POSITIVE_ONLY
    # Min eigenvalue is -1/3; the site-1 flip gives the PSD proj(phi)^T, so
    # the orientation certificate decides and no see-saw runs.
    assert np.linalg.eigvalsh(t.mat)[0] == pytest.approx(-1 / 3, abs=1e-10)
    assert rec.witness is None
    assert rec.certificate.value is Orientation.CO_CP
    assert rec.certificate.min_eig_choi == pytest.approx(-1 / 3, abs=1e-8)
    assert rec.certificate.min_eig_flipped_choi == pytest.approx(0.0, abs=1e-8)
    # The min product value is 0.
    assert product_seesaw_min(rec.t, seed=4).value == pytest.approx(0.0, abs=1e-8)


def test_reconstruction_report_carries_the_seesaw_witness():
    # A traceless t is negative on some product state and in the NEITHER class.
    t = random_hermitian(make_rng(4), (3, 3))
    t = HermitianOperator((3, 3), t.mat - t.trace() / 9 * np.eye(9))
    design = spanning_design((3, 3), seed=0)
    rec = reconstruct_pvm(sample_from_operator(t, design.states), design)
    assert rec.classification is Classification.INDEFINITE_ON_PRODUCTS
    assert rec.certificate is None and rec.witness.value < 0
    v = np.kron(*rec.witness.factors)
    assert t.expectation(v) == pytest.approx(rec.witness.value, abs=1e-12)


def test_three_site_operators_are_classified_without_the_seesaw():
    rho = random_density(make_rng(5), (2, 2, 2))
    assert classify_product_positivity(rho) == (Classification.DENSITY_MATRIX, None)
    # Anything but a density goes to the see-saw, which takes two sites only.
    with pytest.raises(ValidationError, match="exactly two sites"):
        classify_product_positivity(HermitianOperator((2, 2, 2), 2 * rho.mat))


def test_reconstruct_signalling_residual_floor():
    f = make_signalling_example((3, 3), np.pi / 4)
    design = spanning_design((3, 3), seed=5)
    rec = reconstruct_pvm(f, design, seed=6)
    assert rec.residual > 1e-3


def test_reconstruct_rejects_qubit_sites():
    design = spanning_design((2, 2), seed=7)
    rng = make_rng(8)
    rho = random_density(rng, (2, 2))
    with pytest.raises(ValidationError):
        reconstruct_pvm(sample_from_operator(rho, design.states), design)


def test_reconstruct_names_the_site_whose_bases_do_not_span():
    # Site 1 repeats its first basis: 3 + 1 bases of which 3 differ span 7 < 9 operators.
    design = spanning_design((3, 3), seed=9)
    site1 = design.local[1].reshape(4, 3, 3)
    repeated = SpanningDesign((3, 3), (design.local[0], np.concatenate([site1[0], *site1[:3]])))
    f = sample_from_operator(random_density(make_rng(9), (3, 3)), repeated.states)
    with pytest.raises(ValidationError, match=r"^site 1: 12 local states have feature rank 7 < 9$"):
        reconstruct_pvm(f, repeated)


@pytest.mark.parametrize("dims, kind", [
    ((3, 3), "density"), ((3, 3), "hermitian"), ((3, 3), "signalling"), ((4, 4), "hermitian"),
    ((3, 5), "signalling"), ((3, 3, 3), "density")])
def test_pvm_is_the_effect_grid_of_the_rank1_projectors(dims, kind):
    # reconstruct_pvm solves the grid of the projectors |v><v| of its local states.
    design = spanning_design(dims, seed=13)
    rng = make_rng(13)
    if kind == "signalling":
        f = make_signalling_example(dims, 0.7)
    else:
        t = random_density(rng, dims) if kind == "density" else random_hermitian(rng, dims)
        f = sample_from_operator(t, design.states)
    projectors = [np.array([proj(x) for x in v]) for v in design.local]
    values = np.array([f(s) for s in design.states]).reshape([len(v) for v in design.local])
    pvm, povm = reconstruct_pvm(f, design, seed=3), reconstruct_povm(values, projectors, seed=3)
    assert pvm.t.mat.tobytes() == povm.t.mat.tobytes()
    assert repr(pvm.residual) == repr(povm.residual) and pvm.ranks == povm.ranks
    assert pvm.classification is povm.classification


@pytest.mark.parametrize("dims", [(3, 3), (4, 4), (3, 5)])
def test_operator_induced_values_have_no_grid_residual(dims):
    design = spanning_design(dims, seed=11)
    rec = reconstruct_pvm(sample_from_operator(random_hermitian(make_rng(11), dims), design.states),
                          design)
    assert rec.residual <= 1e-12
    assert rec.ranks == tuple(d * d for d in dims)


def test_three_site_round_trip():
    rho = random_density(make_rng(12), (3, 3, 3))
    design = spanning_design((3, 3, 3), seed=12)
    rec = reconstruct_pvm(sample_from_operator(rho, design.states), design)
    assert np.linalg.norm(rec.t.mat - rho.mat) <= ROUND_TRIP
    assert rec.residual <= 1e-12 and rec.ranks == (9, 9, 9)
    assert rec.classification is Classification.DENSITY_MATRIX


def test_reconstructed_weight1_has_unit_trace():
    rng = make_rng(9)
    design = spanning_design((3, 3), seed=9)
    for _ in range(3):
        rho = random_density(rng, (3, 3))
        rec = reconstruct_pvm(sample_from_operator(rho, design.states), design)
        assert abs(rec.t.trace() - 1.0) <= 1e-8


def test_povm_round_trip_qubits():
    rng = make_rng(10)
    rho = random_density(rng, (2, 2))
    effects = random_product_effects(rng, (2, 2), 6)
    rec = reconstruct_povm(sample_effects_from_operator(rho, effects), effects)
    assert np.linalg.norm(rec.t.mat - rho.mat) <= 1e-8
    assert rec.classification is Classification.DENSITY_MATRIX
    assert rec.ranks == (4, 4)


def test_povm_round_trip_three_qubits():
    rng = make_rng(13)
    rho = random_density(rng, (2, 2, 2))
    effects = random_product_effects(rng, (2, 2, 2), 5)
    rec = reconstruct_povm(sample_effects_from_operator(rho, effects), effects)
    assert np.linalg.norm(rec.t.mat - rho.mat) <= ROUND_TRIP
    assert rec.classification is Classification.DENSITY_MATRIX
    assert rec.ranks == (4, 4, 4) and rec.residual <= 1e-12


def test_povm_constant_trace_function_gives_mixed_state():
    rng = make_rng(11)
    e1, e2 = random_product_effects(rng, (2, 2), 6)
    values = np.array([[np.trace(np.kron(a, b)).real / 4 for b in e2] for a in e1])
    rec = reconstruct_povm(values, (e1, e2))
    np.testing.assert_allclose(rec.t.mat, np.eye(4) / 4, atol=1e-8)


def test_povm_recovers_swap_half():
    rng = make_rng(12)
    t = HermitianOperator((2, 2), SWAP / 2)
    effects = random_product_effects(rng, (2, 2), 6)
    rec = reconstruct_povm(sample_effects_from_operator(t, effects), effects)
    assert np.linalg.norm(rec.t.mat - t.mat) <= 1e-8
    assert rec.classification is Classification.PRODUCT_POSITIVE_ONLY


def test_povm_sample_values_match_trace():
    rng = make_rng(14)
    for dims in ((2, 2), (2, 3), (3, 3), (2, 2, 2)):
        t = random_hermitian(rng, dims)
        effects = random_product_effects(rng, dims, 5)
        values = sample_effects_from_operator(t, effects)
        assert values.shape == (5,) * len(dims) and values.dtype == float
        for k in itertools.product(range(5), repeat=len(dims)):
            product = reduce(np.kron, [e[i] for e, i in zip(effects, k)])
            assert abs(values[k] - np.trace(t.mat @ product).real) <= 1e-14


def test_povm_rejects_spanning_too_little():
    # 3 effects cannot span the 4 dimensions of one qubit's operators.
    rng = make_rng(15)
    effects = random_product_effects(rng, (2, 2), 6)
    effects[0] = effects[0][:3]
    values = sample_effects_from_operator(random_density(rng, (2, 2)), effects)
    with pytest.raises(ValidationError, match="site 0: 3 local effects have feature rank 3 < 4"):
        reconstruct_povm(values, effects)


@pytest.mark.parametrize("shape", [(6, 5), (5, 6), (36,), (6, 6, 1), ()])
def test_povm_rejects_values_of_the_wrong_shape(shape):
    effects = random_product_effects(make_rng(17), (2, 2), 6)
    with pytest.raises(ValidationError, match=r"values of shape .* on a grid of \(6, 6\) effects"):
        reconstruct_povm(np.full(shape, 0.25), effects)


def test_povm_rejects_bad_effect():
    # One effect outside [0, 1], or not Hermitian (its lower triangle alone is a valid
    # effect), at either site and at the first, a middle or the last position of its
    # stack among valid ones: the error names the site.
    for bad, position, site in itertools.product(
            (np.diag([1.5, 0.0]), np.diag([0.5, -0.1]), np.array([[0.5, 0.4], [0.0, 0.5]])),
            (0, 3, 5), (0, 1)):
        effects = random_product_effects(make_rng(16), (2, 2), 6)
        effects[site][position] = bad
        with pytest.raises(ValidationError, match=f"site {site}: not a Hermitian effect "
                                                  r"with spectrum in \[0, 1\]"):
            reconstruct_povm(np.full((6, 6), 0.25), effects)
    with pytest.raises(ValidationError, match=r"site 1: effects of shape \(2, 2\)"):
        reconstruct_povm(np.full((1, 2), 0.25), [np.eye(2)[None], np.eye(2)])
    with pytest.raises(ValidationError, match=r"site 0: effects of shape \(0, 2, 2\)"):
        reconstruct_povm(np.zeros((0, 1)), [np.zeros((0, 2, 2)), np.eye(2)[None]])


def test_classify_bell_projector_density():
    phi = np.array([1, 0, 0, 1]) / np.sqrt(2)
    cls, _ = classify_product_positivity(HermitianOperator((2, 2), proj(phi)))
    assert cls is Classification.DENSITY_MATRIX


def test_classify_swap_half():
    t = HermitianOperator((2, 2), SWAP / 2)
    cls, cert = classify_product_positivity(t)
    assert cls is Classification.PRODUCT_POSITIVE_ONLY
    # Unit trace but one eigenvalue -1/2; the site-1 flip is the Bell projector.
    assert cert.value is Orientation.CO_CP
    assert cert.min_eig_choi == pytest.approx(-0.5, abs=1e-12)
    assert cert.min_eig_flipped_choi == pytest.approx(0.0, abs=1e-12)
    # The min product value is 0.
    assert product_seesaw_min(t).value == pytest.approx(0.0, abs=1e-8)


def test_classify_shifted_swap_indefinite():
    t = HermitianOperator((2, 2), SWAP / 2 - 0.3 * np.eye(4))
    cls, wit = classify_product_positivity(t)
    assert cls is Classification.INDEFINITE_ON_PRODUCTS
    assert wit.value <= -0.05


def test_classification_invariant_under_partial_transpose():
    rng = make_rng(13)
    for seed in range(3):
        t = random_hermitian(rng, (2, 3))
        flipped = partial_transpose(t, 1)
        cls1, _ = classify_product_positivity(t, seed=seed)
        cls2, _ = classify_product_positivity(flipped, seed=seed)
        assert cls1 is cls2
        # The converged minimum, with no stop, is the same value on both.
        wit1, wit2 = product_seesaw_min(t, seed=seed), product_seesaw_min(flipped, seed=seed)
        assert abs(wit1.value - wit2.value) <= 1e-8


@pytest.mark.parametrize("restarts, iters", [(0, 300), (-1, 300), (64, 0), (64, -1), (2.5, 300),
                                             (64, 2.5), (True, 300), (64, True)])
def test_seesaw_rejects_bad_counts(restarts, iters):
    # No restart, or no sweep, leaves nothing that descended to report; a
    # fractional count, or a bool, is no count.
    t = random_density(make_rng(0), (3, 3))
    with pytest.raises(ValidationError, match="integers restarts >= 1 and iters >= 1"):
        product_seesaw_min(t, restarts=restarts, iters=iters)


# ---------------------------------------------------------------------------
# Closed-form features and the batched see-saw against test-only dense paths.

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def einsum_features(op):
    """tr(B_k E) summed over the dense hermitian_basis stack."""
    return np.einsum("kij,ji->k", hermitian_basis(op.shape[0]), op).real


def random_matrix(rng, d, hermitian):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    z = z + z.conj().T if hermitian else z
    return z / np.abs(z).max()


@given(seeds, st.integers(min_value=1, max_value=9), st.booleans())
@settings(max_examples=40, deadline=None)
def test_feature_of_matches_dense_basis(seed, d, hermitian):
    rng = make_rng(seed)
    ops = np.array([random_matrix(rng, d, hermitian) for _ in range(3)])
    dense = np.array([einsum_features(op) for op in ops])
    assert np.max(np.abs(feature_of(ops) - dense)) <= 1e-15
    for op, row in zip(ops, dense):
        assert np.max(np.abs(feature_of(op) - row)) <= 1e-15


@given(seeds, st.sampled_from([(1,), (3,), (5,), (1, 1), (2, 2), (2, 3), (3, 3), (4, 4),
                               (2, 2, 2), (2, 3, 2), (3, 3, 2)]))
@settings(max_examples=60, deadline=None)
def test_product_state_rows_match_dense_basis(seed, dims):
    # One to three sites; the full vectors also go in as a one-site stack.
    rng = make_rng(seed)
    states = [ProductState(tuple(random_unit(rng, d) for d in dims)) for _ in range(5)]
    dense = np.array([einsum_features(proj(s.full())) for s in states])
    assert np.max(np.abs(projector_features(site_stacks(states)) - dense)) <= 1e-15
    psi = np.array([s.full() for s in states])
    assert np.max(np.abs(projector_features([psi]) - dense)) <= 1e-15


@given(seeds, st.integers(min_value=1, max_value=9))
@settings(max_examples=40, deadline=None)
def test_coordinates_round_trip(seed, d):
    rng = make_rng(seed)
    m = random_matrix(rng, d, hermitian=True)
    np.testing.assert_allclose(vec_to_herm(feature_of(m)), m, rtol=0, atol=1e-15)
    x = rng.standard_normal(d * d)
    np.testing.assert_allclose(feature_of(vec_to_herm(x)), x, rtol=0, atol=1e-15)
    np.testing.assert_array_equal(vec_to_herm(x), np.einsum("k,kij->ij", x, hermitian_basis(d)))


def looped_seesaw_min(t, restarts, seed, iters=300):
    """One restart at a time, as the see-saw ran before it was batched."""
    d1, d2 = t.dims
    arr = t.mat.reshape(d1, d2, d1, d2)
    rng = make_rng(seed)
    best_val, best = np.inf, None
    for _ in range(restarts):
        w = random_unit(rng, d2)
        v = random_unit(rng, d1)
        prev = np.inf
        for _ in range(iters):
            a_w = np.einsum("ikjl,k,l->ij", arr, w.conj(), w)
            vals, vecs = np.linalg.eigh(0.5 * (a_w + a_w.conj().T))
            v = vecs[:, 0]
            b_v = np.einsum("ikjl,i,j->kl", arr, v.conj(), v)
            vals, vecs = np.linalg.eigh(0.5 * (b_v + b_v.conj().T))
            w = vecs[:, 0]
            cur = float(vals[0])
            if abs(prev - cur) < 1e-14:
                break
            prev = cur
        val = float(np.einsum("ikjl,i,k,j,l->", arr, v.conj(), w.conj(), v, w).real)
        if val < best_val:
            best_val, best = val, (v, w)
    return best_val, best


@given(seeds, st.sampled_from([(2, 2), (2, 3), (3, 3), (4, 4)]),
       st.sampled_from(["hermitian", "partial_transpose", "shifted_swap"]),
       st.sampled_from([1, 3, 300]))
@settings(max_examples=30, deadline=None)
def test_batched_seesaw_matches_loop(seed, dims, kind, iters):
    # Capped runs (iters 1 and 3) end where each start leads, so they pin the draws.
    rng = make_rng(seed)
    if kind == "hermitian":
        t = random_hermitian(rng, dims)
    elif kind == "partial_transpose":
        t = partial_transpose(random_density(rng, dims), 0)
    else:  # product-positive swap, shifted by a random amount around zero
        d = dims[0]
        swap = np.eye(d * d)[[j * d + i for i in range(d) for j in range(d)]]
        t = HermitianOperator((d, d), swap / 2 + rng.uniform(-0.2, 0.2) * np.eye(d * d))
    wit = product_seesaw_min(t, restarts=8, seed=seed, iters=iters)
    value, _ = looped_seesaw_min(t, restarts=8, seed=seed, iters=iters)
    assert abs(wit.value - value) <= 1e-12
    assert (wit.value >= -1e-8) == (value >= -1e-8)
    assert abs(t.expectation(np.kron(*wit.factors)) - wit.value) <= 1e-12


def sequentially_drawn_seesaw_min(t, restarts, seed, iters=300):
    """product_seesaw_min with its start vectors drawn one random_unit call
    at a time, as before the draws were stacked: (v, w, value)."""
    d1, d2 = t.dims
    tt = t.mat.reshape(d1, d2, d1, d2).transpose(0, 2, 1, 3).reshape(d1 * d1, d2 * d2)
    rng = make_rng(seed)
    w, v = map(np.array, zip(*[(random_unit(rng, d2), random_unit(rng, d1))
                               for _ in range(restarts)]))
    prev = np.full(restarts, np.inf)
    live = np.arange(restarts)
    for _ in range(iters):
        if not live.size:
            break
        _, v[live] = _lowest_eigenpairs(tensor_rows([w[live].conj(), w[live]]) @ tt.T, d1)
        vals, w[live] = _lowest_eigenpairs(tensor_rows([v[live].conj(), v[live]]) @ tt, d2)
        done = np.abs(prev[live] - vals) < 1e-14
        prev[live] = vals
        live = live[~done]
    psi = tensor_rows([v, w])
    values = np.einsum("ri,ri->r", psi.conj(), psi @ t.mat.T).real
    best = int(np.argmin(values))
    return v[best], w[best], float(values[best])


@given(seeds, st.sampled_from([(2, 2), (2, 3), (3, 3), (4, 3)]), st.sampled_from([1, 300]))
@settings(max_examples=20, deadline=None)
def test_seesaw_matches_sequentially_drawn_starts_bytewise(seed, dims, iters):
    t = partial_transpose(random_density(make_rng(seed), dims), 0)
    wit = product_seesaw_min(t, restarts=8, seed=seed, iters=iters)
    v, w, value = sequentially_drawn_seesaw_min(t, 8, seed, iters)
    assert wit.factors[0].tobytes() == v.tobytes()
    assert wit.factors[1].tobytes() == w.tobytes()
    assert wit.value == value


# The factors q of a site of spanning_design: 4s, then at most one 2, then odd primes.
FACTORS = {2: (2,), 3: (3,), 4: (4,), 5: (5,), 6: (2, 3), 7: (7,), 8: (4, 2),
           9: (3, 3), 10: (2, 5), 12: (4, 3)}


def kron_bases(stacks):
    """Every tensor product of one basis from each stack of bases, the first stack's index
    major: basis k of a stack is a (q, ...) array of q vectors, or of q operators, and two
    bases multiply as np.kron multiplies them, vector (i, j) the product of i and j."""
    out = [np.ones(1)]
    for s in stacks:
        out = [np.kron(a, b) for a in out for b in s]
    return np.array(out)


@pytest.mark.parametrize("seed", range(4))
def test_mixed_design_draws_at_its_random_sites_only(seed):
    # At (3, 6) site 0 holds the d = 3 set, and site 1 the products of the d = 2 and d = 3
    # sets: 3 x 4 = 12 bases.  No site is random, so nothing is drawn and every seed gives
    # the one design.
    design = spanning_design((3, 6), seed=seed)
    assert design.local[0].tobytes() == complete_mubs(3).tobytes()
    want = kron_bases([complete_mubs(q).reshape(q + 1, q, q) for q in (2, 3)])
    np.testing.assert_allclose(design.local[1], want.reshape(-1, 6), rtol=0, atol=1e-15)
    assert len(design.states) == 12 * 72
    for other in (0, seed + 1, 141, 2999):
        assert spanning_design((3, 6), seed=other) is design


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 11])
def test_complete_mubs_are_orthonormal_and_unbiased(d):
    bases = complete_mubs(d).reshape(d + 1, d, d)  # basis k holds rows k d ... k d + d - 1
    overlaps = np.einsum("kai,lbi->klab", bases, bases.conj())
    for k, l in itertools.product(range(d + 1), repeat=2):
        want = np.eye(d) if k == l else np.full((d, d), 1 / d)
        got = overlaps[k, l] if k == l else np.abs(overlaps[k, l]) ** 2
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(bases[0], np.eye(d))  # the computational basis first


def test_complete_mubs_are_built_at_odd_prime_d_and_4_only():
    # and at d = 2, the eigenbases of Z, X and Y.
    assert [d for d in range(1, 14) if complete_mubs(d) is not None] == [2, 3, 4, 5, 7, 11, 13]


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8, 9, 10, 12])
def test_mub_site_solve_is_the_closed_form(d):
    # A complete MUB set of C^q is a 2-design: sum_k tr(P_k X) P_k = X + tr(X) I, inverted
    # by Y -> Y - tr(Y) I / (q + 1).  A site's frame operator is the tensor product of its
    # factors', so the pseudo-inverse's row k is feature_of(prod_i (P_k_i - I / (q_i + 1)))
    # and kappa = prod_i sqrt(q_i + 1).
    design = spanning_design((d, 3))
    bases = design.local[0].reshape(-1, d, d)
    np.testing.assert_allclose(bases @ bases.conj().swapaxes(1, 2),
                               np.broadcast_to(np.eye(d), bases.shape), rtol=0, atol=1e-12)
    shifted = []
    for q in FACTORS[d]:
        v = complete_mubs(q).reshape(q + 1, q, q)
        shifted.append(np.einsum("kai,kaj->kaij", v, v.conj()) - np.eye(q) / (q + 1))
    closed = kron_bases(shifted).reshape(-1, d, d)
    pinvs, ranks, conds = design.site_solves
    np.testing.assert_allclose(pinvs[0], feature_of(closed), rtol=0, atol=1e-12)
    assert ranks == (d * d, 9)
    kappa = np.prod([np.sqrt(q + 1) for q in FACTORS[d]])
    assert conds == pytest.approx([kappa, 2.0], rel=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_random_sites_do_not_beat_the_mub_condition_number(seed):
    # Any d + 1 bases: the identity direction has sigma^2 = d + 1 and the traceless ones
    # average sigma^2 = 1, so kappa >= sqrt(d + 1), which only a complete MUB set attains.
    rng = make_rng(seed)
    for d in (2, 6, 8, 9):
        local = random_onbs(rng, (d,), d + 1)[0].swapaxes(1, 2).reshape(-1, d)
        (kappa,) = SpanningDesign((d,), (local,)).site_solves[2]
        assert kappa >= np.sqrt(d + 1) * (1 - 1e-12)


@pytest.mark.parametrize("dims", [(3, 3), (4, 4), (5, 5), (3, 4, 5), (6, 6), (2, 3), (3, 6)])
def test_mub_designs_are_shared_and_read_only(dims):
    design = spanning_design(dims, seed=0)
    assert spanning_design(list(dims), seed=141) is design
    assert design.site_solves is spanning_design(dims, seed=7).site_solves
    pinvs, _, _ = design.site_solves
    for array in (*design.local, *pinvs, *design.states[-1].factors):
        assert not array.flags.writeable
    for s in design.states[::7]:
        joined = b"".join(np.ascontiguousarray(f).tobytes() for f in s.factors)
        assert s.key() == joined and s.key() is s.key()
        assert ProductState(s.factors).key() == joined


@pytest.mark.parametrize("dims", [(3, 3), (3, 6)])
def test_spanning_design_rejects_a_negative_seed_at_any_dims(dims):
    with pytest.raises(ValueError):
        spanning_design(dims, seed=-1)


@pytest.mark.parametrize("dims, message", [
    ((3.5, 3), r"^dims \[3\.5, 3\] are not integers >= 1: site 0 is 3\.5$"),
    ((3, 0), r"^dims \[3, 0\] are not integers >= 1: site 1 is 0$"),
    ((0,), r"^dims \[0\] are not integers >= 1: site 0 is 0$"),
    ((3, True), r"^dims \[3, True\] are not integers >= 1: site 1 is True$"),
    ((), r"^a design needs at least one site$")])
def test_spanning_design_rejects_bad_dims(dims, message):
    with pytest.raises(ValidationError, match=message):
        spanning_design(dims)
    with pytest.raises(ValidationError, match=message):
        SpanningDesign(dims, tuple(np.eye(3) for _ in dims))


@pytest.mark.parametrize("local, message", [
    ((complete_mubs(4), complete_mubs(3)), r"^site 0: local states of shape \(20, 4\)"),
    ((complete_mubs(3), complete_mubs(3)[:4]), r"^site 1: local states of shape \(4, 3\)"),
    ((complete_mubs(3), complete_mubs(3)[:0]), r"^site 1: local states of shape \(0, 3\)"),
    ((complete_mubs(3), complete_mubs(3).reshape(4, 3, 3)), r"^site 1: local states of shape"),
    ((complete_mubs(3),), r"^1 stacks of local states for 2 sites$")])
def test_spanning_design_needs_one_stack_of_whole_bases_per_site(local, message):
    with pytest.raises(ValidationError, match=message):
        SpanningDesign((3, 3), local)


def test_one_dimensional_sites_hold_the_one_basis():
    design = spanning_design((1, 1))
    assert [v.tolist() for v in design.local] == [[[1]], [[1]]]
    assert len(design.states) == 1 and design.site_solves[1:] == ((1, 1), (1.0, 1.0))


@given(seeds, st.sampled_from([(3, 3), (3, 4), (4, 3), (3, 6)]),  # site 6: 12 product bases
       st.sampled_from(["density", "hermitian", "signalling"]))
@settings(max_examples=30, deadline=None)
def test_grid_solve_matches_lstsq_on_the_grid_rows(seed, dims, kind):
    # The per-site pseudo-inverses against one least-squares solve on every product row.
    rng = make_rng(seed)
    design = spanning_design(dims, seed=seed)
    if kind == "signalling":
        f = make_signalling_example(dims, rng.uniform(0.1, 3.0))
    else:
        t = random_density(rng, dims) if kind == "density" else random_hermitian(rng, dims)
        f = sample_from_operator(t, design.states)
    rows = projector_features(site_stacks(design.states))
    vals = np.array([f(s) for s in design.states])
    x = np.linalg.lstsq(rows, vals, rcond=None)[0]
    rec = reconstruct_pvm(f, design, seed=seed)
    assert abs(rec.residual - np.max(np.abs(rows @ x - vals))) <= 1e-12
    if kind == "signalling":
        # No operator fits, and lstsq's own error in t then grows with the squared
        # condition of the rows: check the normal equations at the grid's t instead.
        assert np.max(np.abs(rows.T @ (rows @ feature_of(rec.t.mat) - vals))) <= 1e-10
    else:
        assert np.max(np.abs(rec.t.mat - vec_to_herm(x))) <= 1e-10


def uncached_features(op):
    """feature_of with the upper-triangle pairs built on each call."""
    iu, ju = np.triu_indices(op.shape[-1], 1)
    upper, lower = op[..., iu, ju], op[..., ju, iu]
    s = 1 / np.sqrt(2)
    d = op.shape[-1]
    out = np.empty(op.shape[:-2] + (d * d,))
    out[..., :d] = np.diagonal(op, axis1=-2, axis2=-1).real
    out[..., d::2], out[..., d + 1::2] = s * (upper + lower).real, s * (upper - lower).imag
    return out


def uncached_projector_features(stacks):
    psi = tensor_rows(stacks)
    iu, ju = np.triu_indices(psi.shape[-1], 1)
    upper = psi[..., iu] * psi[..., ju].conj()
    s, d = 1 / np.sqrt(2), psi.shape[-1]
    out = np.empty(psi.shape[:-1] + (d * d,))
    out[..., :d] = (psi * psi.conj()).real
    out[..., d::2], out[..., d + 1::2] = s * (2.0 * upper.real), s * (2.0 * upper.imag)
    return out


def uncached_vec_to_herm(x):
    d = int(round(np.sqrt(len(x))))
    iu, ju = np.triu_indices(d, 1)
    s = 1 / np.sqrt(2)
    sym, anti = s * x[d::2], s * x[d + 1::2]
    out = np.diag(x[:d]).astype(complex)
    out[iu, ju] = sym + 1j * anti
    out[ju, iu] = sym - 1j * anti
    return out


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (4, 4)])  # D = 4, 9 and 16
def test_cached_pair_indices_leave_features_bit_identical(dims):
    rng = make_rng(17)
    d = int(np.prod(dims))
    ops = np.array([random_matrix(rng, d, hermitian) for hermitian in (True, False, True)])
    assert feature_of(ops).tobytes() == uncached_features(ops).tobytes()
    stacks = [np.array([random_unit(rng, k) for _ in range(5)]) for k in dims]
    assert projector_features(stacks).tobytes() == uncached_projector_features(stacks).tobytes()
    x = rng.standard_normal(d * d)
    assert vec_to_herm(x).tobytes() == uncached_vec_to_herm(x).tobytes()
    assert not any(a.flags.writeable for a in _upper_pairs(d))  # shared through the cache


@given(seeds, st.sampled_from([(2, 2), (2, 3), (3, 3)]),
       st.lists(st.integers(0, 3), min_size=3, max_size=3), st.sampled_from([None, 0, 1]))
@settings(max_examples=40, deadline=None)
def test_effect_grid_matches_lstsq_and_feature_rank(seed, dims, spare, deficient):
    # d_s^2 + spare[s] random effects per site and noisy values; a deficient site has
    # d_s^2 effects, the last one a repeat of the first, so they cannot span.
    rng = make_rng(seed)
    effects = [random_product_effects(rng, (d,), d * d + k)[0] for d, k in zip(dims, spare)]
    if deficient is not None:
        d = dims[deficient]
        effects[deficient] = effects[deficient][:d * d]
        effects[deficient][-1] = effects[deficient][0]
    values = sample_effects_from_operator(random_hermitian(rng, dims), effects)
    values = values + 1e-3 * rng.standard_normal(values.shape)
    if deficient is not None:
        d = dims[deficient]
        with pytest.raises(ValidationError, match=f"site {deficient}: {d * d} local effects "
                                                  f"have feature rank {d * d - 1} < {d * d}"):
            reconstruct_povm(values, effects)
        return
    grid = itertools.product(*[range(len(e)) for e in effects])
    rows = feature_of(np.array([np.kron(*[e[k] for e, k in zip(effects, ks)]) for ks in grid]))
    x = np.linalg.lstsq(rows, values.ravel(), rcond=None)[0]
    rec = reconstruct_povm(values, effects, seed=seed)
    assert np.max(np.abs(rec.t.mat - vec_to_herm(x))) <= 1e-10
    assert abs(rec.residual - np.max(np.abs(rows @ x - values.ravel()))) <= 1e-12
    assert rec.ranks == tuple(d * d for d in dims)
    cls, evidence = classify_product_positivity(rec.t, seed=seed)
    assert rec.classification is cls
    if isinstance(evidence, Witness):
        assert rec.witness.value == evidence.value and rec.certificate is None
        for got, want in zip(rec.witness.factors, evidence.factors):
            assert got.tobytes() == want.tobytes()
    else:
        assert rec.certificate == evidence and rec.witness is None


# ---------------------------------------------------------------------------
# The orientation certificate against the see-saw-only classification.


def seesaw_only_classification(t, restarts=64, seed=0):
    """The rule without the certificate: density check, then the see-saw on
    every other operator.  Returns (classification, witness or None)."""
    if hermitian_eig(t).eigenvalues[-1] >= -PSD and abs(t.trace() - 1.0) <= UNIT_TRACE:
        return Classification.DENSITY_MATRIX, None
    wit = product_seesaw_min(t, restarts=restarts, seed=seed, stop_below=-PRODUCT_POSITIVE)
    if wit.value >= -PRODUCT_POSITIVE:
        return Classification.PRODUCT_POSITIVE_ONLY, wit
    return Classification.INDEFINITE_ON_PRODUCTS, wit


def operator_of_kind(rng, dims, kind, c):
    """A test operator; ``c`` in [0, 1] sets its free scale or weight."""
    if kind == "partial_transpose":  # rho^Gamma, flipped at a random site
        return partial_transpose(random_density(rng, dims), int(rng.integers(2)))
    if kind == "scaled_density":  # PSD, trace 1 + 2c or 1 - c/2
        scale = 1 + 2 * c if rng.integers(2) else 1 - c / 2
        return HermitianOperator(dims, scale * random_density(rng, dims).mat)
    if kind == "shifted_swap":  # SWAP/d +- c I on (d, d)
        d = dims[0]
        swap = np.eye(d * d)[[j * d + i for i in range(d) for j in range(d)]]
        return HermitianOperator((d, d), swap / d + rng.choice([-1, 1]) * c * np.eye(d * d))
    if kind == "hermitian":
        return random_hermitian(rng, dims)
    # Mixture of two (generically entangled) projectors, the first one
    # partially transposed in the decomposable kind: product-positive, and
    # for 0 < c < 1 usually in the NEITHER class.
    d_total = int(np.prod(dims))
    a = HermitianOperator(dims, proj(random_unit(rng, d_total)))
    if kind == "decomposable_mixture":
        a = partial_transpose(a, 0)
    return HermitianOperator(dims, c * a.mat + (1 - c) * proj(random_unit(rng, d_total)))


OPERATOR_KINDS = ["partial_transpose", "scaled_density", "shifted_swap", "hermitian",
                  "projector_mixture", "decomposable_mixture"]


@given(seeds, st.sampled_from([(2, 2), (2, 3), (3, 3), (4, 4)]),
       st.sampled_from(OPERATOR_KINDS), st.sampled_from([0.0, 1e-3, 0.05, 0.3, 0.5, 1.0]))
@settings(max_examples=60, deadline=None)
def test_certificate_agrees_with_seesaw_only_rule(seed, dims, kind, c):
    rng = make_rng(seed)
    t = operator_of_kind(rng, dims, kind, c)
    cls, evidence = classify_product_positivity(t, seed=seed)
    want, ref_wit = seesaw_only_classification(t, seed=seed)
    assert cls is want
    if isinstance(evidence, OrientationClass):
        assert evidence.value is not Orientation.NEITHER
        if ref_wit is None:
            ref_wit = product_seesaw_min(t, seed=seed)
        # A product value is bounded below by the least eigenvalue of t and of t^Gamma.
        bound = max(evidence.min_eig_choi, evidence.min_eig_flipped_choi)
        assert ref_wit.value >= bound - 1e-10
    else:  # decided by the see-saw: the same witness bytes
        assert classify_orientation(t).value is Orientation.NEITHER
        assert evidence.value == ref_wit.value
        for got, ref in zip(evidence.factors, ref_wit.factors):
            assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (4, 4)])
@pytest.mark.parametrize("kind", OPERATOR_KINDS)
@given(seed=seeds, c=st.sampled_from([0.0, 1e-3, 0.05, 0.3, 0.5, 1.0]))
@settings(max_examples=6, deadline=None)
def test_stopped_seesaw_agrees_with_converged(dims, kind, seed, c):
    t = operator_of_kind(make_rng(seed), dims, kind, c)
    stopped = product_seesaw_min(t, seed=seed, stop_below=-PRODUCT_POSITIVE)
    full = product_seesaw_min(t, seed=seed)
    assert (stopped.value < -PRODUCT_POSITIVE) == (full.value < -PRODUCT_POSITIVE)
    if full.value >= -PRODUCT_POSITIVE:  # no stop: the same run, the same bytes
        assert (stopped.value, stopped.sweeps) == (full.value, full.sweeps)
        for got, want in zip(stopped.factors, full.factors):
            assert got.tobytes() == want.tobytes()
    else:  # a proof of negativity, no lower than the converged minimum
        value = t.expectation(np.kron(*stopped.factors))
        assert value < -PRODUCT_POSITIVE and abs(value - stopped.value) <= 1e-12
        assert stopped.value >= full.value - 1e-12
        assert stopped.sweeps <= full.sweeps
