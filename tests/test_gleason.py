"""Tests for operator reconstruction and product-positivity classification."""

import numpy as np
import pytest


from nsgleason.framefn import make_signalling_example, sample_from_operator
from nsgleason.gleason import (
    Classification,
    classify_product_positivity,
    hermitian_basis,
    random_product_effects,
    reconstruct_povm,
    reconstruct_pvm,
    sample_effects_from_operator,
    spanning_design,
    vec_to_herm,
    herm_to_vec,
)
from nsgleason.linalg import (
    HermitianOperator,
    ValidationError,
    make_rng,
    partial_transpose,
    proj,
    random_density,
    random_hermitian,
)

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
    np.testing.assert_allclose(vec_to_herm(herm_to_vec(m)), m, atol=1e-12)


def test_spanning_design_ranks():
    assert spanning_design((3, 3), seed=0).feature_rank == 81
    assert spanning_design((2, 2), seed=0).feature_rank == 16
    assert spanning_design((1, 1), seed=0).feature_rank == 1


def test_spanning_design_oversample_count():
    d = spanning_design((3, 3), oversample=1.5, seed=0)
    assert len(d.states) == 122  # ceil(1.5 * 81)


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
    # Min eigenvalue is -1/3, min product value is 0.
    assert np.linalg.eigvalsh(t.mat)[0] == pytest.approx(-1 / 3, abs=1e-10)
    assert rec.witness.value == pytest.approx(0.0, abs=1e-8)


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
    effects = random_product_effects(rng, (2, 2), 40)
    rec = reconstruct_povm(sample_effects_from_operator(rho, effects), (2, 2))
    assert np.linalg.norm(rec.t.mat - rho.mat) <= 1e-8
    assert rec.classification is Classification.DENSITY_MATRIX


def test_povm_constant_trace_function_gives_mixed_state():
    rng = make_rng(11)
    effects = random_product_effects(rng, (2, 2), 40)
    samples = [
        ((e1, e2), np.trace(np.kron(e1, e2)).real / 4) for e1, e2 in effects
    ]
    rec = reconstruct_povm(samples, (2, 2))
    np.testing.assert_allclose(rec.t.mat, np.eye(4) / 4, atol=1e-8)


def test_povm_recovers_swap_half():
    rng = make_rng(12)
    t = HermitianOperator((2, 2), SWAP / 2)
    effects = random_product_effects(rng, (2, 2), 40)
    rec = reconstruct_povm(sample_effects_from_operator(t, effects), (2, 2))
    assert np.linalg.norm(rec.t.mat - t.mat) <= 1e-8
    assert rec.classification is Classification.PRODUCT_POSITIVE_ONLY


def test_povm_rejects_bad_effect():
    bad = np.diag([1.5, 0.0])
    with pytest.raises(ValidationError):
        reconstruct_povm([((bad, np.eye(2)), 0.3)], (2, 2))


def test_classify_bell_projector_density():
    phi = np.array([1, 0, 0, 1]) / np.sqrt(2)
    cls, _ = classify_product_positivity(HermitianOperator((2, 2), proj(phi)))
    assert cls is Classification.DENSITY_MATRIX


def test_classify_swap_half():
    cls, wit = classify_product_positivity(HermitianOperator((2, 2), SWAP / 2))
    assert cls is Classification.PRODUCT_POSITIVE_ONLY
    assert wit.value == pytest.approx(0.0, abs=1e-8)


def test_classify_shifted_swap_indefinite():
    t = HermitianOperator((2, 2), SWAP / 2 - 0.3 * np.eye(4))
    cls, wit = classify_product_positivity(t)
    assert cls is Classification.INDEFINITE_ON_PRODUCTS
    assert wit.value <= -0.05


def test_classification_invariant_under_partial_transpose():
    rng = make_rng(13)
    for seed in range(3):
        t = random_hermitian(rng, (2, 3))
        _, wit1 = classify_product_positivity(t, seed=seed)
        _, wit2 = classify_product_positivity(partial_transpose(t, 1), seed=seed)
        assert abs(wit1.value - wit2.value) <= 1e-8
