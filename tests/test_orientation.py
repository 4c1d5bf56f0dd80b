"""Tests for Choi construction and CP/co-CP classification.

The induced map phi_t and its Kraus form live here as reference helpers, so the
tests check what each class promises: a CP (CO_CP) class gives Kraus operators,
from t (t^Γ), that reproduce phi_t (through a^T for CO_CP), and NEITHER means both
least eigenvalues are below -PSD.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsgleason.linalg import (
    HermitianOperator,
    ValidationError,
    make_rng,
    partial_transpose,
    proj,
    random_density,
    random_hermitian,
    random_units,
)
from nsgleason.orientation import Orientation, choi_of, classify_orientation
from nsgleason.tolerances import PSD

PHI_PLUS = proj(np.array([1.0, 0, 0, 1]) / np.sqrt(2))
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=float
)


def bell() -> HermitianOperator:
    return HermitianOperator((2, 2), PHI_PLUS)


def swap_half() -> HermitianOperator:
    return HermitianOperator((2, 2), SWAP / 2)


def induced_map(t: HermitianOperator, a: np.ndarray) -> np.ndarray:
    """phi_t(a) = tr_1(t (a^T (x) I)), i.e. phi_t(E_ij)[k, l] = t[(i,k), (j,l)]."""
    return np.einsum("ikjl,ij->kl", t.mat.reshape(*t.dims, *t.dims), a)


def dilation(t: HermitianOperator):
    """(Kraus operators sqrt(lam) v^T from the eigenpairs of t, or of t^Γ when the class
    is CO_CP, and whether t^Γ was used), or None for the NEITHER class."""
    cls = classify_orientation(t).value
    if cls is Orientation.NEITHER:
        return None
    flipped = cls is Orientation.CO_CP
    lam, vecs = np.linalg.eigh((partial_transpose(t, 0) if flipped else t).mat)
    return [np.sqrt(x) * v.reshape(t.dims).T for x, v in zip(lam, vecs.T) if x > 1e-12], flipped


def apply_kraus(ops, flipped: bool, a: np.ndarray) -> np.ndarray:
    a = a.T if flipped else a
    return sum(k @ a @ k.conj().T for k in ops)


def test_map_of_bell_is_identity_over_d():
    rng = make_rng(1)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    np.testing.assert_allclose(induced_map(bell(), a), a / 2, atol=1e-12)


def test_map_of_swap_is_transpose_over_d():
    rng = make_rng(2)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    np.testing.assert_allclose(induced_map(swap_half(), a), a.T / 2, atol=1e-12)


def test_map_linearity():
    rng = make_rng(3)
    t = random_hermitian(rng, (2, 3))
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    np.testing.assert_allclose(
        induced_map(t, 2.0 * a - 1.5j * b),
        2.0 * induced_map(t, a) - 1.5j * induced_map(t, b),
        atol=1e-10,
    )


def test_choi_reproduces_operator_and_is_linear():
    rng = make_rng(4)
    s = random_hermitian(rng, (2, 2))
    t = random_hermitian(rng, (2, 2))
    np.testing.assert_allclose(choi_of(t).mat, t.mat, atol=1e-12)
    combo = HermitianOperator((2, 2), 0.3 * s.mat + 0.7 * t.mat)
    np.testing.assert_allclose(
        choi_of(combo).mat, 0.3 * choi_of(s).mat + 0.7 * choi_of(t).mat, atol=1e-12
    )


def test_bell_classifies_cp():
    cls = classify_orientation(bell())
    assert cls.value is Orientation.CP
    assert cls.min_eig_choi >= -1e-10


def test_swap_classifies_co_cp_with_bell_flip():
    cls = classify_orientation(swap_half())
    assert cls.value is Orientation.CO_CP
    assert cls.min_eig_choi == pytest.approx(-0.5, abs=1e-10)
    flipped = choi_of(partial_transpose(swap_half(), 0))
    np.testing.assert_allclose(flipped.mat, PHI_PLUS, atol=1e-10)


def test_mixture_classifies_neither():
    t = HermitianOperator((2, 2), (PHI_PLUS + SWAP / 2) / 2)
    cls = classify_orientation(t)
    assert cls.value is Orientation.NEITHER
    assert cls.min_eig_choi == pytest.approx(-0.25, abs=1e-10)
    assert cls.min_eig_flipped_choi == pytest.approx(-0.25, abs=1e-10)


def test_maximally_mixed_classifies_both():
    cls = classify_orientation(HermitianOperator((2, 2), np.eye(4) / 4))
    assert cls.value is Orientation.BOTH


@pytest.mark.parametrize("dims", [(2, 2, 2), (4,)])
def test_classification_needs_two_sites(dims):
    # One site-1 flip gives two classes; other site counts have other classes.
    with pytest.raises(ValidationError, match="two-site operator"):
        classify_orientation(random_density(make_rng(0), dims))


def test_flip_duality_on_random_operators():
    rng = make_rng(5)
    for _ in range(20):
        t = random_hermitian(rng, (2, 2))
        direct = classify_orientation(t)
        flipped = classify_orientation(partial_transpose(t, 0))
        assert direct.min_eig_choi == pytest.approx(
            flipped.min_eig_flipped_choi, abs=1e-12
        )
        assert direct.min_eig_flipped_choi == pytest.approx(
            flipped.min_eig_choi, abs=1e-12
        )


def test_global_transpose_preserves_class():
    rng = make_rng(6)
    for _ in range(10):
        t = random_hermitian(rng, (2, 2))
        both = partial_transpose(partial_transpose(t, 0), 1)
        assert classify_orientation(t).value is classify_orientation(both).value


def test_kraus_identity_channel():
    ops, flipped = dilation(bell())
    assert len(ops) == 1
    assert not flipped
    np.testing.assert_allclose(np.abs(ops[0]), np.eye(2) / np.sqrt(2), atol=1e-10)
    a = make_rng(7).standard_normal((2, 2))
    np.testing.assert_allclose(apply_kraus(ops, flipped, a), induced_map(bell(), a), atol=1e-10)


def test_kraus_swap_records_flip():
    ops, flipped = dilation(swap_half())
    assert flipped
    assert len(ops) == 1
    rng = make_rng(7)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    np.testing.assert_allclose(apply_kraus(ops, flipped, a), induced_map(swap_half(), a), atol=1e-10)


def test_kraus_random_density_reconstruction():
    # This seed draws an entangled density: CP, and its partial transpose is CO_CP.
    rng = make_rng(8)
    rho = random_density(rng, (3, 2))
    for t, flip in ((rho, False), (partial_transpose(rho, 0), True)):
        ops, flipped = dilation(t)
        assert flipped is flip
        for _ in range(10):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            np.testing.assert_allclose(apply_kraus(ops, flipped, a), induced_map(t, a), atol=1e-8)


def test_kraus_neither_unsupported():
    t = HermitianOperator((2, 2), (PHI_PLUS + SWAP / 2) / 2)
    assert dilation(t) is None
    assert np.linalg.eigvalsh(t.mat)[0] < -PSD
    assert np.linalg.eigvalsh(partial_transpose(t, 0).mat)[0] < -PSD


@given(st.integers(0, 2**32 - 1), st.sampled_from([(2, 2), (2, 3), (3, 3), (3, 4)]))
@settings(max_examples=40)
def test_flipped_operator_maps_the_transpose(seed, dims):
    # phi_{t^Γ}(a) = phi_t(a^T) for every t: the two orientations' symmetrized maps
    # phi(a) + phi(a^T) are one map, so a check that compares them decides nothing.
    rng = make_rng(seed)
    t = random_hermitian(rng, dims)
    a = random_hermitian(rng, dims[:1]).mat
    flipped = induced_map(partial_transpose(t, 0), a)
    np.testing.assert_allclose(flipped, induced_map(t, a.T), rtol=0, atol=1e-12)


def test_cp_unit_trace_induces_nonneg_nosig_framefn():
    from nsgleason.framefn import OperatorInduced
    from nsgleason.nosig import check_framefn

    rng = make_rng(10)
    t = random_density(rng, (2, 3))
    # A density matrix is its own (PSD) Choi matrix, hence CP-classified.
    assert classify_orientation(t).value in (Orientation.CP, Orientation.BOTH)
    f = OperatorInduced(t)
    assert f.values(random_units(rng, (2, 3), 50)).min() >= 0.0
    rep = check_framefn(f, trials=50, seed=4)
    assert rep.max_discrepancy <= 1e-10
