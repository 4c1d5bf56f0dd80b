"""Tests for Choi construction, CP/co-CP classification, Kraus factorization."""

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
)
from nsgleason.orientation import (
    OperatorMap,
    Orientation,
    UnsupportedOrientation,
    choi_of,
    classify_orientation,
    kraus_factorize,
)

PHI_PLUS = proj(np.array([1.0, 0, 0, 1]) / np.sqrt(2))
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=float
)


def bell() -> HermitianOperator:
    return HermitianOperator((2, 2), PHI_PLUS)


def swap_half() -> HermitianOperator:
    return HermitianOperator((2, 2), SWAP / 2)


def test_map_of_bell_is_identity_over_d():
    phi = OperatorMap(bell())
    rng = make_rng(1)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    np.testing.assert_allclose(phi(a), a / 2, atol=1e-12)


def test_map_of_swap_is_transpose_over_d():
    phi = OperatorMap(swap_half())
    rng = make_rng(2)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    np.testing.assert_allclose(phi(a), a.T / 2, atol=1e-12)


def test_map_linearity():
    rng = make_rng(3)
    t = random_hermitian(rng, (2, 3))
    phi = OperatorMap(t)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    np.testing.assert_allclose(
        phi(2.0 * a - 1.5j * b), 2.0 * phi(a) - 1.5j * phi(b), atol=1e-10
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
    ks = kraus_factorize(bell())
    assert len(ks.operators) == 1
    assert not ks.flipped
    np.testing.assert_allclose(np.abs(ks.operators[0]), np.eye(2) / np.sqrt(2), atol=1e-10)


def test_kraus_swap_records_flip():
    ks = kraus_factorize(swap_half())
    assert ks.flipped
    assert len(ks.operators) == 1
    phi = OperatorMap(swap_half())
    rng = make_rng(7)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    np.testing.assert_allclose(ks.apply(a), phi(a), atol=1e-10)


def test_kraus_random_density_reconstruction():
    rng = make_rng(8)
    t = random_density(rng, (3, 2))
    ks = kraus_factorize(t)
    phi = OperatorMap(t)
    for _ in range(10):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        np.testing.assert_allclose(ks.apply(a), phi(a), atol=1e-8)


def test_kraus_neither_unsupported():
    t = HermitianOperator((2, 2), (PHI_PLUS + SWAP / 2) / 2)
    with pytest.raises(UnsupportedOrientation):
        kraus_factorize(t)


@given(st.integers(0, 2**32 - 1), st.sampled_from([(2, 2), (2, 3), (3, 3), (3, 4)]))
@settings(max_examples=40)
def test_flipped_operator_maps_the_transpose(seed, dims):
    # phi_{t^Γ}(a) = phi_t(a^T) for every t: the two orientations' symmetrized maps
    # phi(a) + phi(a^T) are one map, so a check that compares them decides nothing.
    rng = make_rng(seed)
    t = random_hermitian(rng, dims)
    a = random_hermitian(rng, dims[:1]).mat
    flipped = OperatorMap(partial_transpose(t, 0))(a)
    np.testing.assert_allclose(flipped, OperatorMap(t)(a.T), rtol=0, atol=1e-12)


def test_operator_map_needs_two_sites():
    with pytest.raises(ValidationError, match="two-site operator"):
        OperatorMap(random_density(make_rng(0), (2, 2, 2)))


def test_cp_unit_trace_induces_nonneg_nosig_framefn():
    from nsgleason.framefn import OperatorInduced
    from nsgleason.nosig import check_framefn

    rng = make_rng(10)
    t = random_density(rng, (2, 3))
    # A density matrix is its own (PSD) Choi matrix, hence CP-classified.
    assert classify_orientation(t).value in (Orientation.CP, Orientation.BOTH)
    f = OperatorInduced(t, nonnegative=True)
    rep = check_framefn(f, trials=50, seed=4)
    assert rep.max_discrepancy <= 1e-10
