"""Tests for product/unentangled bases and twist moves."""

import warnings

import numpy as np
import pytest

from nsgleason import tolerances as tol
from nsgleason.bases import (
    BasisReport,
    ProductBasis,
    ProductState,
    TwistMove,
    UnentangledBasis,
    apply_twist,
    find_local_pairs,
    twist_search,
    twisted_example_basis,
    twisted_example_certificate,
    validate_unentangled,
)
from nsgleason.linalg import (
    ValidationError,
    make_rng,
    random_hermitian,
    random_onb,
)

HADAMARD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


def computational_basis(dims) -> UnentangledBasis:
    return ProductBasis(tuple(tuple(np.eye(d)) for d in dims)).to_unentangled()


def test_computational_product_basis_valid():
    rep = validate_unentangled(computational_basis((3, 3)))
    assert rep.is_valid and rep.complete
    assert rep.worst_overlap <= 1e-10


def test_example_basis_valid():
    rep = validate_unentangled(twisted_example_basis())
    assert rep.is_valid
    assert rep.worst_overlap <= 1e-10


def test_basis_report_decides_by_its_tolerance(monkeypatch):
    b = twisted_example_basis()
    assert validate_unentangled(b).tolerance == BasisReport.tolerance == tol.ORTHO_PAIR
    assert validate_unentangled(b).is_valid
    monkeypatch.setattr(BasisReport, "tolerance", -1.0)
    rep = validate_unentangled(b)
    assert not rep.is_valid and len(rep.failures) == 36  # every pair of nine elements


@pytest.mark.parametrize("value", [np.nan, complex(0, np.nan)])
def test_product_state_rejects_nan_factor(value):
    # One state alone (check_unit) and a stack of states (check_unit_rows).
    bad = np.array([value, 0.0])
    with pytest.raises(ValidationError, match="norm"):
        ProductState((bad, np.array([1.0, 0.0])))
    with pytest.raises(ValidationError, match="norm"):
        ProductState.batch([np.array([[1.0, 0.0], bad]), np.eye(2)])


@pytest.mark.parametrize("value", [np.inf, complex(0, -np.inf)])
def test_product_state_rejects_infinite_factor_without_a_warning(value):
    # canonical_phase would divide by the infinite amplitude and warn.
    bad = np.array([value, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="norm"):
            ProductState((bad, np.array([1.0, 0.0])))
        with pytest.raises(ValidationError, match="norm"):
            ProductState.batch([np.array([[1.0, 0.0], bad]), np.eye(2)])


def test_duplicated_element_invalid():
    b = computational_basis((2, 2))
    dup = UnentangledBasis((b.elements[0],) + b.elements[:3])
    rep = validate_unentangled(dup)
    assert not rep.is_valid
    assert rep.worst_overlap == pytest.approx(1.0)


def test_apply_twist_first_example_step():
    b = twisted_example_basis()
    # elements 7, 8 share the first factor |2> and differ in the second.
    nb = apply_twist(b, TwistMove(1, (7, 8), HADAMARD))
    e1 = np.zeros(3)
    e1[1] = 1
    e2 = np.zeros(3)
    e2[2] = 1
    np.testing.assert_allclose(nb.elements[7].factors[1], e1, atol=1e-12)
    np.testing.assert_allclose(nb.elements[8].factors[1], e2, atol=1e-12)
    assert validate_unentangled(nb).is_valid


def test_identity_twist_is_noop():
    b = twisted_example_basis()
    nb = apply_twist(b, TwistMove(1, (7, 8), np.eye(2)))
    for e, f in zip(b.elements, nb.elements):
        assert abs(e.overlap(f)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("rotation, message", [(np.eye(3), "must be 2x2"),
                                               (2 * np.eye(2), "not unitary")])
def test_twist_rotation_must_be_2x2_unitary(rotation, message):
    with pytest.raises(ValidationError, match=message):
        TwistMove(0, (0, 1), rotation)


@pytest.mark.parametrize("elements, message", [
    ((), "empty basis"),
    ((ProductState((np.eye(2)[0],)), ProductState((np.eye(3)[0],))), "inconsistent dims")])
def test_unentangled_basis_needs_elements_of_one_shape(elements, message):
    with pytest.raises(ValidationError, match=message):
        UnentangledBasis(elements)


def test_twist_on_unmatched_pair_rejected():
    b = twisted_example_basis()
    with pytest.raises(ValidationError):
        apply_twist(b, TwistMove(1, (0, 7), HADAMARD))


def test_random_twists_preserve_validity():
    rng = make_rng(31)
    b = computational_basis((2, 3))
    for _ in range(20):
        pairs = find_local_pairs(b)
        site, pair = pairs[int(rng.integers(len(pairs)))]
        u = random_onb(rng, 2)  # random 2x2 unitary
        b = apply_twist(b, TwistMove(site, pair, u))
        assert validate_unentangled(b).is_valid


def test_twist_preserves_resolution_of_identity():
    rng = make_rng(37)
    t = random_hermitian(rng, (2, 3))
    b = computational_basis((2, 3))
    total = sum(t.expectation(e.full()) for e in b.elements)
    site, pair = find_local_pairs(b)[0]
    nb = apply_twist(b, TwistMove(site, pair, random_onb(rng, 2)))
    total2 = sum(t.expectation(e.full()) for e in nb.elements)
    assert abs(total - total2) <= 1e-10


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_product_basis_rejects_non_finite_vectors(bad):
    e0, e1 = np.eye(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected without a floating-point warning
        with pytest.raises(ValidationError, match="Gram matrix deviates"):
            ProductBasis(((np.array([bad, 0.0]), e1), (e0, e1)))


def test_find_local_pairs_c2c2():
    assert len(find_local_pairs(computational_basis((2, 2)))) == 4


def test_find_local_pairs_single_site():
    b = ProductBasis((tuple(np.eye(4)),)).to_unentangled()
    assert len(find_local_pairs(b)) == 6  # C(4, 2)


def test_example_certificate_replays():
    cert = twisted_example_certificate()
    assert len(cert.moves) == 4
    assert cert.replay()


def test_certificate_intermediates_stay_valid():
    cert = twisted_example_certificate()
    b = cert.initial
    for m in cert.moves:
        b = apply_twist(b, m)
        assert validate_unentangled(b).worst_overlap <= 1e-10


def test_certificate_walk_yields_each_step():
    cert = twisted_example_certificate()
    steps = list(cert.walk())
    assert len(steps) == len(cert.moves)
    b = cert.initial
    for m, nb in zip(cert.moves, steps):
        b = apply_twist(b, m)
        assert [e.key() for e in nb.elements] == [e.key() for e in b.elements]


def test_twist_search_solves_example():
    res = twist_search(twisted_example_basis())
    assert res.found
    assert len(res.certificate.moves) <= 4
    assert res.certificate.replay()


def test_twist_search_builds_site_classes_once_a_step(monkeypatch):
    # One np.unique a site for each basis whose local pairs are listed: the
    # pair search and the move scoring read the same cached classes.
    calls = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(1) or unique(*a, **k))
    res = twist_search(twisted_example_basis())
    assert res.found and len(calls) == 2 * len(res.certificate.moves)


def test_twist_search_on_product_basis_is_empty():
    res = twist_search(computational_basis((3, 3)))
    assert res.found
    assert len(res.certificate.moves) == 0


def test_basis_json_round_trip():
    b = twisted_example_basis()
    back = UnentangledBasis.from_json(b.to_json())
    for e, f in zip(b.elements, back.elements):
        assert abs(e.overlap(f)) == pytest.approx(1.0, abs=1e-12)
