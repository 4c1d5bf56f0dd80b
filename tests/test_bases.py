"""Tests for product/unentangled bases and twist moves."""

import itertools
import warnings

import numpy as np
import pytest

from nsgleason import bases
from nsgleason import tolerances as tol
from nsgleason.bases import (
    BasisReport,
    ProductState,
    TwistCertificate,
    TwistMove,
    UnentangledBasis,
    _as_product_basis,
    apply_twist,
    find_local_pairs,
    product_basis,
    twist_search,
    twisted_example_basis,
    twisted_example_certificate,
    validate_unentangled,
)
from nsgleason.keller import basis_from_clique, bundled_candidate
from nsgleason.linalg import (
    ValidationError,
    canonical_phase,
    check_unit,
    complex_to_json,
    make_rng,
    random_hermitian,
    random_onb,
)

HADAMARD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


def computational_basis(dims) -> UnentangledBasis:
    return product_basis([np.eye(d) for d in dims])


def assert_same_up_to_phase(b, c):
    """Element k of b and of c agree up to phase, for every k."""
    overlaps = np.prod([np.abs(np.sum(f.conj() * g, axis=1)) for f, g in zip(b.stacks, c.stacks)],
                       axis=0)
    np.testing.assert_allclose(overlaps, 1.0, rtol=0, atol=1e-12)


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
    assert not rep.is_valid and rep.complete and rep.worst_overlap > BasisReport.tolerance


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


@pytest.mark.parametrize("factors, site", [
    ((np.eye(2),), 0), ((np.array(1.0),), 0), ((np.zeros(0),), 0),
    ((np.array([1.0, 0.0]), np.ones((1, 1, 1))), 1)], ids=["matrix", "0-d", "empty", "site-1"])
def test_product_state_rejects_a_factor_that_is_not_a_vector(factors, site):
    with pytest.raises(ValidationError, match=f"site {site}: a stack of shape"):
        ProductState(factors)
    with pytest.raises(ValidationError, match=f"site {site}: a stack of shape"):
        ProductState.batch([np.asarray(f)[None] for f in factors])  # one state a row


def test_product_state_needs_a_site():
    with pytest.raises(ValidationError, match="at least one site"):
        ProductState(())


@pytest.mark.parametrize("stacks, site", [
    ([np.eye(4).reshape(2, 2, 4)], 0), ([np.eye(2), np.ones(2)], 1),
    ([np.eye(2), np.array(1.0)], 1), ([np.zeros((2, 0))], 0)], ids=["3-d", "1-d", "0-d", "d=0"])
def test_basis_rejects_a_stack_that_is_not_k_by_d(stacks, site):
    with pytest.raises(ValidationError, match=f"site {site}: a stack of shape"):
        UnentangledBasis(stacks)


def test_duplicated_element_invalid():
    b = computational_basis((2, 2))
    dup = UnentangledBasis.from_elements((b.elements[0],) + b.elements[:3])
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
    assert_same_up_to_phase(b, nb)


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
        UnentangledBasis.from_elements(elements)


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
            product_basis([np.array([[bad, 0.0], e1]), np.array([e0, e1])])


def test_find_local_pairs_c2c2():
    assert len(find_local_pairs(computational_basis((2, 2)))) == 4


def test_find_local_pairs_single_site():
    b = product_basis([np.eye(4)])
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


def test_found_search_reports_the_moves_it_tried():
    b = twisted_example_basis()
    cut = twist_search(b, budget=2)
    assert not cut.found and cut.moves_tried == 22
    assert twist_search(b).moves_tried >= cut.moves_tried


def test_rotations_differing_in_a_signed_zero_are_one_candidate(monkeypatch):
    # The example's rotations are real, so each entry's imaginary part is a signed
    # zero.  Flipping it in entry (0, 0) of every rotation to a computational axis
    # makes those rotations differ from their bit-equal twins among the factor
    # targets in the sign of one zero only: the search must try as many moves.
    b = twisted_example_basis()
    want = twist_search(b)
    rotate = bases._rotation_to_target

    def signed(u, v, g):
        rot, ok = rotate(u, v, g)
        lead = rot[..., -g.shape[-1]:, 0, 0]
        lead.imag[lead.imag == 0] *= -1
        return rot, ok

    monkeypatch.setattr(bases, "_rotation_to_target", signed)
    got = twist_search(b)
    assert got.found and got.moves_tried == want.moves_tried
    assert [(m.site, m.pair) for m in got.certificate.moves] == [
        (m.site, m.pair) for m in want.certificate.moves]


def test_twist_search_builds_site_classes_once_a_step(monkeypatch):
    # Classes are found once a basis, when it is built: a site takes one np.unique,
    # over its phased rows (which joins rows that phasing makes bit-equal, such as
    # e_0 and -e_0).  A move sorts only the site it rotates again, and the pair
    # search, the checks and the move scoring read the cached classes, and call none.
    b = twisted_example_basis()
    calls = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(1) or unique(*a, **k))
    res = twist_search(b)
    assert res.found and len(calls) == len(res.certificate.moves)
    calls.clear()
    back = UnentangledBasis(b.stacks)
    assert len(calls) == len(b.stacks)
    validate_unentangled(back), find_local_pairs(back), twist_search(back, budget=0)
    assert len(calls) == len(b.stacks)
    # Clique digits are classes already: one np.unique a site, over its <= 4 digit states.
    calls.clear()
    clique = basis_from_clique(bundled_candidate())
    assert len(calls) == len(clique.stacks)
    validate_unentangled(clique), find_local_pairs(clique)
    assert len(calls) == len(clique.stacks)


def test_twist_search_on_product_basis_is_empty():
    res = twist_search(computational_basis((3, 3)))
    assert res.found
    assert len(res.certificate.moves) == 0


def test_basis_json_round_trip():
    b = twisted_example_basis()
    assert_same_up_to_phase(b, UnentangledBasis.from_json(b.to_json()))


def twisted_basis(seed, dims, n_moves):
    """A random product basis with ``n_moves`` seeded random twists applied."""
    rng = make_rng(seed)
    b = product_basis([random_onb(rng, d).T for d in dims])
    for _ in range(n_moves):
        pairs = find_local_pairs(b)
        b = apply_twist(b, TwistMove(*pairs[int(rng.integers(len(pairs)))], random_onb(rng, 2)))
    return b


def test_clique_basis_checks_build_no_product_states():
    # The pair checks and the JSON writer read the stacks; no ProductState is made,
    # and a basis that is only built and written holds no class overlap rows.
    b = basis_from_clique(bundled_candidate())
    b.to_json()
    assert "_classes" not in vars(b)
    assert validate_unentangled(b).is_valid and len(find_local_pairs(b)) == 5120
    assert "elements" not in vars(b) and "_classes" in vars(b)
    assert len(b.elements) == len(b.stacks[0]) == 1024 and "elements" in vars(b)


@pytest.mark.parametrize("make", [lambda: basis_from_clique(bundled_candidate()),
                                  twisted_example_basis, lambda: twisted_basis(3, (3, 2, 2), 3)],
                         ids=["bundled", "example", "twisted"])
def test_basis_json_is_its_elements_json(make):
    b = make()
    data = b.to_json()
    assert data == {"dims": list(b.dims), "elements": [
        {"factors": [complex_to_json(f) for f in e.factors]} for e in b.elements]}
    back = UnentangledBasis.from_json(data)
    assert [f.tobytes() for f in back.stacks] == [f.tobytes() for f in b.stacks]
    assert all(not f.flags.writeable for f in back.stacks)


def raised(fn) -> str:
    with pytest.raises(ValidationError) as exc:
        fn()
    return str(exc.value)


def test_both_constructors_reject_empty_ragged_and_non_unit_input():
    e0, e1 = np.eye(2, dtype=complex)
    for empty in ((), [np.zeros((0, 2))]):
        assert raised(lambda: UnentangledBasis(empty)) == "empty basis"
    assert raised(lambda: UnentangledBasis.from_elements(())) == "empty basis"
    assert raised(lambda: UnentangledBasis([np.eye(2), np.eye(2)[:1]])) == (
        "per-site stacks hold different numbers of states")
    for ragged in ([(e0, e0), (e1,)], [(e0,), (np.eye(3)[0],)]):
        assert raised(lambda: UnentangledBasis.from_elements(ragged)) == (
            "inconsistent dims across basis elements")
    bad = np.array([0.6, 0.6], dtype=complex)
    want = raised(lambda: check_unit(bad))
    assert raised(lambda: UnentangledBasis([np.array([e0, bad]), np.eye(2)])) == want
    assert raised(lambda: UnentangledBasis.from_elements([(e0, e0), (bad, e1)])) == want


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 2, 2)])
def test_product_basis_is_the_product_loop_over_phased_rows(dims):
    rng = make_rng(sum(dims) * 7 + len(dims))
    local = [random_onb(rng, d).T for d in dims]
    b = product_basis(local)
    rows = [[canonical_phase(v) for v in lb] for lb in local]
    want = [np.array(site) for site in zip(*itertools.product(*rows))]
    assert [f.tobytes() for f in b.stacks] == [f.tobytes() for f in want]
    assert all(not f.flags.writeable for f in b.stacks) and validate_unentangled(b).is_valid


def test_product_basis_rejects_short_non_orthonormal_and_empty_local_bases():
    e0, e1 = np.eye(2)
    assert raised(lambda: product_basis([np.eye(3)[:2], np.eye(2)])) == (
        "local basis has 2 vectors in dim 3")
    assert raised(lambda: product_basis([np.eye(2), np.array([e0, [0.6, 0.8]])])) == (
        "local basis Gram matrix deviates from identity")
    assert raised(lambda: product_basis([()])) == "local basis has 0 vectors in dim 0"
    assert raised(lambda: product_basis([np.zeros((0, 2))])) == "local basis has 0 vectors in dim 2"
    assert raised(lambda: product_basis([e1])) == "local basis has 1 vectors in dim 2"
    assert raised(lambda: product_basis([np.zeros((2, 2, 2))])) == "local basis has 4 vectors in dim 2"
    assert raised(lambda: product_basis([1.0])) == "local basis has 0 vectors in dim 0"


def incomplete_family() -> UnentangledBasis:
    """Three of the four computational states of C^2 (x) C^2: orthonormal, each site
    holding both basis vectors, yet no basis."""
    e = np.eye(2, dtype=complex)
    return UnentangledBasis([e[[0, 0, 1]], e[[0, 1, 0]]])


def test_incomplete_family_is_no_twisted_product_basis():
    b = incomplete_family()
    rep = validate_unentangled(b)
    assert not rep.complete and not rep.is_valid and rep.worst_overlap <= BasisReport.tolerance
    assert _as_product_basis(b) is None
    res = twist_search(b)
    assert not res.found and res.certificate is None
    assert res.reason == "no strictly improving move found"


def test_replay_fails_on_a_wrong_final_basis_a_dropped_move_or_an_incomplete_family():
    cert = twisted_example_certificate()
    assert cert.replay()
    rotated = (cert.final[0], np.vstack([HADAMARD @ cert.final[1][:2], cert.final[1][2:]]))
    assert product_basis(rotated).dims == (3, 3)
    assert not TwistCertificate(cert.moves, cert.initial, rotated).replay()
    assert not TwistCertificate(cert.moves[:-1], cert.initial, cert.final).replay()
    eye = np.eye(2, dtype=complex)
    assert not TwistCertificate((), incomplete_family(), (eye, eye)).replay()
    assert TwistCertificate((), computational_basis((2, 2)), (eye, eye)).replay()


def test_certificates_hold_read_only_local_bases():
    for cert in (twisted_example_certificate(), twist_search(twisted_example_basis()).certificate,
                 twist_search(computational_basis((2, 3))).certificate):
        assert [lb.shape for lb in cert.final] == [(d, d) for d in cert.initial.dims]
        assert all(not lb.flags.writeable for lb in cert.final)


def test_example_certificate_json_writes_identity_rows():
    data = twisted_example_certificate().to_json()
    eye_rows = [[[float(x), 0.0] for x in row] for row in np.eye(3)]
    assert data["final"] == [eye_rows, eye_rows]
    assert data["initial"] == twisted_example_basis().to_json()
    assert [(m["site"], m["pair"]) for m in data["moves"]] == [
        (1, [7, 8]), (1, [0, 1]), (0, [2, 5]), (0, [3, 6])]


def test_bases_states_moves_and_certificates_compare_bit_for_bit():
    b = twisted_example_basis()
    back = UnentangledBasis.from_json(b.to_json())
    assert b == twisted_example_basis() and b == back and hash(b) == hash(back)
    assert len({b, back}) == 1
    site, pair = find_local_pairs(b)[0]
    twisted = apply_twist(b, TwistMove(site, pair, HADAMARD))
    assert twisted != b and b != b.stacks and b != computational_basis((3, 3))
    assert b.elements[0] == back.elements[0] != b.elements[1]
    assert len({e for e in b.elements + back.elements}) == len(b.elements)
    # A small change of one entry makes another basis; so does the same bytes in other dims.
    f = [s.copy() for s in b.stacks]
    f[0][2, 1] += 1e-15j  # still a unit factor, with the same phase
    assert UnentangledBasis(f) != b
    wide = ProductState((np.array([1.0, 0.0]), np.array([0.6, 0.8])))
    assert wide != ProductState((np.array([1.0]), np.array([0.0, 0.6, 0.8])))
    move = TwistMove(site, pair, HADAMARD)
    assert move == TwistMove(site, pair, HADAMARD.astype(complex)) != TwistMove(site, pair, np.eye(2))
    assert len({move, TwistMove(site, pair, HADAMARD)}) == 1
    cert = twisted_example_certificate()
    assert cert == twisted_example_certificate() and hash(cert) == hash(twisted_example_certificate())
    assert cert != TwistCertificate(cert.moves[:-1], cert.initial, cert.final)
    assert cert != TwistCertificate(cert.moves, twisted, cert.final)
    assert twist_search(b) == twist_search(back)
