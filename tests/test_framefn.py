"""Tests for frame functions: operator-induced, tabulated, signalling."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsgleason.bases import UnentangledBasis, product_basis
from nsgleason.framefn import (
    OperatorInduced,
    SignallingFamily,
    Tabulated,
    make_signalling_example,
    sample_from_operator,
)
from nsgleason.gleason import spanning_design
from nsgleason.linalg import (
    HermitianOperator,
    ProductState,
    ValidationError,
    canonical_phase,
    complex_to_json,
    make_rng,
    partial_transpose,
    proj,
    random_density,
    random_hermitian,
    random_onb,
    random_unit,
    random_units,
    site_stacks,
)

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=float
)


def random_product_bases(rng, dims, count):
    return [product_basis([random_onb(rng, d).T for d in dims]) for _ in range(count)]


def basis_sums(f, bases):
    """f summed over the elements of each product basis, in one values() call per basis."""
    return np.array([f.values(pb.stacks).sum() for pb in bases])


def test_maximally_mixed_evaluates_constant():
    rng = make_rng(1)
    f = OperatorInduced(HermitianOperator((3, 3), np.eye(9) / 9))
    for _ in range(10):
        s = ProductState((random_unit(rng, 3), random_unit(rng, 3)))
        assert f(s) == pytest.approx(1 / 9, abs=1e-12)


def test_swap_half_gives_overlap_squared():
    rng = make_rng(2)
    f = OperatorInduced(HermitianOperator((2, 2), SWAP / 2))
    for _ in range(10):
        v, w = random_unit(rng, 2), random_unit(rng, 2)
        expected = abs(np.vdot(v, w)) ** 2 / 2
        assert f(ProductState((v, w))) == pytest.approx(expected, abs=1e-12)


def test_bell_projector_on_00():
    phi = np.array([1, 0, 0, 1]) / np.sqrt(2)
    f = OperatorInduced(HermitianOperator((2, 2), proj(phi)))
    s = ProductState((np.array([1.0, 0]), np.array([1.0, 0])))
    assert f(s) == pytest.approx(0.5, abs=1e-12)


def test_weight_equals_trace_over_any_product_basis():
    rng = make_rng(3)
    t = random_density(rng, (3, 3))
    f = OperatorInduced(t)
    sums = basis_sums(f, random_product_bases(rng, (3, 3), 10))
    assert np.ptp(sums) <= 1e-10
    assert sums.mean() == pytest.approx(t.trace(), abs=1e-10)


def test_partial_transpose_is_conjugation_relabel():
    rng = make_rng(4)
    t = random_hermitian(rng, (3, 3))
    f_pt = OperatorInduced(partial_transpose(t, 1))
    f = OperatorInduced(t)
    for _ in range(20):
        v, w = random_unit(rng, 3), random_unit(rng, 3)
        lhs = f_pt(ProductState((v, w)))
        rhs = f(ProductState((v, w.conj())))
        assert abs(lhs - rhs) <= 1e-12


def test_signalling_family_weight_constant():
    rng = make_rng(5)
    f = make_signalling_example((3, 3), np.pi / 4)
    sums = basis_sums(f, random_product_bases(rng, (3, 3), 50))
    assert np.ptp(sums) <= 1e-10
    assert sums.mean() == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("dims", [(2, 2, 2), (1, 3), (3,)])
def test_signalling_family_needs_two_sites_of_dim_2(dims):
    with pytest.raises(ValidationError, match="two sites of dim >= 2"):
        SignallingFamily(dims, np.pi / 4)


@pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
def test_signalling_family_needs_a_finite_theta(theta):
    with pytest.raises(ValidationError, match=f"needs a finite theta, not {theta!r}"):
        SignallingFamily((3, 3), theta)


def test_signalling_family_values_in_unit_interval():
    rng = make_rng(6)
    f = make_signalling_example((3, 3), np.pi / 4)
    for _ in range(100):
        s = ProductState((random_unit(rng, 3), random_unit(rng, 3)))
        assert -1e-12 <= f(s) <= 1 + 1e-12


def test_signalling_marginal_depends_on_basis():
    # Explicit two-basis witness: sum_j f(v_j (x) w) differs between the
    # computational site-1 basis and a rotated one.
    f = make_signalling_example((2, 2), np.pi / 4)
    w = np.array([1.0, 0.0])
    comp = np.eye(2)
    rot = np.array([[1, 1], [1, -1]]) / np.sqrt(2)

    def marginal(basis):
        return sum(f(ProductState((basis[:, k], w))) for k in range(2))

    assert abs(marginal(comp) - marginal(rot)) >= 1e-3


def test_tabulated_lookup_and_miss():
    rng = make_rng(7)
    t = random_density(rng, (2, 2))
    design = [
        ProductState((random_unit(rng, 2), random_unit(rng, 2))) for _ in range(5)
    ]
    f = sample_from_operator(t, design)
    for s in design:
        assert f(s) == pytest.approx(t.expectation(s.full()), abs=1e-12)
    with pytest.raises(KeyError):
        f(ProductState((random_unit(rng, 2), random_unit(rng, 2))))


@pytest.mark.parametrize("dims", [(3, 3), (2, 2, 2)])
def test_tabulated_finds_rebuilt_and_json_states(dims):
    # Phasing a phased factor changes no bit, so a state rebuilt from its
    # factors, or read back from JSON, has its original key.
    t = random_density(make_rng(3), dims)
    design = spanning_design(dims, seed=5).states
    f = sample_from_operator(t, design)
    for s in design:
        assert f(ProductState(s.factors)) == f(s)
    loaded = UnentangledBasis.from_json(json.loads(json.dumps({"elements": [
        {"factors": [complex_to_json(v) for v in s.factors]} for s in design]}))).elements
    assert [f(s) for s in loaded] == [f(s) for s in design]
    assert f.values(site_stacks(loaded)).tolist() == [f(s) for s in design]


def test_tabulated_perturbation_shows_in_spread():
    rng = make_rng(8)
    t = HermitianOperator((2, 2), np.eye(4) / 4)
    basis = product_basis([random_onb(rng, 2).T for _ in range(2)])
    design = basis.elements
    f = sample_from_operator(t, design)
    g = Tabulated(f.dims, {**f.table, design[0].key(): f.table[design[0].key()] + 0.05})
    # The basis sum shifts by the perturbation.
    assert basis_sums(g, [basis])[0] == pytest.approx(1.0 + 0.05, abs=1e-12)


def test_sample_values_within_rayleigh_bounds():
    rng = make_rng(9)
    t = random_density(rng, (3, 3))
    design = [
        ProductState((random_unit(rng, 3), random_unit(rng, 3))) for _ in range(50)
    ]
    f = sample_from_operator(t, design)
    assert all(0 <= v <= 1 for v in f.table.values())


def per_state_value(f, s):
    """f(s) as each kind computed it one state at a time before values() existed."""
    if s.dims != f.dims:
        raise ValidationError("dims")
    if isinstance(f, OperatorInduced):
        return f.t.expectation(s.full())
    if isinstance(f, Tabulated):
        try:
            return f.table[s.key()]
        except KeyError:
            raise KeyError("missing") from None
    v, w = s.factors
    target = np.zeros(f.dims[1], dtype=complex)
    target[:2] = np.cos(f.theta * abs(v[1]) ** 2), np.sin(f.theta * abs(v[1]) ** 2)
    return abs(v[0]) ** 2 * abs(np.vdot(target, w)) ** 2


def outcome(call):
    """The value array a call returns, or the type of the error it raises."""
    try:
        return np.array(call(), dtype=float)
    except (ValidationError, KeyError) as exc:
        return type(exc)


FRAME_KINDS = ["density", "indefinite", "tabulated", "tabulated_miss", "signalling"]


@given(st.integers(0, 2**32 - 1), st.sampled_from([(2, 2), (3, 3), (3, 4), (5, 2)]),
       st.sampled_from(FRAME_KINDS), st.integers(0, 12))
@settings(max_examples=80, deadline=None)
def test_values_match_per_state_loop(seed, dims, kind, n):
    rng = make_rng(seed)
    states = ProductState.batch(random_units(rng, dims, n))
    stacks = [np.array(site) for site in zip(*(s.factors for s in states))] or [
        np.empty((0, d), dtype=complex) for d in dims]
    if kind == "density":
        f = OperatorInduced(random_density(rng, dims))
    elif kind == "indefinite":  # negative on some product states
        f = OperatorInduced(partial_transpose(random_hermitian(rng, dims), 0))
    elif kind.startswith("tabulated"):
        f = sample_from_operator(random_density(rng, dims), states[:-1] if kind.endswith("miss")
                                 else states)
    else:
        f = SignallingFamily(dims, rng.uniform(0, np.pi))
    got = outcome(lambda: f.values(stacks))
    want = outcome(lambda: [per_state_value(f, s) for s in states])
    if isinstance(want, type):
        assert got is want
        return
    if isinstance(f, Tabulated):
        assert got.tobytes() == want.tobytes()
    # The batched contractions sum in another order: a few hundred ulps.
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-14)
    np.testing.assert_allclose([f(s) for s in states], got, rtol=1e-13, atol=1e-14)


@given(st.integers(0, 2**32 - 1), st.sampled_from([(2, 2), (3, 3), (3, 4), (5, 2)]),
       st.sampled_from(["density", "tabulated", "signalling"]),
       st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_values_match_per_state_loop_on_unphased_rows(seed, dims, kind, n):
    # Rows in another phase than ProductState gives them: entry n is still
    # f(ProductState(row n)), bit for bit for a Tabulated table, which phases
    # the rows it looks up.
    rng = make_rng(seed)
    stacks = [f * np.exp(2j * np.pi * rng.uniform(size=(n, 1))) for f in random_units(rng, dims, n)]
    states = [ProductState(tuple(f[k] for f in stacks)) for k in range(n)]
    if kind == "tabulated":
        f = sample_from_operator(random_density(rng, dims), states)
    elif kind == "signalling":
        f = SignallingFamily(dims, rng.uniform(0, np.pi))
    else:
        f = OperatorInduced(random_density(rng, dims))
    got = f.values(stacks)
    want = np.array([f(s) for s in states])
    if kind == "tabulated":
        assert got.tobytes() == want.tobytes()
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-14)


@pytest.mark.parametrize("kind", ["operator", "table", "signalling"])
def test_call_rejects_state_of_other_dims(kind):
    f = {"operator": OperatorInduced(HermitianOperator((3, 3), np.eye(9))),
         "table": Tabulated((3, 3), {}),
         "signalling": make_signalling_example((3, 3), 0.3)}[kind]
    rng = make_rng(12)
    with pytest.raises(ValidationError, match="dims"):
        f(ProductState((random_unit(rng, 3), random_unit(rng, 2))))


def test_values_reject_what_product_states_reject():
    f = make_signalling_example((3, 3), np.pi / 4)
    rng = make_rng(11)
    v, w = random_units(rng, (3, 3), 4)
    with pytest.raises(ValidationError, match="dims"):
        f.values([v, w[:, :2]])
    w[2] *= 1 + 1e-9
    with pytest.raises(ValidationError, match="norm"):
        f.values([v, w])
    with pytest.raises(ValidationError, match="norm"):
        ProductState((v[2], w[2]))
    w[2, 0] = np.inf  # norms are taken of |w|: a complex product with inf would warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="norm"):
            f.values([v, w])


@pytest.mark.parametrize("dims", [(3, 3), (4, 4)])
def test_state_keys_ignore_the_sign_of_zero_amplitudes(dims):
    # v * -1 phases back to v's bits, its zero parts made 0.0: the state, its key
    # and its tabulated value are those of v.  A generic phase such as e^{0.3i}
    # may still round to other bits.
    design = spanning_design(dims).states
    f = sample_from_operator(random_density(make_rng(1), dims), design)
    for s in design:
        v, w = s.factors
        for flipped in (ProductState((v * -1, w)), ProductState((v, w * -1))):
            assert flipped == s and flipped.key() == s.key()
            assert f(flipped) == f(s)
    flipped = [x * -1 for x in site_stacks(design)]
    assert f.values(flipped).tolist() == f.values(site_stacks(design)).tolist()


def test_minus_v_phases_to_the_bits_of_v():
    # A real negative lead is divided out by its sign, which is exact.  Scaled by
    # its reciprocal instead, it became -(1 - 2**-53) for about one phased unit
    # vector in eight in C^3, so -v made another state, whose lookup missed.
    v = random_units(make_rng(3), (3,), 10000)[0]
    assert canonical_phase(-v).tobytes() == v.tobytes()
    w = np.array([0.6, 0.8j])
    f = Tabulated((3, 2), {ProductState((x, w)).key(): float(k) for k, x in enumerate(v)})
    assert all(ProductState((-x, w)) == ProductState((x, w)) for x in v[:300])
    assert [f(ProductState((-x, w))) for x in v[:300]] == list(range(300))
    assert f.values([-v, np.tile(w, (len(v), 1))]).tolist() == list(range(len(v)))
