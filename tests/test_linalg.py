"""Tests for the dense linear-algebra core."""

import copy
import itertools
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nsgleason.framefn import SignallingFamily
from nsgleason.linalg import (
    HermitianOperator,
    ValidationError,
    canonical_phase,
    check_unit,
    complex_from_json,
    complex_to_json,
    hermitian_eig,
    is_integer,
    is_local_basis,
    make_rng,
    partial_transpose,
    product_rows,
    product_values,
    proj,
    random_density,
    random_hermitian,
    random_onb,
    random_onbs,
    random_unit,
    random_units,
    real_from_json,
    tensor,
    unit_rows,
)
from nsgleason.tolerances import PHASE_AMPLITUDE

KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])
PLUS = np.array([1.0, 1.0]) / np.sqrt(2)
PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)


def test_tensor_computational():
    np.testing.assert_allclose(tensor([KET0, KET0]), [1, 0, 0, 0])


def test_tensor_plus_zero():
    s = 1 / np.sqrt(2)
    np.testing.assert_allclose(tensor([PLUS, KET0]), [s, 0, s, 0])


def test_tensor_empty_rejected():
    with pytest.raises(ValueError):
        tensor([])


def test_tensor_inner_product_factorizes():
    rng = make_rng(11)
    for _ in range(20):
        v1, v2 = random_unit(rng, 3), random_unit(rng, 4)
        w1, w2 = random_unit(rng, 3), random_unit(rng, 4)
        full = np.vdot(tensor([v1, v2]), tensor([w1, w2]))
        factorwise = np.vdot(v1, w1) * np.vdot(v2, w2)
        assert abs(full - factorwise) <= 1e-12


def test_hermitian_eig_diagonal():
    op = HermitianOperator((3,), np.diag([3.0, 2.0, 1.0]).astype(complex))
    np.testing.assert_allclose(hermitian_eig(op).eigenvalues, [3, 2, 1])


def test_hermitian_eig_pauli_x():
    op = HermitianOperator((2,), np.array([[0, 1], [1, 0]], dtype=complex))
    np.testing.assert_allclose(hermitian_eig(op).eigenvalues, [1, -1], atol=1e-12)


def test_hermitian_eig_bell_projector():
    op = HermitianOperator((2, 2), proj(PHI_PLUS))
    np.testing.assert_allclose(hermitian_eig(op).eigenvalues, [1, 0, 0, 0], atol=1e-12)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_hermitian_eig_checks_a_raw_matrix_as_an_operator(value):
    mat = random_hermitian(make_rng(4), (3,)).mat.copy()
    raw, op = hermitian_eig(mat.copy()), hermitian_eig(HermitianOperator((3,), mat))
    assert raw.eigenvalues.tobytes() == op.eigenvalues.tobytes()
    assert raw.eigenvectors.tobytes() == op.eigenvectors.tobytes()
    mat[0, 0] = value  # a NaN used to pass the Hermiticity check, an inf to warn in it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="Hermiticity by nan"):
            hermitian_eig(mat)


def test_hermitian_eig_residual_and_reconstruction():
    rng = make_rng(3)
    op = random_hermitian(rng, (3, 3))
    spec = hermitian_eig(op)
    for lam, u in zip(spec.eigenvalues, spec.eigenvectors.T):
        assert np.max(np.abs(op.mat @ u - lam * u)) <= 1e-8
    recon = sum(
        lam * proj(u) for lam, u in zip(spec.eigenvalues, spec.eigenvectors.T)
    )
    assert np.linalg.norm(recon - op.mat) <= 1e-8 * np.linalg.norm(op.mat)
    gram = spec.eigenvectors.conj().T @ spec.eigenvectors
    assert np.max(np.abs(gram - np.eye(op.dim))) <= 1e-10


def test_non_hermitian_rejected():
    with pytest.raises(ValidationError):
        HermitianOperator((2,), np.array([[0, 1], [0, 0]], dtype=complex))


@pytest.mark.parametrize("value", [np.nan, complex(0, np.nan)])
@pytest.mark.parametrize("where", [(1, 1), (0, 1)])
def test_nan_entry_rejected(value, where):
    # A comparison with NaN is false, so the Hermiticity check is written to fail on it.
    mat = np.eye(2, dtype=complex)
    mat[where] = mat[where[::-1]] = value
    with pytest.raises(ValidationError, match="Hermiticity by nan"):
        HermitianOperator((2,), mat)


@pytest.mark.parametrize("where", [(1, 1), (0, 1)])
def test_infinite_entry_rejected_without_a_warning(where):
    # inf - inf in the Hermiticity check would warn; a warning turned error is not a ValidationError.
    mat = np.eye(2, dtype=complex)
    mat[where] = mat[where[::-1]] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="Hermiticity by nan"):
            HermitianOperator((2,), mat)


@pytest.mark.parametrize("dims, mat", [((0, 3), np.zeros((0, 0))), ((-2, -2), np.eye(4)),
                                       ((True, 4), np.eye(4)), ((2.0, 2), np.eye(4))],
                         ids=["zero", "negative", "bool", "float"])
def test_operator_dims_must_be_integers_at_least_1(dims, mat):
    # int() would read True as 1 and 2.0 as 2; (0, 3) and (-2, -2) have no such space.
    with pytest.raises(ValidationError, match=r"dims \[.*\] are not integers >= 1"):
        HermitianOperator(dims, mat)


@pytest.mark.parametrize("make", [
    lambda dims: random_hermitian(make_rng(0), dims),
    lambda dims: random_density(make_rng(0), dims),
    lambda dims: SignallingFamily(dims, 0.7),
], ids=["random_hermitian", "random_density", "SignallingFamily"])
@pytest.mark.parametrize("dims, site", [((2.5, 2), "2.5"), ((True, 3), "True"), ((-2, 2), "-2"),
                                        ((3.9, 2), "3.9"), ((2, 2.0), "2.0")])
def test_operator_makers_check_dims_as_operators_do(make, dims, site):
    # Each maker checks dims as HermitianOperator does: no truncation, no bool, no negative.
    where = 0 if site != "2.0" else 1
    message = rf"^dims \[{dims[0]!r}, {dims[1]!r}\] are not integers >= 1: site {where} is {site}$"
    with pytest.raises(ValidationError, match=message):
        make(dims)


def test_operator_matrix_shape_must_match_dims():
    with pytest.raises(ValidationError, match=r"shape \(3, 3\) incompatible with dims \(2, 2\)"):
        HermitianOperator((2, 2), np.eye(3))


def test_partial_transpose_product_operator():
    rng = make_rng(5)
    a = random_hermitian(rng, (2,)).mat
    b = random_hermitian(rng, (3,)).mat
    op = HermitianOperator((2, 3), np.kron(a, b))
    np.testing.assert_allclose(
        partial_transpose(op, 1).mat, np.kron(a, b.T), atol=1e-12
    )


def test_partial_transpose_bell_is_swap():
    op = HermitianOperator((2, 2), proj(PHI_PLUS))
    pt = partial_transpose(op, 1)
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[i * 2 + j, j * 2 + i] = 1
    np.testing.assert_allclose(pt.mat, swap / 2, atol=1e-12)
    np.testing.assert_allclose(
        hermitian_eig(pt).eigenvalues, [0.5, 0.5, 0.5, -0.5], atol=1e-12
    )


def test_partial_transpose_involution_and_isometries():
    rng = make_rng(7)
    op = random_hermitian(rng, (2, 3))
    pt = partial_transpose(op, 0)
    np.testing.assert_array_equal(partial_transpose(pt, 0).mat, op.mat)
    assert abs(pt.trace() - op.trace()) <= 1e-12
    assert abs(np.linalg.norm(pt.mat) - np.linalg.norm(op.mat)) <= 1e-12


def test_global_transpose_preserves_spectrum():
    rng = make_rng(9)
    op = random_hermitian(rng, (2, 3))
    both = partial_transpose(partial_transpose(op, 0), 1)
    np.testing.assert_allclose(
        hermitian_eig(both).eigenvalues, hermitian_eig(op).eigenvalues, atol=1e-10
    )


def test_partial_transpose_site_out_of_range():
    op = HermitianOperator((2, 2), np.eye(4))
    for site in (2, -1):
        with pytest.raises(ValidationError, match=f"site {site} out of range for 2 factors"):
            partial_transpose(op, site)


def test_operator_json_round_trip():
    rng = make_rng(19)
    op = random_hermitian(rng, (2, 3))
    back = HermitianOperator.from_json(op.to_json())
    np.testing.assert_array_equal(back.mat, op.mat)
    assert back.dims == op.dims


def test_vector_json_round_trip():
    rng = make_rng(23)
    v = random_unit(rng, 5)
    assert complex_from_json(complex_to_json(v), 1).tobytes() == v.tobytes()


def pairs_written(a):
    """The [re, im] comprehensions the JSON writers used before the codec."""
    if a.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in a]
    return [[[z.real, z.imag] for z in row] for row in a]


def pairs_read(data, ndim):
    """The complex(re, im) comprehensions the JSON readers used before the codec."""
    if ndim == 1:
        return np.array([complex(re, im) for re, im in data])
    return np.array([[complex(re, im) for re, im in row] for row in data])


# Signed zeros, subnormals and the largest doubles, mixed with any finite float.
parts = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, -2.2e-308, 1.7976931348623157e308,
                                   -1e300]),
                  st.floats(allow_nan=False, allow_infinity=False))
shapes = st.one_of(st.tuples(st.integers(1, 6)), st.tuples(st.integers(2, 4), st.integers(1, 4)))
NOT_FINITE_NUMBERS = ["0.5", True, False, None, float("nan"), float("inf"), float("-inf"),
                      10**400, [0.5]]


@given(shapes.flatmap(lambda s: hnp.arrays(float, s + (2,), elements=parts)), st.data())
@settings(max_examples=60, deadline=None)
def test_codec_matches_the_pair_comprehensions(re_im, data):
    a = re_im.view(complex)[..., 0]  # not re + 1j * im, which turns a real -0.0 into 0.0
    encoded = complex_to_json(a)
    assert json.dumps(encoded) == json.dumps(pairs_written(a))
    assert complex_from_json(encoded, a.ndim).tobytes() == pairs_read(encoded, a.ndim).tobytes()
    # One number replaced by something that is not a finite JSON number.
    *where, last = [data.draw(st.integers(0, n - 1)) for n in a.shape + (2,)]
    for value in NOT_FINITE_NUMBERS:
        bad = copy.deepcopy(encoded)
        row = bad
        for k in where:
            row = row[k]
        row[last] = value
        with pytest.raises(ValidationError):
            complex_from_json(bad, a.ndim)
    # A wrong last axis, a ragged nesting and the wrong depth.
    triples = np.concatenate([np.array(encoded), np.ones(a.shape + (1,))], axis=-1).tolist()
    ragged = copy.deepcopy(encoded)
    ragged[0] = ragged[0][:-1]
    for nested, ndim in [(triples, a.ndim), (ragged, a.ndim), (encoded, a.ndim + 1),
                         (encoded, a.ndim - 1)]:
        with pytest.raises(ValidationError):
            complex_from_json(nested, ndim)


@pytest.mark.parametrize("value", NOT_FINITE_NUMBERS,
                         ids=["str", "true", "false", "null", "nan", "inf", "-inf", "10**400",
                              "list"])
def test_real_decoder_shares_the_complex_decoders_checks(value):
    block = [[0.5, 0.0], [0.25, 0.25]]
    assert real_from_json(block).tobytes() == np.array(block).tobytes()
    block[1][0] = value  # a bad probability, and a bad real part of a 1-d complex array
    with pytest.raises(ValidationError):
        real_from_json(block)
    with pytest.raises(ValidationError):
        complex_from_json(block, 1)
    with pytest.raises(ValidationError):
        real_from_json([[0.5, 0.0], [0.25]])  # ragged


def ref_canonical_phase(v):
    """canonical_phase of one vector, one amplitude at a time: the single-vector
    loop canonical_phase ran before it had one stacked path, with each -0.0 made 0.0
    and a real negative lead divided out by its sign, exactly."""
    v = np.asarray(v, dtype=complex)
    for k, x in enumerate(v):
        if abs(x) > PHASE_AMPLITUDE:
            if x.imag == 0 and x.real > 0:
                break
            out = v * (-1.0 if x.imag == 0 else x.conjugate() / abs(x))
            out[k] = out[k].real
            return np.array([complex(z.real + 0.0, z.imag + 0.0) for z in out])
    return np.array([complex(z.real + 0.0, z.imag + 0.0) for z in v])


def sequential_unit(rng, d):
    """One random_unit draw, as it was written before draws were stacked."""
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return ref_canonical_phase(v / np.linalg.norm(v))


def sequential_onb(rng, d):
    """One random_onb draw, as it was written before draws were stacked."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    for k in range(d):
        q[:, k] = ref_canonical_phase(q[:, k])
    return q


@given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 6), min_size=1, max_size=3),
       st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_stacked_draws_match_sequential_draws(seed, dims, n):
    for stacked, sequential in ((random_units, sequential_unit), (random_onbs, sequential_onb)):
        rng, ref = make_rng(seed), make_rng(seed)
        got = stacked(rng, dims, n)
        want = [[sequential(ref, d) for d in dims] for _ in range(n)]
        for s, d in enumerate(dims):
            assert got[s].shape[0] == n
            assert np.ascontiguousarray(got[s]).tobytes() == b"".join(
                np.ascontiguousarray(w[s]).tobytes() for w in want)
        # Both generators stand at the same place in the stream afterwards.
        assert rng.standard_normal() == ref.standard_normal()


@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
@settings(max_examples=30, deadline=None)
def test_single_draws_match_sequential_draws(seed, d):
    rng, ref = make_rng(seed), make_rng(seed)
    assert random_unit(rng, d).tobytes() == sequential_unit(ref, d).tobytes()
    assert (np.ascontiguousarray(random_onb(rng, d)).tobytes()
            == np.ascontiguousarray(sequential_onb(ref, d)).tobytes())


def test_canonical_phase_twice_changes_no_bit():
    # A real positive leading amplitude is phase 1: the vector comes back with
    # only its -0.0 parts made 0.0.  Any other lead is made exactly real, one
    # row of a stack as the row alone.
    v = np.array([0.0, 0.6, complex(-0.0, -0.0), complex(0.0, -0.8)])
    assert canonical_phase(v).tobytes() == np.array([0.0, 0.6, 0.0, complex(0.0, -0.8)]).tobytes()
    assert canonical_phase(v).tobytes() != v.tobytes()
    rows = np.stack([v, v * 1j, v * np.exp(0.3j), -v, np.zeros(4, complex)])
    for stack in (rows, rows[:4].reshape(2, 2, 4)):
        once = canonical_phase(stack)
        assert canonical_phase(once).tobytes() == once.tobytes()
        for row, phased in zip(stack.reshape(-1, 4), once.reshape(-1, 4)):
            assert canonical_phase(row).tobytes() == phased.tobytes()
            assert phased[1].imag == 0 and phased[1].real > 0 or not row.any()


@given(st.integers(0, 2**32 - 1), st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_canonical_phase_matches_the_single_vector_loop(seed, d):
    # Random rows; a real positive lead (imaginary part -0.0); a -0.0 lead
    # (below PHASE_AMPLITUDE, so skipped) and a negative one; leads just below
    # and above PHASE_AMPLITUDE; and the zero vector.  Bit for bit, one row
    # alone and in stacks of any shape and memory order.
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((9, d)) + 1j * rng.standard_normal((9, d))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    rows[2, 0] = complex(abs(rows[2, 0]), -0.0)
    rows[3, 0] = complex(-0.0, -0.0)
    rows[4, 0] = -0.0 - abs(rows[4, 0])
    rows[5, 0], rows[6, 0] = 0.9 * PHASE_AMPLITUDE, -0.9j * PHASE_AMPLITUDE
    rows[7, 0] = 1.1 * PHASE_AMPLITUDE * np.exp(1j * rng.uniform(0, 2 * np.pi))
    rows[8] = 0.0
    want = np.array([ref_canonical_phase(row) for row in rows])
    for row, w in zip(rows, want):
        assert canonical_phase(row).tobytes() == w.tobytes()
    assert canonical_phase(rows).tobytes() == want.tobytes()
    assert canonical_phase(rows[:8].reshape(2, 4, d)).tobytes() == want[:8].tobytes()
    fortran = np.asfortranarray(rows[:8].reshape(2, 4, d))  # not C order, as onbs_from_normals passes
    assert canonical_phase(fortran).tobytes() == want[:8].tobytes()


def basis_products(u, v):
    """The two-site expander product_rows replaced: per-site stacks of u[:, i] (x)
    v[:, j] over the columns of (..., d, d) bases, i major; stacks pair by pair."""
    u, v = u.swapaxes(-1, -2), v.swapaxes(-1, -2)
    return [np.repeat(u, v.shape[-2], axis=-2).reshape(-1, u.shape[-1]),
            np.concatenate([v] * u.shape[-2], axis=-2).reshape(-1, v.shape[-1])]


@given(st.integers(0, 2**32 - 1), st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                                           min_size=1, max_size=3),
       st.lists(st.integers(1, 3), max_size=2))
@settings(max_examples=60, deadline=None)
def test_product_rows_expands_each_batch_alone(seed, sizes, batch):
    rng = np.random.default_rng(seed)
    local = [rng.standard_normal((*batch, n, d)) + 1j * rng.standard_normal((*batch, n, d))
             for n, d in sizes]
    got = product_rows(local)
    want = [[] for _ in local]
    for k in np.ndindex(*batch):  # each batch's grid after the one before, site 0 major
        for rows in itertools.product(*(f[k] for f in local)):
            for w, row in zip(want, rows):
                w.append(row)
    assert [g.shape for g in got] == [(len(w), d) for w, (_, d) in zip(want, sizes)]
    assert [g.tobytes() for g in got] == [np.array(w).tobytes() for w in want]


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (4, 3)])
@pytest.mark.parametrize("batch", [(), (3,), (2, 2)])
def test_product_rows_of_column_bases_is_the_basis_products_order(dims, batch):
    rng = make_rng(sum(dims) + len(batch))
    u, v = (random_onbs(rng, (d,), int(np.prod(batch)))[0].reshape(*batch, d, d) for d in dims)
    got = product_rows([u.swapaxes(-1, -2), v.swapaxes(-1, -2)])
    assert [g.tobytes() for g in got] == [w.tobytes() for w in basis_products(u, v)]


@given(st.integers(0, 2**32 - 1), st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 2, 2)]),
       st.integers(0, 8))
@settings(max_examples=40, deadline=None)
def test_product_values_match_expectations_of_full_states(seed, dims, n):
    rng = make_rng(seed)
    t = random_hermitian(rng, dims)
    stacks = random_units(rng, dims, n)
    got = product_values(t.mat, stacks)
    assert got.shape == (n,) and got.dtype == float
    want = [t.expectation(tensor([s[k] for s in stacks])) for k in range(n)]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_unit_rows_decide_as_check_unit():
    # Norms off by about the tolerance, and non-finite rows, without a warning.
    rng = np.random.default_rng(0)
    f = rng.standard_normal((60, 3)) + 1j * rng.standard_normal((60, 3))
    f /= np.linalg.norm(f, axis=1, keepdims=True)
    f *= 1 + rng.choice([0.0, 4e-13, 9e-13, 1e-12, 1.1e-12, -2e-12, 1e-6], (60, 1))
    f[0, 0], f[1, 1], f[2, 2] = np.nan, np.inf, -np.inf * 1j

    def passes(row):
        try:
            check_unit(row)
        except ValidationError:
            return False
        return True

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = unit_rows(f)
    assert got.tolist() == [passes(row) for row in f]
    assert 0 < got.sum() < len(f) - 3


def ref_is_local_basis(u):
    """is_local_basis on one matrix, as it was before it took stacks (a test-only copy)."""
    u = np.asarray(u, dtype=complex)
    return bool(np.isfinite(u).all()
                and np.abs(u.conj().T @ u - np.eye(len(u))).max(initial=0.0) <= 1e-10)


@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.sampled_from([(), (7,), (2, 3)]))
@settings(max_examples=40, deadline=None)
def test_stacked_local_basis_verdicts_are_each_basis_verdict(seed, d, batch):
    # Bases scaled off by about the tolerance, with NaN, inf and zero entries, without a warning.
    rng = make_rng(seed)
    n = int(np.prod(batch))
    u = random_onbs(rng, (d,), n)[0] * (1 + rng.choice([0.0, 2e-11, 4.9e-11, 5.1e-11, 1e-6], (n, 1, d)))
    for k, value in zip(rng.permutation(2 * n)[:4], [np.nan, np.inf, -np.inf * 1j, 0.0]):
        if k < n:  # about half the bases stay finite
            u[k, rng.integers(d), rng.integers(d)] = value
    u = u.reshape(batch + (d, d))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = is_local_basis(u)
        each = [is_local_basis(b) for b in u.reshape(-1, d, d)]
    want = [ref_is_local_basis(b) for b in u.reshape(-1, d, d)]
    if batch:
        assert got.dtype == bool and got.shape == batch and got.ravel().tolist() == want == each
    else:
        assert type(got) is bool and [got] == want == each
    assert all(type(v) is bool for v in each)


def test_is_integer_takes_python_and_numpy_integers_but_not_bools():
    assert all(map(is_integer, [0, -3, 2**70, np.int64(5), np.uint8(1)]))
    assert not any(map(is_integer, [True, np.True_, 2.0, np.float64(3), "3", None, 3 + 0j]))


def test_operators_compare_and_hash_bit_for_bit():
    # Before, == raised "truth value of an array is ambiguous" and hash "unhashable type".
    a, b = random_density(make_rng(0), (2, 2)), random_density(make_rng(0), (2, 2))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    flipped = a.mat.copy()
    flipped.view(np.uint64)[0] ^= 1  # the last bit of a diagonal entry, kept by symmetrizing
    c = HermitianOperator(a.dims, flipped)
    assert c != a and np.abs(c.mat - a.mat).max() > 0
    assert HermitianOperator((4,), a.mat) != a  # same matrix, other dims
