"""Property-based checks with hypothesis for the numerical core."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nsgleason.bases import TwistMove, apply_twist, find_local_pairs, product_basis, validate_unentangled
from nsgleason.linalg import (
    canonical_phase,
    hermitian_eig,
    make_rng,
    partial_transpose,
    random_hermitian,
    random_onb,
    random_unit,
    tensor,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.sampled_from([2, 3, 4])


@given(seeds, dims, dims)
@settings(max_examples=25, deadline=None)
def test_tensor_inner_product_factorizes(seed, d1, d2):
    rng = make_rng(seed)
    u, v = random_unit(rng, d1), random_unit(rng, d2)
    w, x = random_unit(rng, d1), random_unit(rng, d2)
    lhs = np.vdot(tensor([u, v]), tensor([w, x]))
    rhs = np.vdot(u, w) * np.vdot(v, x)
    assert abs(lhs - rhs) <= 1e-12


@given(seeds, dims)
@settings(max_examples=25, deadline=None)
def test_canonical_phase_idempotent_and_norm_preserving(seed, d):
    rng = make_rng(seed)
    v = random_unit(rng, d) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    c = canonical_phase(v)
    assert canonical_phase(c).tobytes() == c.tobytes()  # idempotent bit for bit
    assert abs(np.linalg.norm(c) - 1) <= 1e-12


@given(seeds, dims, dims)
@settings(max_examples=20, deadline=None)
def test_partial_transpose_isometries(seed, d1, d2):
    rng = make_rng(seed)
    t = random_hermitian(rng, (d1, d2))
    for site in (0, 1):
        pt = partial_transpose(t, site)
        assert abs(pt.trace() - t.trace()) <= 1e-12
        assert abs(np.linalg.norm(pt.mat) - np.linalg.norm(t.mat)) <= 1e-12


@given(seeds)
@settings(max_examples=15, deadline=None)
def test_eigen_residuals(seed):
    rng = make_rng(seed)
    t = random_hermitian(rng, (2, 3))
    spec = hermitian_eig(t)
    for lam, u in zip(spec.eigenvalues, spec.eigenvectors.T):
        assert np.max(np.abs(t.mat @ u - lam * u)) <= 1e-8
    assert all(a >= b for a, b in zip(spec.eigenvalues, spec.eigenvalues[1:]))


@given(seeds)
@settings(max_examples=15, deadline=None)
def test_random_twists_preserve_unentangled_invariants(seed):
    rng = make_rng(seed)
    b = product_basis([np.eye(2), np.eye(3)])
    for _ in range(5):
        pairs = find_local_pairs(b)
        site, pair = pairs[int(rng.integers(len(pairs)))]
        b = apply_twist(b, TwistMove(site, pair, random_onb(rng, 2)))
    rep = validate_unentangled(b)
    assert rep.is_valid
    assert rep.worst_overlap <= 1e-10
