"""Symmetry tests: the orientation and product-positivity classes are invariant under
the setting's symmetries.

Local unitaries U (x) V, the site swap and complex conjugation each map product
states to product states, and the first and last keep the spectra of t and of its
partial transpose; the swap exchanges the site-1 and site-2 partial transposes,
which are each other's transpose.  So no class may change under any of them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsgleason.gleason import classify_product_positivity
from nsgleason.linalg import (
    HermitianOperator,
    make_rng,
    partial_transpose,
    random_density,
    random_hermitian,
    random_onb,
)
from nsgleason.orientation import classify_orientation


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


def symmetries(rng, t: HermitianOperator) -> dict:
    d1, d2 = t.dims
    uv = np.kron(random_onb(rng, d1), random_onb(rng, d2))
    swapped = t.mat.reshape(d1, d2, d1, d2).transpose(1, 0, 3, 2).reshape(d1 * d2, d1 * d2)
    return {
        "local unitary": HermitianOperator(t.dims, uv @ t.mat @ uv.conj().T),
        "site swap": HermitianOperator((d2, d1), swapped),
        "conjugation": HermitianOperator(t.dims, t.mat.conj()),
    }


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
