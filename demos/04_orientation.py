"""Orientation of a bipartite operator: CP, co-CP, both, or neither.

A reconstructed operator t induces a linear map on one factor,
phi_t(a) = tr_1(t (a^T (x) I)), whose Choi matrix is t.  The map can be
completely positive (CP: t is PSD), completely positive after composing with
the transpose (co-CP: the partial transpose t^Γ is PSD), both, or neither.
The partial transpose exchanges the two options.  In the CP (or co-CP) case
the eigenvectors of t (or t^Γ) give a Kraus form, so the demo counts its
operators locally; in the NEITHER case there is none.
"""

import numpy as np

from nsgleason import (
    HermitianOperator,
    Orientation,
    OrientationClass,
    classify_orientation,
    classify_product_positivity,
    make_rng,
    partial_transpose,
    proj,
    random_hermitian,
)

phi_plus = proj(np.array([1.0, 0, 0, 1]) / np.sqrt(2))
swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                dtype=float)

examples = {
    "entangled projector": HermitianOperator((2, 2), phi_plus),
    "SWAP / 2": HermitianOperator((2, 2), swap / 2),
    "equal mixture": HermitianOperator((2, 2), (phi_plus + swap / 2) / 2),
}

print("=== classifying three benchmark operators ===")
for name, t in examples.items():
    c = classify_orientation(t)
    print(f"{name:20s}: {c.value.value:8s} "
          f"(min eig Choi {c.min_eig_choi:+.4f}, "
          f"flipped {c.min_eig_flipped_choi:+.4f})")

print("\n=== product-positivity: the certificate, else the see-saw ===")
for name, t in examples.items():
    cls, evidence = classify_product_positivity(t)
    if isinstance(evidence, OrientationClass):
        how = f"{evidence.value.value} certificate, no see-saw"
    else:
        how = f"see-saw value {evidence.value:+.1e} after {evidence.sweeps} sweeps"
    print(f"{name:20s}: {cls.value:22s} ({how})")

print("\n=== Kraus form exists exactly in the positive orientation ===")
for name, t in examples.items():
    c = classify_orientation(t)
    if c.value is Orientation.NEITHER:
        print(f"{name:20s}: no Kraus form ({c.value.value})")
        continue
    # The Kraus operators are sqrt(lambda) v^T for the eigenpairs of the PSD one of t, t^Gamma.
    flipped = c.value is Orientation.CO_CP
    source = partial_transpose(t, 0) if flipped else t
    count = int(np.sum(np.linalg.eigvalsh(source.mat) > 1e-12))
    print(f"{name:20s}: {count} Kraus operators (flipped={flipped})")

print("\n=== partial transpose swaps the two orientations ===")
rng = make_rng(0)
for _ in range(3):
    t = random_hermitian(rng, (2, 2))
    c = classify_orientation(t)
    cf = classify_orientation(partial_transpose(t, 0))
    print(f"min eigs (Choi, flipped) = ({c.min_eig_choi:+.4f}, "
          f"{c.min_eig_flipped_choi:+.4f})  after flip -> "
          f"({cf.min_eig_choi:+.4f}, {cf.min_eig_flipped_choi:+.4f})")

print("\n=== the flipped operator's map is the map of the transpose ===")
t = random_hermitian(rng, (3, 3))
a = random_hermitian(rng, (3,)).mat

# phi_t(a) = tr_1(t (a^T (x) I)): phi_t(E_ij)[k, l] = t[(i,k), (j,l)].
via_flip = np.einsum("ikjl,ij->kl", partial_transpose(t, 0).mat.reshape(3, 3, 3, 3), a)
via_transpose = np.einsum("ikjl,ij->kl", t.mat.reshape(3, 3, 3, 3), a.T)
dev = np.max(np.abs(via_flip - via_transpose))
print(f"max |phi_(t^Gamma)(a) - phi_t(a^T)| on a random input: {dev:.2e}")
