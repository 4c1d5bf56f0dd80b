"""Orientation of a bipartite operator: CP, co-CP, both, or neither.

A reconstructed operator t induces a linear map on one factor through its
Choi block structure.  The map can be completely positive (CP), completely
positive after composing with the transpose (co-CP), both, or neither.  The
two options are exchanged by the partial transpose, and a Kraus form exists
exactly in the CP (or flipped co-CP) case.
"""

import numpy as np

from nsgleason import (
    HermitianOperator,
    OrientationClass,
    classify_orientation,
    classify_product_positivity,
    kraus_factorize,
    make_rng,
    partial_transpose,
    proj,
    random_hermitian,
)
from nsgleason.orientation import OperatorMap

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
    try:
        ks = kraus_factorize(t)
        a = np.array([[0.3, 0.1], [0.1, 0.7]], dtype=complex)
        direct = OperatorMap(t)(a)
        via_kraus = ks.apply(a)
        err = np.max(np.abs(direct - via_kraus))
        print(f"{name:20s}: {len(ks.operators)} Kraus operators "
              f"(flipped={ks.flipped}, map error {err:.2e})")
    except Exception as exc:
        print(f"{name:20s}: no Kraus form ({type(exc).__name__})")

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
dev = np.max(np.abs(OperatorMap(partial_transpose(t, 0))(a) - OperatorMap(t)(a.T)))
print(f"max |phi_(t^Gamma)(a) - phi_t(a^T)| on a random input: {dev:.2e}")
