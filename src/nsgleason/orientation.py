"""Choi-matrix construction and CP / co-CP orientation classification.

A bipartite Hermitian operator t induces a linear map on operators,
phi_t(a) = tr_1(t (a^T (x) I)), whose Choi matrix (in the convention fixed
here) is t itself.  Whether the Choi matrix of t or of its site-1 partial
transpose is positive semidefinite decides between the two local time
orientations: completely positive maps keep the orientation, co-completely
positive maps (CP after a transpose) flip it.  The flipped operator's map is
the map of the transpose: phi_{t^Γ}(a) = phi_t(a^T), Γ the site-1 partial
transpose.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import tolerances as tol
from .linalg import (
    HermitianOperator,
    ValidationError,
    hermitian_eig,
    min_eigenvalue,
    partial_transpose,
)


@dataclass(frozen=True)
class OperatorMap:
    """The linear map phi_t: L(H1) -> L(H2) induced by a bipartite t.

    Convention: phi_t(E_ij)[k, l] = t[(i,k), (j,l)], i.e.
    phi_t(a) = tr_1(t (a^T (x) I)).
    """

    t: HermitianOperator

    def __post_init__(self):
        if self.t.nsites != 2:
            raise ValidationError("operator maps need a two-site operator")

    def __call__(self, a: np.ndarray) -> np.ndarray:
        d1, d2 = self.t.dims
        arr = self.t.mat.reshape(d1, d2, d1, d2)
        return np.einsum("ikjl,ij->kl", arr, np.asarray(a, dtype=complex))


def choi_of(t: HermitianOperator) -> HermitianOperator:
    """Choi matrix of the induced map, sum_ij E_ij (x) phi(E_ij).

    In the convention fixed by :class:`OperatorMap`, phi(E_ij)[k, l] =
    t[(i,k), (j,l)], so the Choi matrix is t itself: this returns a new
    operator equal to t, and the positivity tests read t directly.
    """
    return HermitianOperator(t.dims, t.mat)


class Orientation(str, Enum):
    CP = "CP"
    CO_CP = "CO_CP"
    BOTH = "BOTH"
    NEITHER = "NEITHER"


@dataclass(frozen=True)
class OrientationClass:
    value: Orientation
    min_eig_choi: float
    min_eig_flipped_choi: float

    def to_json(self) -> dict:
        return {
            "class": self.value.value,
            "min_eig_choi": self.min_eig_choi,
            "min_eig_flipped_choi": self.min_eig_flipped_choi,
            "psd_tolerance": tol.PSD,
        }


def classify_orientation(t: HermitianOperator) -> OrientationClass:
    """CP / co-CP / both / neither, by Choi positivity under the site-1 flip."""
    if t.nsites != 2:
        raise ValidationError(f"orientation classes need a two-site operator, not dims {t.dims}")
    ev_direct = min_eigenvalue(t.mat)
    ev_flipped = min_eigenvalue(partial_transpose(t, 0).mat)
    cp = ev_direct >= -tol.PSD
    co_cp = ev_flipped >= -tol.PSD
    if cp and co_cp:
        value = Orientation.BOTH
    elif cp:
        value = Orientation.CP
    elif co_cp:
        value = Orientation.CO_CP
    else:
        value = Orientation.NEITHER
    return OrientationClass(value, float(ev_direct), float(ev_flipped))


class UnsupportedOrientation(ValueError):
    """No orientation choice makes the map completely positive."""


@dataclass(frozen=True)
class KrausSet:
    """Kraus form phi(a) = sum_m K_m a K_m^dagger, with the flip recorded."""

    operators: tuple  # d2 x d1 matrices
    flipped: bool

    def apply(self, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=complex)
        if self.flipped:
            a = a.T
        out = np.zeros(
            (self.operators[0].shape[0], self.operators[0].shape[0]), dtype=complex
        )
        for k in self.operators:
            out += k @ a @ k.conj().T
        return out


def kraus_factorize(t: HermitianOperator) -> KrausSet:
    """Eigendecompose the (possibly flipped) Choi matrix into Kraus operators.

    If Choi(t) is not PSD but the site-1 flip's Choi is, the flip is applied
    and recorded; the returned set then represents phi_t composed with the
    transpose.  Raises :class:`UnsupportedOrientation` for the NEITHER class.
    """
    cls = classify_orientation(t)
    if cls.value == Orientation.NEITHER:
        raise UnsupportedOrientation(
            "no dilation under either local time orientation"
        )
    flipped = cls.value == Orientation.CO_CP
    source = partial_transpose(t, 0) if flipped else t
    spec = hermitian_eig(source)
    d1, d2 = t.dims
    ops = []
    for lam, col in zip(spec.eigenvalues, spec.eigenvectors.T):
        if lam <= tol.KRAUS_RANK:
            continue
        v = col.reshape(d1, d2)
        ops.append(np.sqrt(lam) * v.T)
    return KrausSet(tuple(ops), flipped)
