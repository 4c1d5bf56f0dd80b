"""CP / co-CP orientation classification of a bipartite operator.

A bipartite Hermitian operator t induces a linear map on operators,
phi_t(a) = tr_1(t (a^T (x) I)), whose Choi matrix is t itself.  Whether t or
its site-1 partial transpose t^Γ is positive semidefinite decides between the
two local time orientations: completely positive maps keep the orientation,
co-completely positive maps (CP after a transpose) flip it, and
phi_{t^Γ}(a) = phi_t(a^T).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import tolerances as tol
from .linalg import HermitianOperator, ValidationError, min_eigenvalue, partial_transpose


def choi_of(t: HermitianOperator) -> HermitianOperator:
    """Choi matrix of the induced map, sum_ij E_ij (x) phi_t(E_ij).

    The convention is phi_t(a) = tr_1(t (a^T (x) I)), so phi_t(E_ij)[k, l] =
    t[(i,k), (j,l)] and the Choi matrix is t itself: this returns a new
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

