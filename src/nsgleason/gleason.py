"""Operator reconstruction from frame functions.

A non-negative frame function with constant weight over all product bases of
a two-site space (local dims >= 3) is induced by a unique self-adjoint
operator t via f(v) = <v|t|v>.  This module inverts that correspondence
numerically: it draws informationally complete designs of product states,
solves the linear inverse problem by least squares, and classifies the
recovered operator (density matrix / product-positive only / indefinite on
products).  An effect-based path covers qubit sites, where rank-1 projective
sampling is not informationally complete enough under the theorem's
hypothesis.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .bases import ProductState
from .linalg import (
    HermitianOperator,
    ValidationError,
    hermitian_eig,
    make_rng,
    proj,
    random_unit,
)


@lru_cache(maxsize=8)
def hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal (Hilbert-Schmidt) basis of d x d Hermitian matrices.

    Ordering: diagonal E_ii, then for i < j the symmetric and antisymmetric
    combinations.  Shape (d*d, d, d).
    """
    out = np.zeros((d * d, d, d), dtype=complex)
    k = 0
    for i in range(d):
        out[k, i, i] = 1.0
        k += 1
    s = 1.0 / np.sqrt(2.0)
    for i in range(d):
        for j in range(i + 1, d):
            out[k, i, j] = s
            out[k, j, i] = s
            k += 1
            out[k, i, j] = 1j * s
            out[k, j, i] = -1j * s
            k += 1
    out.flags.writeable = False  # shared by every caller through the cache
    return out


def herm_to_vec(mat: np.ndarray) -> np.ndarray:
    """Real coordinate vector of a Hermitian matrix in hermitian_basis."""
    basis = hermitian_basis(mat.shape[0])
    return np.einsum("kij,ji->k", basis, mat).real


def vec_to_herm(x: np.ndarray) -> np.ndarray:
    basis = hermitian_basis(int(round(np.sqrt(len(x)))))
    return np.einsum("k,kij->ij", x, basis)


def feature_of(op: np.ndarray) -> np.ndarray:
    """Feature row of an operator E: tr(t E) = feature_of(E) . vec(t)."""
    # tr(B_k E) with B_k Hermitian; real when E is Hermitian.
    basis = hermitian_basis(op.shape[0])
    return np.einsum("kij,ji->k", basis, op).real


def feature_of_state(s: ProductState) -> np.ndarray:
    return feature_of(proj(s.full()))


class Classification(str, Enum):
    DENSITY_MATRIX = "DENSITY_MATRIX"
    PRODUCT_POSITIVE_ONLY = "PRODUCT_POSITIVE_ONLY"
    INDEFINITE_ON_PRODUCTS = "INDEFINITE_ON_PRODUCTS"


@dataclass(frozen=True)
class SpanningDesign:
    """Product states whose projector features span operator space."""

    dims: tuple
    states: tuple
    feature_rank: int

    @property
    def full_rank(self) -> bool:
        return self.feature_rank == int(np.prod(self.dims)) ** 2


def spanning_design(dims, oversample: float = 1.5, seed: int = 0) -> SpanningDesign:
    """Draw random product states until their features have full rank.

    The target count is ceil(oversample * D^2); if full rank is not reached
    within 10x that budget the seed is declared non-generic and an error is
    raised.
    """
    dims = tuple(int(d) for d in dims)
    d_total = int(np.prod(dims))
    n_feat = d_total * d_total
    target = int(np.ceil(oversample * n_feat))
    rng = make_rng(seed)
    states, rows = [], []
    for _ in range(10 * target):
        s = ProductState(tuple(random_unit(rng, d) for d in dims))
        states.append(s)
        rows.append(feature_of_state(s))
        if len(states) >= target:
            rank = np.linalg.matrix_rank(np.array(rows), tol=1e-10)
            if rank == n_feat:
                return SpanningDesign(dims, tuple(states), int(rank))
            target += n_feat  # keep drawing
    rank = np.linalg.matrix_rank(np.array(rows), tol=1e-10)
    if rank == n_feat:
        return SpanningDesign(dims, tuple(states), int(rank))
    raise ValidationError(
        f"feature rank {rank} < {n_feat} within 10x budget (non-generic seed)"
    )


@dataclass(frozen=True)
class Witness:
    """Extremal product state found by the see-saw, with its value."""

    factors: tuple
    value: float


@dataclass(frozen=True)
class Reconstruction:
    t: HermitianOperator
    residual: float
    classification: Classification
    witness: Witness | None = None

    def to_json(self) -> dict:
        out = {
            "t": self.t.to_json(),
            "residual": self.residual,
            "classification": self.classification.value,
        }
        if self.witness is not None:
            out["witness"] = {
                "factors": [[[z.real, z.imag] for z in f] for f in self.witness.factors],
                "value": self.witness.value,
            }
        return out


def product_seesaw_min(
    t: HermitianOperator, restarts: int = 64, seed: int = 0, iters: int = 300
) -> Witness:
    """Minimize <v (x) w|t|v (x) w> by alternating local eigenvector descent.

    Returns the worst (lowest-value) product state found over all restarts.
    Two sites only.
    """
    if t.nsites != 2:
        raise ValidationError("see-saw requires exactly two sites")
    d1, d2 = t.dims
    arr = t.mat.reshape(d1, d2, d1, d2)
    rng = make_rng(seed)
    best_val, best = np.inf, None
    for _ in range(restarts):
        w = random_unit(rng, d2)
        v = random_unit(rng, d1)
        prev = np.inf
        for _ in range(iters):
            # Contract site 2: A_w[i,j] = sum_kl arr[i,k,j,l] conj(w_k) w_l
            a_w = np.einsum("ikjl,k,l->ij", arr, w.conj(), w)
            vals, vecs = np.linalg.eigh(0.5 * (a_w + a_w.conj().T))
            v = vecs[:, 0]
            b_v = np.einsum("ikjl,i,j->kl", arr, v.conj(), v)
            vals, vecs = np.linalg.eigh(0.5 * (b_v + b_v.conj().T))
            w = vecs[:, 0]
            cur = float(vals[0])
            if abs(prev - cur) < 1e-14:
                break
            prev = cur
        val = float(np.einsum("ikjl,i,k,j,l->", arr, v.conj(), w.conj(), v, w).real)
        if val < best_val:
            best_val, best = val, (v, w)
    return Witness(tuple(best), best_val)


def classify_product_positivity(
    t: HermitianOperator, restarts: int = 64, seed: int = 0
) -> tuple:
    """Classify t by its behaviour on product states.

    Returns (classification, witness).  DENSITY_MATRIX requires global PSD
    and unit trace; otherwise the see-saw searches for a negative product
    expectation.  The witness records the worst product state found, without
    a claim of global optimality.
    """
    spec = hermitian_eig(t)
    if spec.eigenvalues[-1] >= -1e-10 and abs(t.trace() - 1.0) <= 1e-8:
        return Classification.DENSITY_MATRIX, None
    wit = product_seesaw_min(t, restarts=restarts, seed=seed)
    if wit.value >= -1e-8:
        return Classification.PRODUCT_POSITIVE_ONLY, wit
    return Classification.INDEFINITE_ON_PRODUCTS, wit


def _solve_lstsq(rows: np.ndarray, vals: np.ndarray) -> np.ndarray:
    x, *_ = np.linalg.lstsq(rows, vals, rcond=None)
    return x


def reconstruct_pvm(
    f, design: SpanningDesign, holdout: float = 0.2, restarts: int = 64, seed: int = 0
) -> Reconstruction:
    """Recover the operator behind a frame function by least squares.

    The design is split deterministically: the leading (1 - holdout)
    fraction feeds the solve, the rest measures the residual (max absolute
    deviation — single-point failures stay visible).  Local dims must be at
    least 3; use :func:`reconstruct_povm` for qubit sites.
    """
    if min(design.dims) < 3:
        raise ValidationError(
            "projective reconstruction requires local dims >= 3; use the effect path"
        )
    if not design.full_rank:
        raise ValidationError("design features are rank-deficient")
    states = design.states
    n_hold = int(round(holdout * len(states)))
    fit, hold = states[: len(states) - n_hold], states[len(states) - n_hold:]
    rows = np.array([feature_of_state(s) for s in fit])
    vals = np.array([f(s) for s in fit])
    x = _solve_lstsq(rows, vals)
    t = HermitianOperator(design.dims, vec_to_herm(x))
    if hold:
        residual = max(abs(f(s) - t.expectation(s.full())) for s in hold)
    else:
        residual = 0.0
    cls, wit = classify_product_positivity(t, restarts=restarts, seed=seed)
    return Reconstruction(t, float(residual), cls, wit)


def reconstruct_povm(samples, dims, restarts: int = 64, seed: int = 0) -> Reconstruction:
    """Recover an operator from values on product effects f(e) = tr(t e).

    ``samples`` is a sequence of ((e1, e2), value) with each local effect
    satisfying 0 <= e_i <= 1.  Works for any local dims >= 2.
    """
    dims = tuple(int(d) for d in dims)
    rows, vals = [], []
    for (e1, e2), val in samples:
        for e in (e1, e2):
            ev = np.linalg.eigvalsh(np.asarray(e, dtype=complex))
            if ev[0] < -1e-10 or ev[-1] > 1 + 1e-10:
                raise ValidationError("effect spectrum outside [0, 1]")
        rows.append(feature_of(np.kron(e1, e2)))
        vals.append(val)
    rows, vals = np.array(rows), np.array(vals)
    n_feat = int(np.prod(dims)) ** 2
    if np.linalg.matrix_rank(rows, tol=1e-10) < n_feat:
        raise ValidationError("effect samples are rank-deficient")
    x = _solve_lstsq(rows, vals)
    t = HermitianOperator(dims, vec_to_herm(x))
    residual = float(np.max(np.abs(rows @ x - vals)))
    cls, wit = classify_product_positivity(t, restarts=restarts, seed=seed)
    return Reconstruction(t, residual, cls, wit)


def random_product_effects(rng: np.random.Generator, dims, count: int) -> list:
    """Random product effects e1 (x) e2 with spectra in [0, 1]."""
    out = []
    for _ in range(count):
        effs = []
        for d in dims:
            z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            h = 0.5 * (z + z.conj().T)
            ev = np.linalg.eigvalsh(h)
            # Affinely squash the spectrum into [0, 1].
            h = (h - ev[0] * np.eye(d)) / max(ev[-1] - ev[0], 1e-12)
            effs.append(h)
        out.append(tuple(effs))
    return out


def sample_effects_from_operator(t: HermitianOperator, effects) -> list:
    return [
        ((e1, e2), float(np.trace(t.mat @ np.kron(e1, e2)).real))
        for e1, e2 in effects
    ]
