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

from . import tolerances as tol
from .bases import ProductState, site_stacks
from .linalg import (
    HermitianOperator,
    ValidationError,
    make_rng,
    min_eigenvalue,
    random_units,
    tensor_rows,
)
from .orientation import Orientation, OrientationClass, classify_orientation


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


_S = 1.0 / np.sqrt(2.0)


def _coordinates(diag, sym, anti) -> np.ndarray:
    """tr(B_k E) from diag = E_ii, sym = Re(E_ij + E_ji), anti = Im(E_ij - E_ji).

    In the hermitian_basis ordering these are E_ii, then s sym and s anti
    for each pair i < j, with s = 1/sqrt(2).
    """
    d = diag.shape[-1]
    out = np.empty(diag.shape[:-1] + (d * d,))
    out[..., :d] = diag.real
    out[..., d::2] = _S * sym
    out[..., d + 1::2] = _S * anti
    return out


def feature_of(op: np.ndarray) -> np.ndarray:
    """Feature row of an operator E: tr(t E) = feature_of(E) . vec(t).

    A stack of operators of shape (..., D, D) gives a stack of rows.
    """
    op = np.asarray(op)
    iu, ju = np.triu_indices(op.shape[-1], 1)
    upper, lower = op[..., iu, ju], op[..., ju, iu]
    diag = np.diagonal(op, axis1=-2, axis2=-1)
    return _coordinates(diag, (upper + lower).real, (upper - lower).imag)


def projector_features(psi: np.ndarray) -> np.ndarray:
    """Feature rows of the projectors |psi_n><psi_n| for psi of shape (N, D).

    Row n equals feature_of(proj(psi_n)) up to rounding, without building
    the (N, D, D) stack of projectors: E_ij = psi_i conj(psi_j) and E_ji is
    its conjugate.
    """
    psi = np.asarray(psi, dtype=complex)
    iu, ju = np.triu_indices(psi.shape[-1], 1)
    upper = psi[..., iu] * psi[..., ju].conj()
    return _coordinates(psi * psi.conj(), 2.0 * upper.real, 2.0 * upper.imag)


def state_features(states) -> np.ndarray:
    """Feature rows of a sequence of product states, one row per state."""
    return projector_features(tensor_rows(site_stacks(states)))


def vec_to_herm(x: np.ndarray) -> np.ndarray:
    """Hermitian matrix with coordinates x in hermitian_basis (inverse of feature_of)."""
    d = int(round(np.sqrt(len(x))))
    iu, ju = np.triu_indices(d, 1)
    sym, anti = _S * x[d::2], _S * x[d + 1::2]
    out = np.diag(x[:d]).astype(complex)
    out[iu, ju] = sym + 1j * anti
    out[ju, iu] = sym - 1j * anti
    return out


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

    The target count is ceil(oversample * D^2); each time the rank falls
    short, D^2 more states are drawn (a round in one stacked draw, the same
    states as random_unit draws).  Without full rank within 10x the first
    target the seed is declared non-generic and an error is raised.
    """
    dims = tuple(int(d) for d in dims)
    n_feat = int(np.prod(dims)) ** 2
    target = int(np.ceil(oversample * n_feat))
    budget = 10 * target
    rng = make_rng(seed)
    sites = [np.empty((0, d), dtype=complex) for d in dims]
    while True:
        more = random_units(rng, dims, min(target, budget) - len(sites[0]))
        sites = [np.concatenate(pair) for pair in zip(sites, more)]
        states = ProductState.batch(sites)
        rank = np.linalg.matrix_rank(state_features(states), tol=tol.FEATURE_RANK)
        if rank == n_feat:
            return SpanningDesign(dims, tuple(states), int(rank))
        if len(states) >= budget:
            raise ValidationError(
                f"feature rank {rank} < {n_feat} within 10x budget (non-generic seed)"
            )
        target += n_feat


@dataclass(frozen=True)
class Witness:
    """Extremal product state found by the see-saw, with its value."""

    factors: tuple
    value: float


@dataclass(frozen=True)
class Reconstruction:
    """A recovered operator, its hold-out residual and its classification,
    with the evidence classify_product_positivity gave: the orientation
    ``certificate`` or the see-saw ``witness``."""

    t: HermitianOperator
    residual: float
    classification: Classification
    witness: Witness | None = None
    certificate: OrientationClass | None = None

    def to_json(self) -> dict:
        out = {
            "t": self.t.to_json(),
            "residual": self.residual,
            "classification": self.classification.value,
        }
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json()
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

    All restarts run as one stack; a restart stops once its value changes
    by less than ``tolerances.SEESAW_CONVERGED`` between sweeps.  Returns
    the worst (lowest-value) product state found, the first one on ties.
    Two sites only.
    """
    if t.nsites != 2:
        raise ValidationError("see-saw requires exactly two sites")
    d1, d2 = t.dims
    # tt[(i, j), (k, l)] = t[(i, k), (j, l)]: contracting site 2 with w* (x) w
    # leaves the site-1 operator, contracting site 1 with v* (x) v the site-2 one.
    tt = t.mat.reshape(d1, d2, d1, d2).transpose(0, 2, 1, 3).reshape(d1 * d1, d2 * d2)
    rng = make_rng(seed)
    # Each restart draws w, then a v that the first sweep replaces.
    w, v = random_units(rng, (d2, d1), restarts)
    prev = np.full(restarts, np.inf)
    live = np.arange(restarts)
    for _ in range(iters):
        if not live.size:
            break
        _, v[live] = _lowest_eigenpairs(tensor_rows([w[live].conj(), w[live]]) @ tt.T, d1)
        vals, w[live] = _lowest_eigenpairs(tensor_rows([v[live].conj(), v[live]]) @ tt, d2)
        done = np.abs(prev[live] - vals) < tol.SEESAW_CONVERGED
        prev[live] = vals
        live = live[~done]
    psi = tensor_rows([v, w])
    values = np.einsum("ri,ri->r", psi.conj(), psi @ t.mat.T).real
    best = int(np.argmin(values))
    return Witness((v[best], w[best]), float(values[best]))


def _lowest_eigenpairs(flat: np.ndarray, d: int) -> tuple:
    """Lowest eigenvalue and eigenvector of each operator in an (R, d*d) stack."""
    ops = flat.reshape(-1, d, d)
    vals, vecs = np.linalg.eigh(0.5 * (ops + ops.conj().transpose(0, 2, 1)))
    return vals[:, 0], vecs[:, :, 0]


def classify_product_positivity(
    t: HermitianOperator, restarts: int = 64, seed: int = 0
) -> tuple:
    """Classify t by its behaviour on product states.

    Returns (classification, evidence).  DENSITY_MATRIX requires global PSD
    and unit trace.  A two-site t that is PSD (CP) or whose site-1 partial
    transpose is PSD (CO_CP) has every product value at least that
    operator's least eigenvalue; the evidence is the
    :class:`OrientationClass`.  Only the NEITHER class goes to the see-saw,
    which searches for a negative product expectation; the evidence is its
    :class:`Witness`, the worst product state found, without a claim of
    global optimality.  On other than two sites only the density check runs
    (the see-saw rejects such t).
    """
    unit_trace = abs(t.trace() - 1.0) <= tol.UNIT_TRACE
    if t.nsites == 2:
        cert = classify_orientation(t)
        if cert.value in (Orientation.CP, Orientation.BOTH) and unit_trace:
            return Classification.DENSITY_MATRIX, cert
        if cert.value is not Orientation.NEITHER:
            return Classification.PRODUCT_POSITIVE_ONLY, cert
    elif min_eigenvalue(t.mat) >= -tol.PSD and unit_trace:
        return Classification.DENSITY_MATRIX, None
    wit = product_seesaw_min(t, restarts=restarts, seed=seed)
    if wit.value >= -tol.PRODUCT_POSITIVE:
        return Classification.PRODUCT_POSITIVE_ONLY, wit
    return Classification.INDEFINITE_ON_PRODUCTS, wit


def _classified(t: HermitianOperator, residual: float, restarts: int, seed: int):
    """The Reconstruction of t, with its classification's evidence filed by kind."""
    cls, evidence = classify_product_positivity(t, restarts=restarts, seed=seed)
    if isinstance(evidence, Witness):
        return Reconstruction(t, residual, cls, witness=evidence)
    return Reconstruction(t, residual, cls, certificate=evidence)


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
    n_fit = len(states) - int(round(holdout * len(states)))
    rows = state_features(states)
    vals = np.array([f(s) for s in states])
    x = np.linalg.lstsq(rows[:n_fit], vals[:n_fit], rcond=None)[0]
    t = HermitianOperator(design.dims, vec_to_herm(x))
    residual = np.max(np.abs(rows[n_fit:] @ x - vals[n_fit:]), initial=0.0)
    return _classified(t, float(residual), restarts, seed)


def reconstruct_povm(samples, dims, restarts: int = 64, seed: int = 0) -> Reconstruction:
    """Recover an operator from values on product effects f(e) = tr(t e).

    ``samples`` is a sequence of ((e1, e2), value) with each local effect
    satisfying 0 <= e_i <= 1.  Works for any local dims >= 2.
    """
    dims = tuple(int(d) for d in dims)
    samples = list(samples)
    for (e1, e2), _ in samples:
        for e in (e1, e2):
            ev = np.linalg.eigvalsh(np.asarray(e, dtype=complex))
            if ev[0] < -tol.EFFECT_SPECTRUM or ev[-1] > 1 + tol.EFFECT_SPECTRUM:
                raise ValidationError("effect spectrum outside [0, 1]")
    rows = feature_of(np.array([np.kron(e1, e2) for (e1, e2), _ in samples]))
    vals = np.array([val for _, val in samples])
    n_feat = int(np.prod(dims)) ** 2
    if np.linalg.matrix_rank(rows, tol=tol.FEATURE_RANK) < n_feat:
        raise ValidationError("effect samples are rank-deficient")
    x = np.linalg.lstsq(rows, vals, rcond=None)[0]
    t = HermitianOperator(dims, vec_to_herm(x))
    residual = float(np.max(np.abs(rows @ x - vals)))
    return _classified(t, residual, restarts, seed)


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
            h = (h - ev[0] * np.eye(d)) / max(ev[-1] - ev[0], tol.EFFECT_SPREAD_FLOOR)
            effs.append(h)
        out.append(tuple(effs))
    return out


def sample_effects_from_operator(t: HermitianOperator, effects) -> list:
    return [
        ((e1, e2), float(np.trace(t.mat @ np.kron(e1, e2)).real))
        for e1, e2 in effects
    ]
