"""Operator reconstruction from frame functions.

A non-negative frame function with constant weight over all product bases of
a two-site space (local dims >= 3) is induced by a unique self-adjoint
operator t via f(v) = <v|t|v>.  This module inverts that correspondence
numerically: it draws random product states, solves for t by least squares
on rows that must span operator space, and classifies the
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
    complex_to_json,
    make_rng,
    min_eigenvalue,
    random_units,
    tensor_rows,
)
from .orientation import Orientation, OrientationClass, classify_orientation


_S = 1.0 / np.sqrt(2.0)


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
    for i in range(d):
        for j in range(i + 1, d):
            out[k, i, j] = _S
            out[k, j, i] = _S
            k += 1
            out[k, i, j] = 1j * _S
            out[k, j, i] = -1j * _S
            k += 1
    out.flags.writeable = False  # shared by every caller through the cache
    return out


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


def projector_features(stacks) -> np.ndarray:
    """Feature rows of the product projectors |psi_n><psi_n|, psi_n the tensor
    product of row n of each per-site (N, d) stack.

    Row n equals feature_of(proj(psi_n)) up to rounding, without building
    the (N, D, D) stack of projectors: E_ij = psi_i conj(psi_j) and E_ji is
    its conjugate.
    """
    psi = tensor_rows(stacks)
    iu, ju = np.triu_indices(psi.shape[-1], 1)
    upper = psi[..., iu] * psi[..., ju].conj()
    return _coordinates(psi * psi.conj(), 2.0 * upper.real, 2.0 * upper.imag)


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
    """Random product states for a reconstruction; :func:`fit` decides whether
    the rows it solves span operator space."""

    dims: tuple
    states: tuple


def spanning_design(dims, oversample: float = 1.5, seed: int = 0) -> SpanningDesign:
    """ceil(oversample * D^2) random product states, in one stacked draw (the
    same states as random_unit draws).  ``oversample`` must be finite and > 0."""
    if not 0.0 < oversample < np.inf:  # written so that NaN fails
        raise ValidationError(f"oversample {oversample!r} is not a finite number > 0")
    dims = tuple(int(d) for d in dims)
    count = int(np.ceil(oversample * int(np.prod(dims)) ** 2))
    return SpanningDesign(dims, ProductState.batch(random_units(make_rng(seed), dims, count)))


@dataclass(frozen=True)
class Witness:
    """Extremal product state found by the see-saw, with its value."""

    factors: tuple
    value: float


@dataclass(frozen=True)
class Reconstruction:
    """A recovered operator, its residual on ``held_out`` rows (0: in sample)
    and its classification, with the evidence classify_product_positivity
    gave: the orientation ``certificate`` or the see-saw ``witness``."""

    t: HermitianOperator
    residual: float
    held_out: int
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
                "factors": [complex_to_json(f) for f in self.witness.factors],
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


def classify_product_positivity(t: HermitianOperator, seed: int = 0) -> tuple:
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
    wit = product_seesaw_min(t, seed=seed)
    if wit.value >= -tol.PRODUCT_POSITIVE:
        return Classification.PRODUCT_POSITIVE_ONLY, wit
    return Classification.INDEFINITE_ON_PRODUCTS, wit


def fit(rows, values, dims, n_fit=None, seed: int = 0) -> Reconstruction:
    """Least-squares t with tr(t E_k) = values[k], ``rows[k]`` the feature row of
    E_k, classified by classify_product_positivity.

    The leading ``n_fit`` rows (default all) feed the solve; unless D^2 of their
    singular values exceed ``tolerances.FEATURE_RANK``, ValidationError is raised.
    The residual is the max absolute deviation on the ``held_out`` rest, in sample if none.
    """
    n_fit = len(rows) if n_fit is None else n_fit
    x, _, _, sv = np.linalg.lstsq(rows[:n_fit], values[:n_fit], rcond=None)
    rank, n_feat = int(np.count_nonzero(sv > tol.FEATURE_RANK)), int(np.prod(dims)) ** 2
    if rank < n_feat:
        raise ValidationError(f"{n_fit} fit rows have feature rank {rank} < {n_feat}")
    t = HermitianOperator(dims, vec_to_herm(x))
    held_out = max(len(rows) - n_fit, 0)
    test = slice(n_fit if held_out else 0, None)
    residual = float(np.max(np.abs(rows[test] @ x - values[test])))
    cls, evidence = classify_product_positivity(t, seed=seed)
    kind = "witness" if isinstance(evidence, Witness) else "certificate"
    return Reconstruction(t, residual, held_out, cls, **{kind: evidence})


def reconstruct_pvm(f, design: SpanningDesign, holdout: float = 0.2,
                    seed: int = 0) -> Reconstruction:
    """Recover the operator behind a frame function: :func:`fit` on the design.

    The leading (1 - holdout) fraction of the states feeds the solve, the
    rest measures the residual (``held_out`` of them; in sample if none);
    fitted states that do not span operator space raise ValidationError.  Local dims
    must be at least 3; use :func:`reconstruct_povm` for qubit sites.
    """
    if not 0.0 <= holdout <= 1.0:
        raise ValidationError(f"holdout {holdout!r} is not in [0, 1]")
    if min(design.dims) < 3:
        raise ValidationError(
            "projective reconstruction requires local dims >= 3; use the effect path"
        )
    vals = np.array([f(s) for s in design.states])
    n_fit = len(vals) - int(round(holdout * len(vals)))
    return fit(projector_features(site_stacks(design.states)), vals, design.dims, n_fit, seed=seed)


def _effect_rows(effects) -> np.ndarray:
    """Feature rows of the product effects of (e1, e2) pairs, one batched Kronecker product."""
    e1, e2 = (np.asarray(site, dtype=complex) for site in zip(*effects))
    d = e1.shape[-1] * e2.shape[-1]
    return feature_of((e1[:, :, None, :, None] * e2[:, None, :, None, :]).reshape(-1, d, d))


def reconstruct_povm(samples, dims, seed: int = 0) -> Reconstruction:
    """Recover an operator from values on product effects f(e) = tr(t e) by
    :func:`fit` on all samples: the residual is in sample, and samples that do
    not span operator space raise ValidationError.  ``samples`` is a sequence
    of ((e1, e2), value), each local effect 0 <= e_i <= 1, any local dims >= 2.
    """
    effects, vals = zip(*samples)
    for site in zip(*effects):
        ev = np.linalg.eigvalsh(np.asarray(site, dtype=complex))
        if ev[:, 0].min() < -tol.EFFECT_SPECTRUM or ev[:, -1].max() > 1 + tol.EFFECT_SPECTRUM:
            raise ValidationError("effect spectrum outside [0, 1]")
    return fit(_effect_rows(effects), np.array(vals), dims, seed=seed)


def random_product_effects(rng: np.random.Generator, dims, count: int) -> list:
    """Random product effects e1 (x) e2 with spectra in [0, 1], drawn as per-site stacks."""
    sq = [d * d for d in dims]
    z = np.split(rng.standard_normal((count, 2 * sum(sq))), 2 * np.cumsum(sq)[:-1], axis=1)
    sites = []
    for d, x in zip(dims, z):
        h = (x[:, :d * d] + 1j * x[:, d * d:]).reshape(-1, d, d)
        h = 0.5 * (h + h.conj().swapaxes(1, 2))
        ev = np.linalg.eigvalsh(h)
        # Affinely squash each spectrum into [0, 1].
        spread = np.maximum(ev[:, -1] - ev[:, 0], tol.EFFECT_SPREAD_FLOOR)
        sites.append((h - ev[:, :1, None] * np.eye(d)) / spread[:, None, None])
    return list(zip(*sites))


def sample_effects_from_operator(t: HermitianOperator, effects) -> list:
    """((e1, e2), tr(t (e1 (x) e2))) for each product effect, in one matmul."""
    effects = list(effects)
    values = _effect_rows(effects) @ feature_of(t.mat)
    return [((e1, e2), float(v)) for (e1, e2), v in zip(effects, values)]
