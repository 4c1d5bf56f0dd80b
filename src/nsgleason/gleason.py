"""Operator reconstruction from frame functions.

A non-negative frame function with constant weight over all product bases of
a two-site space (local dims >= 3) is induced by a unique self-adjoint
operator t via f(v) = <v|t|v>.  This module inverts that correspondence
numerically: it takes a fixed set of orthonormal bases per site (every tensor
product of complete sets of mutually unbiased bases, one set per prime-power
factor of the site's dimension), solves for t on every product of one basis
vector per site (one small pseudo-inverse per site), and classifies the
recovered operator (density matrix / product-positive only / indefinite on
products).  An effect-based path covers qubit sites, where rank-1 projective
sampling is not informationally complete enough under the theorem's
hypothesis: a grid of local effects per site, solved the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache, reduce

import numpy as np

from . import tolerances as tol
from .linalg import (
    PAULI,
    HermitianOperator,
    ProductState,
    ValidationError,
    is_integer,
    make_rng,
    min_eigenvalue,
    operator_dims,
    product_rows,
    product_values,
    random_units,
    tensor_rows,
)
from .orientation import Orientation, OrientationClass, classify_orientation


_S = 1.0 / np.sqrt(2.0)
# The 15 two-qubit Paulis other than II fall into five commuting triples {A, B, AB}, each
# named here by A and B; their joint eigenbases are mutually unbiased.
_TWO_QUBIT_PARTITION = (("ZI", "IZ"), ("XI", "IX"), ("YI", "IY"), ("XY", "YZ"), ("XZ", "YX"))


@lru_cache(maxsize=8)
def hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal (Hilbert-Schmidt) basis of d x d Hermitian matrices, shape (d*d, d, d):
    E_ii, then for i < j the symmetric and antisymmetric combinations (vec_to_herm of e_k)."""
    out = np.array([vec_to_herm(e) for e in np.eye(d * d)])
    out.flags.writeable = False  # shared by every caller through the cache
    return out


@lru_cache(maxsize=32)
def _upper_pairs(d: int) -> tuple:
    """np.triu_indices(d, 1), read-only: shared by every caller through the cache."""
    pairs = np.triu_indices(d, 1)
    pairs[0].flags.writeable = pairs[1].flags.writeable = False
    return pairs


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
    iu, ju = _upper_pairs(op.shape[-1])
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
    iu, ju = _upper_pairs(psi.shape[-1])
    upper = psi[..., iu] * psi[..., ju].conj()
    return _coordinates(psi * psi.conj(), 2.0 * upper.real, 2.0 * upper.imag)


def vec_to_herm(x: np.ndarray) -> np.ndarray:
    """Hermitian matrix with coordinates x in hermitian_basis (inverse of feature_of)."""
    d = int(round(np.sqrt(len(x))))
    iu, ju = _upper_pairs(d)
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
    """Orthonormal bases per site, their vectors the rows of ``local[s]`` (read-only
    copies, a (k_s d_s, d_s) stack with k_s >= 1, basis k in rows k d_s ... k d_s + d_s - 1),
    and ``states``: every product of one local state per site, site 0 major.  The bases of
    :func:`spanning_design` span the d_s^2 operators of a site with rows to spare, as each
    basis sums to the identity; the spare rows test no-signalling."""

    dims: tuple
    local: tuple
    states: tuple = field(init=False, repr=False)

    def __post_init__(self):
        dims = _design_dims(self.dims)
        local = tuple(np.array(f, dtype=complex) for f in self.local)
        if len(local) != len(dims):
            raise ValidationError(f"{len(local)} stacks of local states for {len(dims)} sites")
        for site, (d, f) in enumerate(zip(dims, local)):
            if f.ndim != 2 or f.shape[1] != d or not len(f) or len(f) % d:
                raise ValidationError(f"site {site}: local states of shape {f.shape}, not "
                                      f"(k * {d}, {d}) with k >= 1")
            f.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "local", local)
        object.__setattr__(self, "states", ProductState.batch(product_rows(local)))

    @cached_property
    def site_solves(self) -> tuple:
        """(pinvs, ranks, condition_numbers) of the rows feature_of(|v><v|) of each site's
        local states, as :func:`_site_solves` gives them, computed on first use."""
        return _site_solves([_projector_rows(v) for v in self.local], "local states")


def _design_dims(dims) -> tuple:
    """:func:`operator_dims` of at least one site."""
    dims = operator_dims(tuple(dims))
    if not dims:
        raise ValidationError("a design needs at least one site")
    return dims


def _projector_rows(local: np.ndarray) -> np.ndarray:
    """feature_of(|v><v|) for each row v of a site's (k, d) stack of local states."""
    return feature_of(local[:, :, None] * local[:, None, :].conj())


@lru_cache(maxsize=16)
def complete_mubs(d: int) -> np.ndarray | None:
    """A complete set of d + 1 mutually unbiased bases of C^d as a read-only (d (d + 1), d)
    stack, basis k in rows k d ... k d + d - 1, or None where none is built here.

    d = 2: the eigenbases of Z, X and Y.  Odd prime d: the computational basis, then for
    k = 0 ... d - 1 the vectors (1/sqrt d) sum_j w^(k j^2 + m j)|j>, m = 0 ... d - 1,
    w = exp(2 pi i / d) (Wootters & Fields, Ann. Phys. 191, 1989).  d = 4: the joint
    eigenbases of the five commuting triples of two-qubit Paulis (Bandyopadhyay, Boykin,
    Roychowdhury & Vatan, Algorithmica 34, 2002), the computational basis first.
    """
    if d == 2:
        out = np.array([[1, 0], [0, 1], [_S, _S], [_S, -_S], [_S, 1j * _S], [_S, -1j * _S]],
                       dtype=complex)
    elif d == 4:
        rows = []
        for names in _TWO_QUBIT_PARTITION:
            a, b = (np.kron(*(PAULI["IXYZ".index(c)] for c in name)) for name in names)
            for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                # The rank-1 joint eigenprojector; any nonzero column is its vector.
                p = (np.eye(4) + sa * a) @ (np.eye(4) + sb * b) / 4
                c = int(np.argmax(np.diagonal(p).real))
                rows.append(p[:, c] / np.sqrt(p[c, c].real))
        out = np.array(rows, dtype=complex)
    elif d > 2 and all(d % p for p in range(2, math.isqrt(d) + 1)):
        j = np.arange(d)
        powers = (j[:, None, None] * j ** 2 + j[None, :, None] * j) % d  # [k, m, j]
        out = np.concatenate([np.eye(d), np.exp(2j * np.pi / d * powers).reshape(-1, d)
                              / np.sqrt(d)])
    else:
        return None
    out.setflags(write=False)  # shared by every caller through the cache
    return out


def spanning_design(dims, seed: int = 0) -> SpanningDesign:
    """The fixed design at dims, built once per dims and shared, with its site solves.

    Write d_s = 4^a 2^b p_1 p_2 ... with b <= 1 and odd primes p_1 <= p_2 <= ...: site s
    holds every tensor product of one basis from each factor's :func:`complete_mubs` set,
    the first factor's index major (that set itself at one factor, the basis [1] at d_s = 1).
    Each set is a 2-design, so a site has full feature rank and kappa = prod sqrt(q + 1) over
    its factors q.  The seed changes nothing, but a bad one still raises."""
    make_rng(seed)
    return _design(_design_dims(dims))


@lru_cache(maxsize=8)
def _design(dims: tuple) -> SpanningDesign:
    return SpanningDesign(dims, tuple(_site_bases(d) for d in dims))


def _site_bases(d: int) -> np.ndarray:
    """The (k d, d) stack of one site of :func:`spanning_design`."""
    factors, rest = [], d
    for q in (4, 2, *range(3, d + 1, 2)):  # an odd q divides rest only if it is prime
        while rest % q == 0:
            factors.append(q)
            rest //= q
    stacks = [complete_mubs(q).reshape(q + 1, q, q) for q in factors] or [np.ones((1, 1, 1))]
    # Bases (k, l) of two stacks: vector (i, j) is a_ki (x) b_lj, k and i major.
    return reduce(lambda a, b: np.einsum("kic,lje->klijce", a, b).reshape(
        len(a) * len(b), a.shape[1] * b.shape[1], -1), stacks).reshape(-1, d)


@dataclass(frozen=True)
class Witness:
    """Extremal product state found by the see-saw, with its value and the number of
    sweeps the see-saw ran."""

    factors: tuple
    value: float
    sweeps: int


@dataclass(frozen=True)
class Reconstruction:
    """A recovered operator, its in-sample residual, the feature ``ranks`` and ``condition_numbers``
    (σ_max / σ_min) of the rows it solved (one per site) and its classification, with the evidence
    classify_product_positivity gave: the orientation ``certificate`` or see-saw ``witness``."""

    t: HermitianOperator
    residual: float
    ranks: tuple
    condition_numbers: tuple
    classification: Classification
    witness: Witness | None = None
    certificate: OrientationClass | None = None


def product_seesaw_min(
    t: HermitianOperator, restarts: int = 64, seed: int = 0, iters: int = 300,
    stop_below: float | None = None,
) -> Witness:
    """Minimize <v (x) w|t|v (x) w> by alternating local eigenvector descent.

    All restarts run as one stack; a restart stops once its value changes
    by less than ``tolerances.SEESAW_CONVERGED`` between sweeps, and no more
    than ``iters`` sweeps run.  With ``stop_below``, the sweeps end after the
    first one in which some restart's product value, the value returned, is
    below it.  Returns the worst (lowest-value) product state at the last
    sweep run, the first one on ties.  Two sites, integers ``restarts`` and
    ``iters`` at least 1.
    """
    if t.nsites != 2:
        raise ValidationError("see-saw requires exactly two sites")
    if not all(is_integer(n) and n >= 1 for n in (restarts, iters)):
        raise ValidationError(f"see-saw requires integers restarts >= 1 and iters >= 1, not "
                              f"{restarts!r} and {iters!r}")
    d1, d2 = t.dims
    # tt[(i, j), (k, l)] = t[(i, k), (j, l)]: contracting site 2 with w* (x) w
    # leaves the site-1 operator, contracting site 1 with v* (x) v the site-2 one.
    tt = t.mat.reshape(d1, d2, d1, d2).transpose(0, 2, 1, 3).reshape(d1 * d1, d2 * d2)
    rng = make_rng(seed)
    # Each restart draws w, then a v that the first sweep replaces.
    w, v = random_units(rng, (d2, d1), restarts)
    prev = np.full(restarts, np.inf)
    live = np.arange(restarts)
    sweeps = 0
    while live.size and sweeps < iters:
        sweeps += 1
        _, v[live] = _lowest_eigenpairs(tensor_rows([w[live].conj(), w[live]]) @ tt.T, d1)
        vals, w[live] = _lowest_eigenpairs(tensor_rows([v[live].conj(), v[live]]) @ tt, d2)
        done = np.abs(prev[live] - vals) < tol.SEESAW_CONVERGED
        prev[live] = vals
        live = live[~done]
        if stop_below is not None:
            values = product_values(t.mat, [v, w])
            if values.min() < stop_below:
                break
    else:
        values = product_values(t.mat, [v, w])
    best = int(np.argmin(values))
    return Witness((v[best], w[best]), float(values[best]), sweeps)


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
    which searches for a negative product expectation and stops at the first
    sweep that finds one below ``-tolerances.PRODUCT_POSITIVE``; the evidence
    is its :class:`Witness`: that proof, or else the worst product state
    found, without a claim of global optimality.  On other than two sites
    only the density check runs (the see-saw rejects such t).
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
    wit = product_seesaw_min(t, seed=seed, stop_below=-tol.PRODUCT_POSITIVE)
    if wit.value >= -tol.PRODUCT_POSITIVE:
        return Classification.PRODUCT_POSITIVE_ONLY, wit
    return Classification.INDEFINITE_ON_PRODUCTS, wit


def _along_axes(x: np.ndarray, mats) -> np.ndarray:
    """n-mode products: axis s of x contracted with the leading axis of mats[s], whose other
    axes take its place (each step contracts the leading axis and appends the new ones)."""
    return reduce(lambda y, m: np.tensordot(y, m, axes=(0, 0)), mats, x)


def _feature_svd(a: np.ndarray) -> tuple:
    """The thin SVD (u, sv, vh) of feature rows a, cut to their rank: the singular values
    above ``tolerances.FEATURE_RANK``."""
    u, sv, vh = np.linalg.svd(a, full_matrices=False)
    rank = int(np.count_nonzero(sv > tol.FEATURE_RANK))
    return u[:, :rank], sv[:rank], vh[:rank]


def _site_solves(site_rows, what: str) -> tuple:
    """(pinvs, ranks, condition_numbers) of the (k_s, d_s^2) feature rows A_s of each site,
    from one :func:`_feature_svd` a site: the transposed pseudo-inverse (read-only), the rank
    and σ_max / σ_min.  A site of rank below d_s^2 raises ValidationError naming it, its rows
    counted as ``what``."""
    pinvs, ranks, conds = [], [], []
    for site, a in enumerate(site_rows):
        u, sv, vh = _feature_svd(a)
        ranks.append(len(sv))
        if ranks[-1] < a.shape[1]:
            raise ValidationError(
                f"site {site}: {len(a)} {what} have feature rank {ranks[-1]} < {a.shape[1]}")
        conds.append(float(sv[0] / sv[-1]))
        pinvs.append(u / sv @ vh)  # the transposed pseudo-inverse of a, from its SVD
        pinvs[-1].setflags(write=False)
    return tuple(pinvs), tuple(ranks), tuple(conds)


def _grid_solve(values: np.ndarray, site_rows, solves: tuple, seed: int) -> Reconstruction:
    """Least squares on the Kronecker product of the site rows A_s, given their
    :func:`_site_solves`: one pseudo-inverse per site."""
    dims = tuple(math.isqrt(a.shape[1]) for a in site_rows)
    pinvs, ranks, conds = solves
    x = _along_axes(values, pinvs)  # coordinates in the products of hermitian_basis elements
    residual = float(np.max(np.abs(_along_axes(x, [a.T for a in site_rows]) - values)))
    t = _along_axes(x, [hermitian_basis(d) for d in dims])  # axes (i0, j0, i1, j1, ...)
    t = t.transpose([*range(0, t.ndim, 2), *range(1, t.ndim, 2)]).reshape(np.prod(t.shape[::2]), -1)
    t = HermitianOperator(dims, t)
    cls, evidence = classify_product_positivity(t, seed=seed)
    kind = "witness" if isinstance(evidence, Witness) else "certificate"
    return Reconstruction(t, residual, ranks, conds, cls, **{kind: evidence})


def reconstruct_pvm(f, design: SpanningDesign, seed: int = 0) -> Reconstruction:
    """Recover the operator behind a frame function from its values on the design.

    The design is the grid of the rank-1 effects |v><v| of the local states v, solved as in
    :func:`reconstruct_povm`; a site whose states do not span its d_s^2 operators raises
    ValidationError.  The residual is in sample: 0 exactly when, for each site and each
    choice of states at the other sites, the values summed over each of the site's bases
    agree.  Local dims must be at least 3; use :func:`reconstruct_povm` for qubits.
    """
    if min(design.dims) < 3:
        raise ValidationError(
            "projective reconstruction requires local dims >= 3; use the effect path")
    vals = np.array([f(s) for s in design.states]).reshape([len(a) for a in design.local])
    return _grid_solve(vals, [_projector_rows(v) for v in design.local], design.site_solves, seed)


def reconstruct_povm(values, effects, seed: int = 0) -> Reconstruction:
    """Recover an operator from its values f(e) = tr(t e) on a grid of product effects.

    ``effects[s]`` is a (k_s, d_s, d_s) stack of local effects 0 <= e <= 1 (any dims, any
    number of sites) and ``values[k_0, k_1, ...]`` the value on the product of effect k_s at
    each site s.  Solved with one pseudo-inverse per site, of the rows A_s = feature_of(
    effects[s]); the residual is in sample.
    """
    effects = [np.asarray(e, dtype=complex) for e in effects]
    for site, e in enumerate(effects):
        if e.ndim != 3 or not len(e) or e.shape[1] != e.shape[2]:
            raise ValidationError(f"site {site}: effects of shape {e.shape}, not (k >= 1, d, d)")
        ev = np.linalg.eigvalsh(e)  # reads one triangle only, hence the Hermiticity test
        if (np.abs(e - e.conj().swapaxes(1, 2)).max() > tol.HERMITICITY
                or ev.min() < -tol.EFFECT_SPECTRUM or ev.max() > 1 + tol.EFFECT_SPECTRUM):
            raise ValidationError(f"site {site}: not a Hermitian effect with spectrum in [0, 1]")
    values, grid = np.asarray(values, dtype=float), tuple(len(e) for e in effects)
    if values.shape != grid:
        raise ValidationError(f"values of shape {values.shape} on a grid of {grid} effects")
    site_rows = [feature_of(e) for e in effects]
    return _grid_solve(values, site_rows, _site_solves(site_rows, "local effects"), seed)


def random_product_effects(rng: np.random.Generator, dims, count: int) -> list:
    """``count`` random local effects per site, as (count, d, d) stacks with spectra in [0, 1]."""
    sites = []
    for d in dims:
        h = rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))
        h = 0.5 * (h + h.conj().swapaxes(1, 2))
        ev = np.linalg.eigvalsh(h)
        # Affinely squash each spectrum into [0, 1].
        spread = np.maximum(ev[:, -1] - ev[:, 0], tol.EFFECT_SPREAD_FLOOR)
        sites.append((h - ev[:, :1, None] * np.eye(d)) / spread[:, None, None])
    return sites


def sample_effects_from_operator(t: HermitianOperator, effects) -> np.ndarray:
    """The grid's value array: entry (k_0, k_1, ...) is tr(t (e_0 (x) e_1 (x) ...)), e_s =
    effects[s][k_s], with t contracted one site at a time."""
    # Axes (i0, j0, i1, j1, ...) flattened per site, against e_s[k, j, i] as an (i j, k) matrix.
    pairs = t.mat.reshape(t.dims * 2).transpose(np.arange(2 * t.nsites).reshape(2, -1).T.ravel())
    mats = [np.asarray(e).swapaxes(1, 2).reshape(len(e), -1).T for e in effects]
    return _along_axes(pairs.reshape([d * d for d in t.dims]), mats).real
