"""Dense complex linear algebra over finite tensor-product Hilbert spaces.

Everything here works on plain numpy arrays; :class:`HermitianOperator` is a
thin validated wrapper that remembers the tensor factorization of the space it
acts on, and :class:`ProductState` holds a product state's phased unit factors.
Tolerances, chosen for double precision at total dimension up to ~1024, live in
:mod:`nsgleason.tolerances`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import tolerances as tol

PAULI = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
PAULI.setflags(write=False)  # I, X, Y, Z


class ValidationError(ValueError):
    """Raised when an input fails a structural invariant beyond tolerance."""


def proj(v: np.ndarray) -> np.ndarray:
    """Rank-1 projector |v><v|."""
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj())


def tensor(factors) -> np.ndarray:
    """Kronecker product of a sequence of vectors (or matrices).

    Raises ValueError on an empty factor list.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("tensor requires at least one factor")
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = np.kron(out, np.asarray(f, dtype=complex))
    return out


def tensor_rows(stacks) -> np.ndarray:
    """Row-wise Kronecker product: row n is tensor(s[n] for s in stacks)."""
    out = np.asarray(stacks[0], dtype=complex)
    for s in stacks[1:]:
        out = (out[:, :, None] * np.asarray(s, dtype=complex)[:, None, :]).reshape(
            len(out), out.shape[1] * np.shape(s)[1])
    return out


def product_values(mat: np.ndarray, stacks) -> np.ndarray:
    """<psi_n|mat|psi_n> (real part) for psi_n = tensor(s[n] for s in stacks), as a float
    array of its own: an operator's frame-function values on per-site (N, d) stacks."""
    psi = tensor_rows(stacks)
    return np.ascontiguousarray(np.einsum("ni,ni->n", psi.conj(), psi @ mat.T).real)


def product_rows(local) -> list:
    """Per-site stacks of every product of one row of each ``local[s]``, site 0 major:
    a row repeats once per row product of the later sites, and the block once per
    row product of the earlier ones.  Shared leading axes of the (..., n_s, d_s)
    stacks are batches, each batch's grid after the one before."""
    counts = [np.shape(f)[-2] for f in local]
    rows = [np.repeat(f, math.prod(counts[s + 1:]), axis=-2) for s, f in enumerate(local)]
    return [np.concatenate([f] * math.prod(counts[:s]), axis=-2).reshape(-1, f.shape[-1])
            for s, f in enumerate(rows)]


def bit_key(x):
    """A hashable key, equal exactly when x is equal bit for bit: arrays and floats by the
    shape and bytes of their complex values, dicts and sequences item by item, else x."""
    if isinstance(x, (dict, tuple, list)):
        return tuple(map(bit_key, x.items() if isinstance(x, dict) else x))
    if isinstance(x, (float, complex, np.ndarray, np.number)):
        return np.shape(x), np.asarray(x, dtype=complex).tobytes()
    return x


class BitEqual:
    """Equality and hash by ``_key()``, bit for bit (the generated ones would
    compare ndarray fields, which raises)."""

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())


def canonical_phase(v: np.ndarray) -> np.ndarray:
    """Rescale a vector so its first nonzero amplitude is real positive.

    Makes equality-up-to-global-phase checks deterministic: no part is left
    -0.0, so the sign of a zero amplitude changes no bit.  Phasing twice
    changes no bit: the leading amplitude is made exactly real, and a vector
    whose leading amplitude is real positive only has its zeros made +0.0.  A
    real negative lead is divided out by its sign, which is exact, so -v phases
    to the bits of v.  A stack (along the last axis) is phased row by row,
    bit-identically to each row; the result is always a new array.
    """
    # np.hypot rounds as abs() of a complex scalar does; np.abs of an array does not.
    v = np.array(v, dtype=complex, order="C")
    flat = v.reshape(-1, v.shape[-1])
    big = np.hypot(flat.real, flat.imag) > tol.PHASE_AMPLITUDE
    cols = np.argmax(big, axis=-1)  # each row's leading amplitude
    lead = flat[np.arange(len(flat)), cols]
    rows = np.flatnonzero(big.any(axis=-1) & ((lead.imag != 0) | ~(lead.real > 0)))
    cols, lead = cols[rows], lead[rows]
    scale = lead.conjugate() / np.hypot(lead.real, lead.imag)
    scale[lead.imag == 0] = -1.0  # a real negative lead: dividing by its sign is exact
    flat[rows] = flat[rows] * scale[:, None]
    flat[rows, cols] = flat[rows, cols].real
    v += 0.0  # each -0.0 becomes 0.0, so a state's bits do not depend on the sign of a zero
    return v


def check_unit(v: np.ndarray) -> None:
    nrm = np.linalg.norm(v)
    if not abs(nrm - 1.0) <= tol.UNIT_NORM:  # written so that a NaN norm fails
        raise ValidationError(f"vector norm {float(nrm)!r} deviates from 1 beyond {tol.UNIT_NORM}")


def _unit_suspects(f: np.ndarray) -> np.ndarray:
    """The rows of an (N, d) stack that check_unit must decide: every other row's
    norm (of |f|: f * conj f warns on inf) is within UNIT_NORM/2 of 1, and passes."""
    return np.flatnonzero(~(np.abs(np.linalg.norm(np.abs(f), axis=1) - 1) <= tol.UNIT_NORM / 2))


def unit_rows(f: np.ndarray) -> np.ndarray:
    """Which rows of an (N, d) stack check_unit passes, decided as it decides them."""
    ok = np.ones(len(f), dtype=bool)
    for k in _unit_suspects(f):
        try:
            check_unit(f[k])
        except ValidationError:
            ok[k] = False
    return ok


def check_unit_rows(stacks, states=None) -> None:
    """check_unit on the rows of per-site (N, d) stacks, state by state: row k of
    stack s stands for state ``states[s][k]`` (by default, state k)."""
    states = states or [range(len(f)) for f in stacks]
    for _, s, k in sorted((states[s][k], s, k) for s, f in enumerate(stacks)
                          for k in _unit_suspects(f)):
        check_unit(stacks[s][k])


def _first_rows(ids: np.ndarray, k: int) -> np.ndarray:
    """Each of k classes' first row in ``ids`` (len(ids) for a class no row holds)."""
    first = np.full(k, len(ids))
    np.minimum.at(first, ids, np.arange(len(ids)))
    return first


def _phased_classes(factors, ids=None) -> tuple:
    """The product-state normaliser: site s holds the (k, d) stack ``factors[s]``, with
    d >= 1 (else ValidationError naming s), and state r holds its factor ``ids[s][r]``
    (by default, factor r).  Unit-checks each factor (check_unit's message) in the order
    of the first state holding it, checks that every site holds as many states, and
    phases each factor once, the sites of one d in one call.  Returns the phased factors
    and read-only ``phased[ids]``."""
    factors = [np.asarray(f, dtype=complex) for f in factors]
    for site, f in enumerate(factors):
        if f.ndim != 2 or not f.shape[1]:
            raise ValidationError(f"site {site}: a stack of shape {f.shape}, not (k, d), d >= 1")
    # Before canonical_phase, which would divide by an infinite entry.
    check_unit_rows(factors, ids and [_first_rows(i, len(f)) for f, i in zip(factors, ids)])
    if len({len(i) for i in ids or factors}) > 1:
        raise ValidationError("per-site stacks hold different numbers of states")
    phased = stacked_per_dim(canonical_phase, factors, [f.shape[1] for f in factors])
    stacks = tuple(phased if ids is None else (p[i] for p, i in zip(phased, ids)))
    for f in stacks:
        f.setflags(write=False)
    return phased, stacks


@dataclass(frozen=True, eq=False)
class ProductState(BitEqual):
    """A product state of one or more sites: unit factors in canonical phase, one a site."""

    factors: tuple

    def __post_init__(self):
        sites = [np.asarray(f, dtype=complex)[None] for f in self.factors]
        if not sites:
            raise ValidationError("a product state needs at least one site")
        object.__setattr__(self, "factors", tuple(f[0] for f in _phased_classes(sites)[1]))

    @classmethod
    def batch(cls, stacks) -> tuple:
        """States from per-site (N, d_s) stacks, state k holding row k of each: the
        constructor's checks and phases, one pass a site."""
        return _rows_as_states(_phased_classes(stacks)[1])

    @property
    def dims(self) -> tuple:
        return tuple(len(f) for f in self.factors)

    @property
    def nsites(self) -> int:
        return len(self.factors)

    def full(self) -> np.ndarray:
        return tensor(self.factors)

    def key(self) -> bytes:
        """Bit-exact serialization key (canonical phases make this stable)."""
        return self._key_bytes

    @cached_property
    def _key_bytes(self) -> bytes:
        # Built once: the factors are read-only.
        return b"".join(np.ascontiguousarray(f).tobytes() for f in self.factors)

    def _key(self) -> tuple:
        return bit_key(self.factors)


def _rows_as_states(sites) -> tuple:
    """The product states of phased stacks: state k holds row k of each, unchecked."""
    states = tuple(object.__new__(ProductState) for _ in range(len(sites[0]) if sites else 0))
    for e, facs in zip(states, zip(*sites)):
        object.__setattr__(e, "factors", facs)
    return states


def site_stacks(states) -> list:
    """Per-site (N, d) stacks of the factors of a sequence of product states."""
    return [np.array(f) for f in zip(*(s.factors for s in states))]


def is_local_basis(u: np.ndarray) -> bool | np.ndarray:
    """Whether the columns of a square matrix are orthonormal: every entry of the Gram
    matrix within ``tolerances.LOCAL_BASIS`` of the identity's.  NaN or inf fails.  A
    (..., d, d) stack gets a bool array, one verdict per matrix, each as it would alone."""
    u = np.asarray(u, dtype=complex)
    stack = u.reshape((math.prod(u.shape[:-2]),) + u.shape[-2:])
    ok = np.isfinite(stack).all(axis=(1, 2))  # first: inf entries would warn in the product
    f = stack[ok]
    ok[ok] = np.abs(f.conj().swapaxes(1, 2) @ f - np.eye(u.shape[-2])).max(
        axis=(1, 2), initial=0.0) <= tol.LOCAL_BASIS
    return bool(ok[0]) if u.ndim == 2 else ok.reshape(u.shape[:-2])


def complex_to_json(a) -> list:
    """A complex array of any shape as nested lists, one [re, im] pair per entry."""
    return np.asarray(a, dtype=complex)[..., None].view(float).tolist()


def real_from_json(data) -> np.ndarray:
    """The float array of a JSON nesting of finite numbers (not bools), bit for bit.
    Raises ValidationError otherwise; a ragged nesting keeps lists as entries and fails."""
    obj = np.array(data, dtype=object)
    if not all(issubclass(k, (int, float)) and k is not bool for k in set(map(type, obj.flat))):
        raise ValidationError("not a regular array of numbers")
    try:
        out = obj.astype(float)
    except OverflowError as exc:  # an int beyond the float range
        raise ValidationError(f"array entry out of range: {exc}") from None
    if not np.isfinite(out).all():
        raise ValidationError("array has a non-finite entry")
    return out


def complex_from_json(data, ndim: int) -> np.ndarray:
    """The ndim-d complex array complex_to_json wrote, or ValidationError as real_from_json."""
    pairs = real_from_json(data)
    if pairs.shape[ndim:] != (2,):
        raise ValidationError(f"not a regular {ndim}-d array of [re, im] pairs of numbers")
    return pairs.view(complex)[..., 0]


def is_integer(n) -> bool:
    """Whether n is a Python or numpy integer; a bool is not one."""
    return isinstance(n, (int, np.integer)) and type(n) is not bool


def operator_dims(dims) -> tuple:
    """dims as ints; ValidationError naming the first site whose dim is not an integer >= 1
    (a bool is not one)."""
    for site, d in enumerate(dims):
        if not is_integer(d) or d < 1:
            raise ValidationError(
                f"dims {list(dims)!r} are not integers >= 1: site {site} is {d!r}")
    return tuple(int(d) for d in dims)


@dataclass(frozen=True, eq=False)
class HermitianOperator(BitEqual):
    """Dense self-adjoint operator on a tensor-product space.

    ``dims`` lists the local dimensions (d1, ..., dn); ``mat`` is the full
    D x D matrix with D = prod(dims), row-major in the computational product
    basis.  Operators compare and hash bit for bit: dims and matrix.
    """

    dims: tuple
    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        dims = operator_dims(self.dims)
        object.__setattr__(self, "dims", dims)
        mat = np.asarray(self.mat, dtype=complex)
        d_total = int(np.prod(dims)) if dims else 0
        if mat.shape != (d_total, d_total):
            raise ValidationError(
                f"matrix shape {mat.shape} incompatible with dims {dims}"
            )
        finite = np.isfinite(mat).all()  # checked first: inf - inf would warn below
        herm_err = np.max(np.abs(mat - mat.conj().T), initial=0.0) if finite else np.nan
        if not herm_err <= tol.HERMITICITY:  # written so that NaN fails
            raise ValidationError(
                f"matrix deviates from Hermiticity by {herm_err:.3e} > {tol.HERMITICITY}"
            )
        # Symmetrize so downstream eigensolves see an exactly Hermitian matrix.
        mat = 0.5 * (mat + mat.conj().T)
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)

    def _key(self) -> tuple:
        return bit_key((self.dims, self.mat))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def nsites(self) -> int:
        return len(self.dims)

    def trace(self) -> float:
        return float(np.trace(self.mat).real)

    def expectation(self, v: np.ndarray) -> float:
        """<v|t|v> (real part; the imaginary residue is below tolerance)."""
        v = np.asarray(v, dtype=complex)
        return float(np.vdot(v, self.mat @ v).real)

    def to_json(self) -> dict:
        return {"dims": list(self.dims), "entries": complex_to_json(self.mat.ravel())}

    @classmethod
    def from_json(cls, data: dict) -> "HermitianOperator":
        d_total = int(np.prod(operator_dims(data["dims"])))  # checked before the reshape
        return cls(data["dims"], complex_from_json(data["entries"], 1).reshape(d_total, d_total))


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian operator, eigenvalues descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns, orthonormal


def hermitian_eig(a: HermitianOperator | np.ndarray) -> Spectrum:
    """Eigendecomposition with eigenvalues sorted descending.

    Accepts a HermitianOperator or a raw matrix, checked and symmetrized as a
    one-site HermitianOperator.
    """
    op = a if isinstance(a, HermitianOperator) else HermitianOperator((len(a),), a)
    vals, vecs = np.linalg.eigh(op.mat)
    order = np.argsort(vals)[::-1]
    return Spectrum(vals[order], vecs[:, order])


def min_eigenvalue(mat: np.ndarray) -> float:
    mat = np.asarray(mat, dtype=complex)
    return float(np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))[0])


def partial_transpose(t: HermitianOperator, site: int) -> HermitianOperator:
    """Transpose the given tensor factor in the computational basis."""
    n = t.nsites
    if not 0 <= site < n:
        raise ValidationError(f"site {site} out of range for {n} factors")
    arr = np.swapaxes(t.mat.reshape(t.dims * 2), site, n + site)
    return HermitianOperator(t.dims, arr.reshape(t.dim, t.dim))


# ---------------------------------------------------------------------------
# Random sampling helpers (all take an explicit numpy Generator).

def units_from_normals(z: np.ndarray) -> np.ndarray:
    """random_unit's vectors from (N, 2d) rows of its normals: real parts, then imaginary."""
    d = z.shape[1] // 2
    v = z[:, :d] + 1j * z[:, d:]
    # Rounds as np.linalg.norm's two BLAS dots do; einsum and .sum(-1) do not.
    sq = v.real[:, None] @ v.real[:, :, None] + v.imag[:, None] @ v.imag[:, :, None]
    return canonical_phase(v / np.sqrt(sq[:, 0]))


def onbs_from_normals(z: np.ndarray) -> np.ndarray:
    """random_onb's bases from (N, 2d^2) rows of its normals, by one stacked QR."""
    d = int(np.sqrt(z.shape[1] // 2))  # exact: the argument is a square
    q, r = np.linalg.qr(z[:, :d * d].reshape(-1, d, d) + 1j * z[:, d * d:].reshape(-1, d, d))
    r = np.diagonal(r, axis1=1, axis2=2)
    return canonical_phase((q * (r / np.abs(r))[:, None]).swapaxes(1, 2)).swapaxes(1, 2)


def cut(a: np.ndarray, sizes, axis: int = 0) -> list:
    """Consecutive views of ``a`` along ``axis`` of the given sizes: np.split at their
    running sums, without its overhead."""
    sizes = list(sizes)
    lead = (slice(None),) * axis
    return [a[lead + (slice(e - n, e),)] for n, e in zip(sizes, itertools.accumulate(sizes))]


def stacked_per_dim(make, blocks, ds) -> list:
    """make(blocks[k]) for every k, by one call of ``make`` on the concatenated blocks of
    each distinct d in ``ds``; ``make`` must act on each row of its stack alone."""
    out = [None] * len(blocks)
    for d in set(ds):
        ks = [k for k, e in enumerate(ds) if e == d]
        made = make(np.concatenate([blocks[k] for k in ks]))
        for k, m in zip(ks, cut(made, [len(blocks[k]) for k in ks])):
            out[k] = m
    return out


def random_units(rng: np.random.Generator, dims, n: int) -> list:
    """Per-site (n, d) stacks: random_unit at each site of n states in turn, in one draw."""
    z = np.split(rng.standard_normal((n, 2 * sum(dims))), 2 * np.cumsum(dims)[:-1], axis=1)
    return [units_from_normals(x) for x in z]


def random_onbs(rng: np.random.Generator, dims, n: int) -> list:
    """Per-site (n, d, d) stacks: random_onb at each site, n times over, in one draw.
    Sites of one d share one QR, bit for bit as apart: LAPACK factors each matrix alone."""
    sq = [d * d for d in dims]
    z = cut(rng.standard_normal((n, 2 * sum(sq))), [2 * q for q in sq], axis=1)
    return stacked_per_dim(onbs_from_normals, z, dims)


def random_unit(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-random unit vector in C^d, canonical phase."""
    return random_units(rng, (d,), 1)[0][0]


def random_onb(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-random orthonormal basis of C^d, as columns, canonical phases."""
    return random_onbs(rng, (d,), 1)[0][0]


def random_hermitian(rng: np.random.Generator, dims) -> HermitianOperator:
    dims = operator_dims(dims)
    d_total = int(np.prod(dims))
    z = rng.standard_normal((d_total, d_total)) + 1j * rng.standard_normal((d_total, d_total))
    return HermitianOperator(dims, 0.5 * (z + z.conj().T))


def random_density(rng: np.random.Generator, dims) -> HermitianOperator:
    """Random density matrix (Hilbert-Schmidt-style: G G^dagger normalized)."""
    dims = operator_dims(dims)
    d_total = int(np.prod(dims))
    g = rng.standard_normal((d_total, d_total)) + 1j * rng.standard_normal((d_total, d_total))
    rho = g @ g.conj().T
    return HermitianOperator(dims, rho / np.trace(rho).real)


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator so identical seeds reproduce across platforms."""
    return np.random.Generator(np.random.Philox(seed))
