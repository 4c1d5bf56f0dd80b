"""Frame functions on product states.

A frame function assigns a real value to each unit product state such that
the values sum to a constant weight over every product basis.  Three concrete
kinds are provided:

* operator-induced, f(v) = <v|t|v> for a Hermitian t;
* tabulated, values stored for an explicit design of product states;
* a synthetic two-site *signalling* family: non-negative, constant weight
  over all product bases, yet with site-1 marginals that depend on the
  remote basis choice — the obstruction the no-signalling constraint rules
  out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (HermitianOperator, ProductState, ValidationError, canonical_phase,
                     check_unit_rows, operator_dims, product_values, site_stacks)


class _Evaluated:
    """values() and f(s) for the kinds below, whose ``_values`` is their formula; each
    kind binds __call__ itself, so a per-class wrapper (a tracer) can swap it."""

    def values(self, stacks) -> np.ndarray:
        """f on N product states given as per-site (N, d) stacks of factors, in any
        phase, after the dims and unit-norm checks of ProductState: entry n is
        f(ProductState(row n)), bit for bit for a Tabulated one."""
        sites = [np.asarray(f, dtype=complex) for f in stacks]
        self._check_dims(tuple(f.shape[-1] for f in sites))
        check_unit_rows(sites)
        return self._values(sites)

    def __call__(self, s: ProductState) -> float:
        # s passed ProductState's unit-norm check when it was made.
        self._check_dims(s.dims)
        return float(self._values([f[None] for f in s.factors])[0])

    def _check_dims(self, dims: tuple) -> None:
        if dims != self.dims:
            raise ValidationError(f"state dims {dims} != frame-function dims {self.dims}")


@dataclass(frozen=True)
class OperatorInduced(_Evaluated):
    """f(v) = <v|t|v>."""

    t: HermitianOperator
    __call__ = _Evaluated.__call__

    @property
    def dims(self) -> tuple:
        return self.t.dims

    def _values(self, sites) -> np.ndarray:
        return product_values(self.t.mat, sites)


@dataclass(frozen=True)
class Tabulated(_Evaluated):
    """Values stored on an explicit design; lookup is by bit-exact state key.

    Canonical phases leave no -0.0 part, so the sign of a zero amplitude changes no
    key, nor does a phase of -1; but a state given in another phase, such as
    e^{0.3i}, may phase to bits a rounding away from its key's and miss."""

    dims: tuple
    table: dict  # ProductState.key() -> float

    def __call__(self, s: ProductState) -> float:
        self._check_dims(s.dims)
        return self._lookup(s.key())

    def _values(self, sites) -> np.ndarray:
        # Phased as ProductState phases a factor, a row of the sites laid side by
        # side holds its key()'s bytes; a row already phased keeps its bits.
        rows = np.hstack([canonical_phase(f) for f in sites])
        return np.array([self._lookup(row.tobytes()) for row in rows], dtype=float)

    def _lookup(self, key: bytes) -> float:
        try:
            return float(self.table[key])
        except KeyError:
            raise KeyError("state not in tabulated design") from None


@dataclass(frozen=True)
class SignallingFamily(_Evaluated):
    """Two-site frame function with remote-basis-dependent marginals.

    f(v (x) w) = a(v) * b_v(w) with a(v) = |<v|e1>|^2 and
    b_v(w) = |<w|R(v) e1>|^2, where R(v) rotates the (e1, e2)-plane of site 2
    by angle theta * |<v|e2>|^2.  For each fixed v, b_v sums to 1 over any
    site-2 basis, and a sums to 1 over any site-1 basis, so the weight is 1
    over every product basis.  The site-1 marginal sum_j f(v_j (x) w),
    however, depends on which site-1 basis {v_j} is used whenever theta is
    not a multiple of pi.
    """

    dims: tuple
    theta: float
    __call__ = _Evaluated.__call__

    def __post_init__(self):
        dims = operator_dims(self.dims)
        if len(dims) != 2 or min(dims) < 2:
            raise ValidationError("signalling family needs two sites of dim >= 2")
        if not np.isfinite(self.theta):
            raise ValidationError(f"signalling family needs a finite theta, not {self.theta!r}")
        object.__setattr__(self, "dims", dims)

    def _values(self, sites) -> np.ndarray:
        v, w = sites
        angle = self.theta * np.abs(v[:, 1]) ** 2
        b = np.abs(np.cos(angle) * w[:, 0] + np.sin(angle) * w[:, 1]) ** 2
        return np.abs(v[:, 0]) ** 2 * b


def make_signalling_example(dims, theta: float) -> SignallingFamily:
    """Synthetic non-negative frame function that signals for theta not in pi*Z."""
    return SignallingFamily(tuple(dims), float(theta))


def sample_from_operator(t: HermitianOperator, design) -> Tabulated:
    """Tabulate <v|t|v> over a design of product states, as OperatorInduced(t) values it."""
    design = list(design)
    values = OperatorInduced(t).values(site_stacks(design)) if design else ()
    return Tabulated(t.dims, {s.key(): float(v) for s, v in zip(design, values)})

