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

import json
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .bases import ProductBasis, ProductState
from .gleason import feature_of, state_features
from .linalg import HermitianOperator, ValidationError


class LookupError_(KeyError):
    """Tabulated frame function queried outside its design."""


@dataclass(frozen=True)
class OperatorInduced:
    """f(v) = <v|t|v>."""

    t: HermitianOperator
    nonnegative: bool = False

    @property
    def dims(self) -> tuple:
        return self.t.dims

    def __call__(self, s: ProductState) -> float:
        if s.dims != self.t.dims:
            raise ValidationError(f"state dims {s.dims} != operator dims {self.t.dims}")
        val = self.t.expectation(s.full())
        if self.nonnegative and val < -tol.NONNEGATIVE_EVAL:
            raise ValidationError(f"declared non-negative but f = {val:.3e}")
        return val


@dataclass(frozen=True)
class Tabulated:
    """Values stored on an explicit design; lookup is by bit-exact state key."""

    dims: tuple
    table: dict  # ProductState.key() -> float

    def __call__(self, s: ProductState) -> float:
        if s.dims != self.dims:
            raise ValidationError(f"state dims {s.dims} != table dims {self.dims}")
        try:
            return self.table[s.key()]
        except KeyError:
            raise LookupError_("state not in tabulated design") from None

    def perturbed(self, key: bytes, delta: float) -> "Tabulated":
        table = dict(self.table)
        table[key] += delta
        return Tabulated(self.dims, table)


@dataclass(frozen=True)
class SignallingFamily:
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

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) != 2 or min(dims) < 2:
            raise ValidationError("signalling family needs two sites of dim >= 2")
        object.__setattr__(self, "dims", dims)

    def _rotated_target(self, v: np.ndarray) -> np.ndarray:
        angle = self.theta * abs(v[1]) ** 2
        target = np.zeros(self.dims[1], dtype=complex)
        target[0] = np.cos(angle)
        target[1] = np.sin(angle)
        return target

    def __call__(self, s: ProductState) -> float:
        if s.dims != self.dims:
            raise ValidationError(f"state dims {s.dims} != family dims {self.dims}")
        v, w = s.factors
        a = abs(v[0]) ** 2
        b = abs(np.vdot(self._rotated_target(v), w)) ** 2
        return a * b


FrameFunction = OperatorInduced | Tabulated | SignallingFamily


@dataclass(frozen=True)
class WeightReport:
    sums: tuple
    spread: float
    weight: float

    @property
    def constant(self) -> bool:
        return self.spread <= tol.WEIGHT_SPREAD


def weight_check(f, bases) -> WeightReport:
    """Sum f over each full product basis; a small spread certifies constancy."""
    bases = list(bases)
    if not bases:
        raise ValueError("weight_check requires at least one basis")
    sums = []
    for pb in bases:
        if not isinstance(pb, ProductBasis):
            raise TypeError("weight_check expects ProductBasis instances")
        sums.append(sum(f(e) for e in pb.elements()))
    sums = tuple(float(x) for x in sums)
    return WeightReport(sums, max(sums) - min(sums), float(np.mean(sums)))


def make_signalling_example(dims, theta: float) -> SignallingFamily:
    """Synthetic non-negative frame function that signals for theta not in pi*Z."""
    return SignallingFamily(tuple(dims), float(theta))


def sample_from_operator(t: HermitianOperator, design) -> Tabulated:
    """Tabulate <v|t|v> over a design of product states: feature rows times vec(t)."""
    design = list(design)
    for s in design:
        if s.dims != t.dims:
            raise ValidationError(f"design state dims {s.dims} != operator dims {t.dims}")
    values = state_features(design) @ feature_of(t.mat) if design else ()
    return Tabulated(t.dims, {s.key(): float(v) for s, v in zip(design, values)})


# ---------------------------------------------------------------------------
# Sample-table serialization (JSON): one row per (state, value).

def write_samples_json(path, design, values) -> None:
    with open(path, "w") as fh:
        json.dump(
            [{"state": s.to_json(), "value": float(v)} for s, v in zip(design, values)],
            fh,
        )


def read_samples_json(path) -> tuple:
    with open(path) as fh:
        rows = json.load(fh)
    design = [ProductState.from_json(r["state"]) for r in rows]
    values = [float(r["value"]) for r in rows]
    return design, values
