"""No-signalling checkers, CHSH values and exact maximum, and the
quantum-extension feasibility test (certificates first, then LPs) that
excludes the PR box.

Two levels of no-signalling are checked: conditional probability tables
(boxes) must have remote-setting-independent marginals, and frame functions
must have remote-basis-independent marginal sums.  The quantum-extension
test asks whether a box with projective realizations can be reproduced by a
unit-trace Hermitian operator that is nonnegative on (sampled) product
states; for the PR box the answer is no, with a robust residual floor.

scipy is imported by :func:`linprog` on the first LP solve, not with this
module, so the LP-free parts of the package load without it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import tolerances as tol
from .gleason import (
    _feature_svd,
    feature_of,
    product_seesaw_min,
    projector_features,
    vec_to_herm,
)
from .linalg import (
    PAULI,
    BitEqual,
    HermitianOperator,
    ValidationError,
    bit_key,
    complex_from_json,
    complex_to_json,
    cut,
    is_integer,
    is_local_basis,
    make_rng,
    onbs_from_normals,
    partial_transpose,
    product_rows,
    product_values,
    proj,
    random_onbs,
    real_from_json,
    stacked_per_dim,
    tensor_rows,
    units_from_normals,
)

TSIRELSON = 2.0 * np.sqrt(2.0)


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on the first call."""
    from scipy import optimize

    return optimize.linprog(*args, **kwargs)


class SolverError(ValidationError):
    """A linprog solve failed; carries the HiGHS status and message."""

    def __init__(self, status: int, message: str, where: str):
        super().__init__(f"{where}: linprog status {status}: {message}")
        self.status, self.message = status, message


# ---------------------------------------------------------------------------
# Boxes

@dataclass(frozen=True, eq=False)
class Box(BitEqual):
    """Conditional probability table P(A, B | a, b) with optional realizations.

    ``table`` is one read-only float array P[a, b, A, B] of shape (|S_A|, |S_B|,
    |O_A|, |O_B|), indexed by label position; ``block(a, b)`` reads P[A, B] by label.
    ``realizations`` (optional) maps each setting label of a site to an orthonormal
    (d, d) measurement basis (columns = outcome vectors), d the site's number of
    outcomes; ``bases`` stacks them per site, (|S|, d, d) in setting order.  Boxes
    compare and hash bit for bit: labels, table and bases.
    """

    settings: tuple  # per site, tuple of labels
    outcomes: tuple  # per site, tuple of labels
    table: np.ndarray
    realizations: tuple | None = None  # per site: dict label -> ndarray (d x d)
    bases: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        _distinct_settings(self.settings)
        if self.realizations is not None:  # first: bad bases would make a bad table
            if len(self.realizations) != 2:
                raise ValidationError("realizations need one dict of bases per site")
            object.__setattr__(self, "bases", tuple(map(
                _basis_stack, (0, 1), self.settings, self.outcomes, self.realizations)))
        shape = tuple(len(labels) for labels in (*self.settings, *self.outcomes))
        p = np.array(self.table, dtype=float)
        if p.shape != shape:
            raise ValidationError(f"table has shape {p.shape}, not {shape}")
        if not p.min(initial=0.0) >= -tol.NEGATIVE_PROBABILITY:  # NaN entries fail too
            raise ValidationError("negative probability in table")
        sums = p.sum(axis=(2, 3)).ravel()
        bad = np.flatnonzero(~(np.abs(sums - 1.0) <= tol.BLOCK_SUM))
        if len(bad):
            raise ValidationError(f"table block {_block_keys(self.settings)[bad[0]]} "
                                  f"sums to {float(sums[bad[0]])!r}, not 1")
        p.flags.writeable = False
        object.__setattr__(self, "table", p)

    def _key(self) -> tuple:
        return bit_key((self.settings, self.outcomes, self.table, self.bases))

    def block(self, a, b) -> np.ndarray:
        return self.table[self.settings[0].index(a), self.settings[1].index(b)]

    @cached_property
    def products(self) -> list:
        """:func:`_box_products` of the bases, built on first use or kept by box_from_operator."""
        return _box_products(self.bases)

    def to_json(self) -> dict:
        out = {
            "settings": [list(s) for s in self.settings],
            "outcomes": [list(o) for o in self.outcomes],
            "table": dict(zip(_block_keys(self.settings),
                              self.table.reshape(-1, *self.table.shape[2:]).tolist())),
        }
        if self.realizations is not None:
            out["realizations"] = [{str(lbl): complex_to_json(m) for lbl, m in site.items()}
                                   for site in self.realizations]
        return out

    @classmethod
    def from_json(cls, data: dict) -> "Box":
        settings = tuple(tuple(s) for s in data["settings"])
        outcomes = tuple(tuple(o) for o in data["outcomes"])
        _distinct_settings(settings)
        keys, blocks = _block_keys(settings), data["table"]
        if sorted(blocks) != sorted(keys):
            raise ValidationError(f"table blocks {sorted(blocks)}, not {keys} of the settings")
        table = real_from_json([blocks[k] for k in keys])
        table = table.reshape(len(settings[0]), len(settings[1]), *table.shape[1:])
        realizations = None
        if "realizations" in data:  # keys are str(label); an undeclared key stays a string
            if len(data["realizations"]) != len(settings):
                raise ValidationError("realizations need one dict of bases per site")
            labels = [{str(lbl): lbl for lbl in site} for site in settings]
            realizations = tuple({labels[i].get(raw, raw): complex_from_json(mat, 2)
                                  for raw, mat in site.items()}
                                 for i, site in enumerate(data["realizations"]))
        return cls(settings, outcomes, table, realizations)


def _distinct_settings(settings) -> None:
    """ValidationError unless there are settings at two sites; naming the site if it has no
    settings, naming the site and label if a site repeats a setting label, or two that print
    alike, and naming the key if two setting pairs share a JSON block key (labels with commas,
    such as ("a,b", "c") and ("a", "b,c")): either way the keys would collide."""
    if len(settings) != 2:
        raise ValidationError(f"a box needs settings at two sites, not {len(settings)}")
    for site, labels in enumerate(settings):
        if not labels:
            raise ValidationError(f"site {site}: no settings")
        names = [str(lbl) for lbl in labels]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ValidationError(f"site {site} repeats setting label {labels[i]!r}")
    keys = _block_keys(settings)
    if len(set(keys)) < len(keys):
        key = next(k for i, k in enumerate(keys) if k in keys[:i])
        raise ValidationError(f"two setting pairs share the table block key {key!r}")


def _block_keys(settings) -> list:
    """The JSON keys "a,b" of the table blocks, in table order."""
    return [f"{a},{b}" for a in settings[0] for b in settings[1]]


def _basis_stack(site, labels, outcomes, bases) -> np.ndarray:
    """A site's bases as one read-only (|S|, d, d) stack in setting order; ValidationError
    unless they are one orthonormal (d, d) basis per setting, d = len(outcomes)."""
    d = len(outcomes)
    if set(bases) != set(labels):
        raise ValidationError(f"site {site}: bases for settings {list(bases)}, not {list(labels)}")
    ok = np.array([np.shape(bases[lbl]) == (d, d) for lbl in labels], dtype=bool)
    if ok.all():  # one stacked check, each basis judged as it would be alone
        ok = is_local_basis(stack := np.array([bases[lbl] for lbl in labels]).reshape(-1, d, d))
    if not ok.all():
        raise ValidationError(f"site {site} setting {labels[np.argmin(ok)]!r}: "
                              f"no orthonormal ({d}, {d}) basis")
    stack.flags.writeable = False
    return stack


def pr_box() -> Box:
    """The extremal no-signalling box: P = 1/2 when A xor B = a*b, else 0."""
    a, b, out_a, out_b = np.indices((2, 2, 2, 2))
    return Box(((0, 1), (0, 1)), ((0, 1), (0, 1)), np.where((out_a ^ out_b) == (a & b), 0.5, 0.0))


def with_qubit_realizations(box: Box) -> Box:
    """Attach standard equatorial qubit measurement bases to a 2x2x2x2 box: Bloch
    angles (0, pi/2) on the first site and (pi/4, 3 pi/4) on the second."""
    angles = ((0.0, np.pi / 2), (np.pi / 4, 3 * np.pi / 4))
    realizations = tuple({lbl: equator_basis(theta) for lbl, theta in zip(labels, site)}
                         for labels, site in zip(box.settings, angles))
    return Box(box.settings, box.outcomes, box.table, realizations)


def deterministic_box() -> Box:
    """Deterministic local box: both parties always output their first outcome."""
    p = np.zeros((2, 2, 2, 2))
    p[:, :, 0, 0] = 1.0
    return Box(((0, 1), (0, 1)), ((0, 1), (0, 1)), p)


def box_from_operator(t: HermitianOperator, realizations) -> Box:
    """Box of tr(t (p_A (x) q_B)) at the given bases, tabulated as a section is: one
    product_values call on its entries' product states, kept as ``products``.  ValidationError
    naming the site (and setting) unless t's two sites hold finite (d, d) bases, d the site's
    dim; Box checks them orthonormal before the table's blocks."""
    if len(t.dims) != 2 or len(realizations) != 2:
        raise ValidationError(f"a box needs bases at t's two sites, not {len(realizations)} sites")
    settings = tuple(tuple(site.keys()) for site in realizations)
    _distinct_settings(settings)
    for site, (d, real) in enumerate(zip(t.dims, realizations)):
        bad = [lbl for lbl, u in real.items() if np.shape(u) != (d, d) or not np.isfinite(u).all()]
        if bad:
            raise ValidationError(
                f"site {site} setting {bad[0]!r}: no orthonormal ({d}, {d}) basis")
    products = _box_products([np.array([*site.values()], dtype=complex) for site in realizations])
    table = product_values(t.mat, products).reshape(tuple(map(len, settings)) + t.dims)
    box = Box(settings, tuple(tuple(range(d)) for d in t.dims), table, tuple(realizations))
    object.__setattr__(box, "products", products)  # the cache of Box.products
    return box


@dataclass(frozen=True, eq=False)
class NoSigReport(BitEqual):
    max_discrepancy: float
    witness: dict | None = None
    tolerance = tol.NO_SIGNALLING  # a class constant: the largest max_discrepancy that passes

    @property
    def passed(self) -> bool:
        return self.max_discrepancy <= self.tolerance

    def _key(self) -> tuple:  # equal and hashed bit for bit: discrepancy and witness
        return bit_key((self.max_discrepancy, self.witness))


def check_box(box: Box) -> NoSigReport:
    """Maximum variation of either site's marginals over the remote setting; the
    witness is the first maximum in (site, setting, remote pair i < j) order."""
    # gaps[site][setting, i, j]: the largest change of the marginal from remote setting i to j.
    gaps = [np.abs(m[:, :, None] - m[:, None, :]).max(axis=3)
            for m in (box.table.sum(axis=3), box.table.sum(axis=2).swapaxes(0, 1))]
    flat = np.concatenate([g.ravel() for g in gaps])
    worst = float(flat.max(initial=0.0))
    if worst <= tol.NO_SIGNALLING:
        return NoSigReport(worst)
    # The first maximum lies above the diagonal, as each gap below it has its mirror earlier,
    # and there the flat order is the (site, setting, i < j) order.
    k = int(np.argmax(flat))
    site = int(k >= gaps[0].size)
    a, i, j = np.unravel_index(k - site * gaps[0].size, gaps[site].shape)
    remote = box.settings[1 - site]
    return NoSigReport(worst, {"site": site, "setting": box.settings[site][a],
                               "remote_pair": (remote[i], remote[j])})


def check_framefn(f, trials: int = 100, seed: int = 0) -> NoSigReport:
    """Probe a frame function on two or more sites for remote-basis-dependent marginals.

    For a random site, random fixed states x at the other sites and a random pair of local
    bases at the site, the sums over the two local bases must agree.  Reports the worst
    discrepancy and its first trial.  The trials' sites come in one draw and every normal
    in one more, laid out as drawing them site by site would lay them: per site, its
    trials' remote states (random_unit at each other site in turn), then both bases of
    each (random_onb twice).  The vectors and the bases of each d are made in one stack,
    and one ``f.values`` call takes every trial's product grid.
    """
    dims = tuple(f.dims)
    if len(dims) < 2 or not is_integer(trials) or trials < 1:
        raise ValidationError(f"check_framefn needs 2 or more sites and an integer trials >= 1, "
                              f"not {dims}, {trials!r}")
    rng = make_rng(seed)
    sites = rng.integers(0, len(dims), trials)
    probed = [(s, idx) for s in range(len(dims)) if (idx := np.flatnonzero(sites == s)).size]
    remote = {s: dims[:s] + dims[s + 1:] for s, _ in probed}
    # Per probed site with n trials: an (n, 2 sum(remote d)) block for the remote states,
    # then a (2n, 2 d^2) one for the bases, the k-th trial's at rows 2k and 2k + 1.
    sizes = [2 * len(idx) * (sum(remote[s]) + 2 * dims[s] ** 2) for s, idx in probed]
    unit_z, unit_d, onb_z = [], [], []
    for (s, idx), z in zip(probed, cut(rng.standard_normal(sum(sizes)), sizes)):
        x, b = cut(z, [2 * len(idx) * sum(remote[s]), 4 * len(idx) * dims[s] ** 2])
        unit_z += cut(x.reshape(len(idx), -1), [2 * d for d in remote[s]], axis=1)
        unit_d += remote[s]
        onb_z.append(b.reshape(2 * len(idx), -1))
    units = iter(stacked_per_dim(units_from_normals, unit_z, unit_d))
    bases = stacked_per_dim(onbs_from_normals, onb_z, [dims[s] for s, _ in probed])
    draws = {s: ([next(units) for _ in remote[s]], b) for (s, _), b in zip(probed, bases)}
    grids = []
    for s, idx in probed:  # each trial's grid: both bases at the site
        x, b = draws[s]
        local = [y[:, None] for y in x]
        local.insert(s, b.swapaxes(1, 2).reshape(len(idx), 2 * dims[s], dims[s]))
        grids.append(product_rows(local))
    values = f.values([np.concatenate(site) for site in zip(*grids)])
    gaps = np.zeros(trials)
    grid_sizes = [2 * len(idx) * dims[s] for s, idx in probed]
    for (s, idx), v in zip(probed, cut(values, grid_sizes)):
        m = v.reshape(-1, 2, dims[s]).sum(axis=2)
        gaps[idx] = np.abs(m[:, 0] - m[:, 1])
    worst = float(gaps.max(initial=0.0))
    if worst <= tol.NO_SIGNALLING:
        return NoSigReport(worst)
    trial = int(np.argmax(gaps))
    site = int(sites[trial])
    x, b = draws[site]
    n = int(np.count_nonzero(sites[:trial] == site))  # the trial's place among its site's
    return NoSigReport(worst, {"trial": trial, "site": site, "remote_state": tuple(y[n] for y in x),
                               "bases": (b[2 * n], b[2 * n + 1])})


# ---------------------------------------------------------------------------
# CHSH

# Bloch angles (a, a', b, b') at which the singlet reaches 2*sqrt(2), given the
# sign convention E(a, b) = -cos(theta_a - theta_b) that equator_basis fixes.
SINGLET_ANGLES = (0.0, np.pi / 2, 5 * np.pi / 4, 3 * np.pi / 4)


def equator_basis(theta: float) -> np.ndarray:
    """Qubit measurement basis along the Bloch-equator direction theta.

    Columns are the +1 and -1 outcome vectors of the observable
    cos(theta) Z + sin(theta) X.
    """
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def bell_operator(settings) -> np.ndarray:
    a, a2, b, b2 = (proj(u[:, 0]) - proj(u[:, 1]) for u in map(np.asarray, settings))
    return np.kron(a, b) + np.kron(a, b2) + np.kron(a2, b) - np.kron(a2, b2)


def chsh_value(t: HermitianOperator, settings) -> float:
    """E(a,b) + E(a,b') + E(a',b) - E(a',b') of a two-qubit t at bases (a, a', b, b')."""
    bases = [np.asarray(u, dtype=complex) for u in settings]
    if t.dims != (2, 2):
        raise ValidationError("CHSH needs a two-qubit operator")
    if len(bases) != 4:
        raise ValidationError(f"CHSH needs four setting bases, not {len(bases)}")
    if any(u.shape != (2, 2) for u in bases) or not is_local_basis(np.array(bases)).all():
        raise ValidationError("CHSH setting basis is not orthonormal")
    return float(np.trace(t.mat @ bell_operator(bases)).real)


def _require_chsh_box(box: Box):
    """ValidationError unless the box has two settings and two outcomes per site."""
    if box.table.shape != (2, 2, 2, 2):
        raise ValidationError("CHSH needs two settings and two outcomes per site")


def chsh_value_box(box: Box) -> float:
    """CHSH value of a 2-setting 2-outcome box (outcomes read as +1, -1)."""
    _require_chsh_box(box)
    e = np.sum(box.table * np.array([[1.0, -1.0], [-1.0, 1.0]]), axis=(2, 3))  # E(a, b)
    return float(e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1])


def singlet() -> HermitianOperator:
    """The two-qubit singlet state (|01> - |10>)/sqrt(2) as a projector."""
    v = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    return HermitianOperator((2, 2), proj(v))


def _bloch_basis(n: np.ndarray) -> np.ndarray:
    """Qubit basis whose first column is the +1 eigenvector of n . sigma."""
    theta = np.arctan2(np.hypot(n[0], n[1]), n[2])
    phase = np.exp(1j * np.arctan2(n[1], n[0]))
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -s * phase.conjugate()], [s * phase, c]], dtype=complex)


def chsh_optimize(t: HermitianOperator) -> tuple:
    """Exact CHSH maximum over qubit measurements: (value, (a, a', b, b')).

    With T_ij = tr(t sigma_i (x) sigma_j) = U S V^T, the maximum is
    2 sqrt(s_1^2 + s_2^2) for any Hermitian t (Horodecki, Horodecki &
    Horodecki, Phys. Lett. A 200, 340 (1995)), attained at a, a' = U_0, U_1
    and b, b' = cos(th) V_0 +- sin(th) V_1 with th = atan2(s_2, s_1).
    """
    if t.dims != (2, 2):
        raise ValidationError("chsh_optimize needs a two-qubit operator")
    corr = np.einsum("abcd,ica,jdb->ij", t.mat.reshape(2, 2, 2, 2), PAULI[1:], PAULI[1:]).real
    u, s, vt = np.linalg.svd(corr)
    th = np.arctan2(s[1], s[0])
    even, odd = np.cos(th) * vt[0], np.sin(th) * vt[1]
    settings = tuple(_bloch_basis(n) for n in (u[:, 0], u[:, 1], even + odd, even - odd))
    return float(2.0 * np.hypot(s[0], s[1])), settings


# ---------------------------------------------------------------------------
# LP-based quantum extension

def _positivity_rows(rng: np.random.Generator, dims, count: int) -> np.ndarray:
    """Feature rows of sampled product projectors, drawn as complete bases.

    States are drawn in groups forming full product bases so the sampled
    polytope is bounded (each sampled value is pinned to [0, 1] by the trace
    constraint).
    """
    local = [u.swapaxes(1, 2) for u in random_onbs(rng, dims, -(-count // int(np.prod(dims))))]
    return projector_features([site[:count] for site in product_rows(local)])


@dataclass(frozen=True)
class Decomposition:
    """t = A + B^Γ, B^Γ the partial transpose of B on site 0, with both factors
    at least -PSD: every product value of t is then at least -2 PSD.

    ``steps`` alternating projections found it; ``min_eigs`` are the least
    eigenvalues of A and B.
    """

    a: HermitianOperator
    b: HermitianOperator
    steps: int
    min_eigs: tuple

    def to_json(self) -> dict:
        return {"steps": self.steps, "min_eig_a": self.min_eigs[0],
                "min_eig_b": self.min_eigs[1]}


@dataclass(frozen=True)
class Separation:
    """A PPT witness W = Σ y_i E_i over the box's product projectors E_i, with W and
    W^Γ at least -PSD.  Every t = A + B^Γ with A, B >= 0 and tr t = 1 has
    tr(W t) >= -PSD, while a t that reproduced the box would give tr(W t) = y·P; so
    each such t misses some box equality by at least floor = (-y·P - PSD) / ||y||_1.

    ``coefficients`` are the y_i in the table's shape; the search stalled after
    ``steps`` alternating projections; ``min_eigs`` are the least eigenvalues of
    W and W^Γ.
    """

    coefficients: np.ndarray
    floor: float
    steps: int
    min_eigs: tuple

    def to_json(self) -> dict:
        return {"steps": self.steps, "floor": self.floor, "min_eig_w": self.min_eigs[0],
                "min_eig_w_gamma": self.min_eigs[1], "coefficients": self.coefficients.tolist()}


@dataclass(frozen=True)
class ExtensionVerdict:
    verdict: str  # FEASIBLE | INFEASIBLE | AMBIGUOUS | ERROR
    residual: float
    t: HermitianOperator | None = None
    seesaw_min: float | None = None
    rounds: int = 1  # LP rounds run: 0 when a certificate decided
    solver_status: int | None = None  # HiGHS status of a failed solve (ERROR)
    solver_message: str | None = None
    candidate: str | None = None  # what gave t: "decomposition" | "vertex"
    certificate: Decomposition | Separation | None = None  # rounds 0: (A, B) of t, or W

    def to_json(self) -> dict:
        out = {
            "verdict": self.verdict,
            "residual": self.residual,
            "rounds": self.rounds,
            "infeasibility_threshold": tol.INFEASIBLE_RESIDUAL,
            "feasible_threshold": tol.FEASIBLE_RESIDUAL,
            "product_positive_threshold": tol.PRODUCT_POSITIVE,
        }
        if self.seesaw_min is not None:
            out["seesaw_min"] = self.seesaw_min
        if self.t is not None:
            out["candidate"] = self.candidate
            out["t"] = self.t.to_json()
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json()
            out["psd_threshold"] = tol.PSD
        if self.solver_status is not None:
            out["solver_status"] = self.solver_status
            out["solver_message"] = self.solver_message
        return out


def _operator_space(box: Box):
    """Site dims of a realized box, the D^2 coordinates of t, and the feature row of tr(t)."""
    if box.bases is None:
        raise ValidationError("the LP needs a box with projective realizations")
    dims = tuple(u.shape[-1] for u in box.bases)
    d_total = int(np.prod(dims))
    return dims, d_total * d_total, _trace_row(d_total)


@lru_cache(maxsize=16)
def _trace_row(d_total: int) -> np.ndarray:
    """feature_of(I), read-only: shared by every caller through the cache."""
    row = feature_of(np.eye(d_total))
    row.setflags(write=False)
    return row


def _box_products(bases) -> list:
    """Per-site stacks of the product states u_A (x) v_B of a box's entries, in table order,
    from the per-site (|S|, d, d) stacks of bases."""
    u, v = (b.swapaxes(1, 2) for b in bases)
    return product_rows([np.repeat(u, len(v), axis=0), np.tile(v, (len(u), 1, 1))])


def _box_equalities(box: Box):
    """Feature rows and targets for tr(t (p_A (x) q_B)) = P(A,B|a,b), in table order."""
    return projector_features(box.products), box.table.ravel()


def _site_factors(bases) -> tuple:
    """:func:`_least_norm_point`'s U_s, rows (setting, outcome), and Hermitian O_j, per site."""
    us, ops = [], []
    for b in bases:  # (|S|, d, d)
        v = b.swapaxes(1, 2).reshape(-1, b.shape[-1], 1)
        u, sv, vh = _feature_svd((v * v.swapaxes(1, 2).conj()).reshape(len(v), -1).view(float))
        m = (vh / sv[:, None]).view(complex).reshape(-1, *b.shape[1:])
        us.append(u)
        ops.append(0.5 * (m + m.conj().swapaxes(1, 2)))
    return us, ops


def _least_norm_point(factors, tables, traces) -> np.ndarray:
    """pinv(rows) @ (P, c), rows :func:`_decomposition`'s, at n targets: tables P (n, |S_A|,
    |S_B|, d_A, d_B) and traces c (n,); (n, 4 D^2) real pair views, from :func:`_site_factors`.

    Write Φ(X) for the real view of (X, X^Γ): an entry's row is Φ(p (x) q), and |Φ(X)| = √2 |X|.
    Site s's rows A_s, the real views of its outcome projectors p (setting major), have the Gram
    matrix of their feature rows.  Cut to its rank, A_s = U_s S_s V_s^T, and each row of V_s^T is
    the real view of a Hermitian operator.  The table rows are then R = U S V^T with U = U_0 (x) U_1
    in table order, S = √2 S_0 (x) S_1, and column (j, k) of V the Φ of operator j of V_0 (x)
    operator k of V_1, over √2.  The trace row is block 0's rows summed, s^T R, so the rows are M R
    with M = [I; s^T], and pinv(M R) = V S^-1 (I + w w^T)^-1 [U^T, w] with w = U^T s
    (Sherman-Morrison).  At a target, y = (I + w w^T)^-1 (U_0^T P U_1 + c w), P a (setting, outcome)
    matrix a site, weighs the columns Φ(O_j (x) O'_k) / 2 of V S^-1, with O_j = (V_0)_j / (S_0)_j
    and O'_k = (V_1)_k / (S_1)_k made exactly Hermitian, so every solve is a Hermitian pair and
    pinv, the unit-target solves, has R's rank.
    """
    (u0, u1), (o0, o1) = factors
    n, (r0, d0, _), (r1, d1, _) = len(tables), o0.shape, o1.shape
    w = u0[:d0].sum(axis=0)[:, None] * u1[:d1].sum(axis=0)  # U^T s
    z = (u0.T @ tables.transpose(1, 3, 0, 2, 4).reshape(len(u0), -1)).reshape(r0 * n, -1) @ u1
    z = z.reshape(r0, n, r1).swapaxes(0, 1) + traces[:, None, None] * w  # U_0^T P U_1 + c w
    y = 0.5 * (z - w * (z.reshape(n, -1) @ w.ravel() / (1.0 + np.vdot(w, w)))[:, None, None])
    ops = np.concatenate([o0.transpose(1, 2, 0), o0.transpose(2, 1, 0)]).reshape(-1, r0)  # X, X^Γ
    x = ops @ (y.swapaxes(0, 1).reshape(-1, r1) @ o1.reshape(r1, -1)).reshape(r0, -1)
    return x.reshape(2, d0, d0, n, d1, d1).transpose(3, 0, 1, 4, 2, 5).view(float).reshape(n, -1)


def _decomposition(box: Box) -> Decomposition | Separation | None:
    """A, B >= -PSD with t = A + B^Γ meeting the box equalities and tr t = 1, by
    alternating projections until they stall; then a Separation at site dims
    (2, 2), (2, 3) or (3, 2), else None.

    The pair (A, B) is one (2, D, D) stack, and each equality is a dot product
    with the real view of its entries: tr(A E) + tr(B E^Γ) = P(A,B|a,b), as
    tr(B^Γ E) = tr(B E^Γ), where E is an entry's product projector and E^Γ the
    same with site 0's factor conjugated; the pair (I, I) gives the trace.  Step
    1 starts at their least-norm point, :func:`_least_norm_point` of the box.
    A step returns the pair once both factors have least eigenvalue >= -PSD;
    otherwise it clips their negative eigenvalues and projects back by the
    correction g: the dense rows and their pseudo-inverse, the same solve at
    the unit targets, are built at the first step that does not return.

    ||g|| never grows: it falls to 0 when the PSD pairs meet the equalities and
    levels off at their distance when they do not (Bauschke & Borwein, Set-Valued
    Anal. 1, 1993).  The search stalls at the first step whose ||g|| is not below
    the last; one still falling after ``tolerances.DECOMPOSITION_STEPS`` steps
    returns None.  The stalled g lies in the row span, so y = -pinv^T g weighs the
    rows into a pair (W, W^Γ) = Σ y_i (E_i, E_i^Γ) + y_tr (I, I) that is near PSD
    while y·(P, 1) < 0; the trace weight, plus the shift that makes both PSD, moves
    onto block 0's entries, whose projectors sum to I.  In these dims every
    product-positive t is decomposable (Størmer 1963, Woronowicz 1976), so the
    Separation, returned when both least eigenvalues, recomputed, are >= -PSD and
    its floor is > 0, bounds the residual of every product-positive t.
    """
    dims, d_total, factors = box.table.shape[2:], box.table[0, 0].size, _site_factors(box.bases)
    vals, norm, pinv = np.append(box.table.ravel(), 1.0), np.inf, None
    x = _least_norm_point(factors, box.table[None], vals[-1:])[0]
    for step in range(1, tol.DECOMPOSITION_STEPS + 1):
        pair = x.view(complex).reshape(2, d_total, d_total)
        w, vecs = np.linalg.eigh(pair)
        if w[0, 0] >= -tol.PSD and w[1, 0] >= -tol.PSD:
            # The factors are symmetrized on return; their own eigenvalues are cited.
            a, b = (HermitianOperator(dims, m) for m in pair)
            least = np.linalg.eigvalsh(np.stack([a.mat, b.mat]))[:, 0]
            if least.min() >= -tol.PSD:
                return Decomposition(a, b, step, tuple(map(float, least)))
        if pinv is None:  # the search iterates: its rows (E, E^Γ), then (I, I)
            psi = np.stack([tensor_rows(s := box.products), tensor_rows([s[0].conj(), s[1]])], 1)
            ops = np.concatenate([psi[..., :, None] * psi[..., None, :].conj(),
                                  np.broadcast_to(np.eye(d_total), (1, 2, d_total, d_total))])
            rows, e = ops.view(float).reshape(len(ops), -1), np.eye(len(vals))  # e: unit targets
            pinv = _least_norm_point(factors, e[:, :-1].reshape(-1, *box.table.shape), e[:, -1]).T
        pair = (vecs * np.maximum(w, 0.0)[:, None, :]) @ vecs.conj().swapaxes(1, 2)
        x = pair.view(float).ravel()
        g = -(pinv @ (rows @ x - vals))
        x = x + g
        norm, last = np.linalg.norm(g), norm
        if norm >= last:
            break
    else:  # out of budget while ||g|| still fell: no verdict
        return None
    if sorted(dims) not in ([2, 2], [2, 3]):
        return None
    y = -pinv.T @ g
    witness = (rows.T @ y).view(complex).reshape(2, d_total, d_total)
    shift = max(0.0, -np.linalg.eigvalsh(witness)[:, 0].min()) + tol.PSD
    y, y_trace = y[:-1], y[-1]
    y[:box.table[0, 0].size] += y_trace + shift  # block 0's projectors sum to I
    witness = (rows[:-1].T @ y).view(complex).reshape(2, d_total, d_total)
    least = np.linalg.eigvalsh(witness)[:, 0]
    floor = float((-y @ vals[:-1] - tol.PSD) / np.abs(y).sum())
    if least.min() >= -tol.PSD and floor > 0:
        return Separation(y.reshape(box.table.shape), floor, step, tuple(map(float, least)))
    return None


def _vertex_lp(eq_rows, eq_vals, pos_rows, trace_row):
    """min s over |eq_rows x - eq_vals| <= s, pos_rows x >= 0, trace_row x = 1.

    Variables [x, s]; HiGHS returns a vertex of the optimal face.
    """
    n_eq, n_var = eq_rows.shape
    c = np.zeros(n_var + 1)
    c[-1] = 1.0
    slack, zero = np.full((n_eq, 1), -1.0), np.zeros((len(pos_rows), 1))
    a_ub = np.block([[eq_rows, slack], [-eq_rows, slack], [-pos_rows, zero]])
    b_ub = np.concatenate([eq_vals, -eq_vals, np.zeros(len(pos_rows))])
    a_eq = np.concatenate([trace_row, [0.0]])[None, :]
    return linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
        bounds=[(None, None)] * n_var + [(0, None)], method="highs",
    )


def quantum_extension(box: Box, positivity_samples: int = 2000, seed: int = 0) -> ExtensionVerdict:
    """Can a unit-trace, product-positive Hermitian t reproduce the box?

    First :func:`_decomposition` looks for t = A + B^Γ with A, B >= -PSD, which
    is nonnegative on every product state (to -2 PSD): a residual of at most
    ``tolerances.FEASIBLE_RESIDUAL``, the larger of |tr t - 1| and max|tr(t (p_A
    (x) q_B)) - P(A,B|a,b)| over the box's own product states, gives FEASIBLE
    with candidate "decomposition", the certificate and no LP (rounds 0).  At
    site dims (2, 2), (2, 3) and (3, 2), where every product-positive t is
    decomposable, a stalled search yields a Separation: a PPT witness whose
    floor bounds the equality residual of every product-positive unit-trace t
    from below.  A floor above ``tolerances.INFEASIBLE_RESIDUAL`` gives
    INFEASIBLE with that floor as residual, the certificate, no t and no LP.

    Otherwise each round solves the vertex LP: it minimises the residual s of
    the box equalities, |tr(t (p_A (x) q_B)) - P(A,B|a,b)| <= s, with tr(t) = 1
    and tr(t (p (x) q)) >= 0 on sampled product projectors, and returns a
    vertex of its optimal face (candidate "vertex").  An s above
    ``tolerances.INFEASIBLE_RESIDUAL`` is INFEASIBLE.  A see-saw then hunts for
    a product state on which t is below ``-tolerances.PRODUCT_POSITIVE``; none
    gives FEASIBLE (AMBIGUOUS when s exceeds ``FEASIBLE_RESIDUAL``), and a
    violator joins the positivity rows of the next round.  AMBIGUOUS means
    ``tolerances.EXTENSION_ROUNDS`` rounds ran out.  A failed solve gives ERROR
    with the HiGHS status and message, never a verdict.
    """
    dims, n_var, trace_row = _operator_space(box)
    if not is_integer(positivity_samples) or positivity_samples < 1:
        raise ValidationError(f"quantum extension needs an integer positivity_samples >= 1, "
                              f"not {positivity_samples!r}")
    cert = _decomposition(box)
    if isinstance(cert, Separation):
        if cert.floor > tol.INFEASIBLE_RESIDUAL:
            return ExtensionVerdict("INFEASIBLE", cert.floor, rounds=0, certificate=cert)
    elif cert is not None:
        t = HermitianOperator(dims, cert.a.mat + partial_transpose(cert.b, 0).mat)
        residual = float(max(np.abs(product_values(t.mat, box.products) - box.table.ravel()).max(),
                             abs(np.trace(t.mat).real - 1.0)))
        if residual <= tol.FEASIBLE_RESIDUAL:
            return ExtensionVerdict("FEASIBLE", residual, t=t, rounds=0,
                                    candidate="decomposition", certificate=cert)
    eq_rows, eq_vals = _box_equalities(box)
    pos_rows = _positivity_rows(make_rng(seed), dims, positivity_samples)
    for rounds in range(1, tol.EXTENSION_ROUNDS + 1):
        if rounds > 1:  # the last round's witness joins the positivity rows
            pos_rows = np.vstack([pos_rows, projector_features([f[None] for f in wit.factors])])
        res = _vertex_lp(eq_rows, eq_vals, pos_rows, trace_row)
        if not res.success:  # the LP is always feasible, so this is a solver fault
            return ExtensionVerdict("ERROR", np.nan, rounds=rounds,
                                    solver_status=res.status, solver_message=res.message)
        residual = float(res.x[-1])
        if residual > tol.INFEASIBLE_RESIDUAL:
            return ExtensionVerdict("INFEASIBLE", residual, t=None, rounds=rounds)
        t = HermitianOperator(dims, vec_to_herm(res.x[:n_var]))
        wit = product_seesaw_min(t, restarts=16, seed=seed + rounds)
        if wit.value >= -tol.PRODUCT_POSITIVE:
            verdict = "FEASIBLE" if residual <= tol.FEASIBLE_RESIDUAL else "AMBIGUOUS"
            return ExtensionVerdict(verdict, residual, t=t, seesaw_min=wit.value,
                                    rounds=rounds, candidate="vertex")
    return ExtensionVerdict("AMBIGUOUS", residual, t=t, seesaw_min=wit.value,
                            rounds=rounds, candidate="vertex")


def decomposable_max(op: HermitianOperator):
    """The maximum of tr(op t) over unit-trace t = A + C^Γ with A, C PSD, and a t at it.

    tr(op (A + C^Γ)) = tr(op A) + tr(op^Γ C), so the maximum is the larger of
    λmax(op) and λmax(op^Γ), Γ the partial transpose on site 0.  It is reached
    at op's top eigenprojector, or at the partial transpose of op^Γ's.  At 2⊗2
    and 2⊗3 such t are all the product-positive ones (Størmer 1963; Woronowicz
    1976).
    """
    ops = (op, partial_transpose(op, 0))
    # From eigvalsh, not eigh, whose eigenvalues can differ in the last bit.
    values = [float(np.linalg.eigvalsh(m.mat)[-1]) for m in ops]
    k = int(np.argmax(values))
    peak = HermitianOperator(op.dims, proj(np.linalg.eigh(ops[k].mat)[1][:, -1]))
    return values[k], partial_transpose(peak, 0) if k else peak


def max_chsh_lp(box: Box, sample_schedule=(250, 500, 1000, 2000), seed: int = 0):
    """LP upper bounds on CHSH over sampled product-positive unit-trace t.

    The Bell operator reads the realized 2x2x2x2 box's bases in setting order.
    The positivity samples are nested across the schedule, which must be strictly
    increasing integers >= 1 (else ValidationError), so the sequence of bounds
    is nonincreasing.
    Returns the list of bounds (inf where the LP is unbounded); any other
    solver failure raises SolverError.  HiGHS presolve is off: these LPs are
    small and dense, and presolve only adds time.

    Each step solves by constraint generation from a reference point: before
    the first step the decomposable maximiser of :func:`decomposable_max`,
    after it the last finite optimum.  A step starts from the rows that point
    violates and the 8 n_var rows of least value there (all rows, when it has
    no more), then adds every row the new optimum violates until none is.  The
    optimum then meets every row left out exactly and the rows kept to HiGHS's
    tolerance, so it is feasible for the full LP, of which it is a relaxation:
    the two bounds are equal.  Should a subset LP be unbounded, the step falls
    back to the full LP.  The cost grows with the rows near the optimum, not
    with the samples.
    """
    dims, n_var, trace_row = _operator_space(box)
    _require_chsh_box(box)
    if (not len(sample_schedule) or not all(is_integer(c) and c >= 1 for c in sample_schedule)
            or np.any(np.diff(sample_schedule) <= 0)):
        raise ValidationError(f"sample schedule {tuple(sample_schedule)} is not strictly "
                              "increasing integers >= 1")
    bell = HermitianOperator(dims, bell_operator([*box.bases[0], *box.bases[1]]))
    objective, x = feature_of(bell.mat), feature_of(decomposable_max(bell)[1].mat)
    all_rows = _positivity_rows(make_rng(seed), dims, sample_schedule[-1])
    bounds = []
    for count in sample_schedule:
        rows = all_rows[:count]
        values = rows @ x
        active = values < 0
        active[np.argsort(values)[:8 * n_var]] = True
        while True:
            res = linprog(
                -objective, A_ub=-rows[active], b_ub=np.zeros(np.count_nonzero(active)),
                A_eq=trace_row[None, :], b_eq=[1.0], bounds=[(None, None)] * n_var,
                method="highs", options={"presolve": False},
            )
            if res.status not in (0, 3):  # 3: unbounded, too few samples to pin t down
                raise SolverError(res.status, res.message, f"max_chsh_lp at {count} samples")
            if res.status == 0:
                violated = (rows @ res.x < 0) & ~active
            else:  # an unbounded subset takes in every row: the full LP
                violated = ~active
            if not violated.any():
                break
            active |= violated
        if res.status == 0:
            x = res.x
        bounds.append(float(-res.fun) if res.status == 0 else np.inf)
    return bounds
