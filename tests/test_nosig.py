"""Tests for box/frame-function no-signalling, CHSH, and the extension LP."""

import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeResult, linprog, minimize

from nsgleason import nosig
from nsgleason import tolerances as tol
from nsgleason.bases import ProductState
from nsgleason.framefn import (
    OperatorInduced,
    SignallingFamily,
    _Evaluated,
    make_signalling_example,
)
from nsgleason.gleason import _coordinates, feature_of, product_seesaw_min, vec_to_herm
from nsgleason.linalg import (
    HermitianOperator,
    ValidationError,
    check_unit,
    complex_to_json,
    make_rng,
    partial_transpose,
    product_rows,
    product_values,
    proj,
    random_density,
    random_hermitian,
    random_onb,
    random_onbs,
    random_unit,
    random_units,
    tensor_rows,
)
from nsgleason.nosig import (
    SINGLET_ANGLES,
    TSIRELSON,
    Box,
    Decomposition,
    NoSigReport,
    Separation,
    SolverError,
    _box_equalities,
    _box_products,
    _decomposition,
    _least_norm_point,
    _operator_space,
    _positivity_rows,
    _site_factors,
    bell_operator,
    box_from_operator,
    check_box,
    check_framefn,
    chsh_optimize,
    chsh_value,
    chsh_value_box,
    decomposable_max,
    deterministic_box,
    equator_basis,
    max_chsh_lp,
    pr_box,
    quantum_extension,
    singlet,
    with_qubit_realizations,
)

OPT_ANGLES = ((0.0, np.pi / 2), (5 * np.pi / 4, 3 * np.pi / 4))


def optimal_realizations():
    return tuple(
        {lbl: equator_basis(th) for lbl, th in zip((0, 1), OPT_ANGLES[i])}
        for i in range(2)
    )


def test_pr_box_no_signalling():
    rep = check_box(pr_box())
    assert rep.max_discrepancy == 0.0
    # All marginals are 1/2.
    for a in (0, 1):
        for b in (0, 1):
            np.testing.assert_allclose(pr_box().block(a, b).sum(axis=1), [0.5, 0.5])


def test_nosig_report_decides_by_its_tolerance(monkeypatch):
    assert check_box(pr_box()).tolerance == NoSigReport.tolerance == tol.NO_SIGNALLING
    assert NoSigReport(tol.NO_SIGNALLING).passed
    assert not NoSigReport(2 * tol.NO_SIGNALLING).passed
    monkeypatch.setattr(NoSigReport, "tolerance", 1.0)
    assert NoSigReport(0.5).passed


def test_deterministic_box_no_signalling():
    assert check_box(deterministic_box()).max_discrepancy == 0.0


def test_signalling_box_detected():
    table = np.array([
        [[[0.5, 0.0], [0.0, 0.5]], [[0.6, 0.0], [0.0, 0.4]]],
        [[[0.5, 0.0], [0.0, 0.5]], [[0.5, 0.0], [0.0, 0.5]]],
    ])
    box = Box(((0, 1), (0, 1)), ((0, 1), (0, 1)), table)
    rep = check_box(box)
    assert rep.max_discrepancy == pytest.approx(0.1, abs=1e-12)
    assert rep.witness["site"] == 0


def looped_check_box(box):
    """check_box as it ran over a dict of blocks, one setting pair and one remote
    pair at a time: (max_discrepancy, witness)."""
    worst, witness = 0.0, None
    for site in (0, 1):
        remote = 1 - site
        for a in box.settings[site]:
            marginals = {}
            for b in box.settings[remote]:
                block = box.block(a, b) if site == 0 else box.block(b, a)
                marginals[b] = block.sum(axis=1) if site == 0 else block.sum(axis=0)
            labels = list(marginals)
            for i in range(len(labels)):
                for j in range(i + 1, len(labels)):
                    d = float(np.max(np.abs(marginals[labels[i]] - marginals[labels[j]])))
                    if d > worst:
                        worst = d
                        witness = {
                            "site": site,
                            "setting": a,
                            "remote_pair": (labels[i], labels[j]),
                        }
    return worst, witness if worst > tol.NO_SIGNALLING else None


@st.composite
def random_boxes(draw):
    """Boxes of 1-3 settings and 2-3 outcomes per site, int or str setting labels:
    signalling, product (no-signalling up to rounding) or with small-integer
    weights, whose marginal gaps tie often."""
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3)),
             draw(st.integers(2, 3)), draw(st.integers(2, 3)))
    settings = tuple(tuple(range(n)) if draw(st.booleans()) else ("x", "y", "z")[:n]
                     for n in shape[:2])
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["signalling", "product", "integer weights"]))
    if kind == "product":
        p_a, p_b = rng.random((shape[0], shape[2])), rng.random((shape[1], shape[3]))
        table = ((p_a / p_a.sum(axis=1, keepdims=True))[:, None, :, None]
                 * (p_b / p_b.sum(axis=1, keepdims=True))[None, :, None, :])
    else:
        table = (rng.random(shape) + 0.05 if kind == "signalling"
                 else rng.integers(0, 3, shape) + np.eye(shape[2], shape[3]))
        table = table / table.sum(axis=(2, 3), keepdims=True)
    return Box(settings, tuple(tuple(range(n)) for n in shape[2:]), table)


@given(random_boxes())
@settings(max_examples=300, deadline=None)
def test_check_box_matches_looped_check(box):
    rep = check_box(box)
    worst, witness = looped_check_box(box)
    assert np.float64(rep.max_discrepancy).tobytes() == np.float64(worst).tobytes()
    assert rep.witness == witness


def test_box_table_is_read_only():
    table = np.full((2, 2, 2, 2), 0.25)
    box = Box(((0, 1), (0, 1)), ((0, 1), (0, 1)), table)
    assert table.flags.writeable  # the caller's array is copied, not frozen
    assert box.table.dtype == float and box.table.shape == (2, 2, 2, 2)
    for view in (box.table, box.block(0, 1), pr_box().table):
        with pytest.raises(ValueError, match="read-only"):
            view[..., 0, 0] = 1.0


def test_box_table_shape_must_match_the_labels():
    with pytest.raises(ValidationError, match=r"table has shape \(2, 2, 2\), not \(2, 2, 2, 2\)"):
        Box(((0, 1), (0, 1)), ((0, 1), (0, 1)), np.full((2, 2, 2), 0.25))


@pytest.mark.parametrize("fault", ["scaled", "one column", "missing label", "undeclared label",
                                   "one site", "three sites"])
def test_box_realizations_are_validated(fault):
    # Each declared setting needs one orthonormal (d, d) basis, d its site's outcome count.
    real = [dict(site) for site in with_qubit_realizations(pr_box()).realizations]
    if fault == "scaled":
        real = [{lbl: 2 * u for lbl, u in site.items()} for site in real]
    elif fault == "one column":
        real[1][0] = real[1][0][:, :1]
    elif fault == "missing label":
        del real[0][1]
    elif fault == "undeclared label":
        real[0][2] = real[0][0]
    elif fault == "one site":
        real = real[:1]
    else:
        real = real + real[:1]
    box = pr_box()
    with pytest.raises(ValidationError):
        Box(box.settings, box.outcomes, box.table, tuple(real))
    data = box.to_json()
    data["realizations"] = [{str(lbl): complex_to_json(u) for lbl, u in site.items()}
                            for site in real]
    with pytest.raises(ValidationError):
        Box.from_json(data)


@pytest.mark.parametrize("key", ["0,1", "2,0"])
def test_box_json_blocks_must_match_the_settings(key):
    data = pr_box().to_json()
    if key in data["table"]:
        del data["table"][key]
    else:
        data["table"][key] = data["table"]["0,0"]
    with pytest.raises(ValidationError, match="table blocks"):
        Box.from_json(data)


@pytest.mark.parametrize("labels, message", [
    (((0, 0), (0, 1)), "site 0 repeats setting label 0"),
    (((0, 1), (1, "1")), "site 1 repeats setting label '1'"),
])
def test_box_rejects_repeated_setting_labels(labels, message):
    # A repeated label (or two that print alike) would read one block twice and write
    # colliding JSON keys; the site and the label are named instead.
    with pytest.raises(ValidationError, match=message):
        Box(labels, ((0, 1), (0, 1)), np.full((2, 2, 2, 2), 0.25))


def test_box_rejects_setting_labels_whose_block_keys_collide():
    # ("a,b", "c") and ("a", "b,c") would both be written under the key "a,b,c".
    labels = (("a,b", "a"), ("c", "b,c"))
    with pytest.raises(ValidationError, match="two setting pairs share the table block key 'a,b,c'"):
        Box(labels, ((0, 1), (0, 1)), np.full((2, 2, 2, 2), 0.25))
    data = {"settings": [list(x) for x in labels], "outcomes": [[0, 1], [0, 1]],
            "table": {"a,b,c": [[0.25] * 2] * 2, "a,b,b,c": [[0.25] * 2] * 2,
                      "a,c": [[0.25] * 2] * 2}}
    with pytest.raises(ValidationError, match="two setting pairs share the table block key 'a,b,c'"):
        Box.from_json(data)


def test_box_rejects_a_site_with_no_settings():
    # No settings at a site would pass every check vacuously, and its JSON would not read back.
    with pytest.raises(ValidationError, match="^site 0: no settings$"):
        Box(((), (0, 1)), ((0, 1), (0, 1)), np.zeros((0, 2, 2, 2)))
    data = {"settings": [[0, 1], []], "outcomes": [[0, 1], [0, 1]], "table": {}}
    with pytest.raises(ValidationError, match="^site 1: no settings$"):
        Box.from_json(data)


def test_error_texts_print_numbers_as_python_floats():
    # These texts reach the CLI's {"error": ...} line: no numpy scalar repr in them.
    with pytest.raises(ValidationError) as exc:
        Box(((0,), (0,)), ((0, 1), (0, 1)), np.zeros((1, 1, 2, 2)))
    assert str(exc.value) == "table block 0,0 sums to 0.0, not 1"
    with pytest.raises(ValidationError) as exc:
        check_unit(np.ones(2))
    assert str(exc.value) == "vector norm 1.4142135623730951 deviates from 1 beyond 1e-12"


@pytest.mark.parametrize("n_sites", [1, 3])
def test_box_needs_settings_at_two_sites(n_sites):
    # One site has no table blocks to key, three have blocks the table cannot index.
    settings, outcomes = ((0, 1),) * n_sites, ((0, 1),) * n_sites
    table = np.full((2,) * 2 * n_sites, 0.5 ** n_sites)
    message = f"^a box needs settings at two sites, not {n_sites}$"
    with pytest.raises(ValidationError, match=message):
        Box(settings, outcomes, table)
    data = {"settings": [list(s) for s in settings], "outcomes": [list(o) for o in outcomes],
            "table": {}}
    with pytest.raises(ValidationError, match=message):
        Box.from_json(data)


def test_box_from_json_rejects_repeated_setting_labels():
    # With four blocks, or with the two distinct keys that repeated labels would write.
    data = pr_box().to_json()
    data["settings"][0] = [0, 0]
    short = dict(data, table={k: data["table"][k] for k in ("0,0", "0,1")})
    for d in (data, short):
        with pytest.raises(ValidationError, match="site 0 repeats setting label 0"):
            Box.from_json(d)


def test_check_framefn_needs_a_trial():
    f = make_signalling_example((3, 3), np.pi / 4)
    for trials in (0, -1):
        with pytest.raises(ValidationError, match="trials >= 1"):
            check_framefn(f, trials=trials)


def test_check_framefn_needs_two_sites():
    with pytest.raises(ValidationError, match="2 or more sites"):
        check_framefn(OperatorInduced(random_density(make_rng(0), (3,))))


def test_operator_induced_framefn_passes():
    rng = make_rng(1)
    for seed in range(3):
        t = random_density(rng, (3, 3))
        rep = check_framefn(OperatorInduced(t), trials=50, seed=seed)
        assert rep.max_discrepancy <= 1e-10


def test_signalling_family_witnessed():
    f = make_signalling_example((3, 3), np.pi / 4)
    rep = check_framefn(f, trials=100, seed=2)
    assert rep.max_discrepancy >= 1e-3
    assert rep.witness is not None
    assert rep.witness["site"] == 0  # signalling toward site 1's basis choice


class SignallingTimesUnit(_Evaluated):
    """SignallingFamily(dims[:2], theta) on sites 0 and 1 times |u_0|^2 at site 2:
    weight 1 over every product basis, and only site 0's marginals signal."""

    __call__ = _Evaluated.__call__

    def __init__(self, dims, theta):
        self.dims, self.pair = tuple(dims), SignallingFamily(tuple(dims[:2]), theta)

    def _values(self, sites):
        return self.pair.values(sites[:2]) * np.abs(sites[2][:, 0]) ** 2


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (3, 3, 3)])
def test_operator_induced_framefn_passes_on_three_sites(dims):
    t = random_density(make_rng(sum(dims)), dims)
    rep = check_framefn(OperatorInduced(t), trials=60, seed=len(dims))
    assert rep.max_discrepancy <= 1e-10 and rep.witness is None


def test_three_site_signalling_witnessed_at_site_0():
    rep = check_framefn(SignallingTimesUnit((3, 3, 3), 0.7), trials=100, seed=0)
    assert rep.max_discrepancy >= 1e-3
    w = rep.witness
    assert w["site"] == 0
    # The fixed states at sites 1 and 2, in site order.
    assert [np.shape(x) for x in w["remote_state"]] == [(3,), (3,)]


def looped_check_framefn(f, trials, seed):
    """check_framefn one draw and one product state at a time, in its draw
    order: every trial's site, then per site the remote state of each of its
    trials (one random_unit per other site, in site order), then both bases of
    each: (worst, (trial, site, remote, b1, b2))."""
    dims = f.dims
    rng = make_rng(seed)
    sites = rng.integers(0, len(dims), trials)
    draws = {}
    for site in range(len(dims)):
        idx = [k for k in range(trials) if sites[k] == site]
        xs = [tuple(random_unit(rng, d) for s, d in enumerate(dims) if s != site) for _ in idx]
        bases = [random_onb(rng, dims[site]) for _ in range(2 * len(idx))]
        for n, k in enumerate(idx):
            draws[k] = (xs[n], bases[2 * n], bases[2 * n + 1])
    worst, witness = 0.0, None
    for trial in range(trials):
        site = int(sites[trial])
        x, b1, b2 = draws[trial]

        def marginal(basis):
            total = 0.0
            for k in range(dims[site]):
                factors = list(x)
                factors.insert(site, basis[:, k])
                total += f(ProductState(tuple(factors)))
            return total

        d = abs(marginal(b1) - marginal(b2))
        if d > worst:
            worst, witness = d, (trial, site, x, b1, b2)
    return worst, witness


@pytest.mark.parametrize("dims", [(3, 3), (2, 4), (2, 2, 2), (2, 3, 2)])
@pytest.mark.parametrize("seed", range(10))
def test_check_framefn_matches_looped_check(dims, seed):
    f = (make_signalling_example(dims, np.pi / 4) if len(dims) == 2
         else SignallingTimesUnit(dims, np.pi / 4))
    rep = check_framefn(f, trials=40, seed=seed)
    worst, (trial, site, x, b1, b2) = looped_check_framefn(f, 40, seed)
    assert abs(rep.max_discrepancy - worst) <= 1e-12
    w = rep.witness
    assert (w["trial"], w["site"]) == (trial, site)
    assert len(w["remote_state"]) == len(x) == len(dims) - 1
    for got, want in zip((*w["remote_state"], *w["bases"]), (*x, b1, b2)):
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()
    # An operator-induced frame function does not signal: no witness, and the
    # same discrepancy at rounding level.
    f = OperatorInduced(random_density(make_rng(seed), dims))
    rep = check_framefn(f, trials=40, seed=seed)
    assert rep.witness is None
    assert abs(rep.max_discrepancy - looped_check_framefn(f, 40, seed)[0]) <= 1e-12


def per_site_check_framefn(f, trials, seed):
    """check_framefn as it was, one draw of remote states, one of bases and one
    ``f.values`` call per site (a test-only copy): (worst, witness or None)."""
    dims = tuple(f.dims)
    rng = make_rng(seed)
    sites = rng.integers(0, len(dims), trials)
    gaps, draws = np.zeros(trials), {}
    for site, d in enumerate(dims):
        idx = np.flatnonzero(sites == site)
        if idx.size:
            x = random_units(rng, dims[:site] + dims[site + 1:], len(idx))
            b = random_onbs(rng, (d,), 2 * len(idx))[0]
            local = [y[:, None] for y in x]
            local.insert(site, b.swapaxes(1, 2).reshape(len(idx), 2 * d, d))
            m = f.values(product_rows(local)).reshape(-1, 2, d).sum(axis=2)
            gaps[idx] = np.abs(m[:, 0] - m[:, 1])
            draws[site] = x, b
    worst = float(gaps.max(initial=0.0))
    if worst <= tol.NO_SIGNALLING:
        return worst, None
    trial = int(np.argmax(gaps))
    site = int(sites[trial])
    x, b = draws[site]
    n = int(np.count_nonzero(sites[:trial] == site))
    return worst, {"trial": trial, "site": site, "remote_state": tuple(y[n] for y in x),
                   "bases": (b[2 * n], b[2 * n + 1])}


class CountedValues:
    """A frame function that records the row count of each values() call."""

    def __init__(self, f):
        self.f, self.dims, self.calls = f, f.dims, []

    def values(self, stacks):
        self.calls.append(len(stacks[0]))
        return self.f.values(stacks)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (4, 3), (3, 5), (2, 2, 3), (3, 3, 3),
                                  (2, 4)])
@pytest.mark.parametrize("trials", [1, 2, 40])
@pytest.mark.parametrize("seed", range(3))
def test_one_draw_check_framefn_is_the_per_site_check(dims, trials, seed):
    # trials = 1 leaves every site but one without a trial.
    rng = make_rng(seed + 100)
    theta = rng.uniform(0, np.pi)
    signalling = (make_signalling_example(dims, theta) if len(dims) == 2
                  else SignallingTimesUnit(dims, theta))
    for f in (signalling, OperatorInduced(random_density(rng, dims)),
              OperatorInduced(random_hermitian(rng, dims))):
        counted = CountedValues(f)
        rep = check_framefn(counted, trials=trials, seed=seed)
        assert len(counted.calls) == 1
        sites = make_rng(seed).integers(0, len(dims), trials)
        assert counted.calls[0] == sum(2 * dims[s] for s in sites)
        worst, witness = per_site_check_framefn(f, trials, seed)
        assert np.float64(rep.max_discrepancy).tobytes() == np.float64(worst).tobytes()
        assert (rep.witness is None) == (witness is None)
        if witness is not None:
            got = rep.witness
            assert (got["trial"], got["site"]) == (witness["trial"], witness["site"])
            for g, w in zip((*got["remote_state"], *got["bases"]),
                            (*witness["remote_state"], *witness["bases"])):
                assert g.shape == w.shape and g.tobytes() == w.tobytes()
    # The operator-induced frame functions do not signal; the signalling one does, given
    # trials enough to probe site 0.
    if trials == 40:
        assert rep.witness is None and check_framefn(signalling, trials=40, seed=seed).witness


@pytest.mark.parametrize("trials", [True, False, 2.5, 2.0, np.float64(3), "3", None])
def test_check_framefn_needs_an_integer_trials(trials):
    # Before, True ran one trial and 2.5 raised numpy's TypeError.
    with pytest.raises(ValidationError, match="an integer trials >= 1"):
        check_framefn(make_signalling_example((3, 3), np.pi / 4), trials=trials)


def test_check_framefn_takes_numpy_integer_trials():
    f = make_signalling_example((3, 3), np.pi / 4)
    got, want = check_framefn(f, trials=np.int64(30), seed=2), check_framefn(f, trials=30, seed=2)
    assert got.max_discrepancy == want.max_discrepancy >= 1e-3
    assert (got.witness["trial"], got.witness["site"]) == (want.witness["trial"], want.witness["site"])


def full_vector_features(psi):
    """Feature rows of |psi_n><psi_n| from full vectors psi of shape (N, D), as
    projector_features built them before it took per-site stacks."""
    iu, ju = np.triu_indices(psi.shape[-1], 1)
    upper = psi[..., iu] * psi[..., ju].conj()
    return _coordinates(psi * psi.conj(), 2.0 * upper.real, 2.0 * upper.imag)


def full_basis_products(u, v):
    """Full vectors u[:, i] (x) v[:, j] over the columns of u and v, i major."""
    return (u.T[:, None, :, None] * v.T[None, :, None, :]).reshape(-1, len(u) * len(v))


def looped_positivity_rows(rng, dims, count):
    """_positivity_rows with one random_onb call per local basis."""
    d1, d2 = dims
    psi = [full_basis_products(random_onb(rng, d1), random_onb(rng, d2))
           for _ in range(-(-count // (d1 * d2)))]
    return full_vector_features(np.concatenate(psi)[:count])


@given(st.integers(0, 2**32 - 1), st.sampled_from([(2, 2), (2, 3), (3, 3), (4, 2)]),
       st.integers(1, 60))
@settings(max_examples=30, deadline=None)
def test_positivity_rows_match_looped_draws(seed, dims, count):
    got = _positivity_rows(make_rng(seed), dims, count)
    assert got.tobytes() == looped_positivity_rows(make_rng(seed), dims, count).tobytes()


@given(st.integers(0, 2**32 - 1), st.sampled_from([(2, 2), (2, 3), (3, 3), (4, 2)]),
       st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_box_rows_match_full_vector_products(seed, dims, n_settings):
    # Box tables are byte-identical to product_values on the full product vectors, and
    # equality rows to the feature rows of those vectors.
    rng = make_rng(seed)
    real = tuple({lbl: random_onb(rng, d) for lbl in range(n_settings)} for d in dims)
    t = random_density(rng, dims)
    box = box_from_operator(t, real)
    products = {(a, b): full_basis_products(real[0][a], real[1][b]) for a in real[0] for b in real[1]}
    want = product_values(t.mat, [np.concatenate(list(products.values()))])
    assert box.table.tobytes() == want.tobytes() and box.table.flags.c_contiguous
    rows, vals = _box_equalities(box)
    assert rows.tobytes() == full_vector_features(np.concatenate(list(products.values()))).tobytes()
    assert vals.tobytes() == np.concatenate([box.block(*k).ravel() for k in products]).tobytes()


def test_chsh_singlet_standard_settings():
    assert chsh_value(singlet(), [equator_basis(a) for a in SINGLET_ANGLES]) == pytest.approx(
        TSIRELSON, abs=1e-6
    )


@pytest.mark.parametrize("case", ["three qubits", "qutrit pair", "three settings", "scaled basis",
                                  "qutrit basis", "nan basis"])
def test_chsh_value_rejects_bad_input(case):
    t, settings = singlet(), [equator_basis(a) for a in SINGLET_ANGLES]
    if case == "three qubits":
        t = HermitianOperator((2, 2, 2), np.eye(8) / 8)
    elif case == "qutrit pair":
        t = HermitianOperator((3, 3), np.eye(9) / 9)
    elif case == "three settings":
        settings = settings[:3]
    elif case == "scaled basis":
        settings[1] = settings[1] * (1 + 1e-9)
    elif case == "qutrit basis":
        settings[2] = np.eye(3)
    else:
        settings[3] = np.full((2, 2), np.nan)
    message = {"three qubits": "two-qubit operator", "qutrit pair": "two-qubit operator",
               "three settings": "four setting bases"}.get(case, "not orthonormal")
    with pytest.raises(ValidationError, match=message):
        chsh_value(t, settings)


def test_chsh_product_state_classical_bound():
    t = HermitianOperator((2, 2), proj(np.array([1.0, 0, 0, 0])))
    rng = make_rng(3)
    for _ in range(20):
        angles = rng.uniform(0, 2 * np.pi, 4)
        assert chsh_value(t, [equator_basis(a) for a in angles]) <= 2 + 1e-10


def test_chsh_pr_box_value_4():
    assert chsh_value_box(pr_box()) == pytest.approx(4.0)


def test_chsh_deterministic_box_exactly_2():
    assert chsh_value_box(deterministic_box()) == 2.0


def test_chsh_value_box_needs_two_settings_and_outcomes():
    for shape in ((3, 2, 2, 2), (1, 1, 2, 2), (2, 2, 3, 3)):
        labels = tuple(tuple(range(n)) for n in shape)
        box = Box(labels[:2], labels[2:], np.full(shape, 1.0 / (shape[2] * shape[3])))
        with pytest.raises(ValidationError, match="two settings"):
            chsh_value_box(box)


def test_chsh_optimize_singlet():
    val, settings = chsh_optimize(singlet())
    assert val == pytest.approx(TSIRELSON, abs=1e-4)
    assert len(settings) == 4
    assert abs(val - TSIRELSON) <= 1e-12
    assert abs(chsh_value(singlet(), settings) - TSIRELSON) <= 1e-12


def test_chsh_optimize_maximally_mixed():
    val, settings = chsh_optimize(HermitianOperator((2, 2), np.eye(4) / 4))
    assert abs(val) <= 1e-6
    for basis in settings:  # T = 0: any orthonormal settings are optimal
        np.testing.assert_allclose(basis.conj().T @ basis, np.eye(2), atol=1e-15)


def test_chsh_optimize_swap_below_tsirelson():
    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=float
    )
    val, _ = chsh_optimize(HermitianOperator((2, 2), swap / 2))
    assert val <= TSIRELSON + 1e-4


SIGMA = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def dense_chsh(t, dirs):
    """CHSH of t at Bloch quadruples dirs[n] = (a, a', b, b'), from 4x4 traces."""
    a, a2, b, b2 = np.einsum("nki,ijl->knjl", dirs, SIGMA)
    bell = (np.einsum("nij,nkl->nikjl", a, b + b2)
            + np.einsum("nij,nkl->nikjl", a2, b - b2)).reshape(-1, 4, 4)
    return np.einsum("ij,nji->n", t.mat, bell).real


def nelder_mead_chsh(t, restarts=4, seed=0):
    """Independent optimizer path: best multi-start Nelder-Mead CHSH value."""
    rng = make_rng(seed)

    def neg(x):
        th, ph = x[0::2], x[1::2]
        dirs = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], 1)
        return -dense_chsh(t, dirs[None])[0]

    runs = [minimize(neg, rng.uniform(0, 2 * np.pi, 8), method="Nelder-Mead",
                     options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000})
            for _ in range(restarts)]
    return max(-r.fun for r in runs)


hermitian_4x4 = st.lists(
    st.floats(-1, 1, allow_nan=False), min_size=32, max_size=32
).map(lambda x: np.reshape(x[:16], (4, 4)) + 1j * np.reshape(x[16:], (4, 4)))


@given(hermitian_4x4)
@settings(max_examples=60, deadline=None)
def test_chsh_optimize_settings_reproduce_value(g):
    t = HermitianOperator((2, 2), 0.5 * (g + g.conj().T))  # PSD or not
    val, bases = chsh_optimize(t)
    assert abs(chsh_value(t, bases) - val) <= 1e-12


def test_chsh_optimize_dominates_random_settings():
    rng = make_rng(8)
    ops = [random_density(rng, (2, 2)), random_hermitian(rng, (2, 2)), singlet()]
    for t in ops:
        dirs = rng.standard_normal((2000, 4, 3))
        dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
        assert dense_chsh(t, dirs).max() <= chsh_optimize(t)[0] + 1e-12


def test_chsh_optimize_product_state():
    # rho_A (x) rho_B has a rank-one correlation matrix (s_2 = 0).
    rho_a = (np.eye(2) + 0.6 * SIGMA[0] + 0.2 * SIGMA[2]) / 2
    rho_b = (np.eye(2) - 0.5 * SIGMA[1]) / 2
    t = HermitianOperator((2, 2), np.kron(rho_a, rho_b))
    val, bases = chsh_optimize(t)
    assert val == pytest.approx(2 * np.hypot(0.6, 0.2) * 0.5, abs=1e-12)
    assert abs(chsh_value(t, bases) - val) <= 1e-12
    assert val <= 2.0


def test_chsh_optimize_matches_nelder_mead():
    rng = make_rng(9)
    ops = [singlet(), random_density(rng, (2, 2)), random_hermitian(rng, (2, 2))]
    for seed, t in enumerate(ops):
        exact, nm = chsh_optimize(t)[0], nelder_mead_chsh(t, seed=seed)
        assert nm <= exact + 1e-12
        assert nm >= exact - 1e-6


def test_chsh_optimize_rejects_qutrits():
    with pytest.raises(ValidationError):
        chsh_optimize(HermitianOperator((3, 3), np.eye(9) / 9))


def test_quantum_extension_singlet_feasible():
    box = box_from_operator(singlet(), optimal_realizations())
    verdict = quantum_extension(box, positivity_samples=500, seed=1)
    assert verdict.verdict == "FEASIBLE"
    assert verdict.residual <= 1e-8
    # The returned operator reproduces the box table.
    back = box_from_operator(verdict.t, box.realizations)
    for a in (0, 1):
        for b in (0, 1):
            np.testing.assert_allclose(
                back.block(a, b), box.block(a, b), atol=1e-7
            )


def test_box_from_operator_rejects_unnormalized_operator():
    # Each block of a trace-2 singlet sums to 2; nothing rescales it to 1.
    t = HermitianOperator((2, 2), 2 * singlet().mat)
    with pytest.raises(ValidationError, match="sums to"):
        box_from_operator(t, optimal_realizations())


def test_box_from_operator_rejects_negative_probability():
    # Unit trace, but <00|t|00> = -0.26: the computational box is not clipped.
    t = HermitianOperator((2, 2), np.diag([-0.26, 0.5, 0.5, 0.26]))
    computational = {0: equator_basis(0.0)}
    with pytest.raises(ValidationError, match="negative probability"):
        box_from_operator(t, (computational, computational))


@pytest.mark.parametrize("case, message", [
    ("2x2 and 3x3 at a site", r"site 0 setting 1: no orthonormal \(2, 2\) basis"),
    ("bases of another dim", r"site 0 setting 0: no orthonormal \(2, 2\) basis"),
    ("empty site", "site 1: no settings"),
    ("one site", "a box needs bases at t's two sites"),
    ("not orthonormal", r"site 1 setting 0: no orthonormal \(2, 2\) basis"),
    ("NaN basis", r"site 0 setting 1: no orthonormal \(2, 2\) basis")])
def test_box_from_operator_names_the_site_and_setting_of_a_bad_basis(case, message):
    # The shapes are checked before the table is tabulated and the bases before its blocks,
    # so no numpy error or table message stands in for the bad basis.
    real = [dict(site) for site in optimal_realizations()]
    if case == "2x2 and 3x3 at a site":
        real[0][1] = np.eye(3, dtype=complex)
    elif case == "bases of another dim":
        real[0] = {lbl: np.eye(3, dtype=complex) for lbl in real[0]}
    elif case == "empty site":
        real[1] = {}
    elif case == "one site":
        real = real[:1]
    elif case == "not orthonormal":
        real[1][0] = 0.93 * real[1][0]
    else:
        real[0][1] = np.full((2, 2), np.nan, dtype=complex)
    with pytest.raises(ValidationError, match=message):
        box_from_operator(singlet(), tuple(real))


@pytest.mark.parametrize("block", [[[np.nan] * 2] * 2, [[np.nan, 0.5], [0.5, 0.0]],
                                   [[np.inf, 0.0], [0.0, 0.0]]])
def test_box_rejects_non_finite_probabilities(block):
    # A comparison with NaN is false, so both block checks are written to fail on it.
    table = pr_box().table.copy()
    table[0, 0] = block
    with pytest.raises(ValidationError):
        Box(((0, 1), (0, 1)), ((0, 1), (0, 1)), table)


def test_quantum_extension_white_noise():
    real = optimal_realizations()
    table = np.full((2, 2, 2, 2), 0.25)
    box = Box(((0, 1), (0, 1)), ((0, 1), (0, 1)), table, real)
    verdict = quantum_extension(box, positivity_samples=300, seed=2)
    assert verdict.verdict == "FEASIBLE"
    np.testing.assert_allclose(verdict.t.mat, np.eye(4) / 4, atol=1e-6)


def test_quantum_extension_pr_box_infeasible():
    box = with_qubit_realizations(pr_box())
    verdict = quantum_extension(box, positivity_samples=2000, seed=3)
    assert verdict.verdict == "INFEASIBLE"
    assert verdict.residual >= 1e-4


def test_quantum_extension_requires_realizations():
    with pytest.raises(ValidationError, match="realizations"):
        quantum_extension(pr_box(), positivity_samples=10, seed=0)


def test_max_chsh_lp_monotone_and_bounded():
    box = with_qubit_realizations(pr_box())
    bounds = max_chsh_lp(box, (250, 500, 1000, 2000), seed=4)
    for b1, b2 in zip(bounds, bounds[1:]):
        assert b2 <= b1 + 1e-9
    assert bounds[-1] < 3.2
    assert bounds[-1] >= TSIRELSON - 1e-6  # the LP relaxes the true quantum set


def test_max_chsh_lp_reads_the_bases_in_setting_order():
    # A file that lists site 0's realizations "1" before "0" is the same box.
    box = with_qubit_realizations(pr_box())
    data = box.to_json()
    data["realizations"][0] = dict(reversed(data["realizations"][0].items()))
    back = Box.from_json(data)
    assert list(back.realizations[0]) == [1, 0]
    bounds = [np.array(max_chsh_lp(b, (250, 500), seed=0)) for b in (box, back)]
    assert bounds[0].tobytes() == bounds[1].tobytes()
    with pytest.raises(ValidationError, match="realizations"):
        max_chsh_lp(pr_box(), (250,), seed=0)
    three = Box(((0, 1, 2), (0, 1)), box.outcomes, np.full((3, 2, 2, 2), 0.25),
                ({**box.realizations[0], 2: equator_basis(np.pi)}, box.realizations[1]))
    with pytest.raises(ValidationError, match="two settings and two outcomes"):
        max_chsh_lp(three, (250,), seed=0)


def failed_linprog(status, message):
    def fake(*args, **kwargs):
        return OptimizeResult(status=status, success=False, message=message,
                              x=None, fun=None)
    return fake


def test_quantum_extension_solver_failure_is_error(monkeypatch):
    lp_only(monkeypatch)
    monkeypatch.setattr("nsgleason.nosig.linprog",
                        failed_linprog(4, "Numerical difficulties encountered."))
    verdict = quantum_extension(with_qubit_realizations(pr_box()),
                                positivity_samples=50, seed=0)
    assert verdict.verdict == "ERROR"
    assert verdict.solver_status == 4
    assert "Numerical" in verdict.solver_message
    assert verdict.to_json()["solver_status"] == 4


def density_boxes(count, dims=(2, 3), base=700):
    """(seed, box) of random densities at (d, d) with random realizations."""
    for k in range(count):
        for d in dims:
            rng = make_rng(base + k)
            t = random_density(rng, (d, d))
            real = tuple({a: random_onb(rng, d) for a in (0, 1)} for _ in (0, 1))
            yield k, box_from_operator(t, real)


def lp_only(monkeypatch):
    """Skip both certificates, decomposition and separation: the LP loop alone decides."""
    monkeypatch.setattr("nsgleason.nosig._decomposition", lambda box: None)


@pytest.fixture(scope="module")
def density_extensions():
    return [(k, box, quantum_extension(box, positivity_samples=500, seed=k))
            for k, box in density_boxes(12)]


def test_quantum_boxes_are_feasible(density_extensions):
    assert len(density_extensions) >= 20
    for *_, verdict in density_extensions:
        assert (verdict.verdict, verdict.rounds, verdict.candidate) == (
            "FEASIBLE", 0, "decomposition")


def swapped_box(box: Box) -> Box:
    """The box with its sites exchanged: P'[b, a, B, A] = P[a, b, A, B]."""
    real = None if box.realizations is None else box.realizations[::-1]
    return Box(box.settings[::-1], box.outcomes[::-1], box.table.transpose(1, 0, 3, 2), real)


def site_swap(t: HermitianOperator) -> HermitianOperator:
    d1, d2 = t.dims
    return HermitianOperator((d2, d1), t.mat.reshape(d1, d2, d1, d2).transpose(
        1, 0, 3, 2).reshape(d1 * d2, d1 * d2))


def witness_gap(box: Box, witness: dict) -> float:
    """The largest change of the witness site's marginal at its setting between the two
    remote settings it names, computed from the table as check_box computes marginals."""
    site = witness["site"]
    m = box.table.sum(axis=3 - site)  # [a, b, outcome of the site]
    m = m.swapaxes(0, 1) if site else m  # [setting of the site, remote setting, outcome]
    a = box.settings[site].index(witness["setting"])
    i, j = (box.settings[1 - site].index(r) for r in witness["remote_pair"])
    return float(np.abs(m[a, i] - m[a, j]).max())


@given(st.integers(0, 2**32 - 1), st.sampled_from([(2, 2), (2, 3), (3, 3), (3, 4)]),
       st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_boxes_are_covariant_under_local_unitaries_and_the_swap(seed, dims, n_settings):
    # The box of (U (x) V) t (U (x) V)^dagger on bases U A_a and V B_b is the box of t on
    # A_a and B_b; the swapped t on the swapped bases gives the transposed table.
    rng = make_rng(seed)
    real = tuple({lbl: random_onb(rng, d) for lbl in range(n_settings)} for d in dims)
    t = random_density(rng, dims)
    box = box_from_operator(t, real)
    u, v = random_onb(rng, dims[0]), random_onb(rng, dims[1])
    uv = np.kron(u, v)
    rotated = box_from_operator(HermitianOperator(dims, uv @ t.mat @ uv.conj().T), tuple(
        {lbl: w @ b for lbl, b in site.items()} for w, site in zip((u, v), real)))
    assert np.abs(rotated.table - box.table).max() <= 1e-12
    swapped = box_from_operator(site_swap(t), real[::-1])
    assert np.abs(swapped.table - box.table.transpose(1, 0, 3, 2)).max() <= 1e-12
    # check_box reads a box and its swap alike, and names a maximum as its witness: on the
    # quantum box and on a signalling one of random conditional distributions.
    p = rng.random(box.table.shape)
    signalling = Box(box.settings, box.outcomes, p / p.sum(axis=(2, 3), keepdims=True))
    for b in (box, signalling):
        reports = [(x, check_box(x)) for x in (b, swapped_box(b))]
        assert reports[0][1].max_discrepancy == reports[1][1].max_discrepancy
        for x, rep in reports:
            assert (rep.witness is None) is rep.passed
            if rep.witness is not None:
                assert witness_gap(x, rep.witness) == rep.max_discrepancy


def test_extension_verdicts_are_invariant_under_the_swap(density_extensions):
    pr = with_qubit_realizations(pr_box())
    cases = [(0, pr, quantum_extension(pr, positivity_samples=500, seed=0)), *density_extensions]
    for k, box, verdict in cases:
        swapped = quantum_extension(swapped_box(box), positivity_samples=500, seed=k)
        assert swapped.verdict == verdict.verdict, k
    assert cases[0][2].verdict == "INFEASIBLE"


def test_reports_compare_and_hash_bit_for_bit():
    # Before, == raised "truth value of an array is ambiguous" on two reports that carried
    # a witness, a dict holding arrays.
    f = make_signalling_example((3, 3), 0.7)
    got, again = check_framefn(f, trials=20, seed=1), check_framefn(f, trials=20, seed=1)
    assert got.witness is not None and got == again and hash(got) == hash(again)
    assert got != check_framefn(f, trials=20, seed=2)
    first, second = got.witness["bases"]
    nudged = first.copy()
    nudged[0, 0] = np.nextafter(nudged[0, 0].real, 2.0) + 1j * nudged[0, 0].imag
    assert got != NoSigReport(got.max_discrepancy, dict(got.witness, bases=(nudged, second)))
    p = np.full((2, 2, 2, 2), 0.25)
    p[0, 0] = [[0.5, 0.5], [0.0, 0.0]]
    box = Box(((0, 1), (0, 1)), ((0, 1), (0, 1)), p)
    assert check_box(box).witness is not None and check_box(box) == check_box(box)
    assert NoSigReport(0.0) != NoSigReport(-0.0) and NoSigReport(np.nan) == NoSigReport(np.nan)
    assert NoSigReport(0.5) == NoSigReport(0.5) and NoSigReport(0.5) != got


def test_boxes_compare_and_hash_bit_for_bit():
    # Before, == raised "truth value of an array is ambiguous" and hash "unhashable type".
    assert pr_box() == pr_box() and hash(pr_box()) == hash(pr_box())
    box = with_qubit_realizations(pr_box())
    assert box == with_qubit_realizations(pr_box()) and len({box, pr_box(), box}) == 2
    assert box != pr_box()  # the same table, unrealized
    table = box.table.copy()
    table.view(np.uint64)[0] ^= 1
    assert Box(box.settings, box.outcomes, table, box.realizations) != box
    basis = box.realizations[0][0].copy()
    basis.view(np.uint64)[0] ^= 1
    realizations = ({**box.realizations[0], 0: basis}, box.realizations[1])
    assert Box(box.settings, box.outcomes, box.table, realizations) != box
    assert Box(box.settings, box.outcomes, box.table, box.realizations) == box


@given(st.sampled_from([(2, 2), (2, 3), (3, 3)]), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_decomposition_certificate_rebuilds_the_box(dims, seed):
    rng = make_rng(seed)
    real = tuple({a: random_onb(rng, d) for a in (0, 1)} for d in dims)
    box = box_from_operator(random_density(rng, dims), real)
    cert = _decomposition(box)
    assert isinstance(cert, Decomposition)
    a, b = cert.a.mat, cert.b.mat
    for factor, cited in zip((a, b), cert.min_eigs):
        least = np.linalg.eigvalsh(factor)[0]
        assert least >= -tol.PSD and least == pytest.approx(cited, abs=1e-12)
    d0, d1 = dims  # B^Γ transposes B's site-0 indices
    b_gamma = b.reshape(d0, d1, d0, d1).transpose(2, 1, 0, 3).reshape(d0 * d1, -1)
    t = HermitianOperator(dims, a + b_gamma).mat  # Hermitian within HERMITICITY
    for i, u in enumerate(box.bases[0]):
        for j, v in enumerate(box.bases[1]):
            psi = np.einsum("ak,bl->klab", u, v).reshape(d0 * d1, -1)  # u_k (x) v_l, rows
            values = np.einsum("na,ab,nb->n", psi.conj(), t, psi).real
            assert np.abs(values - box.table[i, j].ravel()).max() <= tol.FEASIBLE_RESIDUAL
    assert abs(np.trace(t).real - 1.0) <= tol.UNIT_TRACE


def test_feasible_extensions_reproduce_their_boxes(density_extensions):
    # Independent of the LP's feature rows: each entry is <u (x) v|t|u (x) v>.
    checked = 0
    for k, box, verdict in density_extensions:
        if verdict.verdict != "FEASIBLE":
            continue
        t = verdict.t.mat
        for a in box.settings[0]:
            for b in box.settings[1]:
                u, v = box.realizations[0][a], box.realizations[1][b]
                for i in range(u.shape[1]):
                    for j in range(v.shape[1]):
                        psi = np.kron(u[:, i], v[:, j])
                        value = (psi.conj() @ t @ psi).real
                        assert abs(value - box.block(a, b)[i, j]) <= tol.FEASIBLE_RESIDUAL
        assert abs(np.trace(t).real - 1.0) <= tol.UNIT_TRACE
        wit = product_seesaw_min(verdict.t, restarts=64, seed=10_000 + k)
        assert wit.value >= -tol.PRODUCT_POSITIVE
        checked += 1
    assert checked >= 20


def counting_linprog(monkeypatch, fail_at=None, status=4):
    """Route nosig's linprog through a log of the rows each call passes; call number
    fail_at returns the HiGHS status (4: numerical difficulties, 3: unbounded) unsolved."""
    rows = []
    message = {3: "The problem is unbounded.", 4: "Numerical difficulties encountered."}

    def fake(*args, **kwargs):
        rows.append(kwargs["A_ub"].shape[0])
        if len(rows) == fail_at:
            return failed_linprog(status, message[status])()
        return linprog(*args, **kwargs)

    monkeypatch.setattr("nsgleason.nosig.linprog", fake)
    return rows


def white_noise_box():
    return Box(((0, 1), (0, 1)), ((0, 1), (0, 1)), np.full((2, 2, 2, 2), 0.25),
               optimal_realizations())


@pytest.mark.parametrize("case, fail_at, verdict, rounds", [
    ("PR box", None, "INFEASIBLE", 1), ("white noise", None, "FEASIBLE", 1),
    ("density 3", None, "AMBIGUOUS", 5), ("density 3", 3, "ERROR", 3)])
def test_every_lp_round_solves_one_lp(monkeypatch, case, fail_at, verdict, rounds):
    box = {"PR box": with_qubit_realizations(pr_box()), "white noise": white_noise_box(),
           "density 3": next(box for _, box in density_boxes(1, dims=(3,)))}[case]
    lp_only(monkeypatch)
    calls = counting_linprog(monkeypatch, fail_at=fail_at)
    out = quantum_extension(box, positivity_samples=300, seed=0)
    assert (out.verdict, out.rounds, len(calls)) == (verdict, rounds, rounds)
    assert out.candidate == (None if verdict in ("INFEASIBLE", "ERROR") else "vertex")


def test_ambiguous_report_cites_the_seesaw_minimum(monkeypatch):
    # The LP-only loop leaves this (3,3) density box AMBIGUOUS: its last see-saw found a
    # negative product value, which the report carries.
    lp_only(monkeypatch)
    out = quantum_extension(next(box for _, box in density_boxes(1, dims=(3,))),
                            positivity_samples=300, seed=0)
    rep = out.to_json()
    assert out.verdict == "AMBIGUOUS" and rep["seesaw_min"] == out.seesaw_min
    assert out.seesaw_min < -tol.PRODUCT_POSITIVE


def noisy_pr_box(visibility):
    table = visibility * pr_box().table + (1 - visibility) / 4
    return with_qubit_realizations(Box(pr_box().settings, pr_box().outcomes, table))


def nudged_box(eps):
    """A (2,2) density box with P(0,0|0,0) and P(0,1|0,0) moved by +-eps: site 2
    signals by eps, below the 1e-7 row tolerance of HiGHS."""
    _, box = next(density_boxes(1, dims=(2,)))
    table = box.table.copy()
    table[0, 0, 0] += [eps, -eps]
    return Box(box.settings, box.outcomes, table, box.realizations)


def parent_round_one(box, samples, seed):
    """Round 1 of quantum_extension before the re-centring LP existed, copied:
    (verdict, residual, t, seesaw_min), or None when the round decided nothing."""
    dims = tuple(r[next(iter(r))].shape[0] for r in box.realizations)
    d_total = int(np.prod(dims))
    n_var = d_total * d_total
    eq_rows, eq_vals = _box_equalities(box)
    pos_rows = _positivity_rows(make_rng(seed), dims, samples)
    n_eq = len(eq_vals)
    c = np.zeros(n_var + 1)
    c[-1] = 1.0
    a_ub = np.zeros((2 * n_eq + len(pos_rows), n_var + 1))
    b_ub = np.zeros(2 * n_eq + len(pos_rows))
    a_ub[:n_eq, :n_var] = eq_rows
    a_ub[:n_eq, -1] = -1.0
    b_ub[:n_eq] = eq_vals
    a_ub[n_eq:2 * n_eq, :n_var] = -eq_rows
    a_ub[n_eq:2 * n_eq, -1] = -1.0
    b_ub[n_eq:2 * n_eq] = -eq_vals
    a_ub[2 * n_eq:, :n_var] = -pos_rows
    a_eq = np.concatenate([feature_of(np.eye(d_total)), [0.0]])[None, :]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
                  bounds=[(None, None)] * n_var + [(0, None)], method="highs")
    residual = float(res.x[-1])
    if residual > tol.INFEASIBLE_RESIDUAL:
        return "INFEASIBLE", residual, None, None
    t = HermitianOperator(dims, vec_to_herm(res.x[:n_var]))
    wit = product_seesaw_min(t, restarts=16, seed=seed + 1)
    if wit.value >= -tol.PRODUCT_POSITIVE:
        verdict = "FEASIBLE" if residual <= tol.FEASIBLE_RESIDUAL else "AMBIGUOUS"
        return verdict, residual, t, wit.value
    return None


def test_round_one_decisions_are_unchanged(monkeypatch):
    lp_only(monkeypatch)
    cases = [(with_qubit_realizations(pr_box()), 2000, seed) for seed in range(3)]
    cases += [(noisy_pr_box(v), 500, 5) for v in (0.5, 0.7, 0.8, 0.95)]
    cases += [(box_from_operator(singlet(), optimal_realizations()), 500, 1)]
    cases += [(white_noise_box(), 300, 2)]
    cases += [(with_qubit_realizations(deterministic_box()), 300, 3)]
    cases += [(box, 1000, i) for i, (_, box) in enumerate(density_boxes(12, base=500))]
    decided = []
    for box, samples, seed in cases:
        ref = parent_round_one(box, samples, seed)
        if ref is None:
            continue
        verdict, residual, t, seesaw = ref
        out = quantum_extension(box, positivity_samples=samples, seed=seed)
        assert (out.verdict, out.residual, out.seesaw_min, out.rounds) == (
            verdict, residual, seesaw, 1)
        if t is None:
            assert out.t is None
        else:
            assert out.candidate == "vertex"
            assert out.t.mat.tobytes() == t.mat.tobytes()
        decided.append(verdict)
    assert decided.count("INFEASIBLE") >= 6 and decided.count("FEASIBLE") >= 4


def test_extension_verdict_cites_its_tolerances(monkeypatch, density_extensions):
    _, _, verdict = density_extensions[0]
    out = verdict.to_json()
    assert out["feasible_threshold"] == tol.FEASIBLE_RESIDUAL
    assert out["product_positive_threshold"] == tol.PRODUCT_POSITIVE
    assert out["infeasibility_threshold"] == tol.INFEASIBLE_RESIDUAL
    assert out["candidate"] == verdict.candidate in ("decomposition", "vertex")
    assert out["psd_threshold"] == tol.PSD
    assert out["certificate"] == verdict.certificate.to_json()
    assert min(out["certificate"]["min_eig_a"], out["certificate"]["min_eig_b"]) >= -tol.PSD
    assert out["rounds"] == 0 and 1 <= out["certificate"]["steps"] <= tol.DECOMPOSITION_STEPS
    box = with_qubit_realizations(pr_box())
    separated = quantum_extension(box, 500, seed=0)
    sep = separated.to_json()
    assert sep["verdict"] == "INFEASIBLE" and "candidate" not in sep and "t" not in sep
    assert sep["psd_threshold"] == tol.PSD and sep["rounds"] == 0
    assert 1 <= sep["certificate"]["steps"] <= tol.DECOMPOSITION_STEPS
    assert sep["certificate"] == separated.certificate.to_json()
    assert sep["residual"] == sep["certificate"]["floor"] > sep["infeasibility_threshold"]
    assert min(sep["certificate"]["min_eig_w"], sep["certificate"]["min_eig_w_gamma"]) >= -tol.PSD
    lp_only(monkeypatch)
    excluded = quantum_extension(box, 500, seed=0).to_json()
    assert excluded["verdict"] == "INFEASIBLE" and "candidate" not in excluded
    assert "certificate" not in excluded and "psd_threshold" not in excluded


def extension_sweep():
    """(name, box, samples, seed) on both sides of the quantum set's boundary."""
    cases = [(f"PR box, seed {s}", with_qubit_realizations(pr_box()), 500, s) for s in range(3)]
    cases += [(f"noisy PR {v}, seed {s}", noisy_pr_box(v), 500, s)
              for v in (0.7, 0.707) for s in range(3)]
    cases += [(f"noisy PR {v}", noisy_pr_box(v), 500, 1)
              for v in (0.5, 0.7072, 0.71, 0.72, 0.75, 0.8, 1.0)]
    return cases + [(f"nudged {eps}", nudged_box(eps), 500, 0) for eps in (2e-8, 4e-8)]


def test_certificate_only_turns_ambiguous_into_feasible(monkeypatch):
    # A decomposable t is nonnegative on every product state, and a separation's floor
    # bounds the residual of every product-positive t, whereas the LP loop sees sampled
    # product states only: the certificates can only decide what the LP loop left AMBIGUOUS.
    sweep = extension_sweep() + [(f"density {box.bases[0].shape[-1]}, seed {k}", box, 500, k)
                                 for k, box in density_boxes(12)]
    runs = []
    for name, box, samples, seed in sweep:
        with monkeypatch.context() as mp:
            lp_only(mp)
            lp = quantum_extension(box, positivity_samples=samples, seed=seed)
        runs.append((name, lp, quantum_extension(box, positivity_samples=samples, seed=seed)))
    changed = [name for name, lp, out in runs if lp.verdict != out.verdict]
    separated = ["noisy PR 0.71", "noisy PR 0.72", "noisy PR 0.75"]
    assert changed == [f"noisy PR {v}, seed {s}" for v in (0.7, 0.707) for s in range(3)] + (
        ["noisy PR 0.5"] + separated + ["nudged 2e-08"]
        + [name for name, *_ in sweep if name.startswith("density")])
    verdicts = {name: (lp.verdict, out.verdict) for name, lp, out in runs}
    assert all(verdicts[name] == ("AMBIGUOUS", "INFEASIBLE" if name in separated else "FEASIBLE")
               for name in changed)
    for name, lp, out in runs:
        if name.startswith("PR box") or name in separated + ["noisy PR 0.8", "noisy PR 1.0"]:
            assert out.verdict == "INFEASIBLE" and out.rounds == 0
            assert out.residual == out.certificate.floor > tol.INFEASIBLE_RESIDUAL
        if name.startswith("PR box") or name in ("noisy PR 0.8", "noisy PR 1.0"):
            assert lp.verdict == "INFEASIBLE"
        if name in ("noisy PR 0.7072", "noisy PR 0.71", "noisy PR 0.72"):
            assert out.verdict != "FEASIBLE"
        if out.rounds > 0:  # the LP loop decided
            assert (out.verdict, out.residual) == (lp.verdict, lp.residual)
        if out.verdict == "FEASIBLE" and lp.verdict != "FEASIBLE":
            assert out.candidate == "decomposition" and out.rounds == 0
        if out.verdict == "INFEASIBLE" and out.rounds == 0:
            assert isinstance(out.certificate, Separation) and out.t is None
    assert verdicts["noisy PR 0.7072"] == ("AMBIGUOUS", "AMBIGUOUS")


def embedded_noisy_pr_box(visibility, dims):
    """Noisy PR box on sites of dims (2 or 3 outcomes); a qutrit's third outcome is unused."""
    qubits = noisy_pr_box(visibility)
    table = np.zeros((2, 2, *dims))
    table[:, :, :2, :2] = qubits.table
    realizations = []
    for site, d in zip(qubits.realizations, dims):
        realizations.append({})
        for lbl, u in site.items():
            realizations[-1][lbl] = np.eye(d, dtype=complex)
            realizations[-1][lbl][:2, :2] = u
    return Box(qubits.settings, tuple(tuple(range(d)) for d in dims), table, tuple(realizations))


def rebuilt_witness(box, y):
    """W = Σ y |u (x) v><u (x) v| and W^Γ = Σ y |conj(u) (x) v><conj(u) (x) v| over the
    box's entries, from outer products of the realization columns."""
    d0, d1 = (u.shape[-1] for u in box.bases)
    w = np.zeros((2, d0 * d1, d0 * d1), dtype=complex)
    for i, u in enumerate(box.bases[0]):
        for j, v in enumerate(box.bases[1]):
            for k in range(d0):
                for m in range(d1):
                    for n, left in enumerate((u[:, k], u[:, k].conj())):
                        psi = np.kron(left, v[:, m])
                        w[n] += y[i, j, k, m] * np.outer(psi, psi.conj())
    return w


@given(st.floats(0.71, 1.0), st.sampled_from([(2, 2), (2, 3), (3, 2)]),
       st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_separation_is_a_ppt_witness(visibility, dims, seed):
    box = embedded_noisy_pr_box(visibility, dims)
    cert = _decomposition(box)
    assert isinstance(cert, Separation)
    y = cert.coefficients
    w, w_gamma = rebuilt_witness(box, y)
    d0, d1 = dims  # W^Γ transposes W's site-0 indices
    assert np.abs(w.reshape(d0, d1, d0, d1).transpose(2, 1, 0, 3).reshape(d0 * d1, -1)
                  - w_gamma).max() <= tol.HERMITICITY
    least = np.linalg.eigvalsh(np.stack([w, w_gamma]))[:, 0]
    assert least.min() >= -tol.PSD
    np.testing.assert_allclose(least, cert.min_eigs, atol=1e-12)
    floor = (-np.sum(y * box.table) - tol.PSD) / np.abs(y).sum()
    assert floor == pytest.approx(cert.floor, rel=1e-9) and floor > tol.INFEASIBLE_RESIDUAL
    # Any unit-trace t = A + B^Γ with A, B >= 0 misses some box entry by at least the floor.
    rng = make_rng(seed)
    p = rng.uniform()
    t = p * random_density(rng, dims).mat + (1 - p) * partial_transpose(
        random_density(rng, dims), 0).mat
    assert np.trace(w @ t).real >= -tol.PSD
    values = [[np.diag(np.kron(u, v).conj().T @ t @ np.kron(u, v)).real.reshape(d0, d1)
               for v in box.bases[1]] for u in box.bases[0]]
    assert np.abs(np.array(values) - box.table).max() >= floor
    out = quantum_extension(box, positivity_samples=50, seed=0)
    assert (out.verdict, out.residual, out.rounds, out.t) == ("INFEASIBLE", cert.floor, 0, None)
    assert out.certificate.steps == cert.steps <= 50


def decomposition_rows(box):
    """The rows and targets of the decomposition search, built densely: the real view of
    each entry's (E, E^Γ), then (I, I) for the trace."""
    stacks = _box_products(box.bases)
    psi = np.stack([tensor_rows(stacks), tensor_rows([stacks[0].conj(), stacks[1]])], axis=1)
    d_total = psi.shape[-1]
    ops = np.concatenate([psi[..., :, None] * psi[..., None, :].conj(),
                          np.broadcast_to(np.eye(d_total), (1, 2, d_total, d_total))])
    return ops.view(float).reshape(len(ops), -1), np.append(box.table.ravel(), 1.0)


def hundred_step_floor(box):
    """The Separation floor of the decomposition search as it ran before it stopped on a
    stalled correction, copied: a fixed 100 steps, then the witness of the last one, with
    the dense pseudo-inverse of the rows."""
    rows, vals = decomposition_rows(box)
    d_total = int(np.prod(box.table.shape[2:]))
    pinv = np.linalg.pinv(rows)
    x = pinv @ vals
    for _ in range(100):
        w, vecs = np.linalg.eigh(x.view(complex).reshape(2, d_total, d_total))
        pair = (vecs * np.maximum(w, 0.0)[:, None, :]) @ vecs.conj().swapaxes(1, 2)
        x = pair.view(float).ravel()
        g = -(pinv @ (rows @ x - vals))
        x = x + g
    y = -pinv.T @ g
    witness = (rows.T @ y).view(complex).reshape(2, d_total, d_total)
    shift = max(0.0, -np.linalg.eigvalsh(witness)[:, 0].min()) + tol.PSD
    y, y_trace = y[:-1], y[-1]
    y[:box.table[0, 0].size] += y_trace + shift
    return float((-y @ vals[:-1] - tol.PSD) / np.abs(y).sum())


def assert_pinv_is_the_dense_one(box, rank):
    """The factored pseudo-inverse of the dense rows has the rank of np.linalg.pinv's, and each
    entry lies within 32 eps kappa max|pinv| of it, kappa = σ_max / σ_min of the rows over the
    singular values that pinv keeps: the first-order error of a pseudo-inverse, taken 32 times
    (at most 6.7 times was seen on 300 random boxes and 75 with settings 1e-5 to 1e-9 apart).
    The factored one is the factored solve at the unit targets, and the search's first
    iterate, the same solve at the box's own targets, lies within that bound times ||vals||_1
    of the factored pseudo-inverse times the targets."""
    rows, vals = decomposition_rows(box)
    factors, unit = _site_factors(box.bases), np.eye(len(vals))
    ref = np.linalg.pinv(rows)
    ours = _least_norm_point(factors, unit[:, :-1].reshape(-1, *box.table.shape), unit[:, -1]).T
    assert ours.shape == ref.shape
    assert np.linalg.matrix_rank(ref) == np.linalg.matrix_rank(ours) == rank
    sv = np.linalg.svd(rows, compute_uv=False)
    kappa = sv[0] / sv[rank - 1]
    bound = 32 * np.finfo(float).eps * kappa * np.abs(ref).max()
    assert np.abs(ours - ref).max() <= bound
    first = _least_norm_point(factors, box.table[None], np.ones(1))[0]
    assert np.abs(first - ours @ vals).max() <= bound * np.abs(vals).sum()


def site_rank(n_settings, d):
    """Feature rank of n generic bases of C^d: each adds d - 1 beyond their common identity."""
    return min(n_settings * (d - 1) + 1, d * d)


@given(st.tuples(st.integers(2, 4), st.integers(2, 4)),
       st.tuples(st.integers(2, 4), st.integers(2, 4)), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_equality_pinv_is_the_dense_pinv(dims, n_settings, seed):
    rng = make_rng(seed)
    real = tuple({a: random_onb(rng, d) for a in range(n)} for d, n in zip(dims, n_settings))
    box = box_from_operator(random_density(rng, dims), real)
    assert_pinv_is_the_dense_one(box, site_rank(n_settings[0], dims[0])
                                 * site_rank(n_settings[1], dims[1]))


def degenerate_box(dims, case, seed=3):
    """A density box with three settings at site 0, the second a copy of the first or the
    first turned by exp(1e-7 i H), and two at site 1."""
    rng = make_rng(seed)
    u = random_onb(rng, dims[0])
    w, vecs = np.linalg.eigh(random_hermitian(rng, (dims[0],)).mat)
    twin = u.copy() if case == "repeated basis" else (vecs * np.exp(1e-7j * w)) @ vecs.conj().T @ u
    real = ({0: u, 1: twin, 2: random_onb(rng, dims[0])},
            {0: random_onb(rng, dims[1]), 1: random_onb(rng, dims[1])})
    return box_from_operator(random_density(rng, dims), real)


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (4, 4), (2, 4), (4, 3)])
@pytest.mark.parametrize("case", ["repeated basis", "settings 1e-7 apart"])
def test_equality_pinv_on_degenerate_settings(dims, case):
    # A repeated basis adds no rank at its site; one 1e-7 away adds full rank, with
    # singular values near 1e-7 (above tolerances.FEATURE_RANK) and rows of condition ~1e7.
    first = site_rank(2 if case == "repeated basis" else 3, dims[0])
    assert_pinv_is_the_dense_one(degenerate_box(dims, case), first * site_rank(2, dims[1]))


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_nearly_equal_settings_keep_the_pair_hermitian(dims):
    # With rows of condition ~1e7 the dense pseudo-inverse's rounding moved the pair off
    # Hermitian by more than tolerances.HERMITICITY, and the search raised ValidationError
    # building a factor.  The factored one is made of Hermitian operators.
    out = quantum_extension(degenerate_box(dims, "settings 1e-7 apart", seed=0),
                            positivity_samples=300, seed=0)
    assert (out.verdict, out.rounds, out.candidate) == ("FEASIBLE", 0, "decomposition")


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
@pytest.mark.parametrize("visibility", [0.71, 0.72, 0.75, 0.8, 0.9, 1.0])
def test_separation_stops_when_its_correction_stalls(visibility, dims):
    # Outside the quantum set ||g|| levels off at the distance of the two sets: the search
    # stops within 50 steps, and its floor is the one that 100 steps gave.
    box = embedded_noisy_pr_box(visibility, dims)
    cert = _decomposition(box)
    assert isinstance(cert, Separation) and cert.steps <= 50
    assert cert.floor == pytest.approx(hundred_step_floor(box), abs=1e-9)
    assert cert.to_json()["steps"] == cert.steps


def counted_work(monkeypatch):
    """The names of the nosig helpers called from here on, one entry per call: the site SVDs,
    the factored solves (the first iterate, then the dense pseudo-inverse), the dense rows
    (nosig's own tensor_rows calls, two a build), the box's product stacks and the LP
    equality rows."""
    calls = []
    for name in ("_feature_svd", "_least_norm_point", "tensor_rows", "_box_products",
                 "_box_equalities"):
        def wrapper(*args, _name=name, _f=getattr(nosig, name), **kwargs):
            calls.append(_name)
            return _f(*args, **kwargs)
        monkeypatch.setattr(nosig, name, wrapper)
    return calls


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_a_first_step_certificate_builds_no_dense_rows(monkeypatch, dims):
    # A density box decided at step 1 pays for one SVD a site, its own tabulation and one
    # factored solve only: no dense rows, no dense pseudo-inverse and no LP rows.
    rng = make_rng(5)
    real = tuple({a: random_onb(rng, d) for a in (0, 1)} for d in dims)
    t = random_density(rng, dims)
    calls = counted_work(monkeypatch)
    box = box_from_operator(t, real)
    out = quantum_extension(box, positivity_samples=300, seed=0)
    assert (out.verdict, out.rounds, out.certificate.steps) == ("FEASIBLE", 0, 1)
    assert Counter(calls) == {"_feature_svd": 2, "_least_norm_point": 1, "_box_products": 1}
    want = _box_products(box.bases)  # the stacks the box was tabulated on, kept
    assert [s.tobytes() for s in box.products] == [s.tobytes() for s in want]


@pytest.mark.parametrize("case", ["PR box", "noisy PR 0.9 at (3,3)"])
def test_an_iterating_search_builds_its_rows_once(monkeypatch, case):
    box = (with_qubit_realizations(pr_box()) if case == "PR box"
           else embedded_noisy_pr_box(0.9, (3, 3)))
    calls = counted_work(monkeypatch)
    out = quantum_extension(box, positivity_samples=300, seed=0)
    want = {"_feature_svd": 2, "_least_norm_point": 2, "tensor_rows": 2, "_box_products": 1}
    if case == "PR box":  # decided by its Separation
        assert (out.verdict, out.rounds) == ("INFEASIBLE", 0)
    else:  # no witness at (3,3): the LP rounds decide, on one build of their rows
        assert out.rounds > 1 and out.certificate is None
        want["_box_equalities"] = 1
    assert Counter(calls) == want


@pytest.mark.parametrize("visibility", [0.71, 0.8, 1.0])
def test_qutrit_pairs_stop_when_the_correction_stalls(monkeypatch, visibility):
    # At (3,3) the search builds no witness and returns None: its steps are its eigh calls.
    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    assert _decomposition(embedded_noisy_pr_box(visibility, (3, 3))) is None
    assert 1 <= len(calls) <= 50


def test_a_search_out_of_budget_decides_nothing(monkeypatch):
    # The PR box stalls at step 17; cut off at step 10, its ||g|| still falls, so the
    # search gives no witness and the LP loop decides.
    monkeypatch.setattr(tol, "DECOMPOSITION_STEPS", 10)
    box = with_qubit_realizations(pr_box())
    assert _decomposition(box) is None
    out = quantum_extension(box, positivity_samples=300, seed=0)
    assert (out.verdict, out.rounds, out.certificate) == ("INFEASIBLE", 1, None)


SLOW_QUBIT_SEEDS = (18, 39, 118, 240)  # (2,2) densities that take more than 100 steps


@given(st.sampled_from([(2, 2), (2, 3), (3, 2)]), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_quantum_boxes_get_no_separation(dims, seed):
    rng = make_rng(seed)
    real = tuple({a: random_onb(rng, d) for a in (0, 1)} for d in dims)
    assert not isinstance(_decomposition(box_from_operator(random_density(rng, dims), real)),
                          Separation)


@pytest.mark.parametrize("seed", SLOW_QUBIT_SEEDS)
def test_slow_quantum_boxes_certify(seed):
    # ||g|| still falls after 100 steps: the search runs on until it decomposes.
    rng = make_rng(seed)
    real = tuple({a: random_onb(rng, 2) for a in (0, 1)} for _ in (0, 1))
    box = box_from_operator(random_density(rng, (2, 2)), real)
    cert = _decomposition(box)
    assert isinstance(cert, Decomposition) and cert.steps > 100
    out = quantum_extension(box, positivity_samples=300, seed=seed)
    assert (out.verdict, out.rounds, out.certificate.steps) == ("FEASIBLE", 0, cert.steps)


def low_rank_box(rank, dims, s):
    """A box of a rank-r density G G^dagger / tr, G a D x r complex Gaussian from
    make_rng(9000 + s), at 2 + s % 2 random bases per site."""
    rng = make_rng(9000 + s)
    d_total = int(np.prod(dims))
    g = rng.standard_normal((d_total, rank)) + 1j * rng.standard_normal((d_total, rank))
    rho = g @ g.conj().T
    real = tuple({a: random_onb(rng, d) for a in range(2 + s % 2)} for d in dims)
    return box_from_operator(HermitianOperator(dims, rho / np.trace(rho).real), real)


LEDGER = Path(__file__).parent / "data" / "extension_ledger.json"
# (rank, dims, s) of the low-rank family: FEASIBLE at LP round 1 (s = 1), certificates of
# 2663, 2381, 597, 2511 and 453 steps, and two AMBIGUOUS boxes, which run the whole budget.
LOW_RANK_LEDGER = ((1, (2, 2), 1), (1, (2, 2), 19), (1, (2, 3), 23), (1, (3, 3), 0),
                   (2, (2, 2), 4), (2, (2, 3), 1), (2, (3, 3), 38), (2, (3, 3), 2))


def ledger_verdicts():
    """(name, quantum_extension verdict) of each box of the extension ledger."""
    cases = [(f"density k={k} d={box.bases[0].shape[-1]}", box, 500, k)
             for k, box in density_boxes(12)]
    cases += [(f"low-rank r={rank} dims={dims} s={s}", low_rank_box(rank, dims, s), 500, s)
              for rank, dims, s in LOW_RANK_LEDGER]
    cases += [(f"noisy PR v={visibility} dims={dims}", embedded_noisy_pr_box(visibility, dims),
               300, 0) for visibility in (0.71, 0.75, 0.8, 0.9, 1.0)
              for dims in ((2, 2), (2, 3), (3, 2), (3, 3))]
    cases.append(("PR box", with_qubit_realizations(pr_box()), 300, 0))
    for name, box, samples, seed in cases:
        yield name, quantum_extension(box, positivity_samples=samples, seed=seed)


def ledger_entry(out):
    """What the ledger pins of a verdict: a Decomposition's steps, a Separation's floor."""
    cert = out.certificate
    return {"verdict": out.verdict, "rounds": out.rounds, "candidate": out.candidate,
            "certificate": None if cert is None else type(cert).__name__,
            "steps": cert.steps if isinstance(cert, Decomposition) else None,
            "floor": cert.floor if isinstance(cert, Separation) else None}


def extension_ledger():
    """The ledger as tests/data/extension_ledger.json holds it; a change that moves an entry
    on purpose rewrites the file with json.dump(extension_ledger(), f, indent=1)."""
    return {name: ledger_entry(out) for name, out in ledger_verdicts()}


def test_extension_ledger():
    # Verdict, rounds, candidate, certificate kind and Decomposition steps as committed;
    # Separation floors within 1e-9.  A Separation's stall step is only bounded: once ||g||
    # has levelled off, rounding sets the first step at which it does not fall.
    want, got = json.loads(LEDGER.read_text()), {}
    for name, out in ledger_verdicts():
        got[name] = ledger_entry(out)
        if isinstance(out.certificate, Separation):
            assert out.certificate.steps <= 50, name
    assert got.keys() == want.keys()
    for name, entry in want.items():
        floor = entry.pop("floor")
        assert {k: got[name][k] for k in entry} == entry, name
        assert (got[name]["floor"] is None) == (floor is None), name
        if floor is not None:
            assert got[name]["floor"] == pytest.approx(floor, abs=1e-9), name


def test_qutrit_pairs_take_no_witness_path(monkeypatch):
    # At (3,3) product-positive need not be decomposable: the LP loop decides, as before.
    box = embedded_noisy_pr_box(1.0, (3, 3))
    assert _decomposition(box) is None
    out = quantum_extension(box, positivity_samples=300, seed=0)
    lp_only(monkeypatch)
    lp = quantum_extension(box, positivity_samples=300, seed=0)
    assert (out.verdict, out.residual, out.rounds, out.certificate) == (
        lp.verdict, lp.residual, lp.rounds, None)
    assert out.verdict == "INFEASIBLE" and out.rounds > 0


def test_pr_box_solves_no_lp(monkeypatch):
    calls = counting_linprog(monkeypatch)
    out = quantum_extension(with_qubit_realizations(pr_box()), positivity_samples=2000, seed=0)
    assert (out.verdict, out.rounds, calls) == ("INFEASIBLE", 0, [])
    assert isinstance(out.certificate, Separation)


def test_max_chsh_lp_needs_an_increasing_schedule():
    box = with_qubit_realizations(pr_box())
    for schedule in ((500, 250), (250, 250), ()):
        with pytest.raises(ValidationError, match="strictly increasing"):
            max_chsh_lp(box, schedule, seed=1)


def test_max_chsh_lp_matches_presolve(monkeypatch):
    # HiGHS presolve is off; the bounds, unbounded ones included, are those it gives with it on.
    box = with_qubit_realizations(pr_box())
    schedule = (8, 16, 32, 64, 250)
    ours = [max_chsh_lp(box, schedule, seed=s) for s in range(5)]

    def presolved(*args, **kwargs):
        return linprog(*args, **{**kwargs, "options": {"presolve": True}})

    monkeypatch.setattr("nsgleason.nosig.linprog", presolved)
    ref = np.array([max_chsh_lp(box, schedule, seed=s) for s in range(5)])
    assert np.array_equal(np.isinf(ours), np.isinf(ref)) and np.isinf(ref).any()
    finite = np.isfinite(ref)
    assert np.abs(np.array(ours)[finite] - ref[finite]).max() <= tol.LP_MONOTONE


def test_max_chsh_lp_solver_failure_raises(monkeypatch):
    monkeypatch.setattr("nsgleason.nosig.linprog",
                        failed_linprog(2, "The problem is infeasible."))
    box = with_qubit_realizations(pr_box())
    with pytest.raises(ValidationError, match="status 2"):
        max_chsh_lp(box, (50,), seed=0)


@pytest.mark.parametrize("fail_at", [2, 3])
def test_max_chsh_lp_later_solver_failure_names_its_step(monkeypatch, fail_at):
    # The seed covers all 100 rows of the first step, which so makes one solve; every
    # later solve at schedule (100, 1000) belongs to the 1000-sample step.
    box = with_qubit_realizations(pr_box())
    rows = counting_linprog(monkeypatch)
    max_chsh_lp(box, (100,), seed=0)
    assert rows == [100]
    rows.clear()
    max_chsh_lp(box, (100, 1000), seed=0)
    assert len(rows) >= 3 and rows[0] == 100 and max(rows[1:]) < 1000
    counting_linprog(monkeypatch, fail_at=fail_at)
    with pytest.raises(SolverError, match="at 1000 samples: linprog status 4") as err:
        max_chsh_lp(box, (100, 1000), seed=0)
    assert err.value.status == 4


def one_full_lp_per_step(box, sample_schedule, seed):
    """max_chsh_lp before constraint generation: each step solves over all its samples."""
    dims, n_var, trace_row = _operator_space(box)
    objective = feature_of(bell_operator([*box.bases[0], *box.bases[1]]))
    all_rows = _positivity_rows(make_rng(seed), dims, sample_schedule[-1])
    bounds = []
    for count in sample_schedule:
        res = linprog(
            -objective, A_ub=-all_rows[:count], b_ub=np.zeros(count),
            A_eq=trace_row[None, :], b_eq=[1.0], bounds=[(None, None)] * n_var, method="highs",
            options={"presolve": False},
        )
        assert res.status in (0, 3)
        bounds.append(float(-res.fun) if res.status == 0 else np.inf)
    return bounds


SEED_ROWS = 8 * 16  # max_chsh_lp's seed at 2x2: 8 n_var rows of least value, n_var = 16


def assert_same_bounds(ours, ref, exact_steps):
    """Equal bounds within LP_MONOTONE with the same inf steps; bit-equal at exact_steps."""
    ours, ref = np.array(ours), np.array(ref)
    assert ours[exact_steps].tobytes() == ref[exact_steps].tobytes()
    assert np.array_equal(np.isinf(ours), np.isinf(ref))
    finite = np.isfinite(ref)
    assert np.abs(ours[finite] - ref[finite]).max(initial=0.0) <= tol.LP_MONOTONE


@pytest.mark.parametrize("schedule", [(250, 500, 1000, 2000), (500, 1000, 2000),
                                      (8, 16, 32, 64, 250)])
def test_max_chsh_lp_matches_one_full_lp_per_step(schedule):
    # A step of at most SEED_ROWS samples is seeded with all its rows: the full LP itself.
    box = with_qubit_realizations(pr_box())
    for seed in range(20):
        assert_same_bounds(max_chsh_lp(box, schedule, seed=seed),
                           one_full_lp_per_step(box, schedule, seed),
                           np.array(schedule) <= SEED_ROWS)


def test_max_chsh_lp_solves_later_steps_on_active_rows(monkeypatch):
    # Every step, the first included, starts from a seed of at least SEED_ROWS rows and
    # passes fewer than all its rows: far fewer in total than one full LP per step.
    rows = counting_linprog(monkeypatch)
    box = with_qubit_realizations(pr_box())
    for seed in range(5):
        rows.clear()
        max_chsh_lp(box, (500, 1000, 2000), seed=seed)
        assert SEED_ROWS <= rows[0] < 500 and len(rows) >= 3
        assert max(rows) < 2000 and sum(rows) < 500 + 1000 + 2000


def test_max_chsh_lp_unbounded_subset_falls_back_to_the_full_lp(monkeypatch):
    # A seed around a bounded reference point keeps each subset LP bounded, so the
    # fallback is forced here: a step's first subset solve reports status 3.
    box = with_qubit_realizations(pr_box())
    ref = one_full_lp_per_step(box, (500, 1000), 0)
    first = counting_linprog(monkeypatch)
    max_chsh_lp(box, (500,), seed=0)  # the 500-sample step makes these solves in either call
    for step, unbounded_at in enumerate((1, len(first) + 1)):
        rows = counting_linprog(monkeypatch, fail_at=unbounded_at, status=3)
        bounds = max_chsh_lp(box, (500, 1000), seed=0)
        count = (500, 1000)[step]
        assert rows[unbounded_at - 1] < count and rows[unbounded_at] == count
        assert_same_bounds(bounds, ref, [step])


def reshaped_partial_transpose(m):
    """Transpose site 0 of a two-qubit matrix: swap its row and column qubit indices."""
    return m.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)


def realized_box(seed, random_settings):
    """The PR box, realized at random qubit bases (random_onb per setting) or at the
    optimal ones; its Bell operator, built from the signs; and max(λmax(B), λmax(B^Γ))."""
    box = with_qubit_realizations(pr_box())
    if random_settings:
        rng = make_rng(seed)
        realizations = tuple({lbl: random_onb(rng, 2) for lbl in labels}
                             for labels in box.settings)
        box = Box(box.settings, box.outcomes, box.table, realizations)
    signs = np.diag([1.0, -1.0])
    a, a2, b, b2 = (u @ signs @ u.conj().T for u in (*box.bases[0], *box.bases[1]))
    bell = np.kron(a, b + b2) + np.kron(a2, b - b2)
    exact = max(np.linalg.eigvalsh(m)[-1] for m in (bell, reshaped_partial_transpose(bell)))
    return box, bell, exact


@given(st.integers(0, 2**32 - 1), st.booleans(),
       st.lists(st.integers(8, 1200), min_size=1, max_size=4, unique=True).map(sorted))
@settings(max_examples=25, deadline=None)
def test_max_chsh_lp_bounds_the_exact_value_from_above(seed, random_settings, schedule):
    # Every unit-trace t = A + C^Γ with A, C PSD is nonnegative on product states, so it
    # is feasible for each sampled LP: no bound falls below max(λmax(B), λmax(B^Γ)).
    box, _, exact = realized_box(seed, random_settings)
    assert exact <= TSIRELSON + 1e-12
    bounds = max_chsh_lp(box, schedule, seed=seed)
    assert min(bounds) >= exact - tol.LP_MONOTONE


@given(st.integers(0, 2**32 - 1),
       st.lists(st.integers(8, 2500), min_size=1, max_size=3, unique=True).map(sorted))
@settings(max_examples=40, deadline=None)
def test_seeded_max_chsh_lp_is_one_full_lp_per_step(seed, schedule):
    # Constraint generation from any seed gives the full LP's bound; the first step's
    # seed is taken at the decomposable maximiser, where tr(B t) is the exact bound.
    box, bell, exact = realized_box(seed, True)
    peaks = []

    def spy(op):
        peaks.append(decomposable_max(op))
        return peaks[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("nsgleason.nosig.decomposable_max", spy)
        bounds = max_chsh_lp(box, schedule, seed=seed)
    assert_same_bounds(bounds, one_full_lp_per_step(box, schedule, seed),
                       np.array(schedule) <= SEED_ROWS)
    (value, t), = peaks
    assert value == pytest.approx(exact, abs=1e-12)
    assert feature_of(bell) @ feature_of(t.mat) == pytest.approx(exact, abs=1e-12)


def test_box_json_round_trip():
    box = with_qubit_realizations(pr_box())
    back = Box.from_json(box.to_json())
    for a in (0, 1):
        for b in (0, 1):
            np.testing.assert_allclose(back.block(a, b), box.block(a, b))
    assert back.realizations is not None
    np.testing.assert_allclose(
        back.realizations[0][0], box.realizations[0][0], atol=1e-15
    )
