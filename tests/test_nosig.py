"""Tests for box/frame-function no-signalling, CHSH, and the extension LP."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeResult, minimize

from nsgleason.bases import ProductState
from nsgleason.framefn import OperatorInduced, make_signalling_example
from nsgleason.gleason import projector_features
from nsgleason.linalg import (
    HermitianOperator,
    ValidationError,
    make_rng,
    proj,
    random_density,
    random_hermitian,
    random_onb,
    random_unit,
)
from nsgleason.nosig import (
    TSIRELSON,
    Box,
    _positivity_rows,
    ChshInstance,
    box_from_operator,
    check_box,
    check_framefn,
    chsh_optimize,
    chsh_value,
    chsh_value_box,
    deterministic_box,
    equator_basis,
    max_chsh_lp,
    pr_box,
    quantum_extension,
    singlet,
    singlet_chsh_instance,
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


def test_deterministic_box_no_signalling():
    assert check_box(deterministic_box()).max_discrepancy == 0.0


def test_signalling_box_detected():
    table = {
        (0, 0): np.array([[0.5, 0.0], [0.0, 0.5]]),
        (0, 1): np.array([[0.6, 0.0], [0.0, 0.4]]),
        (1, 0): np.array([[0.5, 0.0], [0.0, 0.5]]),
        (1, 1): np.array([[0.5, 0.0], [0.0, 0.5]]),
    }
    box = Box(((0, 1), (0, 1)), ((0, 1), (0, 1)), table)
    rep = check_box(box)
    assert rep.max_discrepancy == pytest.approx(0.1, abs=1e-12)
    assert rep.witness["site"] == 0


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


def looped_check_framefn(f, trials, seed):
    """check_framefn one trial and one product state at a time, as it ran
    before its draws were stacked: (worst, trial, site, x, b1, b2)."""
    dims = f.dims
    rng = make_rng(seed)
    worst, witness = 0.0, None
    for trial in range(trials):
        site = int(rng.integers(0, 2))
        remote = 1 - site
        x = random_unit(rng, dims[remote])
        b1 = random_onb(rng, dims[site])
        b2 = random_onb(rng, dims[site])

        def marginal(basis):
            total = 0.0
            for k in range(dims[site]):
                factors = [None, None]
                factors[site] = basis[:, k]
                factors[remote] = x
                total += f(ProductState(tuple(factors)))
            return total

        d = abs(marginal(b1) - marginal(b2))
        if d > worst:
            worst, witness = d, (trial, site, x, b1, b2)
    return worst, witness


@pytest.mark.parametrize("dims", [(3, 3), (2, 4)])
@pytest.mark.parametrize("seed", range(10))
def test_check_framefn_matches_looped_check(dims, seed):
    f = make_signalling_example(dims, np.pi / 4)
    rep = check_framefn(f, trials=40, seed=seed)
    worst, (trial, site, x, b1, b2) = looped_check_framefn(f, 40, seed)
    assert abs(rep.max_discrepancy - worst) <= 1e-12
    w = rep.witness
    assert (w["trial"], w["site"]) == (trial, site)
    for got, want in ((w["remote_state"], x), (w["bases"][0], b1), (w["bases"][1], b2)):
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()
    # An operator-induced frame function does not signal: no witness, and the
    # same discrepancy at rounding level.
    f = OperatorInduced(random_density(make_rng(seed), dims))
    rep = check_framefn(f, trials=40, seed=seed)
    assert rep.witness is None
    assert abs(rep.max_discrepancy - looped_check_framefn(f, 40, seed)[0]) <= 1e-12


def looped_positivity_rows(rng, dims, count):
    """_positivity_rows with one random_onb call per local basis."""
    d1, d2 = dims
    psi = []
    for _ in range(-(-count // (d1 * d2))):
        u, v = random_onb(rng, d1), random_onb(rng, d2)
        psi.append((u.T[:, None, :, None] * v.T[None, :, None, :]).reshape(-1, d1 * d2))
    return projector_features(np.concatenate(psi)[:count])


@given(st.integers(0, 2**32 - 1), st.sampled_from([(2, 2), (2, 3), (3, 3), (4, 2)]),
       st.integers(1, 60))
@settings(max_examples=30, deadline=None)
def test_positivity_rows_match_looped_draws(seed, dims, count):
    got = _positivity_rows(make_rng(seed), dims, count)
    assert got.tobytes() == looped_positivity_rows(make_rng(seed), dims, count).tobytes()


def test_chsh_singlet_standard_settings():
    assert chsh_value(singlet_chsh_instance()) == pytest.approx(
        TSIRELSON, abs=1e-6
    )


def test_chsh_product_state_classical_bound():
    t = HermitianOperator((2, 2), proj(np.array([1.0, 0, 0, 0])))
    rng = make_rng(3)
    for _ in range(20):
        angles = rng.uniform(0, 2 * np.pi, 4)
        inst = ChshInstance(tuple(equator_basis(a) for a in angles), t)
        assert chsh_value(inst) <= 2 + 1e-10


def test_chsh_pr_box_value_4():
    assert chsh_value_box(pr_box()) == pytest.approx(4.0)


def test_chsh_deterministic_box_exactly_2():
    assert chsh_value_box(deterministic_box()) == 2.0


def test_chsh_optimize_singlet():
    val, settings = chsh_optimize(singlet())
    assert val == pytest.approx(TSIRELSON, abs=1e-4)
    assert len(settings) == 4
    assert abs(val - TSIRELSON) <= 1e-12
    assert abs(chsh_value(ChshInstance(settings, singlet())) - TSIRELSON) <= 1e-12


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
    assert abs(chsh_value(ChshInstance(bases, t)) - val) <= 1e-12


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
    assert abs(chsh_value(ChshInstance(bases, t)) - val) <= 1e-12
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


def test_quantum_extension_white_noise():
    real = optimal_realizations()
    table = {(a, b): np.full((2, 2), 0.25) for a in (0, 1) for b in (0, 1)}
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
    with pytest.raises(Exception):
        quantum_extension(pr_box(), positivity_samples=10, seed=0)


def test_max_chsh_lp_monotone_and_bounded():
    box = with_qubit_realizations(pr_box())
    bounds = max_chsh_lp(box.realizations, (250, 500, 1000, 2000), seed=4)
    for b1, b2 in zip(bounds, bounds[1:]):
        assert b2 <= b1 + 1e-9
    assert bounds[-1] < 3.2
    assert bounds[-1] >= TSIRELSON - 1e-6  # the LP relaxes the true quantum set


def failed_linprog(status, message):
    def fake(*args, **kwargs):
        return OptimizeResult(status=status, success=False, message=message,
                              x=None, fun=None)
    return fake


def test_quantum_extension_solver_failure_is_error(monkeypatch):
    monkeypatch.setattr("nsgleason.nosig.linprog",
                        failed_linprog(4, "Numerical difficulties encountered."))
    verdict = quantum_extension(with_qubit_realizations(pr_box()),
                                positivity_samples=50, seed=0)
    assert verdict.verdict == "ERROR"
    assert verdict.solver_status == 4
    assert "Numerical" in verdict.solver_message
    assert verdict.to_json()["solver_status"] == 4


def test_max_chsh_lp_solver_failure_raises(monkeypatch):
    monkeypatch.setattr("nsgleason.nosig.linprog",
                        failed_linprog(2, "The problem is infeasible."))
    box = with_qubit_realizations(pr_box())
    with pytest.raises(ValidationError, match="status 2"):
        max_chsh_lp(box.realizations, (50,), seed=0)


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
