"""Acceptance suite: one test per headline criterion, each printing a
single PASS/FAIL line with the measured value and its tolerance."""

import time

import numpy as np

from nsgleason.bases import (
    apply_twist,
    find_local_pairs,
    twisted_example_certificate,
    validate_unentangled,
)
from nsgleason.framefn import OperatorInduced, make_signalling_example, sample_from_operator
from nsgleason.gleason import (
    random_product_effects,
    reconstruct_povm,
    reconstruct_pvm,
    sample_effects_from_operator,
    spanning_design,
)
from nsgleason.keller import (
    Graph,
    SearchMode,
    basis_from_clique,
    bundled_candidate,
    family_from_clique,
    clique_search,
    verify_clique,
)
from nsgleason.linalg import (
    HermitianOperator,
    make_rng,
    partial_transpose,
    proj,
    random_density,
    random_hermitian,
)
from nsgleason.nosig import (
    TSIRELSON,
    check_framefn,
    chsh_optimize,
    chsh_value_box,
    deterministic_box,
    max_chsh_lp,
    pr_box,
    quantum_extension,
    singlet,
    with_qubit_realizations,
)
from nsgleason.orientation import Orientation, choi_of, classify_orientation
from nsgleason.presheaf import check_section, random_context_family, section_from_operator

PHI_PLUS = proj(np.array([1.0, 0, 0, 1]) / np.sqrt(2))
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=float
)


def report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def test_01_reconstruction_round_trip():
    rng = make_rng(100)
    design = spanning_design((3, 3), seed=100)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        rho = random_density(rng, (3, 3))
        rec = reconstruct_pvm(sample_from_operator(rho, design.states), design)
        worst = max(worst, float(np.linalg.norm(rec.t.mat - rho.mat)))
    elapsed = time.perf_counter() - t0
    report(
        "criterion 1 (reconstruction round-trip)",
        worst <= 1e-8 and elapsed < 5.0,
        f"worst Frobenius {worst:.2e} (tol 1e-8), runtime {elapsed:.2f}s (< 5s)",
    )


def test_02_unit_trace():
    rng = make_rng(101)
    design = spanning_design((3, 3), seed=101)
    worst = 0.0
    for _ in range(5):
        rho = random_density(rng, (3, 3))  # weight-1 non-signalling source
        rec = reconstruct_pvm(sample_from_operator(rho, design.states), design)
        worst = max(worst, abs(rec.t.trace() - 1.0))
    f = make_signalling_example((3, 3), 0.0)  # degenerate, non-signalling, weight 1
    rec = reconstruct_pvm(f, design)
    worst = max(worst, abs(rec.t.trace() - 1.0))
    report(
        "criterion 2 (unit trace of reconstructions)",
        worst <= 1e-8,
        f"worst |tr - 1| = {worst:.2e} (tol 1e-8)",
    )


def test_03_no_signalling_soundness():
    rng = make_rng(102)
    worst = 0.0
    for seed in range(4):  # 4 x 50 = 200 configurations
        t = random_density(rng, (3, 3))
        rep = check_framefn(OperatorInduced(t), trials=50, seed=seed)
        worst = max(worst, rep.max_discrepancy)
    f = make_signalling_example((3, 3), np.pi / 4)
    witness = check_framefn(f, trials=100, seed=5)
    design = spanning_design((3, 3), seed=102)
    residual = reconstruct_pvm(f, design).residual
    report(
        "criterion 3 (no-signalling soundness)",
        worst <= 1e-10 and witness.max_discrepancy >= 1e-3 and residual > 1e-3,
        f"operator-induced discrepancy {worst:.2e} (tol 1e-10); signalling "
        f"witness {witness.max_discrepancy:.3f} (>= 1e-3); reconstruction "
        f"residual {residual:.3f} (> 1e-3)",
    )


def test_04_chsh_tsirelson():
    val, _ = chsh_optimize(singlet())
    singlet_ok = abs(val - TSIRELSON) <= 1e-4
    rng = make_rng(103)
    worst_excess = -np.inf
    for _ in range(50):
        v, _ = chsh_optimize(random_density(rng, (2, 2)))
        worst_excess = max(worst_excess, v - TSIRELSON)
    det = chsh_value_box(deterministic_box())
    report(
        "criterion 4 (CHSH / quantum maximum)",
        singlet_ok and worst_excess <= 1e-8 and det == 2.0,
        f"singlet optimum {val:.6f} (2*sqrt(2) +- 1e-4); worst PSD excess "
        f"{worst_excess:.2e} (tol 1e-8, 50 seeds); deterministic box {det} (= 2)",
    )


def test_05_pr_box_exclusion():
    box = with_qubit_realizations(pr_box())
    verdict = quantum_extension(box, positivity_samples=2000, seed=104)
    bounds = max_chsh_lp(box, (250, 500, 1000, 2000), seed=104)
    monotone = all(b2 <= b1 + 1e-9 for b1, b2 in zip(bounds, bounds[1:]))
    report(
        "criterion 5 (PR-box exclusion)",
        verdict.verdict == "INFEASIBLE"
        and verdict.residual >= 1e-4
        and monotone
        and bounds[-1] < 3.2,
        f"verdict {verdict.verdict}, residual {verdict.residual:.4f} (>= 1e-4); "
        f"LP bounds {[round(b, 4) for b in bounds]} nonincreasing, final < 3.2",
    )


def test_06_orientation_dichotomy():
    bell = HermitianOperator((2, 2), PHI_PLUS)
    sw = HermitianOperator((2, 2), SWAP / 2)
    mix = HermitianOperator((2, 2), (PHI_PLUS + SWAP / 2) / 2)
    c_bell = classify_orientation(bell)
    c_sw = classify_orientation(sw)
    c_mix = classify_orientation(mix)
    flipped = choi_of(partial_transpose(sw, 0))
    flip_close = np.max(np.abs(flipped.mat - PHI_PLUS)) <= 1e-10
    mix_ok = (
        c_mix.value is Orientation.NEITHER
        and abs(c_mix.min_eig_choi + 0.25) <= 1e-10
        and abs(c_mix.min_eig_flipped_choi + 0.25) <= 1e-10
    )
    rng = make_rng(105)
    duality = True
    for _ in range(100):
        t = random_hermitian(rng, (2, 2))
        d = classify_orientation(t)
        fd = classify_orientation(partial_transpose(t, 0))
        duality &= abs(d.min_eig_choi - fd.min_eig_flipped_choi) <= 1e-12
        duality &= abs(d.min_eig_flipped_choi - fd.min_eig_choi) <= 1e-12
    report(
        "criterion 6 (orientation dichotomy)",
        c_bell.value is Orientation.CP
        and c_sw.value is Orientation.CO_CP
        and flip_close
        and mix_ok
        and duality,
        f"entangled projector {c_bell.value.value}, SWAP/2 {c_sw.value.value} "
        f"(flipped Choi matches projector: {flip_close}), mixture "
        f"{c_mix.value.value} with min eig -1/4; flip duality on 100 operators",
    )


def test_07_twist_certificate_replay():
    cert = twisted_example_certificate()
    b = cert.initial
    worst = validate_unentangled(b).worst_overlap
    for m in cert.moves:
        b = apply_twist(b, m)
        worst = max(worst, validate_unentangled(b).worst_overlap)
    ok = cert.replay()
    report(
        "criterion 7 (worked-example certificate replay)",
        ok and worst <= 1e-10,
        f"certificate of {len(cert.moves)} moves replays to the computational "
        f"product basis; worst intermediate overlap {worst:.2e} (tol 1e-10)",
    )


def test_08_keller():
    t0 = time.perf_counter()
    g_clique = clique_search(2, 4, SearchMode.EXHAUSTIVE, graph=Graph.G)
    gstar_none = clique_search(2, 4, SearchMode.EXHAUSTIVE, graph=Graph.G_STAR)
    exhaustive_time = time.perf_counter() - t0
    basis_ok = validate_unentangled(basis_from_clique(g_clique)).is_valid
    gs = clique_search(4, 8, SearchMode.HEURISTIC, graph=Graph.G_STAR,
                       budget=200, seed=1)
    gs_verified = gs is not None and verify_clique(gs, Graph.G_STAR).is_clique
    gs_pairs_empty = (
        gs_verified
        and find_local_pairs(family_from_clique(gs, Graph.G_STAR)) == []
    )
    cand = bundled_candidate()
    t0 = time.perf_counter()
    rep = verify_clique(cand, Graph.G)
    verify_time = time.perf_counter() - t0
    report(
        "criterion 8 (cube-tiling graphs)",
        g_clique is not None
        and gstar_none is None
        and exhaustive_time < 1.0
        and basis_ok
        and gs_pairs_empty
        and rep.is_clique
        and cand.size == 2 ** cand.n
        and verify_time < 10.0,
        f"n=2 exhaustive: G-clique found, no G* clique ({exhaustive_time:.2f}s "
        f"< 1s); G-clique basis valid; verified n=4 G*-clique of size "
        f"{gs.size if gs is not None else 0} has no local pairs; bundled "
        f"n={cand.n} candidate of {cand.size} vectors verified by full "
        f"pairwise check in {verify_time:.2f}s (< 10s)",
    )


def test_09_presheaf_consistency():
    rng = make_rng(106)
    worst = 0.0
    ctxs, edges = random_context_family((3, 3), 50, seed=106)  # 100 ctx, 200 edges
    for k in range(20):
        t = random_density(rng, (3, 3))
        if k % 5 == 4:
            t = partial_transpose(t, 1)  # product-positive, generally not PSD
        table = section_from_operator(t, ctxs)
        worst = max(worst, check_section(table, edges).max_distance)
    # Signalling family: fine contexts that share a coarse node restrict to different marginals.
    from nsgleason.framefn import make_signalling_example as mse
    from nsgleason.presheaf import section_from_framefn

    violation = check_section(section_from_framefn(mse((3, 3), np.pi / 4), ctxs), edges).max_distance
    report(
        "criterion 9 (section consistency)",
        worst <= 1e-10 and violation >= 1e-3,
        f"20 product-positive operators across {len(ctxs)} contexts / {len(edges)} edges: max "
        f"distance {worst:.2e} (tol 1e-10); signalling table violation at a shared "
        f"coarse node {violation:.3f} (>= 1e-3)",
    )


def test_10_effect_reconstruction_qubits():
    rng = make_rng(107)
    effects = random_product_effects(rng, (2, 2), 7)
    worst = 0.0
    for _ in range(20):
        rho = random_density(rng, (2, 2))
        rec = reconstruct_povm(sample_effects_from_operator(rho, effects), effects)
        worst = max(worst, float(np.linalg.norm(rec.t.mat - rho.mat)))
    report(
        "criterion 10 (effect-based qubit reconstruction)",
        worst <= 1e-8,
        f"20 random two-qubit states recovered from a grid of 7 x 7 product effects, "
        f"worst Frobenius {worst:.2e} (tol 1e-8)",
    )
