"""End-to-end CLI tests: exit codes, JSON reports, reproducibility."""

import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import OptimizeResult, linprog

from nsgleason import cli, tolerances
from nsgleason import keller as kel
from nsgleason.bases import (
    BasisReport,
    TwistMove,
    UnentangledBasis,
    apply_twist,
    product_basis,
    twist_search,
    twisted_example_basis,
    twisted_example_certificate,
    validate_unentangled,
)
from nsgleason.cli import main
from nsgleason.framefn import sample_from_operator
from nsgleason.gleason import feature_of, product_seesaw_min, reconstruct_pvm, spanning_design
from nsgleason.keller import bundled_candidate, save_clique, verify_clique
from nsgleason.linalg import (
    HermitianOperator,
    ValidationError,
    make_rng,
    partial_transpose,
    random_density,
    random_hermitian,
)
from nsgleason.nosig import Box, NoSigReport, pr_box, singlet, with_qubit_realizations
from nsgleason.presheaf import ConsistencyReport


@pytest.fixture
def singlet_file(tmp_path):
    path = tmp_path / "singlet.json"
    path.write_text(json.dumps(singlet().to_json()))
    return str(path)


@pytest.fixture
def rho_file(tmp_path):
    rho = random_density(make_rng(0), (3, 3))
    path = tmp_path / "rho.json"
    path.write_text(json.dumps(rho.to_json()))
    return str(path)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_chsh_optimize_singlet(singlet_file, capsys):
    code, rep = run(
        ["chsh", "--t", singlet_file, "--optimize", "--seed", "7"],
        capsys,
    )
    assert code == 0
    assert rep["chsh_value"] == pytest.approx(2 * np.sqrt(2), abs=1e-4)
    assert rep["verdicts"]["tsirelson"]["pass"]


def test_twist_example_replay(capsys):
    code, rep = run(["twist", "--fig1"], capsys)
    assert code == 0
    assert rep["verdicts"]["certificate_replay"]["pass"]
    assert rep["verdicts"]["intermediate_valid"]["pass"]
    # The value is the worst overlap measured along the walk, not a placeholder.
    steps = twisted_example_certificate().walk()
    worst = max(validate_unentangled(b).worst_overlap for b in steps)
    assert worst > 0.0
    assert rep["verdicts"]["intermediate_valid"]["value"] == worst


def test_twist_fig1_writes_certificate(tmp_path, monkeypatch, capsys):
    # The README example, run where it writes cert.json.
    monkeypatch.chdir(tmp_path)
    code, rep = run(["twist", "--fig1", "--out-cert", "cert.json"], capsys)
    assert code == 0
    assert rep["artifacts"] == ["cert.json"]
    # The compact one-line format, byte for byte.
    written = (tmp_path / "cert.json").read_text()
    assert written == json.dumps(twisted_example_certificate().to_json())


def basis_file(tmp_path, basis):
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(basis.to_json()))
    return str(path)


def test_twist_basis_search_writes_its_certificate(tmp_path, capsys):
    # One Hadamard twist of the (3,3) computational basis is undone by one move.
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    basis = apply_twist(product_basis([np.eye(3), np.eye(3)]), TwistMove(1, (0, 1), h))
    cert = str(tmp_path / "cert.json")
    code, rep = run(["twist", "--basis", basis_file(tmp_path, basis), "--out-cert", cert],
                    capsys)
    assert code == 0 and rep["found"] and rep["reason"] == ""
    assert rep["verdicts"]["certificate_replay"] == {
        "pass": True, "value": 1, "tolerance": tolerances.REPLAY_MATCH, "note": ""}
    assert rep["artifacts"] == [cert]
    assert Path(cert).read_text() == json.dumps(twist_search(basis).certificate.to_json())


def gstar_family():
    """The size-5 G* clique's family: five product states in C^8, no two of which
    differ at exactly one site."""
    clique = kel.clique_search(3, 5, kel.SearchMode.EXHAUSTIVE, graph=kel.Graph.G_STAR)
    return kel.family_from_clique(clique, kel.Graph.G_STAR)


def incomplete_family():
    """Three of the four computational states of C^2 (x) C^2: no basis, so no product basis."""
    e = np.eye(2, dtype=complex)
    return UnentangledBasis([e[[0, 0, 1]], e[[0, 1, 0]]])


@pytest.mark.parametrize("case, reason, tried", [
    ("example, budget 2", "move budget exhausted", 22),
    ("G* family", "no local pairs exist; no twist move applies", 0),
    ("incomplete family", "no strictly improving move found", 4)])
def test_twist_basis_search_reports_why_it_stopped(tmp_path, capsys, case, reason, tried):
    basis, budget = {"example, budget 2": (twisted_example_basis, "2"),
                     "G* family": (gstar_family, "50"),
                     "incomplete family": (incomplete_family, "50")}[case]
    basis = basis()
    cert = tmp_path / "cert.json"
    code, rep = run(["twist", "--basis", basis_file(tmp_path, basis), "--budget", budget,
                     "--out-cert", str(cert)], capsys)
    assert code == 1 and not rep["found"] and rep["reason"] == reason
    assert rep["verdicts"]["twist_search"] == {
        "pass": False, "value": tried, "tolerance": None,
        "note": "exhaustion is not a proof of non-membership"}
    assert rep["artifacts"] == [] and not cert.exists()


def test_reconstruct_round_trip(rho_file, capsys):
    code, rep = run(["reconstruct", "--operator", rho_file, "--seed", "1"], capsys)
    assert code == 0
    assert rep["verdicts"]["round_trip_frobenius"]["pass"]
    assert rep["verdicts"]["unit_trace"]["pass"]
    assert rep["classification"] == "DENSITY_MATRIX"


def operator_file(tmp_path, t):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(t.to_json()))
    return str(path)


def test_reconstruct_report_cites_orientation_certificate(tmp_path, capsys):
    # rho^Gamma is PSD after the site-1 flip: the CO_CP certificate decides.
    t = partial_transpose(random_density(make_rng(3), (3, 3)), 0)
    code, rep = run(["reconstruct", "--operator", operator_file(tmp_path, t)], capsys)
    assert code == 0
    assert rep["classification"] == "PRODUCT_POSITIVE_ONLY"
    cert = rep["evidence"]["orientation_certificate"]
    assert list(rep["evidence"]) == ["orientation_certificate"]
    assert cert["class"] == "CO_CP" and cert["psd_tolerance"] == tolerances.PSD
    assert cert["min_eig_choi"] < -tolerances.PSD <= cert["min_eig_flipped_choi"]


def test_reconstruct_report_cites_seesaw_minimum(tmp_path, capsys):
    # A traceless t is negative on some product state and in the NEITHER class.
    t = random_hermitian(make_rng(4), (3, 3))
    t = HermitianOperator((3, 3), t.mat - t.trace() / 9 * np.eye(9))
    code, rep = run(["reconstruct", "--operator", operator_file(tmp_path, t)], capsys)
    assert code == 1  # the unit-trace verdict fails
    assert rep["classification"] == "INDEFINITE_ON_PRODUCTS"
    # The see-saw stops at the first sweep with a value below the threshold.
    wit = product_seesaw_min(t, stop_below=-tolerances.PRODUCT_POSITIVE)
    assert rep["evidence"] == {
        "seesaw_min": pytest.approx(wit.value, abs=1e-8),
        "seesaw_sweeps": wit.sweeps,
        "product_positive_threshold": tolerances.PRODUCT_POSITIVE,
    }
    assert rep["evidence"]["seesaw_min"] < -tolerances.PRODUCT_POSITIVE
    assert wit.sweeps < product_seesaw_min(t).sweeps


@pytest.mark.parametrize("holdout, message", [("-0.5", "not a number in [0, 1]"),
                                              ("1.5", "not a number in [0, 1]"),
                                              ("nan", "not a number in [0, 1]"),
                                              ("x", "invalid unit_fraction value")])
def test_reconstruct_holdout_outside_unit_interval_is_usage_error(rho_file, capsys, holdout, message):
    # The residual is always in sample on the grid: the parser refuses --holdout itself,
    # whatever its value, and no range check of the flag is left to run.
    code = main(["reconstruct", "--operator", rho_file, "--holdout", holdout])
    out, err = capsys.readouterr()
    assert code == 2 and not out
    assert f"unrecognized arguments: --holdout {holdout}" in err and message not in err


@pytest.mark.parametrize("oversample", ["-1", "0", "nan", "inf", "x"])
def test_reconstruct_oversample_outside_range_is_usage_error(rho_file, capsys, oversample):
    # The product-basis grid is the smallest design that spans: --oversample is refused
    # by the parser, whatever its value.
    code = main(["reconstruct", "--operator", rho_file, "--oversample", oversample])
    out, err = capsys.readouterr()
    assert code == 2 and not out
    assert f"unrecognized arguments: --oversample {oversample}" in err
    assert "not a finite number > 0" not in err


def test_reconstruct_holdout_0_reports_the_in_sample_residual(rho_file, capsys):
    # No rows are held out: the holdout_residual verdict reads the grid's in-sample residual.
    code, rep = run(["reconstruct", "--operator", rho_file], capsys)
    assert code == 0
    assert rep["design"] == {"bases_per_site": [4, 4], "states": 144, "feature_rank": [9, 9],
                             "condition_numbers": site_conditions((3, 3))}
    verdict = rep["verdicts"]["holdout_residual"]
    assert verdict["note"].startswith("in sample: the product-basis grid's residual")
    with open(rho_file) as fh:
        t = HermitianOperator.from_json(json.load(fh))
    design = spanning_design(t.dims)
    rec = reconstruct_pvm(sample_from_operator(t, design.states), design)
    assert verdict["value"] == rec.residual <= tolerances.HOLDOUT_RESIDUAL


@pytest.mark.parametrize("dims, states", [((3, 5), 360), ((3, 3, 3), 1728)])
def test_reconstruct_other_dims(tmp_path, capsys, dims, states):
    path = operator_file(tmp_path, random_density(make_rng(5), dims))
    code, rep = run(["reconstruct", "--operator", path], capsys)
    assert code == 0 and rep["classification"] == "DENSITY_MATRIX"
    assert rep["design"] == {"bases_per_site": [d + 1 for d in dims], "states": states,
                             "feature_rank": [d * d for d in dims],
                             "condition_numbers": site_conditions(dims)}


def site_conditions(dims):
    """np.linalg.cond of each site's feature rows of its design projectors, as approx."""
    design = spanning_design(dims)
    rows = [feature_of(np.einsum("ki,kj->kij", v, v.conj())) for v in design.local]
    return pytest.approx([np.linalg.cond(a) for a in rows], rel=1e-9)


def unit_trace_operator(d):
    """I / d^2 plus a traceless Hermitian part from make_rng(0) normal entries, scaled to
    Frobenius norm 4: at d = 6 the u66.json case, whose round trip once failed on random bases."""
    rng = make_rng(0)
    n = d * d
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (z + z.conj().T) / 2
    h -= np.trace(h).real / n * np.eye(n)
    return HermitianOperator((d, d), np.eye(n) / n + 4 * h / np.linalg.norm(h))


def test_reconstruct_reports_each_sites_condition_number(tmp_path, capsys):
    # The (6,6) design is the product of the d = 2 and d = 3 sets at each site: kappa =
    # sqrt(3) sqrt(4) = 2 sqrt(3), and the round trip passes at the seed (141) where it
    # failed on random bases, with kappa product 4e9.
    path = operator_file(tmp_path, unit_trace_operator(6))
    for seed in ("141", "0"):
        code, rep = run(["reconstruct", "--operator", path, "--seed", seed], capsys)
        conds = rep["design"]["condition_numbers"]
        assert conds == site_conditions((6, 6))
        assert conds == pytest.approx([2 * np.sqrt(3)] * 2, rel=1e-12)
        assert rep["verdicts"]["round_trip_frobenius"]["pass"] and code in (0, 1)


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_reconstruct_round_trip_does_not_depend_on_the_seed_on_mub_designs(tmp_path, capsys, d):
    # One fixed design, kappa = prod sqrt(q + 1) over the factors q of d at each site,
    # whatever the seed: sqrt(d + 1) at prime-power d, 2 sqrt(3) at d = 6.
    kappa = 2 * np.sqrt(3) if d == 6 else np.sqrt(d + 1)
    path = operator_file(tmp_path, unit_trace_operator(d))
    for seed in ("0", "1", "141", "2999"):
        code, rep = run(["reconstruct", "--operator", path, "--seed", seed], capsys)
        assert code in (0, 1)
        assert rep["verdicts"]["round_trip_frobenius"]["value"] <= tolerances.ROUND_TRIP
        assert rep["design"]["condition_numbers"] == pytest.approx([kappa] * 2, rel=1e-12)
        assert rep["design"]["bases_per_site"] == [12 if d == 6 else d + 1] * 2


def test_reconstruct_qubit_operator_is_an_input_error(tmp_path, capsys):
    code = main(["reconstruct", "--operator",
                 operator_file(tmp_path, random_density(make_rng(6), (2, 3)))])
    out, err = capsys.readouterr()
    assert code == 2 and not out
    assert "requires local dims >= 3" in json.loads(err)["error"]


def test_classify_singlet(singlet_file, capsys):
    code, rep = run(["classify", "--t", singlet_file], capsys)
    assert code == 0
    # The singlet is its own (PSD) Choi matrix, hence completely positive;
    # its partial transpose has a negative eigenvalue, so the flip fails.
    assert rep["orientation"]["class"] == "CP"
    assert rep["orientation"]["min_eig_flipped_choi"] == pytest.approx(-0.5, abs=1e-10)


def test_section_consistency(rho_file, capsys):
    code, rep = run(["section", "--t", rho_file, "--contexts", "5"], capsys)
    assert code == 0
    assert rep["verdicts"]["section_consistent"]["pass"]


@pytest.mark.parametrize("dims", [(2, 2, 2), (4,)])
@pytest.mark.parametrize("cmd", ["classify", "section"])
def test_two_site_commands_reject_other_operators(cmd, dims, tmp_path, capsys):
    # Orientation classes and context families are defined for two sites only.
    path = tmp_path / "t.json"
    path.write_text(json.dumps(random_density(make_rng(0), dims).to_json()))
    assert main([cmd, "--t", str(path)]) == 2
    out, err = capsys.readouterr()
    message = "two-site operator" if cmd == "classify" else "two sites"
    assert not out and message in json.loads(err)["error"]


def test_chsh_warns_on_an_operator_without_unit_trace(tmp_path, capsys):
    t = HermitianOperator((2, 2), 2 * singlet().mat)
    code, rep = run(["chsh", "--t", operator_file(tmp_path, t), "--optimize"], capsys)
    assert code == 1  # twice the singlet's CHSH maximum is above Tsirelson's bound
    assert rep["warning"] == f"operator trace {t.trace()} is not 1"


def test_chsh_of_an_operator_file_needs_optimize(singlet_file, capsys):
    assert main(["chsh", "--t", singlet_file]) == 2
    out, err = capsys.readouterr()
    assert not out and json.loads(err)["error"] == "non-optimize mode requires --singlet settings"


def test_chsh_singlet_at_the_standard_angles(capsys):
    code, rep = run(["chsh", "--singlet"], capsys)
    assert code == 0
    assert rep["chsh_value"] == pytest.approx(2 * np.sqrt(2), abs=1e-12)
    assert rep["verdicts"]["tsirelson"]["pass"]


@pytest.mark.parametrize("cmd, report, verdict", [
    ("section", ConsistencyReport, "section_consistent"),
    ("box", NoSigReport, "box_no_signalling"),
    ("framefn", NoSigReport, "framefn_no_signalling"),
    ("twist", BasisReport, "intermediate_valid"),
    ("keller", BasisReport, "basis_valid"),
])
def test_verdicts_cite_the_tolerance_their_report_applied(rho_file, tmp_path, monkeypatch, capsys,
                                                          cmd, report, verdict):
    box_file, clique_file = tmp_path / "box.json", str(tmp_path / "c.txt")
    box_file.write_text(json.dumps(pr_box().to_json()))
    save_clique(clique_file, bundled_candidate())
    argv = {"section": ["section", "--t", rho_file, "--contexts", "3"],
            "box": ["check", "--box", str(box_file)],
            "framefn": ["check", "--trials", "5"],
            "twist": ["twist", "--fig1"],
            "keller": ["keller", "basis", "--file", clique_file, "--graph", "g"]}[cmd]
    code, rep = run(argv, capsys)
    default = {"section": tolerances.SECTION_CONSISTENT, "twist": tolerances.ORTHO_PAIR,
               "keller": tolerances.ORTHO_PAIR}.get(cmd, tolerances.NO_SIGNALLING)
    assert rep["verdicts"][verdict]["tolerance"] == default
    # A report that applies another tolerance is cited with it, and decides by it.
    monkeypatch.setattr(report, "tolerance", 2.0)
    code, rep = run(argv, capsys)
    assert rep["verdicts"][verdict]["tolerance"] == 2.0
    assert rep["verdicts"][verdict]["pass"] and code == 0


def test_check_box_reports_the_signalling_witness(tmp_path, capsys):
    # Alice's setting-0 marginal is (1, 0) when Bob measures 0 and (1/2, 1/2) when he measures 1.
    table = pr_box().table.copy()
    table[0, 0] = [[1.0, 0.0], [0.0, 0.0]]
    box = Box(pr_box().settings, pr_box().outcomes, table)
    path = tmp_path / "box.json"
    path.write_text(json.dumps(box.to_json()))
    code, rep = run(["check", "--box", str(path)], capsys)
    assert code == 1 and not rep["verdicts"]["box_no_signalling"]["pass"]
    assert rep["witness"] == {"site": 0, "setting": 0, "remote_pair": [0, 1]}


def test_keller_exhaustive_gstar_none(capsys):
    code, rep = run(
        ["keller", "search", "--n", "2", "--size", "4", "--graph", "gstar",
         "--exhaustive"],
        capsys,
    )
    assert code == 1
    assert not rep["verdicts"]["clique_found"]["pass"]
    assert "no clique exists" in rep["verdicts"]["clique_found"]["note"]


def test_keller_exhaustive_g_found(tmp_path, capsys):
    out_clique = str(tmp_path / "c.txt")
    code, rep = run(
        ["keller", "search", "--n", "2", "--size", "4", "--graph", "g",
         "--exhaustive", "--out-clique", out_clique],
        capsys,
    )
    assert code == 0
    assert rep["verdicts"]["clique_found"]["pass"]
    code2, rep2 = run(
        ["keller", "verify", "--file", out_clique, "--graph", "g"], capsys
    )
    assert code2 == 0
    assert rep2["report"]["tiling_certificate"]


def test_keller_basis_from_file(tmp_path, capsys):
    out_clique = str(tmp_path / "c.txt")
    run(
        ["keller", "search", "--n", "2", "--size", "4", "--graph", "g",
         "--exhaustive", "--out-clique", out_clique],
        capsys,
    )
    out_basis = tmp_path / "basis.json"
    code, rep = run(
        ["keller", "basis", "--file", out_clique, "--graph", "g", "--out-basis", str(out_basis)],
        capsys,
    )
    assert code == 0
    assert rep["verdicts"]["basis_valid"]["pass"]
    basis = kel.basis_from_clique(kel.load_clique(out_clique))
    assert out_basis.read_text() == json.dumps(basis.to_json())


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands(prefix):
    """argv of each README line that starts with `nsgleason <prefix>`."""
    lines = README.read_text().splitlines()
    return [shlex.split(ln.split("#")[0])[1:] for ln in lines
            if ln.startswith(f"nsgleason {prefix}")]


def test_readme_keller_basis_example(tmp_path, monkeypatch, capsys):
    # clique.txt of the README's keller lines: the bundled candidate, a G-clique.
    monkeypatch.chdir(tmp_path)
    save_clique("clique.txt", bundled_candidate())
    (argv,) = readme_commands("keller basis")
    code, rep = run(argv, capsys)
    assert code == 0
    assert rep["verdicts"]["clique_valid"]["pass"] and rep["verdicts"]["basis_valid"]["pass"]
    assert Path("basis.json").exists() and rep["artifacts"][0] == "basis.json"
    (verify,) = readme_commands("keller verify")
    assert run(verify, capsys)[0] == 0


def test_keller_basis_verifies_clique_against_graph(tmp_path, capsys):
    # The bundled candidate is a G-clique only: under G* its clique check fails first.
    path = str(tmp_path / "c.txt")
    save_clique(path, bundled_candidate())
    code, rep = run(["keller", "basis", "--file", path], capsys)
    assert code == 1
    verdicts = rep["verdicts"]
    assert list(verdicts)[0] == "clique_valid" and not verdicts["clique_valid"]["pass"]
    assert rep["report"]["graph"] == "G_STAR" and rep["report"]["first_failure"]
    assert verdicts["basis_valid"]["pass"]
    assert "not a G_STAR-clique" in verdicts["no_local_pairs"]["note"]


@pytest.mark.parametrize("graph, verified", [("g", ["G", "G"]), ("gstar", ["G_STAR", "G"])])
def test_keller_basis_verifies_each_graph_once(tmp_path, monkeypatch, capsys, graph, verified):
    # The --graph report, then basis_from_clique's own G check: one check per report.
    path = str(tmp_path / "c.txt")
    save_clique(path, bundled_candidate())
    graphs = []

    def counting(c, g=kel.Graph.G_STAR):
        graphs.append(g.value)
        return verify_clique(c, g)

    monkeypatch.setattr(kel, "verify_clique", counting)
    code, rep = run(["keller", "basis", "--file", path, "--graph", graph], capsys)
    assert graphs == verified
    assert code == (0 if graph == "g" else 1)
    assert rep["report"] == verify_clique(bundled_candidate(), kel.Graph[verified[0]]).to_json()
    assert rep["verdicts"]["basis_valid"]["pass"]


@pytest.mark.parametrize("lines, graph, is_clique", [
    ("00 01 10 11", "g", False), ("00 01 10 11", "gstar", False),
    ("00 02", "g", True), ("00 12", "gstar", True)])
def test_keller_basis_reports_a_candidate_without_a_basis(tmp_path, capsys, lines, graph,
                                                          is_clique):
    # No G-clique of size 2^n, so no basis: the report and both verdicts, exit 1, no file.
    path, out_basis = tmp_path / "c.txt", tmp_path / "basis.json"
    path.write_text("\n".join(lines.split()) + "\n")
    code, rep = run(["keller", "basis", "--file", str(path), "--graph", graph,
                     "--out-basis", str(out_basis)], capsys)
    assert code == 1
    g = kel.Graph.G if graph == "g" else kel.Graph.G_STAR
    assert rep["report"] == verify_clique(kel.load_clique(path), g).to_json()
    verdicts = rep["verdicts"]
    assert list(verdicts) == ["clique_valid", "basis_exists"]
    assert verdicts["clique_valid"]["pass"] is is_clique
    assert not verdicts["basis_exists"]["pass"]
    assert verdicts["basis_exists"]["note"] == "candidate is not a verified G-clique of size 2^n"
    assert rep["artifacts"] == [] and not out_basis.exists()


def test_check_framefn_violation_exit_1(capsys):
    code, rep = run(
        ["check", "--dims", "3,3", "--theta", str(np.pi / 4), "--trials", "50",
         "--seed", "3"],
        capsys,
    )
    assert code == 1  # violation found — the expected outcome for this family
    assert rep["verdicts"]["framefn_no_signalling"]["value"] >= 1e-3


def test_prbox_exclusion(capsys):
    code, rep = run(
        ["prbox", "--samples", "400", "--schedule", "250,400", "--seed", "2"],
        capsys,
    )
    assert code == 0
    assert rep["extension"]["verdict"] == "INFEASIBLE"
    assert rep["verdicts"]["lp_bounds_nonincreasing"]["pass"]
    ext = rep["extension"]  # decided by the separation certificate, before any LP
    assert ext["rounds"] == 0 and ext["residual"] == ext["certificate"]["floor"]
    assert rep["verdicts"]["pr_box_excluded"]["value"] == ext["residual"]
    lp = rep["max_chsh_lp"]  # the LPs relax the decomposable set, where CHSH peaks at 2 sqrt(2)
    assert lp["exact_bound"] == pytest.approx(2 * np.sqrt(2), abs=1e-12)
    assert lp["exact_bound"] <= lp["bounds"][-1] + tolerances.LP_MONOTONE


@pytest.mark.parametrize("schedule", ["500,250", "250,250"])
def test_prbox_schedule_must_increase(schedule, capsys):
    # The LP bounds are nonincreasing only over nested, growing sample counts.
    assert main(["prbox", "--samples", "50", "--schedule", schedule, "--seed", "1"]) == 2
    out, err = capsys.readouterr()
    assert not out and "not strictly increasing" in err


def lp_only(monkeypatch):
    """Skip the certificates that decide before any LP runs."""
    monkeypatch.setattr("nsgleason.nosig._decomposition", lambda box: None)


def test_chsh_restarts_accepted_and_ignored(singlet_file, capsys):
    base = ["chsh", "--t", singlet_file, "--optimize", "--seed", "3"]
    code, rep = run(base + ["--restarts", "3"], capsys)
    _, plain = run(base, capsys)
    assert code == 0
    assert rep["chsh_value"] == plain["chsh_value"]


def test_prbox_solver_error_reported(monkeypatch, capsys):
    def fake_linprog(*args, **kwargs):
        return OptimizeResult(status=4, success=False, x=None, fun=None,
                              message="Numerical difficulties encountered.")

    lp_only(monkeypatch)
    monkeypatch.setattr("nsgleason.nosig.linprog", fake_linprog)
    code, rep = run(["prbox", "--samples", "50", "--seed", "2"], capsys)
    assert code == 1
    assert rep["extension"]["verdict"] == "ERROR"
    excluded = rep["verdicts"]["pr_box_excluded"]
    assert not excluded["pass"]
    assert "HiGHS status 4" in excluded["note"]


def test_prbox_schedule_solver_error_reported(monkeypatch, capsys):
    def fake_linprog(*args, **kwargs):
        return OptimizeResult(status=4, success=False, x=None, fun=None,
                              message="Numerical difficulties encountered.")

    lp_only(monkeypatch)
    monkeypatch.setattr("nsgleason.nosig.linprog", fake_linprog)
    code, rep = run(["prbox", "--samples", "50", "--schedule", "50,100", "--seed", "2"],
                    capsys)
    assert code == 1
    assert rep["extension"]["verdict"] == "ERROR"
    assert rep["max_chsh_lp"]["solver_status"] == 4
    final = rep["verdicts"]["lp_final_bound"]
    assert not final["pass"]
    assert "HiGHS status 4" in final["note"]


def test_prbox_solver_error_report_is_strict_json(monkeypatch, capsys):
    def fake_linprog(*args, **kwargs):
        return OptimizeResult(status=4, success=False, x=None, fun=None,
                              message="Numerical difficulties encountered.")

    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    lp_only(monkeypatch)
    monkeypatch.setattr("nsgleason.nosig.linprog", fake_linprog)
    code = main(["prbox", "--samples", "50", "--schedule", "50,100", "--seed", "2"])
    rep = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert code == 1
    assert rep["extension"]["residual"] is None
    excluded = rep["verdicts"]["pr_box_excluded"]
    assert not excluded["pass"] and excluded["value"] is None
    assert not rep["verdicts"]["lp_final_bound"]["pass"]


@pytest.mark.parametrize("fail_at", [2, 3])
def test_prbox_later_lp_solver_error_is_strict_json(monkeypatch, capsys, fail_at):
    # The PR box's certificate solves no LP.  max_chsh_lp's seed covers all 50 rows of
    # its first step, which so makes one solve; every later call is a solve of the
    # 1000-sample step, on fewer rows than it has.
    calls, failing = [], []

    def fake_linprog(*args, **kwargs):
        calls.append(kwargs["A_ub"].shape[0])
        if len(calls) in failing:
            return OptimizeResult(status=4, success=False, x=None, fun=None,
                                  message="Numerical difficulties encountered.")
        return linprog(*args, **kwargs)

    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    monkeypatch.setattr("nsgleason.nosig.linprog", fake_linprog)
    argv = ["prbox", "--samples", "50", "--schedule", "50,1000", "--seed", "2"]
    assert main(argv) == 0
    capsys.readouterr()
    assert calls[0] == 50 and len(calls) >= 3 and max(calls[1:]) < 1000
    calls.clear()
    failing.append(fail_at)
    code = main(argv)
    rep = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert code == 1 and len(calls) == fail_at
    assert rep["extension"]["verdict"] == "INFEASIBLE"
    lp = rep["max_chsh_lp"]
    assert lp["solver_status"] == 4 and "bounds" not in lp
    assert lp["exact_bound"] == pytest.approx(2 * np.sqrt(2), abs=1e-12)
    final = rep["verdicts"]["lp_final_bound"]
    assert not final["pass"] and "HiGHS status 4" in final["note"]


# Runs each argv through cli.main in one fresh interpreter and prints, as JSON, the exit
# codes, whether scipy was loaded after the import and after each run, and the last report.
COLD_START = """
import contextlib, io, json, sys
import nsgleason, nsgleason.cli

def scipy_loaded():
    return any(m.split(".")[0] == "scipy" for m in sys.modules)

runs = json.loads(sys.argv[1])
out = {"after_import": scipy_loaded(), "codes": [], "scipy": []}
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        out["codes"].append(nsgleason.cli.main(argv))
    out["scipy"].append(scipy_loaded())
out["report"] = json.loads(buf.getvalue())
print(json.dumps(out))
"""


def test_cold_start_loads_scipy_only_for_an_lp(rho_file, singlet_file, tmp_path, capsys):
    box_file = tmp_path / "box.json"
    box_file.write_text(json.dumps(pr_box().to_json()))
    lp_free = [["classify", "--t", singlet_file],
               ["reconstruct", "--operator", rho_file],
               ["section", "--t", rho_file, "--contexts", "3"],
               ["check", "--box", str(box_file)],
               ["check", "--trials", "5"],
               ["chsh", "--singlet"],
               ["twist", "--fig1"],
               ["keller", "search", "--n", "2", "--size", "4", "--graph", "g", "--exhaustive"],
               ["prbox", "--samples", "500"]]
    prbox = ["prbox", "--samples", "500", "--schedule", "500,1000", "--seed", "1"]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", COLD_START, json.dumps(lp_free + [prbox])],
                          env=env, capture_output=True, text=True, check=True)
    got = json.loads(proc.stdout)
    # check --trials 5 finds the default signalling family's violation: exit 1.
    assert got["codes"] == [0, 0, 0, 0, 1, 0, 0, 0, 0, 0]
    assert not got["after_import"] and got["scipy"] == [False] * len(lp_free) + [True]
    # The LP solved after a cold start reports what it reports with scipy already loaded.
    code, rep = run(prbox, capsys)
    assert code == 0 and got["report"]["max_chsh_lp"] == rep["max_chsh_lp"]
    assert len(rep["max_chsh_lp"]["bounds"]) == 2


def test_usage_error_exit_2(capsys):
    assert main(["not-a-command"]) == 2


def test_json_flag_is_gone(capsys):
    # Reports are always JSON; the flag that said so did nothing.
    assert main(["twist", "--fig1", "--json"]) == 2
    assert "unrecognized arguments: --json" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["check", "--dims", "3,x"], ["check", "--dims", ""],
                                  ["prbox", "--schedule", "250,,500"]])
def test_malformed_int_list_is_usage_error(argv, capsys):
    assert main(argv) == 2
    assert "not a comma list of integers" in capsys.readouterr().err


def test_int_lists_are_parsed(monkeypatch, capsys):
    seen = []
    make = cli.make_signalling_example
    monkeypatch.setattr("nsgleason.cli.make_signalling_example",
                        lambda dims, theta: seen.append(dims) or make(dims, theta))
    main(["check", "--dims", "2,3", "--trials", "5"])
    assert seen == [(2, 3)]


def test_internal_value_error_is_not_a_usage_error(singlet_file, monkeypatch):
    def fault(t):
        raise ValueError("internal fault")

    monkeypatch.setattr("nsgleason.cli.classify_orientation", fault)
    with pytest.raises(ValueError, match="internal fault"):
        main(["classify", "--t", singlet_file])


@pytest.mark.parametrize("data", [{"dims": [2, 2], "entries": [[1.0, 0.0]]}, {"dims": [2, 2]},
                                  [1, 2]])
def test_malformed_operator_file_exit_2(data, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["classify", "--t", str(path)]) == 2
    assert "not a HermitianOperator file" in capsys.readouterr().err


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("argv, dims", [(["classify", "--t"], (2, 2)),
                                        (["section", "--t"], (3, 3)), (["check", "--box"], None),
                                        (["chsh", "--optimize", "--t"], (2, 2)),
                                        (["reconstruct", "--operator"], (3, 3))],
                         ids=["classify", "section", "box", "chsh", "reconstruct"])
def test_non_finite_input_is_an_input_error(argv, dims, value, tmp_path, capsys):
    # json writes and reads NaN and Infinity; no verdict may be drawn from them.
    if dims is None:
        data = pr_box().to_json()
        data["table"]["0,0"] = [[value, value], [value, value]]
    else:
        data = random_density(make_rng(0), dims).to_json()
        data["entries"][3 * int(np.prod(dims)) + 3] = [value, 0.0]  # entry (3, 3)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(argv + [str(path)]) == 2
    out, err = capsys.readouterr()
    assert not out and "error" in json.loads(err)


@pytest.mark.parametrize("fault", ["strings", "bools"])
def test_box_entries_must_be_numbers(fault, tmp_path, capsys):
    # "0.5" and true are JSON, but not probabilities.
    data = pr_box().to_json()
    if fault == "strings":
        data["table"] = {k: [[str(p) for p in row] for row in block]
                         for k, block in data["table"].items()}
    else:
        data["table"]["0,0"] = [[True, False], [False, False]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["check", "--box", str(path)]) == 2
    out, err = capsys.readouterr()
    assert not out and "not a Box file" in json.loads(err)["error"]


@pytest.mark.parametrize("fault", ["no elements", "one-number entry"])
def test_malformed_basis_file_exit_2(fault, tmp_path, capsys):
    data = twisted_example_basis().to_json()
    if fault == "no elements":
        del data["elements"]
    else:
        data["elements"][0]["factors"][0][0] = [1.0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["twist", "--basis", str(path)]) == 2
    out, err = capsys.readouterr()
    assert not out and "not a UnentangledBasis file" in json.loads(err)["error"]


@pytest.mark.parametrize("dims", [[2.5, 2], [True, 4], ["2", "2"], [-2, -2]],
                         ids=["float", "bool", "string", "negative"])
@pytest.mark.parametrize("argv", [["classify", "--t"], ["reconstruct", "--operator"]],
                         ids=["classify", "reconstruct"])
def test_operator_dims_must_be_integers_at_least_1(argv, dims, tmp_path, capsys):
    # 16 entries: int() would read these dims as (2, 2), (1, 4), (2, 2) and (-2, -2).
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dims": dims, "entries": [[x, 0.0] for x in np.eye(4).ravel()]}))
    assert main(argv + [str(path)]) == 2
    out, err = capsys.readouterr()
    assert not out and f"dims {dims!r} are not integers >= 1" in json.loads(err)["error"]


def test_missing_file_exit_2(capsys):
    assert main(["classify", "--t", "/nonexistent.json"]) == 2


def test_reports_reproducible(singlet_file, capsys):
    def strip_timings(rep):
        rep = dict(rep)
        rep.pop("timings_ms", None)
        return rep

    _, rep1 = run(["chsh", "--t", singlet_file, "--optimize", "--seed", "11"], capsys)
    _, rep2 = run(["chsh", "--t", singlet_file, "--optimize", "--seed", "11"], capsys)
    assert strip_timings(rep1) == strip_timings(rep2)


def test_out_flag_writes_report(rho_file, tmp_path, capsys):
    out = str(tmp_path / "report.json")
    code, _ = run(
        ["section", "--t", rho_file, "--contexts", "3", "--out", out], capsys
    )
    assert code == 0
    with open(out) as fh:
        rep = json.load(fh)
    assert rep["verdicts"]["section_consistent"]["pass"]


@pytest.mark.parametrize("argv", [
    ["reconstruct", "--operator", "RHO"], ["check", "--trials", "5"], ["chsh", "--singlet"],
    ["prbox", "--samples", "50"], ["twist", "--fig1"], ["classify", "--t", "RHO"],
    ["section", "--t", "RHO", "--contexts", "3"],
    ["keller", "search", "--n", "2", "--size", "4", "--graph", "g", "--exhaustive"],
], ids=lambda argv: argv[0])
def test_out_path_in_a_missing_directory_is_an_input_error(argv, rho_file, tmp_path, capsys):
    # The report is written before it is printed: nothing reaches stdout.
    out = tmp_path / "missing" / "report.json"
    argv = [rho_file if a == "RHO" else a for a in argv]
    assert main(argv + ["--out", str(out)]) == 2
    printed, err = capsys.readouterr()
    assert not printed and str(out) in json.loads(err)["error"]


@pytest.mark.parametrize("where", ["input", "out"])
def test_a_directory_path_is_an_input_error(where, rho_file, tmp_path, capsys):
    # IsADirectoryError is an OSError like FileNotFoundError: exit 2, not a traceback.
    argv = ["classify", "--t", str(tmp_path)] if where == "input" else [
        "classify", "--t", rho_file, "--out", str(tmp_path)]
    assert main(argv) == 2
    printed, err = capsys.readouterr()
    assert not printed and str(tmp_path) in json.loads(err)["error"]


@pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
def test_non_finite_theta_is_an_input_error(theta, capsys):
    assert main(["check", f"--theta={theta}", "--trials", "5"]) == 2
    printed, err = capsys.readouterr()
    assert not printed and "needs a finite theta" in json.loads(err)["error"]


def test_out_path_is_listed_in_both_reports(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("pr.json").write_text(json.dumps(pr_box().to_json()))
    code, printed = run(["check", "--box", "pr.json", "--out", "rep.json"], capsys)
    assert code == 0
    assert printed["artifacts"] == ["rep.json"]
    assert json.loads(Path("rep.json").read_text()) == printed


@pytest.mark.parametrize("argv", [["check", "--trials", "0"], ["check", "--trials", "-1"],
                                  ["section", "--contexts", "0"], ["section", "--contexts", "-2"],
                                  ["prbox", "--samples", "-5"], ["keller", "search", "--n", "0"],
                                  ["keller", "search", "--size", "0"],
                                  ["keller", "search", "--size", "-1"],
                                  ["keller", "search", "--budget", "0"],
                                  ["twist", "--fig1", "--budget", "0"],
                                  ["twist", "--fig1", "--budget", "-1"]])
def test_counts_must_be_positive_integers(argv, rho_file, capsys):
    flag = argv[-2]
    if argv[0] == "section":
        argv = argv + ["--t", rho_file]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert not out and f"argument {flag}: not an integer > 0" in err


@pytest.mark.parametrize("argv", [["reconstruct", "--operator", "RHO"], ["check"],
                                  ["chsh", "--singlet"], ["prbox"], ["twist", "--fig1"],
                                  ["classify", "--t", "RHO"], ["section", "--t", "RHO"],
                                  ["keller", "search"]])
def test_seed_must_be_a_nonnegative_integer(argv, rho_file, capsys):
    argv = [rho_file if a == "RHO" else a for a in argv]
    assert main(argv + ["--seed", "-1"]) == 2
    out, err = capsys.readouterr()
    assert not out and "argument --seed: not an integer >= 0: '-1'" in err


def test_schedule_entries_must_be_positive_integers(capsys):
    assert main(["prbox", "--schedule", "0,500"]) == 2
    out, err = capsys.readouterr()
    assert not out and "not a comma list of integers > 0: '0,500'" in err


@pytest.mark.parametrize("argv, message", [
    (["chsh", "--optimize"], "one of the arguments --t --singlet is required"),
    (["chsh", "--t", "t.json", "--singlet"], "argument --singlet: not allowed with argument --t"),
    (["twist"], "one of the arguments --fig1 --basis is required"),
    (["twist", "--fig1", "--basis", "b.json"], "not allowed with argument --fig1"),
    (["keller", "verify"], "keller verify needs --file"),
    (["keller", "basis"], "keller basis needs --file"),
])
def test_missing_or_conflicting_input_is_usage_error(argv, message, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert not out and message in err


@pytest.mark.parametrize("fault", ["missing block", "scaled bases", "three sites"])
def test_malformed_box_file_exit_2(fault, tmp_path, capsys):
    data = with_qubit_realizations(pr_box()).to_json()
    if fault == "missing block":
        del data["table"]["0,1"]
    elif fault == "three sites":
        data["realizations"].append(data["realizations"][0])
    else:
        data["realizations"] = [{lbl: (2 * np.array(u)).tolist() for lbl, u in site.items()}
                                for site in data["realizations"]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["check", "--box", str(path)]) == 2
    out, err = capsys.readouterr()
    assert not out and "not a Box file" in json.loads(err)["error"]


def without_timings(rep):
    return {k: v for k, v in rep.items() if k != "timings_ms"}


def test_cached_parser_keeps_no_state(rho_file, singlet_file, capsys):
    section = ["section", "--t", rho_file, "--contexts", "3"]
    classify = ["classify", "--t", singlet_file]

    def first_run(argv):  # the report of argv as the first call in a process
        cli.build_parser.cache_clear()
        code, rep = run(argv, capsys)
        return code, without_timings(rep)

    want = {"section": first_run(section), "classify": first_run(classify)}
    cli.build_parser.cache_clear()
    code, rep = run(section, capsys)
    assert (code, without_timings(rep)) == want["section"]
    # A usage error after some flags were parsed, then --help: neither leaves a trace.
    assert main(["section", "--t", rho_file, "--seed", "7", "--contexts", "5", "--bogus"]) == 2
    assert main(["--help"]) == 0
    assert "reconstruct" in capsys.readouterr().out
    for name, argv in (("classify", classify), ("section", section)):
        code, rep = run(argv, capsys)
        assert (code, without_timings(rep)) == want[name]
    assert cli.build_parser() is cli.build_parser()


def test_main_looks_up_the_handler_when_it_runs(singlet_file, monkeypatch, capsys):
    assert run(["classify", "--t", singlet_file], capsys)[0] == 0
    seen = []
    monkeypatch.setattr("nsgleason.cli.cmd_classify",
                        lambda args, rep: seen.append(args.t) or rep.verdict("swapped", True, 1, 0))
    code, rep = run(["classify", "--t", singlet_file], capsys)
    assert code == 0 and seen == [singlet_file] and list(rep["verdicts"]) == ["swapped"]


@pytest.mark.parametrize("argv", [
    ["classify", "--t"], ["reconstruct", "--operator"], ["section", "--t"],
    ["chsh", "--optimize", "--t"], ["check", "--box"], ["twist", "--basis"],
    ["keller", "verify", "--file"], ["keller", "basis", "--file"]],
    ids=lambda argv: "-".join(a.lstrip("-") for a in argv))
def test_a_file_that_is_not_utf8_is_an_input_error(argv, tmp_path, capsys):
    # A UTF-16 file starts with the bytes ff fe, which no UTF-8 text does.
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + "{}\n0123\n".encode("utf-16-le"))
    assert main(argv + [str(path)]) == 2
    out, err = capsys.readouterr()
    assert not out and json.loads(err)["error"] == f"{path}: not UTF-8 text"
