"""Golden CLI reports: a fixed case list run through ``cli.main``.

``write_inputs`` writes every input file the cases read into a directory, and
``run_case`` runs one case there and keeps what a report must repeat: the exit
code, the JSON report on stdout (without ``timings_ms``) and the error message of
an input error, with the directory's path written as ``{dir}``.  Between them the
cases run all 8 subcommands, reach every verdict name in ``cli.py`` and exit with
0, 1 and 2.  ``tests/test_golden.py`` reruns them against ``reports.json``.

Rewrite the reports, after a change that is meant to change them, with

    PYTHONPATH=src python tests/golden/make.py
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from nsgleason import cli
from nsgleason.bases import UnentangledBasis, twisted_example_basis
from nsgleason.linalg import (HermitianOperator, make_rng, proj, random_density,
                              random_hermitian, random_onb)
from nsgleason.nosig import box_from_operator, pr_box

REPORTS = Path(__file__).with_name("reports.json")

# name -> argv, where {dir} stands for the directory that holds the inputs.
CASES = {
    "reconstruct_density": ["reconstruct", "--operator", "{dir}/rho33.json"],
    "reconstruct_traceless": ["reconstruct", "--operator", "{dir}/traceless33.json", "--seed", "3"],
    "reconstruct_qubits": ["reconstruct", "--operator", "{dir}/rho22.json"],
    "check_density_box": ["check", "--box", "{dir}/box33.json"],
    "check_signalling_box": ["check", "--box", "{dir}/signalling_box.json"],
    "check_signalling_framefn": ["check", "--dims", "3,3", "--theta", "0.7", "--trials", "20",
                                 "--seed", "1"],
    "check_theta_0": ["check", "--dims", "2,3", "--theta", "0", "--trials", "20"],
    "check_trials_0": ["check", "--trials", "0"],
    "chsh_singlet": ["chsh", "--singlet"],
    "chsh_optimize_density": ["chsh", "--t", "{dir}/rho22.json", "--optimize"],
    "chsh_optimize_above_tsirelson": ["chsh", "--t", "{dir}/bell22.json", "--optimize"],
    "chsh_without_optimize": ["chsh", "--t", "{dir}/rho22.json"],
    "prbox_schedule": ["prbox", "--samples", "100", "--schedule", "50,100"],
    "twist_fig1": ["twist", "--fig1"],
    "twist_search_found": ["twist", "--basis", "{dir}/basis9.json", "--budget", "8",
                           "--out-cert", "{dir}/cert.json"],
    "twist_search_not_found": ["twist", "--basis", "{dir}/basis3.json"],
    "twist_budget_0": ["twist", "--basis", "{dir}/basis9.json", "--budget", "0"],
    "classify_cp": ["classify", "--t", "{dir}/phi33.json"],
    "classify_co_cp": ["classify", "--t", "{dir}/swap33.json"],
    "classify_neither": ["classify", "--t", "{dir}/mix33.json"],
    "classify_three_sites": ["classify", "--t", "{dir}/rho222.json"],
    "classify_missing_file": ["classify", "--t", "{dir}/missing.json"],
    "section_density": ["section", "--t", "{dir}/rho33.json", "--contexts", "3", "--seed", "2"],
    "section_three_sites": ["section", "--t", "{dir}/rho222.json"],
    "keller_verify_g": ["keller", "verify", "--graph", "g", "--file", "{dir}/grid3.txt"],
    "keller_verify_gstar": ["keller", "verify", "--file", "{dir}/grid3.txt"],
    "keller_verify_needs_file": ["keller", "verify"],
    "keller_search_exhaustive_found": ["keller", "search", "--n", "3", "--size", "5",
                                       "--exhaustive", "--out-clique", "{dir}/found.txt"],
    "keller_search_exhaustive_none": ["keller", "search", "--n", "3", "--size", "6",
                                      "--exhaustive"],
    "keller_search_heuristic_g": ["keller", "search", "--n", "2", "--size", "4", "--graph", "g",
                                  "--budget", "5", "--seed", "4"],
    "keller_search_heuristic_none": ["keller", "search", "--n", "2", "--size", "5",
                                     "--budget", "3"],
    "keller_basis_g": ["keller", "basis", "--graph", "g", "--file", "{dir}/grid3.txt",
                       "--out-basis", "{dir}/basis8.json"],
    "keller_basis_g_not_a_clique": ["keller", "basis", "--graph", "g", "--file",
                                    "{dir}/pair2.txt"],
    "keller_basis_g_partial_clique": ["keller", "basis", "--graph", "g", "--file",
                                      "{dir}/clique5.txt"],
    "keller_basis_gstar_grid": ["keller", "basis", "--file", "{dir}/grid3.txt"],
    "keller_basis_gstar_partial_clique": ["keller", "basis", "--file", "{dir}/clique5.txt"],
}


def _write(path: Path, data) -> None:
    path.write_text(data if isinstance(data, str) else json.dumps(data))


def write_inputs(root: Path) -> None:
    """Write every input file of CASES into ``root``."""
    root = Path(root)
    rho33 = random_density(make_rng(0), (3, 3))
    _write(root / "rho33.json", rho33.to_json())
    _write(root / "rho22.json", random_density(make_rng(1), (2, 2)).to_json())
    _write(root / "rho222.json", random_density(make_rng(0), (2, 2, 2)).to_json())
    h = random_hermitian(make_rng(4), (3, 3))
    _write(root / "traceless33.json",
           HermitianOperator((3, 3), h.mat - h.trace() / 9 * np.eye(9)).to_json())
    # Unit trace, not PSD: 4 |phi+><phi+| - 3 I/4 has CHSH maximum 8 sqrt(2).
    phi2 = proj(np.array([1, 0, 0, 1]) / np.sqrt(2))
    _write(root / "bell22.json", HermitianOperator((2, 2), 4 * phi2 - 0.75 * np.eye(4)).to_json())
    phi3 = proj(np.eye(3).ravel() / np.sqrt(3))
    swap = np.eye(9)[[3 * (k % 3) + k // 3 for k in range(9)]]
    for name, m in (("phi33", phi3), ("swap33", swap / 3), ("mix33", (phi3 + swap / 3) / 2)):
        _write(root / f"{name}.json", HermitianOperator((3, 3), m).to_json())
    rng = make_rng(2)
    t = random_density(rng, (3, 3))
    bases = tuple({a: random_onb(rng, 3) for a in (0, 1)} for _ in (0, 1))
    _write(root / "box33.json", box_from_operator(t, bases).to_json())
    # Site 0's outcome is site 1's setting: its marginal depends on the remote setting.
    box = pr_box().to_json()
    box["table"] = {f"{x},{y}": [[1.0, 0.0], [0.0, 0.0]] if y == 0 else [[0.0, 0.0], [1.0, 0.0]]
                    for x in (0, 1) for y in (0, 1)}
    _write(root / "signalling_box.json", box)
    _write(root / "basis9.json", twisted_example_basis().to_json())
    e = np.eye(2)
    _write(root / "basis3.json", UnentangledBasis([e[[0, 0, 1]], e[[0, 1, 0]]]).to_json())
    grid = np.array(np.meshgrid(*[[0, 2]] * 3, indexing="ij")).reshape(3, -1).T
    _write(root / "grid3.txt", "".join("".join(map(str, v)) + "\n" for v in grid))
    _write(root / "pair2.txt", "00\n01\n")
    # A G*-clique of size 5 at n = 3, the largest there is, but no 2^3 tiling.
    _write(root / "clique5.txt", "000\n022\n202\n220\n111\n")


def _placed(obj, root: str):
    """``obj`` with ``root`` written as ``{dir}`` in every string."""
    if isinstance(obj, dict):
        return {k: _placed(v, root) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_placed(v, root) for v in obj]
    return obj.replace(root, "{dir}") if isinstance(obj, str) else obj


def run_case(argv, root) -> dict:
    """Run one case on the inputs in ``root``: its exit code, its report (None if it
    printed none) without timings, and the error message of an input error (None
    for a usage error, whose text is argparse's)."""
    root = str(root)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([a.replace("{dir}", root) for a in argv])
    report = json.loads(out.getvalue()) if out.getvalue().strip() else None
    if report is not None:
        del report["timings_ms"]
    try:
        error = json.loads(err.getvalue())["error"]
    except ValueError:
        error = None
    return _placed({"exit": code, "report": report, "error": error}, root)


def main() -> None:
    with tempfile.TemporaryDirectory() as root:
        write_inputs(Path(root))
        reports = {name: run_case(argv, root) for name, argv in CASES.items()}
    REPORTS.write_text(json.dumps(reports, indent=1, allow_nan=False) + "\n")
    print(f"wrote {len(reports)} reports to {REPORTS}", file=sys.stderr)


if __name__ == "__main__":
    main()
