"""Command-line front end: seeded, JSON-reported experiments.

Every subcommand fills in the run report that ``main`` builds (command echo,
seed, timings, verdicts with their tolerances, artifact paths); the run exits
0 when all verdicts pass, 1 when a violation was found (which for some
commands is the expected outcome, stated in the report), and 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

import numpy as np

from . import keller as kel
from . import tolerances as tol
from .bases import (
    BasisReport,
    UnentangledBasis,
    _local_pairs,
    twist_search,
    twisted_example_certificate,
    validate_unentangled,
)
from .framefn import make_signalling_example, sample_from_operator
from .gleason import reconstruct_pvm, spanning_design
from .linalg import HermitianOperator, ValidationError
from .nosig import (
    SINGLET_ANGLES,
    TSIRELSON,
    Box,
    SolverError,
    bell_operator,
    check_box,
    check_framefn,
    chsh_optimize,
    chsh_value,
    decomposable_max,
    equator_basis,
    max_chsh_lp,
    pr_box,
    quantum_extension,
    singlet,
    with_qubit_realizations,
)
from .orientation import classify_orientation
from .presheaf import check_section, random_context_family, section_from_operator

EXIT_PASS, EXIT_VIOLATION, EXIT_USAGE = 0, 1, 2


class Report:
    def __init__(self, argv, seed):
        self.data = {
            "command": " ".join(argv),
            "seed": seed,
            "timings_ms": {},
            "verdicts": {},
            "artifacts": [],
        }
        self._t0 = time.perf_counter()

    def verdict(self, name, passed, value, tolerance, note=""):
        self.data["verdicts"][name] = {
            "pass": bool(passed),
            "value": value,
            "tolerance": tolerance,
            "note": note,
        }

    def finish(self, out=None):
        self.data["timings_ms"]["total"] = round(
            1000 * (time.perf_counter() - self._t0), 3
        )
        if out:
            self.data["artifacts"].append(out)
        # JSON has no NaN or infinity: _jsonable reports them as null.
        text = json.dumps(_jsonable(self.data), indent=2, allow_nan=False)
        if out:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        print(text)
        all_pass = all(v["pass"] for v in self.data["verdicts"].values())
        return EXIT_PASS if all_pass else EXIT_VIOLATION


def _jsonable(obj):
    """A copy of a report with numpy scalars as Python numbers and every
    non-finite float replaced by None."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj


def _load(path, cls):
    """cls.from_json of a JSON file; a file that is not UTF-8 text or is of the
    wrong shape is an input error."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except UnicodeDecodeError:
        raise ValidationError(f"{path}: not UTF-8 text") from None
    try:
        return cls.from_json(data)
    except (LookupError, TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: not a {cls.__name__} file ({exc!r})") from exc


def cmd_reconstruct(args, rep):
    t = _load(args.operator, HermitianOperator)
    design = spanning_design(t.dims)
    rec = reconstruct_pvm(sample_from_operator(t, design.states), design, seed=args.seed)
    frob = float(np.linalg.norm(rec.t.mat - t.mat))
    rep.data["design"] = {
        "bases_per_site": [len(v) // d for d, v in zip(design.dims, design.local)],
        "states": len(design.states), "feature_rank": list(rec.ranks),
        "condition_numbers": list(rec.condition_numbers)}
    rep.data["classification"] = rec.classification.value
    if rec.certificate is not None:
        rep.data["evidence"] = {"orientation_certificate": rec.certificate.to_json()}
    elif rec.witness is not None:
        rep.data["evidence"] = {"seesaw_min": rec.witness.value,
                                "seesaw_sweeps": rec.witness.sweeps,
                                "product_positive_threshold": tol.PRODUCT_POSITIVE}
    rep.verdict("round_trip_frobenius", frob <= tol.ROUND_TRIP, frob, tol.ROUND_TRIP)
    rep.verdict("holdout_residual", rec.residual <= tol.HOLDOUT_RESIDUAL, rec.residual,
                tol.HOLDOUT_RESIDUAL, "in sample: the product-basis grid's residual, "
                "0 when the values summed over each local basis agree")
    rep.verdict("unit_trace", abs(rec.t.trace() - 1) <= tol.UNIT_TRACE, rec.t.trace(),
                tol.UNIT_TRACE, "expected for weight-1 frame functions")


def cmd_check(args, rep):
    if args.box:
        report = check_box(_load(args.box, Box))
        rep.verdict("box_no_signalling", report.passed, report.max_discrepancy,
                    report.tolerance)
        if report.witness:
            rep.data["witness"] = report.witness
    else:
        f = make_signalling_example(args.dims, args.theta)
        report = check_framefn(f, trials=args.trials, seed=args.seed)
        rep.verdict("framefn_no_signalling", report.passed, report.max_discrepancy,
                    report.tolerance, "violation is the expected outcome for theta not in pi*Z")
        if report.witness:
            rep.data["witness"] = {
                k: v for k, v in report.witness.items() if k in ("trial", "site")
            }


def cmd_chsh(args, rep):
    t = singlet() if args.singlet else _load(args.t, HermitianOperator)
    if abs(t.trace() - 1.0) > tol.UNIT_TRACE:
        rep.data["warning"] = f"operator trace {t.trace()} is not 1"
    note = ""
    if args.optimize:
        value = chsh_optimize(t)[0]
        note = "exact maximum; above 2*sqrt(2) only for operators that are not PSD"
    elif args.singlet:
        value = chsh_value(t, [equator_basis(a) for a in SINGLET_ANGLES])
    else:
        raise ValidationError("non-optimize mode requires --singlet settings")
    rep.data["chsh_value"] = value
    rep.verdict("tsirelson", value <= TSIRELSON + tol.TSIRELSON_SLACK, value,
                tol.TSIRELSON_SLACK, note)


def cmd_prbox(args, rep):
    box = with_qubit_realizations(pr_box())
    verdict = quantum_extension(box, positivity_samples=args.samples, seed=args.seed)
    rep.data["extension"] = verdict.to_json()
    note = "INFEASIBLE is the expected (desired) outcome"
    if verdict.verdict == "ERROR":
        note = (f"LP solver failed (HiGHS status {verdict.solver_status}: "
                f"{verdict.solver_message}); no verdict")
    rep.verdict("pr_box_excluded", verdict.verdict == "INFEASIBLE", verdict.residual,
                tol.INFEASIBLE_RESIDUAL, note)
    if args.schedule:
        # Over unit-trace t = A + C^Γ (A, C PSD), which the LPs relax, CHSH peaks at this.
        bell = HermitianOperator((2, 2), bell_operator([*box.bases[0], *box.bases[1]]))
        exact = decomposable_max(bell)[0]
        try:
            bounds = max_chsh_lp(box, args.schedule, seed=args.seed)
        except SolverError as exc:
            rep.data["max_chsh_lp"] = {"schedule": args.schedule, "exact_bound": exact,
                                       "solver_status": exc.status, "solver_message": exc.message}
            rep.verdict("lp_final_bound", False, None, tol.LP_CHSH_BOUND,
                        f"LP solver failed (HiGHS status {exc.status}: {exc.message}); no bound")
            return
        rep.data["max_chsh_lp"] = {"schedule": args.schedule, "bounds": bounds,
                                   "exact_bound": exact}
        mono = all(b2 <= b1 + tol.LP_MONOTONE for b1, b2 in zip(bounds, bounds[1:]))
        rep.verdict("lp_bounds_nonincreasing", mono, bounds, tol.LP_MONOTONE)
        rep.verdict("lp_final_bound", bounds[-1] < tol.LP_CHSH_BOUND, bounds[-1],
                    tol.LP_CHSH_BOUND)


def cmd_twist(args, rep):
    if args.fig1:
        cert = twisted_example_certificate()
        rep.verdict("certificate_replay", cert.replay(), len(cert.moves), tol.REPLAY_MATCH,
                    "bundled nine-element example")
        steps = [validate_unentangled(b) for b in cert.walk()]
        rep.verdict("intermediate_valid", all(v.is_valid for v in steps),
                    max(v.worst_overlap for v in steps), BasisReport.tolerance)
    else:
        res = twist_search(_load(args.basis, UnentangledBasis), budget=args.budget)
        rep.data["found"] = res.found
        rep.data["reason"] = res.reason
        cert = res.certificate
        if res.found:
            rep.verdict("certificate_replay", cert.replay(), len(cert.moves), tol.REPLAY_MATCH)
        else:
            rep.verdict("twist_search", False, res.moves_tried, None,
                        "exhaustion is not a proof of non-membership")
    if cert is not None and args.out_cert:
        with open(args.out_cert, "w") as fh:
            fh.write(json.dumps(cert.to_json()))
        rep.data["artifacts"].append(args.out_cert)


def cmd_classify(args, rep):
    t = _load(args.t, HermitianOperator)
    cls = classify_orientation(t)
    rep.data["orientation"] = cls.to_json()
    rep.verdict("orientation_classified", cls.value.value != "NEITHER", cls.value.value,
                tol.PSD, "NEITHER means no local time orientation renders the map CP")


def cmd_section(args, rep):
    t = _load(args.t, HermitianOperator)
    contexts, edges = random_context_family(t.dims, args.contexts, seed=args.seed)
    table = section_from_operator(t, contexts)
    report = check_section(table, edges)
    rep.data["n_contexts"] = len(contexts)
    rep.data["n_edges"] = len(edges)
    rep.verdict("section_consistent", report.passed, report.max_distance,
                report.tolerance, report.worst_edge or "")


def cmd_keller(args, rep):
    graph = kel.Graph.G_STAR if args.graph == "gstar" else kel.Graph.G
    if args.action != "search" and not args.file:
        raise ValidationError(f"keller {args.action} needs --file")
    if args.action == "verify":
        cand = kel.load_clique(args.file)
        t0 = time.perf_counter()
        report = kel.verify_clique(cand, graph)
        rep.data["timings_ms"]["verify"] = round(1000 * (time.perf_counter() - t0), 3)
        rep.data["report"] = report.to_json()
        rep.verdict("clique_verified", report.is_clique, report.size, None)
    elif args.action == "search":
        mode = kel.SearchMode.EXHAUSTIVE if args.exhaustive else kel.SearchMode.HEURISTIC
        found = kel.clique_search(args.n, args.size, mode, args.budget, args.seed, graph)
        if found is None:
            note = (
                "no clique exists (exhaustive proof)"
                if mode == kel.SearchMode.EXHAUSTIVE
                else "not found within budget (no proof)"
            )
            rep.verdict("clique_found", False, None, None, note)
        else:
            rep.data["clique"] = ["".join(map(str, v)) for v in found.vectors]
            rep.verdict("clique_found", True, found.size, None)
            if args.out_clique:
                kel.save_clique(args.out_clique, found)
                rep.data["artifacts"].append(args.out_clique)
    elif args.action == "basis":
        cand = kel.load_clique(args.file)
        report = kel.verify_clique(cand, graph)
        rep.data["report"] = report.to_json()
        rep.verdict("clique_valid", report.is_clique, report.size, None,
                    f"pairwise adjacency in {graph.value}")
        try:
            basis = kel.basis_from_clique(cand)
        except ValidationError as exc:  # no basis, so nothing more to check
            rep.verdict("basis_exists", False, None, None, str(exc))
            return
        v = validate_unentangled(basis)
        rep.verdict("basis_valid", v.is_valid, v.worst_overlap, v.tolerance)
        if graph == kel.Graph.G_STAR:
            n_pairs = len(_local_pairs(basis)[0])  # counted: no (site, pair) list is built
            note = ("facet-free cliques admit no twist moves" if report.is_clique else
                    "counted on a candidate that is not a G_STAR-clique, so no "
                    "absence of local pairs is implied")
            rep.verdict("no_local_pairs", n_pairs == 0, n_pairs, None, note)
        if args.out_basis:
            with open(args.out_basis, "w") as fh:
                fh.write(json.dumps(basis.to_json()))
            rep.data["artifacts"].append(args.out_basis)


def int_list(text: str) -> tuple:
    """argparse type of a comma list of integers > 0, such as "3,3"."""
    try:
        return tuple(positive_int(x) for x in text.split(","))
    except (ValueError, argparse.ArgumentTypeError):
        raise argparse.ArgumentTypeError(f"not a comma list of integers > 0: {text!r}") from None


def positive_int(text: str) -> int:
    """argparse type of an integer > 0, such as "100"."""
    if not int(text) > 0:
        raise argparse.ArgumentTypeError(f"not an integer > 0: {text!r}")
    return int(text)


def nonnegative_int(text: str) -> int:
    """argparse type of an integer >= 0, such as a seed."""
    if not int(text) >= 0:
        raise argparse.ArgumentTypeError(f"not an integer >= 0: {text!r}")
    return int(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call and shared after that.

    It holds no handlers: ``main`` looks up ``cmd_<subcommand>`` when each
    call runs, and each ``parse_args`` call fills a fresh namespace.
    """
    p = argparse.ArgumentParser(
        prog="nsgleason",
        description="No-signalling frame functions: reconstruction, "
        "orientation classification, twisted bases, tiling counterexamples.",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp):
        sp.add_argument("--seed", type=nonnegative_int, default=0)
        sp.add_argument("--out", help="write the JSON run report to this path")

    sp = sub.add_parser("reconstruct", help="round-trip operator reconstruction")
    sp.add_argument("--operator", required=True, help="operator JSON file")
    common(sp)

    sp = sub.add_parser("check", help="no-signalling checks (box or frame function)")
    sp.add_argument("--box", help="box JSON file")
    sp.add_argument("--dims", type=int_list, default=(3, 3))
    sp.add_argument("--theta", type=float, default=np.pi / 4)
    sp.add_argument("--trials", type=positive_int, default=100)
    common(sp)

    sp = sub.add_parser("chsh", help="CHSH evaluation / optimization")
    source = sp.add_mutually_exclusive_group(required=True)
    source.add_argument("--t", help="operator JSON file")
    source.add_argument("--singlet", action="store_true")
    sp.add_argument("--optimize", action="store_true")
    sp.add_argument("--restarts", type=int,
                    help="ignored: the CHSH maximum is computed exactly")
    common(sp)

    sp = sub.add_parser("prbox", help="PR-box quantum-extension feasibility")
    sp.add_argument("--samples", type=positive_int, default=2000)
    sp.add_argument("--schedule", type=int_list,
                    help="comma list of LP sample counts, e.g. 250,500,1000,2000")
    common(sp)

    sp = sub.add_parser("twist", help="twist-move search / certificate replay")
    source = sp.add_mutually_exclusive_group(required=True)
    source.add_argument("--fig1", action="store_true",
                        help="run the bundled nine-element worked example")
    source.add_argument("--basis", help="unentangled basis JSON file")
    sp.add_argument("--budget", type=positive_int, default=50)
    sp.add_argument("--out-cert", help="write the found certificate here")
    common(sp)

    sp = sub.add_parser("classify", help="CP / co-CP orientation classification")
    sp.add_argument("--t", required=True, help="operator JSON file")
    common(sp)

    sp = sub.add_parser("section", help="build + check a context-family section")
    sp.add_argument("--t", required=True, help="operator JSON file")
    sp.add_argument("--contexts", type=positive_int, default=20,
                    help="length of the context chain (each adds 2 fine contexts + 4 edges)")
    common(sp)

    sp = sub.add_parser("keller", help="tiling-graph clique verify/search/basis")
    sp.add_argument("action", choices=["verify", "search", "basis"])
    sp.add_argument("--file", help="clique file (one digit-string per line)")
    sp.add_argument("--graph", choices=["g", "gstar"], default="gstar")
    sp.add_argument("--n", type=positive_int, default=2)
    sp.add_argument("--size", type=positive_int, default=4)
    sp.add_argument("--exhaustive", action="store_true")
    sp.add_argument("--budget", type=positive_int, default=1000)
    sp.add_argument("--out-clique")
    sp.add_argument("--out-basis")
    common(sp)

    return p


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    rep = Report(["nsgleason"] + argv, args.seed)
    try:
        globals()[f"cmd_{args.cmd}"](args, rep)
        return rep.finish(args.out)  # in the try: an --out that cannot be written exits 2
    except (ValidationError, OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
