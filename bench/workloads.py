"""The benchmark's three workloads: seeded inputs, jobs and output checks.

Each workload is a cyclic *deck* of 100 job slots.  The deck fixes how many
jobs of each kind and size a run does and in which order, so the job mix is
the same on every seed; the seed only draws the instances (operators, boxes,
bases, library seeds).  Each kind's slots are spread evenly through the deck,
so a pool of the deck's first n slots has close to the deck's mix.

Inputs are made with the benchmark's own numpy generator, and every check
compares a job's output with a reference computed here from the inputs, not
with anything the library computes.  Jobs call the library through module
attributes (``gleason.spanning_design``, ``cli.main``), so the tracer's
wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

import nsgleason.cli as cli
from nsgleason import framefn, gleason, linalg, nosig

TSIRELSON = 2.0 * np.sqrt(2.0)
PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


class CheckFailed(Exception):
    """A job ran but its output disagrees with the reference."""


@dataclass
class Job:
    """``run()`` does the library's work and returns its raw output; only it
    is timed.  ``check(output, stats)`` compares that output with the
    reference, raising CheckFailed, and adds to the run's statistics."""

    name: str
    kind: str
    run: object
    check: object
    inputs: tuple = ()  # what the seed drew for this job, for the self-tests


@dataclass
class Workload:
    warmups: list
    jobs: list
    stats: dict = field(default_factory=dict)


def expect(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def call_cli(argv):
    """Run ``nsgleason.cli.main`` in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def report(result, codes=(0,)) -> dict:
    """The JSON report of a call_cli result, after checking the exit code."""
    code, text = result
    expect(code in codes, f"exit code {code}, expected {codes}")
    return json.loads(text)


def cli_args(*args):
    return [str(a) for a in args]


def bump(stats, key, by=1):
    stats[key] = stats.get(key, 0) + by


# ---------------------------------------------------------------------------
# Reference numerics (numpy only)

def rand_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def rand_density(rng, d_total):
    g = rand_complex(rng, (d_total, d_total))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def rand_onb(rng, d):
    q, r = np.linalg.qr(rand_complex(rng, (d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def ptranspose(m, dims):
    d1, d2 = dims
    return m.reshape(d1, d2, d1, d2).transpose(2, 1, 0, 3).reshape(d1 * d2, d1 * d2)


def min_eig(m):
    return float(np.linalg.eigvalsh(m)[0])


def horodecki_chsh(m):
    """Maximal CHSH value of a two-qubit operator (Horodecki et al. 1995)."""
    corr = np.array([[np.trace(m @ np.kron(a, b)).real for b in PAULI] for a in PAULI])
    top = np.sort(np.linalg.eigvalsh(corr.T @ corr))[::-1]
    return 2.0 * np.sqrt(top[0] + top[1])


def box_table(m, real_a, real_b):
    """P[A, B] = <u_A (x) v_B| m |u_A (x) v_B> for bases given as columns."""
    vecs = np.einsum("ia,jb->abij", real_a, real_b).reshape(
        real_a.shape[1], real_b.shape[1], -1)
    return np.einsum("abi,ij,abj->ab", vecs.conj(), m, vecs).real


def signalling_gap(table):
    """Largest change of a marginal under a change of the remote setting."""
    worst = 0.0
    for a in (0, 1):
        worst = max(worst, np.max(np.abs(table[a, 0].sum(1) - table[a, 1].sum(1))))
        worst = max(worst, np.max(np.abs(table[0, a].sum(0) - table[1, a].sum(0))))
    return float(worst)


def operator_json(m, dims):
    return {"dims": list(dims), "entries": [[z.real, z.imag] for z in m.ravel()]}


def vector_json(v):
    return [[z.real, z.imag] for z in v]


def box_json(table):
    return {
        "settings": [[0, 1], [0, 1]],
        "outcomes": [list(range(table.shape[2])), list(range(table.shape[3]))],
        "table": {f"{a},{b}": table[a, b].tolist() for a in (0, 1) for b in (0, 1)},
    }


def is_clique(vectors, facet_free):
    """Pairwise adjacency in G (some coordinate differs by 2), or in G*."""
    v = np.asarray(vectors, dtype=np.int16)
    diff = np.abs(v[:, None, :] - v[None, :, :])
    ok = np.any(diff == 2, axis=2)
    if facet_free:
        ok &= np.count_nonzero(diff, axis=2) >= 2
    np.fill_diagonal(ok, True)
    return bool(ok.all()) and len({tuple(x) for x in v}) == len(v)


def single_coordinate_pairs(vectors):
    v = np.asarray(vectors, dtype=np.int16)
    hamming = np.count_nonzero(v[:, None, :] != v[None, :, :], axis=2)
    return int(np.count_nonzero(hamming == 1)) // 2


# ---------------------------------------------------------------------------
# Twisted product bases, made and replayed without the library

# A basis is a list with one (N, d_s) array per site: row k holds the site-s
# factor of element k.
SAME_TOL = 1e-9


def local_pairs(sites):
    """(site, i, j) for element pairs that differ in exactly one factor."""
    differs = np.array([np.abs(f.conj() @ f.T) < 1 - SAME_TOL for f in sites])
    count = differs.sum(axis=0)
    return [(int(np.argmax(differs[:, i, j])), int(i), int(j))
            for i, j in zip(*np.nonzero(np.triu(count == 1, k=1)))]


def canonical(v):
    """Phase convention of product-state factors: first entry above 1e-12 real > 0."""
    first = v[np.argmax(np.abs(v) > 1e-12)]
    return v * (first.conjugate() / abs(first))


def twist(sites, site, i, j, rot):
    """Rotate the site factors of elements i, j; rotations act on canonical factors.

    Element j takes element i's factors at the other sites, as the library's
    twist move does (they agree up to phase).
    """
    ui, uj = canonical(sites[site][i]), canonical(sites[site][j])
    for s, f in enumerate(sites):
        if s != site:
            f[j] = f[i]
    sites[site][i] = rot[0, 0] * ui + rot[0, 1] * uj
    sites[site][j] = rot[1, 0] * ui + rot[1, 1] * uj


def twisted_basis(rng, dims, n_moves):
    """A random product basis with ``n_moves`` random local twists applied."""
    local = [rand_onb(rng, d) for d in dims]
    cells = np.array(list(itertools.product(*(range(d) for d in dims))))
    sites = [local[s][:, cells[:, s]].T.copy() for s in range(len(dims))]
    for _ in range(n_moves):
        pairs = local_pairs(sites)
        site, i, j = pairs[rng.integers(len(pairs))]
        twist(sites, site, i, j, rand_onb(rng, 2))
    return sites


def complex_array(rows):
    a = np.asarray(rows, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def check_certificate(cert, sites):
    """Replay a twist certificate and check it ends on a product basis."""
    elements = cert["initial"]["elements"]
    initial = [complex_array([e["factors"][s] for e in elements]) for s in range(len(sites))]
    expect(all(f.shape == g.shape for f, g in zip(initial, sites)),
           "certificate basis has the wrong shape")
    for f, g in zip(initial, sites):
        expect(np.all(np.abs(np.sum(f.conj() * g, axis=1)) > 1 - 1e-8),
               "certificate starts from another basis")
    for move in cert["moves"]:
        s, (i, j) = move["site"], move["pair"]
        rot = complex_array(move["rotation"])
        expect(np.abs(rot.conj().T @ rot - np.eye(2)).max() <= 1e-8, "rotation not unitary")
        overlaps = [abs(np.vdot(f[i], f[j])) for f in initial]
        expect(overlaps[s] < 1e-8, "pair not orthogonal at the twist site")
        expect(all(ov > 1 - 1e-8 for t, ov in enumerate(overlaps) if t != s),
               "pair differs at more than one site")
        twist(initial, s, i, j, rot)
    cells = []
    for f, local in zip(initial, cert["final"]):
        local = complex_array(local)
        expect(np.abs(local.conj() @ local.T - np.eye(len(local))).max() <= 1e-8,
               "final local basis not orthonormal")
        hits = np.abs(f.conj() @ local.T) > 1 - 1e-8
        expect(np.all(hits.sum(axis=1) == 1), "replayed element is not in the final product basis")
        cells.append(np.argmax(hits, axis=1))
    expect(len(set(zip(*cells))) == len(initial[0]),
           "replay does not end on the whole product basis")


DECK_SIZE = 100


def deck(spread, fill):
    """Job slots: each ``(job, count)`` of ``spread`` takes ``count`` evenly
    spaced slots, in order; the remaining slots cycle through ``fill``."""
    slots = [None] * DECK_SIZE
    for job, count in spread:
        for k in range(count):
            i = int((k + 0.5) * DECK_SIZE / count)
            while slots[i % DECK_SIZE] is not None:
                i += 1
            slots[i % DECK_SIZE] = job
    rest = itertools.cycle(fill)
    return tuple(job if job is not None else next(rest) for job in slots)


def pool(slots, n_jobs):
    """The first ``n_jobs`` slots of the cycled deck."""
    return list(itertools.islice(itertools.cycle(slots), n_jobs))


# ---------------------------------------------------------------------------
# reconstruct

RECONSTRUCT_DECK = deck([
    # Sorted by latency: 28 (3,3) densities, then 57 (3,3) see-saw jobs that
    # hold the median, then 10 (4,4) densities that hold the 90th percentile
    # in their middle, then 4 (4,4) see-saw jobs and one (5,5) job.
    ((5, "partial_transpose"), 1),
    ((4, "hermitian"), 2), ((4, "partial_transpose"), 2), ((4, "density"), 10),
], [(3, "density"), (3, "partial_transpose"), (3, "hermitian")])
RECONSTRUCT_KINDS = ("density", "partial_transpose", "hermitian")
RECONSTRUCT_WARMUP = [(3, k) for k in RECONSTRUCT_KINDS]
FRAMEFN_TRIALS = 50
SECTION_CONTEXTS = 10


def reconstruct_job(rng, workdir, idx, d, kind):
    dims = (d, d)
    d_total = d * d
    if kind == "density":
        m = rand_density(rng, d_total)
    elif kind == "partial_transpose":
        m = ptranspose(rand_density(rng, d_total), dims)
    else:  # traceless, so some computational product state has a negative value
        z = rand_complex(rng, (d_total, d_total))
        m = 0.5 * (z + z.conj().T)
        m -= np.trace(m).real / d_total * np.eye(d_total)
    design_seed, check_seed = (int(x) for x in rng.integers(0, 2**31, 2))
    if kind == "hermitian":
        want = "INDEFINITE_ON_PRODUCTS"
    elif min_eig(m) >= -1e-10:
        want = "DENSITY_MATRIX"
    else:
        want = "PRODUCT_POSITIVE_ONLY"
    cp = min_eig(m) >= -1e-10
    co_cp = min_eig(ptranspose(m, dims)) >= -1e-10
    orientation = {(True, True): "BOTH", (True, False): "CP", (False, True): "CO_CP"}.get(
        (cp, co_cp), "NEITHER")
    t = linalg.HermitianOperator(dims, m)
    scale = max(1.0, float(np.abs(m).max()) * d_total)
    op_file = Path(workdir) / f"rec{idx}.json"
    classify_argv = cli_args("classify", "--t", op_file, "--seed", check_seed)
    section_argv = cli_args("section", "--t", op_file, "--contexts", SECTION_CONTEXTS,
                            "--seed", check_seed)

    def run():
        design = gleason.spanning_design(dims, seed=design_seed)
        f = framefn.sample_from_operator(t, design.states)
        rec = gleason.reconstruct_pvm(f, design, seed=design_seed)
        out = {"rec": rec, "framefn": nosig.check_framefn(
            framefn.OperatorInduced(rec.t), trials=FRAMEFN_TRIALS, seed=check_seed)}
        if rec.classification.value != "INDEFINITE_ON_PRODUCTS":
            op_file.write_text(json.dumps(operator_json(rec.t.mat, dims)))
            out["classify"] = call_cli(classify_argv)
            out["section"] = call_cli(section_argv)
        return out

    def check(out, stats):
        rec = out["rec"]
        frob = float(np.linalg.norm(rec.t.mat - m))
        expect(frob <= 1e-8, f"Frobenius distance {frob:.3e} > 1e-8")
        got = rec.classification.value
        expect(got == want, f"classified {got}, expected {want}")
        gap = out["framefn"].max_discrepancy
        expect(gap <= 1e-10 * scale, f"operator-induced frame function signals by {gap:.3e}")
        if got == "INDEFINITE_ON_PRODUCTS":
            v = np.kron(*rec.witness.factors)
            expect(np.vdot(v, m @ v).real < -1e-8, "see-saw witness is not negative")
            return
        cls = report(out["classify"])["orientation"]["class"]
        expect(cls == orientation, f"orientation {cls}, expected {orientation}")
        dist = report(out["section"])["verdicts"]["section_consistent"]["value"]
        expect(dist <= 1e-10, f"section inconsistent by {dist:.3e}")

    return Job(f"reconstruct#{idx} {d}x{d} {kind}", f"{d}x{d}/{kind}", run, check,
               (m, design_seed, check_seed))


def build_reconstruct(rng, workdir, n_jobs):
    warmups = [reconstruct_job(rng, workdir, f"w{k}", d, kind)
               for k, (d, kind) in enumerate(RECONSTRUCT_WARMUP)]
    jobs = [reconstruct_job(rng, workdir, idx, d, kind)
            for idx, (d, kind) in enumerate(pool(RECONSTRUCT_DECK, n_jobs))]
    return Workload(warmups, jobs)


# ---------------------------------------------------------------------------
# nonlocality

CHSH_RESTARTS = 3
PRBOX_SAMPLES = 2000
PRBOX_SCHEDULE = (500, 1000, 2000)
EXTENSION_SAMPLES = 1000
NONLOCALITY_DECK = deck([
    # Sorted by latency: 70 box checks hold the median, far enough from the
    # slower jobs that the median's estimator gives them no weight.  Then come
    # 4 (2,2) extensions, 4 PR-box runs and 4 singlet CHSH runs; then 12 CHSH
    # runs on random densities and 6 (3,3) extensions, of similar cost, hold
    # the 90th percentile in their middle.
    ("qext3", 6), ("chsh", 12), ("chsh_singlet", 4), ("prbox", 4), ("qext2", 4),
], ["check_box"])
NONLOCALITY_WARMUP = ("check_box", "chsh_singlet", "prbox", "qext2")
BOX_KINDS = ("pr", "deterministic", "quantum2", "signalling", "quantum3")


def quantum_box(rng, d):
    m = rand_density(rng, d * d)
    real = tuple(tuple(rand_onb(rng, d) for _ in (0, 1)) for _ in (0, 1))
    table = np.array([[box_table(m, real[0][a], real[1][b]) for b in (0, 1)]
                      for a in (0, 1)])
    return m, real, table


def check_box_job(rng, workdir, idx, kind):
    if kind == "pr":
        table = np.zeros((2, 2, 2, 2))
        for a, b, x, y in itertools.product((0, 1), repeat=4):
            table[a, b, x, y] = 0.5 if (x ^ y) == (a & b) else 0.0
    elif kind == "deterministic":
        table = np.zeros((2, 2, 2, 2))
        table[:, :, 0, 0] = 1.0
    elif kind == "signalling":
        table = rng.random((2, 2, 2, 2)) + 0.05
        table /= table.sum(axis=(2, 3), keepdims=True)
    else:
        table = quantum_box(rng, 2 if kind == "quantum2" else 3)[2]
    ref = signalling_gap(table)
    path = Path(workdir) / f"box{idx}.json"
    path.write_text(json.dumps(box_json(table)))
    argv = cli_args("check", "--box", path)

    def check(out, stats):
        rep = report(out, codes=(0 if ref <= 1e-10 else 1,))
        got = rep["verdicts"]["box_no_signalling"]["value"]
        expect(abs(got - ref) <= 1e-12, f"discrepancy {got!r}, reference {ref!r}")

    return Job(f"check_box#{idx} {kind}", "check_box", lambda: call_cli(argv), check,
               (table,))


def chsh_job(rng, workdir, idx, singlet):
    seed = int(rng.integers(0, 2**31))
    if singlet:
        v = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
        m = np.outer(v, v)
        argv = ["chsh", "--singlet"]
    else:
        m = rand_density(rng, 4)
        path = Path(workdir) / f"chsh{idx}.json"
        path.write_text(json.dumps(operator_json(m, (2, 2))))
        argv = ["chsh", "--t", path]
    ref = horodecki_chsh(m)
    argv = cli_args(*argv, "--optimize", "--restarts", CHSH_RESTARTS, "--seed", seed)

    def check(out, stats):
        value = report(out)["chsh_value"]
        stats["chsh_gap_max"] = max(stats.get("chsh_gap_max", -np.inf), ref - value)
        expect(ref - 1e-4 <= value <= ref + 1e-8,
               f"CHSH {value!r} outside [ref - 1e-4, ref + 1e-8], ref {ref!r}")

    kind = "chsh_singlet" if singlet else "chsh"
    return Job(f"{kind}#{idx}", kind, lambda: call_cli(argv), check, (m, seed))


def count_lp(stats, rounds, n_eq, samples, d_total):
    """LP sizes of a quantum_extension call, from its inputs and round count.

    Round r solves 2 n_eq + samples + (r - 1) inequality rows and one trace
    row over d_total^2 operator coordinates plus the residual variable.
    """
    bump(stats, "qext_rounds", rounds)
    bump(stats, "lp_rows", rounds * (2 * n_eq + samples + 1) + rounds * (rounds - 1) // 2)
    bump(stats, "lp_vars", rounds * (d_total ** 2 + 1))


def prbox_job(rng, workdir, idx):
    seed = int(rng.integers(0, 2**31))
    argv = cli_args("prbox", "--samples", PRBOX_SAMPLES, "--seed", seed,
                    "--schedule", ",".join(map(str, PRBOX_SCHEDULE)))

    def check(out, stats):
        rep = report(out)
        ext = rep["extension"]
        count_lp(stats, ext["rounds"], n_eq=16, samples=PRBOX_SAMPLES, d_total=4)
        for count in PRBOX_SCHEDULE:  # max_chsh_lp: one solve per schedule entry
            bump(stats, "lp_rows", count + 1)
            bump(stats, "lp_vars", 16)
        res = ext["residual"]
        expect(ext["verdict"] == "INFEASIBLE", f"PR box verdict {ext['verdict']}")
        expect(np.isfinite(res), "PR box residual is infinite (LP solver failure)")
        expect(res >= 1e-4, f"PR box residual {res!r} < 1e-4")
        bounds = rep["max_chsh_lp"]["bounds"]
        expect(all(b2 <= b1 + 1e-9 for b1, b2 in zip(bounds, bounds[1:])),
               f"LP bounds increase: {bounds}")
        expect(TSIRELSON - 1e-6 <= bounds[-1] < 3.2,
               f"final LP bound {bounds[-1]!r} outside [2*sqrt(2), 3.2)")

    return Job(f"prbox#{idx}", "prbox", lambda: call_cli(argv), check, (seed,))


def extension_job(rng, workdir, idx, d):
    m, real, table = quantum_box(rng, d)
    seed = int(rng.integers(0, 2**31))
    t = linalg.HermitianOperator((d, d), m)
    realizations = tuple({k: basis for k, basis in enumerate(site)} for site in real)

    def run():
        box = nosig.box_from_operator(t, realizations)
        return box, nosig.quantum_extension(box, positivity_samples=EXTENSION_SAMPLES,
                                            seed=seed)

    def check(out, stats):
        box, verdict = out
        bump(stats, "qext_attempts")
        bump(stats, f"qext_{verdict.verdict.lower()}")
        count_lp(stats, verdict.rounds, 4 * d * d, EXTENSION_SAMPLES, d * d)
        got = np.array([[box.block(a, b) for b in (0, 1)] for a in (0, 1)])
        expect(np.max(np.abs(got - table)) <= 1e-10, "box differs from <u(x)v|t|u(x)v>")
        expect(verdict.verdict != "INFEASIBLE",
               f"quantum box declared INFEASIBLE (residual {verdict.residual!r})")

    return Job(f"qext#{idx} {d}x{d}", f"qext{d}", run, check, (m, *real[0], *real[1], seed))


def build_nonlocality(rng, workdir, n_jobs):
    def make(idx, kind, n):
        if kind == "check_box":
            return check_box_job(rng, workdir, idx, BOX_KINDS[n % len(BOX_KINDS)])
        if kind in ("chsh", "chsh_singlet"):
            return chsh_job(rng, workdir, idx, kind == "chsh_singlet")
        if kind == "prbox":
            return prbox_job(rng, workdir, idx)
        return extension_job(rng, workdir, idx, int(kind[-1]))

    warmups = [make(f"w{k}", kind, k) for k, kind in enumerate(NONLOCALITY_WARMUP)]
    jobs = [make(idx, kind, idx) for idx, kind in enumerate(pool(NONLOCALITY_DECK, n_jobs))]
    return Workload(warmups, jobs)


# ---------------------------------------------------------------------------
# tiling

EXHAUSTIVE = (  # (n, size, graph, clique exists)
    (2, 4, "g", True), (2, 2, "gstar", True), (2, 3, "gstar", False),
    (3, 8, "g", True), (3, 5, "gstar", True), (3, 6, "gstar", False),
)
HEURISTIC = {"heur4": (4, 12, 10), "heur5": (5, 28, 3)}  # n, size, budget
# dims and number of twist moves per slot kind; None draws one to three.
# Three moves keep every (3,3,3) search slower than the basis jobs below.
TWIST = {"twist33": ((3, 3), None), "twist222": ((2, 2, 2), None),
         "twist333": ((3, 3, 3), 3)}
TWIST_BUDGET = 8
TILING_DECK = deck([
    # Sorted by latency: 35 exhaustive searches, verifications and small
    # twist searches; then 50 heuristic searches that hold the median; then
    # 12 basis jobs, whose input is the same on every seed, hold the 90th
    # percentile in their middle; the 3 (3,3,3) twist searches are slowest.
    ("twist333", 3), ("basis", 12), ("verify_g", 2), ("verify_gstar", 2),
    ("twist33", 8), ("twist222", 8), ("exhaustive", 15),
], ["heur4", "heur5", "heur5", "heur4", "heur5"])
TILING_WARMUP = ("exhaustive", "heur4", "verify_g", "basis", "twist33")


def candidate_path():
    return resources.files("nsgleason.data").joinpath("keller_candidate_n10.txt")


def candidate_reference():
    lines = Path(candidate_path()).read_text().split()
    vecs = np.array([[int(ch) for ch in ln] for ln in lines])
    return {
        "size": len(vecs),
        "g": is_clique(vecs, facet_free=False),
        "gstar": is_clique(vecs, facet_free=True),
        "local_pairs": single_coordinate_pairs(vecs),
    }


def search_job(idx, n, size, graph, exists, budget=None, seed=None):
    argv = ["keller", "search", "--n", n, "--size", size, "--graph", graph]
    argv = cli_args(*argv, *(["--exhaustive"] if budget is None
                             else ["--budget", budget, "--seed", seed]))

    def check(out, stats):
        # a heuristic miss proves nothing and is not a failure
        rep = report(out, codes=(0, 1) if budget is not None else (int(not exists),))
        found = rep["verdicts"]["clique_found"]["pass"]
        if budget is not None:
            bump(stats, "heuristic_attempts")
            bump(stats, "heuristic_hits", int(found))
        if not found:
            expect(budget is not None or not exists, f"no size-{size} clique found")
            return
        expect(exists, f"found a size-{size} clique where none exists")
        vecs = [[int(ch) for ch in v] for v in rep["clique"]]
        expect(len(vecs) == size and all(len(v) == n for v in vecs),
               "clique has the wrong shape")
        expect(is_clique(vecs, facet_free=graph == "gstar"), "returned set is not a clique")

    mode = "exhaustive" if budget is None else "heuristic"
    return Job(f"search#{idx} {mode} n={n} size={size} {graph}", mode,
               lambda: call_cli(argv), check, (seed,))


def build_tiling(rng, workdir, n_jobs):
    ref = candidate_reference()
    cand = str(candidate_path())

    def verify_job(idx, graph):
        argv = cli_args("keller", "verify", "--file", cand, "--graph", graph)

        def check(out, stats):
            rep = report(out, codes=(0 if ref[graph] else 1,))["report"]
            expect(rep["is_clique"] == ref[graph] and rep["size"] == ref["size"],
                   f"verify on {graph}: {rep['is_clique']}, expected {ref[graph]}")

        return Job(f"verify#{idx} {graph}", "verify", lambda: call_cli(argv), check)

    def basis_job(idx):
        argv = cli_args("keller", "basis", "--file", cand, "--graph", "gstar")

        def check(out, stats):
            rep = report(out, codes=(0 if ref["local_pairs"] == 0 else 1,))["verdicts"]
            expect(rep["basis_valid"]["pass"] == ref["g"], "basis validity differs")
            pairs = rep["no_local_pairs"]["value"]
            expect(pairs == ref["local_pairs"],
                   f"{pairs} local pairs, expected {ref['local_pairs']}")

        return Job(f"basis#{idx}", "basis", lambda: call_cli(argv), check)

    def twist_job(idx, kind):
        dims, n_moves = TWIST[kind]
        n_moves = n_moves or int(rng.integers(1, 4))
        sites = twisted_basis(rng, dims, n_moves)
        seed = int(rng.integers(0, 2**31))
        path = Path(workdir) / f"twist{idx}.json"
        cert_path = Path(workdir) / f"cert{idx}.json"
        path.write_text(json.dumps({
            "dims": list(dims),
            "elements": [{"factors": [vector_json(f[k]) for f in sites]}
                         for k in range(len(sites[0]))],
        }))
        argv = cli_args("twist", "--basis", path, "--budget", TWIST_BUDGET,
                        "--out-cert", cert_path, "--seed", seed)

        def check(out, stats):
            rep = report(out, codes=(0, 1))
            bump(stats, "twist_attempts")
            # One move is always undone by one improving move back, so a
            # one-move twist must be found; deeper ones need not be.
            expect(rep["found"] or n_moves > 1, "one-move twist not found")
            if rep["found"]:
                bump(stats, "twist_found")
                check_certificate(json.loads(cert_path.read_text()), sites)

        return Job(f"twist#{idx} {'x'.join(map(str, dims))} moves={n_moves}", kind,
                   lambda: call_cli(argv), check, (*sites, seed))

    counter = itertools.count()

    def make(idx, kind):
        if kind == "exhaustive":
            return search_job(idx, *EXHAUSTIVE[next(counter) % len(EXHAUSTIVE)])
        if kind in HEURISTIC:
            n, size, budget = HEURISTIC[kind]
            return search_job(idx, n, size, "gstar", True, budget,
                              int(rng.integers(0, 2**31)))
        if kind.startswith("verify"):
            return verify_job(idx, kind.split("_")[1])
        if kind == "basis":
            return basis_job(idx)
        return twist_job(idx, kind)

    warmups = [make(f"w{k}", kind) for k, kind in enumerate(TILING_WARMUP)]
    jobs = [make(idx, kind) for idx, kind in enumerate(pool(TILING_DECK, n_jobs))]
    return Workload(warmups, jobs)


WORKLOADS = {
    "reconstruct": build_reconstruct,
    "nonlocality": build_nonlocality,
    "tiling": build_tiling,
}


def build(name, seed, workdir, n_jobs):
    """Generate a pool of ``n_jobs`` jobs; the same (name, seed) gives the same jobs."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    return WORKLOADS[name](rng, workdir, n_jobs)
