"""End-to-end and per-layer benchmark for nsgleason.

    python3 bench/run.py --workload reconstruct --seed 1 --seconds 20 --trace 0

Runs one workload (see workloads.py and README.md) as a closed loop, one job
at a time: a pool of seeded jobs, sized from ``--seconds``, is run once, and
a job's latency is scaled to a reference machine speed (see SpeedProbe).  Prints the end-to-end metrics (``--trace 0``) or the
per-layer metrics from a traced run (``--trace 1``).  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.  Exit code
1 when any job failed its output check.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
BLAS_THREADS = "1"
SETUP_REPEATS = 3  # this process plus two fresh ones
# Slower phases of a shared host are divided out: before each job (and after
# the last) the speed probe runs PROBE_REPEATS times, and a job's time is
# scaled by REFERENCE_PROBE_S over the median probe time of the PROBE_WINDOW
# probe slots on each side of it.
PROBE_REPEATS = 2
PROBE_WINDOW = 3
SETUP_PROBES = 40
REFERENCE_PROBE_S = 2.2e-3  # the probe's typical median on the 2-core x86-64 VM it was tuned on
# Nominal seconds per job, for sizing the pool: a 20 s run has 100 jobs.
JOB_SECONDS = 0.2
MIN_JOBS = 10

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (metric, unit, source): a source is (span name, "calls" | "self_s") or a
# key of the jobs' own statistics.
PER_LAYER = (
    ("gleason.spanning_design.self_s", "s", ("gleason.spanning_design", "self_s")),
    ("gleason.feature_of.calls", "count", ("gleason.feature_of", "calls")),
    ("gleason.feature_of.self_s", "s", ("gleason.feature_of", "self_s")),
    ("gleason.reconstruct_pvm.self_s", "s", ("gleason.reconstruct_pvm", "self_s")),
    ("gleason.product_seesaw_min.calls", "count", ("gleason.product_seesaw_min", "calls")),
    ("gleason.product_seesaw_min.self_s", "s", ("gleason.product_seesaw_min", "self_s")),
    ("gleason.classify_product_positivity.self_s", "s",
     ("gleason.classify_product_positivity", "self_s")),
    ("framefn.eval.calls", "count", ("framefn.eval", "calls")),
    ("framefn.eval.self_s", "s", ("framefn.eval", "self_s")),
    ("framefn.sample_from_operator.self_s", "s", ("framefn.sample_from_operator", "self_s")),
    ("nosig.chsh_optimize.self_s", "s", ("nosig.chsh_optimize", "self_s")),
    ("nosig.bell_operator.calls", "count", ("nosig.bell_operator", "calls")),
    ("nosig.chsh_gap_max", "1", "chsh_gap_max"),
    ("nosig.quantum_extension.self_s", "s", ("nosig.quantum_extension", "self_s")),
    ("nosig.quantum_extension.rounds", "count", "qext_rounds"),
    ("nosig.quantum_extension.feasible_ratio", "ratio", "feasible_ratio"),
    ("nosig.quantum_extension.ambiguous_ratio", "ratio", "ambiguous_ratio"),
    ("nosig.lp_rows", "count", "lp_rows"),
    ("nosig.lp_vars", "count", "lp_vars"),
    ("nosig.max_chsh_lp.self_s", "s", ("nosig.max_chsh_lp", "self_s")),
    ("nosig.check_box.self_s", "s", ("nosig.check_box", "self_s")),
    ("nosig.box_from_operator.self_s", "s", ("nosig.box_from_operator", "self_s")),
    ("nosig.check_framefn.self_s", "s", ("nosig.check_framefn", "self_s")),
    ("orientation.classify_orientation.self_s", "s",
     ("orientation.classify_orientation", "self_s")),
    ("orientation.choi_of.self_s", "s", ("orientation.choi_of", "self_s")),
    ("presheaf.random_context_family.self_s", "s",
     ("presheaf.random_context_family", "self_s")),
    ("presheaf.section_from_operator.self_s", "s",
     ("presheaf.section_from_operator", "self_s")),
    ("presheaf.check_section.self_s", "s", ("presheaf.check_section", "self_s")),
    ("keller.clique_search.exhaustive.self_s", "s",
     ("keller.clique_search.exhaustive", "self_s")),
    ("keller.clique_search.heuristic.self_s", "s",
     ("keller.clique_search.heuristic", "self_s")),
    ("keller.edge.calls", "count", ("keller.edge", "calls")),
    ("keller.heuristic.hit_ratio", "ratio", "heuristic_hit_ratio"),
    ("keller.verify_clique.self_s", "s", ("keller.verify_clique", "self_s")),
    ("keller.basis_from_clique.self_s", "s", ("keller.basis_from_clique", "self_s")),
    ("bases.twist_search.self_s", "s", ("bases.twist_search", "self_s")),
    ("bases.apply_twist.calls", "count", ("bases.apply_twist", "calls")),
    ("bases.twist_search.found_ratio", "ratio", "twist_found_ratio"),
    ("bases.validate_unentangled.self_s", "s", ("bases.validate_unentangled", "self_s")),
    ("bases.find_local_pairs.self_s", "s", ("bases.find_local_pairs", "self_s")),
    ("linalg.random_unit.calls", "count", ("linalg.random_unit", "calls")),
    ("linalg.random_onb.calls", "count", ("linalg.random_onb", "calls")),
    ("linalg.hermitian_eig.self_s", "s", ("linalg.hermitian_eig", "self_s")),
    ("linalg.partial_transpose.self_s", "s", ("linalg.partial_transpose", "self_s")),
    ("cli.self_s", "s", ("cli", "self_s")),
    ("trace.overhead_ratio", "ratio", "overhead_ratio"),
    ("trace.job_coverage_min", "ratio", "job_coverage_min"),
)


def ratio(num, den):
    return num / den if den else 0.0


def derived_stats(stats: dict) -> dict:
    out = dict(stats)
    out["feasible_ratio"] = ratio(stats.get("qext_feasible", 0), stats.get("qext_attempts", 0))
    out["ambiguous_ratio"] = ratio(stats.get("qext_ambiguous", 0), stats.get("qext_attempts", 0))
    out["heuristic_hit_ratio"] = ratio(stats.get("heuristic_hits", 0),
                                       stats.get("heuristic_attempts", 0))
    out["twist_found_ratio"] = ratio(stats.get("twist_found", 0), stats.get("twist_attempts", 0))
    return out


def attempt(step, job, failures, *args):
    """Run one step of a job; a raise or a failed check is recorded, not fatal."""
    from workloads import CheckFailed

    try:
        return step(*args)
    except CheckFailed as exc:
        failures.append(f"{job.name}: {exc}")
    except Exception:  # any error of the library under test counts as a failed job
        failures.append(f"{job.name}: {traceback.format_exc(limit=3).strip()}")
    return None


def run_job(job, stats, failures, tracer=None, job_id=-1):
    """Run a job, timing only the library's work; then check its output."""
    n_failed = len(failures)
    if tracer is not None:
        span = tracer.open_job(job_id)
    t0 = perf_counter()
    out = attempt(job.run, job, failures)
    latency = perf_counter() - t0
    if tracer is not None:
        tracer.close(span)
    if len(failures) == n_failed:
        attempt(job.check, job, failures, out, stats)
    return latency


class SpeedProbe:
    """A fixed slice of interpreter and small-matrix work that does not touch
    the library: its time tracks how fast the host runs this process now."""

    def __init__(self):
        import numpy as np

        self.np = np
        self.m = np.random.default_rng(0).standard_normal((12, 12))
        self.h = self.m + self.m.T

    def __call__(self) -> float:
        np, m, h = self.np, self.m, self.h
        t0 = perf_counter()
        acc = 0.0
        for k in range(100):
            d = {"k": k, "pair": [k, k + 1]}
            acc += sum(d["pair"]) * 0.5 + float(np.linalg.eigvalsh(h)[0]) + float((m @ m)[0, 0])
        return perf_counter() - t0

    def scale(self, samples) -> float:
        """Factor from seconds measured at the samples' speed to reference seconds."""
        return REFERENCE_PROBE_S / float(self.np.median(samples))


def run_pass(workload, failures, probe, tracer=None):
    """Closed loop over the pool: start the next job only when the last one is
    done.  Returns the job latencies in reference seconds and their scales."""
    import numpy as np

    latencies, slots = [], []
    for idx, job in enumerate(workload.jobs):
        slots.append([probe() for _ in range(PROBE_REPEATS)])
        latencies.append(run_job(job, workload.stats, failures, tracer, idx))
    slots.append([probe() for _ in range(PROBE_REPEATS)])
    # job i ran between slots i and i + 1
    scales = np.array([probe.scale(slots[max(0, i + 1 - PROBE_WINDOW):i + 1 + PROBE_WINDOW])
                       for i in range(len(latencies))])
    return np.array(latencies) * scales, scales


def pool_size(seconds):
    return max(MIN_JOBS, round(seconds / JOB_SECONDS))


def setup(name, seed, seconds, workdir):
    """Import the library, make the inputs and warm up.

    Returns the workload, the seconds this took in reference seconds, the
    speed probe and any warm-up failures.
    """
    t0 = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import nsgleason  # noqa: F401  (timed: part of set-up)
    import workloads

    workload = workloads.build(name, seed, workdir, pool_size(seconds))
    failures = []
    for job in workload.warmups:
        run_job(job, workload.stats, failures)
    workload.stats.clear()
    setup_s = perf_counter() - t0
    probe = SpeedProbe()
    return workload, setup_s * probe.scale([probe() for _ in range(SETUP_PROBES)]), probe, failures


def fresh_setup_seconds(args) -> float:
    """Set-up time of a fresh interpreter on the same workload and seed."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
         "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def git_commit():
    """The checked-out commit, or None outside a git checkout."""
    git = ROOT / ".git"
    if not (git / "HEAD").exists():
        return None
    head = (git / "HEAD").read_text().strip()
    if head.startswith("ref: ") and (git / head[5:]).exists():
        return (git / head[5:]).read_text().strip()
    return head


def environment(args, workload):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "git_commit": git_commit(),
        "pool_jobs": len(workload.jobs),
        "jobs_per_kind": dict(sorted(Counter(job.kind for job in workload.jobs).items())),
    }


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: a beta-weighted mean of the
    order statistics, steadier than a single one on 100 jobs."""
    import numpy as np
    from scipy.special import betainc

    x = np.sort(values)
    n = len(x)
    edges = betainc((n + 1) * q, (n + 1) * (1 - q), np.arange(n + 1) / n)
    return float(np.diff(edges) @ x)


def untraced(args, workload, setup_s, probe, failures):
    import numpy as np

    setups = [setup_s] + [fresh_setup_seconds(args) for _ in range(SETUP_REPEATS - 1)]
    latencies, scales = run_pass(workload, failures, probe)
    print(f"speed: measured seconds times {np.median(scales):.4f} (median) give "
          "reference seconds")
    values = {
        "setup_s": sorted(setups)[len(setups) // 2],
        "jobs_per_s": len(latencies) / latencies.sum(),
        "job_p50_s": quantile(latencies, 0.5),
        "job_p90_s": quantile(latencies, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
    if len(latencies) < 100:
        print(f"warning: {len(latencies)} jobs leave fewer than 10 beyond the 90th percentile")
    return metrics, len(latencies)


def traced(args, workload, probe, failures):
    """One untraced pass over the pool, then one traced pass.  Span times are
    measured seconds; the overhead ratio compares reference seconds."""
    import numpy as np
    import tracing

    base, _ = run_pass(workload, failures, probe)
    workload.stats.clear()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        lat, _ = run_pass(workload, failures, probe, tracer)
    finally:
        tracer.restore()
    spans = tracer.arrays()
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{args.workload}-{args.seed}.npz")
    layers = tracing.layer_totals(tracer.names, spans)
    stats = derived_stats(workload.stats)
    stats["overhead_ratio"] = ratio(sum(base), sum(lat))
    coverage = tracing.job_coverage(tracer.names, spans)
    stats["job_coverage_min"] = float(coverage.min()) if coverage.size else 0.0
    metrics = {}
    for name, unit, source in PER_LAYER:
        if isinstance(source, tuple):
            value = layers.get(source[0], {"calls": 0, "self_s": 0.0})[source[1]]
        else:
            value = stats.get(source, 0)
        metrics[name] = {"value": value, "unit": unit}
    if coverage.size and coverage.min() < 0.95:
        worst = int(np.argmin(coverage))
        print(f"warning: job {worst} has library spans covering only "
              f"{coverage[worst]:.3f} of its wall time")
    return metrics, len(base) + len(lat)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("reconstruct", "nonlocality", "tiling"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    # Before numpy loads: one BLAS thread, so a job's time does not depend on
    # what else the machine runs.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS

    workdir = WORK / f"{os.getpid()}-{args.workload}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload, setup_s, probe, failures = setup(args.workload, args.seed, args.seconds,
                                                   workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            metrics, attempted = traced(args, workload, probe, failures)
        else:
            metrics, attempted = untraced(args, workload, setup_s, probe, failures)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only if no other run is using it

    print("environment: " + json.dumps(environment(args, workload)))
    print(f"failed_frac: {len(failures) / attempted} ratio ({len(failures)} of {attempted})")
    for name, m in metrics.items():
        print(f"{name}: {m['value']} {m['unit']}")
    for line in failures:
        print("FAILED " + line)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
