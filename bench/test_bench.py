"""Self-tests of the benchmark (not part of the library's test suite).

    python3 -m pytest -q bench/test_bench.py
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def same(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b


def files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_seed(name, tmp_path):
    builds = []
    for k, seed in enumerate((7, 7, 8)):
        workdir = tmp_path / str(k)
        workdir.mkdir()
        builds.append((workloads.build(name, seed, workdir, 20), files(workdir)))
    (a, files_a), (b, files_b), (c, _) = builds
    assert [j.name for j in a.jobs] == [j.name for j in b.jobs]
    assert all(same(x.inputs, y.inputs) for x, y in zip(a.warmups + a.jobs, b.warmups + b.jobs))
    assert files_a == files_b
    assert not all(same(x.inputs, y.inputs) for x, y in zip(a.jobs, c.jobs))


def test_self_time_arithmetic():
    # root [0, 10] has children A [1, 4] and B [5, 9]; A has child G [2, 3];
    # a second root R [11, 12] has no children.
    parent = np.array([-1, 0, 1, 0, -1])
    start = np.array([0.0, 1.0, 2.0, 5.0, 11.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 12.0])
    assert np.allclose(tracing.self_times(parent, start, end), [3.0, 2.0, 1.0, 4.0, 1.0])

    spans = {"name": np.array([0, 1, 2, 1, 0]), "parent": parent, "start": start, "end": end}
    names = [tracing.JOB_SPAN, "a", "g"]
    totals = tracing.layer_totals(names, spans)
    assert totals == {"a": {"calls": 2, "self_s": 6.0}, "g": {"calls": 1, "self_s": 1.0}}
    assert np.allclose(tracing.job_coverage(names, spans), [0.7, 0.0])


def test_harrell_davis_quantile():
    x = np.random.default_rng(0).permutation(np.arange(1.0, 100.0))
    assert run.quantile(x, 0.5) == pytest.approx(50.0)
    assert 88.0 < run.quantile(x, 0.9) < 92.0
    assert run.quantile(np.full(7, 0.3), 0.9) == pytest.approx(0.3)


def test_pass_times_are_scaled_by_the_probe():
    class HalfSpeed(run.SpeedProbe):
        def __call__(self):
            return 2.0 * run.REFERENCE_PROBE_S

    job = workloads.Job("sleep", "sleep", lambda: time.sleep(0.01), lambda out, stats: None)
    failures = []
    latencies, scales = run.run_pass(workloads.Workload([], [job] * 4), failures, HalfSpeed())
    assert not failures
    assert np.allclose(scales, 0.5)
    assert np.all((latencies >= 0.005) & (latencies < 0.05))


def test_tracer_nests_spans():
    tracer = tracing.Tracer()

    def leaf():
        return 1

    leaf_traced = tracer.wrap(leaf, "leaf")
    outer = tracer.wrap(lambda: leaf_traced() + leaf_traced(), "outer")
    job = tracer.open_job(5)
    assert outer() == 2
    tracer.close(job)
    spans = tracer.arrays()
    names = [tracer.names[i] for i in spans["name"]]
    assert names == [tracing.JOB_SPAN, "outer", "leaf", "leaf"]
    assert list(spans["parent"]) == [-1, 0, 1, 1]
    assert list(spans["job"]) == [5, 5, 5, 5]
    assert np.all(spans["end"] >= spans["start"])


def module_state():
    state = {}
    for key, module in list(sys.modules.items()):
        if key == "nsgleason" or key.startswith("nsgleason."):
            state.update({(key, a): v for a, v in vars(module).items()})
    from nsgleason import framefn

    for cls in ("OperatorInduced", "Tabulated", "SignallingFamily"):
        state[(cls, "__call__")] = vars(getattr(framefn, cls))["__call__"]
    return state


def test_tracer_restores_every_attribute(tmp_path):
    import nsgleason.cli  # noqa: F401  (the CLI is wrapped too)
    from nsgleason import gleason, nosig

    before = module_state()
    original = gleason.feature_of
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert gleason.feature_of is not original
        assert nosig.feature_of is gleason.feature_of  # imported by name: wrapped too
        work = workloads.build("reconstruct", 3, tmp_path, 1)
        job = work.warmups[0]
        job.check(job.run(), work.stats)
    finally:
        tracer.restore()
    after = module_state()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {tracer.names[i] for i in tracer.arrays()["name"]}
    assert {"gleason.spanning_design", "gleason.feature_of", "framefn.eval", "cli"} <= names


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_has_no_failures(name, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", "1",
         "--seconds", "2", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    group = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in expected[group]}
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in expected[group])
    if trace:  # library spans cover nearly all of every job's traced time
        assert result["metrics"]["trace.job_coverage_min"]["value"] >= 0.95
