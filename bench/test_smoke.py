"""Small-cutoff smoke test of the benchmark harness.

    python -m pytest -q bench/test_smoke.py

Runs every workload kind at a small cutoff through the same code as the real
workloads and checks the metric contract, repeatable counts, the failure
accounting and the refusal to run without the package source.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import DEFAULT_SEED, SMOKE_WORKLOADS, WORKLOADS, jittered  # noqa: E402

d = run.import_package()
CONTRACT = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", autouse=True)
def one_setup():
    """One cold set-up per run instead of ``SETUP_REPEATS`` keeps the test short."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(run, "SETUP_REPEATS", 1)
        yield


def _run(name, trace=1, seed=DEFAULT_SEED, reference=None):
    workload = SMOKE_WORKLOADS[name]
    if reference is None:
        reference = run.load_reference(name)
    record, _ = run.run_workload(d, workload, seed, 0.0, trace, reference)
    return record


@pytest.fixture(scope="module")
def traced():
    return {name: _run(name) for name in SMOKE_WORKLOADS}


def test_every_metric_is_emitted_with_its_unit(traced):
    for record in traced.values():
        assert record["failed"] == 0, record["failures"]
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            line = run.summary_line(record, trace)
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"] is True
            for metric in CONTRACT[section]:
                got = line["metrics"][metric["name"]]
                assert got["unit"] == metric["unit"]
                assert isinstance(got["value"], (int, float))
            json.dumps(line)
        for value in record["metrics"].values():
            assert value > 0


def test_layer_metrics_land_on_their_workloads(traced):
    least = traced["smoke-least-k6"]["layers"]
    assert least["variational.fiber_solves"] > 0 and least["variational.t_calls"] == 0
    assert traced["smoke-kernel-k3"]["layers"]["variational.t_calls"] > 0
    conc = traced["smoke-concentration-k8"]["layers"]
    assert conc["variational.fiber_solves"] == 0 and conc["torus.analyze_calls"] > 0
    assert conc["testspinor.report_s"] > 0


def test_counts_repeat(traced):
    for name in ("smoke-least-k6", "smoke-kernel-k3"):
        again = _run(name)["layers"]
        first = traced[name]["layers"]
        counts = [m for m, unit in run.LAYER_UNITS.items() if unit == "count"]
        assert {m: again[m] for m in counts} == {m: first[m] for m in counts}


@pytest.mark.parametrize(
    "name, field, factor",
    [
        ("smoke-least-k6", "energy", 1.0 + 1e-6),
        ("smoke-kernel-k3", "energy", 1.0 - 1e-6),  # not accepted: only a higher energy fails
        ("smoke-concentration-k8", "l2_sq", 1.0 + 1e-6),
    ],
)
def test_perturbed_reference_fails(name, field, factor):
    reference = copy.deepcopy(run.load_reference(name))
    reference[0][field] *= factor
    record = _run(name, trace=0, reference=reference)
    assert record["failed_frac"] > 0


def test_jittered_seed_uses_certified_checks():
    record = _run("smoke-least-k6", trace=0, seed=DEFAULT_SEED + 1)
    assert record["failed"] == 0, record["failures"]
    assert len(set(record["inputs"])) > 1 and 0.9 not in record["inputs"]


def test_jitter_stays_inside_the_spectral_interval():
    for workload in WORKLOADS.values():
        (lam0,) = workload.inputs(DEFAULT_SEED)
        for seed in range(1, 20):
            for lam in workload.inputs(seed):
                assert int(lam) == int(lam0) and lam > 0


def test_tail_latency_has_ten_samples_beyond():
    xs = [float(i) for i in range(100)]
    value, label = run.tail_latency(xs)
    assert sum(x > value for x in xs) == 10 and label == "p90"
    assert run.tail_latency([3.0, 1.0]) == (3.0, "max of 2")


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "least-k16", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_host_speed_probes_scale_intervals_and_restore_the_handler(traced):
    import signal
    import time

    from hostspeed import HostSpeed

    before = signal.getsignal(signal.SIGALRM)
    with HostSpeed() as host:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            sum(range(1000))
        t1 = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(host.samples) > 5 and host.ref_seconds(t0, t1) > 0
    assert host.ref_seconds(t1, t1 + 1e-3) > 0  # no probe inside: the latest ones stand in
    with pytest.raises(RuntimeError):
        host.ref_seconds(t0 - 10.0, t0 - 9.0)
    assert traced["smoke-least-k6"]["host_speed"]["probes"] > 0
