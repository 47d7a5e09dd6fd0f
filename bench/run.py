"""Solver-stack benchmark for diractorus.

    python3 bench/run.py --workload least-k16 --seed 0 --seconds 25 --trace 0
    python3 bench/run.py                      # every workload, one after another

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from site-packages.  A run sets up
the workload, repeats timed iterations for about ``--seconds`` and checks
every output against ``bench/reference.json``.  With ``--trace 1`` it then
runs one more iteration with the layer spans of ``bench/tracing.py``
installed and reports per-layer metrics instead of end-to-end ones.  The
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the full record goes to
``bench/results/BENCH_<workload>.json`` and the spans of a traced run to
``bench/results/trace_<workload>.jsonl``.

Times are reported in reference seconds: ``bench/hostspeed.py`` samples the
host's speed with a fixed probe kernel while the timed code runs, so that
the speed of a shared host, which drifts by up to 2x within a minute,
cancels out.  The raw wall times are kept in the record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"
RESULTS = BENCH_DIR / "results"
BLAS_THREADS = "1"
SETUP_REPEATS = 5

E2E_UNITS = {
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "torus.fft_calls": "count",
    "torus.synthesize_calls": "count",
    "torus.analyze_calls": "count",
    "torus.fft_s": "s",
    "torus.fft_mb": "MB",
    "spectral.eig_calls": "count",
    "spectral.eig_s": "s",
    "variational.outer_evals": "count",
    "variational.sphere_s": "s",
    "variational.fiber_solves": "count",
    "variational.inner_runs": "count",
    "variational.inner_evals": "count",
    "variational.inner_per_fiber": "ratio",
    "variational.fiber_s": "s",
    "variational.inner_s": "s",
    "variational.t_calls": "count",
    "variational.t_s": "s",
    "branch.candidate_s": "s",
    "branch.candidate_fiber_solves": "count",
    "branch.polish_calls": "count",
    "branch.polish_s": "s",
    "branch.accept_ratio": "ratio",
    "branch.self_s": "s",
    "testspinor.build_s": "s",
    "testspinor.report_s": "s",
    "trace.overhead_frac": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no package source, unknown workload)."""


def pin_blas_threads():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def pin_one_cpu():
    """Keep this process and its set-up probes on one CPU, the one sampled."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def import_package():
    """Import diractorus from this checkout's src/; refuse any other copy."""
    init = SRC / "diractorus" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no package source at {init}")
    sys.path.insert(0, str(SRC))
    import diractorus

    if Path(diractorus.__file__).resolve() != init.resolve():
        raise BenchError(f"imported {diractorus.__file__}, expected {init}")
    return diractorus


def find_workload(name):
    from workloads import SMOKE_WORKLOADS, WORKLOADS

    workload = WORKLOADS.get(name) or SMOKE_WORKLOADS.get(name)
    if workload is None:
        raise BenchError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    return workload


def probe_setup(name, seed):
    """Wall and reference seconds for ``import diractorus`` plus the workload's set-up.

    numpy is already imported (the host-speed probe needs it); scipy and the
    package are not.
    """
    from hostspeed import HostSpeed

    with HostSpeed() as host:
        t0 = time.perf_counter()
        d = import_package()
        workload = find_workload(name)
        workload.setup(d, workload.inputs(seed))
        t1 = time.perf_counter()
    return t1 - t0, host.ref_seconds(t0, t1)


def measure_setup(name, seed):
    """Median of ``SETUP_REPEATS`` cold set-ups, each in a fresh interpreter.

    Returns the median in reference seconds and the raw wall seconds.
    """
    raw, ref = [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        wall_s, ref_s = json.loads(out.stdout.strip().splitlines()[-1])
        raw.append(wall_s)
        ref.append(ref_s)
    return statistics.median(ref), raw


def environment(seed):
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "cpus_usable": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "seed": seed,
    }


def tail_latency(latencies):
    """Highest percentile with at least ten samples beyond it, and its label.

    With fewer than eleven samples no percentile qualifies; the maximum is
    reported and labelled as such.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return xs[-1], f"max of {n}"
    return xs[n - 11], f"p{100 * (n - 10) // n}"


def peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_reference(name):
    if not REFERENCE.is_file():
        raise BenchError(f"no reference outputs at {REFERENCE}")
    ref = json.loads(REFERENCE.read_text())
    if name not in ref:
        raise BenchError(f"{REFERENCE} has no entry for {name}")
    return ref[name]


def run_workload(d, workload, seed, seconds, trace, reference):
    """One benchmark run; returns the full record (metrics, checks, spans)."""
    from hostspeed import HostSpeed
    from tracing import Tracer, installed, layer_metrics
    from workloads import DEFAULT_SEED

    setup_s, setup_samples = measure_setup(workload.name, seed)
    lams = workload.inputs(seed)
    state = workload.setup(d, lams)

    iters, iters_ref, batches = [], [], []
    with HostSpeed() as host:
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            ops = workload.iteration(d, state, lams, index=len(iters))
            t1 = time.perf_counter()
            iters.append(t1 - t0)
            iters_ref.append(host.ref_seconds(t0, t1))
            for op in ops:
                op["ref_s"] = op["s"] * iters_ref[-1] / iters[-1]
            batches.append(ops)
            # Start another iteration only if it is expected to end in time.
            if t1 - start + max(iters) > seconds:
                break
    latencies = [op["ref_s"] for batch in batches for op in batch]
    tail, tail_label = tail_latency(latencies)

    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(seed),
        "inputs": lams,
        "setup_samples_s": setup_samples,
        "iterations_s": iters,
        "iterations_ref_s": iters_ref,
        "host_speed": host.summary(),
        "op_samples": len(latencies),
        "op_s.tail": tail,
        "op_s.tail_percentile": tail_label,
        "raw_wall_s": statistics.median(iters),
        "metrics": {
            "wall_s": statistics.median(iters_ref),
            "ops_per_s": len(latencies) / sum(iters_ref),
            "op_s.p50": statistics.median(latencies),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
        },
    }

    spans = None
    if trace:
        tracer = Tracer()
        with installed(tracer), HostSpeed(on_probe=tracer.probe_span) as host:
            t0 = time.perf_counter()
            traced_ops = workload.iteration(d, state, lams, tracer=tracer)
            t1 = time.perf_counter()
        spans = tracer.spans
        layers = layer_metrics(spans)
        points = [op for op in traced_ops if "accepted" in op]
        layers["branch.accept_ratio"] = (
            sum(op["accepted"] for op in points) / len(points) if points else 0.0
        )
        # Compare with the untraced iterations that ran the same inputs.
        layers["trace.overhead_frac"] = (
            host.ref_seconds(t0, t1) / statistics.median(iters_ref[:: len(lams)]) - 1.0
        )
        record["layers"] = layers
        record["trace_missing"] = tracer.missing
        record["traced_iteration_s"] = t1 - t0
        if seed == DEFAULT_SEED and workload.seed_counts:
            record["seed_count_check"] = {
                name: {"seed": want, "measured": layers[name], "match": layers[name] == want}
                for name, want in workload.seed_counts.items()
            }
        batches.append(traced_ops)

    # Checks run after timing and with the tracer removed.
    ops = [op for batch in batches for op in batch]
    workload.check(d, state, ops, reference, exact=seed == DEFAULT_SEED)
    failed = [op for op in ops if op["failure"] is not None]
    record["attempted"] = len(ops)
    record["failed"] = len(failed)
    record["failed_frac"] = len(failed) / len(ops)
    record["failures"] = [{"key": op["key"], "failure": op["failure"]} for op in failed]
    record["outcomes"] = [{k: v for k, v in op.items() if k != "point"} for op in batches[0]]
    return record, spans


def summary_line(record, trace):
    units = LAYER_UNITS if trace else E2E_UNITS
    values = record["layers"] if trace else record["metrics"]
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def print_report(record, trace):
    env = record["environment"]
    print(
        f"workload {record['workload']} seed {record['seed']}: "
        f"{len(record['iterations_s'])} iteration(s), {record['op_samples']} timed op(s), "
        f"{record['failed']} of {record['attempted']} failed"
    )
    print("environment " + json.dumps(env, sort_keys=True))
    print("times in reference seconds (see bench/README.md)")
    for name, unit in E2E_UNITS.items():
        print(f"  {name:<34} {record['metrics'][name]:.6g} {unit}")
    print(f"  {'failed_frac':<34} {record['failed_frac']:.6g} ratio")
    print(f"  {'op_s.tail':<34} {record['op_s.tail']:.6g} s "
          f"({record['op_s.tail_percentile']} of {record['op_samples']} samples)")
    print(f"  {'raw wall_s (not normalised)':<34} {record['raw_wall_s']:.6g} s")
    if trace:
        for name, unit in LAYER_UNITS.items():
            print(f"  {name:<34} {record['layers'][name]:.6g} {unit}")
        for name, row in record.get("seed_count_check", {}).items():
            verdict = "matches" if row["match"] else "differs from"
            print(f"  {name} = {row['measured']} {verdict} the seed count {row['seed']}")
    for row in record["failures"][:10]:
        print(f"  FAILED {row['key']}: {row['failure']}")


def write_outputs(record, spans):
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"BENCH_{record['workload']}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")
    if spans is not None:
        with open(RESULTS / f"trace_{record['workload']}.jsonl", "w") as fh:
            for s in spans:
                fh.write(json.dumps(s) + "\n")


def run_all(args):
    """Run each workload in its own interpreter and print every end-to-end metric."""
    from workloads import WORKLOADS

    lines = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise BenchError(f"{name} exited with code {proc.returncode}")
        lines[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{'workload':<20} {'metric':<34} value")
    for name, line in lines.items():
        for metric, v in line["metrics"].items():
            print(f"{name:<20} {metric:<34} {v['value']:.6g} {v['unit']}")
        print(f"{name:<20} {'failed_frac':<34} {line['failed'] / line['attempted']:.6g} ratio")
    total = {
        "correct": all(line["correct"] for line in lines.values()),
        "attempted": sum(line["attempted"] for line in lines.values()),
        "failed": sum(line["failed"] for line in lines.values()),
        "metrics": {f"{n}/{m}": v for n, line in lines.items() for m, v in line["metrics"].items()},
    }
    print(json.dumps(total))
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    pin_blas_threads()
    sys.path.insert(0, str(BENCH_DIR))
    if args.probe_setup:
        print(json.dumps(probe_setup(args.workload, args.seed)))
        return 0
    d = import_package()
    if args.workload == "all":
        return run_all(args)
    pin_one_cpu()
    workload = find_workload(args.workload)
    record, spans = run_workload(
        d, workload, args.seed, args.seconds, args.trace, load_reference(workload.name)
    )
    write_outputs(record, spans)
    print_report(record, args.trace)
    print(json.dumps(summary_line(record, args.trace)))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
