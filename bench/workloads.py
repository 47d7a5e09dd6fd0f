"""Benchmark workloads: inputs from a seed, one timed iteration, output checks.

All workloads use m = 2, the ``bnd`` nonlinearity and one process, and run
as a closed loop: the next iteration starts when the previous one has
returned.  The default seed gives the reference inputs exactly; any other
seed moves each lambda by at most ``JITTER`` inside its spectral interval
(eigenvalue parameters stay fixed), and the check then falls back to
certified properties instead of the recorded values.  bench/README.md says
why each workload exists.
"""

from __future__ import annotations

import time
import traceback
from contextlib import nullcontext

import numpy as np

DEFAULT_SEED = 0
JITTER = 0.005
STREAM_LAMBDAS = 8  # distinct jittered lambdas a solve stream cycles through
REL_TOL = 1e-9  # energy drift allowed against the reference
RESIDUAL_TOL = 1e-6  # minimize_M's default acceptance threshold
MONOTONE_TOL = 1e-6  # criterion 7's tolerance for non-increasing energies
EPS_SWEEP = (0.2, 0.14, 0.1, 0.07, 0.05, 0.035, 0.025)
# energy_report fields that do not depend on lambda
LAMBDA_FREE = ("l2", "l2_sq", "l2star", "l2star_pow", "dirac_energy", "dirac_energy_spectral", "free_energy")


def jittered(values, seed):
    if seed == DEFAULT_SEED:
        return [float(v) for v in values]
    rng = np.random.default_rng(seed)
    return [float(v + JITTER * rng.uniform(-1.0, 1.0)) for v in values]


def _op_span(tracer, key):
    return tracer.span("bench.op", key) if tracer is not None else nullcontext()


def _error(exc):
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _verdict(pt):
    if pt.accepted:
        return "accepted"
    if "guard-violation" in pt.flags:
        return "guard-violation"
    if pt.energy is None:
        return "solver-failure"
    return "resolution-limited"


def _point_op(key, seconds, pt=None, error=None):
    op = {"key": key, "s": seconds, "error": error, "failure": None}
    if pt is not None:
        op.update(
            lam=pt.lam,
            energy=pt.energy,
            residual=pt.residual_l2,
            accepted=pt.accepted,
            verdict=_verdict(pt),
            point=pt,
        )
    return op


class Solve:
    """A stream of cold least-energy solves (``minimize_M``), one per iteration.

    The default seed solves at ``lam`` every time.  Another seed draws
    ``STREAM_LAMBDAS`` jittered lambdas and the stream cycles through them, so
    a run's median averages over several chaotic solver paths instead of
    resting on one.
    """

    def __init__(self, name, K, lam, maxiter=120, jitter=True, seed_counts=None, warmup=None):
        self.name, self.K, self.lam, self.maxiter = name, K, lam, maxiter
        self.jitter = jitter
        self.seed_counts = seed_counts or {}
        self.warmup = warmup

    def inputs(self, seed):
        if not self.jitter:
            return [float(self.lam)]
        return jittered([self.lam] * (1 if seed == DEFAULT_SEED else STREAM_LAMBDAS), seed)

    def setup(self, d, lams):
        _warm_up(d, self.warmup)
        table = d.assemble(2, self.K)
        return {
            "nl": d.make_nonlinearity("bnd", 2),
            "table": table,
            "splits": {lam: d.split(table, lam) for lam in lams},
        }

    def iteration(self, d, state, lams, index=0, tracer=None):
        lam = lams[index % len(lams)]
        key = repr(lam)
        t0 = time.perf_counter()
        try:
            with _op_span(tracer, key):
                try:
                    pt = d.minimize_M(state["splits"][lam], state["nl"], maxiter=self.maxiter)
                except d.branch.GuardViolationError as exc:
                    pt = exc.point
            return [_point_op(key, time.perf_counter() - t0, pt)]
        except Exception as exc:  # an operation that raises is a failed operation
            return [_point_op(key, time.perf_counter() - t0, error=_error(exc))]

    def check(self, d, state, ops, reference, exact):
        _check_points(d, state, ops, reference[0], exact, lambda lam: state["splits"][lam])


class Concentration:
    """The criterion-4 eps sweep: ``build_test_spinor`` + ``energy_report`` per eps."""

    seed_counts = {}

    def __init__(self, name, K, n_grid, lam=0.5, eps=EPS_SWEEP, warmup=None):
        self.name, self.K, self.n_grid, self.lam, self.eps = name, K, n_grid, lam, tuple(eps)
        self.warmup = warmup

    def inputs(self, seed):
        return jittered([self.lam], seed)

    def setup(self, d, lams):
        _warm_up(d, self.warmup)
        table = d.assemble(2, self.K, n_grid=self.n_grid)
        return {"table": table, "split": d.split(table, lams[0])}

    def iteration(self, d, state, lams, index=0, tracer=None):
        table = state["table"]
        ops = []
        for eps in self.eps:
            key = repr(eps)
            t0 = time.perf_counter()
            try:
                with _op_span(tracer, key):
                    params = d.TestSpinorParams(eps=eps)
                    psi = d.build_test_spinor(table.grid, table.rep, params)
                    report = d.energy_report(table, state["split"], psi, params=params)
                ops.append({"key": key, "s": time.perf_counter() - t0, "error": None,
                            "failure": None, "report": report})
            except Exception as exc:
                ops.append({"key": key, "s": time.perf_counter() - t0, "error": _error(exc),
                            "failure": None})
        return ops

    def check(self, d, state, ops, reference, exact):
        """``ops`` holds whole iterations, one report per eps in order."""
        ref = {entry["eps"]: entry for entry in reference}
        fields = None if exact else LAMBDA_FREE
        prev = None
        for op in ops:
            if op["key"] == repr(self.eps[0]):
                prev = None  # a new iteration starts
            if op["error"] is not None:
                op["failure"] = f"raised: {op['error']}"
                continue
            rep = op["report"]
            want = ref.get(rep["eps"])
            if want is None:
                op["failure"] = "no reference for this eps"
                continue
            for name in fields or [k for k in want if k != "eps"]:
                if not _close(rep[name], want[name]):
                    op["failure"] = f"{name} = {rep[name]!r}, reference {want[name]!r}"
                    break
            duals = (rep["dual_norm_phi"], rep["dual_norm_residual"])
            if not all(np.isfinite(v) and v > 0 for v in duals):
                op["failure"] = op["failure"] or "dual norms not finite and positive"
            elif prev is not None and not all(a < b for a, b in zip(duals, prev)):
                op["failure"] = op["failure"] or "dual norms do not decrease with eps"
            prev = duals


def _warm_up(d, workload):
    """One iteration of a small copy, so lazy imports finish inside set-up."""
    if workload is not None:
        lams = workload.inputs(DEFAULT_SEED)
        workload.iteration(d, workload.setup(d, lams), lams)


def _close(got, want):
    if isinstance(want, bool) or isinstance(got, bool):
        return got == want
    return abs(got - want) <= REL_TOL * max(abs(want), 1e-300)


def _check_points(d, state, ops, want, exact, split_for):
    """Failure rules for solver points; see bench/README.md."""
    gamma = d.gamma_crit(2)
    for op in ops:
        if op["error"] is not None:
            op["failure"] = f"raised: {op['error']}"
            continue
        if exact and repr(want["lam"]) != op["key"]:
            op["failure"] = "no reference for this lambda"
            continue
        if want["accepted"] and not op["accepted"]:
            op["failure"] = f"lost acceptance ({op['verdict']})"
            continue
        if exact and not want["accepted"] and op["energy"] > want["energy"] * (1.0 + REL_TOL):
            op["failure"] = f"energy {op['energy']!r} above the reference {want['energy']!r}"
            continue
        if not op["accepted"]:
            continue
        pt = op["point"]
        resid = d.residual_check(state["table"], state["nl"], pt.psi, pt.lam)
        energy = d.L_lambda(split_for(pt.lam), state["nl"], pt.psi, pt.lam)
        if resid > RESIDUAL_TOL:
            op["failure"] = f"accepted with residual {resid:.3e} > {RESIDUAL_TOL}"
        elif not energy < gamma:
            op["failure"] = f"accepted with energy {energy!r} >= gamma_crit"
        elif not _close(energy, op["energy"]):
            op["failure"] = f"reported energy {op['energy']!r} but the field gives {energy!r}"
        elif exact and want["accepted"] and not _close(op["energy"], want["energy"]):
            op["failure"] = f"energy {op['energy']!r} drifted from reference {want['energy']!r}"
    # Accepted least energies do not increase with lambda inside an interval.
    accepted = sorted(
        {(op["lam"], op["energy"]) for op in ops if op["failure"] is None and op.get("accepted")}
    )
    for (lam_a, e_a), (lam_b, e_b) in zip(accepted, accepted[1:]):
        if lam_b > lam_a and e_b > e_a + MONOTONE_TOL:
            for op in ops:
                if op.get("lam") == lam_b:
                    op["failure"] = op["failure"] or "energy increases with lambda"


# Small copies run once inside set-up (warm-up) and by the smoke test.
SMOKE_WORKLOADS = {
    w.name: w
    for w in (
        Solve("smoke-least-k6", K=6, lam=0.9),
        Solve("smoke-kernel-k3", K=3, lam=1.0, maxiter=10, jitter=False),
        Concentration("smoke-concentration-k8", K=8, n_grid=64, eps=(0.2, 0.14, 0.1)),
    )
}

# Counts of a traced default-seed iteration of the seed code, with the
# harness's single BLAS thread.  They are compared and reported, not
# enforced: a change may legitimately do less work.
WORKLOADS = {
    w.name: w
    for w in (
        Solve(
            "least-k16",
            K=16,
            lam=0.7,
            warmup=SMOKE_WORKLOADS["smoke-least-k6"],
            seed_counts={
                "variational.fiber_solves": 15,
                "variational.inner_runs": 200,
                "torus.synthesize_calls": 1309,
                "torus.analyze_calls": 1186,
            },
        ),
        Solve(
            "kernel-k10",
            K=10,
            lam=1.0,
            maxiter=60,
            jitter=False,
            warmup=SMOKE_WORKLOADS["smoke-kernel-k3"],
            seed_counts={"variational.t_calls": 1371, "variational.fiber_solves": 17},
        ),
        Concentration(
            "concentration-k48",
            K=48,
            n_grid=512,
            warmup=SMOKE_WORKLOADS["smoke-concentration-k8"],
        ),
    )
}
