"""Span tracer for the benchmark's traced run, installed from outside the package.

Each traced entry point is wrapped once, and every module attribute of the
package that holds the original function is rebound to the wrapper, so import
aliases are traced too (``testspinor.analyze`` is ``torus.analyze``,
``variational.riesz_lambda`` is ``spectral.riesz_lambda``, ``branch`` binds
``fiber_maximize``, ``sphere_minimize`` and ``t_lambda``).  Methods are
rebound on their class.  Functions a module imports inside a function body
are looked up on the defining module at call time and need no extra rebinding.

Spans are kept in memory as ``[name, start, end, parent, op, work]`` rows:
``parent`` is the index of the enclosing span (-1 for none), ``op`` the
benchmark operation id, and ``work`` a per-call count taken from the
arguments or the result (computed bytes for FFTs, objective evaluations for
inner solves).  Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

COMPLEX_BYTES = 16


def _synthesize_bytes(args, out):
    return out.size * COMPLEX_BYTES


def _analyze_bytes(args, out):
    return args[1].size * COMPLEX_BYTES


def _inner_evals(args, out):
    return int(out[3])


# (module, class or None, attribute, span name, work function)
TARGETS = (
    ("torus", None, "synthesize", "torus.synthesize", _synthesize_bytes),
    ("torus", None, "analyze", "torus.analyze", _analyze_bytes),
    ("spectral", "EigenTable", "to_eigen", "spectral.to_eigen", None),
    ("spectral", "EigenTable", "from_eigen", "spectral.from_eigen", None),
    ("spectral", None, "riesz_lambda", "spectral.riesz_lambda", None),
    ("variational", None, "sphere_minimize", "variational.sphere_minimize", None),
    ("variational", None, "fiber_maximize", "variational.fiber_maximize", None),
    ("variational", None, "_inner_maximize", "variational.inner_maximize", _inner_evals),
    ("variational", None, "t_lambda", "variational.t_lambda", None),
    ("branch", None, "minimize_M", "branch.minimize_M", None),
    ("branch", None, "polish_residual", "branch.polish_residual", None),
    ("branch", None, "residual_check", "branch.residual_check", None),
    ("testspinor", None, "build_test_spinor", "testspinor.build_test_spinor", None),
    ("testspinor", None, "energy_report", "testspinor.energy_report", None),
)

NAME, START, END, PARENT, OP, WORK = range(6)


class Tracer:
    """In-memory span recorder; ``op`` tags the spans of the current operation."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.missing = []
        self._stack = []

    def wrap(self, name, fn, work=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.op, 0])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][END] = clock()
            if work is not None:
                spans[idx][WORK] = work(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def probe_span(self, start, end):
        """Record a host-speed probe as a child of the innermost open span."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(["bench.host_probe", start, end, parent, self.op, 0])

    @contextmanager
    def span(self, name, op):
        """Root span around one benchmark operation."""
        self.op = op
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, -1, op, 0])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][END] = time.perf_counter()
            self.op = None


@contextmanager
def installed(tracer, package="diractorus"):
    """Rebind every alias of each target to its traced wrapper; undo on exit.

    A target the package no longer defines is listed in ``tracer.missing``
    and its metrics read zero.
    """
    modules = [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]
    undo = []
    try:
        for mod_name, cls_name, attr, span_name, work in TARGETS:
            owner = sys.modules.get(f"{package}.{mod_name}")
            if owner is not None and cls_name is not None:
                owner = getattr(owner, cls_name, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                tracer.missing.append(span_name)
                continue
            wrapper = tracer.wrap(span_name, original, work)
            holders = [owner] if cls_name is not None else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        undo.append((holder, key, original))
        yield tracer
    finally:
        for holder, key, original in reversed(undo):
            setattr(holder, key, original)


def span_totals(spans):
    """Per span name: calls, inclusive seconds, self seconds and summed work."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0})
    for i, s in enumerate(spans):
        row = out[s[NAME]]
        row["calls"] += 1
        row["total_s"] += s[END] - s[START]
        row["self_s"] += s[END] - s[START] - child[i]
        row["work"] += s[WORK]
    return out


def _children(spans):
    kids = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            kids[s[PARENT]].append(i)
    return kids


def layer_metrics(spans):
    """Per-layer counts and self times; see bench/README.md for the table."""
    tot = span_totals(spans)
    kids = _children(spans)

    def calls(*names):
        return sum(tot[n]["calls"] for n in names if n in tot)

    def self_s(*names):
        return sum(tot[n]["self_s"] for n in names if n in tot)

    def work(name):
        return tot[name]["work"] if name in tot else 0

    outer_evals = 0
    candidate_s = 0.0
    candidate_fiber = 0
    for i, s in enumerate(spans):
        if s[NAME] == "variational.sphere_minimize":
            outer_evals += sum(
                spans[c][NAME] == "variational.fiber_maximize" for c in kids[i]
            )
        elif s[NAME] == "branch.minimize_M":
            names = [spans[c][NAME] for c in kids[i]]
            fibers = names.count("variational.fiber_maximize")
            candidate_fiber += max(0, fibers - 1)
            descent = [c for c in kids[i] if spans[c][NAME] == "variational.sphere_minimize"]
            stop = spans[descent[0]][START] if descent else s[END]
            candidate_s += stop - s[START]

    fiber_solves = calls("variational.fiber_maximize")
    inner_evals = work("variational.inner_maximize")
    return {
        "torus.fft_calls": calls("torus.synthesize", "torus.analyze"),
        "torus.synthesize_calls": calls("torus.synthesize"),
        "torus.analyze_calls": calls("torus.analyze"),
        "torus.fft_s": self_s("torus.synthesize", "torus.analyze"),
        "torus.fft_mb": (work("torus.synthesize") + work("torus.analyze")) / 1e6,
        "spectral.eig_calls": calls("spectral.to_eigen", "spectral.from_eigen"),
        "spectral.eig_s": self_s("spectral.to_eigen", "spectral.from_eigen", "spectral.riesz_lambda"),
        "variational.outer_evals": outer_evals,
        "variational.sphere_s": self_s("variational.sphere_minimize"),
        "variational.fiber_solves": fiber_solves,
        "variational.inner_runs": calls("variational.inner_maximize"),
        "variational.inner_evals": inner_evals,
        "variational.inner_per_fiber": inner_evals / fiber_solves if fiber_solves else 0.0,
        "variational.fiber_s": self_s("variational.fiber_maximize", "variational.inner_maximize"),
        "variational.inner_s": self_s("variational.inner_maximize"),
        "variational.t_calls": calls("variational.t_lambda"),
        "variational.t_s": self_s("variational.t_lambda"),
        "branch.candidate_s": candidate_s,
        "branch.candidate_fiber_solves": candidate_fiber,
        "branch.polish_calls": calls("branch.polish_residual"),
        "branch.polish_s": self_s("branch.polish_residual"),
        "branch.self_s": self_s("branch.minimize_M", "branch.residual_check"),
        "testspinor.build_s": self_s("testspinor.build_test_spinor"),
        "testspinor.report_s": self_s("testspinor.energy_report"),
    }
