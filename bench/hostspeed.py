"""Host-speed probe: turns wall time on a shared host into reference seconds.

On a shared host the speed of the same code drifts by up to 2x within a
minute, and process CPU time drifts with it.  ``HostSpeed`` samples that speed
while the measured code runs: every ``PERIOD_S`` a SIGALRM handler runs a
fixed probe kernel (2-D FFTs, small batched ``einsum`` calls and an
interpreter loop, about equal parts) and records how long it took.  The
kernel uses numpy only, never the package, so no change to the package moves
it.  An interval then counts

    ref_seconds = (wall seconds - probe seconds inside it) * PROBE_REF_S / mean probe time inside it

that is, its work in units of the probe kernel.  Python runs the handler
between bytecodes of the main thread, so a probe lands between two steps of
the measured code and never changes its results.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.05
SHORT_PROBES = 3
PROBE_REF_S = 0.001  # reference seconds of work one probe counts for
PROBE_FFTS, PROBE_EINSUMS, PROBE_LOOP = 1, 20, 8000

_rng = np.random.default_rng(12345)
_CUBE = _rng.standard_normal((66, 66, 2)) + 1j * _rng.standard_normal((66, 66, 2))
_MATS = _rng.standard_normal((1000, 2, 2)) + 0j
_VECS = _rng.standard_normal((1000, 2)) + 0j


def probe():
    """Run the probe kernel once."""
    for _ in range(PROBE_FFTS):
        np.fft.ifftn(np.fft.fftn(_CUBE, axes=(0, 1)), axes=(0, 1))
    for _ in range(PROBE_EINSUMS):
        np.einsum("kij,kj->ki", _MATS, _VECS)
    acc = 0
    for i in range(PROBE_LOOP):
        acc += i & 7
    return acc


class HostSpeed:
    """Context manager that probes host speed every ``PERIOD_S`` of wall time.

    ``on_probe(start, end)`` is called after each probe; the traced run uses
    it to record the probe as a span, so that layer self times exclude it.
    """

    def __init__(self, on_probe=None):
        self.on_probe = on_probe
        self.samples = []  # (start, end) of each probe, in time order
        self._previous = None

    def _sample(self):
        start = time.perf_counter()
        probe()
        end = time.perf_counter()
        self.samples.append((start, end))
        return start, end

    def _handler(self, signum, frame):
        start, end = self._sample()
        if self.on_probe is not None:
            self.on_probe(start, end)

    def __enter__(self):
        probe()  # the first call pays numpy's one-off set-up
        self._sample()  # so that even an interval started at once has a probe before it
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def ref_seconds(self, start, end):
        """Reference seconds of the work done in the wall interval [start, end].

        An interval shorter than the probe period may hold no probe; the
        last ``SHORT_PROBES`` probes before its end then give the speed.
        """
        inside = [(s, e) for s, e in self.samples if start <= s and e <= end]
        busy = sum(e - s for s, e in inside)
        speed = inside or [(s, e) for s, e in self.samples if e <= end][-SHORT_PROBES:]
        if not speed:
            raise RuntimeError("no host-speed probe ran before the interval ended")
        mean = sum(e - s for s, e in speed) / len(speed)
        return (end - start - busy) * PROBE_REF_S / mean

    def summary(self):
        durations = [e - s for s, e in self.samples]
        return {
            "probes": len(durations),
            "period_s": PERIOD_S,
            "probe_median_s": float(np.median(durations)) if durations else None,
            "probe_min_s": min(durations) if durations else None,
            "probe_max_s": max(durations) if durations else None,
        }
