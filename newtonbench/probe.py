"""Host-speed probe.

On a shared virtual machine the CPU's speed moves between states up to
about 1.8x apart, for Python-level code like the library's, and it can
switch state within milliseconds, so raw wall time of a solve does not
repeat.
The probe is a fixed piece of work with the same instruction mix as the
library: Python-level Jacobi rotations plus small ``qr`` and matmul calls.

``Sampler.time`` runs the probe right before and right after a call, and
also during it, from a SIGALRM timer every ``SAMPLE_INTERVAL_S``.  The
probe's own time inside the call is subtracted, and the remaining time is
rescaled to the fixed reference probe speed by the time-average of
``REFERENCE_PROBE_S / probe_time`` over the samples:

    normalized = (raw - in-call probe time) * mean(REFERENCE_PROBE_S / p_i)

REFERENCE_PROBE_S is a constant of the benchmark; changing it rescales
every reported time, so it stays fixed across commits.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

REFERENCE_PROBE_S = 0.004
SAMPLE_INTERVAL_S = 0.1
# A 24x24 sweep (about 4 ms) tracks the library's kernels: against Jacobi
# solves at n = 10 and 32, repetitions timed in the slow half of the host's
# states normalized to within 1% of those in the fast half, where an 8x8
# probe (0.5 ms) overcorrected by 4-7%.
_N = 24
_MAT = (lambda g: g + g.T)(np.random.default_rng(709).standard_normal((_N, _N)))
# one cyclic Jacobi sweep
_PAIRS = [(p, q) for p in range(_N - 1) for q in range(p + 1, _N)]


def probe():
    """Run the fixed probe work once and return its wall time in seconds."""
    t0 = time.perf_counter()
    a = _MAT.copy()
    for p, q in _PAIRS:
        apq = a[p, q]
        if apq != 0.0:
            tau = (a[q, q] - a[p, p]) / (2.0 * apq)
            t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
            col_p = a[:, p].copy()
            a[:, p] = c * col_p - s * a[:, q]
            a[:, q] = s * col_p + c * a[:, q]
            row_p = a[p, :].copy()
            a[p, :] = c * row_p - s * a[q, :]
            a[q, :] = s * row_p + c * a[q, :]
    for _ in range(2):
        q, r = np.linalg.qr(a)
        a = r @ q + q.T @ _MAT
    if not np.isfinite(a).all():
        raise RuntimeError("probe produced non-finite values")
    return time.perf_counter() - t0


class Sampler:
    """Times calls and samples the host speed around and during them.

    ``in_call`` runs one in-call probe and returns its duration; a tracer
    passes a version that records the probe as its own span, so that the
    probe's time is not charged to the library span it interrupts.
    """

    def __init__(self, in_call=probe):
        self.in_call = in_call

    def time(self, func, *args):
        samples = [probe()]
        spent = 0.0

        def on_alarm(signum, frame):
            nonlocal spent
            t = time.perf_counter()
            samples.append(self.in_call())
            spent += time.perf_counter() - t

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        t0 = time.perf_counter()
        try:
            result = func(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            gross = time.perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
        samples.append(probe())
        raw = gross - spent
        factor = statistics.fmean(REFERENCE_PROBE_S / p for p in samples)
        return result, {"raw_s": raw, "probe_s": samples, "factor": factor, "norm_s": raw * factor}
