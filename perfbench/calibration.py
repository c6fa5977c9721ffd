"""Host-speed calibration for the gated times.

The 2-core shared VM this benchmark was tuned on runs the same code up to
1.6x slower for stretches of seconds to minutes, with no steal time: the
process's CPU time slows as much as its wall time, so the host is running
the code slower (frequency or a busy neighbour), not pausing it.  A time
taken in a slow stretch and one taken in a fast stretch then differ by far
more than any usable bound, whatever statistic is taken over the repeats.

The slowdown is shared by everything that runs at the same moment.  So a
fixed reference loop, which does not touch csgp, is timed right
before every cell, and a calibrated time is the measured time scaled by
``REFERENCE_S / mean(reference times)`` taken over the same stretch: the
time the code would have taken had the host run the reference loop in
``REFERENCE_S``.  A change to csgp moves the calibrated time as it moves
the raw time; the raw times are reported next to it.

A slow stretch slows code that misses the caches more than code that
stays in registers, and array code differently from interpreted code, so
the loop does three things: integer arithmetic, reads spread over a 4 MB
table of floats, and element-wise products on complex arrays of 2^15
entries (the size of the largest QAOA state the benchmark simulates).
Measured over 30 s windows in one process on the host above, the median
pass time of the exact cells spread by 0.22 (IQR over median, six
windows) and by 0.09 once divided by an arithmetic-only loop; the table
reads brought that to 0.03.  For the qaoa cells (eight windows) the
arithmetic-only loop left 0.04 and the loop with the array products 0.02.
Across ten runs of each workload, this loop left 0.06 (exact), 0.08
(anneal) and 0.08 (qaoa); the arithmetic-only loop had left 0.09, 0.02
and 0.10, so the pure-Python anneal cells track it less closely.
"""

from __future__ import annotations

import statistics
import time

import numpy

REFERENCE_S = 0.013  # about the reference loop's time on an unloaded core of the host it was tuned on
_ARITHMETIC_ITERATIONS = 50_000
_TABLE_BITS = 17
_TABLE = [float(i) for i in range(1 << _TABLE_BITS)]
# An odd stride visits the table in an order that defeats the prefetcher.
_ORDER = [(i * 40_503) & ((1 << _TABLE_BITS) - 1) for i in range(60_000)]
_STATE = numpy.exp(1j * numpy.arange(1 << 15) / 7.0)
_PHASE = numpy.exp(-0.3j * numpy.arange(1 << 15) / 11.0)
_ARRAY_ROUNDS = 12


def reference_loop() -> float:
    """Run the fixed reference loop once; returns its wall time in seconds."""
    start = time.perf_counter()
    total = 0
    for i in range(_ARITHMETIC_ITERATIONS):
        total += i * i
    gathered = 0.0
    for j in _ORDER:
        gathered += _TABLE[j]
    state = _STATE
    for _ in range(_ARRAY_ROUNDS):
        state = state * _PHASE + 0.001
    elapsed = time.perf_counter() - start
    if total <= 0 or gathered <= 0.0 or not numpy.isfinite(state[0]):  # keeps the results live
        raise AssertionError("reference loop summed to zero")
    return elapsed


def calibrated(seconds: float, reference_times: list[float]) -> float:
    """``seconds`` rescaled to the host speed at which the reference loop takes REFERENCE_S."""
    return seconds * REFERENCE_S / statistics.fmean(reference_times)
