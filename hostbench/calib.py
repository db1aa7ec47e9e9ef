"""Host-speed calibration: a fixed pure-Python reference loop.

A shared host changes speed by 15-40% over minutes even while a process
keeps its CPU (CPU time equals wall time), so raw wall times of the same
code drift between two sets of runs.  Every timed
sample is therefore bracketed by a run of :func:`reference_loop`, and
reported at *reference speed*::

    scaled = t * REF_NS / calib_ns

where ``calib_ns`` is the mean of the reference loop timed right before
and right after the sample.  A host running at half speed doubles both
``t`` and ``calib_ns``; the scaled value stays put.

The loop imports nothing from the simulator, so no change to the
simulator can change what it measures.
"""

from __future__ import annotations

import sys
import time

#: Reference-speed duration of one :func:`reference_loop` call, in ns.
#: Fixed once; only ratios to it matter.
REF_NS = 10_000_000

#: Iterations of the reference loop (about ``REF_NS`` on the host the
#: constant was fixed on).
REF_ITERATIONS = 15_000

#: Entries of the reference table: large enough to miss in the CPU's
#: private caches, as the simulator's cache and predictor tables do.  A
#: loop over a small table tracked the simulator's slow periods less
#: well (round-to-round spread of calibrated batched passes 6.1%,
#: against 4.3% with this table).
TABLE_SIZE = 1 << 17


def reference_table() -> dict:
    """The table :func:`reference_loop` probes."""
    return dict.fromkeys(range(TABLE_SIZE), 0)


def reference_loop(table: dict, iterations: int = REF_ITERATIONS) -> int:
    """Pseudo-random dictionary probes and updates, like a cache model."""
    mask = TABLE_SIZE - 1
    acc = 0
    x = 12345
    for i in range(iterations):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x & mask
        acc = (acc + table[key]) & 0xFFFFFFFF
        table[key] = acc ^ i
    return acc


class CalibrationRefused(RuntimeError):
    """A trace or profile hook is installed: timings would be skewed."""


def calibrate(table: dict) -> int:
    """Time one reference loop over ``table`` in ns.

    Refuses while ``sys.settrace`` or ``sys.setprofile`` hooks are set:
    a hook would slow the reference loop and so scale every result
    down, making the code under test look faster than it is.
    """
    if sys.gettrace() is not None or sys.getprofile() is not None:
        raise CalibrationRefused("refusing to calibrate under a trace/profile hook")
    start = time.perf_counter_ns()
    reference_loop(table)
    return time.perf_counter_ns() - start


def scale(t_ns: float, calib_ns: float) -> float:
    """``t_ns`` at reference host speed."""
    if calib_ns <= 0:
        raise ValueError("calibration time must be positive")
    return t_ns * REF_NS / calib_ns


class Clock:
    """Times samples back to back, sharing each calibration between the
    sample before it and the sample after it.

    ``calibs`` keeps every calibration taken, for the ``host.calib_ns``
    quartiles.
    """

    def __init__(self) -> None:
        self._table = reference_table()
        self.calibs = [calibrate(self._table)]

    def time(self, fn, settle=None):
        """Run ``fn()``; return ``(result, raw_ns, scaled_ns)``.

        ``settle(result)``, if given, runs after the timed region and
        before the closing calibration: work the sample leaves running
        (a child process exiting) must not slow the calibration down.
        """
        before = self.calibs[-1]
        start = time.perf_counter_ns()
        result = fn()
        raw = time.perf_counter_ns() - start
        if settle is not None:
            settle(result)
        after = calibrate(self._table)
        self.calibs.append(after)
        return result, raw, scale(raw, (before + after) / 2)
