"""Reference-scaled timing on a CPU whose speed changes while it is measured.

On a shared virtual CPU the same Python code runs up to about twice as slow
for stretches that last from a few milliseconds to several seconds (see
README.md).  A raw wall-clock total therefore says as much about the host
as about the program.  This module measures in a way that cancels most of
that:

* Work is cut into short intervals of about ``QUANTUM_S``.  Inside a
  metered phase a SIGALRM timer closes the current interval every quantum,
  so no hook inside the program is needed; query loops close an interval
  after each batch instead.
* Every interval is bracketed by timings of ``ref_loop``, a fixed loop
  that allocates no containers, so the program's heap and garbage
  collector cannot change its speed.  The interval is divided by
  the mean of its two bracketing timings and expressed in seconds at the
  loop's nominal duration ``REF_NOMINAL_S``.

The meter never waits for the host to become fast: an interval opened only
after a fast reading would pair a selected (low) opening timing with an
ordinary closing one and so read high, and on this host slow stretches last
seconds while fast ones last milliseconds (README.md).

Time spent in the meter itself (its reference loops) is kept in
``Meter.paused`` so that spans recorded around program calls can exclude it.
"""
from __future__ import annotations

import random
import signal
import time

REF_ITERATIONS = 400
REF_BUFFER_BYTES = 1 << 18
# Duration of ref_loop() in the fast state of a 2-vCPU Xeon (Sapphire
# Rapids) VM under CPython 3.11.7; scaled figures are seconds at that speed.
REF_NOMINAL_S = 1.1e-4
QUANTUM_S = 0.002
# a reading above this multiple of the fastest one counts as the slow state
SLOW = 1.3
CALIBRATION_LOOPS = 200

clock = time.perf_counter


def ref_buffer() -> bytearray:
    """The loop's read-only data: 256 KiB of fixed pseudo-random bytes."""
    return bytearray(random.Random(0).randbytes(REF_BUFFER_BYTES))


def ref_loop(buf: bytearray, n: int = REF_ITERATIONS) -> int:
    """Fixed work, allocating no containers: per step one integer update and
    one data-dependent byte read from ``buf``.

    Integer work alone slows about 1.4x when the host is contended while
    ceerlab slows 1.6-1.9x; random reads in a buffer the size of a private
    cache slow more than ceerlab does.  One of each per step slows, window
    by window, in proportion to all three workloads (log-log slope 0.9-1.1,
    see README.md), so a plain ratio corrects them.
    """
    mask = len(buf) - 1
    x = 0
    i = 0
    while i < n:
        x = (x * 31 + i) & 0xFFFF
        x = (x * 40503 + buf[(x ^ (i * 2654435761)) & mask]) & 0xFFFFFFF
        i += 1
    return x


class Meter:
    """Accumulates reference-scaled time over metered phases.

    ``begin()``/``end()`` bracket a phase that is chopped by SIGALRM;
    ``batch_begin()``/``batch_end()`` bracket one batch of individually
    timed queries.  Only one of the two is open at a time.
    """

    def __init__(self) -> None:
        self.fastest = float("inf")
        self.paused = 0.0
        self.intervals = 0
        self.slow_intervals = 0
        self._active = False
        self._prev_ref = 0.0
        self._t0 = 0.0
        self._raw = 0.0
        self._scaled = 0.0
        self._buf = ref_buffer()
        signal.signal(signal.SIGALRM, self._tick)
        for _ in range(CALIBRATION_LOOPS):
            self._ref()

    # -- reference loop ------------------------------------------------

    def _ref(self) -> float:
        t = clock()
        ref_loop(self._buf)
        d = clock() - t
        if d < self.fastest:
            self.fastest = d
        return d

    def _account(self, interval: float, closing_ref: float) -> float:
        """Book one interval; return its scale factor (nominal s per s)."""
        factor = 2.0 * REF_NOMINAL_S / (self._prev_ref + closing_ref)
        self._raw += interval
        self._scaled += interval * factor
        self.intervals += 1
        if closing_ref > SLOW * self.fastest:
            self.slow_intervals += 1
        self._prev_ref = closing_ref
        return factor

    # -- chopped phases --------------------------------------------------

    def _tick(self, signum, frame) -> None:
        if not self._active:
            return
        t = clock()
        interval = t - self._t0
        self._account(interval, self._ref())
        signal.setitimer(signal.ITIMER_REAL, QUANTUM_S)
        self._t0 = clock()
        self.paused += self._t0 - t

    def begin(self) -> None:
        t = clock()
        self._raw = 0.0
        self._scaled = 0.0
        self._prev_ref = self._ref()
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, QUANTUM_S)
        self._t0 = clock()
        self.paused += self._t0 - t

    def end(self) -> tuple[float, float]:
        """Close the phase; return (scaled seconds, raw seconds)."""
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        t = clock()
        self._account(t - self._t0, self._ref())
        self.paused += clock() - t
        return self._scaled, self._raw

    def stop(self) -> None:
        """Disarm the timer whatever state the meter is in."""
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)

    # -- query batches ---------------------------------------------------

    def batch_begin(self) -> None:
        self._prev_ref = self._ref()

    def batch_end(self, busy: float) -> float:
        """Close a batch that ran ``busy`` raw seconds; return its factor."""
        return self._account(busy, self._ref())

    def timed_batches(self, calls, record) -> None:
        """Run zero-argument callables in batches of about one quantum.

        ``record(index, answer, scaled_seconds)`` receives every result;
        the latency of each call is scaled by its batch's factor.
        """
        n = len(calls)
        i = 0
        while i < n:
            self.batch_begin()
            start = i
            lat = []
            answers = []
            b0 = clock()
            while i < n:
                t = clock()
                answers.append(calls[i]())
                lat.append(clock() - t)
                i += 1
                if clock() - b0 >= QUANTUM_S:
                    break
            factor = self.batch_end(sum(lat))
            for k, (ans, d) in enumerate(zip(answers, lat)):
                record(start + k, ans, d * factor)
