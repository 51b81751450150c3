"""Host speed, measured with a fixed reference computation.

On a shared machine the same code runs up to about 1.8x slower for
stretches of a second to minutes (see README.md, "Noise"), and CPU time
slows with wall time, so neither removes the drift.  The benchmark so
times a small fixed computation that uses only the standard library
while it times arcform, and scales each timed call to a nominal host on
which that computation takes ``NOMINAL_S``.  A change to arcform moves
the scaled time as much as the wall time; a slow stretch of the host
slows the call and the reference alike, and cancels out.

- An op in the worker runs under a ``Sampler``: a timer interrupts it
  every ``INTERVAL_S`` to run the reference once, so the speed is
  measured during the op itself.  The time the samples take is
  subtracted from the op's wall time.
- A cold start in a child process cannot be sampled from inside, so it
  is bracketed instead: ``reference_s()`` runs before and after it.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

# The reference's mean time on the 2-CPU VM the benchmark was tuned on,
# in its fast stretches.  It only sets the scale: scaled seconds read as
# seconds on such a host.
NOMINAL_S = 0.0003
INTERVAL_S = 0.01  # one sample costs about 3% of the interval
BRACKET_RUNS = 20
CHECKSUM = Fraction(2297, 20)


def reference() -> Fraction:
    """A fixed mix of what arcform does: Fraction sums, sorting, formatting."""
    acc = Fraction(0)
    rows = []
    for i in range(1, 100):
        acc += Fraction(i % 7 + 1, i % 5 + 2)
        rows.append(((i * 7919) % 1009, str(i)))
    rows.sort()
    return acc


def _timed_reference() -> float:
    start = perf_counter()
    result = reference()
    spent = perf_counter() - start
    if result != CHECKSUM:
        raise RuntimeError(f"reference computation gave {result}, expected {CHECKSUM}")
    return spent


def reference_s() -> float:
    """Mean seconds the reference takes now, over BRACKET_RUNS runs."""
    return statistics.fmean(_timed_reference() for _ in range(BRACKET_RUNS))


def scaled(wall: float, reference: float) -> float:
    """``wall`` scaled to the nominal host, given the reference's mean time."""
    return wall * NOMINAL_S / reference


class Sampler:
    """Runs the reference every INTERVAL_S of wall time while it is active.

    Only for code on the main thread of this interpreter: Python runs
    the signal handler between two bytecodes there.  On exit it runs the
    reference once more, so every sampled span has a sample.
    """

    def __init__(self) -> None:
        self.samples = []

    def _sample(self, signum, frame) -> None:
        self.samples.append(_timed_reference())

    def __enter__(self) -> "Sampler":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(_timed_reference())

    def spent_s(self) -> float:
        """Wall time the samples took, the one on exit included."""
        return sum(self.samples)

    def reference_s(self) -> float:
        """The reference's mean time over the samples."""
        return statistics.fmean(self.samples)
