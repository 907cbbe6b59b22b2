"""Times at a reference speed, sampled while the program runs.

The benchmark runs on shared hosts whose speed changes by up to a factor
of 1.7 within a second, for every process alike.  A :class:`SpeedSampler`
interrupts the benchmark every ``INTERVAL_S`` with an interval timer and,
in the signal handler, times a fixed pure-Python reference loop.  A
measurement made with :meth:`SpeedSampler.measure` is then reported

- net of the handler's own time, and
- at reference speed: scaled by ``REFERENCE_S`` over the mean reference
  time sampled during the measurement.

While the reference loop takes ``REFERENCE_S``, the scaled time equals
the clock time; on a machine twice as slow the clock time doubles and
the scaled time stays the same.  A change to the program moves the clock
time and leaves the reference loop, the benchmark's own code, alone, so
it moves the scaled time by the same share.  Importing this module costs
nothing; only ``start`` installs the handler.
"""

import signal
import statistics
import time

#: Seconds between two samples of the reference loop.  The host's speed
#: can change within a second, so samples come often and are short: the
#: handler takes about 2.5% of the time.
INTERVAL_S = 0.025

#: The reference loop's time, in seconds, on the machine the benchmark
#: was tuned on: a 2-CPU x86-64 VM with Python 3.11, where it took
#: 0.35 to 0.65 ms as the host's load changed.
REFERENCE_S = 0.0005


def reference_loop() -> float:
    """Seconds a fixed pure-Python loop takes."""
    began = time.perf_counter()
    table = {}
    total = 0.0
    for i in range(2000):
        key = i % 257
        table[key] = table.get(key, 1.0) * 0.5 + i
        total += table[key] ** 0.5
    return time.perf_counter() - began


class SpeedSampler:
    """Times the reference loop from ``SIGALRM``, from ``start`` to ``stop``."""

    def __init__(self):
        self.samples = []
        """Reference-loop seconds, in the order they were taken."""
        self.handler_s = []
        """Seconds each handler call took, reference loop included."""
        self._previous = None

    def _handler(self, signum, frame):
        began = time.perf_counter()
        self.samples.append(reference_loop())
        self.handler_s.append(time.perf_counter() - began)

    def start(self) -> "SpeedSampler":
        # The loop's first calls run cold; keep them out of the samples.
        for _ in range(3):
            reference_loop()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def scaled(self, began_at: int, net_s: float) -> float:
        """``net_s`` at reference speed, by the samples from ``began_at`` on.

        A measurement shorter than the interval has no sample of its
        own; it takes the last three taken before it ended, or a fresh
        one when there are none.
        """
        window = (self.samples[began_at:] or self.samples[-3:]
                  or [reference_loop()])
        return net_s * REFERENCE_S / statistics.mean(window)

    def measure(self, fn):
        """Call ``fn()``; returns (result, scaled seconds, net seconds)."""
        first = len(self.samples)
        began = time.perf_counter()
        result = fn()
        took = time.perf_counter() - began
        net = took - sum(self.handler_s[first:])
        return result, self.scaled(first, net), net
