"""Clocks that run at the host's reference speed, for timing the
workloads on a host whose speed changes under them.

Other tenants share this host's cores, and while they are busy the same
round of work takes up to twice as long, in CPU time as well as in wall
time, for stretches of a second to minutes. Medians over rounds do not
remove that, because a whole run can fall into one busy stretch.

So a SIGALRM timer interrupts the workload every PERIOD seconds of wall
time and runs a fixed reference kernel: stdlib Fraction arithmetic and
dict stores, the same kind of work as toralg's, but none of toralg's
code. The kernel's time over REFERENCE_S is the host's slowdown at that
moment. The meter's clocks advance by the wall and CPU time that passes
outside the kernel, divided by the median slowdown of the last WINDOW
samples: what the same work would have taken at the reference speed.
The kernel's own time does not advance them.

REFERENCE_S is a fixed unit, the kernel's fastest time seen on the
machine the benchmark was written on (2 vCPUs, CPython 3.11.7); it only
sets the scale. On a quiet host the clocks run close to real time.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import monotonic, process_time

PERIOD = 0.01
REFERENCE_S = 0.00019
WINDOW = 4


def kernel():
    d = {}
    s = Fraction(0)
    for i in range(1, 40):
        s += Fraction(i, i + 7) * Fraction(3, i + 1)
        d[(i, i % 7)] = s
    return s


class SpeedMeter:
    """Scaled wall and CPU clocks that start at 0 at start().

    The state (scaled wall, scaled CPU, real wall and CPU at the end of
    the last sample, slowdown) is one tuple, replaced whole by the
    signal handler, so that a reading never mixes two samples. A
    stretch is scaled by the slowdown known at its start, so the clocks
    never run backwards.
    """

    def __init__(self):
        self.slowdowns = []
        self._state = None
        self._old = None
        self._busy = False

    def _sample(self, _signum=None, _frame=None):
        if self._busy:  # a signal that arrived while sampling
            return
        self._busy = True
        w0, c0 = monotonic(), process_time()
        kernel()
        w1, c1 = monotonic(), process_time()
        self.slowdowns.append((w1 - w0) / REFERENCE_S)
        f_new = statistics.median(self.slowdowns[-WINDOW:])
        acc_w, acc_c, last_w, last_c, f = self._state
        f = f or f_new  # the stretch before the first sample
        self._state = (acc_w + (w0 - last_w) / f, acc_c + (c0 - last_c) / f,
                       w1, c1, f_new)
        self._busy = False

    def start(self):
        """Start both clocks at 0 and take a first sample."""
        kernel()  # its first call warms caches: not a speed sample
        self._state = (0.0, 0.0, monotonic(), process_time(), None)
        self._sample()
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old or signal.SIG_DFL)

    def slowdown(self) -> float:
        """Median slowdown of the samples taken so far."""
        return statistics.median(self.slowdowns)

    def wall(self) -> float:
        """Scaled wall seconds since start()."""
        acc_w, _acc_c, last_w, _last_c, f = self._state
        return acc_w + (monotonic() - last_w) / f

    def now(self):
        """(scaled wall, scaled CPU) seconds since start()."""
        acc_w, acc_c, last_w, last_c, f = self._state
        return (acc_w + (monotonic() - last_w) / f,
                acc_c + (process_time() - last_c) / f)
