"""CPU speed probe: rescales measured times to a reference CPU speed.

The machines this benchmark runs on share their cores with other tenants,
and the speed of a core drifts by 20-40% over seconds to minutes.  Raw pass
times inherit that drift, so two sets of runs of the same code can differ
by more than any useful bound.

While a timed region runs, SIGALRM fires every ``INTERVAL`` seconds and the
handler runs a fixed kernel that uses only the standard library and records
how long it took.  The kernel mixes the two kinds of exact arithmetic the
workloads do: big-integer products and gcds, as in Q and Q(zeta), and
small-integer tuples reduced mod p, as in F_p^2, each feeding a
tuple-keyed dict.  The region is credited with its
elapsed time minus the kernel's, multiplied by ``REF_S`` over the mean kernel
time during the region: its duration on a CPU where the kernel takes
``REF_S`` seconds.  The kernel never calls skewlines, so a change to the
program moves the rescaled time exactly as it moves the raw one.  Everything
runs in the main thread; no thread or process is started.
"""

from __future__ import annotations

import math
import random
import signal
import statistics
import time

INTERVAL = 0.04
# kernel time on the reference CPU: about its median on a 2-core Xeon VM
REF_S = 0.0015

_rng = random.Random(1)
_OPERANDS = [_rng.getrandbits(200) + 1 for _ in range(2000)]


def kernel(n: int = 150) -> int:
    table = {}
    acc = 1
    ops = _OPERANDS
    x0, x1, p = 3, 5, 1009
    for i in range(n):
        a, b = ops[(i * 7919) % 2000], ops[(i * 104729) % 2000]
        g = math.gcd(a * b + i, b * b + 3)
        table[(a % 1000003, b % 999983, g & 1023)] = (a * 3 // (g + 1), b)
        acc ^= a * b >> 300
        for j in range(5):
            y0, y1 = (i * 7 + j) % p, (i * 13 + j + 1) % p
            x0, x1 = (x0 * y0 + 3 * x1 * y1) % p, (x0 * y1 + x1 * y0 + 1) % p
            table[(x0, x1)] = j
    return acc + len(table)


class SpeedProbe:
    """Times regions and rescales them by the kernel times sampled inside."""

    def __init__(self):
        self.samples: list[float] = []
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - start)
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        for _ in range(3):
            kernel()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def timed(self, fn):
        """Run ``fn``; return its result, its time net of the kernel, and the
        kernel samples taken while it ran."""
        first = len(self.samples)
        start = time.perf_counter()
        out = fn()
        elapsed = time.perf_counter() - start
        probes = self.samples[first:]
        return out, elapsed - sum(probes), probes


def rescale(net_s: float, probes: list[float]) -> float:
    """``net_s`` seconds at the speed the probes saw, in reference seconds."""
    return net_s * REF_S / statistics.fmean(probes)
