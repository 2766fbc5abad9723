"""Host-speed probe: puts every measured time on one fixed scale.

On a shared host the same op can take twice as long from one second to
the next, with the process on the CPU the whole time.  A fixed probe,
timed right before every op and every set-up start, sees the same
slowdown.  A time t measured while the adjacent probes took k seconds
(the median of the probe before the previous op, the one before this op
and the one after it) is reported as t * REFERENCE_S / k: the time it
would have taken on a host where the probe takes REFERENCE_S.

The probe does what jetorders spends its time on: Fraction elimination of
a small dense matrix and dict updates keyed by exponent tuples.  It does
not import jetorders, so a program change cannot change the scale.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

#: probe time (s) that defines the scale: about its median on an Intel
#: Xeon at 2.1 GHz with Python 3.11, so scaled times read close to
#: measured ones there
REFERENCE_S = 0.006

_RNG = random.Random(12345)
_MATRIX = [[Fraction(_RNG.randint(-9, 9), _RNG.randint(1, 5)) for _ in range(9)]
           for _ in range(8)]


def _kernel():
    m = [row[:] for row in _MATRIX]
    r = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [e * inv for e in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    counts = {}
    for i in range(40):
        for j in range(40):
            counts[(i, j)] = counts.get((i, j), 0) + i * j
    return r


def probe():
    """Seconds the fixed probe takes now (two kernel passes)."""
    start = time.perf_counter()
    _kernel()
    _kernel()
    return time.perf_counter() - start


def scaled(times, probes):
    """Scale times[i], measured between probes[i] and probes[i + 1], by
    REFERENCE_S over the median of probes[i - 1], probes[i], probes[i + 1]."""
    if len(probes) != len(times) + 1:
        raise ValueError(f"{len(times)} times need {len(times) + 1} probes, got {len(probes)}")
    return [t * REFERENCE_S / statistics.median(probes[max(0, i - 1):i + 2])
            for i, t in enumerate(times)]
