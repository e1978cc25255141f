"""The host's speed, measured beside the work it scales.

The 2-vCPU host the baseline comes from changes speed under the benchmark:
each vCPU switches between two speeds about 1.55x apart every second or
so, and for minutes at a time it can run slower still.  A process can
neither see nor stop this, and CPU time slows with wall time.  So the
benchmark times a fixed piece of its own code, the calibration, between
instances (at most every ``EVERY_S`` seconds) and divides each instance's
time by the calibration taken just before it, times ``REFERENCE_S``.  A
time so scaled reads as seconds on a host where the calibration takes
``REFERENCE_S``.  A change to the program leaves the calibration alone,
so it shows in full.

The calibration mixes the kinds of work the program does: a pure Python
loop, list and dict traffic over a few MB, and small numpy calls (the
benchmark's own reference DP on a fixed 24-node graph).  On the baseline
host a calibration that tracked only the Python loop missed slow periods
that the instances felt.
"""
from __future__ import annotations

import random
import time

from bench_reference import pair_dp_total

# median calibration time on the baseline host (2 vCPU, Python 3.11.7)
REFERENCE_S = 0.0065
EVERY_S = 0.1

_rng = random.Random(5)
_NODES = 24
_ROWS = [(v, v + 1, _rng.randint(0, 20), _rng.randint(0, 40)) for v in range(_NODES - 1)]
for _ in range(60):
    _tail = _rng.randrange(_NODES - 1)
    _ROWS.append((_tail, _rng.randrange(_tail + 1, _NODES), _rng.randint(0, 20),
                  _rng.randint(0, 40)))
_VALUES = list(range(50_000))
_rng.shuffle(_VALUES)
_PROBES = [_rng.randrange(len(_VALUES)) for _ in range(10_000)]


def calibrate() -> float:
    """Seconds the fixed calibration work takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(10_000):
        total += i * i
    seen = {}
    for i in _PROBES:
        total += _VALUES[i]
        seen[i] = total
    pair_dp_total(_NODES, _ROWS, 0, _NODES - 1, 2)
    return time.perf_counter() - start


class Speed:
    """The latest calibration, renewed between units of work."""

    def __init__(self):
        self.samples: list[float] = []
        self._next = 0.0

    def factor(self) -> float:
        """Reference seconds per second now, calibrating first if
        ``EVERY_S`` has passed since the last calibration."""
        if time.perf_counter() >= self._next:
            self.samples.append(calibrate())
            self._next = time.perf_counter() + EVERY_S
        return REFERENCE_S / self.samples[-1]
