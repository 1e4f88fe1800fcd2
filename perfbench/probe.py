"""A fixed host-speed probe.

On a shared host the CPU's speed for this process drifts: the same
compress op ran 50% slower for stretches of 15 s to several minutes,
with CPU time rising as much as wall time.  The probe is a kernel of the
benchmark's own, independent of the program under test, built from the
same kinds of work the program does (NumPy array passes small and large,
a Python loop, zlib).  Timed next to each pass, it says how fast the host
ran then; the harness rescales the pass's times to the speed at which
the probe takes :data:`REFERENCE_S`.
"""

from __future__ import annotations

import statistics
import time
import zlib

import numpy as np

#: Probe time at the reference host speed: the median of the probe on a
#: 2-core x86_64 host (Python 3.11, NumPy 2.4).  Any constant would
#: do; this one keeps rescaled figures near the raw ones.
REFERENCE_S = 0.075

#: Kernel runs per probe; the probe is their median.
REPEATS = 3

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((64, 64, 64)).astype(np.float32)
_LARGE = _rng.standard_normal((128, 128, 128)).astype(np.float32)
_BYTES = _rng.integers(0, 256, 1 << 19, dtype=np.uint8).tobytes()


def _kernel() -> None:
    for _ in range(4):
        small = np.round((np.cumsum(_SMALL, axis=0) * 0.5 + _SMALL) / 1e-3).astype(np.int32)
        np.unique(small[::4])
    large = np.round((np.cumsum(_LARGE, axis=2) * 0.5 + _LARGE) / 1e-3).astype(np.int32)
    np.bincount((large & 0xFFFF).ravel())
    np.sort(large[::2, ::2].ravel())
    total, table = 0, {}
    for i in range(80000):
        total += i & 7
        table[i & 1023] = total
    zlib.compress(_BYTES, 6)


def probe_seconds() -> float:
    """The probe's time now: the median of :data:`REPEATS` kernel runs."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
