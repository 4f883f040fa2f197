"""The host's current speed, read from a fixed reference kernel.

On a host shared with other tenants the same operation takes up to half
again as long during some seconds as during others, and the slow spells
last long enough that two runs of the same code differ by a quarter. The
reference kernel slows with them: over 10 s stretches its time tracked
the operations' wall-clock with a correlation of 0.85. The benchmark
runs it between batches, outside the timed window, and scales each
batch's wall-clock by ``REF_S / calibration``, so times read as on the
host at its reference speed.

The kernel uses neither the simulator nor anything the simulator
imports besides NumPy, so a change to the simulator cannot move it.
"""

from functools import lru_cache
from time import perf_counter_ns

import numpy as np

#: Seconds :func:`calibrate` takes at the reference speed: its 10th
#: percentile on a 2-vCPU x86-64 VM (CPython 3.11, NumPy strided take).
REF_S = 0.0065

#: Iterations of the interpreter-bound part.
PY_ITERS = 60_000
#: Bytes gathered from by the memory-bound part, at an 8-byte stride ...
NP_BYTES = 8 << 20
#: ... this many times.
NP_REPEAT = 4


@lru_cache(maxsize=None)
def _buffers():
    src = np.random.default_rng(0).integers(0, 256, NP_BYTES, dtype=np.uint8)
    idx = np.arange(0, NP_BYTES, 8, dtype=np.intp)
    return src, idx, np.empty(idx.size, dtype=np.uint8)


def calibrate() -> float:
    """Seconds the reference kernel takes now: the geometric mean of an
    interpreter-bound part (dict updates) and a memory-bound part (a
    strided gather), because the workloads' wall-clock is a mix of both."""
    src, idx, out = _buffers()
    t0 = perf_counter_ns()
    d = {}
    for i in range(PY_ITERS):
        d[i & 1023] = d.get(i & 511, 0) + i
    t1 = perf_counter_ns()
    for _ in range(NP_REPEAT):
        np.take(src, idx, out=out)
    t2 = perf_counter_ns()
    return ((t1 - t0) * (t2 - t1)) ** 0.5 / 1e9
