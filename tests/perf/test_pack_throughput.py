"""Perf guard: pack throughput relative to plain NumPy making the same copies.

Each case interleaves ``pack_range_bytes`` with a plain-NumPy analogue
that makes the same copies of the same buffer, and takes the median over
``ROUNDS`` of (analogue time / kernel time). Both sides run in one process
on one host, so the ratio measures the kernel's own cost against the copy
it wraps, not the speed of the host. A median below 70% of the pinned
ratio fails.

* ``hvector-byte``: the chunked pack of ``hvector(65536, 4, 8)`` BYTE in
  64 KiB chunks; the analogue copies one strided ``uint32`` view per chunk.
* ``hindexed-float``: a 256-run FLOAT ``hindexed`` of 256 KiB in 64 KiB
  chunks; the analogue runs ``np.take`` over a ``uint32`` view of the
  buffer with word indices built beforehand.
"""

import statistics
import time

import numpy as np
import pytest

from repro.hw.memory import Arena
from repro.mpi import BYTE, FLOAT, Datatype
from repro.mpi.pack import pack_range_bytes

pytestmark = pytest.mark.perf

CHUNK = 64 * 1024
#: Interleaved (kernel, analogue) rounds; each times ``PASSES`` full packs.
ROUNDS, PASSES = 15, 32
#: Median analogue/kernel time ratios, pinned at the measured medians.
PINNED = {"hvector-byte": 0.67, "hindexed-float": 0.67}


def _hvector_case():
    rows, width, pitch = 1 << 16, 4, 8
    vec = Datatype.hvector(rows, width, pitch, BYTE).commit()
    buf = Arena(rows * pitch, "host", "perf-hvector").alloc(rows * pitch)
    raw = buf.arena.raw

    def analogue(lo, hi):
        view = np.ndarray(((hi - lo) // width,), np.uint32, raw,
                          buf.offset + lo // width * pitch, (pitch,))
        return view.copy()

    return vec, buf, analogue


def _hindexed_case():
    runs, payload = 256, 256 * 1024
    rng = np.random.default_rng(19)
    # Run lengths and gaps in floats, each at least one. The first run
    # starts at float 1, so the layout moves 4-byte words.
    lengths = 1 + rng.multinomial(payload // 4 - runs, [1 / runs] * runs)
    gaps = 1 + rng.integers(0, 64, runs)
    gaps[0] = 1
    prefix = np.concatenate(([0], np.cumsum(lengths[:-1])))
    offsets = np.cumsum(gaps) + prefix
    dtype = Datatype.hindexed(lengths.tolist(), (offsets * 4).tolist(),
                              FLOAT).commit()
    span = int(offsets[-1] + lengths[-1]) * 4
    buf = Arena(span + 256, "host", "perf-hindexed").alloc(span)
    words = np.ndarray((span // 4,), np.uint32, buf.arena.raw, buf.offset)
    index = np.repeat(offsets - prefix, lengths) + np.arange(payload // 4)

    def analogue(lo, hi):
        return np.take(words, index[lo // 4: hi // 4])

    return dtype, buf, analogue


CASES = {"hvector-byte": _hvector_case, "hindexed-float": _hindexed_case}


def measure_ratio(case: str) -> float:
    """Median over ``ROUNDS`` of analogue time / ``pack_range_bytes`` time."""
    dtype, buf, analogue = CASES[case]()
    buf.view()[:] = np.random.default_rng(7).integers(0, 256, buf.nbytes,
                                                      dtype=np.uint8)
    total = dtype.size
    chunks = [(lo, min(lo + CHUNK, total)) for lo in range(0, total, CHUNK)]
    for lo, hi in chunks:  # warm the slice caches and word indices
        assert np.array_equal(pack_range_bytes(buf, dtype, 1, lo, hi),
                              analogue(lo, hi).view(np.uint8))

    def timed(pack) -> float:
        start = time.perf_counter()
        for _ in range(PASSES):
            for lo, hi in chunks:
                pack(lo, hi)
        return time.perf_counter() - start

    ratios = []
    for _ in range(ROUNDS):
        kernel = timed(lambda lo, hi: pack_range_bytes(buf, dtype, 1, lo, hi))
        ratios.append(timed(analogue) / kernel)
    return statistics.median(ratios)


@pytest.mark.parametrize("case", sorted(CASES))
def test_pack_throughput_within_30_percent_of_recorded(case):
    ratio = measure_ratio(case)
    floor = 0.7 * PINNED[case]
    assert ratio >= floor, (
        f"{case}: pack_range_bytes fell to {ratio:.2f}x the speed of the "
        f"plain-NumPy copies (pinned {PINNED[case]:.2f}x, floor {floor:.2f}x)"
    )
