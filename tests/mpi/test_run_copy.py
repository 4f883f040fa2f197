"""The run-by-run copy is invisible.

A non-uniform layout whose runs hold at least ``RUN_COPY_WORDS`` words on
average is gathered and scattered one run at a time, with no word index;
a layout of shorter runs goes through its word index. Whichever copy a
layout takes, ``gather_into`` and ``scatter_from`` must move exactly the
bytes a plain loop over the layout's offsets and lengths moves -- for
words of 1, 2, 4 and 8 bytes, at any buffer offset, for chunk slices that
cut runs and for packed sides of any element type -- and must reject a
layout reaching outside the buffer and a short packed side with the same
errors. A pickled list takes the same copy as the original.
"""

import pickle

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.hw import Arena
from repro.mpi import DatatypeError, SegmentList
from repro.mpi.datatype import RUN_COPY_WORDS
from repro.mpi.pack import gather_into, scatter_from

#: Element types of the packed side: sliced in bytes whatever they are.
PACKED_TYPES = (np.uint8, np.uint16, np.uint32, np.uint64, np.float64)


@st.composite
def irregular_runs(draw):
    """``(offsets, lengths)``: runs of whole ``w``-byte words whose mean
    length lies around ``RUN_COPY_WORDS`` words, laid in memory in a
    drawn order with gaps of 0-8 words between them."""
    w = draw(st.sampled_from([1, 2, 4, 8]))
    n = draw(st.integers(2, 12))
    mean = draw(st.integers(RUN_COPY_WORDS // 2, 3 * RUN_COPY_WORDS // 2))
    words = [draw(st.integers(1, 2 * mean)) for _ in range(n)]
    gaps = [draw(st.integers(0, 8)) for _ in range(n)]
    order = draw(st.permutations(range(n)))
    offsets = [0] * n
    at = draw(st.integers(0, 8))
    for i in order:  # run i sits at the next place in memory order
        offsets[i] = at * w
        at += words[i] + gaps[i]
    return (np.array(offsets, np.int64),
            np.array(words, np.int64) * w)


def reference_gather(raw: np.ndarray, offsets, lengths, lo: int,
                     hi: int) -> np.ndarray:
    """Packed bytes ``[lo, hi)`` of the runs, by a plain loop."""
    out = []
    for off, n in zip(offsets.tolist(), lengths.tolist()):
        out.append(raw[off:off + n])
    return np.concatenate(out)[lo:hi]


def reference_scatter(raw: np.ndarray, offsets, lengths, data: np.ndarray,
                      lo: int) -> None:
    """Write ``data``, packed bytes ``[lo, lo + len)``, into the runs."""
    packed = 0
    for off, n in zip(offsets.tolist(), lengths.tolist()):
        a, b = max(lo, packed), min(lo + data.shape[0], packed + n)
        if a < b:
            raw[off + a - packed:off + b - packed] = data[a - lo:b - lo]
        packed += n


def copy_of(segs: SegmentList) -> str:
    """Which copy :meth:`SegmentList.word_view` chose."""
    *_, strides, runs = segs.word_view()
    if strides is not None:
        return "2d"
    return "vec" if runs is None else "runs"


def expected_copy(segs: SegmentList) -> str:
    """The copy the mean-run rule picks for ``segs``."""
    if segs.uniform() is not None:
        return "2d"
    n = segs.count
    mean_words = segs.total_bytes / segs.word / n if n else 0
    return "runs" if mean_words >= RUN_COPY_WORDS else "vec"


def packed_side(dtype, nbytes: int, fill=None) -> np.ndarray:
    """A C-contiguous array of ``dtype`` holding at least ``nbytes``."""
    size = np.dtype(dtype).itemsize
    out = np.zeros(-(-nbytes // size) + 1, dtype)
    if fill is not None:
        out.view(np.uint8)[:nbytes] = fill
    return out


@settings(max_examples=150, deadline=None)
@given(runs=irregular_runs(), data=st.data())
def test_gather_and_scatter_match_a_plain_run_loop(runs, data):
    offsets, lengths = runs
    full = SegmentList(offsets, lengths)
    total = full.total_bytes
    # A chunk cutting into the first and last runs, or anywhere.
    cut = data.draw(st.integers(0, total // 2), label="cut")
    lo = data.draw(st.integers(0, cut), label="lo")
    hi = data.draw(st.integers(max(lo + 1, total - cut), total), label="hi")
    segs = full.slice_bytes(lo, hi)
    if data.draw(st.booleans(), label="pickled"):
        segs = pickle.loads(pickle.dumps(segs))
    assert copy_of(segs) == expected_copy(segs)
    event(copy_of(segs))

    span = int((offsets + lengths).max())
    base = data.draw(st.integers(1, 15), label="buffer offset")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    arena = Arena(span + 512, "host", "runs")
    arena.raw[:] = rng.integers(0, 256, arena.size, dtype=np.uint8)
    buf = arena.alloc(span + 32).sub(base, span)
    raw = arena.raw[buf.offset:buf.offset + span]
    dtype = data.draw(st.sampled_from(PACKED_TYPES), label="packed type")

    out = packed_side(dtype, hi - lo)
    before = arena.raw.copy()
    gather_into(buf, segs, out)
    want = reference_gather(raw, offsets, lengths, lo, hi)
    assert np.array_equal(out.view(np.uint8)[:hi - lo], want)
    assert np.array_equal(arena.raw, before)

    incoming = rng.integers(0, 256, hi - lo, dtype=np.uint8)
    expected = arena.raw.copy()
    reference_scatter(expected[buf.offset:buf.offset + span], offsets,
                      lengths, incoming, lo)
    scatter_from(packed_side(dtype, hi - lo, incoming), segs, buf)
    assert np.array_equal(arena.raw, expected)

    twin = pickle.loads(pickle.dumps(segs))
    assert twin.word_view() == segs.word_view()
    if copy_of(segs) == "runs":
        assert segs._index is None and twin._index is None


@settings(max_examples=60, deadline=None)
@given(runs=irregular_runs(), data=st.data())
def test_every_copy_rejects_a_short_buffer_and_a_short_packed_side(runs,
                                                                   data):
    segs = SegmentList(*runs)
    if data.draw(st.booleans(), label="pickled"):
        segs = pickle.loads(pickle.dumps(segs))
    lo, hi = segs.span()
    nbytes = segs.total_bytes
    arena = Arena(hi + 512, "host", "short")
    arena.raw[:] = 0x5A
    whole = arena.alloc(hi + 32)
    base = data.draw(st.integers(1, 15), label="buffer offset")
    short = whole.sub(base, hi - 1)
    outside = (f"layout spans [{lo}, {hi}) bytes but buffer holds "
               f"[0, {hi - 1})")
    with pytest.raises(DatatypeError) as err:
        gather_into(short, segs, np.zeros(nbytes, np.uint8))
    assert str(err.value) == outside
    with pytest.raises(DatatypeError) as err:
        scatter_from(np.zeros(nbytes, np.uint8), segs, short)
    assert str(err.value) == outside
    assert (arena.raw == 0x5A).all()

    fits = whole.sub(base, hi)
    with pytest.raises(ValueError, match=(
            f"gather size mismatch: {nbytes - 1} bytes for "
            f"{nbytes}-byte layout")):
        gather_into(fits, segs, np.zeros(nbytes - 1, np.uint8))
    with pytest.raises(ValueError, match=(
            f"scatter size mismatch: {nbytes - 1} bytes for "
            f"{nbytes}-byte layout")):
        scatter_from(np.zeros(nbytes - 1, np.uint8), segs, fits)
    assert (arena.raw == 0x5A).all()


@pytest.mark.parametrize("word", [1, 2, 4, 8])
def test_the_mean_run_picks_the_copy(word):
    """Runs averaging ``RUN_COPY_WORDS`` words are copied run by run and
    build no index; one word less on average, and they take the index."""
    def layout(mean_words):
        lengths = np.array([mean_words - 1, mean_words + 1]) * word
        return SegmentList(np.array([0, lengths[0] + 4 * word]), lengths)

    long_runs = layout(RUN_COPY_WORDS)
    buf = Arena(1 << 16, "host").alloc(1 << 15)
    out = np.zeros(long_runs.total_bytes, np.uint8)
    gather_into(buf, long_runs, out)
    scatter_from(out, long_runs, buf)
    assert copy_of(long_runs) == "runs" and long_runs._index is None
    assert copy_of(layout(RUN_COPY_WORDS - 1)) == "vec"
