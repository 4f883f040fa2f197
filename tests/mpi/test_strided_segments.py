"""The strided form of a SegmentList is invisible.

``SegmentList.strided(first, width, count, pitch)`` keeps four integers
where the general form keeps run arrays. Every query on it -- and on
every list derived from it by slicing, tiling, placing or pickling -- must
equal the same query on the general form built from its materialized
runs, and so must its registry key.
"""

import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import BYTE, FLOAT, Datatype, SegmentList, dtir


def materialized(segs: SegmentList) -> SegmentList:
    """The general form of ``segs``: its runs as arrays."""
    return SegmentList(segs.offsets, segs.lengths)


def assert_same(got: SegmentList, want: SegmentList) -> None:
    """Every query of ``got`` equals the same query of ``want``."""
    assert got.count == want.count
    assert got.total_bytes == want.total_bytes
    assert got.span() == want.span()
    assert got.uniform() == want.uniform()
    assert got.word == want.word
    assert np.array_equal(got.offsets, want.offsets)
    assert np.array_equal(got.lengths, want.lengths)
    assert np.array_equal(got.prefix, want.prefix)
    assert np.array_equal(got.word_indices(), want.word_indices())
    assert dtir.layout_key(got) == dtir.layout_key(want)


def _scaled(draw, lo: int, hi: int) -> int:
    """An integer in ``[lo, hi]`` times 1, 2, 4 or 8, so every copy word
    comes up."""
    return draw(st.integers(lo, hi)) * draw(st.sampled_from([1, 2, 4, 8]))


@st.composite
def strided_runs(draw):
    """``(first, width, count, pitch)`` with ``count >= 2`` and
    ``0 < width < pitch``."""
    width = _scaled(draw, 1, 6)
    pitch = width + _scaled(draw, 1, 6)
    return (_scaled(draw, -8, 8), width, draw(st.integers(2, 40)), pitch)


@st.composite
def byte_ranges(draw, width: int, count: int):
    """``[lo, hi)`` within ``count`` runs of ``width``: on run boundaries
    or anywhere."""
    if draw(st.booleans()):
        i = draw(st.integers(0, count))
        j = draw(st.integers(i, count))
        return i * width, j * width
    lo = draw(st.integers(0, count * width))
    return lo, draw(st.integers(lo, count * width))


@settings(max_examples=200, deadline=None)
@given(run=strided_runs(), data=st.data())
def test_strided_form_answers_like_its_runs(run, data):
    first, width, count, pitch = run
    segs = SegmentList.strided(first, width, count, pitch)
    assert segs.strided_run == run
    ref = materialized(segs)
    assert_same(segs, ref)
    assert_same(segs.coalesced(), ref.coalesced())

    lo, hi = data.draw(byte_ranges(width, count))
    part = segs.slice_bytes(lo, hi)
    assert_same(part, ref.slice_bytes(lo, hi))
    if lo % width == 0 and hi % width == 0 and hi - lo >= 2 * width:
        assert part.strided_run is not None

    tiles = data.draw(st.integers(0, 5))
    span = (count - 1) * pitch + width
    stride = data.draw(st.one_of(
        st.just(count * pitch), st.just(span), st.integers(-span, 3 * span)))
    assert_same(segs.tiled(tiles, stride), ref.tiled(tiles, stride))
    assert_same(segs.tiled(tiles, stride).coalesced(),
                ref.tiled(tiles, stride).coalesced())
    if tiles and stride == count * pitch:
        assert segs.tiled(tiles, stride).strided_run is not None

    starts = np.array(data.draw(st.lists(st.integers(-64, 256), max_size=4)),
                      np.int64)
    assert_same(segs.placed(starts), ref.placed(starts))

    dtir.reset_registry()
    assert dtir.register(segs, 1).key == dtir.register(ref, 2).key
    assert segs.canon_key == ref.canon_key

    clone = pickle.loads(pickle.dumps(segs))
    assert clone.strided_run == run
    assert clone.canon_key == segs.canon_key
    assert_same(clone, ref)


@pytest.mark.parametrize("run", [(0, 4, 1, 8), (0, 4, 3, 4), (0, 0, 3, 8),
                                 (16, 8, 3, 4), (0, 4, 0, 8)])
def test_runs_outside_the_invariant_keep_arrays(run):
    """One run, abutting, empty, overlapping or no runs: the arrays the
    four integers describe, unchanged."""
    first, width, count, pitch = run
    segs = SegmentList.strided(*run)
    assert segs.strided_run is None
    assert segs.offsets.tolist() == [first + k * pitch for k in range(count)]
    assert segs.lengths.tolist() == [width] * count


def test_vector_constructors_build_the_strided_form():
    assert Datatype.hvector(1 << 20, 4, 8, BYTE).segments.strided_run == (
        0, 4, 1 << 20, 8)
    assert Datatype.vector(66, 1, 64, Datatype.named(np.float64)) \
        .segments.strided_run == (0, 8, 66, 512)
    every_other = Datatype.resized(FLOAT, 0, 8)
    assert Datatype.contiguous(5, every_other).segments.strided_run == (
        0, 4, 5, 8)
    # Abutting rows are one run; gathered blocks and subarrays keep arrays.
    assert Datatype.vector(4, 2, 2, FLOAT).segments.strided_run is None
    assert Datatype.hindexed([1, 1], [0, 8], FLOAT).segments.strided_run is None
    assert Datatype.subarray([4, 16], [4, 4], [0, 4], FLOAT) \
        .segments.strided_run is None


def test_describe_derives_only_the_runs_it_shows():
    vec = Datatype.hvector(1 << 20, 4, 8, BYTE)
    tracemalloc.start()
    try:
        text = vec.describe(max_segments=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert text.endswith("segments: [0, 4) [8, 12) [16, 20) ... (+1048573)")
    assert peak < 64 * 1024


def test_pickled_type_stays_strided_and_binds_its_entry():
    """The shard path: a strided type crosses a pickle as four integers
    and binds the same registry entry by its recorded key."""
    vec = Datatype.vector(1024, 3, 8, FLOAT).commit()
    clone = pickle.loads(pickle.dumps(vec))
    assert clone.segments.strided_run == vec.segments.strided_run
    assert clone.commit()._entry() is vec._entry()
