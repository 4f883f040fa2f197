"""Tests for the MPI datatype algebra and segment flattening."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import dtir
from repro.mpi.datatype import Datatype, DatatypeError, SegmentList

FLOAT = Datatype.named(np.float32, "FLOAT")
DOUBLE = Datatype.named(np.float64, "DOUBLE")
BYTE = Datatype.named(np.uint8, "BYTE")
INT = Datatype.named(np.int32, "INT")


def seg_pairs(dt, count=1):
    s = dt.segments_for_count(count)
    return list(zip(s.offsets.tolist(), s.lengths.tolist()))


class TestPrimitives:
    def test_named_sizes(self):
        assert FLOAT.size == 4 and FLOAT.extent == 4
        assert DOUBLE.size == 8
        assert BYTE.size == 1

    def test_named_is_committed_and_contiguous(self):
        assert FLOAT.committed
        assert FLOAT.is_contiguous

    def test_named_single_segment(self):
        assert seg_pairs(DOUBLE) == [(0, 8)]


class TestContiguous:
    def test_segments_coalesce(self):
        t = Datatype.contiguous(10, FLOAT)
        assert seg_pairs(t) == [(0, 40)]
        assert t.size == 40 and t.extent == 40
        assert t.is_contiguous

    def test_zero_count(self):
        t = Datatype.contiguous(0, FLOAT)
        assert t.size == 0
        assert t.segments.count == 0

    def test_nested_contiguous(self):
        inner = Datatype.contiguous(4, FLOAT)
        outer = Datatype.contiguous(3, inner)
        assert seg_pairs(outer) == [(0, 48)]


class TestVector:
    def test_basic_vector(self):
        # 3 blocks of 2 floats, stride 4 floats.
        t = Datatype.vector(3, 2, 4, FLOAT)
        assert t.size == 24
        assert seg_pairs(t) == [(0, 8), (16, 8), (32, 8)]
        assert t.extent == 2 * 16 + 8

    def test_column_of_matrix(self):
        """East/west halo of an 8x8 float matrix: one column."""
        t = Datatype.vector(8, 1, 8, FLOAT)
        assert t.size == 32
        assert seg_pairs(t) == [(i * 32, 4) for i in range(8)]

    def test_stride_equals_blocklength_coalesces(self):
        t = Datatype.vector(4, 2, 2, FLOAT)
        assert seg_pairs(t) == [(0, 32)]

    def test_hvector_byte_stride(self):
        t = Datatype.hvector(3, 1, 10, BYTE)
        assert seg_pairs(t) == [(0, 1), (10, 1), (20, 1)]

    def test_negative_count_rejected(self):
        with pytest.raises(DatatypeError):
            Datatype.vector(-1, 1, 1, FLOAT)

    def test_vector_of_vectors(self):
        inner = Datatype.vector(2, 1, 2, FLOAT).commit()  # 2 floats, gap
        outer = Datatype.hvector(2, 1, 64, inner)
        assert seg_pairs(outer) == [(0, 4), (8, 4), (64, 4), (72, 4)]

    def test_uniform_detection(self):
        t = Datatype.vector(16, 1, 4, FLOAT)
        assert t.uniform_for_count(1) == (4, 16, 16)

    def test_uniform_detection_with_count(self):
        t = Datatype.vector(4, 1, 4, FLOAT)
        # 2 elements: extent of vector = 3*16+4 = 52 -> irregular spacing
        # between last block of element 0 and first of element 1.
        assert t.uniform_for_count(2) is None

    def test_non_uniform_returns_none(self):
        t = Datatype.indexed([1, 2], [0, 4], FLOAT)
        assert t.segments.uniform() is None


class TestIndexedStruct:
    def test_indexed(self):
        t = Datatype.indexed([2, 1], [0, 4], FLOAT)
        assert t.size == 12
        # blocks at elements 0..1 and 4.
        assert seg_pairs(t) == [(0, 8), (16, 4)]

    def test_indexed_adjacent_blocks_coalesce(self):
        t = Datatype.indexed([2, 2], [0, 2], FLOAT)
        assert seg_pairs(t) == [(0, 16)]

    def test_indexed_length_mismatch(self):
        with pytest.raises(DatatypeError):
            Datatype.indexed([1, 2], [0], FLOAT)

    def test_hindexed_byte_displacements(self):
        t = Datatype.hindexed([1, 1], [0, 6], BYTE)
        assert seg_pairs(t) == [(0, 1), (6, 1)]

    def test_struct_mixed_types(self):
        # {int at 0, double at 8} -- a typical C struct with padding.
        t = Datatype.struct([1, 1], [0, 8], [INT, DOUBLE])
        assert t.size == 12
        assert seg_pairs(t) == [(0, 4), (8, 8)]
        assert t.base_np is None  # mixed base types

    def test_struct_length_mismatch(self):
        with pytest.raises(DatatypeError):
            Datatype.struct([1], [0, 8], [INT, DOUBLE])

    def test_zero_blocklength_skipped(self):
        t = Datatype.indexed([0, 2], [0, 4], FLOAT)
        assert seg_pairs(t) == [(16, 8)]


class TestSubarray:
    def test_interior_block_of_2d(self):
        # 4x4 array, take 2x2 at (1,1).
        t = Datatype.subarray([4, 4], [2, 2], [1, 1], FLOAT)
        assert t.size == 16
        assert t.extent == 64  # full array, per the standard
        assert seg_pairs(t) == [(20, 8), (36, 8)]

    def test_column_subarray_matches_vector(self):
        col = Datatype.subarray([8, 8], [8, 1], [0, 7], FLOAT)
        vec = Datatype.vector(8, 1, 8, FLOAT)
        assert seg_pairs(col) == [(o + 28, l) for o, l in seg_pairs(vec)]

    def test_fortran_order(self):
        # In F order, first dimension is contiguous: a 2-row slab of a
        # 4(x)x3(y) array is strided.
        t = Datatype.subarray([4, 3], [2, 3], [0, 0], FLOAT, order="F")
        assert t.size == 24
        assert seg_pairs(t) == [(0, 8), (16, 8), (32, 8)]

    def test_3d_subarray(self):
        t = Datatype.subarray([4, 4, 4], [2, 2, 4], [1, 1, 0], FLOAT)
        # The innermost dim is full and the middle dim takes consecutive
        # planes, so each i-slab coalesces into a single 32-byte run.
        assert t.size == 2 * 2 * 4 * 4
        assert t.segments.count == 2
        assert seg_pairs(t) == [(80, 32), (144, 32)]

    def test_single_run_base_keeps_its_offset(self):
        # One 8-byte run at byte 4: element k of the array sits at 8k + 4.
        base = Datatype.hindexed([2], [4], FLOAT)
        t = Datatype.subarray([4], [2], [1], base)
        assert seg_pairs(t) == [(12, 16)]
        assert seg_pairs(t) == seg_pairs(Datatype.hindexed([2], [8], base))

    def test_bounds_validation(self):
        with pytest.raises(DatatypeError):
            Datatype.subarray([4, 4], [3, 3], [2, 2], FLOAT)
        with pytest.raises(DatatypeError):
            Datatype.subarray([4], [0], [0], FLOAT)

    def test_bad_order(self):
        with pytest.raises(DatatypeError):
            Datatype.subarray([4], [2], [0], FLOAT, order="X")


class TestResizedAndCommit:
    def test_resized_changes_extent_only(self):
        t = Datatype.vector(2, 1, 2, FLOAT)
        r = Datatype.resized(t, 0, 64)
        assert r.extent == 64 and r.size == t.size
        assert seg_pairs(r) == seg_pairs(t)

    def test_resized_tiles_with_new_extent(self):
        t = Datatype.resized(FLOAT, 0, 12)
        assert seg_pairs(t, count=3) == [(0, 4), (12, 4), (24, 4)]

    def test_uncommitted_use_raises(self):
        t = Datatype.vector(2, 1, 2, FLOAT)
        assert not t.committed
        with pytest.raises(DatatypeError):
            t.require_committed()
        t.commit()
        t.require_committed()

    def test_commit_returns_self(self):
        t = Datatype.vector(2, 1, 2, FLOAT)
        assert t.commit() is t


class TestSegmentList:
    def test_slice_bytes_middle(self):
        t = Datatype.vector(4, 1, 2, FLOAT)  # 4 segments of 4 bytes
        s = t.segments.slice_bytes(2, 10)
        assert list(zip(s.offsets.tolist(), s.lengths.tolist())) == [
            (2, 2),
            (8, 4),
            (16, 2),
        ]

    def test_slice_bytes_whole(self):
        t = Datatype.vector(4, 1, 2, FLOAT)
        s = t.segments.slice_bytes(0, 16)
        assert s.total_bytes == 16

    def test_slice_bytes_empty(self):
        t = Datatype.vector(4, 1, 2, FLOAT)
        assert t.segments.slice_bytes(5, 5).count == 0

    def test_slice_bytes_out_of_range(self):
        t = Datatype.vector(4, 1, 2, FLOAT)
        with pytest.raises(ValueError):
            t.segments.slice_bytes(0, 17)

    def test_slice_within_single_segment(self):
        t = Datatype.contiguous(16, FLOAT)
        s = t.segments.slice_bytes(8, 24)
        assert list(zip(s.offsets.tolist(), s.lengths.tolist())) == [(8, 16)]

    def test_gather_indices_order(self):
        t = Datatype.hindexed([1, 1], [4, 0], BYTE)  # pack order reversed!
        assert t.segments.word == 1
        assert t.segments.word_indices().tolist() == [4, 0]
        # Two-float runs at 8-byte offsets gather in 8-byte words.
        t = Datatype.hindexed([2, 2], [8, 0], FLOAT)
        assert t.segments.word == 8
        assert t.segments.word_indices().tolist() == [1, 0]

    def test_slices_partition_packed_bytes(self):
        t = Datatype.vector(8, 3, 5, FLOAT)
        total = t.size
        chunks = [(0, 30), (30, 60), (60, total)]
        whole = t.segments
        got = []
        for lo, hi in chunks:
            s = whole.slice_bytes(lo, hi)
            assert s.total_bytes == hi - lo
            got.extend(zip(s.offsets.tolist(), s.lengths.tolist()))
        # Re-concatenated slices must cover the same bytes in order.
        flat = SegmentList(
            np.array([o for o, _ in got], dtype=np.int64),
            np.array([l for _, l in got], dtype=np.int64),
        ).coalesced()
        assert list(zip(flat.offsets.tolist(), flat.lengths.tolist())) == list(
            zip(whole.offsets.tolist(), whole.lengths.tolist())
        )

    def test_uniform_single_segment(self):
        s = SegmentList(np.array([8], np.int64), np.array([16], np.int64))
        assert s.uniform() == (16, 1, 16)

    def test_tiled_negative_count_rejected(self):
        s = SegmentList(np.array([0], np.int64), np.array([4], np.int64))
        with pytest.raises(ValueError):
            s.tiled(-1, 8)

    def test_span(self):
        t = Datatype.vector(3, 1, 4, FLOAT)
        assert t.segments.span() == (0, 2 * 16 + 4)


class TestLargeFlattening:
    def test_million_row_vector_flattens_fast(self):
        """The 4 MB / 4-byte-element vector from the paper's Figure 2."""
        t = Datatype.vector(1 << 20, 1, 2, FLOAT)
        assert t.segments.count == 1 << 20
        assert t.size == 4 << 20
        assert t.uniform_for_count(1) == (4, 1 << 20, 8)

    def test_size_and_extent_consistency(self):
        t = Datatype.vector(1000, 3, 7, DOUBLE)
        assert t.size == 1000 * 3 * 8
        assert t.extent == (999 * 7 + 3) * 8


# ---------------------------------------------------------------------------
# Interned constructors
# ---------------------------------------------------------------------------

#: Bases of the interning property: single-run primitives and a multi-run
#: vector (which constructors place once per element).
BASES = [BYTE, FLOAT, DOUBLE, Datatype.vector(2, 1, 3, INT)]


def base_variants(base):
    """``base``; a resize sharing its SegmentList and size but not its
    extent; a dup sharing all three."""
    return [base, Datatype.resized(base, 0, base.extent + 4),
            Datatype.dup(base)]


C, CF = ("C",), ("C", "F")


@st.composite
def ctor_calls(draw):
    """A random call of a memoized constructor, valid or not, as
    ``(orders, call)``: ``call(base, order)`` makes it over ``base``."""
    kind = draw(st.sampled_from([
        "contiguous", "vector", "hvector", "indexed", "indexed_block",
        "hindexed", "struct", "subarray", "darray",
    ]))
    small = st.integers(0, 4)
    if kind == "contiguous":
        n = draw(small)
        return C, lambda b, o: Datatype.contiguous(n, b)
    if kind == "vector":
        n, bl, stride = draw(small), draw(small), draw(st.integers(-3, 6))
        return C, lambda b, o: Datatype.vector(n, bl, stride, b)
    if kind == "hvector":
        n, bl = draw(st.integers(-1, 4)), draw(small)
        stride = draw(st.integers(-16, 48))
        return C, lambda b, o: Datatype.hvector(n, bl, stride, b)
    if kind in ("indexed", "indexed_block", "hindexed", "struct"):
        blocks = draw(st.lists(
            st.tuples(st.integers(-1, 3), st.integers(-8, 64)), max_size=5))
        bls = [bl for bl, _ in blocks]
        displs = [d for _, d in blocks]
        if kind == "indexed":
            return C, lambda b, o: Datatype.indexed(bls, displs, b)
        if kind == "hindexed":
            return C, lambda b, o: Datatype.hindexed(bls, displs, b)
        if kind == "indexed_block":
            bl = draw(st.integers(-1, 3))
            return C, lambda b, o: Datatype.indexed_block(bl, displs, b)
        # Mixed members: the varied base (None) among fixed primitives.
        members = draw(st.lists(st.sampled_from([None, BYTE, DOUBLE]),
                                min_size=len(blocks), max_size=len(blocks)))
        return C, lambda b, o: Datatype.struct(
            bls, displs, [b if m is None else m for m in members])
    ndim = draw(st.integers(1, 2 if kind == "darray" else 3))
    dims = st.lists(st.integers(1, 5), min_size=ndim, max_size=ndim)
    if kind == "subarray":
        sizes = draw(dims)
        subsizes = [draw(st.integers(1, n + 1)) for n in sizes]
        starts = [draw(st.integers(0, n - 1)) for n in sizes]
        return CF, lambda b, o: Datatype.subarray(
            sizes, subsizes, starts, b, order=o)
    psizes = draw(st.lists(st.integers(1, 3), min_size=ndim, max_size=ndim))
    nprocs = math.prod(psizes)
    rank = draw(st.integers(0, nprocs - 1))
    gsizes = draw(dims)
    distribs = draw(st.lists(
        st.sampled_from([Datatype.DIST_BLOCK, Datatype.DIST_CYCLIC,
                         Datatype.DIST_NONE]), min_size=ndim, max_size=ndim))
    dargs = draw(st.lists(st.one_of(st.none(), st.integers(1, 3)),
                          min_size=ndim, max_size=ndim))
    return CF, lambda b, o: Datatype.darray(
        nprocs, rank, gsizes, distribs, dargs, psizes, b, order=o)


def fields(t):
    """What an interned type shares with the call it repeats."""
    return (t.name, t.size, t.lb, t.extent, str(t.base_np),
            t.segments.offsets.tolist(), t.segments.lengths.tolist())


def state(t):
    return fields(t) + (t.committed, t._canon_entry)


@settings(max_examples=80, deadline=None)
@given(st.lists(ctor_calls(), min_size=1, max_size=3),
       st.sampled_from(BASES))
def test_interning_is_invisible(calls, base):
    """Each call runs over every base variant and order, so the memo sees
    calls that differ in exactly one input; a repeat must equal a cold
    build and stay independent of the instance it repeats."""
    dtir.reset_registry()
    makes = [functools.partial(call, b, order)
             for orders, call in calls
             for b in base_variants(base) for order in orders]
    pairs = []
    for make in makes:
        try:
            first = make()
        except DatatypeError:
            for _ in range(2):  # never memoized, so it raises every time
                with pytest.raises(DatatypeError):
                    make()
            continue
        again = make()
        assert again is not first and again.type_id > first.type_id
        assert not again.committed and again._canon_entry is None
        assert again.segments is first.segments
        assert fields(again) == fields(first)
        pairs.append((make, first, again))

    for _, first, again in pairs:
        untouched = state(again)
        first.commit()
        Datatype.dup(first).commit()
        Datatype.resized(first, first.lb, first.extent + 8).commit()
        assert state(again) == untouched
        untouched = state(first)
        again.commit()
        assert again._entry() is first._entry()
        Datatype.dup(again).commit()
        Datatype.resized(again, again.lb, again.extent + 8).commit()
        assert state(first) == untouched

    for make, first, again in pairs:
        dtir.reset_registry()
        cold = make()
        assert fields(first) == fields(cold)
        assert fields(again) == fields(cold)
