"""Pack/unpack engine tests, including hypothesis round-trips against a
naive reference implementation."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plan import ChunkPlan
from repro.hw import Arena, HardwareConfig, MiB
from repro.mpi.datatype import Datatype, DatatypeError
from repro.mpi.pack import (
    CHECK_ROWS,
    host_pack_time,
    pack_bytes,
    pack_into,
    pack_range_bytes,
    strided_rows_equal,
    unpack_array_into,
    unpack_from,
    unpack_range_from,
)

FLOAT = Datatype.named(np.float32, "FLOAT")
BYTE = Datatype.named(np.uint8, "BYTE")


def make_buf(nbytes, fill=None, space="host"):
    arena = Arena(max(nbytes, 1) + 4096, space=space)
    buf = arena.alloc(max(nbytes, 1))
    if fill is not None:
        buf.view()[: len(fill)] = fill
    return buf


def reference_pack(raw: np.ndarray, dtype: Datatype, count: int) -> np.ndarray:
    """Naive per-segment packing used as the oracle."""
    out = []
    segs = dtype.segments_for_count(count)
    for off, length in zip(segs.offsets.tolist(), segs.lengths.tolist()):
        out.append(raw[off : off + length])
    return np.concatenate(out) if out else np.empty(0, np.uint8)


class TestPackBasics:
    def test_pack_vector_column(self):
        raw = np.arange(64, dtype=np.uint8)
        buf = make_buf(64, raw)
        col = Datatype.vector(4, 1, 4, FLOAT).commit()
        packed = pack_bytes(buf, col, 1)
        assert packed.tolist() == [0, 1, 2, 3, 16, 17, 18, 19, 32, 33, 34, 35, 48, 49, 50, 51]

    def test_pack_contiguous_is_plain_copy(self):
        raw = np.arange(40, dtype=np.uint8)
        buf = make_buf(40, raw)
        t = Datatype.contiguous(10, FLOAT)
        assert np.array_equal(pack_bytes(buf, t, 1), raw)

    def test_pack_respects_typemap_order(self):
        raw = np.arange(8, dtype=np.uint8)
        buf = make_buf(8, raw)
        t = Datatype.hindexed([2, 2], [4, 0], BYTE)  # second block first in memory
        assert pack_bytes(buf, t, 1).tolist() == [4, 5, 0, 1]

    def test_pack_count_gt_one(self):
        raw = np.arange(64, dtype=np.uint8)
        buf = make_buf(64, raw)
        t = Datatype.vector(2, 1, 2, FLOAT)  # extent 12... elements tile
        packed = pack_bytes(buf, t, 2)
        assert np.array_equal(packed, reference_pack(raw, t, 2))

    def test_pack_into_and_unpack_from(self):
        raw = np.arange(64, dtype=np.uint8)
        src = make_buf(64, raw)
        t = Datatype.vector(4, 1, 4, FLOAT)
        staging = make_buf(t.size)
        n = pack_into(src, t, 1, staging)
        assert n == t.size
        dst = make_buf(64)
        consumed = unpack_from(staging, t, 1, dst)
        assert consumed == t.size
        # Unpacked bytes land in the right strided positions; gaps untouched.
        out = dst.view().reshape(4, 16)
        assert np.array_equal(out[:, :4], raw.reshape(4, 16)[:, :4])
        assert (out[:, 4:] == 0).all()

    def test_bounds_violation_rejected(self):
        buf = make_buf(15)
        t = Datatype.contiguous(4, FLOAT)
        with pytest.raises(DatatypeError):
            pack_bytes(buf, t, 1)

    def test_pack_into_small_destination_rejected(self):
        src = make_buf(64)
        t = Datatype.contiguous(16, FLOAT)
        dst = make_buf(8)
        with pytest.raises(DatatypeError):
            pack_into(src, t, 1, dst)

    def test_unpack_short_source_rejected(self):
        src = make_buf(4)
        dst = make_buf(64)
        t = Datatype.contiguous(16, FLOAT)
        with pytest.raises(DatatypeError):
            unpack_from(src, t, 1, dst)

    def test_zero_count_noop(self):
        buf = make_buf(16)
        assert pack_bytes(buf, FLOAT, 0).size == 0


class TestRangePack:
    def test_chunked_pack_equals_whole(self):
        raw = np.random.default_rng(7).integers(0, 256, 256, dtype=np.uint8)
        buf = make_buf(256, raw)
        t = Datatype.vector(8, 2, 4, FLOAT).commit()
        whole = pack_bytes(buf, t, 1)
        parts = [
            pack_range_bytes(buf, t, 1, lo, min(lo + 24, t.size))
            for lo in range(0, t.size, 24)
        ]
        assert np.array_equal(np.concatenate(parts), whole)

    def test_chunked_unpack_equals_whole(self):
        rng = np.random.default_rng(11)
        t = Datatype.vector(8, 2, 4, FLOAT).commit()
        packed = rng.integers(0, 256, t.size, dtype=np.uint8)
        want = make_buf(256)
        unpack_from(make_buf(t.size, packed), t, 1, want)

        got = make_buf(256)
        for lo in range(0, t.size, 24):
            hi = min(lo + 24, t.size)
            chunk = make_buf(hi - lo, packed[lo:hi])
            unpack_range_from(chunk, t, 1, got, lo, hi)
        assert np.array_equal(got.view(), want.view())


class TestPackTiming:
    def test_contiguous_cheaper_than_strided(self):
        cfg = HardwareConfig.fermi_qdr()
        contig = Datatype.contiguous(1 << 16, FLOAT)
        strided = Datatype.vector(1 << 16, 1, 2, FLOAT)
        assert host_pack_time(cfg, contig, 1) < host_pack_time(cfg, strided, 1)

    def test_scales_with_count(self):
        cfg = HardwareConfig.fermi_qdr()
        t = Datatype.vector(64, 1, 2, FLOAT)
        assert host_pack_time(cfg, t, 4) > host_pack_time(cfg, t, 1)


# -- hypothesis strategies -----------------------------------------------------------

primitive = st.sampled_from(
    [Datatype.named(np.uint8), Datatype.named(np.float32), Datatype.named(np.float64)]
)


@st.composite
def derived_datatype(draw, depth=0):
    base = (
        draw(primitive)
        if depth >= 2 or draw(st.booleans())
        else draw(derived_datatype(depth=depth + 1))
    )
    kind = draw(st.sampled_from(["contiguous", "vector", "indexed", "hvector"]))
    if kind == "contiguous":
        return Datatype.contiguous(draw(st.integers(1, 5)), base)
    if kind == "vector":
        count = draw(st.integers(1, 6))
        bl = draw(st.integers(1, 4))
        stride = draw(st.integers(bl, bl + 4))
        return Datatype.vector(count, bl, stride, base)
    if kind == "hvector":
        count = draw(st.integers(1, 6))
        bl = draw(st.integers(1, 3))
        stride = draw(st.integers(bl * base.extent, bl * base.extent + 32))
        return Datatype.hvector(count, bl, stride, base)
    n = draw(st.integers(1, 4))
    bls = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    # Strictly increasing, non-overlapping displacements.
    displs = []
    cur = 0
    for bl in bls:
        cur += draw(st.integers(0, 3))
        displs.append(cur)
        cur += bl
    return Datatype.indexed(bls, displs, base)


@settings(max_examples=80, deadline=None)
@given(derived_datatype(), st.integers(1, 3), st.randoms())
def test_pack_matches_reference_oracle(dtype, count, rnd):
    span = dtype.span_for_count(count)
    raw = np.frombuffer(
        bytes(rnd.getrandbits(8) for _ in range(span)), dtype=np.uint8
    ).copy() if span else np.empty(0, np.uint8)
    buf = make_buf(max(span, 1), raw)
    packed = pack_bytes(buf, dtype, count)
    assert packed.nbytes == dtype.size * count
    assert np.array_equal(packed, reference_pack(buf.view(), dtype, count))


@settings(max_examples=80, deadline=None)
@given(derived_datatype(), st.integers(1, 3))
def test_pack_unpack_roundtrip(dtype, count):
    """unpack(pack(x)) restores exactly the bytes the type covers."""
    span = dtype.span_for_count(count)
    rng = np.random.default_rng(dtype.size * 31 + count)
    raw = rng.integers(0, 256, max(span, 1), dtype=np.uint8)
    src = make_buf(max(span, 1), raw)
    packed = pack_bytes(src, dtype, count)

    dst = make_buf(max(span, 1))
    staging = make_buf(max(packed.nbytes, 1), packed)
    unpack_from(staging, dtype, count, dst)
    repacked = pack_bytes(dst, dtype, count)
    assert np.array_equal(repacked, packed)


@settings(max_examples=60, deadline=None)
@given(derived_datatype(), st.integers(1, 2), st.integers(1, 64))
def test_chunked_pack_matches_whole_pack(dtype, count, chunk):
    span = dtype.span_for_count(count)
    rng = np.random.default_rng(span + chunk)
    raw = rng.integers(0, 256, max(span, 1), dtype=np.uint8)
    buf = make_buf(max(span, 1), raw)
    whole = pack_bytes(buf, dtype, count)
    total = dtype.size * count
    parts = [
        pack_range_bytes(buf, dtype, count, lo, min(lo + chunk, total))
        for lo in range(0, total, chunk)
    ]
    got = np.concatenate(parts) if parts else np.empty(0, np.uint8)
    assert np.array_equal(got, whole)


# -- every entry point against a per-segment slice oracle ------------------------

WORD_PRIMS = [BYTE, Datatype.named(np.int16, "INT16"), FLOAT,
              Datatype.named(np.float64, "DOUBLE")]


@st.composite
def placed_layout(draw):
    """``(dtype, runs)``: an ``hindexed`` or ``struct`` of primitives and its
    byte runs ``(offset, nbytes)`` in pack order.

    Blocks sit at every byte alignment, never overlap and are packed in a
    shuffled order; zero-length blocks and empty layouts are included.
    """
    n = draw(st.integers(0, 6))
    struct = draw(st.booleans())
    base = draw(st.sampled_from(WORD_PRIMS))
    types = [draw(st.sampled_from(WORD_PRIMS)) if struct else base
             for _ in range(n)]
    blocks = [draw(st.integers(0, 4)) for _ in range(n)]
    displs, cur = [], draw(st.integers(0, 7))
    for t, b in zip(types, blocks):
        displs.append(cur)
        cur += b * t.size + draw(st.integers(0, 9))
    order = draw(st.permutations(range(n)))
    blocks = [blocks[i] for i in order]
    displs = [displs[i] for i in order]
    types = [types[i] for i in order]
    if struct:
        dtype = Datatype.struct(blocks, displs, types)
    else:
        dtype = Datatype.hindexed(blocks, displs, base)
    runs = [(d, b * t.size) for d, b, t in zip(displs, blocks, types)]
    return dtype, runs


def slice_gather(raw, runs, lo, hi):
    """Packed bytes ``[lo, hi)`` of ``raw``, one slice per run."""
    out, pos = [], 0
    for off, n in runs:
        a, b = max(lo, pos), min(hi, pos + n)
        if a < b:
            out.append(raw[off + a - pos: off + b - pos])
        pos += n
    return np.concatenate(out) if out else np.empty(0, np.uint8)


def slice_scatter(raw, runs, data, lo):
    """Write ``data`` (packed bytes ``[lo, lo + len)``) into ``raw``."""
    hi, pos = lo + data.nbytes, 0
    for off, n in runs:
        a, b = max(lo, pos), min(hi, pos + n)
        if a < b:
            raw[off + a - pos: off + b - pos] = data[a - lo: b - lo]
        pos += n


@settings(max_examples=200, deadline=None)
@given(placed_layout(), st.integers(1, 2), st.integers(0, 7), st.data())
def test_every_entry_point_matches_slice_oracle(layout, count, base, data):
    """Each gather equals a slice loop and each scatter writes exactly the
    bytes a slice loop writes, at any buffer alignment and byte range."""
    dtype, runs = layout
    runs = [(off + k * dtype.extent, n) for k in range(count) for off, n in runs]
    total = dtype.size * count
    lo = data.draw(st.integers(0, total), label="lo")
    hi = data.draw(st.integers(lo, total), label="hi")
    span = dtype.span_for_count(count)
    rng = np.random.default_rng(total * 97 + span * 8 + base)

    arena = Arena(span + 264, "host", "oracle")
    arena.raw[:] = rng.integers(0, 256, arena.size, dtype=np.uint8)
    buf = arena.alloc(span + 8).sub(base, span)
    raw = buf.view()
    before = arena.raw.copy()
    packed = slice_gather(raw, runs, 0, total)
    want = packed[lo:hi]

    assert np.array_equal(pack_bytes(buf, dtype, count), packed)
    assert np.array_equal(pack_range_bytes(buf, dtype, count, lo, hi), want)
    out = np.full(hi - lo + 8, 0xA5, np.uint8)
    chunk = ChunkPlan(0, lo, hi, dtype.segments_for_range(count, lo, hi))
    chunk.gather_into(buf, out)
    assert np.array_equal(out[: hi - lo], want)
    assert (out[hi - lo:] == 0xA5).all()
    assert np.array_equal(arena.raw, before)  # gathers only read

    incoming = rng.integers(0, 256, total + 8, dtype=np.uint8)
    staged = Arena(total + 264, "host", "staged").alloc(total + 8)
    staged.view()[:] = incoming
    scatters = [  # (first packed byte, packed bytes, scatter)
        (0, total, lambda: unpack_from(staged, dtype, count, buf)),
        (lo, hi - lo,
         lambda: unpack_range_from(staged, dtype, count, buf, lo, hi)),
        (lo, hi - lo,
         lambda: unpack_array_into(incoming[: hi - lo], dtype, count, buf, lo)),
        (lo, hi - lo, lambda: chunk.scatter_from(incoming, buf)),
    ]
    for first, length, scatter in scatters:
        arena.raw[:] = before
        scatter()
        expected = before.copy()
        slice_scatter(expected[buf.offset: buf.end], runs,
                      incoming[:length], first)
        assert np.array_equal(arena.raw, expected)


# -- the delivered-data check ------------------------------------------------------


def plain_rows_equal(raw: np.ndarray, pattern: np.ndarray, width: int,
                     pitch: int, height: int) -> bool:
    """``strided_rows_equal``'s oracle: both sides padded to whole pitches,
    cut into rows and compared column by column."""
    span = (height - 1) * pitch + width
    sides = []
    for side in (raw, pattern):
        rows = np.zeros(height * pitch, np.uint8)
        rows[:span] = side[:span]
        sides.append(rows.reshape(height, pitch)[:, :width])
    return bool(np.array_equal(*sides))


def checked_rows(width: int, pitch: int, height: int, offset: int, seed: int):
    """``(buf, pattern)``: ``height`` rows of ``width`` payload bytes at
    ``pitch`` in a buffer ``offset`` bytes into its allocation, equal to
    ``pattern`` in the payload columns and unequal in every gap byte."""
    span = (height - 1) * pitch + width
    rng = np.random.default_rng(seed)
    pattern = rng.integers(0, 256, span + pitch, dtype=np.uint8)
    buf = Arena(offset + span + 512, "device").alloc(offset + span).sub(offset)
    raw = buf.view()
    raw[:] = ~pattern[:span]
    rows = np.lib.stride_tricks.as_strided(
        raw, shape=(height, width), strides=(pitch, 1))
    rows[:] = np.lib.stride_tricks.as_strided(
        pattern, shape=(height, width), strides=(pitch, 1))
    return buf, pattern


#: Rows the property draws: one and two, and each side of one and two
#: block boundaries.
CHECK_HEIGHTS = [1, 2, CHECK_ROWS - 1, CHECK_ROWS, CHECK_ROWS + 1,
                 2 * CHECK_ROWS + 1]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2, 3, 4, 8, 12]), st.booleans(),
       st.integers(0, 5), st.sampled_from(CHECK_HEIGHTS), st.integers(0, 9),
       st.data())
def test_strided_rows_equal_matches_plain_comparison(
        width, aligned, extra, height, offset, data):
    """The blocked check reads what a plain comparison of the payload
    columns reads, whether or not the rows widen to a machine word (width
    1/2/4/8 at a word-aligned pitch and buffer offset) and wherever one
    payload byte differs."""
    pitch = width * (1 + extra) if aligned else width + 1 + extra
    buf, pattern = checked_rows(width, pitch, height, offset,
                                seed=width * 1009 + pitch * 31 + height)
    flip = data.draw(st.none() | st.integers(0, height - 1), label="row")
    if flip is not None:
        col = data.draw(st.integers(0, width - 1), label="col")
        buf.view()[flip * pitch + col] ^= data.draw(st.integers(1, 255))
    want = plain_rows_equal(buf.view(), pattern, width, pitch, height)
    assert want == (flip is None)
    assert strided_rows_equal(buf, pattern, width, pitch, height) == want


@pytest.mark.parametrize("width, pitch", [(4, 8), (3, 8)])
@pytest.mark.parametrize("row", [0, CHECK_ROWS - 1, CHECK_ROWS,
                                 2 * CHECK_ROWS])
def test_strided_rows_equal_catches_one_flipped_byte(width, pitch, row):
    """One flipped payload byte fails the check in the first row, on
    either side of a block boundary and in the last row, through the
    widened view (width 4) and the byte view (width 3)."""
    height = 2 * CHECK_ROWS + 1
    buf, pattern = checked_rows(width, pitch, height, 0, seed=row)
    assert strided_rows_equal(buf, pattern, width, pitch, height)
    buf.view()[row * pitch + width - 1] ^= 0x80
    assert not strided_rows_equal(buf, pattern, width, pitch, height)


def test_strided_rows_equal_rejects_a_short_pattern():
    """A pattern shorter than the rows' span is an error, not a read past
    its end."""
    buf, pattern = checked_rows(3, 8, 100, 0, seed=3)
    with pytest.raises(ValueError, match="shorter"):
        strided_rows_equal(buf, pattern[:16], 3, 8, 100)
    assert strided_rows_equal(buf, pattern[:99 * 8 + 3], 3, 8, 100)


#: Tracemalloc peak of checking the Fig. 5 vector (9.00 MiB while the
#: check copied the widened payload and the pattern whole).
CHECK_CEILING = 1 * MiB


def test_fig5_check_traced_peak_within_ceiling():
    """Checking the Fig. 5 4 MiB vector (a million 4-byte rows at an
    8-byte pitch) makes no full-size copy of either side."""
    rows = 1 << 20
    buf, pattern = checked_rows(4, 8, rows, 0, seed=5)
    strided_rows_equal(buf, pattern, 4, 8, 16)  # lazy imports
    tracemalloc.start()
    try:
        equal = strided_rows_equal(buf, pattern, 4, 8, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert equal
    assert peak <= CHECK_CEILING, (
        f"checking the Fig. 5 vector peaked at {peak / MiB:.2f} MiB, "
        f"ceiling {CHECK_CEILING / MiB:.2f} MiB"
    )
