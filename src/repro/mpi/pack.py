"""Functional pack/unpack of datatypes plus the host-CPU cost model.

This is the datatype-processing engine an MPI library runs on the host CPU
(Ross et al. style), i.e. the thing the paper *offloads to the GPU*. The
functional half really moves bytes; the timing half charges
:meth:`HardwareConfig.host_pack_time`.

Every functional pack and unpack in the simulator -- these entry points,
the compiled plans' chunk replay (:mod:`repro.core.plan`) and the backends
-- moves its bytes through one gather kernel, :func:`gather_into`, and one
scatter kernel, :func:`scatter_from`. Each takes one of three copies, chosen
once per layout (:meth:`SegmentList.word_view`):

* a uniform layout is one strided 2-D copy of machine words, the word being
  the widest of 8/4/2/1 bytes that divides every offset and length of the
  layout (:attr:`SegmentList.word`);
* a layout whose runs are long on average (at least
  :data:`~repro.mpi.datatype.RUN_COPY_WORDS` words) is copied run by run,
  one memoryview slice assignment per run from the run and packed slices
  memoized on the layout, and keeps no word index;
* any other is one ``np.take`` (or fancy assignment) over a word view of
  the buffer with the layout's memoized word indices.

Every copy checks the layout's span against the buffer and the packed
side's size against the layout.
"""

from __future__ import annotations

import numpy as np

from ..hw.config import HardwareConfig
from ..hw.memory import WORDS, BufferPtr, wide_rows
from ..perf.stats import PERF
from .datatype import Datatype, DatatypeError, SegmentList

__all__ = [
    "gather_into",
    "scatter_from",
    "pack_bytes",
    "pack_into",
    "unpack_from",
    "pack_range_bytes",
    "unpack_range_from",
    "unpack_array_into",
    "strided_rows_equal",
    "host_pack_time",
    "host_pack_range_time",
    "check_buffer_bounds",
]


def check_buffer_bounds(buf: BufferPtr, dtype: Datatype, count: int) -> None:
    """Raise when ``count`` elements of ``dtype`` do not fit in ``buf``.

    Unlike C MPI (where negative displacements may legally reach memory
    before the buffer pointer), the simulator requires the whole access
    pattern to stay inside the buffer allocation.
    """
    if count == 0:
        return
    lo, hi = dtype.segments_for_count(count).span()
    if lo < 0 or hi > buf.nbytes:
        raise DatatypeError(
            f"{count} x {dtype.name} spans [{lo}, {hi}) bytes but buffer "
            f"holds [0, {buf.nbytes})"
        )


def _outside(lo: int, hi: int, buf: BufferPtr) -> DatatypeError:
    """The error for a layout spanning ``[lo, hi)`` outside ``buf``."""
    return DatatypeError(
        f"layout spans [{lo}, {hi}) bytes but buffer holds [0, {buf.nbytes})"
    )


def gather_into(buf: BufferPtr, segs: SegmentList, out: np.ndarray) -> None:
    """Copy the bytes ``segs`` covers in ``buf``, in pack order, into the
    contiguous bytes ``out[:n]``.

    The one gather kernel every functional pack runs, along the copy
    :meth:`SegmentList.word_view` chose for the layout: one strided 2-D
    copy of words for a uniform layout, one slice copy per run for a
    layout of long runs, one ``np.take`` over the memoized word indices
    for any other. ``out`` must be a C-contiguous array; its first ``n``
    bytes are viewed as words (or bytes) in one ``np.ndarray`` call.
    Raises :class:`DatatypeError` when the layout reaches outside ``buf``
    and ``ValueError`` when ``out`` is shorter than the layout.
    """
    lo, hi, w, start, shape, strides, runs = segs.word_view()
    if lo < 0 or hi > buf.nbytes:
        raise _outside(lo, hi, buf)
    nbytes = segs.total_bytes
    _check_packed(out, nbytes, "gather")
    dt = WORDS[w]
    if strides is not None:
        PERF.bump("gather_2d")
        np.copyto(np.ndarray(shape, dt, out),
                  np.ndarray(shape, dt, buf.arena.raw, buf.offset + start,
                             strides))
    elif runs is None:
        PERF.bump("gather_vec")
        index = segs.word_indices()
        np.take(np.ndarray(shape, dt, buf.arena.raw, buf.offset), index,
                out=np.ndarray(index.shape, dt, out))
    else:
        PERF.bump("gather_runs")
        src = memoryview(buf.arena.raw)[buf.offset + start:buf.offset + hi]
        dst = memoryview(np.ndarray(nbytes, np.uint8, out))
        for run, packed in zip(*runs):
            dst[packed] = src[run]


def scatter_from(data: np.ndarray, segs: SegmentList, buf: BufferPtr) -> None:
    """Copy the contiguous bytes ``data[:n]`` into the bytes ``segs`` covers
    in ``buf``: the one scatter kernel, the inverse of :func:`gather_into`,
    along the same copy and with the same checks."""
    nbytes = segs.total_bytes
    _check_packed(data, nbytes, "scatter")
    lo, hi, w, start, shape, strides, runs = segs.word_view()
    if lo < 0 or hi > buf.nbytes:
        raise _outside(lo, hi, buf)
    dt = WORDS[w]
    if strides is not None:
        PERF.bump("scatter_2d")
        np.copyto(np.ndarray(shape, dt, buf.arena.raw, buf.offset + start,
                             strides),
                  np.ndarray(shape, dt, data))
    elif runs is None:
        PERF.bump("scatter_vec")
        index = segs.word_indices()
        np.ndarray(shape, dt, buf.arena.raw, buf.offset)[index] = (
            np.ndarray(index.shape, dt, data))
    else:
        PERF.bump("scatter_runs")
        dst = memoryview(buf.arena.raw)[buf.offset + start:buf.offset + hi]
        src = memoryview(np.ndarray(nbytes, np.uint8, data))
        for run, packed in zip(*runs):
            dst[run] = src[packed]


def _check_packed(packed: np.ndarray, nbytes: int, kernel: str) -> None:
    """Raise when the packed side holds fewer than the layout's bytes."""
    if packed.nbytes < nbytes:
        raise ValueError(
            f"{kernel} size mismatch: {packed.nbytes} bytes for "
            f"{nbytes}-byte layout"
        )


def pack_bytes(buf: BufferPtr, dtype: Datatype, count: int) -> np.ndarray:
    """Pack ``count`` elements of ``dtype`` from ``buf`` into a byte array."""
    check_buffer_bounds(buf, dtype, count)
    segs = dtype.segments_for_count(count)
    out = np.empty(segs.total_bytes, np.uint8)
    gather_into(buf, segs, out)
    return out


def pack_into(
    src: BufferPtr, dtype: Datatype, count: int, dst: BufferPtr
) -> int:
    """Pack into a contiguous destination buffer; returns packed bytes."""
    data = pack_bytes(src, dtype, count)
    if data.nbytes > dst.nbytes:
        raise DatatypeError(
            f"packed size {data.nbytes} exceeds destination of {dst.nbytes}"
        )
    dst.view()[: data.nbytes] = data
    return data.nbytes


def unpack_from(
    src: BufferPtr, dtype: Datatype, count: int, dst: BufferPtr
) -> int:
    """Unpack contiguous bytes from ``src`` into ``dst`` laid out as
    ``count`` elements of ``dtype``; returns consumed bytes."""
    check_buffer_bounds(dst, dtype, count)
    segs = dtype.segments_for_count(count)
    nbytes = segs.total_bytes
    if nbytes > src.nbytes:
        raise DatatypeError(
            f"unpack needs {nbytes} bytes but source holds {src.nbytes}"
        )
    scatter_from(src.view(), segs, dst)
    return nbytes


def pack_range_bytes(
    buf: BufferPtr, dtype: Datatype, count: int, lo: int, hi: int
) -> np.ndarray:
    """Pack only packed-byte range ``[lo, hi)`` -- the chunking primitive."""
    check_buffer_bounds(buf, dtype, count)
    segs = dtype.segments_for_range(count, lo, hi)
    out = np.empty(segs.total_bytes, np.uint8)
    gather_into(buf, segs, out)
    return out


def unpack_range_from(
    src: BufferPtr, dtype: Datatype, count: int, dst: BufferPtr, lo: int, hi: int
) -> None:
    """Unpack ``src`` (holding packed bytes [lo, hi)) into its place."""
    check_buffer_bounds(dst, dtype, count)
    scatter_from(src.view(), dtype.segments_for_range(count, lo, hi), dst)


def unpack_array_into(
    data: np.ndarray, dtype: Datatype, count: int, dst: BufferPtr, lo: int = 0
) -> None:
    """Scatter a NumPy byte array holding packed bytes ``[lo, lo+len)``.

    Convenience for eager delivery, where the payload travels as an array
    rather than as simulated staging memory.
    """
    check_buffer_bounds(dst, dtype, count)
    scatter_from(data, dtype.segments_for_range(count, lo, lo + data.nbytes), dst)


#: Rows :func:`strided_rows_equal` compares at a time.
CHECK_ROWS = 1 << 16


def strided_rows_equal(
    buf: BufferPtr, pattern: np.ndarray, width: int, pitch: int, height: int
) -> bool:
    """Do ``buf``'s payload columns equal ``pattern``'s?

    Compares ``height`` rows of ``width`` payload bytes at row stride
    ``pitch`` (the delivered-data check of the latency baselines) against
    the same columns of the contiguous ``pattern`` bytes. Rows that widen
    to a machine element are compared one element per row instead of
    byte by byte. Both sides stay strided views: the comparison runs
    :data:`CHECK_ROWS` rows at a time and stops at the first unequal
    block, so it copies no payload and its transient is one boolean per
    element of a block (64 KiB for the Fig. 5 vector).
    """
    if height <= 0 or width <= 0:
        return True
    span = (height - 1) * pitch + width
    flat = np.ascontiguousarray(pattern).reshape(-1).view(np.uint8)
    if flat.nbytes < span:
        raise ValueError(
            f"pattern of {flat.nbytes} bytes is shorter than the "
            f"{span}-byte rows it is checked against"
        )
    w = wide_rows(buf.arena, buf.offset, pitch, width, height)
    if w is not None:
        got = w
        want = np.lib.stride_tricks.as_strided(
            flat[:span].view(w.dtype), shape=(height,), strides=(pitch,)
        )
    else:
        got = buf.arena.strided_view(buf.offset, pitch, width, height)
        want = np.lib.stride_tricks.as_strided(
            flat[:span], shape=(height, width), strides=(pitch, 1)
        )
    return all(
        np.array_equal(got[lo:lo + CHECK_ROWS], want[lo:lo + CHECK_ROWS])
        for lo in range(0, height, CHECK_ROWS)
    )


def host_pack_time(cfg: HardwareConfig, dtype: Datatype, count: int) -> float:
    """CPU time to pack/unpack ``count`` elements of ``dtype``.

    Contiguous types cost a plain host memcpy; strided types pay the
    per-segment surcharge that makes host-side datatype processing the
    bottleneck the paper identifies.
    """
    segs = dtype.segments_for_count(count)
    nbytes = segs.total_bytes
    if dtype.is_contiguous or segs.count <= 1:
        return nbytes / cfg.host_memcpy_bandwidth
    return cfg.host_pack_time(segs.count, nbytes)


def host_pack_range_time(
    cfg: HardwareConfig, dtype: Datatype, count: int, lo: int, hi: int
) -> float:
    """CPU time to pack/unpack only packed-byte range ``[lo, hi)``."""
    segs = dtype.segments_for_count(count)
    if dtype.is_contiguous or segs.count <= 1:
        return (hi - lo) / cfg.host_memcpy_bandwidth
    part = dtype.segments_for_range(count, lo, hi)
    return cfg.host_pack_time(part.count, part.total_bytes)
