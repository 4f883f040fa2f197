"""MPI derived datatypes: the full constructor algebra plus flattening.

Implements the datatype machinery of MPI 2.2 that the paper's code paths
need, from scratch:

* primitives (``MPI_FLOAT``-style named types),
* ``Type_contiguous``, ``Type_vector``, ``Type_create_hvector``,
  ``Type_indexed``, ``Type_create_hindexed``,
  ``Type_create_indexed_block``, ``Type_create_struct``,
  ``Type_create_subarray``, ``Type_create_darray``, ``Type_dup`` and
  ``Type_create_resized``,
* commit semantics (communication requires a committed type),
* **flattening** to contiguous byte segments in one NumPy pass per
  constructor, with no per-block Python loop: each constructor computes
  the byte start of every base element (``np.repeat``/``cumsum``) and
  :meth:`SegmentList.placed` lays the base's runs at all of them at once,
  or, for a base that is one run as long as its extent, emits one run per
  block. Cost grows with array length, not interpreter iterations, so a
  12 288-block ``hindexed`` flattens in milliseconds, and a vector of
  one-run blocks keeps four integers (:meth:`SegmentList.strided`), a
  million rows or two; a construction that repeats an earlier one reuses
  its flattening (the constructors are interned, see
  ``Datatype._intern``),
* detection of *uniform* layouts -- ``(width, height, pitch)`` -- which is
  what lets the GPU offload path express pack/unpack as a single
  ``cudaMemcpy2D`` instead of a general gather kernel (Section IV-A).

A flattened type is a :class:`SegmentList`: byte offsets + lengths in
*typemap order* (MPI pack order), with adjacent runs coalesced -- or, for
one strided run, its first offset, width, count and pitch.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..perf.stats import PERF
from . import dtir

__all__ = ["Datatype", "SegmentList", "DatatypeError"]


class _Unset:
    """The type of :data:`_UNSET`: pickles by name, so an unpickled
    :class:`SegmentList` still reads its unset memo slots as unset."""

    __slots__ = ()

    def __reduce__(self) -> str:
        return "_UNSET"


#: Sentinel distinguishing "not yet computed" from a legitimate ``None``
#: result in the :class:`SegmentList` memo slots.
_UNSET = _Unset()

#: Mean run length, in words of :attr:`SegmentList.word`, from which a
#: gather or scatter copies a non-uniform layout run by run instead of
#: through its word index (:meth:`SegmentList.word_view`). Measured hot-cache
#: on a 2-core host, per call: the index path costs 1.0-2.5 ns per word at
#: word sizes 1, 2, 4 and 8, and the run path 0.14-0.19 us per run, so runs
#: win from a mean of roughly 100-150 words. One 64 KiB chunk of 4-byte
#: words, gather / scatter in us, index -> runs, by mean run: 256 B 29 -> 41
#: / 28 -> 41; 512 B 30 -> 22 / 26 -> 24; 1 KiB 30 -> 14 / 30 -> 15; 4 KiB
#: 29 -> 6 / 27 -> 6. In place the gap is wider: at 4-byte words the index
#: path also reads two bytes of cold index per payload byte.
RUN_COPY_WORDS = 128


class DatatypeError(ValueError):
    """Invalid datatype construction or use of an uncommitted type."""


_ids = itertools.count(1)


class SegmentList:
    """Contiguous byte runs of a flattened datatype, in pack order.

    Instances are logically immutable: derived quantities (prefix sums,
    total size, span, uniformity, copy word, word indices, the copy
    geometry of :meth:`word_view`) are memoized on first use, so a cached
    SegmentList amortizes *all* of its analysis across every pack/unpack
    that reuses it. Callers must never mutate the ``offsets``/``lengths``
    arrays in place.

    A list built by :meth:`strided` of two or more runs with ``0 < width
    < pitch`` keeps four integers, :attr:`strided_run`, and no array: its
    count, size, span, uniformity, copy word, coalescing, pitch-continuing
    tilings and run-aligned slices answer from them, and ``offsets``,
    ``lengths`` and ``prefix`` are derived afresh whenever a caller reads
    one. Every other list holds its run arrays.
    """

    __slots__ = ("_offsets", "_lengths", "strided_run", "_prefix", "_total",
                 "_span", "_uniform", "_word", "_index", "_view", "canon_key")

    def __init__(self, offsets: np.ndarray, lengths: np.ndarray):
        if offsets.shape != lengths.shape:
            raise ValueError("offsets and lengths must have the same shape")
        self._offsets = offsets.astype(np.int64, copy=False)
        self._lengths = lengths.astype(np.int64, copy=False)
        #: ``(first, width, count, pitch)`` of the strided form, else None.
        self.strided_run: Optional[Tuple[int, int, int, int]] = None
        self._unset()

    @classmethod
    def strided(cls, first: int, width: int, count: int,
                pitch: int) -> "SegmentList":
        """``count`` runs of ``width`` bytes, ``pitch`` apart from byte
        ``first``: four integers when ``count >= 2`` and ``0 < width <
        pitch``, run arrays otherwise."""
        if not (count >= 2 and 0 < width < pitch):
            return cls(first + np.arange(count, dtype=np.int64) * pitch,
                       np.full(count, width, np.int64))
        out = cls.__new__(cls)
        out._offsets = out._lengths = None
        out.strided_run = (first, width, count, pitch)
        out._unset()
        return out

    def _unset(self) -> None:
        self._prefix: Optional[np.ndarray] = None
        self._total: Optional[int] = None
        self._span: Optional[Tuple[int, int]] = None
        self._uniform = _UNSET
        self._word: Optional[int] = None
        self._index: Optional[np.ndarray] = None
        self._view: Optional[tuple] = None
        #: The canonical registry key :func:`repro.mpi.dtir.register`
        #: recorded for these runs (None until first registered).
        self.canon_key: Optional[tuple] = None

    @property
    def offsets(self) -> np.ndarray:
        """Byte offset of each run in the buffer."""
        run = self.strided_run
        if run is None:
            return self._offsets
        first, _, count, pitch = run
        return first + np.arange(count, dtype=np.int64) * pitch

    @property
    def lengths(self) -> np.ndarray:
        """Byte length of each run."""
        run = self.strided_run
        if run is None:
            return self._lengths
        return np.full(run[2], run[1], np.int64)

    @property
    def count(self) -> int:
        run = self.strided_run
        return int(self._offsets.shape[0]) if run is None else run[2]

    @property
    def total_bytes(self) -> int:
        if self._total is None:
            run = self.strided_run
            self._total = (int(self._lengths.sum()) if run is None
                           else run[1] * run[2])
        return self._total

    @property
    def prefix(self) -> np.ndarray:
        """Exclusive prefix sum of lengths (packed-offset of each segment)."""
        run = self.strided_run
        if run is not None:
            return np.arange(run[2], dtype=np.int64) * run[1]
        if self._prefix is None:
            self._prefix = np.concatenate(
                ([0], np.cumsum(self._lengths)[:-1])
            ).astype(np.int64)
        return self._prefix

    def coalesced(self) -> "SegmentList":
        """Merge runs that are adjacent both in memory and in pack order."""
        if self.strided_run is not None or self.count <= 1:
            # A strided list's runs never touch: width < pitch.
            return self
        offs, lens = self._offsets, self._lengths
        # joinable[i] is True when segment i+1 continues segment i.
        joinable = offs[1:] == offs[:-1] + lens[:-1]
        njoin = int(np.count_nonzero(joinable))
        if njoin == 0:
            # Nothing adjacent (e.g. any strided vector with a gap): the
            # list is already coalesced. This is the common case, so skip
            # the grouping machinery entirely.
            return self
        if njoin == joinable.shape[0]:
            # Fully contiguous: one run from first start to last end.
            start = int(offs[0])
            end = int(offs[-1] + lens[-1])
            return SegmentList(
                np.array([start], np.int64), np.array([end - start], np.int64)
            )
        # General case. Within a run segments are back-to-back, so each
        # run's length is (end of its last segment) - (its first offset);
        # this avoids the cumsum + ufunc.at of the naive grouping.
        boundaries = np.empty(self.count, dtype=bool)
        boundaries[0] = True
        np.logical_not(joinable, out=boundaries[1:])
        starts_idx = np.flatnonzero(boundaries)
        ends = offs + lens
        last_idx = np.empty(starts_idx.shape[0], dtype=np.int64)
        last_idx[:-1] = starts_idx[1:] - 1
        last_idx[-1] = self.count - 1
        new_offs = offs[starts_idx]
        new_lens = ends[last_idx] - new_offs
        return SegmentList(new_offs, new_lens)

    def placed(self, starts: np.ndarray) -> "SegmentList":
        """The whole list once at each byte offset of ``starts``, in order.

        Uncoalesced: run ``k`` of copy ``i`` lands at ``starts[i] +
        offsets[k]``. Constructors flatten multi-run bases through here.
        """
        offs = (starts[:, None] + self.offsets).ravel()
        lens = np.broadcast_to(self.lengths, (starts.shape[0], self.count)).ravel()
        return SegmentList(offs, lens)

    def tiled(self, count: int, stride_bytes: int) -> "SegmentList":
        """Repeat the whole list ``count`` times at ``stride_bytes`` spacing.

        A strided list whose copies continue its pitch stays strided.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        run = self.strided_run
        if run is not None and (count == 1 or stride_bytes == run[2] * run[3]):
            first, width, n, pitch = run
            return SegmentList.strided(first, width, n * count, pitch)
        return self.placed(np.arange(count, dtype=np.int64) * stride_bytes)

    def slice_bytes(self, lo: int, hi: int) -> "SegmentList":
        """Segments covering packed-byte range ``[lo, hi)``, clipped.

        The returned segments map exactly the packed bytes [lo, hi) back to
        their locations in the unpacked buffer -- the primitive behind
        chunked (pipelined) pack/unpack of arbitrary datatypes. A strided
        list sliced on run boundaries stays strided; sliced inside a run,
        it builds arrays of the runs the range touches.
        """
        total = self.total_bytes
        if not (0 <= lo <= hi <= total):
            raise ValueError(f"range [{lo}, {hi}) outside packed size {total}")
        if lo == 0 and hi == total:
            # Full-range slice: the list itself (and its memoized analysis).
            return self
        if lo == hi:
            return SegmentList(np.empty(0, np.int64), np.empty(0, np.int64))
        run = self.strided_run
        if run is not None:
            first, width, _, pitch = run
            i, head = divmod(lo, width)
            j, tail = divmod(hi, width)
            if not (head or tail):
                return SegmentList.strided(first + i * pitch, width, j - i,
                                           pitch)
            stop = j + (tail > 0)
            offs = first + np.arange(i, stop, dtype=np.int64) * pitch
            lens = np.full(stop - i, width, np.int64)
            offs[0] += head
            lens[0] -= head
            if tail:
                lens[-1] -= width - tail
            return SegmentList(offs, lens)
        prefix = self.prefix
        first = int(np.searchsorted(prefix, lo, side="right")) - 1
        last = int(np.searchsorted(prefix, hi, side="left"))  # exclusive
        offs = self._offsets[first:last].copy()
        lens = self._lengths[first:last].copy()
        pre = prefix[first:last]
        # Clip the first and last segments.
        head_cut = lo - int(pre[0])
        offs[0] += head_cut
        lens[0] -= head_cut
        tail_cut = int(pre[-1]) + int(self._lengths[first:last][-1]) - hi
        if tail_cut > 0:
            lens[-1] -= tail_cut
        return SegmentList(offs, lens)

    def uniform(self) -> Optional[Tuple[int, int, int]]:
        """``(width, height, pitch)`` when the layout is a uniform 2-D
        pattern expressible as one ``cudaMemcpy2D``; otherwise None."""
        if self._uniform is _UNSET:
            self._uniform = self._classify_uniform()
        return self._uniform

    def _classify_uniform(self) -> Optional[Tuple[int, int, int]]:
        # The one classifier: the 2-D-copy fast path, the tuning
        # signatures (tune/signature.py) and the registry key
        # (dtir.layout_key) all read uniform(). One run is a one-row copy;
        # zero-width runs are never uniform.
        run = self.strided_run
        if run is not None:
            _, width, count, pitch = run
            return width, count, pitch
        n = self.count
        if n == 0:
            return None
        width = int(self._lengths[0])
        if n == 1:
            return width, 1, width
        if width > 0 and bool((self._lengths == width).all()):
            deltas = np.diff(self._offsets)
            pitch = int(deltas[0])
            if pitch > width and bool((deltas == pitch).all()):
                return width, n, pitch
        return None

    @property
    def word(self) -> int:
        """Bytes per copy unit: the widest of 8, 4, 2 and 1 that divides
        every offset and length, so gathers and scatters move machine
        words instead of bytes."""
        if self._word is None:
            # The lowest set bit of the OR of all offsets and lengths is
            # the largest power of two dividing every one of them. Offsets
            # ``first + k * pitch`` (k = 0, 1, ...) OR to the lowest set
            # bit of ``first | pitch``.
            run = self.strided_run
            if run is None:
                bits = (int(np.bitwise_or.reduce(self._offsets))
                        | int(np.bitwise_or.reduce(self._lengths)))
            else:
                first, width, _, pitch = run
                bits = first | width | pitch
            self._word = min(8, bits & -bits) if bits else 8
        return self._word

    def word_indices(self) -> np.ndarray:
        """Buffer word of each packed word, in pack order (general gather).

        Words are :attr:`word` bytes wide, so packed bytes ``[k*w,
        (k+1)*w)`` are word ``index[k]`` of the buffer viewed as ``w``-byte
        words and the index costs ``8 / w`` bytes per payload byte.
        Memoized: built once per SegmentList and reused, turning every
        later gather/scatter over this layout into a single NumPy
        fancy-indexing operation with zero setup.
        """
        if self._index is not None:
            PERF.bump("index_reuse")
            return self._index
        PERF.bump("index_build")
        w = self.word
        # Run-length expansion: packed word k of run i, which starts at
        # packed word prefix[i], is buffer word offsets[i] + k - prefix[i].
        self._index = np.repeat(
            (self.offsets - self.prefix) // w, self.lengths // w
        ) + np.arange(self.total_bytes // w, dtype=np.int64)
        return self._index

    def span(self) -> Tuple[int, int]:
        """``(min_offset, max_end)`` over all segments (0,0 when empty)."""
        if self._span is None:
            run = self.strided_run
            if run is not None:
                first, width, count, pitch = run
                self._span = (first, first + (count - 1) * pitch + width)
            elif self.count == 0:
                self._span = (0, 0)
            else:
                self._span = (
                    int(self._offsets.min()),
                    int((self._offsets + self._lengths).max()),
                )
        return self._span

    def word_view(self) -> Tuple[int, int, int, int, Optional[tuple],
                                 Optional[tuple], Optional[tuple]]:
        """``(lo, hi, word, start, shape, strides, runs)``: how a gather or
        scatter reaches the buffer bytes this layout covers.

        ``[lo, hi)`` is :meth:`span` and ``word`` is :attr:`word`. Exactly
        one of three copies fits the layout, decided here once:

        * a uniform layout is one ``(rows, words per row)`` word view from
          byte ``start`` = ``lo``, with byte ``strides`` ``(pitch, word)``;
        * a layout whose runs hold at least :data:`RUN_COPY_WORDS` words on
          average is copied run by run: ``runs`` holds, per run, its slice
          of the buffer bytes from ``start`` = ``lo`` and its slice of the
          packed bytes, as two tuples (``shape`` and ``strides`` None);
        * any other is the flat word view of the buffer's first ``hi``
          bytes (``start`` 0, ``strides`` and ``runs`` None), which
          :meth:`word_indices` addresses.

        Memoized, so a kernel builds its views in one call each.
        """
        view = self._view
        if view is None:
            lo, hi = self.span()
            w = self.word
            n = self.count
            uniform = self.uniform()
            if uniform is not None:
                width, height, pitch = uniform
                view = (lo, hi, w, lo, (height, width // w), (pitch, w), None)
            elif n and self.total_bytes >= RUN_COPY_WORDS * w * n:
                view = (lo, hi, w, lo, None, None, self._run_slices(lo))
            else:
                view = (lo, hi, w, 0, (hi // w,), None, None)
            self._view = view
        return view

    def _run_slices(self, lo: int) -> Tuple[tuple, tuple]:
        """``(spans, packed)``: per run, the slice of its bytes counted
        from buffer byte ``lo``, and the slice of its packed bytes."""
        spans, packed = [], []
        start = 0
        for off, n in zip((self._offsets - lo).tolist(),
                          self._lengths.tolist()):
            end = start + n
            spans.append(slice(off, off + n))
            packed.append(slice(start, end))
            start = end
        return tuple(spans), tuple(packed)


class Datatype:
    """An immutable MPI datatype descriptor.

    Construct primitives via :meth:`named` (or use the ready-made constants
    in :mod:`repro.mpi`), and derived types via the classmethod factories
    that mirror the MPI standard. A type must be :meth:`commit`-ted before
    being used in communication, exactly as in MPI.
    """

    __slots__ = (
        "name",
        "size",
        "lb",
        "extent",
        "_segments",
        "_committed",
        "type_id",
        "base_np",
        "_canon_entry",
    )

    def __init__(
        self,
        name: str,
        size: int,
        lb: int,
        extent: int,
        segments: SegmentList,
        base_np: Optional[np.dtype] = None,
    ):
        if size < 0:
            raise DatatypeError(f"negative size {size}")
        if extent < 0:
            raise DatatypeError(
                f"negative extent {extent}: decreasing layouts must be "
                "wrapped with Type_create_resized"
            )
        self.name = name
        self.size = size
        self.lb = lb
        self.extent = extent
        self._segments = segments
        self._committed = False
        self.type_id = next(_ids)
        self.base_np = base_np
        #: Canonical-registry entry (None = not bound yet; see
        #: :meth:`_entry`).
        self._canon_entry = None

    # -- primitives --------------------------------------------------------------
    @classmethod
    def named(cls, np_dtype, name: Optional[str] = None) -> "Datatype":
        """A primitive type backed by a NumPy dtype (committed on creation)."""
        dt = np.dtype(np_dtype)
        size = dt.itemsize
        segs = SegmentList(np.array([0], np.int64), np.array([size], np.int64))
        out = cls(name or dt.name.upper(), size, 0, size, segs, base_np=dt)
        out._committed = True
        return out

    # -- derived-type factories ---------------------------------------------------
    # hvector, hindexed, struct, subarray and darray (and contiguous,
    # vector, indexed and indexed_block through them) are interned: a call
    # whose key -- every argument, plus each base type's SegmentList
    # object, size, extent and base dtype -- repeats an earlier call's
    # returns a new, uncommitted type over that call's SegmentList, so it
    # skips the flatten here and the registry key at commit.
    @classmethod
    def _interned(cls, key: tuple) -> Optional["Datatype"]:
        """A new type with the fields an earlier call with ``key`` built."""
        fields = dtir.interned(key)
        return None if fields is None else cls(*fields)

    @classmethod
    def _intern(cls, key: tuple, *fields) -> "Datatype":
        """A new type with ``fields``, remembered under ``key``."""
        out = cls(*fields)
        dtir.intern(key, fields)
        return out

    @classmethod
    def contiguous(cls, count: int, base: "Datatype") -> "Datatype":
        """``MPI_Type_contiguous``."""
        return cls.hvector(count, 1, base.extent, base, name=f"contig({count})")

    @classmethod
    def vector(
        cls, count: int, blocklength: int, stride: int, base: "Datatype"
    ) -> "Datatype":
        """``MPI_Type_vector``: stride counted in elements of ``base``."""
        return cls.hvector(
            count,
            blocklength,
            stride * base.extent,
            base,
            name=f"vector({count},{blocklength},{stride})",
        )

    @classmethod
    def hvector(
        cls,
        count: int,
        blocklength: int,
        stride_bytes: int,
        base: "Datatype",
        name: Optional[str] = None,
    ) -> "Datatype":
        """``MPI_Type_create_hvector``: stride counted in bytes."""
        if count < 0 or blocklength < 0:
            raise DatatypeError("count and blocklength must be non-negative")
        name = name or f"hvector({count},{blocklength},{stride_bytes})"
        key = ("hvector", name, count, blocklength, stride_bytes,
               *_base_key(base))
        out = cls._interned(key)
        if out is not None:
            return out
        block = base.segments.tiled(blocklength, base.extent).coalesced()
        if block.count == 1 and count > 0:
            # Single-run block (every contiguous base): the tiling is
            # analytically coalesced -- runs join exactly when the stride
            # equals the run length -- and a wider stride is the strided
            # form, four integers however many rows.
            off0 = int(block.offsets[0])
            run = int(block.lengths[0])
            if stride_bytes == run:
                segs = SegmentList(
                    np.array([off0], np.int64),
                    np.array([count * run], np.int64),
                )
            else:
                segs = SegmentList.strided(off0, run, count, stride_bytes)
        else:
            segs = block.tiled(count, stride_bytes).coalesced()
        size = base.size * blocklength * count
        lo, hi = segs.span()
        if count == 0 or blocklength == 0:
            lo = hi = 0
        return cls._intern(key, name, size, lo, hi - lo, segs, base.base_np)

    @classmethod
    def indexed(
        cls,
        blocklengths: Sequence[int],
        displacements: Sequence[int],
        base: "Datatype",
    ) -> "Datatype":
        """``MPI_Type_indexed``: displacements in elements of ``base``."""
        displs = np.asarray(displacements, dtype=np.int64) * base.extent
        return cls.hindexed(blocklengths, displs, base, name="indexed")

    @classmethod
    def hindexed(
        cls,
        blocklengths: Sequence[int],
        byte_displacements: Sequence[int],
        base: "Datatype",
        name: Optional[str] = None,
    ) -> "Datatype":
        """``MPI_Type_create_hindexed``: displacements in bytes."""
        if len(blocklengths) != len(byte_displacements):
            raise DatatypeError("blocklengths and displacements length mismatch")
        bls = _blocklengths(blocklengths)
        displs = np.asarray(byte_displacements, dtype=np.int64)
        name = name or "hindexed"
        key = ("hindexed", name, _array_key(bls), _array_key(displs),
               *_base_key(base))
        out = cls._interned(key)
        if out is not None:
            return out
        segs = _flatten_blocks(base, bls, displs).coalesced()
        size = base.size * int(bls.sum())
        lo, hi = segs.span()
        return cls._intern(key, name, size, lo, hi - lo, segs, base.base_np)

    @classmethod
    def indexed_block(
        cls,
        blocklength: int,
        displacements: Sequence[int],
        base: "Datatype",
    ) -> "Datatype":
        """``MPI_Type_create_indexed_block``: equal-length indexed blocks."""
        if blocklength < 0:
            raise DatatypeError("negative blocklength")
        return cls.indexed(
            [blocklength] * len(displacements), displacements, base
        )

    @classmethod
    def dup(cls, base: "Datatype") -> "Datatype":
        """``MPI_Type_dup``: a committed copy with the same typemap."""
        out = cls(
            f"dup({base.name})", base.size, base.lb, base.extent,
            base.segments, base_np=base.base_np,
        )
        if base.committed:
            out._committed = True
        # The duplicate starts unbound. It shares the base's typemap, and
        # therefore its canonical entry once bound (lb/extent normalization
        # makes a dup canonically identical) and every plan compiled there.
        return out

    @classmethod
    def struct(
        cls,
        blocklengths: Sequence[int],
        byte_displacements: Sequence[int],
        types: Sequence["Datatype"],
    ) -> "Datatype":
        """``MPI_Type_create_struct``."""
        if not (len(blocklengths) == len(byte_displacements) == len(types)):
            raise DatatypeError("struct argument length mismatch")
        bls = _blocklengths(blocklengths)
        displs = np.asarray(byte_displacements, dtype=np.int64)
        key = ("struct", _array_key(bls), _array_key(displs),
               *map(_base_key, types))
        out = cls._interned(key)
        if out is not None:
            return out
        parts: List[SegmentList] = []
        kinds = []
        size = start = 0
        # One pass per maximal run of consecutive blocks sharing one type
        # object (Datatype defines no __eq__, so groupby compares identity),
        # so ``struct(bls, disps, [FLOAT] * n)`` costs one hindexed.
        for t, run in itertools.groupby(types):
            stop = start + len(list(run))
            parts.append(_flatten_blocks(t, bls[start:stop], displs[start:stop]))
            size += t.size * int(bls[start:stop].sum())
            kinds.append(t.base_np)
            start = stop
        segs = _concat_segments(parts).coalesced()
        lo, hi = segs.span()
        base_np = kinds[0] if kinds else None
        if any(k != base_np for k in kinds):
            base_np = None
        return cls._intern(key, "struct", size, lo, hi - lo, segs, base_np)

    @classmethod
    def subarray(
        cls,
        sizes: Sequence[int],
        subsizes: Sequence[int],
        starts: Sequence[int],
        base: "Datatype",
        order: str = "C",
    ) -> "Datatype":
        """``MPI_Type_create_subarray`` (C or Fortran order).

        The extent is the full array, as the standard requires, so
        consecutive subarray elements tile a distributed decomposition.
        """
        if not (len(sizes) == len(subsizes) == len(starts)):
            raise DatatypeError("subarray argument length mismatch")
        ndim = len(sizes)
        if ndim == 0:
            raise DatatypeError("subarray needs at least one dimension")
        for n, s, st in zip(sizes, subsizes, starts):
            if not (0 <= st and 0 < s and s + st <= n):
                raise DatatypeError(
                    f"subarray bounds violated: sizes={sizes} subsizes={subsizes} "
                    f"starts={starts}"
                )
        if order not in ("C", "F"):
            raise DatatypeError(f"order must be 'C' or 'F', got {order!r}")
        name = f"subarray{tuple(subsizes)}of{tuple(sizes)}"
        key = ("subarray", name, tuple(sizes), tuple(subsizes), tuple(starts),
               order, *_base_key(base))
        out = cls._interned(key)
        if out is not None:
            return out
        sizes_c = list(sizes) if order == "C" else list(reversed(sizes))
        subs_c = list(subsizes) if order == "C" else list(reversed(subsizes))
        starts_c = list(starts) if order == "C" else list(reversed(starts))
        # Row-major strides in elements.
        strides = [1] * ndim
        for d in range(ndim - 2, -1, -1):
            strides[d] = strides[d + 1] * sizes_c[d + 1]
        # Innermost dimension is contiguous: one block of ``run_len``
        # elements per index combination of the outer dims.
        run_len = subs_c[-1]
        grids = np.meshgrid(
            *[np.arange(s, dtype=np.int64) + st for s, st in
              zip(subs_c[:-1], starts_c[:-1])],
            indexing="ij",
        ) if ndim > 1 else []
        if ndim == 1:
            elem_offsets = np.array([starts_c[0]], dtype=np.int64)
        else:
            elem_offsets = sum(
                g * s for g, s in zip(grids, strides[:-1])
            ).ravel() + starts_c[-1]
        segs = _flatten_blocks(
            base,
            np.full(elem_offsets.shape, run_len, dtype=np.int64),
            elem_offsets * base.extent,
        ).coalesced()
        size = base.size * int(np.prod(subsizes))
        full = base.extent * int(np.prod(sizes))
        return cls._intern(key, name, size, 0, full, segs, base.base_np)

    #: Distribution kinds for :meth:`darray` (MPI_DISTRIBUTE_*).
    DIST_NONE = "none"
    DIST_BLOCK = "block"
    DIST_CYCLIC = "cyclic"

    @classmethod
    def darray(
        cls,
        nprocs: int,
        rank: int,
        gsizes: Sequence[int],
        distribs: Sequence[str],
        dargs: Sequence[Optional[int]],
        psizes: Sequence[int],
        base: "Datatype",
        order: str = "C",
    ) -> "Datatype":
        """``MPI_Type_create_darray``: one rank's piece of a distributed
        global array (HPF-style block / cyclic / none distributions).

        ``dargs[d]`` is the blocking factor for cyclic distributions (or
        None/``MPI_DISTRIBUTE_DFLT_DARG`` semantics: even block for BLOCK,
        1 for CYCLIC). The extent is the full global array, so the type
        plugs into MPI-IO style file views directly.
        """
        ndims = len(gsizes)
        if not (len(distribs) == len(dargs) == len(psizes) == ndims):
            raise DatatypeError("darray argument length mismatch")
        if order not in ("C", "F"):
            raise DatatypeError(f"order must be 'C' or 'F', got {order!r}")
        total_procs = 1
        for p in psizes:
            if p < 1:
                raise DatatypeError("process grid sizes must be positive")
            total_procs *= p
        if total_procs != nprocs:
            raise DatatypeError(
                f"psizes {tuple(psizes)} describe {total_procs} processes, "
                f"not {nprocs}"
            )
        if not (0 <= rank < nprocs):
            raise DatatypeError(f"rank {rank} outside 0..{nprocs - 1}")
        name = f"darray(rank{rank}/{nprocs})"
        key = ("darray", name, nprocs, rank, tuple(gsizes), tuple(distribs),
               tuple(dargs), tuple(psizes), order, *_base_key(base))
        out = cls._interned(key)
        if out is not None:
            return out

        # This rank's coordinates in the process grid, row-major whatever
        # the array order (MPI 3.1 section 4.1.4).
        coords = []
        r = rank
        for extent_p in reversed(psizes):
            coords.append(r % extent_p)
            r //= extent_p
        coords = list(reversed(coords))

        if order == "F":
            gsizes = list(reversed(gsizes))
            distribs = list(reversed(distribs))
            dargs = list(reversed(dargs))
            psizes = list(reversed(psizes))
            coords = list(reversed(coords))

        # Owned global indices per dimension.
        owned: List[np.ndarray] = []
        for g, dist, darg, p, c in zip(gsizes, distribs, dargs, psizes, coords):
            if g < 1:
                raise DatatypeError("global sizes must be positive")
            idx = np.arange(g, dtype=np.int64)
            if dist == cls.DIST_NONE:
                if p != 1:
                    raise DatatypeError(
                        "DIST_NONE dimension must have process extent 1"
                    )
                owned.append(idx)
            elif dist == cls.DIST_BLOCK:
                block = darg if darg is not None else -(-g // p)
                if block * p < g:
                    raise DatatypeError(
                        f"block size {block} too small for extent {g} over "
                        f"{p} processes"
                    )
                owned.append(idx[(idx // block) == c])
            elif dist == cls.DIST_CYCLIC:
                block = darg if darg is not None else 1
                if block < 1:
                    raise DatatypeError("cyclic blocking factor must be >= 1")
                owned.append(idx[(idx // block) % p == c])
            else:
                raise DatatypeError(f"unknown distribution {dist!r}")

        # Element strides of the global row-major array.
        strides = [1] * ndims
        for d in range(ndims - 2, -1, -1):
            strides[d] = strides[d + 1] * gsizes[d + 1]
        # Broadcast-sum the per-dim owned indices into flat element offsets.
        offset_nd = np.zeros((1,) * ndims, dtype=np.int64)
        for d in range(ndims):
            shape = [1] * ndims
            shape[d] = len(owned[d])
            offset_nd = offset_nd + (owned[d] * strides[d]).reshape(shape)
        elem_offsets = offset_nd.reshape(-1)

        segs = _flatten_blocks(
            base,
            np.ones(elem_offsets.shape, dtype=np.int64),
            elem_offsets * base.extent,
        ).coalesced()
        owned_count = int(np.prod([len(o) for o in owned])) if ndims else 0
        full = base.extent * int(np.prod(gsizes))
        return cls._intern(key, name, base.size * owned_count, 0, full, segs,
                           base.base_np)

    @classmethod
    def resized(cls, base: "Datatype", lb: int, extent: int) -> "Datatype":
        """``MPI_Type_create_resized``: override lb/extent."""
        out = cls(
            f"resized({base.name})", base.size, lb, extent, base.segments,
            base_np=base.base_np,
        )
        # A resized type tiles with a *different* extent; it starts
        # unbound. Canonically it is the *same layout* (extent
        # normalization: the canonical key covers the runs, never
        # lb/extent), so the shared entry keys tilings and plans on
        # (count, extent).
        return out

    # -- commit & queries -------------------------------------------------------------
    def commit(self) -> "Datatype":
        """``MPI_Type_commit``. Returns self for chaining.

        Commit is where canonicalization happens: the type binds the
        process-wide :class:`~repro.mpi.dtir.CanonicalEntry` keyed on its
        compiled runs, which it shares with every equivalently laid-out
        type.
        """
        self._committed = True
        self._entry()
        return self

    def _entry(self) -> "dtir.CanonicalEntry":
        """This type's canonical-registry entry, bound on first use.

        Lazy so primitives (committed at creation), ``dup``/``resized``
        types and unpickled types pick their entry up when they next
        compile anything.
        """
        e = self._canon_entry
        if e is None:
            e = self._canon_entry = dtir.register(self._segments, self.type_id)
        return e

    @property
    def committed(self) -> bool:
        return self._committed

    def require_committed(self) -> None:
        if not self._committed:
            raise DatatypeError(
                f"datatype {self.name!r} used in communication before "
                "MPI_Type_commit"
            )

    @property
    def segments(self) -> SegmentList:
        return self._segments

    @property
    def is_contiguous(self) -> bool:
        """True when size bytes at offset lb are one run and extent==size."""
        s = self._segments
        return (
            s.count <= 1 and self.size == self.extent
        )

    def segments_for_count(self, count: int) -> SegmentList:
        """Flattened segments of ``count`` consecutive elements of this type.

        The tiling is compiled once per *layout* -- cached in the
        canonical entry keyed on ``(count, extent)`` and shared by every
        equivalent type in the process -- so repeated packs/unpacks, and
        every chunk of a pipelined transfer, reuse the same SegmentList
        and therefore all of its memoized analysis (span, uniformity,
        gather indices). Wall-clock only: the returned segments are
        bit-identical to a fresh compilation.
        """
        if count < 0:
            raise DatatypeError("count must be non-negative")
        if count == 1:
            return self._segments
        return self._entry().segments_for(count, self.extent, self.type_id)

    def segments_for_range(self, count: int, lo: int, hi: int) -> SegmentList:
        """Segments of packed-byte range ``[lo, hi)`` of ``count`` elements.

        The chunking primitive behind the 5-stage pipeline. The canonical
        entry caches slices keyed on ``(count, extent, lo, hi)``, so each
        chunk's slice is compiled once per layout rather than once per
        pack *and* per unpack *and* per cost query. Full-range slices
        short-circuit to the cached full compilation.
        """
        full = self.segments_for_count(count)
        if lo == 0 and hi == full.total_bytes:
            return full
        ext = self.extent if count > 1 else 0
        return self._entry().slice_for(full, count, ext, lo, hi, self.type_id)

    def plan_for(self, count: int, chunk_bytes: int,
                 nbytes: Optional[int] = None):
        """The compiled :class:`~repro.core.plan.TransferPlan` for a
        transfer of the first ``nbytes`` packed bytes (default: all
        ``size * count``) of ``count`` elements at ``chunk_bytes``
        granularity.

        Plans are cached in the canonical entry keyed on ``(count,
        extent, chunk_bytes, nbytes)`` -- with the entry's runs, the full
        signature of a transfer shape -- so a message stream with a stable
        shape compiles once and replays forever, and equivalent types (a
        ``dup`` or ``resized`` among them) share the plan. Wall-clock only:
        a cached plan is bit-identical to a fresh compilation.
        """
        ext = self.extent if count > 1 else 0
        if nbytes is None:
            nbytes = self.size * count
        return self._entry().plan_for(self, count, ext, chunk_bytes, nbytes)

    def uniform_for_count(self, count: int) -> Optional[Tuple[int, int, int]]:
        """Uniform (width, height, pitch) for ``count`` elements, or None."""
        return self.segments_for_count(count).uniform()

    def layout_signature(self, count: int = 1):
        """Canonical :class:`~repro.tune.signature.LayoutSignature` of
        ``count`` elements of this type -- the tuning-table key.

        Derived from the compiled segments, so differently *constructed*
        but identically *laid out* types (a ``dup``, a no-op ``resized``,
        an equivalent struct) share a signature, while types with
        different byte layouts never do. Cached in the canonical entry
        beside the tilings it is computed from.
        """
        ext = self.extent if count > 1 else 0
        return self._entry().signature_for(self, count, ext)

    def span_for_count(self, count: int) -> int:
        """Bytes of buffer spanned by ``count`` elements (for bounds checks)."""
        if count == 0:
            return 0
        _, hi = self.segments_for_count(count).span()
        return hi

    def describe(self, max_segments: int = 8) -> str:
        """Human-readable layout summary (debugging/teaching aid).

        Shows size/extent/commit state, the contiguity classification the
        transfer engine will use, and the first few byte segments.
        """
        segs = self._segments
        uniform = segs.uniform()
        if segs.count <= 1 and self.size == self.extent:
            shape = "contiguous"
        elif uniform is not None:
            w, h, p = uniform
            shape = f"uniform 2-D: {h} rows x {w} B, pitch {p} B (cudaMemcpy2D-able)"
        else:
            shape = f"irregular: {segs.count} segments (gather kernel)"
        shown = segs
        run = segs.strided_run
        if run is not None and run[2] > max_segments:
            # A strided list derives every run it is asked for: ask for
            # the runs shown alone.
            shown = segs.slice_bytes(0, max_segments * run[1])
        head = [
            f"[{o}, {o + l})"
            for o, l in zip(
                shown.offsets[:max_segments].tolist(),
                shown.lengths[:max_segments].tolist(),
            )
        ]
        more = "" if segs.count <= max_segments else f" ... (+{segs.count - max_segments})"
        return (
            f"{self.name}: size={self.size} B, extent={self.extent} B, "
            f"{'committed' if self._committed else 'UNCOMMITTED'}\n"
            f"  layout: {shape}\n"
            f"  segments: {' '.join(head)}{more}"
        )

    def __getstate__(self) -> dict:
        """Pickle without the canonical-entry link.

        Shard workers unpickle datatypes into their own process, whose
        registry is a different object: carrying an entry across would
        silently fork the "shared" caches (and drag every cached plan
        through the pickle). The receiving side re-binds lazily.
        """
        state = {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot != "_canon_entry"
        }
        return state

    def __setstate__(self, state: dict) -> None:
        for key, value in state.items():
            setattr(self, key, value)
        self._canon_entry = None

    def __repr__(self) -> str:  # pragma: no cover
        state = "committed" if self._committed else "uncommitted"
        return f"<Datatype {self.name} size={self.size} extent={self.extent} {state}>"


def _base_key(base: Datatype) -> tuple:
    """Everything a derived constructor reads of a base type."""
    return base._segments, base.size, base.extent, base.base_np


def _array_key(arr: np.ndarray) -> tuple:
    """A hashable key of an int64 argument array."""
    return arr.shape, arr.tobytes()


def _blocklengths(blocklengths: Sequence[int]) -> np.ndarray:
    """``blocklengths`` as int64, rejecting negative entries."""
    bls = np.asarray(blocklengths, dtype=np.int64)
    if (bls < 0).any():
        raise DatatypeError("negative blocklength")
    return bls


def _flatten_blocks(
    base: Datatype, blocklengths: np.ndarray, displs: np.ndarray
) -> SegmentList:
    """Block ``i`` = ``blocklengths[i]`` consecutive ``base`` elements at
    byte ``displs[i]``, every block in order, uncoalesced.

    A base that is one run as long as its extent (every primitive and
    contiguous type) makes each non-empty block one run of ``blocklength
    * extent`` bytes. Any other base is placed once per element: element
    ``k`` of the whole list, the ``k - first[i]``-th of its block ``i``,
    starts at ``displs[i] + (k - first[i]) * extent``.
    """
    segs, ext = base.segments, base.extent
    if segs.count == 1 and segs.lengths[0] == ext:
        keep = blocklengths > 0
        return SegmentList(
            displs[keep] + segs.offsets[0], blocklengths[keep] * ext
        )
    first = np.cumsum(blocklengths) - blocklengths
    starts = np.repeat(displs - first * ext, blocklengths) + np.arange(
        int(blocklengths.sum()), dtype=np.int64
    ) * ext
    return segs.placed(starts)


def _concat_segments(parts: List[SegmentList]) -> SegmentList:
    if not parts:
        return SegmentList(np.empty(0, np.int64), np.empty(0, np.int64))
    offs = np.concatenate([p.offsets for p in parts])
    lens = np.concatenate([p.lengths for p in parts])
    return SegmentList(offs, lens)
