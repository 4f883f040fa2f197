"""Byte arenas and allocators backing simulated device and host memory.

Every simulated memory space (a GPU's DRAM, a node's host memory) is a
NumPy ``uint8`` array plus a first-fit free-list allocator. Allocations hand
out :class:`BufferPtr` objects -- lightweight (arena, offset, length) handles
that expose zero-copy NumPy views, so all functional data movement in the
simulator is real byte movement that tests can check end to end.
"""

from __future__ import annotations

import mmap
import sys
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "Arena",
    "BufferPtr",
    "OutOfMemoryError",
    "InvalidPointerError",
    "ALIGNMENT",
    "WORDS",
    "wide_rows",
]

#: All allocations are aligned to this many bytes (cudaMalloc guarantees
#: at least 256-byte alignment).
ALIGNMENT = 256


class OutOfMemoryError(MemoryError):
    """The arena cannot satisfy an allocation request."""


class InvalidPointerError(ValueError):
    """A pointer was used with the wrong arena, double-freed, or is stale."""


def _align_up(n: int, alignment: int = ALIGNMENT) -> int:
    return (n + alignment - 1) // alignment * alignment


#: Linux ``MAP_NORESERVE``; Python's ``mmap`` module does not export it.
_MAP_NORESERVE = 0x4000


def _zeroed_bytes(size: int) -> np.ndarray:
    """A zero-filled ``uint8`` array whose pages are committed on first touch.

    On Linux this is a private anonymous ``MAP_NORESERVE`` mapping: the
    modeled capacity (12 GiB of host memory per node by default) costs
    nothing until a run writes to it, and resident memory tracks the bytes
    a run actually touches, even where the kernel's heuristic overcommit
    refuses one eager 12 GiB ``np.zeros``. Elsewhere it is ``np.zeros``.

    The mapping is advised ``MADV_NOHUGEPAGE``, so it commits in base
    pages under every transparent-huge-page setting. An arena is a sparse
    address space: staging pools sized for the worst case and minted on
    demand, receive buffers filled through scattered layouts. With huge
    pages the first byte written in a 2 MiB region commits all of it (32
    one-byte writes 2 MiB apart cost 64 MiB), so a 64-rank functional
    stencil grew 405 MiB instead of 31. Base pages cost TLB reach on the
    dense multi-MiB strided copies: 2.4% of pingpong-4m's operations per
    second on a 2-core host (alltoallv-mixed's moved 0.3%).
    """
    if not sys.platform.startswith("linux"):
        return np.zeros(size, dtype=np.uint8)
    mapping = mmap.mmap(
        -1, size,
        flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | _MAP_NORESERVE,
        prot=mmap.PROT_READ | mmap.PROT_WRITE,
    )
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        mapping.madvise(mmap.MADV_NOHUGEPAGE)
    # The array holds the mapping alive through its buffer export.
    return np.frombuffer(mapping, dtype=np.uint8)


class BufferPtr:
    """A handle to ``nbytes`` of simulated memory at ``offset`` in an arena.

    Sub-pointers created with :meth:`sub` share the parent's allocation and
    must not be freed; only the pointer returned by :meth:`Arena.alloc` can
    be passed to :meth:`Arena.free`.
    """

    __slots__ = ("arena", "offset", "nbytes", "_is_allocation_root")

    def __init__(self, arena: "Arena", offset: int, nbytes: int, _root: bool = False):
        self.arena = arena
        self.offset = offset
        self.nbytes = nbytes
        self._is_allocation_root = _root

    @property
    def space(self) -> str:
        """The arena's memory space: ``"device"`` or ``"host"``."""
        return self.arena.space

    @property
    def end(self) -> int:
        return self.offset + self.nbytes

    def view(self, dtype=np.uint8) -> np.ndarray:
        """A zero-copy NumPy view of the pointed-to bytes."""
        if dtype is np.uint8:
            # Dominant case (every pack/unpack and staging copy): a plain
            # byte slice needs no dtype validation or .view() reinterpret.
            return self.arena.raw[self.offset : self.offset + self.nbytes]
        itemsize = np.dtype(dtype).itemsize
        if self.nbytes % itemsize:
            raise ValueError(
                f"buffer of {self.nbytes} bytes is not a whole number of "
                f"{np.dtype(dtype)} items"
            )
        raw = self.arena.raw[self.offset : self.offset + self.nbytes]
        return raw.view(dtype)

    def sub(self, offset: int, nbytes: Optional[int] = None) -> "BufferPtr":
        """A pointer to a sub-range (no new allocation)."""
        if offset < 0:
            raise ValueError("sub-pointer offset must be non-negative")
        if nbytes is None:
            nbytes = self.nbytes - offset
        if offset + nbytes > self.nbytes:
            raise ValueError(
                f"sub-range [{offset}, {offset + nbytes}) exceeds buffer of "
                f"{self.nbytes} bytes"
            )
        return BufferPtr(self.arena, self.offset + offset, nbytes)

    def fill_from(self, array: np.ndarray) -> None:
        """Copy host-Python data into the simulated buffer (test/setup aid)."""
        data = np.ascontiguousarray(array)
        if data.nbytes != self.nbytes:
            raise ValueError(
                f"array of {data.nbytes} bytes does not match buffer of "
                f"{self.nbytes} bytes"
            )
        self.view()[:] = data.reshape(-1).view(np.uint8)

    def to_array(self, dtype, shape=None) -> np.ndarray:
        """Copy the buffer contents out as a fresh NumPy array."""
        arr = self.view(dtype).copy()
        return arr.reshape(shape) if shape is not None else arr

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BufferPtr {self.space}:{self.arena.name} "
            f"off={self.offset} len={self.nbytes}>"
        )


#: Unsigned machine words by byte width.
WORDS = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


def wide_rows(arena: "Arena", offset: int, pitch: int, width: int,
              height: int) -> Optional[np.ndarray]:
    """A ``(height,)`` strided view with one ``width``-byte element per row.

    Uniform strided layouts with narrow rows (the paper's 4-byte vector
    elements) dominate the functional copies; reinterpreting each row as a
    single machine word lets NumPy's strided copy loop move one element
    per row instead of ``width`` bytes. Returns ``None`` when the geometry
    cannot be widened (row width not a machine size, or pitch/offset not
    multiples of it) -- callers fall back to the byte view. The element
    values are the same bytes, so copies through the widened view are
    bit-identical to the 2-D byte copy they replace.
    """
    dt = WORDS.get(width)
    if dt is None or pitch % width or offset % width:
        return None
    arena.check_2d_bounds(offset, pitch, width, height)
    if height <= 0:
        return np.empty(0, dtype=dt)
    return np.ndarray((height,), dt, arena.raw, offset, (pitch,))


class Arena:
    """A contiguous simulated memory space with a first-fit allocator."""

    def __init__(
        self,
        size: int,
        space: str,
        name: str = "",
        backing: Optional[np.ndarray] = None,
    ):
        if size <= 0:
            raise ValueError("arena size must be positive")
        if space not in ("device", "host"):
            raise ValueError(f"unknown memory space {space!r}")
        self.size = size
        self.space = space
        self.name = name
        # ``backing`` lets a caller supply the storage bytes -- the shard
        # payload arenas hand in views of ``multiprocessing.shared_memory``
        # segments so staged RDMA payloads cross process boundaries without
        # serialization. Default is a private, lazily committed zero mapping.
        if backing is not None:
            if backing.dtype != np.uint8 or backing.ndim != 1:
                raise ValueError("arena backing must be a 1-D uint8 array")
            if backing.nbytes < size:
                raise ValueError(
                    f"arena backing holds {backing.nbytes} bytes, need {size}"
                )
            self.raw = backing[:size]
        else:
            self.raw = _zeroed_bytes(size)
        # Free list: sorted list of (offset, length) holes.
        self._free: List[Tuple[int, int]] = [(0, size)]
        self._live: Dict[int, int] = {}  # offset -> allocated length

    # -- accounting --------------------------------------------------------------
    @property
    def allocated_bytes(self) -> int:
        return sum(self._live.values())

    @property
    def free_bytes(self) -> int:
        return sum(length for _, length in self._free)

    @property
    def num_allocations(self) -> int:
        return len(self._live)

    # -- allocate/free --------------------------------------------------------------
    def alloc(self, nbytes: int) -> BufferPtr:
        """Allocate ``nbytes`` (rounded up to the alignment)."""
        if nbytes <= 0:
            raise ValueError("allocation size must be positive")
        need = _align_up(nbytes)
        for i, (off, length) in enumerate(self._free):
            if length >= need:
                if length == need:
                    del self._free[i]
                else:
                    self._free[i] = (off + need, length - need)
                self._live[off] = need
                return BufferPtr(self, off, nbytes, _root=True)
        raise OutOfMemoryError(
            f"{self.space} arena {self.name!r}: cannot allocate {nbytes} bytes "
            f"({self.free_bytes} free, fragmented into {len(self._free)} holes)"
        )

    def free(self, ptr: BufferPtr) -> None:
        """Return an allocation to the free list (with hole coalescing)."""
        if ptr.arena is not self:
            raise InvalidPointerError("pointer belongs to a different arena")
        if not ptr._is_allocation_root:
            raise InvalidPointerError("cannot free a sub-pointer")
        length = self._live.pop(ptr.offset, None)
        if length is None:
            raise InvalidPointerError(
                f"double free or foreign pointer at offset {ptr.offset}"
            )
        self._insert_hole(ptr.offset, length)
        ptr._is_allocation_root = False

    def _insert_hole(self, off: int, length: int) -> None:
        # Insert keeping the list sorted, then coalesce with neighbours.
        lo, hi = 0, len(self._free)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._free[mid][0] < off:
                lo = mid + 1
            else:
                hi = mid
        self._free.insert(lo, (off, length))
        # Coalesce with successor.
        if lo + 1 < len(self._free):
            noff, nlen = self._free[lo + 1]
            if off + length == noff:
                self._free[lo] = (off, length + nlen)
                del self._free[lo + 1]
        # Coalesce with predecessor.
        if lo > 0:
            poff, plen = self._free[lo - 1]
            if poff + plen == off:
                off, length = self._free[lo]
                self._free[lo - 1] = (poff, plen + length)
                del self._free[lo]

    def release_all(self) -> None:
        """Drop every live allocation and restore the single full-size hole.

        Window-scoped use (the shard payload staging arenas allocate per
        synchronization window and recycle wholesale at the window barrier)
        would otherwise pay one coalescing :meth:`free` per allocation.
        Outstanding :class:`BufferPtr` handles become stale -- callers own
        that lifecycle, exactly as with :meth:`free`.
        """
        self._live.clear()
        self._free = [(0, self.size)]

    def check_2d_bounds(self, offset: int, pitch: int, width: int, height: int) -> None:
        """Validate that a 2-D access pattern stays inside the arena."""
        if height <= 0 or width <= 0:
            return
        last = offset + (height - 1) * pitch + width
        if offset < 0 or last > self.size:
            raise InvalidPointerError(
                f"2-D access [{offset}, {last}) exceeds arena of {self.size} bytes"
            )

    def strided_view(self, offset: int, pitch: int, width: int, height: int) -> np.ndarray:
        """A (height, width) uint8 view with row stride ``pitch`` bytes.

        Built on the arena's backing array (not an allocation slice) so the
        view is valid even when the final row does not span a full pitch.
        """
        self.check_2d_bounds(offset, pitch, width, height)
        if height == 0 or width == 0:
            return np.empty((height, width), dtype=np.uint8)
        return np.ndarray((height, width), np.uint8, self.raw, offset, (pitch, 1))

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Arena {self.space}:{self.name} size={self.size} "
            f"live={self.allocated_bytes}>"
        )
