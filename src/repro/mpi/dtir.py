"""Canonical datatype IR: one normal form per byte layout.

TEMPI (Pearson et al.) showed that *canonicalizing* CUDA-aware datatypes
-- collapsing every equivalent construction (``vector`` vs
``hvector``-of-contig vs ``subarray`` slab vs a flattenable struct) onto
one representation -- multiplies the value of every downstream
specialization: one plan-cache entry, one tuning-table row, one set of
memoized gather indices covers all of the traffic that previously split
across per-instance caches.

This module is that normal form. The op set is deliberately tiny:

``Empty``
    No bytes.
``Contig(off, nbytes)``
    One run of ``nbytes`` at byte offset ``off``.
``StridedRun(off, count, width, pitch)``
    ``count`` equal runs of ``width`` bytes, ``pitch`` apart -- the
    ``cudaMemcpy2D``-able class.
``BlockGrid(off, dims, width)``
    A nested grid of equal runs: ``dims`` is ``((count, stride), ...)``
    outer -> inner in pack order (a 3-D subarray is a 2-dim grid).
``Irregular``
    Everything else, identified by a content digest of its run arrays.

One route produces the canonical node: :func:`detect` reconstructs the
maximal grid structure directly from a type's compiled, coalesced run
arrays. The coalesced run sequence *is* the semantics of a type, so a
deterministic function of it is a sound canonical form by construction
(two types get the same node iff they lay out the same bytes in the same
pack order); :func:`lower` is its inverse. A SegmentList in the strided
form holds no arrays to detect over: it keeps the four integers of the
:class:`StridedRun` that :func:`detect` returns for its runs, and
:func:`register` takes that node directly.

Canonical nodes key a process-wide **registry** of
:class:`CanonicalEntry` objects holding the shared caches (tilings,
chunk slices, transfer plans, tuning signatures). ``lb``/``extent`` are
deliberately *excluded* from the canonical key -- that is the
``resized``/``dup`` normalization: a resized variant shares the entry
and differs only in the ``(count, extent)`` cache keys where tiling
makes the extent observable.

Detection runs once per distinct layout, not once per commit. The
registry records each detected key on the SegmentList it came from, so
re-binding that SegmentList is a lookup. Beside the registry sits the
derived constructors' memo (:func:`interned` / :func:`intern`): a
constructor called again with the same inputs returns a new type over the
earlier call's SegmentList, so repeated constructions skip both the
flatten and the detection.

Everything here is wall-clock only. Entries are seeded from the
compiler's own segment lists and every shared artifact is bit-identical
to a fresh compilation, so simulated traces cannot change (the golden
trace digests in ``tests/golden`` pin them).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..perf.stats import PERF

__all__ = [
    "Empty",
    "Contig",
    "StridedRun",
    "BlockGrid",
    "Irregular",
    "EMPTY",
    "LayoutClass",
    "classify_segments",
    "classify_node",
    "detect",
    "lower",
    "shape_key",
    "CanonicalEntry",
    "register",
    "registry_size",
    "reset_registry",
    "interned",
    "intern",
]

# ---------------------------------------------------------------------------
# The op set
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Empty:
    """No bytes at all (zero count / zero blocklength constructions)."""

    def key(self) -> tuple:
        return ("empty",)


@dataclass(frozen=True)
class Contig:
    """One contiguous run of ``nbytes`` at byte offset ``off``."""

    off: int
    nbytes: int

    def key(self) -> tuple:
        return ("contig", self.off, self.nbytes)


@dataclass(frozen=True)
class StridedRun:
    """``count`` runs of ``width`` bytes each, ``pitch`` bytes apart.

    Canonical invariant: ``count >= 2`` and ``0 < width < pitch`` (a
    pitch equal to the width coalesces to :class:`Contig`; overlapping
    or reversed layouts stay :class:`Irregular`).
    """

    off: int
    count: int
    width: int
    pitch: int

    def key(self) -> tuple:
        return ("sr", self.off, self.count, self.width, self.pitch)


@dataclass(frozen=True)
class BlockGrid:
    """A nested grid of equal-width runs.

    ``dims`` lists ``(count, stride)`` pairs outer -> inner **in pack
    order**: lowering enumerates the grid lexicographically, so the dim
    order is semantic (reordering would permute the packed bytes; see
    :func:`shape_key` for the order-free classification view).
    Canonical invariant: every count >= 2 and len(dims) >= 2.
    """

    off: int
    dims: Tuple[Tuple[int, int], ...]
    width: int

    def key(self) -> tuple:
        return ("bg", self.off, self.dims, self.width)


class Irregular:
    """Any run sequence with no grid structure, identified by digest.

    Holds the run arrays themselves (for lowering); equality and hashing
    use the content digest so an Irregular node is as cheap to compare as
    the regular forms.
    """

    __slots__ = ("offsets", "lengths", "digest")

    def __init__(self, offsets: np.ndarray, lengths: np.ndarray):
        self.offsets = offsets.astype(np.int64, copy=False)
        self.lengths = lengths.astype(np.int64, copy=False)
        h = hashlib.blake2b(digest_size=16)
        h.update(self.offsets.tobytes())
        h.update(self.lengths.tobytes())
        self.digest = h.hexdigest()

    def key(self) -> tuple:
        return ("irr", int(self.offsets.shape[0]), self.digest)

    def __eq__(self, other) -> bool:
        return isinstance(other, Irregular) and self.digest == other.digest

    def __hash__(self) -> int:
        return hash(("irr", self.digest))

    def __repr__(self) -> str:  # pragma: no cover
        return f"Irregular(n={self.offsets.shape[0]}, {self.digest[:8]})"


EMPTY = Empty()


# ---------------------------------------------------------------------------
# Lowering and classification keys
# ---------------------------------------------------------------------------


def lower(node) -> Tuple[np.ndarray, np.ndarray]:
    """Run arrays ``(offsets, lengths)`` of a node, in pack order.

    The inverse of :func:`detect` (the property tests' reference); the
    hot path never lowers (entries are seeded with the compiled arrays).
    """
    if isinstance(node, Empty):
        z = np.empty(0, np.int64)
        return z, z.copy()
    if isinstance(node, Contig):
        return (np.array([node.off], np.int64),
                np.array([node.nbytes], np.int64))
    if isinstance(node, StridedRun):
        offs = node.off + np.arange(node.count, dtype=np.int64) * node.pitch
        return offs, np.full(node.count, node.width, np.int64)
    if isinstance(node, BlockGrid):
        offs = np.array([node.off], np.int64)
        for c, s in node.dims:
            steps = np.arange(c, dtype=np.int64) * s
            offs = (offs[:, None] + steps[None, :]).ravel()
        return offs, np.full(offs.shape[0], node.width, np.int64)
    if isinstance(node, Irregular):
        return node.offsets, node.lengths
    raise TypeError(f"not an IR node: {node!r}")


def shape_key(node) -> tuple:
    """Offset-free, order-normalized *shape* of a node (classification key).

    This is where the "dimension sorting by descending contiguous width"
    normalization lives: grid dims sorted by descending ``count * |stride|``
    footprint. The identity key (:meth:`~BlockGrid.key`) must keep dim
    order -- reordering dims permutes the packed byte sequence -- but for
    *classifying* a layout (tuning buckets, footers) two grids that
    differ only by traversal order are the same shape.
    """
    if isinstance(node, Empty):
        return ("empty",)
    if isinstance(node, Contig):
        return ("contig", node.nbytes)
    if isinstance(node, StridedRun):
        return ("sr", node.count, node.width, node.pitch)
    if isinstance(node, BlockGrid):
        dims = tuple(sorted(node.dims,
                            key=lambda d: (d[0] * abs(d[1]), d[0], abs(d[1])),
                            reverse=True))
        return ("bg", dims, node.width)
    if isinstance(node, Irregular):
        return ("irr", int(node.offsets.shape[0]), node.digest)
    raise TypeError(f"not an IR node: {node!r}")


# ---------------------------------------------------------------------------
# Detection: run arrays -> canonical node
# ---------------------------------------------------------------------------


def _grid_dims(offsets: np.ndarray) -> Optional[List[Tuple[int, int]]]:
    """Recursive maximal grid decomposition of an offset sequence.

    Returns ``[(count, stride), ...]`` outer -> inner such that the
    lexicographic enumeration reproduces ``offsets`` exactly, or None
    when no such (non-trivial) grid exists. Each level strips the
    innermost constant-delta period, so recursion depth is log-bounded.
    """
    n = int(offsets.shape[0])
    if n == 1:
        return []
    d = np.diff(offsets)
    if bool((d == d[0]).all()):
        return [(n, int(d[0]))]
    # Innermost period: the run of equal leading deltas (+1 offsets).
    c = int(np.argmax(d != d[0])) + 1
    if c < 2 or n % c != 0:
        return None
    grid = offsets.reshape(n // c, c)
    base = grid[:, 0]
    rel = grid - base[:, None]
    if not bool((rel == rel[0]).all()):
        return None
    inner_d = np.diff(grid[0])
    if not bool((inner_d == inner_d[0]).all()):
        return None
    outer = _grid_dims(base)
    if outer is None:
        return None
    return outer + [(c, int(inner_d[0]))]


def detect(offsets: np.ndarray, lengths: np.ndarray):
    """Canonical node of a coalesced run sequence (pack order).

    A pure, deterministic function of the arrays -- which is what makes
    it a sound canonical form: equal layouts (equal arrays) always map
    to equal nodes, and the node's :func:`lower` reproduces the arrays
    byte-for-byte.
    """
    n = int(offsets.shape[0])
    if n == 0:
        return EMPTY
    if n == 1:
        return Contig(int(offsets[0]), int(lengths[0]))
    if not bool((lengths == lengths[0]).all()):
        return Irregular(offsets, lengths)
    width = int(lengths[0])
    if width == 0:
        return Irregular(offsets, lengths)
    dims = _grid_dims(offsets)
    if dims is None:
        return Irregular(offsets, lengths)
    off = int(offsets[0])
    if len(dims) == 1:
        count, stride = dims[0]
        if stride <= width:
            # Coalesced inputs never abut (stride == width); anything
            # tighter is an overlapping/reversed layout -- not a 2-D copy.
            return Irregular(offsets, lengths)
        return StridedRun(off, count, width, stride)
    return BlockGrid(off, tuple(dims), width)


# ---------------------------------------------------------------------------
# Unified layout classification (SegmentList.uniform + tuning signatures)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LayoutClass:
    """The one classification both fast paths and tuning keys consume.

    ``kind`` is ``"empty"`` / ``"contig"`` / ``"uniform"`` /
    ``"irregular"``. The legacy code had *two* classifiers
    (``SegmentList._classify_uniform`` and
    ``tune.signature.signature_of_segments``) that could disagree on the
    edges; both now derive from this class:

    * a single segment is ``contig`` -- its :meth:`uniform_tuple` is the
      degenerate ``(width, 1, width)`` the 2-D copy path expects, while
      its signature kind stays ``"contig"`` (two views, one source);
    * zero-width runs are ``irregular``, never ``uniform`` (the old
      uniform classifier accepted ``width == 0`` with count > 1, which
      the signature side bucketed differently -- the divergence bug).
    """

    kind: str
    width: int = 0
    height: int = 0
    pitch: int = 0
    nseg: int = 0

    def uniform_tuple(self) -> Optional[Tuple[int, int, int]]:
        """The ``(width, height, pitch)`` 2-D view, or None."""
        if self.kind == "contig":
            return (self.width, 1, self.width)
        if self.kind == "uniform":
            return (self.width, self.height, self.pitch)
        return None


def classify_segments(segs) -> LayoutClass:
    """Classify a :class:`~repro.mpi.datatype.SegmentList` (duck-typed)."""
    run = segs.strided_run
    if run is not None:
        _, width, count, pitch = run
        return LayoutClass("uniform", width=width, height=count, pitch=pitch,
                           nseg=count)
    n = segs.count
    if n == 0:
        return LayoutClass("empty")
    lens = segs.lengths
    if n == 1:
        return LayoutClass("contig", width=int(lens[0]), nseg=1)
    if bool((lens == lens[0]).all()):
        width = int(lens[0])
        deltas = np.diff(segs.offsets)
        if width > 0 and bool((deltas == deltas[0]).all()):
            pitch = int(deltas[0])
            if pitch > width:
                return LayoutClass("uniform", width=width, height=n,
                                   pitch=pitch, nseg=n)
        return LayoutClass("irregular", width=width, nseg=n)
    return LayoutClass("irregular", width=0, nseg=n)


def classify_node(node) -> LayoutClass:
    """Classify a canonical node without touching its run arrays."""
    if isinstance(node, Empty):
        return LayoutClass("empty")
    if isinstance(node, Contig):
        return LayoutClass("contig", width=node.nbytes, nseg=1)
    if isinstance(node, StridedRun):
        return LayoutClass("uniform", width=node.width, height=node.count,
                           pitch=node.pitch, nseg=node.count)
    if isinstance(node, BlockGrid):
        nseg = 1
        for c, _s in node.dims:
            nseg *= c
        # A grid is 2-D-copyable only when it is really one strided run
        # (detection would have said StridedRun); multi-dim grids classify
        # as equal-width irregular layouts.
        return LayoutClass("irregular", width=node.width, nseg=nseg)
    if isinstance(node, Irregular):
        lens = node.lengths
        width = int(lens[0]) if lens.shape[0] and bool(
            (lens == lens[0]).all()) else 0
        return LayoutClass("irregular", width=width,
                           nseg=int(lens.shape[0]))
    raise TypeError(f"cannot classify {node!r}")


# ---------------------------------------------------------------------------
# The canonical registry: shared per-layout caches
# ---------------------------------------------------------------------------


class CanonicalEntry:
    """Process-wide shared caches of one canonical layout.

    Every committed :class:`~repro.mpi.datatype.Datatype` whose runs
    canonicalize to the same node holds the same entry, so tilings,
    chunk slices, transfer plans and tuning signatures compiled by *any*
    instance serve *all* of them. Cache values carry the ``type_id``
    that created them: a hit from a different type is a cross-instance
    share, surfaced in the ``[dtype:]`` footer.

    ``lb``/``extent`` never enter the canonical key; they appear inside
    the cache keys exactly where tiling makes them observable
    (``count > 1``), which is the resized/dup extent normalization.
    """

    SEG_CAP = 64
    SLICE_CAP = 256
    PLAN_CAP = 64

    __slots__ = ("key", "node", "klass", "segments", "creator",
                 "seg_cache", "slice_cache", "plan_cache", "sig_cache")

    def __init__(self, key: tuple, node, segments, creator: int):
        self.key = key
        self.node = node
        self.klass = classify_node(node)
        #: The seed run arrays (the first registrant's compiled segments).
        self.segments = segments
        self.creator = creator
        # (count, extent) -> (SegmentList, creator_id)
        self.seg_cache: "OrderedDict[tuple, tuple]" = OrderedDict()
        # (count, extent, lo, hi) -> (SegmentList, creator_id)
        self.slice_cache: "OrderedDict[tuple, tuple]" = OrderedDict()
        # (count, extent, chunk_bytes, nbytes) -> (TransferPlan, creator)
        self.plan_cache: "OrderedDict[tuple, tuple]" = OrderedDict()
        # (count, extent) -> (LayoutSignature, creator_id)
        self.sig_cache: dict = {}

    # -- shared compilations -------------------------------------------------
    def segments_for(self, count: int, extent: int, caller: int):
        """The shared ``count``-element tiling (count >= 2)."""
        key = (count, extent)
        hit = self.seg_cache.get(key)
        if hit is not None:
            self.seg_cache.move_to_end(key)
            PERF.bump("seg_cache_hit")
            if hit[1] != caller:
                PERF.bump("dtir_seg_shared")
            return hit[0]
        PERF.bump("seg_cache_miss")
        segs = self.segments.tiled(count, extent).coalesced()
        self.seg_cache[key] = (segs, caller)
        if len(self.seg_cache) > self.SEG_CAP:
            self.seg_cache.popitem(last=False)
        return segs

    def slice_for(self, full, count: int, extent: int, lo: int, hi: int,
                  caller: int):
        """The shared chunk slice ``[lo, hi)`` of ``count`` elements."""
        key = (count, extent, lo, hi)
        hit = self.slice_cache.get(key)
        if hit is not None:
            self.slice_cache.move_to_end(key)
            PERF.bump("slice_cache_hit")
            if hit[1] != caller:
                PERF.bump("dtir_slice_shared")
            return hit[0]
        PERF.bump("slice_cache_miss")
        segs = full.slice_bytes(lo, hi)
        self.slice_cache[key] = (segs, caller)
        if len(self.slice_cache) > self.SLICE_CAP:
            self.slice_cache.popitem(last=False)
        return segs

    def plan_for(self, dtype, count: int, extent: int, chunk_bytes: int,
                 nbytes: int):
        """The shared compiled TransferPlan for one transfer shape.

        A plan is a pure function of the entry's runs and the key, so
        every type bound here -- a ``dup`` or ``resized`` of the type that
        compiled it among them -- replays the same plan.
        """
        key = (count, extent, chunk_bytes, nbytes)
        hit = self.plan_cache.get(key)
        if hit is not None:
            self.plan_cache.move_to_end(key)
            PERF.bump("plan_cache_hit")
            if hit[1] != dtype.type_id:
                PERF.bump("dtir_plan_shared")
            return hit[0]
        PERF.bump("plan_cache_miss")
        from ..core.plan import TransferPlan

        plan = TransferPlan.compile(dtype, count, chunk_bytes, nbytes)
        self.plan_cache[key] = (plan, dtype.type_id)
        if len(self.plan_cache) > self.PLAN_CAP:
            self.plan_cache.popitem(last=False)
        return plan

    def signature_for(self, dtype, count: int, extent: int):
        """The shared tuning-table signature of ``count`` elements."""
        key = (count, extent)
        hit = self.sig_cache.get(key)
        if hit is not None:
            if hit[1] != dtype.type_id:
                PERF.bump("dtir_sig_shared")
            return hit[0]
        from ..tune.signature import signature_of_segments

        sig = signature_of_segments(dtype.segments_for_count(count))
        if len(self.sig_cache) > 64:
            self.sig_cache.clear()
        self.sig_cache[key] = (sig, dtype.type_id)
        return sig


#: canonical key -> CanonicalEntry, LRU-capped.
_REGISTRY: "OrderedDict[tuple, CanonicalEntry]" = OrderedDict()
REGISTRY_CAP = 256

#: Derived-constructor key -> the fields ``(name, size, lb, extent,
#: segments, base_np)`` of the type the first such call built, LRU-capped
#: like the registry (see ``repro.mpi.datatype``).
_CTORS: "OrderedDict[tuple, tuple]" = OrderedDict()


def registry_size() -> int:
    return len(_REGISTRY)


def reset_registry() -> None:
    """Drop all entries and interned constructions (tests and benchmarks
    start from a cold registry)."""
    _REGISTRY.clear()
    _CTORS.clear()


def interned(key: tuple) -> Optional[tuple]:
    """The fields an earlier constructor call with ``key`` built, or None."""
    fields = _CTORS.get(key)
    if fields is None:
        PERF.bump("dtype_ctor_miss")
        return None
    _CTORS.move_to_end(key)
    PERF.bump("dtype_ctor_hit")
    return fields


def intern(key: tuple, fields: tuple) -> None:
    """Remember a constructor call's result fields under its key."""
    _CTORS[key] = fields
    if len(_CTORS) > REGISTRY_CAP:
        _CTORS.popitem(last=False)


def register(segments, type_id: int) -> CanonicalEntry:
    """Canonicalize a type's runs and bind its registry entry.

    :func:`detect` on ``segments`` -- or, for the strided form, the
    :class:`StridedRun` of its four integers -- gives the canonical key,
    which is recorded on the segments (``canon_key``): a later bind of the
    same SegmentList -- an interned construction, a ``dup``, a
    ``resized`` -- is one registry lookup while the key's entry lives, and
    detects again once the registry has evicted it. Registry members must
    agree on their run arrays; the O(1) invariants are checked before a
    key is recorded. A mismatch can only come from a 128-bit digest
    collision of two :class:`Irregular` layouts: the type then gets a
    private entry that never enters the registry, and its segments record
    no key, so it never shares.
    """
    PERF.bump("dtir_canon")
    key = segments.canon_key
    entry = _REGISTRY.get(key)
    if entry is None:
        PERF.bump("dtir_detect")
        run = segments.strided_run
        if run is None:
            node = detect(segments.offsets, segments.lengths)
        else:
            first, width, count, pitch = run
            node = StridedRun(first, count, width, pitch)
        key = node.key()
        entry = _REGISTRY.get(key)
        if entry is None:
            entry = _REGISTRY[key] = CanonicalEntry(
                key, node, segments, creator=type_id)
            if len(_REGISTRY) > REGISTRY_CAP:
                _REGISTRY.popitem(last=False)
            segments.canon_key = key
            return entry
        if (segments.count != entry.segments.count
                or segments.total_bytes != entry.segments.total_bytes):
            return CanonicalEntry(key, node, segments, creator=type_id)
        segments.canon_key = key
    _REGISTRY.move_to_end(key)
    PERF.bump("dtir_entry_reuse")
    if type_id != entry.creator:
        PERF.bump("dtir_collision")
    return entry
