"""The layout registry: one entry per byte layout, keyed on its runs.

TEMPI (Pearson et al.) showed that *canonicalizing* CUDA-aware datatypes
-- collapsing every equivalent construction (``vector`` vs
``hvector``-of-contig vs ``subarray`` slab vs a flattenable struct) onto
one representation -- multiplies the value of every downstream
specialization: one plan-cache entry, one tuning-table row, one set of
memoized gather indices covers all of the traffic that previously split
across per-instance caches.

The coalesced run sequence of a type *is* its semantics, so the registry
keys an entry on the runs themselves (:func:`layout_key`):

* a layout that :meth:`~repro.mpi.datatype.SegmentList.uniform` reports
  as two or more rows -- the ``cudaMemcpy2D``-able class of Section IV-A
  -- keys as ``("sr", first, count, width, pitch)``, read from the
  strided form's four integers or the memoized 2-D view without
  deriving an array;
* every other layout keys as ``("runs", count, digest)``, the 16-byte
  blake2b digest of its offsets and lengths.

Two types therefore share a key exactly when they lay out the same bytes
in the same pack order (barring a 128-bit digest collision, which
:func:`register` guards). ``lb``/``extent`` are deliberately *excluded*
from the key -- that is the ``resized``/``dup`` normalization: a resized
variant shares the entry and differs only in the ``(count, extent)``
cache keys where tiling makes the extent observable.

Each key names a :class:`CanonicalEntry` holding the shared caches
(tilings, chunk slices, transfer plans, tuning signatures). A key is
computed once per distinct layout, not once per commit: the registry
records it on the SegmentList it came from (``canon_key``), so re-binding
that SegmentList is a lookup. Beside the registry sits the derived
constructors' memo (:func:`interned` / :func:`intern`): a constructor
called again with the same inputs returns a new type over the earlier
call's SegmentList, so repeated constructions skip both the flatten and
the key.

Everything here is wall-clock only. Entries are seeded from the
compiler's own segment lists and every shared artifact is bit-identical
to a fresh compilation, so simulated traces cannot change (the golden
trace digests in ``tests/golden`` pin them).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Optional

from ..perf.stats import PERF

__all__ = [
    "layout_key",
    "CanonicalEntry",
    "register",
    "registry_size",
    "reset_registry",
    "interned",
    "intern",
]


def layout_key(segments) -> tuple:
    """The registry key of a :class:`~repro.mpi.datatype.SegmentList`.

    A pure function of the runs: equal layouts always get equal keys.
    """
    uniform = segments.uniform()
    if uniform is not None and uniform[1] >= 2:
        width, count, pitch = uniform
        return ("sr", segments.span()[0], count, width, pitch)
    h = hashlib.blake2b(digest_size=16)
    h.update(segments.offsets.tobytes())
    h.update(segments.lengths.tobytes())
    return ("runs", segments.count, h.hexdigest())


class CanonicalEntry:
    """Process-wide shared caches of one canonical layout.

    Every committed :class:`~repro.mpi.datatype.Datatype` whose runs
    have the same :func:`layout_key` holds the same entry, so tilings,
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

    __slots__ = ("key", "segments", "creator",
                 "seg_cache", "slice_cache", "plan_cache", "sig_cache")

    def __init__(self, key: tuple, segments, creator: int):
        self.key = key
        #: The seed runs (the first registrant's compiled segments).
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
    """Bind a type's runs to their registry entry.

    :func:`layout_key` of ``segments`` is recorded on the segments
    (``canon_key``): a later bind of the same SegmentList -- an interned
    construction, a ``dup``, a ``resized`` -- is one registry lookup
    while the key's entry lives, and computes the key again once the
    registry has evicted it. Registry members must agree on their runs;
    the O(1) invariants are checked before a key is recorded. A mismatch
    can only come from a 128-bit digest collision of two ``"runs"`` keys:
    the type then gets a private entry that never enters the registry,
    and its segments record no key, so it never shares.
    """
    PERF.bump("dtir_canon")
    key = segments.canon_key
    entry = _REGISTRY.get(key)
    if entry is None:
        PERF.bump("dtir_detect")
        key = layout_key(segments)
        entry = _REGISTRY.get(key)
        if entry is None:
            entry = _REGISTRY[key] = CanonicalEntry(key, segments,
                                                    creator=type_id)
            if len(_REGISTRY) > REGISTRY_CAP:
                _REGISTRY.popitem(last=False)
            segments.canon_key = key
            return entry
        if (segments.count != entry.segments.count
                or segments.total_bytes != entry.segments.total_bytes):
            return CanonicalEntry(key, segments, creator=type_id)
        segments.canon_key = key
    _REGISTRY.move_to_end(key)
    PERF.bump("dtir_entry_reuse")
    if type_id != entry.creator:
        PERF.bump("dtir_collision")
    return entry
