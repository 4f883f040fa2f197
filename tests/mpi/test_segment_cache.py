"""The canonical-entry compilation cache: bit-identical to fresh compilation.

Property tests build random datatypes through the full constructor
algebra (including ``resized``/``dup`` derivation and nested
``hvector(struct(...))``) and assert that cached compilations -- segments,
slices and word-index arrays -- are exactly what an uncached compile
produces. Plus explicit LRU, unbound-derivation, counter and
private-entry tests.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import BYTE, FLOAT, Datatype, dtir
from repro.mpi.dtir import CanonicalEntry
from repro.perf.stats import PERF


def fresh_segments(dt, count):
    """The pre-cache ground-truth formula for ``segments_for_count``."""
    if count == 1:
        return dt.segments
    return dt.segments.tiled(count, dt.extent).coalesced()


def assert_seglists_equal(a, b):
    assert np.array_equal(a.offsets, b.offsets)
    assert np.array_equal(a.lengths, b.lengths)


@st.composite
def datatypes(draw, depth=2):
    """A random datatype through the constructor algebra."""
    prims = [BYTE, Datatype.named(np.int16), Datatype.named(np.float32)]
    if depth == 0:
        return draw(st.sampled_from(prims))
    base = draw(datatypes(depth=depth - 1))
    kind = draw(st.sampled_from(
        ["prim", "contig", "vector", "hvector", "indexed", "struct",
         "resized", "dup"]
    ))
    if kind == "prim":
        return draw(st.sampled_from(prims))
    if kind == "contig":
        return Datatype.contiguous(draw(st.integers(1, 4)), base)
    if kind == "vector":
        return Datatype.vector(
            draw(st.integers(1, 4)), draw(st.integers(1, 3)),
            draw(st.integers(1, 5)), base,
        )
    if kind == "hvector":
        return Datatype.hvector(
            draw(st.integers(1, 4)), draw(st.integers(1, 3)),
            draw(st.integers(0, 48)), base,
        )
    if kind == "indexed":
        n = draw(st.integers(1, 3))
        blocklengths = draw(
            st.lists(st.integers(0, 3), min_size=n, max_size=n)
        )
        displacements = draw(
            st.lists(st.integers(0, 6), min_size=n, max_size=n)
        )
        return Datatype.indexed(blocklengths, displacements, base)
    if kind == "struct":
        other = draw(st.sampled_from(prims))
        return Datatype.struct(
            [draw(st.integers(1, 2)), draw(st.integers(1, 2))],
            [0, draw(st.integers(8, 64))],
            [base, other],
        )
    if kind == "resized":
        lo, hi = base.segments.span()
        extent = draw(st.integers(max(hi, 1), max(hi, 1) + 32))
        return Datatype.resized(base, 0, extent)
    return Datatype.dup(base)


@given(dt=datatypes(), count=st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_cached_segments_bit_identical(dt, count):
    want = fresh_segments(dt, count)
    got_miss = dt.segments_for_count(count)  # compiles (or count==1 path)
    got_hit = dt.segments_for_count(count)   # served from cache
    assert got_hit is got_miss or count == 1
    assert_seglists_equal(got_miss, want)
    assert_seglists_equal(got_hit, want)
    # Memoized word indices match a from-scratch expansion.
    fresh = fresh_segments(dt, count)
    assert got_hit.word == fresh.word
    assert np.array_equal(got_hit.word_indices(), fresh.word_indices())
    # Memoized span/uniform/total match the fresh compilation's.
    assert got_hit.span() == want.span()
    assert got_hit.total_bytes == want.total_bytes
    assert got_hit.uniform() == fresh_segments(dt, count).uniform()


@given(dt=datatypes(), count=st.integers(1, 4), cuts=st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_cached_slices_bit_identical(dt, count, cuts):
    full = dt.segments_for_count(count)
    total = full.total_bytes
    lo = min(cuts, total)
    hi = max(lo, total - cuts)
    want = fresh_segments(dt, count).slice_bytes(lo, hi)
    got = dt.segments_for_range(count, lo, hi)
    again = dt.segments_for_range(count, lo, hi)
    assert_seglists_equal(got, want)
    assert_seglists_equal(again, want)
    assert got.word == want.word
    assert np.array_equal(got.word_indices(), want.word_indices())


@pytest.mark.slow
@given(dt=datatypes(depth=3), count=st.integers(0, 8))
@settings(max_examples=150, deadline=None)
def test_cached_segments_bit_identical_deep(dt, count):
    want = fresh_segments(dt, count)
    got = dt.segments_for_count(count)
    assert_seglists_equal(dt.segments_for_count(count), want)
    assert got.word == want.word
    assert np.array_equal(got.word_indices(), want.word_indices())


def test_nested_hvector_of_struct_cached():
    inner = Datatype.struct([1, 2], [0, 8], [BYTE, Datatype.named(np.int16)])
    outer = Datatype.hvector(3, 2, 32, inner)
    for count in (1, 2, 5):
        assert_seglists_equal(
            outer.segments_for_count(count), fresh_segments(outer, count)
        )


def test_full_range_slice_shares_the_cached_compilation():
    vec = Datatype.hvector(8, 4, 8, BYTE)
    full = vec.segments_for_count(3)
    assert vec.segments_for_range(3, 0, full.total_bytes) is full


def test_resized_does_not_reuse_base_tilings():
    vec = Datatype.hvector(4, 2, 4, BYTE)
    base_tiled = vec.segments_for_count(3)
    r = Datatype.resized(vec, 0, vec.extent * 2)
    r_tiled = r.segments_for_count(3)
    # Same typemap per element, different tiling stride.
    assert_seglists_equal(r.segments_for_count(1), vec.segments_for_count(1))
    assert not np.array_equal(r_tiled.offsets, base_tiled.offsets)
    assert_seglists_equal(r_tiled, fresh_segments(r, 3))


def test_dup_and_resized_start_unbound():
    vec = Datatype.hvector(4, 2, 8, BYTE).commit()
    vec.segments_for_count(2)
    d = Datatype.dup(vec)
    r = Datatype.resized(vec, 0, vec.extent * 2)
    assert d._canon_entry is None and r._canon_entry is None
    assert d.committed
    assert_seglists_equal(d.segments_for_count(2), fresh_segments(d, 2))
    assert_seglists_equal(r.segments_for_count(2), fresh_segments(r, 2))
    # Same runs, so both bind the base's entry (extent normalization).
    assert d._entry() is vec._entry()
    assert r._entry() is vec._entry()


def test_dup_and_resized_share_the_base_plan():
    """A plan is a pure function of the layout and the transfer shape, so
    a ``dup`` and a ``resized`` of a committed type replay the plan their
    base compiled."""
    vec = Datatype.vector(1024, 3, 8, FLOAT).commit()
    plan = vec.plan_for(4, 4096)
    dup = Datatype.dup(vec)
    resized = Datatype.resized(vec, 0, vec.extent)
    misses = PERF.counters["plan_cache_miss"]
    assert dup.plan_for(4, 4096) is plan
    assert resized.plan_for(4, 4096) is plan
    assert PERF.counters["plan_cache_miss"] == misses


def test_lru_eviction_bounds_entry_tilings():
    vec = Datatype.hvector(4, 2, 8, BYTE)
    entry = vec._entry()
    for count in range(2, CanonicalEntry.SEG_CAP + 40):
        vec.segments_for_count(count)
    assert len(entry.seg_cache) <= CanonicalEntry.SEG_CAP
    # Evicted entries recompile to the same thing.
    assert_seglists_equal(vec.segments_for_count(2), fresh_segments(vec, 2))


def test_hit_miss_counters_move():
    dtir.reset_registry()
    vec = Datatype.hvector(16, 4, 8, BYTE)
    h0, m0 = PERF.counters["seg_cache_hit"], PERF.counters["seg_cache_miss"]
    vec.segments_for_count(5)
    vec.segments_for_count(5)
    assert PERF.counters["seg_cache_miss"] == m0 + 1
    assert PERF.counters["seg_cache_hit"] == h0 + 1
    s0, sm0 = PERF.counters["slice_cache_hit"], PERF.counters["slice_cache_miss"]
    vec.segments_for_range(5, 2, 9)
    vec.segments_for_range(5, 2, 9)
    assert PERF.counters["slice_cache_miss"] == sm0 + 1
    assert PERF.counters["slice_cache_hit"] == s0 + 1
    p0, pm0 = PERF.counters["plan_cache_hit"], PERF.counters["plan_cache_miss"]
    vec.plan_for(5, 64)
    vec.plan_for(5, 64)
    assert PERF.counters["plan_cache_miss"] == pm0 + 1
    assert PERF.counters["plan_cache_hit"] == p0 + 1


def test_mismatched_registry_key_gets_a_private_entry(monkeypatch):
    """A key whose registry entry disagrees on segment count/size (only a
    128-bit digest collision can cause it) must never share: the type gets
    a private entry outside the registry, and everything it compiles
    equals a fresh compilation."""
    dtir.reset_registry()
    owner = Datatype.hindexed([2, 1], [0, 5], BYTE).commit()
    owner_entry = owner._entry()
    intruder = Datatype.hindexed([1, 3, 2], [0, 4, 11], BYTE)
    monkeypatch.setattr(dtir, "layout_key", lambda segs: owner_entry.key)
    private = intruder._entry()
    monkeypatch.undo()
    assert private is not owner_entry
    assert private.key == owner_entry.key
    assert intruder.segments.canon_key is None
    assert dtir.registry_size() == 1
    assert dtir._REGISTRY[owner_entry.key] is owner_entry

    count, chunk = 3, 4
    full = fresh_segments(intruder, count)
    assert_seglists_equal(intruder.segments_for_count(count), full)
    assert_seglists_equal(intruder.segments_for_range(count, 1, 7),
                          full.slice_bytes(1, 7))
    plan = intruder.plan_for(count, chunk)
    assert plan.total == full.total_bytes
    for cp in plan.chunks:
        assert_seglists_equal(cp.segs, full.slice_bytes(cp.lo, cp.hi))
    assert intruder._entry() is private
    assert dtir.registry_size() == 1
