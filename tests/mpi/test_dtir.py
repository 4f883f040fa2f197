"""The layout registry: keys on the runs and the shared entries.

Two groups pin the registry's contract:

* **the key contract** -- for random constructor trees, two committed
  types share a registry key exactly when their coalesced runs are
  equal, and a type never shares one with a displaced copy of itself;
* **equivalence collapse** -- the four textbook constructions of one
  strided grid (vector, hvector-of-contig, subarray slab, struct of
  half-vectors), three constructions of an irregular layout and three
  of a 3-D face share one key, one tuning signature and one compiled
  TransferPlan object.

Trace transparency of the registry is pinned by the golden trace digests
(``tests/golden``).
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import BYTE, FLOAT, Datatype, SegmentList, dtir
from repro.perf.stats import PERF
from repro.tune.signature import signature_of_segments


@pytest.fixture(autouse=True)
def clean_registry():
    """Each test gets an empty registry."""
    dtir.reset_registry()
    yield
    dtir.reset_registry()


@st.composite
def datatypes(draw, depth=2):
    """A random datatype through the constructor algebra."""
    prims = [BYTE, Datatype.named(np.int16), Datatype.named(np.float32)]
    if depth == 0:
        return draw(st.sampled_from(prims))
    base = draw(datatypes(depth=depth - 1))
    kind = draw(st.sampled_from(
        ["prim", "contig", "vector", "hvector", "indexed", "struct",
         "subarray", "resized", "dup"]
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
    if kind == "subarray":
        rows = draw(st.integers(1, 4))
        cols = draw(st.integers(1, 4))
        sub_r = draw(st.integers(1, rows))
        sub_c = draw(st.integers(1, cols))
        return Datatype.subarray(
            [rows, cols], [sub_r, sub_c],
            [draw(st.integers(0, rows - sub_r)),
             draw(st.integers(0, cols - sub_c))],
            base,
        )
    if kind == "resized":
        lo, hi = base.segments.span()
        extent = draw(st.integers(max(hi, 1), max(hi, 1) + 32))
        return Datatype.resized(base, 0, extent)
    return Datatype.dup(base)


# ---------------------------------------------------------------------------
# The key contract
# ---------------------------------------------------------------------------


def same_runs(a: Datatype, b: Datatype) -> bool:
    sa, sb = a.segments.coalesced(), b.segments.coalesced()
    return (np.array_equal(sa.offsets, sb.offsets)
            and np.array_equal(sa.lengths, sb.lengths))


@given(types=st.lists(datatypes(), min_size=2, max_size=6),
       d=st.integers(1, 64))
@settings(max_examples=120, deadline=None)
def test_keys_are_equal_exactly_when_runs_are(types, d):
    for t in types:
        t.commit()
    for i, a in enumerate(types):
        for b in types[i + 1:]:
            assert (a._entry().key == b._entry().key) == same_runs(a, b)
        # Only an empty layout equals its displaced copy.
        moved = Datatype.struct([1], [d], [a]).commit()
        assert (moved._entry().key == a._entry().key) == (a.size == 0)


@given(dt=datatypes(), count=st.integers(2, 5), cuts=st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_committed_compilations_bit_identical_to_legacy(dt, count, cuts):
    """Registry-served tilings/slices equal a from-scratch compilation."""
    dt.commit()
    want = dt.segments.tiled(count, dt.extent).coalesced()
    got = dt.segments_for_count(count)
    assert np.array_equal(got.offsets, want.offsets)
    assert np.array_equal(got.lengths, want.lengths)
    total = want.total_bytes
    lo = min(cuts, total)
    hi = max(lo, total - cuts)
    want_slice = want.slice_bytes(lo, hi)
    got_slice = dt.segments_for_range(count, lo, hi)
    assert np.array_equal(got_slice.offsets, want_slice.offsets)
    assert np.array_equal(got_slice.lengths, want_slice.lengths)
    assert got_slice.word == want_slice.word
    assert np.array_equal(
        got_slice.word_indices(), want_slice.word_indices()
    )


# ---------------------------------------------------------------------------
# Equivalence collapse
# ---------------------------------------------------------------------------

ROWS = 64


def equivalent_grid_builders():
    """Four constructions of the same 64x16B-row grid at 64B pitch."""
    half = ROWS // 2

    def u_struct():
        h = Datatype.vector(half, 4, 16, FLOAT)
        return Datatype.struct([1, 1], [0, half * 64], [h, h])

    return [
        ("vector", lambda: Datatype.vector(ROWS, 4, 16, FLOAT)),
        ("hvector", lambda: Datatype.hvector(
            ROWS, 1, 64, Datatype.contiguous(4, FLOAT))),
        ("subarray", lambda: Datatype.subarray(
            [ROWS, 16], [ROWS, 4], [0, 0], FLOAT)),
        ("struct", u_struct),
    ]


def test_equivalent_constructions_share_canonical_key():
    keys = set()
    for _, build in equivalent_grid_builders():
        dt = build().commit()
        entry = dt._entry()
        assert entry is not None
        keys.add(entry.key)
    assert len(keys) == 1
    assert dtir.registry_size() == 1
    (key,) = keys
    assert key == ("sr", 0, ROWS, 16, 64)


def test_equivalent_constructions_share_signature_and_plan():
    sigs = set()
    plans = []
    for _, build in equivalent_grid_builders():
        dt = build().commit()
        sigs.add(dt.layout_signature(1).key())
        plans.append(dt.plan_for(1, 4096))
    assert sigs == {"uniform:w16:p64"}
    assert all(p is plans[0] for p in plans)


def test_fresh_instances_share_one_plan_object():
    a = Datatype.vector(ROWS, 4, 16, FLOAT).commit()
    b = Datatype.vector(ROWS, 4, 16, FLOAT).commit()
    pa = a.plan_for(3, 4096)
    pb = b.plan_for(3, 4096)
    assert pa is pb
    c = Datatype.hvector(ROWS, 1, 64, Datatype.contiguous(4, FLOAT)).commit()
    assert c.plan_for(3, 4096) is pa


def test_collision_and_reuse_counters():
    before = PERF.snapshot()
    for _, build in equivalent_grid_builders():
        build().commit().layout_signature(1)
    delta = {
        k: PERF.counters[k] - before.get(k, 0)
        for k in ("dtir_canon", "dtir_entry_reuse", "dtir_collision")
    }
    assert delta["dtir_canon"] == 4
    assert delta["dtir_entry_reuse"] == 3
    assert delta["dtir_collision"] == 3


def test_irregular_constructions_collapse_too():
    bls = [2, 5, 1, 3]
    disps = [0, 7, 19, 25]
    a = Datatype.hindexed(bls, [d * 4 for d in disps], FLOAT).commit()
    b = Datatype.indexed(bls, disps, FLOAT).commit()
    c = Datatype.struct(bls, [d * 4 for d in disps], [FLOAT] * 4).commit()
    ea, eb, ec = a._entry(), b._entry(), c._entry()
    assert ea is not None and ea is eb and eb is ec
    assert ea.key[0] == "runs"
    assert a.layout_signature(1) == b.layout_signature(1)


def x_face_builders():
    """Three constructions of the interior x face of an 8x6x5 float
    block: 6 x 4 single floats, rows 20 B and planes 120 B apart."""
    return [
        ("subarray", lambda: Datatype.subarray(
            [8, 6, 5], [6, 4, 1], [1, 1, 1], FLOAT)),
        ("indexed_block", lambda: Datatype.indexed_block(
            1, [z * 30 + y * 5 + 1 for z in range(1, 7)
                for y in range(1, 5)], FLOAT)),
        ("struct", lambda: Datatype.struct(
            [1], [144], [Datatype.hvector(
                6, 1, 120, Datatype.vector(4, 1, 5, FLOAT))])),
    ]


def test_grid_constructions_collapse_too():
    sigs = set()
    plans = []
    for _, build in x_face_builders():
        dt = build().commit()
        sigs.add(dt.layout_signature(1).key())
        plans.append(dt.plan_for(1, 4096))
    assert dtir.registry_size() == 1
    assert sigs == {"irregular:w4:n4"}
    assert all(p is plans[0] for p in plans)


def test_resized_and_dup_share_the_base_entry():
    vec = Datatype.vector(ROWS, 4, 16, FLOAT).commit()
    padded = Datatype.resized(vec, 0, vec.extent + 64).commit()
    copy = Datatype.dup(vec).commit()
    assert vec._entry() is padded._entry()
    assert vec._entry() is copy._entry()
    # ...but extent participates where tiling makes it observable:
    assert padded.layout_signature(3) != vec.layout_signature(3)
    assert copy.layout_signature(3) == vec.layout_signature(3)


def test_committed_type_with_entry_survives_pickle():
    """Shard workers pickle datatypes; entries re-bind in-process."""
    vec = Datatype.vector(ROWS, 4, 16, FLOAT).commit()
    assert vec._entry() is not None
    clone = pickle.loads(pickle.dumps(vec))
    assert clone.committed
    assert np.array_equal(clone.segments.offsets, vec.segments.offsets)
    got = clone.segments_for_count(3)
    want = vec.segments_for_count(3)
    assert np.array_equal(got.offsets, want.offsets)
    assert np.array_equal(got.lengths, want.lengths)


# ---------------------------------------------------------------------------
# Interned constructions: one flatten and one key per layout
# ---------------------------------------------------------------------------

#: A 64-block hindexed of irregular float runs with gaps between them.
HIX_BLOCKS = [1 + (7 * i) % 5 for i in range(64)]
HIX_DISPLS = [4 * (12 * i + (5 * i) % 3) for i in range(64)]


def mixed_set():
    """One construction of each kind alltoallv-style codes repeat."""
    return [
        Datatype.hindexed(HIX_BLOCKS, HIX_DISPLS, FLOAT),
        Datatype.subarray([32, 64], [16, 16], [0, 16], FLOAT),
        Datatype.subarray([32, 64], [16, 16], [0, 16], FLOAT, order="F"),
        Datatype.vector(32, 3, 8, FLOAT),
        Datatype.indexed_block(2, [0, 5, 11, 30], FLOAT),
        Datatype.darray(4, 1, [8, 6], [Datatype.DIST_BLOCK,
                                       Datatype.DIST_CYCLIC],
                        [None, None], [2, 2], FLOAT),
    ]


def counts_during(fn, *names):
    before = PERF.snapshot()
    fn()
    return {k: PERF.counters[k] - before.get(k, 0) for k in names}


COUNTS = ("dtype_ctor_hit", "dtype_ctor_miss", "dtir_detect", "dtir_canon",
          "dtir_entry_reuse")


def test_repeated_constructions_skip_flatten_and_detection():
    first = counts_during(lambda: [t.commit() for t in mixed_set()], *COUNTS)
    assert first["dtype_ctor_miss"] == 6 and first["dtype_ctor_hit"] == 0
    assert first["dtir_detect"] == 6
    size = dtir.registry_size()
    second = counts_during(lambda: [t.commit() for t in mixed_set()], *COUNTS)
    assert second == {"dtype_ctor_hit": 6, "dtype_ctor_miss": 0,
                      "dtir_detect": 0, "dtir_canon": 6,
                      "dtir_entry_reuse": 6}
    assert dtir.registry_size() == size


def test_evicted_key_falls_back_to_one_detection():
    vec = Datatype.vector(32, 3, 8, FLOAT).commit()
    again = Datatype.vector(32, 3, 8, FLOAT)
    assert again.segments is vec.segments
    key = vec.segments.canon_key
    for k in range(dtir.REGISTRY_CAP + 1):
        Datatype.hvector(k + 2, 1, 2, BYTE).commit()  # distinct layouts
    assert key not in dtir._REGISTRY
    assert len(dtir._CTORS) <= dtir.REGISTRY_CAP
    delta = counts_during(again.commit, "dtir_detect", "dtir_entry_reuse")
    assert delta == {"dtir_detect": 1, "dtir_entry_reuse": 0}
    entry = again._entry()
    assert entry.key == key and dtir._REGISTRY[key] is entry
    # The fresh entry serves the type that recorded the key, by lookup.
    delta = counts_during(Datatype.dup(vec).commit, "dtir_detect",
                          "dtir_entry_reuse")
    assert delta == {"dtir_detect": 0, "dtir_entry_reuse": 1}


def test_unpickled_segments_bind_after_reset():
    """The shard path: a SegmentList crosses a pickle with its key."""
    vec = Datatype.vector(32, 3, 8, FLOAT).commit()
    key = vec.segments.canon_key
    blob = pickle.dumps(vec)
    dtir.reset_registry()
    clone = pickle.loads(blob)
    delta = counts_during(clone.commit, "dtir_detect")
    assert delta == {"dtir_detect": 1}
    entry = clone._entry()
    assert entry.key == key and dtir._REGISTRY[key] is entry
    assert np.array_equal(entry.segments.offsets, vec.segments.offsets)
    assert np.array_equal(entry.segments.lengths, vec.segments.lengths)

    # After another reset a fresh construction registers the layout
    # first; an unpickled copy then binds that entry by lookup.
    dtir.reset_registry()
    fresh = Datatype.vector(32, 3, 8, FLOAT).commit()
    assert fresh.segments is not vec.segments
    delta = counts_during(pickle.loads(blob).commit, "dtir_detect")
    assert delta == {"dtir_detect": 0}
    assert pickle.loads(blob).commit()._entry() is fresh._entry()


# ---------------------------------------------------------------------------
# One classifier: uniform() and the tuning signature agree on the edges
# ---------------------------------------------------------------------------


def test_zero_width_runs_are_irregular_in_both_views():
    segs = SegmentList(np.array([0, 8], np.int64), np.array([0, 0], np.int64))
    assert segs.uniform() is None
    assert signature_of_segments(segs).kind == "irregular"


def test_single_segment_dual_view():
    segs = SegmentList(np.array([8], np.int64), np.array([16], np.int64))
    assert segs.uniform() == (16, 1, 16)
    assert signature_of_segments(segs).kind == "contig"


def test_classifier_agrees_with_signature_on_uniform():
    segs = SegmentList(
        np.arange(6, dtype=np.int64) * 24, np.full(6, 8, np.int64)
    )
    assert segs.uniform() == (8, 6, 24)
    sig = signature_of_segments(segs)
    assert (sig.kind, sig.width, sig.pitch) == ("uniform", 8, 24)

