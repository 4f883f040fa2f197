"""Tests for arenas, allocators and buffer pointers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import ALIGNMENT, Arena, InvalidPointerError, OutOfMemoryError


@pytest.fixture
def arena():
    return Arena(1 << 20, space="device", name="test")


class TestArenaBasics:
    def test_invalid_size(self):
        with pytest.raises(ValueError):
            Arena(0, space="device")

    def test_invalid_space(self):
        with pytest.raises(ValueError):
            Arena(1024, space="gpu")

    def test_alloc_returns_aligned_offsets(self, arena):
        ptrs = [arena.alloc(100) for _ in range(5)]
        for p in ptrs:
            assert p.offset % ALIGNMENT == 0
        assert len({p.offset for p in ptrs}) == 5

    def test_alloc_zero_rejected(self, arena):
        with pytest.raises(ValueError):
            arena.alloc(0)

    def test_allocations_do_not_overlap(self, arena):
        a = arena.alloc(1000)
        b = arena.alloc(1000)
        assert a.end <= b.offset or b.end <= a.offset

    def test_out_of_memory(self):
        small = Arena(1024, space="host")
        small.alloc(512)
        with pytest.raises(OutOfMemoryError):
            small.alloc(1024)

    def test_free_enables_reuse(self, arena):
        a = arena.alloc(arena.size // 2)
        with pytest.raises(OutOfMemoryError):
            arena.alloc(arena.size // 2 + ALIGNMENT)
        arena.free(a)
        arena.alloc(arena.size // 2)  # fits again

    def test_double_free_rejected(self, arena):
        a = arena.alloc(100)
        arena.free(a)
        with pytest.raises(InvalidPointerError):
            arena.free(a)

    def test_free_foreign_pointer_rejected(self, arena):
        other = Arena(1024, space="device")
        p = other.alloc(100)
        with pytest.raises(InvalidPointerError):
            arena.free(p)

    def test_free_subpointer_rejected(self, arena):
        a = arena.alloc(1000)
        with pytest.raises(InvalidPointerError):
            arena.free(a.sub(0, 100))

    def test_accounting(self, arena):
        assert arena.allocated_bytes == 0
        a = arena.alloc(100)
        assert arena.allocated_bytes == ALIGNMENT  # rounded up
        assert arena.num_allocations == 1
        arena.free(a)
        assert arena.allocated_bytes == 0
        assert arena.free_bytes == arena.size

    def test_coalescing_restores_full_hole(self, arena):
        ptrs = [arena.alloc(1000) for _ in range(10)]
        # Free in a scrambled order; holes must coalesce back to one span.
        for i in (3, 1, 4, 0, 9, 5, 2, 8, 6, 7):
            arena.free(ptrs[i])
        assert arena.free_bytes == arena.size
        arena.alloc(arena.size)  # whole arena must be allocatable again


class TestBufferPtr:
    def test_view_roundtrip(self, arena):
        p = arena.alloc(64)
        p.view(np.float32)[:] = np.arange(16, dtype=np.float32)
        assert np.array_equal(p.to_array(np.float32), np.arange(16, dtype=np.float32))

    def test_view_is_zero_copy(self, arena):
        p = arena.alloc(16)
        v1 = p.view()
        v1[0] = 0xAB
        assert p.view()[0] == 0xAB

    def test_view_dtype_mismatch(self, arena):
        p = arena.alloc(10)
        with pytest.raises(ValueError):
            p.view(np.float64)

    def test_sub_pointer(self, arena):
        p = arena.alloc(100)
        p.view()[:] = np.arange(100, dtype=np.uint8)
        s = p.sub(10, 20)
        assert np.array_equal(s.view(), np.arange(10, 30, dtype=np.uint8))

    def test_sub_defaults_to_rest(self, arena):
        p = arena.alloc(100)
        assert p.sub(40).nbytes == 60

    def test_sub_out_of_range(self, arena):
        p = arena.alloc(100)
        with pytest.raises(ValueError):
            p.sub(90, 20)
        with pytest.raises(ValueError):
            p.sub(-1, 5)

    def test_fill_from_size_check(self, arena):
        p = arena.alloc(16)
        with pytest.raises(ValueError):
            p.fill_from(np.zeros(5, dtype=np.uint8))

    def test_fill_from_multidim(self, arena):
        p = arena.alloc(24)
        data = np.arange(6, dtype=np.float32).reshape(2, 3)
        p.fill_from(data)
        assert np.array_equal(p.to_array(np.float32, (2, 3)), data)

    def test_space_property(self, arena):
        assert arena.alloc(8).space == "device"


class TestStridedView:
    def test_strided_view_shape_and_content(self, arena):
        p = arena.alloc(64)
        p.view()[:] = np.arange(64, dtype=np.uint8)
        v = arena.strided_view(p.offset, pitch=16, width=4, height=3)
        assert v.shape == (3, 4)
        assert v[1, 0] == 16 and v[2, 3] == 35

    def test_strided_view_write_through(self, arena):
        p = arena.alloc(64)
        v = arena.strided_view(p.offset, pitch=16, width=4, height=4)
        v[:] = 7
        raw = p.view()
        assert raw[0] == 7 and raw[4] == 0 and raw[16] == 7

    def test_bounds_check(self, arena):
        with pytest.raises(InvalidPointerError):
            arena.strided_view(arena.size - 10, pitch=16, width=8, height=2)

    def test_last_partial_row_allowed(self, arena):
        # (height-1)*pitch + width fits even though height*pitch would not.
        off = arena.size - (2 * 16 + 8)
        arena.strided_view(off, pitch=16, width=8, height=3)

    def test_empty_view(self, arena):
        v = arena.strided_view(0, pitch=16, width=0, height=0)
        assert v.size == 0


@settings(max_examples=50)
@given(
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=4096), st.booleans()),
        min_size=1,
        max_size=60,
    )
)
def test_allocator_never_overlaps_and_always_coalesces(ops):
    """Property: random alloc/free sequences keep invariants intact."""
    arena = Arena(1 << 20, space="host")
    live = []
    for size, do_free in ops:
        if do_free and live:
            arena.free(live.pop(len(live) // 2))
        else:
            try:
                live.append(arena.alloc(size))
            except OutOfMemoryError:
                pass
        spans = sorted((p.offset, p.end) for p in live)
        for (o1, e1), (o2, _) in zip(spans, spans[1:]):
            assert e1 <= o2, "allocations overlap"
    for p in live:
        arena.free(p)
    assert arena.free_bytes == arena.size
    assert arena.num_allocations == 0


_RSS_PROBE = """
import resource
from repro.hw import Cluster
from repro.mpi import MpiWorld
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
world = MpiWorld(Cluster(4))
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(after - before)
"""


def peak_rss_growth_kib(probe: str) -> int:
    """Run ``probe`` in a fresh interpreter and return what it prints: the
    growth of its peak RSS, in KiB (``ru_maxrss`` is KiB on Linux)."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, check=True,
        capture_output=True, text=True,
    )
    return int(out.stdout.strip())


def test_default_cluster_peak_rss_tracks_touched_bytes():
    """The default arenas model 12 GiB of host memory per node (and 3 GiB
    per GPU) but commit pages only on first touch, at base-page
    granularity: building a 4-node cluster and its MPI world at the
    default config must not grow peak RSS by more than a few MiB, and must
    not fail where the kernel refuses to overcommit an eager 12 GiB
    allocation."""
    grown_kib = peak_rss_growth_kib(_RSS_PROBE)
    assert grown_kib < 16 * 1024, f"peak RSS grew {grown_kib} KiB"


_SPARSE_PROBE = """
import resource
from repro.hw import Cluster, MiB
cluster = Cluster(1)
raw = cluster.nodes[0].gpu.malloc(64 * MiB).view()
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
for k in range(32):
    raw[k * 2 * MiB] = 1
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(after - before)
"""


def test_sparse_touches_commit_base_pages():
    """32 one-byte writes 2 MiB apart into a default device allocation
    commit 32 base pages, not 32 huge pages (64 MiB where transparent
    huge pages back the arena)."""
    grown_kib = peak_rss_growth_kib(_SPARSE_PROBE)
    assert grown_kib < 4 * 1024, f"peak RSS grew {grown_kib} KiB"
