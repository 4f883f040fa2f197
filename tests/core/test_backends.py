"""Transfer backends: byte equality, chooser guidelines, counters, clamps."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.vector_latency import mv2_gpu_nc_latency
from repro.core import GpuNcConfig
from repro.core.backends import (
    BACKENDS,
    GUIDELINE_TOLERANCE,
    NIC_DESC_COST,
    NIC_MAX_DESCRIPTORS,
    NIC_RING_OVERHEAD,
    guideline_backend,
    modeled_chunk_cost,
    nic_offload_cost,
)
from repro.hw import Cluster, HardwareConfig, KiB, MiB
from repro.mpi import BYTE, Datatype, MpiWorld
from repro.mpi.pack import pack_bytes
from repro.perf.stats import PERF, PerfStats
from repro.tune import TuningEntry, TuningTable, size_bucket

BACKEND_NAMES = tuple(sorted(BACKENDS))
HW = HardwareConfig.fermi_qdr()


def run_transfer(dtype, count, span, backend=None, tuning=None, shards=1,
                 seed=11):
    """One 2-rank device-device transfer; returns (packed bytes, tracer)."""
    pattern = np.random.default_rng(seed).integers(0, 256, span, np.uint8)
    cluster = Cluster(2, shards=shards)
    gpu_config = GpuNcConfig(backend=backend) if backend else None
    world = MpiWorld(cluster, gpu_config=gpu_config, tuning=tuning)

    def program(ctx):
        buf = ctx.cuda.malloc(span)
        if ctx.rank == 0:
            buf.fill_from(pattern)
            yield from ctx.comm.Send(buf, count, dtype, dest=1)
        else:
            yield from ctx.comm.Recv(buf, count, dtype, source=0)
        return buf

    bufs = world.run(program)
    return pack_bytes(bufs[1], dtype, count), cluster.tracer


@st.composite
def zoo_datatype(draw):
    """A committed strided/irregular datatype with a modest footprint."""
    kind = draw(st.sampled_from(["vector", "hvector", "indexed"]))
    if kind == "vector":
        count = draw(st.integers(2, 200))
        bl = draw(st.integers(1, 8))
        stride = draw(st.integers(bl + 1, bl + 16))
        return Datatype.vector(count, bl, stride, BYTE).commit()
    if kind == "hvector":
        count = draw(st.integers(2, 150))
        bl = draw(st.integers(1, 64))
        stride = draw(st.integers(bl + 1, bl + 128))
        return Datatype.hvector(count, bl, stride, BYTE).commit()
    n = draw(st.integers(2, 24))
    bls = draw(st.lists(st.integers(1, 16), min_size=n, max_size=n))
    displs, cur = [], 0
    for bl in bls:
        cur += draw(st.integers(1, 24))
        displs.append(cur)
        cur += bl
    return Datatype.indexed(bls, displs, BYTE).commit()


class TestByteEquality:
    """Every backend must deliver byte-for-byte identical receive buffers."""

    @settings(max_examples=8, deadline=None)
    @given(dtype=zoo_datatype(), count=st.integers(1, 2))
    def test_backends_identical_bytes(self, dtype, count):
        span = max(dtype.span_for_count(count), 1)
        got = {
            b: run_transfer(dtype, count, span, backend=b)[0]
            for b in BACKEND_NAMES
        }
        for b in BACKEND_NAMES[1:]:
            assert np.array_equal(got[b], got[BACKEND_NAMES[0]]), (
                f"backend {b} delivered different bytes than "
                f"{BACKEND_NAMES[0]} for {dtype}"
            )

    def test_wide_segments_identical_bytes(self):
        # The NIC backend's sweet spot (few wide segments) must still be
        # byte-exact against the pipeline and host paths.
        vec = Datatype.hvector(16, 4 * KiB, 8 * KiB, BYTE).commit()
        span = vec.span_for_count(1)
        got = {
            b: run_transfer(vec, 1, span, backend=b)[0]
            for b in BACKEND_NAMES
        }
        assert all(
            np.array_equal(got[b], got["gpu"]) for b in BACKEND_NAMES
        )


class TestForcedBackends:
    def test_backend_counters_bump(self):
        vec = Datatype.hvector(1024, 4, 8, BYTE).commit()
        for b in BACKEND_NAMES:
            before = PERF.snapshot().get(f"backend_{b}_chunks", 0)
            run_transfer(vec, 1, vec.span_for_count(1), backend=b)
            assert PERF.snapshot().get(f"backend_{b}_chunks", 0) > before

    def test_nic_labels_in_trace(self):
        vec = Datatype.hvector(64, 1 * KiB, 2 * KiB, BYTE).commit()
        _, tracer = run_transfer(vec, 1, vec.span_for_count(1), backend="nic")
        labels = [iv.label for iv in tracer.intervals]
        assert any(lbl.startswith("nic-gather") for lbl in labels)
        assert any(lbl.startswith("nic-scatter") for lbl in labels)

    def test_forced_gpu_matches_default_trace(self):
        # backend="gpu" is the default path spelled explicitly: the two
        # runs must produce bit-identical traces.
        vec = Datatype.hvector(8192, 4, 8, BYTE).commit()
        span = vec.span_for_count(1)
        _, t_default = run_transfer(vec, 1, span)
        _, t_forced = run_transfer(vec, 1, span, backend="gpu")
        assert t_default.intervals == t_forced.intervals

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            GpuNcConfig(backend="smoke-signals")


class TestNicCostModel:
    def segs(self, count, total):
        return SimpleNamespace(count=count, total_bytes=total)

    def test_cost_formula(self):
        got = nic_offload_cost(HW, self.segs(10, 40 * KiB))
        want = (NIC_RING_OVERHEAD + 10 * NIC_DESC_COST
                + 40 * KiB / HW.pcie_bandwidth)
        assert got == pytest.approx(want)

    def test_descriptor_ring_batches(self):
        base = nic_offload_cost(HW, self.segs(NIC_MAX_DESCRIPTORS, 1024))
        spill = nic_offload_cost(HW, self.segs(NIC_MAX_DESCRIPTORS + 1, 1024))
        assert spill - base == pytest.approx(NIC_RING_OVERHEAD + NIC_DESC_COST)

    def test_empty_range_costs_overhead_only(self):
        assert nic_offload_cost(HW, self.segs(0, 0)) == HW.pcie_copy_overhead

    def test_modeled_cost_rejects_unknown(self):
        vec = Datatype.hvector(16, 4, 8, BYTE).commit()
        with pytest.raises(ValueError, match="backend"):
            modeled_chunk_cost("carrier-pigeon", HW, vec, 1, 0, 64)


#: ``modeled_chunk_cost`` of each backend, as ``float.hex()``, for a
#: (layout, lo, hi) chunk: the chooser's model must not drift.
MODELED = {
    "fine": ((16 * 1024, 4, 8), 0, 64 * KiB, {
        "gpu": "0x1.9c3f4fc9eb60dp-13", "host": "0x1.23cabe875c29cp-8",
        "nic": "0x1.0d53801dc5396p-9"}),
    "wide": ((16, 4 * KiB, 8 * KiB), 0, 64 * KiB, {
        "gpu": "0x1.13f11f89ad7d4p-15", "host": "0x1.1517ee041440bp-15",
        "nic": "0x1.f883220691a1ep-17"}),
    "indexed": (None, 2, 11, {
        "gpu": "0x1.502d79deb9dc6p-16", "host": "0x1.86239f573ecd6p-18",
        "nic": "0x1.a332d5715c66cp-20"}),
    "contig": (4096, 0, 4096, {
        "gpu": "0x1.5ce5d3d8c474bp-16", "host": "0x1.8185a9bd332dep-18",
        "nic": "0x1.151f7d2809c26p-19"}),
}


@pytest.mark.parametrize("layout", sorted(MODELED))
def test_modeled_chunk_cost_pinned(layout):
    shape, lo, hi, want = MODELED[layout]
    if layout == "indexed":
        dtype = Datatype.indexed([3, 1, 7, 2], [0, 5, 9, 30], BYTE)
    elif layout == "contig":
        dtype = Datatype.contiguous(shape, BYTE)
    else:
        dtype = Datatype.hvector(*shape, BYTE)
    dtype.commit()
    got = {b: modeled_chunk_cost(b, HW, dtype, 1, lo, hi).hex()
           for b in BACKEND_NAMES}
    assert got == want


class TestChooserGuideline:
    """The chooser never picks a backend whose modeled cost is out of
    guideline tolerance against the default -- whatever was measured."""

    FINE = Datatype.hvector(16 * 1024, 4, 8, BYTE).commit()
    WIDE = Datatype.hvector(16, 4 * KiB, 8 * KiB, BYTE).commit()

    @settings(max_examples=20, deadline=None)
    @given(
        lat=st.tuples(*[st.floats(1e-7, 1e-2) for _ in range(3)]),
        wide=st.booleans(),
        chunk=st.sampled_from([16 * KiB, 64 * KiB]),
    )
    def test_modeled_veto_property(self, lat, wide, chunk):
        dtype = self.WIDE if wide else self.FINE
        measured = dict(zip(BACKEND_NAMES, lat))
        chosen = guideline_backend(HW, dtype, 1, chunk, measured)
        if chosen == "gpu":
            return
        total = dtype.segments_for_count(1).total_bytes
        hi = max(min(chunk, total), 1)
        base = modeled_chunk_cost("gpu", HW, dtype, 1, 0, hi)
        assert modeled_chunk_cost(chosen, HW, dtype, 1, 0, hi) <= \
            base * (1.0 + GUIDELINE_TOLERANCE)

    def test_fake_measurement_vetoed(self):
        # host "measures" 100x faster on a fine layout, but its modeled
        # strided-PCIe cost is far out of tolerance: the guard keeps gpu.
        before = PERF.snapshot().get("tune_backend_guard", 0)
        measured = {"gpu": 1e-3, "host": 1e-5, "nic": 1e-5}
        assert guideline_backend(HW, self.FINE, 1, 64 * KiB, measured) == "gpu"
        assert PERF.snapshot().get("tune_backend_guard", 0) > before

    def test_wide_layout_prefers_nic(self):
        # On wide segments the NIC's modeled cost really is lower, so a
        # genuinely better measurement is allowed through.
        measured = {"gpu": 1e-4, "host": 9e-5, "nic": 2e-5}
        assert guideline_backend(HW, self.WIDE, 1, 64 * KiB,
                                 measured) == "nic"


def backend_table(sig, bucket, backend, chunk=64 * KiB):
    table = TuningTable("test")
    table.set(sig, bucket, TuningEntry(
        chunk_bytes=chunk, pipeline_threshold=min(chunk, 64 * KiB),
        tbuf_chunks=64, use_plans=True, backend=backend,
    ))
    return table


class TestTunedBackendChooser:
    def test_table_routes_to_nic(self):
        size = 64 * KiB
        vec = Datatype.hvector(size // (4 * KiB), 4 * KiB, 8 * KiB,
                               BYTE).commit()
        table = backend_table(vec.layout_signature(1), size_bucket(size),
                              "nic")
        before = PERF.snapshot().get("backend_nic_chunks", 0)
        default = mv2_gpu_nc_latency(size, elem_bytes=4 * KiB, iterations=2)
        tuned = mv2_gpu_nc_latency(size, elem_bytes=4 * KiB, iterations=2,
                                   tuning=table)
        assert PERF.snapshot().get("backend_nic_chunks", 0) > before
        assert tuned < default

    def test_forced_config_beats_table(self):
        # An explicit GpuNcConfig(backend=...) wins over the table's pick.
        size = 64 * KiB
        vec = Datatype.hvector(size // (4 * KiB), 4 * KiB, 8 * KiB,
                               BYTE).commit()
        table = backend_table(vec.layout_signature(1), size_bucket(size),
                              "nic")
        before = PERF.snapshot().get("backend_nic_chunks", 0)
        mv2_gpu_nc_latency(size, elem_bytes=4 * KiB, iterations=1,
                           tuning=table, gpu_config=GpuNcConfig(backend="host"))
        assert PERF.snapshot().get("backend_nic_chunks", 0) == before

    def test_peer_pool_clamps_tuned_chunk(self):
        # Satellite: the tuned chunk preference is clamped against BOTH
        # endpoints' vbuf pools -- shrink only the sender's view of its
        # peer and the clamp counter must fire.
        size = 256 * KiB
        vec = Datatype.hvector(size // 4, 4, 8, BYTE).commit()
        table = backend_table(vec.layout_signature(1), size_bucket(size),
                              "gpu", chunk=128 * KiB)
        pattern = np.random.default_rng(3).integers(0, 256, size * 2,
                                                    np.uint8)
        cluster = Cluster(2)
        world = MpiWorld(cluster, tuning=table)
        world.endpoints[0].peer_vbuf_bytes = 8 * KiB

        def program(ctx):
            buf = ctx.cuda.malloc(size * 2)
            if ctx.rank == 0:
                buf.fill_from(pattern)
                yield from ctx.comm.Send(buf, 1, vec, dest=1)
            else:
                yield from ctx.comm.Recv(buf, 1, vec, source=0)
            return buf

        before = PERF.snapshot().get("tune_chunk_clamped", 0)
        bufs = world.run(program)
        assert PERF.snapshot().get("tune_chunk_clamped", 0) > before
        assert np.array_equal(pack_bytes(bufs[1], vec, 1),
                              pack_bytes(bufs[0], vec, 1))

    @pytest.mark.parametrize("device", [True, False])
    def test_contiguous_bypass_counted(self, device):
        # Contiguous sends skip the table on purpose (device engine path
        # and host protocol path alike); the bypass is counted and no
        # lookup traffic is generated.
        table = backend_table(
            Datatype.hvector(1024, 4, 8, BYTE).commit().layout_signature(1),
            64 * KiB, "gpu")
        cluster = Cluster(2)
        world = MpiWorld(cluster, tuning=table)

        def program(ctx):
            alloc = ctx.cuda.malloc if device else ctx.node.malloc_host
            buf = alloc(128 * KiB)
            if ctx.rank == 0:
                yield from ctx.comm.Send(buf, 128 * KiB, BYTE, dest=1)
            else:
                yield from ctx.comm.Recv(buf, 128 * KiB, BYTE, source=0)

        before = PERF.snapshot()
        world.run(program)
        after = PERF.snapshot()
        assert after.get("tune_contig_bypass", 0) > \
            before.get("tune_contig_bypass", 0)
        for name in ("tune_lookup_hit", "tune_lookup_miss"):
            assert after.get(name, 0) == before.get(name, 0)


class TestPartitionInvariantCounters:
    """Satellite regression: tune/backend counters (and thus the footers)
    must not depend on how ranks were partitioned into shards."""

    def deltas(self, shards):
        size = 64 * KiB
        vec = Datatype.hvector(size // (4 * KiB), 4 * KiB, 8 * KiB,
                               BYTE).commit()
        table = backend_table(vec.layout_signature(1), size_bucket(size),
                              "nic")
        before = PERF.snapshot()
        mv2_gpu_nc_latency(size, elem_bytes=4 * KiB, iterations=2,
                           tuning=table, shards=shards)
        after = PERF.snapshot()
        names = set(PerfStats.TUNE_COUNTERS) | set(PerfStats.BACKEND_COUNTERS)
        return {n: after.get(n, 0) - before.get(n, 0) for n in sorted(names)}

    def test_tune_counters_shard_invariant(self):
        sequential = self.deltas(shards=1)
        sharded = self.deltas(shards=2)
        assert sequential == sharded
        assert sequential["tune_lookup_hit"] > 0
        assert sequential["backend_nic_chunks"] > 0

    def test_footers_shard_invariant(self):
        footers = []
        for shards in (1, 2):
            stats = PerfStats()
            stats.merge(self.deltas(shards=shards))
            footers.append((stats.tune_footer(), stats.backend_footer()))
        assert footers[0] == footers[1]
