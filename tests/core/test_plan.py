"""Compiled transfer plans: the one path every strided device chunk takes.

Three layers of guarantee:

* property test -- the plan's fused gather/scatter primitives produce
  exactly the bytes of the reference chunked pack path
  (``pack_range_bytes``/``unpack_range_from``) for random datatypes and
  random chunk sizes;
* end-to-end -- a pipelined MPI transfer writes exactly the bytes of the
  slice-loop oracle of ``tests/mpi/test_pack.py`` for every src/dst
  host/device combination, and so do a partial-size strided receive into
  device memory (on every backend) and an eager host-to-device strided
  receive (offloaded and on the host backend), each replaying a prefix
  plan;
* recovery neutrality -- arming the recovery layer on a clean fabric
  moves no traced interval and not the final clock.

The Figure 3 schedule itself is pinned by the golden trace digests.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import StencilConfig, run_stencil
from repro.core import GpuNcConfig
from repro.core.backends import contiguous_copy_cost
from repro.core.gpu_pack import gpu_pack_cost
from repro.core.plan import TransferPlan
from repro.hw import Cluster, HardwareConfig, KiB, MiB
from repro.hw.memory import Arena
from repro.mpi import BYTE, FLOAT, Datatype, MpiWorld, dtir
from repro.mpi.datatype import DatatypeError
from repro.mpi.pack import pack_bytes, pack_range_bytes, unpack_range_from
from repro.perf.stats import PERF
from repro.sim import Environment
from tests.mpi.test_pack import slice_gather, slice_scatter


# -- plan primitives vs the reference chunked pack path -------------------------

@st.composite
def plan_datatype(draw):
    """A committed datatype: contiguous or strided, modest footprint."""
    base = Datatype.named(np.uint8)
    kind = draw(st.sampled_from(
        ["contiguous", "vector", "hvector", "indexed", "struct", "subarray"]
    ))
    if kind == "contiguous":
        return Datatype.contiguous(draw(st.integers(1, 512)), base).commit()
    if kind == "vector":
        count = draw(st.integers(1, 200))
        bl = draw(st.integers(1, 8))
        stride = draw(st.integers(bl, bl + 16))
        return Datatype.vector(count, bl, stride, base).commit()
    if kind == "hvector":
        count = draw(st.integers(1, 150))
        bl = draw(st.integers(1, 16))
        stride = draw(st.integers(bl, bl + 48))
        return Datatype.hvector(count, bl, stride, base).commit()
    if kind == "indexed":
        n = draw(st.integers(1, 16))
        bls = draw(st.lists(st.integers(1, 8), min_size=n, max_size=n))
        displs, cur = [], 0
        for bl in bls:
            cur += draw(st.integers(0, 12))
            displs.append(cur)
            cur += bl
        return Datatype.indexed(bls, displs, base).commit()
    if kind == "struct":
        n = draw(st.integers(1, 6))
        bls = draw(st.lists(st.integers(1, 8), min_size=n, max_size=n))
        displs, cur = [], 0
        for bl in bls:
            cur += draw(st.integers(0, 12))
            displs.append(cur)
            cur += bl
        return Datatype.struct(bls, displs, [base] * n).commit()
    rows = draw(st.integers(2, 32))
    cols = draw(st.integers(2, 32))
    sub_r = draw(st.integers(1, rows))
    sub_c = draw(st.integers(1, cols))
    start_r = draw(st.integers(0, rows - sub_r))
    start_c = draw(st.integers(0, cols - sub_c))
    return Datatype.subarray(
        [rows, cols], [sub_r, sub_c], [start_r, start_c], base
    ).commit()


@settings(max_examples=60, deadline=None)
@given(plan_datatype(), st.integers(1, 3), st.data())
def test_plan_gather_scatter_matches_reference(dtype, count, data):
    """Every chunk's fused gather/scatter equals the legacy two-hop path."""
    total = dtype.size * count
    chunk_bytes = data.draw(st.integers(1, max(1, total)), label="chunk_bytes")
    plan = TransferPlan.compile(dtype, count, chunk_bytes)
    assert plan.total == total
    assert plan.nchunks == len(plan.chunks)
    assert plan.chunks[-1].hi == total

    span = max(dtype.span_for_count(count), 1)
    room = -(-span // 256) * 256  # allocations are 256-byte aligned
    rng = np.random.default_rng(total * 31 + chunk_bytes)
    src_arena = Arena(room, "host", "plan-src")
    src = src_arena.alloc(span)
    src.view()[:] = rng.integers(0, 256, span, dtype=np.uint8)

    dst_arena = Arena(room, "host", "plan-dst")
    ref_arena = Arena(room, "host", "plan-ref")
    dst = dst_arena.alloc(span)
    ref = ref_arena.alloc(span)

    scratch = np.empty(chunk_bytes, dtype=np.uint8)
    for cp in plan.chunks:
        expected = pack_range_bytes(src, dtype, count, cp.lo, cp.hi)
        cp.gather_into(src, scratch)
        assert np.array_equal(scratch[: cp.nbytes], expected)
        # Scatter the packed chunk both ways and compare the *whole*
        # arena afterwards: the fused path must write exactly the bytes
        # the reference writes, and no others.
        cp.scatter_from(scratch, dst)
        staged_arena = Arena(-(-max(cp.nbytes, 1) // 256) * 256,
                             "host", "plan-stage")
        staged = staged_arena.alloc(max(cp.nbytes, 1))
        staged.view()[: cp.nbytes] = expected
        unpack_range_from(staged.sub(0, cp.nbytes), dtype, count, ref,
                          cp.lo, cp.hi)
    assert np.array_equal(dst_arena.raw, ref_arena.raw)


def _short_buffer_replay():
    """A chunk of an 80-float column replayed against a 64-byte buffer,
    with a 64-byte neighbour allocated right after it."""
    col = Datatype.vector(80, 1, 4, FLOAT).commit()
    (chunk,) = TransferPlan.compile(col, 1, col.size).chunks
    arena = Arena(4096, "device", "plan-short")
    buf = arena.alloc(64)
    neighbour = arena.alloc(64)
    neighbour.view()[:] = 0x5A
    return chunk, buf, neighbour


def test_plan_gather_rejects_a_buffer_shorter_than_its_layout():
    chunk, buf, _ = _short_buffer_replay()
    with pytest.raises(DatatypeError):
        chunk.gather_into(buf, np.empty(chunk.nbytes, np.uint8))


def test_plan_scatter_rejects_a_buffer_shorter_than_its_layout():
    chunk, buf, neighbour = _short_buffer_replay()
    with pytest.raises(DatatypeError):
        chunk.scatter_from(np.zeros(chunk.nbytes, np.uint8), buf)
    assert (neighbour.view() == 0x5A).all()


def test_plan_cache_reuses_compiled_plans():
    vec = Datatype.hvector(64, 4, 8, BYTE).commit()
    p1 = vec.plan_for(2, 128)
    p2 = vec.plan_for(2, 128)
    assert p1 is p2
    # The default byte length is the whole footprint, so it shares the key.
    assert vec.plan_for(2, 128, vec.size * 2) is p1
    # A different chunk size is a different plan (the _chunking fix keys
    # the cache on the granted chunk size).
    p3 = vec.plan_for(2, 64)
    assert p3 is not p1 and p3.nchunks == 2 * p1.nchunks


def test_costs_for_memoizes_per_config():
    """Stage costs are memoized per config, for callers that alternate
    configs as well as for the one-config run."""
    vec = Datatype.hvector(64, 4, 8, BYTE).commit()
    plan = vec.plan_for(2, 128)
    paper = HardwareConfig.fermi_qdr()
    slow = paper.with_overrides(pcie_bandwidth=paper.pcie_bandwidth / 2)
    first = plan.costs_for(paper, contiguous_copy_cost)
    assert plan.costs_for(paper, contiguous_copy_cost) is first
    other = plan.costs_for(slow, contiguous_copy_cost)
    assert other != first
    assert plan.costs_for(paper, contiguous_copy_cost) is first
    assert plan.costs_for(slow, contiguous_copy_cost) is other
    assert plan.costs_for(paper, gpu_pack_cost) == [
        gpu_pack_cost(paper, cp.segs) for cp in plan.chunks]


def test_steady_stencil_hashes_no_config(monkeypatch):
    """A run asks every plan's stage costs under one config object, so
    once a batch has warmed the plans, a repeated batch hashes the
    28-field config not once (it hashed it three times per message)."""
    hw = HardwareConfig.fermi_qdr().with_overrides(
        host_memory_bytes=64 * MiB, device_memory_bytes=64 * MiB)
    cfg = StencilConfig(4, 4, 64, 4096, iterations=2, functional=False)
    run_stencil(cfg, hw=hw)
    hashes = [0]
    plain = HardwareConfig.__hash__

    def counting_hash(self):
        hashes[0] += 1
        return plain(self)

    monkeypatch.setattr(HardwareConfig, "__hash__", counting_hash)
    run_stencil(cfg, hw=hw)
    assert hashes[0] == 0


def test_prefix_plan_covers_the_first_bytes():
    """A shorter byte length compiles the full plan's leading chunks and
    cuts the last one at the length."""
    vec = Datatype.hvector(100, 12, 20, BYTE).commit()
    full = vec.plan_for(3, 1000)
    part = vec.plan_for(3, 1000, 2501)
    assert part is not full
    assert (part.total, part.nchunks, part.kind) == (2501, 3, "strided")
    assert [(cp.lo, cp.hi) for cp in part.chunks] == [
        (0, 1000), (1000, 2000), (2000, 2501)]
    for cp, whole in zip(part.chunks[:2], full.chunks):
        assert np.array_equal(cp.segs.offsets, whole.segs.offsets)
        assert np.array_equal(cp.segs.lengths, whole.segs.lengths)
    last = part.chunks[-1]
    assert last.segs.total_bytes == 501
    assert last.unpack_label == "gpu-unpack[2000:2501]"
    for bad in (-1, vec.size * 3 + 1):
        with pytest.raises(ValueError):
            TransferPlan.compile(vec, 3, 1000, bad)


def _cached(dtype, count, chunk_bytes, nbytes) -> bool:
    """Whether the plan of this shape is already in the plan cache."""
    hits = PERF.counters["plan_cache_hit"]
    dtype.plan_for(count, chunk_bytes, nbytes)
    return PERF.counters["plan_cache_hit"] == hits + 1


# -- end-to-end bytes against the slice-loop oracle ------------------------------

ROWS = 1 << 13  # 32 KiB packed / 64 KiB span: rendezvous + pipelined
VEC_RUNS = [(r * 8, 4) for r in range(ROWS)]


@pytest.mark.parametrize("src_dev", [False, True])
@pytest.mark.parametrize("dst_dev", [False, True])
def test_transfer_bytes_match_slice_oracle(src_dev, dst_dev):
    vec = Datatype.hvector(ROWS, 4, 8, BYTE).commit()
    span = ROWS * 8
    rng = np.random.default_rng(20110926)
    payload = rng.integers(0, 256, span, dtype=np.uint8)
    background = rng.integers(0, 256, span, dtype=np.uint8)

    def program(ctx):
        dev = src_dev if ctx.rank == 0 else dst_dev
        buf = ctx.cuda.malloc(span) if dev else ctx.node.malloc_host(span)
        if ctx.rank == 0:
            buf.view()[:] = payload
            yield from ctx.comm.Send(buf, 1, vec, dest=1)
        else:
            buf.view()[:] = background
            yield from ctx.comm.Recv(buf, 1, vec, source=0)
            return buf.view().copy()

    got = MpiWorld(Cluster(2)).run(program)[1]
    expected = background.copy()
    slice_scatter(expected, VEC_RUNS,
                  slice_gather(payload, VEC_RUNS, 0, ROWS * 4), 0)
    assert np.array_equal(got, expected)


def test_device_pair_compiles_one_plan():
    """Sender and receiver of a device-to-device transfer replay the same
    plan: the cache key holds no buffer kinds."""
    dtir.reset_registry()
    vec = Datatype.hvector(ROWS, 4, 8, BYTE).commit()

    def program(ctx):
        buf = ctx.cuda.malloc(ROWS * 8)
        if ctx.rank == 0:
            yield from ctx.comm.Send(buf, 1, vec, dest=1)
        else:
            yield from ctx.comm.Recv(buf, 1, vec, source=0)

    misses = PERF.counters["plan_cache_miss"]
    hits = PERF.counters["plan_cache_hit"]
    MpiWorld(Cluster(2)).run(program)
    assert PERF.counters["plan_cache_miss"] == misses + 1
    assert PERF.counters["plan_cache_hit"] == hits + 1


#: Receive type of the partial-size tests: 3000-byte elements of 250
#: 12-byte blocks at a 20-byte stride.
PART_TYPE = (250, 12, 20)


def _part_runs(rtype, count):
    nrows, block, stride = PART_TYPE
    return [(k * rtype.extent + r * stride, block)
            for k in range(count) for r in range(nrows)]


def _receive_into_device(rtype, count, total, src_dev, gpu_config):
    """Send ``total`` contiguous bytes into ``count`` x ``rtype`` of
    device memory; returns (payload, receive buffer before, after)."""
    span = rtype.span_for_count(count)
    rng = np.random.default_rng(total)
    payload = rng.integers(0, 256, total, dtype=np.uint8)
    background = rng.integers(0, 256, span, dtype=np.uint8)

    def program(ctx):
        if ctx.rank == 0:
            buf = (ctx.cuda.malloc(total) if src_dev
                   else ctx.node.malloc_host(total))
            buf.view()[:] = payload
            yield from ctx.comm.Send(buf, total, BYTE, dest=1)
        else:
            buf = ctx.cuda.malloc(span)
            buf.view()[:] = background
            status = yield from ctx.comm.Recv(buf, count, rtype, source=0)
            assert status.count_bytes == total
            return buf.view().copy()

    got = MpiWorld(Cluster(2), gpu_config=gpu_config).run(program)[1]
    return payload, background, got


@pytest.mark.parametrize("backend", ["gpu", "host", "nic"])
def test_partial_strided_device_receive_matches_slice_oracle(backend):
    """A rendezvous message shorter than the posted receive fills the
    receive type map from its start and leaves every later byte alone."""
    rtype = Datatype.hvector(*PART_TYPE, BYTE).commit()
    count, chunk = 64, 64 * KiB
    total = 50 * rtype.size + 7  # mid-element, mid-block
    assert total // chunk >= 2 and total % chunk  # 3 chunks, mid-chunk
    payload, background, got = _receive_into_device(
        rtype, count, total, src_dev=True,
        gpu_config=GpuNcConfig(backend=backend),
    )
    expected = background.copy()
    slice_scatter(expected, _part_runs(rtype, count), payload, 0)
    assert np.array_equal(got, expected)
    assert _cached(rtype, count, chunk, total)


@pytest.mark.parametrize("offload", [True, False])
def test_eager_strided_device_receive_matches_slice_oracle(offload):
    """Eager host-to-device delivery into a strided device receive, in
    three chunks, the last one ending mid-element."""
    rtype = Datatype.hvector(*PART_TYPE, BYTE).commit()
    count, chunk = 3, 2 * KiB
    total = 2 * rtype.size + 7
    payload, background, got = _receive_into_device(
        rtype, count, total, src_dev=False,
        gpu_config=GpuNcConfig(chunk_bytes=chunk,
                               backend="gpu" if offload else "host"),
    )
    expected = background.copy()
    slice_scatter(expected, _part_runs(rtype, count), payload, 0)
    assert np.array_equal(got, expected)
    assert _cached(rtype, count, chunk, total)


# -- recovery layer armed but fault-free: schedule must be untouched -------------

def _fig3_trace(recovery=None):
    """One pipelined strided transfer; returns (intervals, final clock)."""
    rows = 1 << 14
    vec = Datatype.hvector(rows, 4, 8, BYTE).commit()
    env = Environment()
    cluster = Cluster(2, env=env)

    def program(ctx):
        buf = ctx.cuda.malloc(rows * 8)
        if ctx.rank == 0:
            buf.view()[:] = 7
            yield from ctx.comm.Send(buf, 1, vec, dest=1)
        else:
            yield from ctx.comm.Recv(buf, 1, vec, source=0)
            return pack_bytes(buf, vec, 1)

    world = MpiWorld(cluster, recovery=recovery)
    delivered = world.run(program)[1]
    assert np.all(delivered == 7)
    return cluster.tracer.intervals, env.now


def test_fig3_trace_identical_with_recovery_armed():
    """Arming the retry/watchdog layer on a clean fabric is schedule-neutral.

    The recovery machinery adds pending timeouts and bookkeeping but must
    not move a single traced interval or the final clock: the paper-figure
    runs (faults disabled) stay bit-identical whether or not the layer is
    armed.
    """
    from repro.core.config import RecoveryConfig

    armed_ivs, armed_now = _fig3_trace(recovery=RecoveryConfig())
    ref_ivs, ref_now = _fig3_trace()
    assert armed_now == ref_now
    assert armed_ivs == ref_ivs


def test_fig5_host_rendezvous_trace_identical_with_recovery_armed():
    """Same neutrality for the host rendezvous path (fig5 baselines)."""
    from repro.core.config import RecoveryConfig

    def trace(recovery):
        n = 1 << 16  # above eager threshold: staged host rendezvous
        env = Environment()
        cluster = Cluster(2, env=env)

        def program(ctx):
            buf = ctx.node.malloc_host(n)
            if ctx.rank == 0:
                buf.view()[:] = 3
                yield from ctx.comm.Send(buf, n, BYTE, dest=1)
            else:
                yield from ctx.comm.Recv(buf, n, BYTE, source=0)
                return buf.view().copy()

        world = MpiWorld(cluster, recovery=recovery)
        delivered = world.run(program)[1]
        assert np.all(delivered == 3)
        return cluster.tracer.intervals, env.now

    armed_ivs, armed_now = trace(RecoveryConfig())
    ref_ivs, ref_now = trace(None)
    assert armed_now == ref_now
    assert armed_ivs == ref_ivs
