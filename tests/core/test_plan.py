"""Compiled transfer plans: replay must be byte- and trace-identical.

Three layers of guarantee:

* property test -- the plan's fused gather/scatter primitives produce
  exactly the bytes of the reference chunked pack path
  (``pack_range_bytes``/``unpack_range_from``) for random datatypes and
  random chunk sizes;
* end-to-end -- a pipelined MPI transfer delivers identical bytes with
  plans on and off, for every src/dst host/device combination;
* trace equality -- the Figure 3 pipelined transfer produces the *same
  simulated schedule* (every traced interval, and the final clock) with
  plans + event pooling enabled as with both disabled. The optimizations
  are wall-clock only.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GpuNcConfig
from repro.core.plan import TransferPlan
from repro.hw import Cluster
from repro.hw.memory import Arena
from repro.mpi import BYTE, FLOAT, Datatype, MpiWorld
from repro.mpi.datatype import DatatypeError
from repro.mpi.pack import pack_bytes, pack_range_bytes, unpack_range_from
from repro.sim import Environment


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
    plan = TransferPlan.compile(dtype, count, chunk_bytes, "device", "host")
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
    (chunk,) = TransferPlan.compile(col, 1, col.size, "device", "host").chunks
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
    p1 = vec.plan_for(2, 128, "device", "wire")
    p2 = vec.plan_for(2, 128, "device", "wire")
    assert p1 is p2
    # A different chunk size is a different plan (the _chunking fix keys
    # the cache on the granted chunk size).
    p3 = vec.plan_for(2, 64, "device", "wire")
    assert p3 is not p1 and p3.nchunks == 2 * p1.nchunks
    vec.invalidate_segment_cache()
    assert vec.plan_for(2, 128, "device", "wire") is not p1


# -- end-to-end byte identity, plans on vs off ----------------------------------

ROWS = 1 << 13  # 32 KiB packed / 64 KiB span: rendezvous + pipelined


def _transfer(use_plans: bool, src_dev: bool, dst_dev: bool) -> np.ndarray:
    vec = Datatype.hvector(ROWS, 4, 8, BYTE).commit()
    span = ROWS * 8
    rng = np.random.default_rng(20110926)
    payload = rng.integers(0, 256, span, dtype=np.uint8)

    def program(ctx):
        dev = src_dev if ctx.rank == 0 else dst_dev
        buf = ctx.cuda.malloc(span) if dev else ctx.node.malloc_host(span)
        if ctx.rank == 0:
            buf.view()[:] = payload
            yield from ctx.comm.Send(buf, 1, vec, dest=1)
        else:
            yield from ctx.comm.Recv(buf, 1, vec, source=0)
            return pack_bytes(buf, vec, 1)

    world = MpiWorld(Cluster(2), gpu_config=GpuNcConfig(use_plans=use_plans))
    return world.run(program)[1]


@pytest.mark.parametrize("src_dev", [False, True])
@pytest.mark.parametrize("dst_dev", [False, True])
def test_transfer_bytes_identical_plans_on_off(src_dev, dst_dev):
    with_plans = _transfer(True, src_dev, dst_dev)
    without = _transfer(False, src_dev, dst_dev)
    assert np.array_equal(with_plans, without)


# -- Figure 3 trace equality: optimizations are wall-clock only -----------------

def _fig3_trace(use_plans: bool, recovery=None):
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

    world = MpiWorld(cluster, gpu_config=GpuNcConfig(use_plans=use_plans),
                     recovery=recovery)
    delivered = world.run(program)[1]
    assert np.all(delivered == 7)
    return cluster.tracer.intervals, env.now


def test_fig3_trace_identical_with_and_without_optimizations():
    """Plan replay changes nothing the simulation observes.

    Every traced interval (start, end, engine, label) and the final
    simulated clock must be identical whether compiled plans are on
    (the default) or off.
    """
    fast_ivs, fast_now = _fig3_trace(use_plans=True)
    ref_ivs, ref_now = _fig3_trace(use_plans=False)
    assert fast_now == ref_now
    assert len(fast_ivs) == len(ref_ivs)
    assert fast_ivs == ref_ivs


# -- recovery layer armed but fault-free: schedule must be untouched -------------

def test_fig3_trace_identical_with_recovery_armed():
    """Arming the retry/watchdog layer on a clean fabric is schedule-neutral.

    The recovery machinery adds pending timeouts and bookkeeping but must
    not move a single traced interval or the final clock: the paper-figure
    runs (faults disabled) stay bit-identical whether or not the layer is
    armed.
    """
    from repro.core.config import RecoveryConfig

    armed_ivs, armed_now = _fig3_trace(
        use_plans=True, recovery=RecoveryConfig()
    )
    ref_ivs, ref_now = _fig3_trace(use_plans=True)
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
