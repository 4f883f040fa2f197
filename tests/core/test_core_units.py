"""Unit tests for the core-package building blocks."""

import numpy as np
import pytest

from repro.core import (
    GpuNcConfig,
    buffer_location,
    gpu_pack_cost,
    is_device_ptr,
    is_host_ptr,
)
from repro.core.plan import TransferPlan
from repro.cuda import CudaContext
from repro.hw import Cluster, CopyKind
from repro.mpi import BYTE, FLOAT, Datatype, MpiError
from repro.mpi.endpoint import StagingPool
from repro.sim import CallbackOp


@pytest.fixture
def ctx():
    cluster = Cluster(1)
    return CudaContext(cluster.env, cluster.cfg, cluster.nodes[0])


class TestConfig:
    def test_defaults_valid(self):
        cfg = GpuNcConfig()
        assert cfg.chunk_bytes == 64 * 1024
        assert cfg.backend == "auto"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"chunk_bytes": 0},
            {"backend": "fpga"},
            {"tbuf_chunks": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            GpuNcConfig(**kwargs)

    def test_with_overrides(self):
        cfg = GpuNcConfig().with_overrides(chunk_bytes=4096)
        assert cfg.chunk_bytes == 4096

    def test_every_chunk_size_is_silent(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kib in (4, 8, 64, 128, 1024):
                GpuNcConfig(chunk_bytes=kib * 1024)

    def test_with_overrides_unknown_key(self):
        with pytest.raises(ValueError, match="unknown GpuNcConfig option"):
            GpuNcConfig().with_overrides(chunk_size=4096)

    def test_recovery_with_overrides_unknown_key(self):
        from repro.core import RecoveryConfig

        with pytest.raises(ValueError, match="unknown RecoveryConfig option"):
            RecoveryConfig().with_overrides(rmda_timeout=1e-3)


class TestDetection:
    def test_device_pointer(self, ctx):
        p = ctx.malloc(64)
        assert is_device_ptr(p) and not is_host_ptr(p)
        assert buffer_location(p) == "device"

    def test_host_pointer(self, ctx):
        p = ctx.malloc_host(64)
        assert is_host_ptr(p) and not is_device_ptr(p)
        assert buffer_location(p) == "host"


class TestLayoutPlan:
    """How a layout maps onto a buffer: the kind and byte total of its
    compiled :class:`~repro.core.plan.TransferPlan`."""

    CHUNK = 64 * 1024

    def test_contiguous_type(self):
        plan = TransferPlan.compile(Datatype.contiguous(16, FLOAT), 1, self.CHUNK)
        assert plan.kind == "contig" and plan.total == 64

    def test_vector_is_strided(self):
        plan = TransferPlan.compile(Datatype.vector(8, 1, 2, FLOAT), 1, self.CHUNK)
        assert plan.kind == "strided" and plan.total == 32

    def test_single_block_vector_is_contig(self):
        """vector(1, n, s) coalesces to one run -> contig plan."""
        plan = TransferPlan.compile(Datatype.vector(1, 8, 16, FLOAT), 1, self.CHUNK)
        assert plan.kind == "contig" and plan.total == 32

    def test_offset_run_detected(self):
        t = Datatype.hindexed([8], [32], BYTE)
        plan = TransferPlan.compile(t, 1, self.CHUNK)
        assert plan.kind == "contig" and plan.total == 8
        # The one chunk replays the run where it sits in the buffer.
        segs = plan.chunks[0].segs
        assert segs.offsets.tolist() == [32] and segs.lengths.tolist() == [8]

    def test_zero_size(self):
        plan = TransferPlan.compile(FLOAT, 0, self.CHUNK)
        assert plan.kind == "contig" and plan.total == 0


class TestGpuPackCost:
    def test_uniform_uses_2d_copy_law(self, ctx):
        t = Datatype.vector(1024, 1, 2, FLOAT)
        cost = gpu_pack_cost(ctx.cfg, t.segments)
        expect = ctx.cfg.memcpy2d_time(CopyKind.D2D, 4, 1024, 8, 4)
        assert cost == pytest.approx(expect)

    def test_irregular_uses_gather_law(self, ctx):
        t = Datatype.indexed([1, 2, 1], [0, 3, 9], FLOAT)
        segs = t.segments
        cost = gpu_pack_cost(ctx.cfg, segs)
        expect = ctx.cfg.device_gather_time(segs.count, segs.total_bytes)
        assert cost == pytest.approx(expect)

    def test_subrange_cheaper_than_whole(self, ctx):
        t = Datatype.vector(4096, 1, 2, FLOAT)
        whole = gpu_pack_cost(ctx.cfg, t.segments_for_range(1, 0, t.size))
        half = gpu_pack_cost(ctx.cfg, t.segments_for_range(1, 0, t.size // 2))
        assert half < whole


class _Taker(CallbackOp):
    """Notes when, and with which buffer, a pool grants it one."""

    __slots__ = ("env", "got")

    def __init__(self, env):
        self.env = env
        self.got = None
        self._step = _Taker._took

    def _took(self):
        self.got = (self.env.now, self.item)


def _take_now(pool):
    """A buffer of a pool with one to spare: the grant leaves it in the
    op's ``item`` at once."""
    op = _Taker(pool.env)
    pool.request(op)
    return op.item


class TestPools:
    def test_tbuf_pool_cycle(self, ctx):
        pool = StagingPool(ctx.env, ctx.malloc, 1024, 2, kind="tbuf chunk")
        a = _take_now(pool)
        b = _take_now(pool)
        assert pool.available == 0
        pool.release(a)
        c = _take_now(pool)
        assert c is a  # FIFO recycling
        pool.release(b)
        pool.release(c)
        ctx.env.run()
        assert pool.available == 2

    def test_tbuf_wrong_size_release_rejected(self, ctx):
        pool = StagingPool(ctx.env, ctx.malloc, 1024, 1, kind="tbuf chunk")
        foreign = ctx.malloc(512)
        with pytest.raises(MpiError):
            pool.release(foreign)

    def test_tbuf_validation(self, ctx):
        with pytest.raises(ValueError):
            StagingPool(ctx.env, ctx.malloc, 0, 1, kind="tbuf chunk")

    def test_vbuf_pool_blocks_when_empty(self):
        # Hold the one vbuf until t=1: a second request waits for it.
        cluster = Cluster(1)
        env = cluster.env
        pool = StagingPool(env, cluster.nodes[0].malloc_host, 256, 1)
        held = _take_now(pool)
        waiter = _Taker(env)
        pool.request(waiter)

        def holder():
            yield env.timeout(1.0)
            pool.release(held)

        env.process(holder())
        env.run()
        assert waiter.got == (1.0, held)

    def test_vbuf_wrong_size_release_rejected(self):
        cluster = Cluster(1)
        pool = StagingPool(cluster.env, cluster.nodes[0].malloc_host, 256, 1)
        foreign = cluster.nodes[0].malloc_host(128)
        with pytest.raises(MpiError):
            pool.release(foreign)
