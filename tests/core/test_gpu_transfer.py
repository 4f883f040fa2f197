"""End-to-end tests of the MV2-GPU-NC transfer engine: every combination of
host/device source and destination, contiguous and strided, small and
pipelined, with bit-exact data checks."""

import numpy as np
import pytest

from repro.core import GpuNcConfig
from repro.hw import Cluster, KiB
from repro.mpi import BYTE, FLOAT, Datatype, MpiError, MpiWorld, run_world, wait_all


def fill_pattern(n, seed=0):
    return np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8)


def make_vector(rows, width_bytes=4, gap_bytes=4):
    """A rows x width strided byte vector with a gap after each row."""
    return Datatype.hvector(rows, width_bytes, width_bytes + gap_bytes, BYTE).commit()


def full_span(rows, width_bytes=4, gap_bytes=4):
    """Bytes of a buffer holding ``rows`` full pitches (incl. final gap)."""
    return rows * (width_bytes + gap_bytes)


class TestDeviceToDevice:
    @pytest.mark.parametrize("rows", [1, 16, 1024, 1 << 15])
    def test_strided_vector_roundtrip(self, rows):
        vec = make_vector(rows)
        span = full_span(rows)

        def program(ctx):
            buf = ctx.cuda.malloc(span)
            if ctx.rank == 0:
                pat = fill_pattern(span, seed=rows)
                buf.fill_from(pat)
                yield from ctx.comm.Send(buf, 1, vec, dest=1)
                return pat.reshape(rows, 8)[:, :4].copy()
            else:
                yield from ctx.comm.Recv(buf, 1, vec, source=0)
                got = buf.to_array(np.uint8).reshape(rows, 8)
                assert (got[:, 4:] == 0).all()  # gaps untouched
                return got[:, :4].copy()

        sent, got = run_world(program, 2)
        assert np.array_equal(sent, got)

    def test_contiguous_device_transfer(self):
        """The pre-existing MVAPICH2-GPU path: contiguous device buffers."""
        n = 1 << 20

        def program(ctx):
            buf = ctx.cuda.malloc(n)
            if ctx.rank == 0:
                buf.fill_from(fill_pattern(n, 1))
                yield from ctx.comm.Send(buf, n, BYTE, dest=1)
                return buf.to_array(np.uint8)
            else:
                yield from ctx.comm.Recv(buf, n, BYTE, source=0)
                return buf.to_array(np.uint8)

        sent, got = run_world(program, 2)
        assert np.array_equal(sent, got)

    def test_small_device_message_single_chunk(self):
        def program(ctx):
            vec = make_vector(8)
            buf = ctx.cuda.malloc(full_span(8))
            if ctx.rank == 0:
                buf.fill_from(fill_pattern(full_span(8), 5))
                yield from ctx.comm.Send(buf, 1, vec, dest=1)
            else:
                st = yield from ctx.comm.Recv(buf, 1, vec, source=0)
                assert st.count_bytes == 32

        run_world(program, 2)

    def test_zero_size_device_send(self):
        def program(ctx):
            buf = ctx.cuda.malloc(16)
            if ctx.rank == 0:
                yield from ctx.comm.Send(buf, 0, FLOAT, dest=1)
            else:
                st = yield from ctx.comm.Recv(buf, 0, FLOAT, source=0)
                assert st.count_bytes == 0

        run_world(program, 2)

    def test_indexed_datatype_gather_kernel_path(self):
        """Non-uniform layout exercises the general gather-kernel branch."""
        t = Datatype.indexed([3, 1, 2, 5], [0, 5, 9, 20], BYTE).commit()
        span = t.span_for_count(1)

        def program(ctx):
            buf = ctx.cuda.malloc(span)
            if ctx.rank == 0:
                buf.fill_from(fill_pattern(span, 9))
                yield from ctx.comm.Send(buf, 1, t, dest=1)
                return buf.to_array(np.uint8)
            else:
                yield from ctx.comm.Recv(buf, 1, t, source=0)
                return buf.to_array(np.uint8)

        sent, got = run_world(program, 2)
        segs = t.segments
        for off, ln in zip(segs.offsets.tolist(), segs.lengths.tolist()):
            assert np.array_equal(sent[off : off + ln], got[off : off + ln])

    def test_subarray_halo_exchange_type(self):
        """An east halo column expressed as a subarray, like Stencil2D."""
        n = 64
        col = Datatype.subarray([n, n], [n, 1], [0, n - 1], FLOAT).commit()

        def program(ctx):
            buf = ctx.cuda.malloc(n * n * 4)
            if ctx.rank == 0:
                data = np.arange(n * n, dtype=np.float32).reshape(n, n)
                buf.fill_from(data)
                yield from ctx.comm.Send(buf, 1, col, dest=1)
                return data[:, -1].copy()
            else:
                yield from ctx.comm.Recv(buf, 1, col, source=0)
                return buf.to_array(np.float32, (n, n))[:, -1].copy()

        sent_col, got_col = run_world(program, 2)
        assert np.array_equal(sent_col, got_col)


class TestMixedLocations:
    def test_device_to_host(self):
        rows = 4096
        vec = make_vector(rows)

        def program(ctx):
            if ctx.rank == 0:
                buf = ctx.cuda.malloc(full_span(rows))
                buf.fill_from(fill_pattern(full_span(rows), 2))
                yield from ctx.comm.Send(buf, 1, vec, dest=1)
                return buf.to_array(np.uint8).reshape(rows, 8)[:, :4].copy()
            else:
                buf = ctx.node.malloc_host(rows * 4)
                yield from ctx.comm.Recv(buf, rows * 4, BYTE, source=0)
                return buf.to_array(np.uint8).reshape(rows, 4)

        sent, got = run_world(program, 2)
        assert np.array_equal(sent, got)

    def test_host_to_device_large(self):
        n = 1 << 20

        def program(ctx):
            if ctx.rank == 0:
                buf = ctx.node.malloc_host(n)
                buf.view()[:] = fill_pattern(n, 3)
                yield from ctx.comm.Send(buf, n, BYTE, dest=1)
                return buf.to_array(np.uint8)
            else:
                buf = ctx.cuda.malloc(n)
                yield from ctx.comm.Recv(buf, n, BYTE, source=0)
                return buf.to_array(np.uint8)

        sent, got = run_world(program, 2)
        assert np.array_equal(sent, got)

    def test_host_to_device_strided_recv(self):
        rows = 2048
        vec = make_vector(rows)

        def program(ctx):
            if ctx.rank == 0:
                buf = ctx.node.malloc_host(rows * 4)
                buf.view()[:] = fill_pattern(rows * 4, 4)
                yield from ctx.comm.Send(buf, rows * 4, BYTE, dest=1)
                return buf.to_array(np.uint8).reshape(rows, 4)
            else:
                buf = ctx.cuda.malloc(full_span(rows))
                yield from ctx.comm.Recv(buf, 1, vec, source=0)
                return buf.to_array(np.uint8).reshape(rows, 8)[:, :4].copy()

        sent, got = run_world(program, 2)
        assert np.array_equal(sent, got)

    def test_eager_host_to_device(self):
        """Small host send landing in a strided device buffer."""
        rows = 16
        vec = make_vector(rows)

        def program(ctx):
            if ctx.rank == 0:
                buf = ctx.node.malloc_host(rows * 4)
                buf.view()[:] = np.arange(rows * 4, dtype=np.uint8)
                yield from ctx.comm.Send(buf, rows * 4, BYTE, dest=1)
            else:
                buf = ctx.cuda.malloc(full_span(rows))
                yield from ctx.comm.Recv(buf, 1, vec, source=0)
                got = buf.to_array(np.uint8).reshape(rows, 8)
                assert np.array_equal(
                    got[:, :4].reshape(-1), np.arange(rows * 4, dtype=np.uint8)
                )

        run_world(program, 2)


class TestPipelineBehaviour:
    def test_pipelined_faster_than_sum_of_stages(self):
        """The whole point: chunked overlap beats the serial sum."""
        rows = 1 << 18  # 1 MB packed
        vec = make_vector(rows)

        def program(ctx):
            buf = ctx.cuda.malloc(full_span(rows))
            if ctx.rank == 0:
                t0 = ctx.now
                yield from ctx.comm.Send(buf, 1, vec, dest=1)
                return ctx.now - t0
            else:
                t0 = ctx.now
                yield from ctx.comm.Recv(buf, 1, vec, source=0)
                return ctx.now - t0

        _, total = run_world(program, 2)
        cfg = Cluster(1).cfg
        n = rows * 4
        # Serial lower-bound estimate of the five unpipelined stages.
        pack = cfg.memcpy2d_time(__import__("repro.hw", fromlist=["CopyKind"]).CopyKind.D2D, 4, rows, 8, 4)
        d2h = cfg.memcpy_time(__import__("repro.hw", fromlist=["CopyKind"]).CopyKind.D2H, n)
        net = cfg.rdma_time(n)
        serial = 2 * pack + 2 * d2h + net
        assert total < serial * 0.75

    def test_chunk_count_respects_chunk_bytes(self):
        """With 64 KB chunks a 1 MB message uses 16 chunks; the sender's
        FIN count must match."""
        rows = 1 << 18
        vec = make_vector(rows)
        fins = []

        def program(ctx):
            buf = ctx.cuda.malloc(full_span(rows))
            if ctx.rank == 0:
                yield from ctx.comm.Send(buf, 1, vec, dest=1)
            else:
                orig = ctx.endpoint.handlers["fin"]

                def counting(ep, payload):
                    fins.append(payload["chunk"])
                    orig(ep, payload)

                ctx.endpoint.handlers["fin"] = counting
                yield from ctx.comm.Recv(buf, 1, vec, source=0)

        run_world(program, 2)
        assert sorted(fins) == list(range(16))

    def test_vbuf_pool_drains_and_refills(self):
        def program(ctx):
            vec = make_vector(1 << 15)  # 128 KB packed -> 2 chunks
            buf = ctx.cuda.malloc(full_span(1 << 15))
            pools = (ctx.endpoint.send_vbufs, ctx.endpoint.recv_vbufs)
            before = tuple(p.available for p in pools)
            if ctx.rank == 0:
                yield from ctx.comm.Send(buf, 1, vec, dest=1)
            else:
                yield from ctx.comm.Recv(buf, 1, vec, source=0)
            yield ctx.env.timeout(1e-3)
            assert tuple(p.available for p in pools) == before

        run_world(program, 2)

    def test_message_larger_than_pool_flows_through_windowed_grants(self):
        """A message needing more staging chunks than the vbuf pool holds
        completes correctly: the receiver grants landing buffers in windows
        and recycles them as chunks drain."""
        rows = 1 << 16  # 256 KB packed -> 4 chunks; pool holds only 2
        vec = make_vector(rows)

        def program(ctx):
            buf = ctx.cuda.malloc(full_span(rows))
            if ctx.rank == 0:
                buf.fill_from(fill_pattern(full_span(rows), 21))
                yield from ctx.comm.Send(buf, 1, vec, dest=1)
                return buf.to_array(np.uint8).reshape(rows, 8)[:, :4].copy()
            else:
                yield from ctx.comm.Recv(buf, 1, vec, source=0)
                return buf.to_array(np.uint8).reshape(rows, 8)[:, :4].copy()

        cluster = Cluster(2)
        world = MpiWorld(cluster, vbuf_count=2)
        sent, got = world.run(program)
        assert np.array_equal(sent, got)

    def test_windowed_grants_arrive_incrementally(self):
        """With a small rendezvous window the sender receives several CTS
        messages rather than one."""
        from repro.hw import HardwareConfig

        rows = 1 << 17  # 512 KB -> 8 chunks
        vec = make_vector(rows)
        cts_batches = []

        def program(ctx):
            buf = ctx.cuda.malloc(full_span(rows))
            if ctx.rank == 0:
                orig = ctx.endpoint.handlers["cts"]

                def counting(ep, payload):
                    cts_batches.append(len(payload["chunks"]))
                    orig(ep, payload)

                ctx.endpoint.handlers["cts"] = counting
                yield from ctx.comm.Send(buf, 1, vec, dest=1)
            else:
                yield from ctx.comm.Recv(buf, 1, vec, source=0)

        cfg = HardwareConfig(rendezvous_window=2)
        cluster = Cluster(2, cfg=cfg)
        MpiWorld(cluster).run(program)
        assert sum(cts_batches) == 8
        assert cts_batches[0] == 2  # initial window
        assert len(cts_batches) > 1  # incremental top-ups followed

    def test_no_offload_fallback_correct(self):
        """The ablation path (no GPU offload) still moves data correctly."""
        rows = 1 << 14
        vec = make_vector(rows)

        def program(ctx):
            buf = ctx.cuda.malloc(full_span(rows))
            if ctx.rank == 0:
                buf.fill_from(fill_pattern(full_span(rows), 6))
                yield from ctx.comm.Send(buf, 1, vec, dest=1)
                return buf.to_array(np.uint8).reshape(rows, 8)[:, :4].copy()
            else:
                yield from ctx.comm.Recv(buf, 1, vec, source=0)
                return buf.to_array(np.uint8).reshape(rows, 8)[:, :4].copy()

        cluster = Cluster(2)
        world = MpiWorld(cluster, gpu_config=GpuNcConfig(backend="host"))
        sent, got = world.run(program)
        assert np.array_equal(sent, got)

    def test_offload_beats_no_offload(self):
        """Ablation: GPU offload must be significantly faster."""
        rows = 1 << 17
        vec = make_vector(rows)

        def program(ctx):
            buf = ctx.cuda.malloc(full_span(rows))
            if ctx.rank == 0:
                yield from ctx.comm.Send(buf, 1, vec, dest=1)
                return ctx.now
            else:
                yield from ctx.comm.Recv(buf, 1, vec, source=0)
                return ctx.now

        def run_with(offload):
            cluster = Cluster(2)
            world = MpiWorld(cluster, gpu_config=GpuNcConfig(
                backend="gpu" if offload else "host"))
            return max(world.run(program))

        assert run_with(True) < run_with(False) / 3

    def test_both_directions_concurrently(self):
        """Full-duplex exchange (the stencil pattern) stays correct."""
        rows = 1 << 14
        vec = make_vector(rows)

        def program(ctx):
            sbuf = ctx.cuda.malloc(full_span(rows))
            rbuf = ctx.cuda.malloc(full_span(rows))
            pat = fill_pattern(full_span(rows), 100 + ctx.rank)
            sbuf.fill_from(pat)
            other = 1 - ctx.rank
            rr = ctx.comm.Irecv(rbuf, 1, vec, source=other, tag=1)
            sr = ctx.comm.Isend(sbuf, 1, vec, dest=other, tag=1)
            yield from wait_all([sr, rr])
            return (
                pat.reshape(rows, 8)[:, :4].copy(),
                rbuf.to_array(np.uint8).reshape(rows, 8)[:, :4].copy(),
            )

        (sent0, got0), (sent1, got1) = run_world(program, 2)
        assert np.array_equal(sent0, got1)
        assert np.array_equal(sent1, got0)


class TestSendVbufBound:
    @pytest.mark.parametrize("functional", [True, False])
    @pytest.mark.parametrize("recv_space", ["device", "host"])
    def test_chunk_larger_than_send_vbufs_fails_before_rts(
            self, recv_space, functional):
        """A device send pipelined at 64 KiB cannot stage its chunks in
        16 KiB send vbufs; it fails loudly at once, naming both sizes,
        whatever the receive buffer and whether bytes move."""
        rows = 16 * 1024  # 64 KiB of payload: one 64 KiB chunk
        vec = make_vector(rows)
        world = MpiWorld(Cluster(2), gpu_config=GpuNcConfig(chunk_bytes=64 * KiB),
                         vbuf_bytes=16 * KiB)
        world.env.functional = functional

        def program(ctx):
            if ctx.rank == 0:
                buf = ctx.cuda.malloc(full_span(rows))
                yield from ctx.comm.Send(buf, 1, vec, dest=1)
            else:
                buf = (ctx.cuda.malloc(full_span(rows)) if recv_space == "device"
                       else ctx.node.malloc_host(full_span(rows)))
                yield from ctx.comm.Recv(buf, 1, vec, source=0)

        with pytest.raises(MpiError,
                           match="device chunk 65536 exceeds sender vbuf 16384"):
            world.run(program)
        assert world.endpoints[0].stats.ctrl_messages == 0  # no RTS posted
