"""Tests for the endpoint statistics counters."""

import numpy as np
import pytest

from repro.mpi import BYTE, Datatype, run_world


class TestStats:
    def test_eager_path_counted(self):
        def program(ctx):
            buf = ctx.node.malloc_host(128)
            if ctx.rank == 0:
                yield from ctx.comm.Send(buf, 128, BYTE, dest=1)
                s = ctx.endpoint.stats
                assert s.eager_sent == 1
                assert s.eager_bytes_sent == 128
                assert s.rndv_sent == 0 and s.gpu_sent == 0
                assert s.total_sent == 1
            else:
                yield from ctx.comm.Recv(buf, 128, BYTE, source=0)
                s = ctx.endpoint.stats
                assert s.msgs_received == 1
                assert s.bytes_received == 128

        run_world(program, 2)

    def test_rendezvous_path_counted(self):
        n = 1 << 18

        def program(ctx):
            buf = ctx.node.malloc_host(n)
            if ctx.rank == 0:
                yield from ctx.comm.Send(buf, n, BYTE, dest=1)
                assert ctx.endpoint.stats.rndv_sent == 1
                assert ctx.endpoint.stats.rndv_bytes_sent == n
            else:
                yield from ctx.comm.Recv(buf, n, BYTE, source=0)
                assert ctx.endpoint.stats.bytes_received == n

        run_world(program, 2)

    def test_gpu_path_counts_chunks(self):
        rows = 1 << 16  # 256 KB -> 4 chunks
        vec = Datatype.hvector(rows, 4, 8, BYTE).commit()

        def program(ctx):
            buf = ctx.cuda.malloc(rows * 8)
            if ctx.rank == 0:
                yield from ctx.comm.Send(buf, 1, vec, dest=1)
                s = ctx.endpoint.stats
                assert s.gpu_sent == 1
                assert s.gpu_bytes_sent == rows * 4
                assert s.chunks_sent == 4
            else:
                yield from ctx.comm.Recv(buf, 1, vec, source=0)

        run_world(program, 2)

    def test_host_rendezvous_counts_chunks(self):
        rows = 3 << 14  # 192 KB, packed on the CPU into 64 KB vbufs
        vec = Datatype.hvector(rows, 4, 8, BYTE).commit()

        def program(ctx):
            buf = ctx.node.malloc_host(rows * 8)
            if ctx.rank == 0:
                yield from ctx.comm.Send(buf, 1, vec, dest=1)
                s = ctx.endpoint.stats
                assert s.rndv_sent == 1 and s.gpu_sent == 0
                assert s.chunks_sent == 3
            else:
                yield from ctx.comm.Recv(buf, 1, vec, source=0)

        run_world(program, 2)

    def test_vbuf_peak_tracks_pipeline_depth(self):
        rows = 1 << 17  # 512 KB -> 8 chunks

        def program(ctx):
            vec = Datatype.hvector(rows, 4, 8, BYTE).commit()
            buf = ctx.cuda.malloc(rows * 8)
            if ctx.rank == 0:
                yield from ctx.comm.Send(buf, 1, vec, dest=1)
                return ctx.endpoint.send_vbufs.peak_in_use
            else:
                yield from ctx.comm.Recv(buf, 1, vec, source=0)
                return ctx.endpoint.recv_vbufs.peak_in_use

        send_peak, recv_peak = run_world(program, 2)
        assert 1 <= send_peak <= 8
        assert 1 <= recv_peak <= 8

    def test_control_messages_counted(self):
        def program(ctx):
            buf = ctx.node.malloc_host(1 << 18)
            if ctx.rank == 0:
                yield from ctx.comm.Send(buf, 1 << 18, BYTE, dest=1)
                # RTS + per-chunk FINs at minimum.
                assert ctx.endpoint.stats.ctrl_messages >= 2
            else:
                yield from ctx.comm.Recv(buf, 1 << 18, BYTE, source=0)
                assert ctx.endpoint.stats.ctrl_messages >= 1  # CTS

        run_world(program, 2)

    def test_as_dict_round_trip(self):
        def program(ctx):
            buf = ctx.node.malloc_host(16)
            other = 1 - ctx.rank
            yield from ctx.comm.Sendrecv(
                buf, 16, BYTE, other, buf, 16, BYTE, other
            )
            d = ctx.endpoint.stats.as_dict()
            assert d["eager_sent"] == 1 and d["msgs_received"] == 1
            # Only counters something maintains: pool high-water marks
            # are the pools' peak_in_use, recovery actions PERF counters.
            assert set(d) == {
                "eager_sent", "eager_bytes_sent", "rndv_sent",
                "rndv_bytes_sent", "gpu_sent", "gpu_bytes_sent",
                "msgs_received", "bytes_received", "chunks_sent",
                "ctrl_messages",
            }
            return d

        run_world(program, 2)
