"""Tests for the darray datatype (distributed-array views)."""

import numpy as np
import pytest

from repro.mpi import BYTE, FLOAT, Datatype, run_world
from repro.mpi.datatype import DatatypeError
from repro.mpi.pack import pack_bytes
from repro.hw import Arena

D = Datatype


def seg_pairs(t):
    return list(zip(t.segments.offsets.tolist(), t.segments.lengths.tolist()))


class TestConstruction:
    def test_1d_block_matches_subarray(self):
        # 12 elements over 3 ranks, block: rank 1 owns [4, 8).
        t = D.darray(3, 1, [12], [D.DIST_BLOCK], [None], [3], FLOAT)
        sub = D.subarray([12], [4], [4], FLOAT)
        assert seg_pairs(t) == seg_pairs(sub)
        assert t.size == 16 and t.extent == 48

    def test_1d_cyclic(self):
        # 8 elements over 2 ranks cyclic(1): rank 0 owns 0,2,4,6.
        t = D.darray(2, 0, [8], [D.DIST_CYCLIC], [1], [2], BYTE)
        assert seg_pairs(t) == [(0, 1), (2, 1), (4, 1), (6, 1)]

    def test_1d_block_cyclic(self):
        # cyclic(2) over 2 ranks: rank 1 owns 2,3,6,7 (coalesced pairs).
        t = D.darray(2, 1, [8], [D.DIST_CYCLIC], [2], [2], BYTE)
        assert seg_pairs(t) == [(2, 2), (6, 2)]

    def test_2d_block_block(self):
        # 4x4 over a 2x2 grid: rank 3 owns the bottom-right 2x2 block.
        t = D.darray(4, 3, [4, 4], [D.DIST_BLOCK] * 2, [None, None],
                     [2, 2], BYTE)
        assert seg_pairs(t) == [(10, 2), (14, 2)]

    def test_dist_none_dimension(self):
        # Rows distributed, columns whole.
        t = D.darray(2, 0, [4, 3], [D.DIST_BLOCK, D.DIST_NONE],
                     [None, None], [2, 1], BYTE)
        assert seg_pairs(t) == [(0, 6)]  # rows 0-1 fully contiguous

    def test_fortran_order(self):
        # In F order the first dim is fastest: distribute the SECOND dim.
        t = D.darray(2, 0, [4, 2], [D.DIST_NONE, D.DIST_BLOCK],
                     [None, None], [1, 2], BYTE, order="F")
        # F-order global 4x2: rank 0 owns column 0 -> elements 0..3 which
        # are contiguous in F order.
        assert t.size == 4
        assert seg_pairs(t) == [(0, 4)]

    def test_fortran_order_grid_is_row_major(self):
        """The process grid is row-major in either array order: on a 2x3
        grid rank r sits at (r // 3, r % 3), F order or not."""
        t = D.darray(6, 1, [4, 6], [D.DIST_BLOCK] * 2, [None, None],
                     [2, 3], FLOAT, order="F")
        # Rank 1 owns rows 0-1 of columns 2-3; column j starts at 4j.
        assert seg_pairs(t) == [(32, 8), (48, 8)]
        flat = np.arange(24).reshape(4, 6, order="F")
        for rank in range(6):
            t = D.darray(6, rank, [4, 6], [D.DIST_BLOCK] * 2, [None, None],
                         [2, 3], FLOAT, order="F")
            pr, pc = divmod(rank, 3)
            want = flat[2 * pr:2 * pr + 2, 2 * pc:2 * pc + 2].ravel(order="F")
            segs = t.segments
            got = np.concatenate([
                np.arange(o, o + n, 4)
                for o, n in zip(segs.offsets.tolist(), segs.lengths.tolist())
            ]) // 4
            assert got.tolist() == want.tolist(), f"rank {rank}"

    def test_single_run_base_keeps_its_offset(self):
        # One 8-byte run at byte 4: element k of the array sits at 8k + 4.
        base = D.hindexed([2], [4], FLOAT)
        t = D.darray(2, 1, [4], [D.DIST_BLOCK], [None], [2], base)
        assert seg_pairs(t) == [(20, 16)]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(nprocs=3, rank=0, gsizes=[4], distribs=["block"],
                 dargs=[None], psizes=[2]),  # psizes mismatch
            dict(nprocs=2, rank=2, gsizes=[4], distribs=["block"],
                 dargs=[None], psizes=[2]),  # bad rank
            dict(nprocs=2, rank=0, gsizes=[4], distribs=["spiral"],
                 dargs=[None], psizes=[2]),  # bad distribution
            dict(nprocs=2, rank=0, gsizes=[8], distribs=["block"],
                 dargs=[2], psizes=[2]),  # block too small
            dict(nprocs=2, rank=0, gsizes=[4, 4],
                 distribs=["none", "block"], dargs=[None, None],
                 psizes=[2, 1]),  # DIST_NONE with psize > 1
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DatatypeError):
            D.darray(base=BYTE, **kwargs)

    def test_pieces_partition_global_array(self):
        """Union of all ranks' darray segments == the whole array, once."""
        nprocs, g = 4, [6, 8]
        coverage = np.zeros(48, dtype=int)
        for rank in range(nprocs):
            t = D.darray(nprocs, rank, g, [D.DIST_BLOCK, D.DIST_CYCLIC],
                         [None, 2], [2, 2], BYTE)
            for off, ln in seg_pairs(t):
                coverage[off : off + ln] += 1
        assert (coverage == 1).all()


class TestPackAndTransfer:
    def test_pack_block_cyclic(self):
        arena = Arena(1 << 12, space="host")
        buf = arena.alloc(64)
        buf.view()[:] = np.arange(64, dtype=np.uint8)
        t = D.darray(2, 1, [64], [D.DIST_CYCLIC], [4], [2], BYTE).commit()
        packed = pack_bytes(buf, t, 1)
        want = np.concatenate(
            [np.arange(i, i + 4) for i in range(4, 64, 8)]
        ).astype(np.uint8)
        assert np.array_equal(packed, want)

    def test_scatter_via_darray_transfer(self):
        """Rank 0 sends each rank its darray piece of a global matrix; the
        pieces reassemble exactly."""
        g = [8, 8]

        def make(rank):
            return D.darray(4, rank, g, [D.DIST_BLOCK] * 2, [None] * 2,
                            [2, 2], FLOAT).commit()

        def program(ctx):
            n = 64 * 4
            if ctx.rank == 0:
                gbuf = ctx.node.malloc_host(n)
                gbuf.view(np.float32)[:] = np.arange(64)
                from repro.mpi import wait_all

                reqs = [
                    ctx.comm.Isend(gbuf, 1, make(r), dest=r, tag=3)
                    for r in range(1, 4)
                ]
                yield from wait_all(reqs)
                return pack_bytes(gbuf, make(0), 1)
            else:
                lbuf = ctx.node.malloc_host(n)
                yield from ctx.comm.Recv(lbuf, 1, make(ctx.rank), source=0,
                                         tag=3)
                return pack_bytes(lbuf, make(ctx.rank), 1)

        pieces = run_world(program, 4)
        glob = np.arange(64, dtype=np.float32).reshape(8, 8)
        for rank, piece in enumerate(pieces):
            pr, pc = divmod(rank, 2)
            want = glob[pr * 4:(pr + 1) * 4, pc * 4:(pc + 1) * 4]
            got = piece.view(np.float32).reshape(4, 4)
            assert np.array_equal(got, want), f"rank {rank}"

    def test_device_darray_transfer(self):
        """A cyclic darray on GPU buffers rides the gather-kernel path."""
        t = D.darray(2, 0, [256], [D.DIST_CYCLIC], [1], [2], FLOAT).commit()

        def program(ctx):
            buf = ctx.cuda.malloc(1024)
            if ctx.rank == 0:
                buf.view(np.float32)[:] = np.arange(256)
                yield from ctx.comm.Send(buf, 1, t, dest=1)
                return pack_bytes(buf, t, 1)
            else:
                yield from ctx.comm.Recv(buf, 1, t, source=0)
                return pack_bytes(buf, t, 1)

        sent, got = run_world(program, 2)
        assert np.array_equal(sent, got)
        assert np.array_equal(
            got.view(np.float32), np.arange(0, 256, 2, dtype=np.float32)
        )
