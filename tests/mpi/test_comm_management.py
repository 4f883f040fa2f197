"""Tests for communicator management, topologies, probe and send modes."""

import numpy as np
import pytest

from repro.mpi import (
    ANY_SOURCE,
    ANY_TAG,
    BYTE,
    INT,
    PROC_NULL,
    UNDEFINED,
    MpiError,
    run_world,
    wait_all,
)


def host_buf(ctx, nbytes, fill=None):
    buf = ctx.node.malloc_host(nbytes)
    if fill is not None:
        buf.view()[: len(fill)] = fill
    return buf


class TestProcNull:
    def test_send_recv_to_proc_null_complete_immediately(self):
        def program(ctx):
            buf = host_buf(ctx, 16)
            sreq = ctx.comm.Isend(buf, 16, BYTE, dest=PROC_NULL)
            rreq = ctx.comm.Irecv(buf, 16, BYTE, source=PROC_NULL)
            assert sreq.completed and rreq.completed
            st = yield from rreq.wait()
            assert st.source == PROC_NULL
            assert st.count_bytes == 0

        run_world(program, 1)

    def test_blocking_ops_with_proc_null(self):
        def program(ctx):
            buf = host_buf(ctx, 4)
            yield from ctx.comm.Send(buf, 4, BYTE, dest=PROC_NULL)
            st = yield from ctx.comm.Recv(buf, 4, BYTE, source=PROC_NULL)
            return st.source

        assert run_world(program, 2) == [PROC_NULL, PROC_NULL]


class TestSsend:
    def test_ssend_waits_for_matching_recv(self):
        """A small synchronous send must NOT complete eagerly."""

        def program(ctx):
            buf = host_buf(ctx, 16)
            if ctx.rank == 0:
                t0 = ctx.now
                yield from ctx.comm.Ssend(buf, 16, BYTE, dest=1)
                # Receiver posts only after 1 ms: Ssend cannot finish sooner.
                assert ctx.now >= 1e-3
                return ctx.now - t0
            else:
                yield ctx.env.timeout(1e-3)
                yield from ctx.comm.Recv(buf, 16, BYTE, source=0)

        run_world(program, 2)

    def test_standard_small_send_completes_eagerly(self):
        """Contrast: a standard small send completes before the recv."""

        def program(ctx):
            buf = host_buf(ctx, 16)
            if ctx.rank == 0:
                yield from ctx.comm.Send(buf, 16, BYTE, dest=1)
                assert ctx.now < 1e-3
            else:
                yield ctx.env.timeout(1e-3)
                yield from ctx.comm.Recv(buf, 16, BYTE, source=0)

        run_world(program, 2)

    def test_ssend_data_integrity(self):
        def program(ctx):
            buf = host_buf(ctx, 64)
            if ctx.rank == 0:
                buf.view()[:] = 0x77
                yield from ctx.comm.Ssend(buf, 64, BYTE, dest=1)
            else:
                yield from ctx.comm.Recv(buf, 64, BYTE, source=0)
                assert (buf.view() == 0x77).all()

        run_world(program, 2)


class TestProbe:
    def test_iprobe_none_then_status(self):
        def program(ctx):
            if ctx.rank == 0:
                assert ctx.comm.Iprobe(source=1) is None
                buf = host_buf(ctx, 32)
                yield ctx.env.timeout(1e-3)  # let the message arrive
                st = ctx.comm.Iprobe(source=1, tag=9)
                assert st is not None
                assert st.source == 1 and st.tag == 9
                assert st.count_bytes == 32
                # Probing does not consume: a recv still matches.
                yield from ctx.comm.Recv(buf, 32, BYTE, source=1, tag=9)
            else:
                buf = host_buf(ctx, 32)
                yield from ctx.comm.Send(buf, 32, BYTE, dest=0, tag=9)
                yield ctx.env.timeout(2e-3)

        run_world(program, 2)

    def test_blocking_probe_waits(self):
        def program(ctx):
            if ctx.rank == 0:
                st = yield from ctx.comm.Probe(source=1)
                assert ctx.now >= 1e-3
                assert st.count_bytes == 8
                buf = host_buf(ctx, 8)
                yield from ctx.comm.Recv(buf, 8, BYTE, source=1)
            else:
                yield ctx.env.timeout(1e-3)
                buf = host_buf(ctx, 8)
                yield from ctx.comm.Send(buf, 8, BYTE, dest=0)

        run_world(program, 2)

    def test_blocking_probe_waits_past_a_non_matching_arrival(self):
        """A message that does not match wakes the probe, which waits
        again for the one that does."""
        def program(ctx):
            if ctx.rank == 0:
                st = yield from ctx.comm.Probe(source=1, tag=5)
                assert ctx.now >= 2e-3
                assert st.tag == 5 and st.count_bytes == 16
                other, wanted = host_buf(ctx, 8), host_buf(ctx, 16)
                yield from ctx.comm.Recv(wanted, 16, BYTE, source=1, tag=5)
                yield from ctx.comm.Recv(other, 8, BYTE, source=1, tag=7)
                return other.view()[:8].tolist(), wanted.view()[:16].tolist()
            yield ctx.env.timeout(1e-3)
            yield from ctx.comm.Send(host_buf(ctx, 8, [7] * 8), 8, BYTE,
                                     dest=0, tag=7)
            yield ctx.env.timeout(1e-3)
            yield from ctx.comm.Send(host_buf(ctx, 16, [5] * 16), 16, BYTE,
                                     dest=0, tag=5)

        got, _ = run_world(program, 2)
        assert got == ([7] * 8, [5] * 16)

    def test_probe_rendezvous_message(self):
        """An RTS envelope is probe-visible before any data moves."""
        n = 1 << 18

        def program(ctx):
            if ctx.rank == 0:
                st = yield from ctx.comm.Probe(source=1, tag=4)
                assert st.count_bytes == n
                buf = host_buf(ctx, n)
                yield from ctx.comm.Recv(buf, n, BYTE, source=1, tag=4)
            else:
                buf = host_buf(ctx, n)
                yield from ctx.comm.Send(buf, n, BYTE, dest=0, tag=4)

        run_world(program, 2)


class TestDupAndSplit:
    def test_dup_isolates_traffic(self):
        """A message on the dup'd communicator must not match a receive on
        the original, even with identical source and tag."""

        def program(ctx):
            dup = ctx.comm.Dup()
            buf1 = host_buf(ctx, 4)
            buf2 = host_buf(ctx, 4)
            if ctx.rank == 0:
                a = host_buf(ctx, 4, np.full(4, 1, np.uint8))
                b = host_buf(ctx, 4, np.full(4, 2, np.uint8))
                yield from dup.Send(a, 4, BYTE, dest=1, tag=5)
                yield from ctx.comm.Send(b, 4, BYTE, dest=1, tag=5)
            else:
                # Post the world receive first; only the world message
                # may match it.
                yield from ctx.comm.Recv(buf1, 4, BYTE, source=0, tag=5)
                assert buf1.view()[0] == 2
                yield from dup.Recv(buf2, 4, BYTE, source=0, tag=5)
                assert buf2.view()[0] == 1

        run_world(program, 2)

    def test_dup_context_ids_agree_across_ranks(self):
        def program(ctx):
            dup = ctx.comm.Dup()
            return dup.comm_id
            yield

        ids = run_world(program, 4)
        assert len(set(ids)) == 1

    def test_split_even_odd(self):
        def program(ctx):
            sub = yield from ctx.comm.Split(color=ctx.rank % 2, key=ctx.rank)
            # Even ranks 0,2,4 -> sub ranks 0,1,2; odd 1,3,5 likewise.
            assert sub.size == 3
            assert sub.rank == ctx.rank // 2
            # Communicate within the sub-communicator.
            buf = host_buf(ctx, 4)
            if sub.rank == 0:
                buf.view()[:] = 40 + ctx.rank % 2
                yield from sub.Bcast(buf, 4, BYTE, root=0)
            else:
                yield from sub.Bcast(buf, 4, BYTE, root=0)
            return int(buf.view()[0])

        results = run_world(program, 6)
        assert results == [40, 41, 40, 41, 40, 41]

    def test_split_key_orders_ranks(self):
        def program(ctx):
            # Reverse the ranks via the key.
            sub = yield from ctx.comm.Split(color=0, key=-ctx.rank)
            return sub.rank
            yield

        assert run_world(program, 4) == [3, 2, 1, 0]

    def test_split_undefined_returns_none(self):
        def program(ctx):
            color = UNDEFINED if ctx.rank == 0 else 0
            sub = yield from ctx.comm.Split(color=color, key=0)
            if ctx.rank == 0:
                assert sub is None
                return None
            return (sub.rank, sub.size)

        results = run_world(program, 3)
        assert results == [None, (0, 2), (1, 2)]

    def test_subcomm_status_reports_subcomm_ranks(self):
        def program(ctx):
            sub = yield from ctx.comm.Split(color=0, key=-ctx.rank)
            buf = host_buf(ctx, 4)
            if sub.rank == 0:  # world rank 2
                st = yield from sub.Recv(buf, 4, BYTE, source=ANY_SOURCE)
                return st.source
            elif sub.rank == 2:  # world rank 0
                yield from sub.Send(buf, 4, BYTE, dest=0)

        results = run_world(program, 3)
        assert results[2] == 2  # reported in sub-communicator numbering


class TestCartesian:
    def test_coords_roundtrip(self):
        def program(ctx):
            cart = ctx.comm.Cart_create((2, 3))
            coords = cart.Cart_coords()
            assert cart.Cart_rank(coords) == cart.rank
            return coords
            yield

        coords = run_world(program, 6)
        assert coords == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]

    def test_shift_interior_and_edges(self):
        def program(ctx):
            cart = ctx.comm.Cart_create((2, 3))
            return cart.Cart_shift(direction=1, disp=1)
            yield

        shifts = run_world(program, 6)
        # Rank 1 at (0,1): west neighbour 0, east neighbour 2.
        assert shifts[1] == (0, 2)
        # Rank 0 at (0,0): no west neighbour.
        assert shifts[0] == (PROC_NULL, 1)
        # Rank 2 at (0,2): no east neighbour.
        assert shifts[2] == (1, PROC_NULL)

    def test_periodic_shift_wraps(self):
        def program(ctx):
            cart = ctx.comm.Cart_create((4,), periods=(True,))
            return cart.Cart_shift(0, 1)
            yield

        shifts = run_world(program, 4)
        assert shifts[0] == (3, 1)
        assert shifts[3] == (2, 0)

    def test_excess_ranks_get_none(self):
        def program(ctx):
            cart = ctx.comm.Cart_create((2, 2))
            return cart is None
            yield

        assert run_world(program, 5) == [False] * 4 + [True]

    def test_oversized_grid_rejected(self):
        def program(ctx):
            with pytest.raises(MpiError):
                ctx.comm.Cart_create((3, 3))
            return
            yield

        run_world(program, 4)

    def test_halo_exchange_via_cart_shift(self):
        """A 1-D ring exchange written entirely with Cart_shift and
        PROC_NULL-tolerant Sendrecv, like textbook MPI codes."""

        def program(ctx):
            cart = ctx.comm.Cart_create((ctx.size,), periods=(False,))
            left, right = cart.Cart_shift(0, 1)
            sbuf = host_buf(ctx, 4, np.full(4, 10 + cart.rank, np.uint8))
            rbuf = host_buf(ctx, 4)
            yield from cart.Sendrecv(
                sbuf, 4, BYTE, right, rbuf, 4, BYTE, left,
            )
            return int(rbuf.view()[0])

        results = run_world(program, 4)
        # Rank 0 has no left neighbour: buffer untouched (zeros).
        assert results == [0, 10, 11, 12]


class TestNewCollectives:
    def test_gather(self):
        def program(ctx):
            sbuf = host_buf(ctx, 8)
            sbuf.view(np.int32)[:] = [ctx.rank, ctx.rank * 10]
            rbuf = host_buf(ctx, 8 * ctx.size) if ctx.rank == 2 else None
            yield from ctx.comm.Gather(sbuf, rbuf, 2, INT, root=2)
            if ctx.rank == 2:
                return rbuf.to_array(np.int32).reshape(ctx.size, 2)

        out = run_world(program, 4)[2]
        for r in range(4):
            assert list(out[r]) == [r, r * 10]

    def test_scatter(self):
        def program(ctx):
            if ctx.rank == 0:
                sbuf = host_buf(ctx, 4 * ctx.size)
                sbuf.view(np.int32)[:] = np.arange(ctx.size) * 7
            else:
                sbuf = None
            rbuf = host_buf(ctx, 4)
            yield from ctx.comm.Scatter(sbuf, rbuf, 1, INT, root=0)
            return int(rbuf.view(np.int32)[0])

        assert run_world(program, 4) == [0, 7, 14, 21]

    def test_alltoall(self):
        def program(ctx):
            size = ctx.size
            sbuf = host_buf(ctx, 4 * size)
            sbuf.view(np.int32)[:] = ctx.rank * 100 + np.arange(size)
            rbuf = host_buf(ctx, 4 * size)
            yield from ctx.comm.Alltoall(sbuf, rbuf, 1, INT)
            return rbuf.to_array(np.int32)

        results = run_world(program, 4)
        for r, row in enumerate(results):
            assert list(row) == [src * 100 + r for src in range(4)]

    def test_gather_missing_recvbuf_rejected(self):
        def program(ctx):
            sbuf = host_buf(ctx, 4)
            with pytest.raises(MpiError):
                yield from ctx.comm.Gather(sbuf, None, 1, INT, root=0)

        run_world(program, 1)
