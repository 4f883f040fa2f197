"""Point-to-point semantics: matching, ordering, protocols, errors."""

import numpy as np
import pytest

from repro.hw import Cluster
from repro.mpi import (
    ANY_SOURCE,
    ANY_TAG,
    BYTE,
    DOUBLE,
    FLOAT,
    Datatype,
    DatatypeError,
    MpiError,
    MpiWorld,
    run_world,
    wait_all,
)


def host_buf(ctx, nbytes, fill=None):
    buf = ctx.node.malloc_host(nbytes)
    if fill is not None:
        buf.view()[: len(fill)] = fill
    return buf


class TestBasicSendRecv:
    @pytest.mark.parametrize("n", [0, 1, 64, 2048, 100_000, 1 << 20])
    def test_host_roundtrip_various_sizes(self, n):
        """Covers eager (small) and rendezvous (large) host paths."""

        def program(ctx):
            buf = host_buf(ctx, max(n, 1))
            if ctx.rank == 0:
                buf.view()[:n] = np.arange(n, dtype=np.uint64).astype(np.uint8)[:n]
                yield from ctx.comm.Send(buf, n, BYTE, dest=1)
            else:
                st = yield from ctx.comm.Recv(buf, n, BYTE, source=0)
                assert st.count_bytes == n
                expect = np.arange(n, dtype=np.uint64).astype(np.uint8)[:n]
                assert np.array_equal(buf.view()[:n], expect)
                return st.source

        results = run_world(program, 2)
        assert results[1] == 0

    def test_send_before_recv_posted(self):
        """Unexpected-message queue: sender fires first."""

        def program(ctx):
            buf = host_buf(ctx, 16)
            if ctx.rank == 0:
                buf.view()[:] = 7
                yield from ctx.comm.Send(buf, 16, BYTE, dest=1, tag=3)
            else:
                yield ctx.env.timeout(1e-3)  # make sure message arrived first
                yield from ctx.comm.Recv(buf, 16, BYTE, source=0, tag=3)
                assert (buf.view() == 7).all()

        run_world(program, 2)

    def test_recv_posted_before_send(self):
        def program(ctx):
            buf = host_buf(ctx, 16)
            if ctx.rank == 0:
                yield ctx.env.timeout(1e-3)
                buf.view()[:] = 9
                yield from ctx.comm.Send(buf, 16, BYTE, dest=1)
            else:
                yield from ctx.comm.Recv(buf, 16, BYTE, source=0)
                assert (buf.view() == 9).all()

        run_world(program, 2)

    def test_large_rendezvous_before_recv_posted(self):
        n = 1 << 20

        def program(ctx):
            buf = host_buf(ctx, n)
            if ctx.rank == 0:
                buf.view()[:] = 0x41
                yield from ctx.comm.Send(buf, n, BYTE, dest=1)
            else:
                yield ctx.env.timeout(5e-3)
                yield from ctx.comm.Recv(buf, n, BYTE, source=0)
                assert (buf.view() == 0x41).all()

        run_world(program, 2)

    def test_bidirectional_sendrecv(self):
        def program(ctx):
            sbuf = host_buf(ctx, 64, np.full(64, ctx.rank + 1, np.uint8))
            rbuf = host_buf(ctx, 64)
            other = 1 - ctx.rank
            yield from ctx.comm.Sendrecv(
                sbuf, 64, BYTE, other, rbuf, 64, BYTE, other
            )
            assert (rbuf.view() == other + 1).all()

        run_world(program, 2)

    def test_self_send(self):
        def program(ctx):
            sbuf = host_buf(ctx, 32, np.arange(32, dtype=np.uint8))
            rbuf = host_buf(ctx, 32)
            req = ctx.comm.Irecv(rbuf, 32, BYTE, source=0)
            yield from ctx.comm.Send(sbuf, 32, BYTE, dest=0)
            yield from req.wait()
            assert np.array_equal(rbuf.view(), sbuf.view())

        run_world(program, 1)

    def test_self_rendezvous_lands_before_its_receive_completes(self):
        """A strided self-send into a contiguous receive: each FIN to self
        finishes its zero-copy chunk at once, so the bytes of every chunk
        must be there by then."""
        rows = 3 << 12  # 48 KiB packed, three 16 KiB chunks
        vec = Datatype.hvector(rows, 4, 8, BYTE).commit()

        def program(ctx):
            sbuf = host_buf(ctx, rows * 8, np.arange(rows * 8) % 251)
            rbuf = host_buf(ctx, rows * 4)
            req = ctx.comm.Irecv(rbuf, rows * 4, BYTE, source=0)
            yield from ctx.comm.Send(sbuf, 1, vec, dest=0)
            yield from req.wait()
            assert np.array_equal(rbuf.view(),
                                  sbuf.view().reshape(rows, 8)[:, :4].ravel())

        world = MpiWorld(Cluster(1), vbuf_bytes=16 << 10)
        world.run(program)


class TestMatching:
    def test_tags_differentiate(self):
        def program(ctx):
            if ctx.rank == 0:
                a = host_buf(ctx, 4, np.full(4, 1, np.uint8))
                b = host_buf(ctx, 4, np.full(4, 2, np.uint8))
                yield from ctx.comm.Send(a, 4, BYTE, dest=1, tag=10)
                yield from ctx.comm.Send(b, 4, BYTE, dest=1, tag=20)
            else:
                b = host_buf(ctx, 4)
                a = host_buf(ctx, 4)
                # Post in reverse tag order: matching must go by tag.
                rb = ctx.comm.Irecv(b, 4, BYTE, source=0, tag=20)
                ra = ctx.comm.Irecv(a, 4, BYTE, source=0, tag=10)
                yield from wait_all([ra, rb])
                assert (a.view() == 1).all() and (b.view() == 2).all()

        run_world(program, 2)

    def test_any_source_any_tag(self):
        def program(ctx):
            if ctx.rank in (0, 1):
                buf = host_buf(ctx, 4, np.full(4, ctx.rank + 10, np.uint8))
                yield ctx.env.timeout((ctx.rank + 1) * 1e-4)
                yield from ctx.comm.Send(buf, 4, BYTE, dest=2, tag=ctx.rank)
            else:
                seen = set()
                for _ in range(2):
                    buf = host_buf(ctx, 4)
                    st = yield from ctx.comm.Recv(
                        buf, 4, BYTE, source=ANY_SOURCE, tag=ANY_TAG
                    )
                    assert buf.view()[0] == st.source + 10
                    assert st.tag == st.source
                    seen.add(st.source)
                assert seen == {0, 1}

        run_world(program, 3)

    def test_non_overtaking_same_tag(self):
        """Two same-tag messages must arrive in send order."""

        def program(ctx):
            if ctx.rank == 0:
                for val in (1, 2, 3):
                    buf = host_buf(ctx, 4, np.full(4, val, np.uint8))
                    yield from ctx.comm.Send(buf, 4, BYTE, dest=1, tag=0)
            else:
                got = []
                for _ in range(3):
                    buf = host_buf(ctx, 4)
                    yield from ctx.comm.Recv(buf, 4, BYTE, source=0, tag=0)
                    got.append(int(buf.view()[0]))
                assert got == [1, 2, 3]

        run_world(program, 2)

    def test_mixed_eager_rendezvous_ordering(self):
        """A small (eager) then large (rendezvous) same-tag pair keeps order."""
        big = 1 << 18

        def program(ctx):
            if ctx.rank == 0:
                small = host_buf(ctx, 4, np.full(4, 5, np.uint8))
                large = host_buf(ctx, big, np.full(big, 6, np.uint8))
                r1 = ctx.comm.Isend(small, 4, BYTE, dest=1, tag=0)
                r2 = ctx.comm.Isend(large, big, BYTE, dest=1, tag=0)
                yield from wait_all([r1, r2])
            else:
                first = host_buf(ctx, big)
                second = host_buf(ctx, big)
                s1 = yield from ctx.comm.Recv(first, big, BYTE, source=0, tag=0)
                s2 = yield from ctx.comm.Recv(second, big, BYTE, source=0, tag=0)
                assert s1.count_bytes == 4 and first.view()[0] == 5
                assert s2.count_bytes == big and second.view()[0] == 6

        run_world(program, 2)


class TestRequests:
    def test_isend_irecv_wait(self):
        def program(ctx):
            buf = host_buf(ctx, 128)
            if ctx.rank == 0:
                buf.view()[:] = 3
                req = ctx.comm.Isend(buf, 128, BYTE, dest=1)
                assert not req.test() or True  # may complete quickly
                yield from req.wait()
                assert req.test()
            else:
                req = ctx.comm.Irecv(buf, 128, BYTE, source=0)
                st = yield from req.wait()
                assert st.count_bytes == 128

        run_world(program, 2)

    def test_waitall_many(self):
        k = 8

        def program(ctx):
            if ctx.rank == 0:
                bufs = [
                    host_buf(ctx, 64, np.full(64, i, np.uint8)) for i in range(k)
                ]
                reqs = [
                    ctx.comm.Isend(bufs[i], 64, BYTE, dest=1, tag=i)
                    for i in range(k)
                ]
                yield from wait_all(reqs)
            else:
                bufs = [host_buf(ctx, 64) for _ in range(k)]
                reqs = [
                    ctx.comm.Irecv(bufs[i], 64, BYTE, source=0, tag=i)
                    for i in range(k)
                ]
                yield from wait_all(reqs)
                for i in range(k):
                    assert (bufs[i].view() == i).all()

        run_world(program, 2)

    def test_status_get_count(self):
        def program(ctx):
            buf = host_buf(ctx, 40)
            if ctx.rank == 0:
                yield from ctx.comm.Send(buf, 10, FLOAT, dest=1)
            else:
                st = yield from ctx.comm.Recv(buf, 10, FLOAT, source=0)
                assert st.get_count(FLOAT) == 10
                with pytest.raises(MpiError):
                    st.get_count(DOUBLE)  # 40 bytes not a whole # of doubles? 40/8=5 ok
                    # (never reached; above raises only if not whole -- use a
                    # 3-byte-ish check instead)

        # get_count(DOUBLE) == 5 actually works; rewrite properly below.
        def program2(ctx):
            buf = host_buf(ctx, 12)
            if ctx.rank == 0:
                yield from ctx.comm.Send(buf, 3, FLOAT, dest=1)
            else:
                st = yield from ctx.comm.Recv(buf, 3, FLOAT, source=0)
                assert st.get_count(FLOAT) == 3
                with pytest.raises(MpiError):
                    st.get_count(DOUBLE)  # 12 bytes is not whole doubles

        run_world(program2, 2)


class TestErrors:
    def test_truncation_eager(self):
        def program(ctx):
            if ctx.rank == 0:
                buf = host_buf(ctx, 64)
                yield from ctx.comm.Send(buf, 64, BYTE, dest=1)
            else:
                buf = host_buf(ctx, 16)
                with pytest.raises(MpiError, match="truncation"):
                    yield from ctx.comm.Recv(buf, 16, BYTE, source=0)

        run_world(program, 2)

    def test_truncation_rendezvous(self):
        n = 1 << 18

        def program(ctx):
            if ctx.rank == 0:
                buf = host_buf(ctx, n)
                req = ctx.comm.Isend(buf, n, BYTE, dest=1)
                # Do not wait: the send can never complete; just exit.
                yield ctx.env.timeout(1e-3)
            else:
                buf = host_buf(ctx, 128)
                with pytest.raises(MpiError, match="truncation"):
                    yield from ctx.comm.Recv(buf, 128, BYTE, source=0)
                yield ctx.env.timeout(1e-3)

        run_world(program, 2)

    def test_invalid_peer(self):
        def program(ctx):
            buf = host_buf(ctx, 4)
            with pytest.raises(MpiError):
                ctx.comm.Isend(buf, 4, BYTE, dest=5)
            return
            yield

        run_world(program, 2)

    def test_uncommitted_datatype_rejected(self):
        def program(ctx):
            buf = host_buf(ctx, 64)
            t = Datatype.vector(4, 1, 2, FLOAT)  # not committed
            with pytest.raises(DatatypeError):
                ctx.comm.Isend(buf, 1, t, dest=0)
            return
            yield

        run_world(program, 1)

    def test_buffer_too_small_rejected(self):
        def program(ctx):
            buf = host_buf(ctx, 8)
            with pytest.raises(DatatypeError):
                ctx.comm.Isend(buf, 16, FLOAT, dest=0)
            return
            yield

        run_world(program, 1)


class TestNonContiguousHost:
    def test_vector_send_host_to_host(self):
        """MPI packs on the CPU for strided host sends (the Def path)."""
        rows, pitch = 64, 32

        def program(ctx):
            vec = Datatype.vector(rows, 4, pitch // 1, BYTE).commit()
            buf = host_buf(ctx, rows * pitch)
            if ctx.rank == 0:
                raw = np.arange(rows * pitch, dtype=np.int32).astype(np.uint8)
                buf.view()[:] = raw
                yield from ctx.comm.Send(buf, 1, vec, dest=1)
            else:
                yield from ctx.comm.Recv(buf, 1, vec, source=0)
                got = buf.view().reshape(rows, pitch)
                want = (
                    np.arange(rows * pitch, dtype=np.int32)
                    .astype(np.uint8)
                    .reshape(rows, pitch)
                )
                assert np.array_equal(got[:, :4], want[:, :4])
                assert (got[:, 4:] == 0).all()

        run_world(program, 2)

    def test_large_noncontiguous_host_rendezvous(self):
        rows = 1 << 15  # 32K rows x 8 bytes = 256 KB > eager threshold

        def program(ctx):
            vec = Datatype.vector(rows, 8, 16, BYTE).commit()
            buf = host_buf(ctx, rows * 16)
            if ctx.rank == 0:
                rng = np.random.default_rng(3)
                buf.view()[:] = rng.integers(0, 256, rows * 16, dtype=np.uint8)
                yield from ctx.comm.Send(buf, 1, vec, dest=1)
                return buf.view().reshape(rows, 16)[:, :8].copy()
            else:
                yield from ctx.comm.Recv(buf, 1, vec, source=0)
                return buf.view().reshape(rows, 16)[:, :8].copy()

        sent, received = run_world(program, 2)
        assert np.array_equal(sent, received)

    def test_sender_vector_receiver_contiguous(self):
        """Type signatures may differ as long as byte counts line up."""
        rows = 128

        def program(ctx):
            if ctx.rank == 0:
                vec = Datatype.vector(rows, 1, 2, FLOAT).commit()
                buf = host_buf(ctx, vec.extent)
                buf.view(np.float32)[0::2] = np.arange(rows, dtype=np.float32)
                yield from ctx.comm.Send(buf, 1, vec, dest=1)
            else:
                buf = host_buf(ctx, rows * 4)
                yield from ctx.comm.Recv(buf, rows, FLOAT, source=0)
                assert np.array_equal(
                    buf.view(np.float32), np.arange(rows, dtype=np.float32)
                )

        run_world(program, 2)
