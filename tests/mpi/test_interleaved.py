"""Interleaved point-to-point traffic under a hypothesis state machine.

One world of 2-4 ranks, built with a drawn backend and fault plan, takes
an interleaving of drawn operations: ``Isend`` and ``Issend`` (zero-byte
synchronous sends included) from host or device buffers, ``Irecv`` into
host or device buffers (``ANY_SOURCE`` and ``ANY_TAG`` included, every
one large enough for the largest message, so most receive fewer bytes
than they could hold), ``Iprobe`` (followed at once by a receive for the
probed source and tag, which must get the probed message), an ``Alltoallv`` over equivalent-layout
zoo datatypes on a duplicated communicator, and steps of simulated time
or of queue entries, which stop the world anywhere inside a transfer.

Every staging buffer is overwritten as it is released and every host
allocation as it is freed, so a copy that reads one too late corrupts a
receive. After every step, each receive that has completed must have got
the bytes of one message sent to it, and MPI's non-overtaking rule must hold:
two messages on one ``(source, destination, tag, communicator)`` are
received by receives posted in the order they were sent. At teardown the
machine probes for every message left unmatched and posts a wildcard
receive for it, which must get the probed message, sends a message to
every receive left waiting, runs the world dry and requires
every request complete, every receive buffer equal to the slice-loop
oracle of ``tests/mpi/test_pack.py`` byte for byte, and
:func:`tests.audit.audit_drained` clean.
"""

import contextlib
import math

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core import GpuNcConfig
from repro.hw import Cluster, KiB
from repro.hw.node import Node
from repro.ib import FaultPlan, FaultSpec
from repro.mpi import ANY_SOURCE, ANY_TAG, BYTE, Datatype, MpiWorld
from repro.mpi.endpoint import StagingPool
from tests.audit import audit_drained, recording_drained_stores
from tests.mpi.test_pack import slice_gather, slice_scatter

CHUNK = 4 * KiB  # vbuf and pipeline chunk: a 12 KiB message is 3 chunks
LARGEST = 3 * CHUNK
TAGS = (0, 1, 2)

FAULTS = {
    "none": (),
    "rdma fail x2": (FaultSpec("rdma_write", "fail", count=2),),
    "drop fin": (FaultSpec("ctl", "drop", ctl_type="fin"),),
}


class Layout:
    """A committed datatype and the byte runs ``(offset, length)`` of one
    element, in pack order."""

    def __init__(self, name, dtype, runs):
        self.name = name
        self.dtype = dtype.commit()
        self.runs = runs
        self.extent = dtype.extent

    def element_runs(self, count):
        return [(k * self.extent + off, n) for k in range(count)
                for off, n in self.runs]

    def span(self, count):
        if count == 0:
            return 1
        off, n = self.runs[-1]
        return (count - 1) * self.extent + off + n


def _zoo():
    """Two families of equivalent layouts (see the ``zoo`` experiment):
    a strided row grid and an irregular scatter, each built by several
    constructors."""
    rows, half = 8, 4
    grid = [(r * 16, 4) for r in range(rows)]
    h = Datatype.vector(half, 4, 16, BYTE)
    uniform = [
        Layout("vector", Datatype.vector(rows, 4, 16, BYTE), grid),
        Layout("hvector", Datatype.hvector(
            rows, 1, 16, Datatype.contiguous(4, BYTE)), grid),
        Layout("subarray", Datatype.subarray(
            [rows, 16], [rows, 4], [0, 0], BYTE), grid),
        Layout("struct", Datatype.struct([1, 1], [0, half * 16], [h, h]),
               grid),
    ]
    blocks, gaps = [3, 1, 7, 2, 5, 4], [0, 2, 1, 6, 3, 1]
    runs, pos = [], 0
    for block, gap in zip(blocks, gaps):
        pos += gap
        runs.append((pos, block))
        pos += block
    displs = [off for off, _ in runs]
    irregular = [
        Layout("hindexed", Datatype.hindexed(blocks, displs, BYTE), runs),
        Layout("indexed", Datatype.indexed(blocks, displs, BYTE), runs),
        Layout("struct", Datatype.struct(blocks, displs, [BYTE] * 6), runs),
    ]
    return [uniform, irregular]


ZOO = _zoo()
LAYOUTS = [Layout("contig", Datatype.contiguous(48, BYTE), [(0, 48)])]
LAYOUTS += [family[0] for family in ZOO] + [ZOO[0][3], ZOO[1][2]]


@contextlib.contextmanager
def poisoned_releases():
    """Overwrite every staging buffer as it is released and every host
    allocation as it is freed, so that a copy still reading one delivers
    bytes the oracle rejects."""
    release, free = StagingPool.release, Node.free_host

    def poisoned_release(pool, buf):
        release(pool, buf)  # validates the buffer before it is touched
        buf.view()[:] = 0xEE

    def poisoned_free(node, ptr):
        ptr.view()[:] = 0xEE
        free(node, ptr)

    StagingPool.release, Node.free_host = poisoned_release, poisoned_free
    try:
        yield
    finally:
        StagingPool.release, Node.free_host = release, free


def _after(prev, collective):
    """Run ``collective`` once the rank's previous one has returned: a
    blocking collective, so a rank is in one at a time."""
    if prev is not None and not prev.processed:
        yield prev
    yield from collective


class InterleavedTraffic(RuleBasedStateMachine):
    @initialize(nranks=st.integers(2, 4),
                backend=st.sampled_from(["auto", "host", "nic"]),
                fault=st.sampled_from(sorted(FAULTS)))
    def world(self, nranks, backend, fault):
        specs = FAULTS[fault]
        cluster = Cluster(nranks,
                          faults=FaultPlan(specs=specs) if specs else None)
        self.mpi = MpiWorld(cluster, gpu_config=GpuNcConfig(
            chunk_bytes=CHUNK, backend=backend))
        self._context = contextlib.ExitStack()
        self.drained = self._context.enter_context(recording_drained_stores())
        self._context.enter_context(poisoned_releases())
        self.env = self.mpi.env
        self.n = nranks
        self.ctxs = self.mpi.contexts
        self.coll = [ctx.comm.Dup() for ctx in self.ctxs]
        self.messages = []
        self.recvs = []
        self.colls = []

    # -- buffers ----------------------------------------------------------------
    def _buffer(self, rank, device, raw):
        ctx = self.ctxs[rank]
        if device:
            buf = ctx.cuda.malloc(raw.nbytes)
        else:
            buf = ctx.node.malloc_host(raw.nbytes)
        buf.view()[:] = raw
        return buf

    def _send(self, src, dst, tag, layout, count, device, mode):
        """Post one message whose packed bytes start with its id."""
        mid = len(self.messages)
        rng = np.random.default_rng(mid)
        total = layout.dtype.size * count
        payload = rng.integers(0, 256, total, dtype=np.uint8)
        payload[:4] = np.frombuffer(np.uint32(mid).tobytes(), np.uint8)[:total]
        raw = rng.integers(0, 256, layout.span(count), dtype=np.uint8)
        slice_scatter(raw, layout.element_runs(count), payload, 0)
        buf = self._buffer(src, device, raw)
        comm = self.ctxs[src].comm
        post = comm.Issend if mode == "ssend" else comm.Isend
        req = post(buf, count, layout.dtype, dest=dst, tag=tag)
        self.messages.append(dict(id=mid, key=(src, dst, tag), payload=payload,
                                  req=req, received_by=None))

    def _recv(self, rank, source, tag, layout, count, device):
        rng = np.random.default_rng(10_000 + len(self.recvs))
        background = rng.integers(0, 256, layout.span(count), dtype=np.uint8)
        buf = self._buffer(rank, device, background)
        req = self.ctxs[rank].comm.Irecv(buf, count, layout.dtype,
                                         source=source, tag=tag)
        self.recvs.append(dict(index=len(self.recvs), rank=rank,
                               source=source, tag=tag, layout=layout,
                               count=count, buf=buf, background=background,
                               req=req, message=None))

    # -- rules ------------------------------------------------------------------
    @rule(src=st.integers(0, 3), dst=st.integers(0, 3),
          tag=st.sampled_from(TAGS), layout=st.sampled_from(LAYOUTS),
          size=st.sampled_from(["eager", "rendezvous", "largest"]),
          device=st.booleans(), mode=st.sampled_from(["send", "ssend"]),
          data=st.data())
    def isend(self, src, dst, tag, layout, size, device, mode, data):
        elem = layout.dtype.size
        if size == "eager":
            count = data.draw(st.integers(1, 8 * KiB // elem), "count")
        elif size == "rendezvous":
            count = data.draw(st.integers(8 * KiB // elem + 1,
                                          LARGEST // elem), "count")
        else:
            count = LARGEST // elem
        self._send(src % self.n, dst % self.n, tag, layout, count, device,
                   mode)

    @rule(src=st.integers(0, 3), dst=st.integers(0, 3),
          tag=st.sampled_from(TAGS), device=st.booleans())
    def zero_byte_ssend(self, src, dst, tag, device):
        self._send(src % self.n, dst % self.n, tag, LAYOUTS[0], 0, device,
                   "ssend")

    @rule(rank=st.integers(0, 3),
          source=st.sampled_from([ANY_SOURCE, 0, 1, 2, 3]),
          tag=st.sampled_from((ANY_TAG,) + TAGS),
          layout=st.sampled_from(LAYOUTS), device=st.booleans())
    def irecv(self, rank, source, tag, layout, device):
        if source != ANY_SOURCE:
            source %= self.n
        count = math.ceil(LARGEST / layout.dtype.size)
        self._recv(rank % self.n, source, tag, layout, count, device)

    @rule(rank=st.integers(0, 3),
          source=st.sampled_from([ANY_SOURCE, 0, 1, 2, 3]),
          tag=st.sampled_from((ANY_TAG,) + TAGS))
    def iprobe(self, rank, source, tag):
        rank %= self.n
        if source != ANY_SOURCE:
            source %= self.n
        status = self.ctxs[rank].comm.Iprobe(source, tag)
        if status is None:
            return
        # A receive for the probed source and tag, posted at once, gets
        # the probed message.
        host = LAYOUTS[0]
        self._recv(rank, status.source, status.tag, host,
                   math.ceil(LARGEST / host.dtype.size), False)
        self.recvs[-1]["probed"] = status.count_bytes

    @rule(family=st.sampled_from(ZOO), data=st.data())
    def alltoallv(self, family, data):
        """Every rank starts one ``Alltoallv`` on the duplicated
        communicator, each block a drawn count of one zoo member, received
        as another member of the same family."""
        n = self.n
        counts = data.draw(st.lists(
            st.lists(st.sampled_from([0, 1, 3, 400]), min_size=n, max_size=n),
            min_size=n, max_size=n), "counts")
        stype = data.draw(st.sampled_from(family), "send type")
        rtype = data.draw(st.sampled_from(family), "recv type")
        device = data.draw(st.booleans(), "device")
        call = []
        for r in range(n):
            sdispls, rdispls, send_raw = [], [], []
            pos = 0
            for dst in range(n):
                sdispls.append(pos)
                pos += stype.span(counts[r][dst])
            send_raw = np.random.default_rng(
                20_000 + len(self.colls) * 8 + r).integers(
                    0, 256, pos, dtype=np.uint8)
            pos = 0
            for src in range(n):
                rdispls.append(pos)
                pos += rtype.span(counts[src][r])
            recv_raw = np.zeros(pos, np.uint8)
            sbuf = self._buffer(r, device, send_raw)
            rbuf = self._buffer(r, device, recv_raw)
            prev = self.colls[-1]["ranks"][r]["proc"] if self.colls else None
            proc = self.env.process(_after(prev, self.coll[r].Alltoallv(
                sbuf, counts[r], sdispls, stype.dtype,
                rbuf, [counts[src][r] for src in range(n)], rdispls,
                rtype.dtype)))
            call.append(dict(proc=proc, send=send_raw, sdispls=sdispls,
                             rbuf=rbuf, rdispls=rdispls))
        self.colls.append(dict(counts=counts, stype=stype, rtype=rtype,
                               ranks=call))

    @rule(dt=st.sampled_from([0.0, 2e-6, 2e-5, 1e-4]))
    def advance(self, dt):
        self.env.run(until=self.env.now + dt)

    @rule(n=st.integers(1, 60))
    def step(self, n):
        """Process ``n`` queue entries: stop anywhere inside a transfer."""
        env = self.env
        for _ in range(n):
            if env.peek() == float("inf"):
                break
            env.step()

    # -- checks -----------------------------------------------------------------
    def _identify(self, recv):
        """The message a completed receive got, by the id its bytes carry."""
        status = recv["req"].status
        assert recv.get("probed", status.count_bytes) == status.count_bytes, (
            f"receive {recv['index']} got {status.count_bytes} bytes, not the "
            f"probed message of {recv['probed']}")
        layout = recv["layout"]
        view = recv["buf"].view()
        got = slice_gather(view, layout.element_runs(recv["count"]), 0,
                           status.count_bytes)
        key = (status.source, recv["rank"], status.tag)
        candidates = [m for m in self.messages
                      if m["key"] == key and m["received_by"] is None
                      and m["payload"].nbytes == status.count_bytes
                      and (status.count_bytes == 0
                           or np.array_equal(m["payload"], got))]
        assert candidates, (
            f"receive {recv['index']} at rank {recv['rank']} got bytes of "
            f"no message sent to it ({status})")
        # Zero-byte messages carry no id: take the oldest one.
        message = candidates[0]
        message["received_by"] = recv["index"]
        recv["message"] = message

    @invariant()
    def receives_follow_send_order(self):
        if not getattr(self, "messages", None):
            return
        for recv in self.recvs:
            if recv["message"] is None and recv["req"].completed:
                self._identify(recv)
        last = {}
        for m in self.messages:
            if m["received_by"] is None or not m["payload"].nbytes:
                continue
            prev = last.get(m["key"])
            assert prev is None or prev < m["received_by"], (
                f"non-overtaking: message {m['id']} on {m['key']} was "
                f"received by receive {m['received_by']}, posted before "
                f"receive {prev} of an earlier message")
            last[m["key"]] = m["received_by"]

    def _balance(self):
        """Match every message and every receive left over, then run dry."""
        env, eps = self.env, self.mpi.endpoints
        host = LAYOUTS[0]
        for _ in range(10_000):
            env.run()
            posted = False
            for ctx in self.ctxs:
                # Each unmatched message goes to a wildcard receive, which
                # gets the message a probe just before it reported.
                while True:
                    status = ctx.comm.Iprobe(ANY_SOURCE, ANY_TAG)
                    if status is None:
                        break
                    self._recv(ctx.rank, ANY_SOURCE, ANY_TAG, host,
                               math.ceil(LARGEST / host.dtype.size), False)
                    self.recvs[-1]["probed"] = status.count_bytes
                    posted = True
            if not posted:
                break
        else:
            raise AssertionError("teardown: unmatched messages keep coming")
        # Each receive left waiting, oldest first, gets a message of its
        # own; it is the oldest posted receive that message matches.
        for recv in self.recvs:
            if recv["req"].completed:
                continue
            rank = recv["rank"]
            src = recv["source"] if recv["source"] != ANY_SOURCE else rank
            tag = recv["tag"] if recv["tag"] != ANY_TAG else 0
            self._send(src, rank, tag, host, 1, False, "send")
            env.run()
        p2p = {ctx.comm.comm_id for ctx in self.ctxs}
        for ep in eps:
            assert not [p for p in ep.matching.posted if p.comm_id in p2p]

    def teardown(self):
        if not hasattr(self, "_context"):
            return
        with self._context:
            self._balance()
            for m in self.messages:
                assert m["req"].completed, f"send {m['id']} incomplete"
            for recv in self.recvs:
                assert recv["req"].completed, (
                    f"receive {recv['index']} incomplete")
            self.receives_follow_send_order()
            for recv in self.recvs:
                self._check_receive(recv)
            for call in self.colls:
                self._check_alltoallv(call)
            audit_drained(self.mpi, self.drained)

    def _check_receive(self, recv):
        layout = recv["layout"]
        expected = recv["background"].copy()
        slice_scatter(expected, layout.element_runs(recv["count"]),
                      recv["message"]["payload"], 0)
        assert np.array_equal(recv["buf"].view(), expected), (
            f"receive {recv['index']} bytes differ from the oracle")

    def _check_alltoallv(self, call):
        counts, stype, rtype = call["counts"], call["stype"], call["rtype"]
        ranks = call["ranks"]
        for r, mine in enumerate(ranks):
            assert mine["proc"].processed, f"alltoallv on rank {r} unfinished"
            expected = np.zeros(mine["rbuf"].nbytes, np.uint8)
            for src, theirs in enumerate(ranks):
                count = counts[src][r]
                total = stype.dtype.size * count
                sent = theirs["send"][theirs["sdispls"][r]:]
                payload = slice_gather(sent, stype.element_runs(count), 0,
                                       total)
                block = expected[mine["rdispls"][src]:]
                slice_scatter(block, rtype.element_runs(count), payload, 0)
            assert np.array_equal(mine["rbuf"].view(), expected), (
                f"alltoallv receive buffer of rank {r} differs")


InterleavedTraffic.TestCase.settings = settings(
    max_examples=25, stateful_step_count=14, deadline=None)
TestInterleavedTraffic = InterleavedTraffic.TestCase
