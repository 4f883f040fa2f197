"""One property over single transfers: every path delivers the oracle's bytes.

A drawn transfer sends ``count`` elements of a contiguous, vector or
irregular ``indexed`` type (of short runs, gathered through a word index,
or of long runs, copied run by run) from a host or device buffer into a
host or device buffer, under a forced or automatic backend, at an eager
or a 2-3 chunk rendezvous size, into a full-size or a one-element-larger
receive, fault-free or under recovery, one way or both ways at once (each
rank then sends to the other while it receives, so the GPU exec engine,
the HCA TX engine and the host CPU serve both directions and hold queued
waiters). Each receive buffer must equal the slice-loop oracle of
``tests/mpi/test_pack.py`` byte for byte, and the drained world must hold
no protocol state, staging buffer or resource claim
(:func:`tests.audit.audit_drained`).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GpuNcConfig
from repro.hw import Cluster, KiB
from repro.ib import FaultPlan, FaultSpec
from repro.mpi import BYTE, Datatype, MpiWorld, wait_all
from tests.audit import audit_drained, recording_drained_stores
from tests.mpi.test_pack import slice_gather, slice_scatter

CHUNK = 8 * KiB  # the eager threshold: a larger message is a rendezvous

FAULTS = {
    "none": (),
    "rdma fail x2": (FaultSpec("rdma_write", "fail", count=2),),
    "drop fin": (FaultSpec("ctl", "drop", ctl_type="fin"),),
}


@st.composite
def layouts(draw):
    """``(datatype, runs of one element as (offset, length), extent)``."""
    kind = draw(st.sampled_from(["contig", "vector", "indexed", "long"]))
    if kind == "contig":
        n = draw(st.integers(64, 3000))
        return Datatype.contiguous(n, BYTE).commit(), [(0, n)], n
    if kind == "vector":
        rows = draw(st.integers(2, 400))
        block = draw(st.integers(1, 8))
        stride = block + draw(st.integers(1, 8))
        runs = [(r * stride, block) for r in range(rows)]
        dtype = Datatype.vector(rows, block, stride, BYTE).commit()
        return dtype, runs, (rows - 1) * stride + block
    nblocks = draw(st.integers(2, 12 if kind == "long" else 300))
    block = st.integers(128, 1024) if kind == "long" else st.integers(1, 16)
    blocks = draw(st.lists(block, min_size=nblocks, max_size=nblocks))
    gaps = draw(st.lists(st.integers(1, 12), min_size=nblocks,
                         max_size=nblocks))
    runs, pos = [], 0
    for block, gap in zip(blocks, gaps):
        pos += gap
        runs.append((pos, block))
        pos += block
    dtype = Datatype.indexed(blocks, [off for off, _ in runs], BYTE).commit()
    return dtype, runs, pos - runs[0][0]


def element_runs(runs, extent, count):
    """Runs of ``count`` consecutive elements, in pack order."""
    return [(k * extent + off, n) for k in range(count) for off, n in runs]


@settings(max_examples=50, deadline=None)
@given(
    layout=layouts(),
    src_dev=st.booleans(),
    dst_dev=st.booleans(),
    backend=st.sampled_from(["auto", "host", "nic"]),
    partial=st.booleans(),
    size=st.sampled_from(["eager", "rdv2", "rdv3"]),
    fault=st.sampled_from(sorted(FAULTS)),
    both_ways=st.booleans(),
    data=st.data(),
)
def test_single_transfer_matches_slice_oracle(layout, src_dev, dst_dev,
                                              backend, partial, size, fault,
                                              both_ways, data):
    dtype, runs, extent = layout
    elem = dtype.size
    if size == "eager":
        count = data.draw(st.integers(1, max(1, CHUNK // elem)), "count")
    else:
        nchunks = int(size[-1])
        lo = (nchunks - 1) * CHUNK // elem + 1
        count = data.draw(st.integers(lo, max(lo, nchunks * CHUNK // elem)),
                          "count")
    total = elem * count
    # A partial-size receive posts one element more than arrives.
    rcount = count + 1 if partial else count
    span = (rcount - 1) * extent + runs[-1][0] + runs[-1][1]
    rng = np.random.default_rng(total)
    # What each rank sends (rank 1 only when both ways) and what its
    # receive buffer holds before the message lands.
    sent = rng.integers(0, 256, (2, span), dtype=np.uint8)
    background = rng.integers(0, 256, (2, span), dtype=np.uint8)

    specs = FAULTS[fault]
    cluster = Cluster(2, faults=FaultPlan(specs=specs) if specs else None)
    world = MpiWorld(cluster, gpu_config=GpuNcConfig(chunk_bytes=CHUNK,
                                                     backend=backend))

    def alloc(ctx, dev, fill):
        buf = ctx.cuda.malloc(span) if dev else ctx.node.malloc_host(span)
        buf.view()[:] = fill
        return buf

    def program(ctx):
        rank, peer = ctx.rank, 1 - ctx.rank
        reqs = []
        if rank == 1 or both_ways:
            rbuf = alloc(ctx, dst_dev, background[rank])
            reqs.append(ctx.comm.Irecv(rbuf, rcount, dtype, source=peer))
        if rank == 0 or both_ways:
            sbuf = alloc(ctx, src_dev, sent[rank])
            reqs.append(ctx.comm.Isend(sbuf, count, dtype, dest=peer))
        statuses = yield from wait_all(reqs)
        if rank == 1 or both_ways:
            assert statuses[0].count_bytes == total
            return rbuf.view().copy()

    with recording_drained_stores() as drained:
        got = world.run(program)
        world.env.run()
    for rank in (0, 1) if both_ways else (1,):
        expected = background[rank].copy()
        payload = slice_gather(sent[1 - rank], element_runs(runs, extent, count),
                               0, total)
        slice_scatter(expected, element_runs(runs, extent, rcount), payload, 0)
        assert np.array_equal(got[rank], expected), f"rank {rank} receive"
    audit_drained(world, drained)
