"""Audit of a finished world: no protocol state or resource claim is left.

Shared by the golden-trace harness, which audits every sequential run
once its digest is taken, and by the single-transfer property tests.
"""

from __future__ import annotations

import contextlib

from repro.mpi import protocol


@contextlib.contextmanager
def recording_drained_stores():
    """Collect the drained-chunk store of every staged receive made inside
    the block, for :func:`audit_drained`.

    A retired transaction is unreachable from the world, and so is its
    store; a granter left waiting on it would be lost with it.
    """
    stores = []
    make = protocol.make_recv_state

    def recording(*args, **kwargs):
        state = make(*args, **kwargs)
        if state.drained is not None:
            stores.append(state.drained)
        return state

    protocol.make_recv_state = recording
    try:
        yield stores
    finally:
        protocol.make_recv_state = make


def audit_drained(world, drained_stores=()) -> None:
    """Assert a finished world holds no protocol state or resource claim.

    Every resource an endpoint uses -- its HCA's TX engine, its
    ``send_order``, its node's CPU and each GPU's exec, D2H and H2D
    engines -- must be idle with no waiter. Every HCA inbox must be
    empty, with each endpoint's progress op waiting on it; no vbuf pool,
    tbuf pool or drained-chunk store (``drained_stores``, from
    :func:`recording_drained_stores`) may have a waiter.

    Run the environment until its queue is empty first, so in-flight
    protocol events have finished. Not audited: the recovery tombstones
    (``rts_seen``, ``retired_ssns``, ``sent_history``), which armed
    endpoints keep by design.
    """
    for node in world.cluster.nodes:
        inbox = node.hca.inbox
        assert not len(inbox), (
            f"{inbox.name}: {len(inbox)} messages left: {inbox.peek_items()}"
        )
    for ep in world.endpoints:
        where = f"rank {ep.rank}"
        assert not ep.send_states, f"{where}: SendState left: {list(ep.send_states)}"
        assert not ep.recv_states, f"{where}: RecvState left: {list(ep.recv_states)}"
        for pool in (ep.send_vbufs, ep.recv_vbufs):
            assert pool.available == pool.count, (
                f"{where}: {pool.count - pool.available} vbufs not returned"
            )
            assert not pool.waiting, f"{where}: {pool.waiting} vbuf waiters"
        assert ep.progress in ep.hca.inbox.peek_waiters(), (
            f"{where}: progress op not waiting on {ep.hca.inbox.name}"
        )
        assert not ep.matching.posted, f"{where}: posted receive left"
        assert not ep.matching.unexpected, f"{where}: unexpected message left"
        engines = [ep.hca.tx, ep.send_order, ep.node.cpu]
        for gpu in ep.node.gpus:
            engines += [gpu.exec_engine, gpu.pcie.d2h, gpu.pcie.h2d]
        for res in engines:
            assert res.count == 0 and res.queue_len == 0, (
                f"{where}: {res.name} held by {res.count}, "
                f"{res.queue_len} waiting"
            )
    for rank, res in world.gpu_engine._resources.items():
        assert res.tbufs.available == res.tbufs.count, (
            f"rank {rank}: {res.tbufs.in_use} tbufs not returned"
        )
        assert not res.tbufs.waiting, (
            f"rank {rank}: {res.tbufs.waiting} tbuf waiters"
        )
        for stream in (res.pack, res.d2h, res.h2d, res.unpack):
            assert stream.pending_ops == 0, f"rank {rank}: {stream.name} busy"
    for store in drained_stores:
        assert not store.queue_len, f"{store.name}: granter still waiting"
