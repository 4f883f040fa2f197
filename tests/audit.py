"""Audit of a finished world: no protocol state or resource claim is left.

Shared by the golden-trace harness, which audits every sequential run
once its digest is taken, and by the single-transfer property tests.
"""

from __future__ import annotations


def audit_drained(world) -> None:
    """Assert a finished world holds no protocol state or resource claim.

    Every resource an endpoint uses -- its HCA's TX engine, its
    ``send_order``, its node's CPU and each GPU's exec, D2H and H2D
    engines -- must be idle with no waiter.

    Run the environment until its queue is empty first, so in-flight
    protocol events have finished. Not audited: the recovery tombstones
    (``rts_seen``, ``retired_ssns``, ``sent_history``), which armed
    endpoints keep by design.
    """
    for ep in world.endpoints:
        where = f"rank {ep.rank}"
        assert not ep.send_states, f"{where}: SendState left: {list(ep.send_states)}"
        assert not ep.recv_states, f"{where}: RecvState left: {list(ep.recv_states)}"
        for pool in (ep.send_vbufs, ep.recv_vbufs):
            assert pool.available == pool.count, (
                f"{where}: {pool.count - pool.available} vbufs not returned"
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
        for stream in (res.pack, res.d2h, res.h2d, res.unpack):
            assert stream.pending_ops == 0, f"rank {rank}: {stream.name} busy"
