"""Audit of a finished world: no protocol state or engine claim is left.

Shared by the golden-trace harness, which audits every sequential run
once its digest is taken, and by the single-transfer property tests.
"""

from __future__ import annotations


def audit_drained(world) -> None:
    """Assert a finished world holds no protocol state or engine claim.

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
        tx = ep.hca.tx
        assert tx.count == 0 and tx.queue_len == 0, f"{where}: HCA TX busy"
    for rank, res in world.gpu_engine._resources.items():
        assert res.tbufs.available == res.tbufs.count, (
            f"rank {rank}: {res.tbufs.in_use} tbufs not returned"
        )
        for stream in (res.pack, res.d2h, res.h2d, res.unpack):
            assert stream.pending_ops == 0, f"rank {rank}: {stream.name} busy"
