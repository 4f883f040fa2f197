"""InfiniBand verbs-level model: HCAs, control sends, RDMA writes.

The model keeps the properties the paper's protocol relies on:

* **RDMA write** moves bytes from registered local host memory directly
  into registered remote host memory with no remote CPU involvement; the
  sender gets a local completion event.
* **Send/recv control messages** (RTS, CTS, RDMA-finish) are small,
  CPU-handled messages delivered into the receiver's inbox, where the MPI
  progress engine picks them up.
* Messages between a given pair of HCAs are delivered in order (reliable
  connection semantics): all traffic serializes through the sender's TX
  engine and experiences the same wire latency.

Every remote-side effect -- an inbox deposit or an RDMA payload landing --
is scheduled as a *wire-delivery event* (:meth:`Environment.schedule_wire`)
keyed by ``(arrival time, source node, per-source sequence)``. The key is
computed entirely from sender-local state, so the delivery order of
same-instant arrivals is independent of how the simulation is partitioned:
the sharded engine (:mod:`repro.sim.shard`) reconstructs the identical key
on the receiving shard and the whole run stays bit-identical to the
sequential one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional

from ..sim import Environment, Event, Store, Tracer, wire_key
from ..hw.config import HardwareConfig
from ..hw.memory import BufferPtr
from .faults import CancelToken, RdmaError

if TYPE_CHECKING:  # pragma: no cover
    from ..hw.node import Node
    from .fabric import Fabric

__all__ = ["HCA", "RemoteBuffer", "ControlMessage"]


@dataclass(frozen=True)
class RemoteBuffer:
    """An RDMA-addressable window in a remote node's host memory.

    In real verbs this is (virtual address, rkey); here it is (node id,
    arena offset, length). Produced by :meth:`HCA.register` and shipped to
    peers inside CTS messages.
    """

    node_id: int
    offset: int
    nbytes: int


@dataclass(frozen=True)
class ControlMessage:
    """A small send/recv message delivered to the remote inbox."""

    src_node: int
    dst_node: int
    payload: Any


class HCA:
    """One InfiniBand host channel adapter."""

    def __init__(
        self,
        env: Environment,
        cfg: HardwareConfig,
        node: "Node",
        fabric: "Fabric",
        tracer: Tracer,
    ):
        from ..sim import Resource

        self.env = env
        self.cfg = cfg
        self.node = node
        self.fabric = fabric
        self.tracer = tracer
        self.name = f"hca{node.node_id}"
        self.tx = Resource(env, capacity=1, name=f"{self.name}.tx")
        #: Control messages land here; MPI progress engines block on get().
        self.inbox: Store = Store(env, name=f"{self.name}.inbox")
        #: dst node id -> (event label, process name); building two
        #: f-strings per control message is measurable on the hot path.
        self._ctl_labels: Dict[int, tuple] = {}
        self._loopback_label = f"ctl-loopback:{self.name}"
        self._loopback_pname = f"ctl-loopback {self.name}"
        #: Monotonic count of wire emissions by this node; combined with
        #: the node id it keys every remote delivery (see module docstring).
        self._wire_seq = 0
        #: dst node id -> wire latency; the fabric topology is static, so
        #: each pair's latency is computed once (uniform fabrics always
        #: cache cfg.net_latency and behave exactly as before).
        self._lat_cache: Dict[int, float] = {}
        node.hca = self

    def _latency(self, dst_node: int) -> float:
        lat = self._lat_cache.get(dst_node)
        if lat is None:
            lat = self._lat_cache[dst_node] = self.fabric.latency(
                self.node.node_id, dst_node
            )
        return lat

    def _next_wire_key(self) -> int:
        """Queue key for this HCA's next wire emission.

        Consumed exactly once per emission on both the local and the
        cross-shard branch, so a node's emission counter advances
        identically no matter where its peers live.
        """
        self._wire_seq += 1
        return wire_key(self.node.node_id, self._wire_seq)

    # -- registration ---------------------------------------------------------------
    def register(self, ptr: BufferPtr) -> RemoteBuffer:
        """Expose a local host buffer for remote RDMA access."""
        if ptr.space != "host":
            raise ValueError("only host memory can be registered for RDMA")
        if ptr.arena is not self.node.memory:
            raise ValueError("buffer does not belong to this HCA's node")
        return RemoteBuffer(self.node.node_id, ptr.offset, ptr.nbytes)

    # -- verbs ------------------------------------------------------------------------
    def rdma_write(
        self,
        src: BufferPtr,
        dst: RemoteBuffer,
        token: Optional[CancelToken] = None,
    ) -> Event:
        """Post an RDMA write; returns the local completion event.

        Local completion fires when the HCA has finished reading the source
        buffer (TX done: the buffer is safe to reuse); the destination bytes
        become visible one wire latency later. A FIN control message posted
        after local completion serializes behind the data on the same
        reliable connection, so it can never announce bytes that have not
        landed -- matching the paper's protocol.

        ``token`` (retry layer only): cancelling it abandons the attempt --
        an in-flight write will not touch remote memory nor complete.
        """
        if src.space != "host":
            raise ValueError("RDMA source must be registered host memory")
        if src.nbytes != dst.nbytes:
            raise ValueError(
                f"RDMA size mismatch: local {src.nbytes} vs remote {dst.nbytes}"
            )
        done = self.env.event(label=f"rdma:{self.name}->{dst.node_id}")
        self.env.process(
            self._rdma_proc(src, dst, done, token),
            name=f"rdma {self.name}->{dst.node_id}",
        )
        return done

    def _rdma_proc(
        self,
        src: BufferPtr,
        dst: RemoteBuffer,
        done: Event,
        token: Optional[CancelToken] = None,
    ):
        cfg = self.cfg
        inj = self.fabric.injector
        act = (
            inj.on_rdma(self.node.node_id, dst.node_id, src.nbytes)
            if inj is not None else None
        )
        with self.tx.request() as req:
            yield req
            start = self.env.now
            wire = cfg.net_post_overhead + src.nbytes / cfg.net_bandwidth
            if act is not None and act.stall:
                # Fault: the TX engine wedges before streaming the payload.
                yield self.env.timeout(act.stall)
            yield self.env.timeout(wire)
            if self.tracer.enabled:
                self.tracer.record(
                    start, self.env.now, f"{self.name}.tx", "rdma_write",
                    bytes=src.nbytes, dst=dst.node_id,
                )
        if token is not None and token.cancelled:
            # Abandoned by the retry layer while stalled in TX: never
            # completes and never touches remote memory.
            return
        if act is not None and act.fail:
            done.fail(RdmaError(
                f"rdma_write {self.name}->{dst.node_id} "
                f"({src.nbytes} bytes) completed in error"
            ))
            return
        # Local completion: the HCA has read the source buffer, the caller
        # may reuse it. The payload snapshot taken here is what lands
        # remotely one wire latency later.
        data = src.view().copy() if self.env.functional else None
        done.succeed()
        arrival = self.env.now + self._latency(dst.node_id)
        key = self._next_wire_key()
        if not self.fabric.is_local(dst.node_id):
            # Cross-shard: the snapshot ships through the bridge and the
            # owning shard injects the same keyed delivery at the arrival
            # instant. A post-completion token cancel is unreachable (the
            # retry layer only cancels attempts that never completed), so
            # the in-flight check below has no cross-shard counterpart.
            if data is not None:
                self.fabric.bridge.send_rdma(
                    dst.node_id, dst.offset, data, arrival, key,
                )
            return
        target_node = self.fabric.nodes[dst.node_id]

        def land(_event):
            if token is not None and token.cancelled:
                return
            if data is not None:
                BufferPtr(target_node.memory, dst.offset, dst.nbytes).view()[:] = data

        self.env.schedule_wire(arrival, key, land, label="wire-rdma")

    def send_control(self, dst_node: int, payload: Any, size_bytes: int = 64) -> Event:
        """Send a small control message; returns the local completion event.

        Delivery into the remote inbox happens one wire latency after the
        local send completes.
        """
        if dst_node == self.node.node_id:
            # Loopback: skip the wire, deliver through host memory latency.
            done = self.env.event(label=self._loopback_label)
            self.env.process(
                self._loopback_proc(payload, size_bytes, done),
                name=self._loopback_pname,
            )
            return done
        labels = self._ctl_labels.get(dst_node)
        if labels is None:
            labels = (f"ctl:{self.name}->{dst_node}", f"ctl {self.name}->{dst_node}")
            self._ctl_labels[dst_node] = labels
        done = self.env.event(label=labels[0])
        self.env.process(
            self._control_proc(dst_node, payload, size_bytes, done),
            name=labels[1],
        )
        return done

    def _loopback_proc(self, payload: Any, size: int, done: Event):
        # Self-sends bypass the fabric (and fault injection) but still pay
        # the control-path CPU overhead plus a host-memory copy of the
        # message body.
        cfg = self.cfg
        yield self.env.timeout(
            cfg.net_control_overhead + size / cfg.host_memcpy_bandwidth
        )
        msg = ControlMessage(self.node.node_id, self.node.node_id, payload)
        yield self.inbox.put(msg)
        done.succeed()

    def _control_proc(self, dst_node: int, payload: Any, size: int, done: Event):
        cfg = self.cfg
        inj = self.fabric.injector
        act = (
            inj.on_control(self.node.node_id, dst_node, payload)
            if inj is not None else None
        )
        with self.tx.request() as req:
            yield req
            start = self.env.now
            wire = (
                cfg.net_post_overhead
                + cfg.net_control_overhead
                + size / cfg.net_bandwidth
            )
            yield self.env.timeout(wire)
            if self.tracer.enabled:
                self.tracer.record(
                    start, self.env.now, f"{self.name}.tx", "control",
                    dst=dst_node,
                )
        # Local completion does not imply delivery: a dropped message still
        # completes at the sender, exactly like a real unacked control path.
        done.succeed()
        if act is not None and act.drop:
            return
        delay = self._latency(dst_node) + (act.delay if act is not None else 0.0)
        arrival = self.env.now + delay
        key = self._next_wire_key()
        duplicate = act is not None and act.duplicate
        # An injected duplicate trails the original by one control overhead.
        dup_arrival = arrival + cfg.net_control_overhead
        dup_key = self._next_wire_key() if duplicate else None
        if not self.fabric.is_local(dst_node):
            # Cross-shard: enqueue the delivery (and any injected
            # duplicate) on the bridge at send time; the owning shard
            # injects it with the identical key at the same arrival
            # instant the local path below uses.
            self.fabric.bridge.send_ctl(
                self.node.node_id, dst_node, payload, arrival, key,
            )
            if duplicate:
                self.fabric.bridge.send_ctl(
                    self.node.node_id, dst_node, payload, dup_arrival, dup_key,
                )
            return
        inbox = self.fabric.hcas[dst_node].inbox
        src_node = self.node.node_id

        def land(_event):
            inbox.put_nowait(ControlMessage(src_node, dst_node, payload))

        self.env.schedule_wire(arrival, key, land, label="wire-ctl")
        if duplicate:
            self.env.schedule_wire(dup_arrival, dup_key, land, label="wire-ctl")
