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

Each control send and RDMA write runs as a small callback op (see
:mod:`repro.sim.process`): a kick, the TX engine granting the op in
place, the wire time, then local completion and the remote delivery. The
kick, the wire time and the delivery are queue entries of the op itself,
not timeouts or events. A delivered control message goes into the
receiving HCA's inbox, a :class:`~repro.sim.Store` that grants it in
place to the progress daemon of the rank it is addressed to.

Every remote-side effect -- an inbox deposit or an RDMA payload landing --
is a *wire delivery*: the op queues itself (:meth:`Environment.schedule_wire`)
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

from ..sim import CallbackOp, Environment, Event, Store, Tracer, wire_key
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
        #: Control messages land here; each MPI progress daemon waits on
        #: it (``request``) for the messages addressed to its rank.
        self.inbox: Store = Store(env, name=f"{self.name}.inbox")
        #: dst node id -> completion event label; building an f-string
        #: per control message is measurable on the hot path.
        self._ctl_labels: Dict[int, str] = {}
        self._loopback_label = f"ctl-loopback:{self.name}"
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
        become visible one wire latency later, or at once for a write to
        this node, which skips the wire as a control message to self does.
        A FIN control message posted after local completion serializes
        behind the data on the same reliable connection, so it can never
        announce bytes that have not landed -- matching the paper's
        protocol.

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
        _RdmaOp(self, src, dst, done, token)
        return done

    def send_control(self, dst_node: int, payload: Any, size_bytes: int = 64) -> Event:
        """Send a small control message; returns the local completion event.

        Delivery into the remote inbox happens one wire latency after the
        local send completes.
        """
        if dst_node == self.node.node_id:
            # Loopback: skip the wire, deliver through host memory latency.
            done = self.env.event(label=self._loopback_label)
            _LoopbackOp(self, payload, size_bytes, done)
            return done
        label = self._ctl_labels.get(dst_node)
        if label is None:
            label = self._ctl_labels[dst_node] = f"ctl:{self.name}->{dst_node}"
        done = self.env.event(label=label)
        _ControlOp(self, dst_node, payload, size_bytes, done)
        return done


class _RdmaOp(CallbackOp):
    """One RDMA write: TX engine, optional stall, wire time, remote landing.

    A callback op (see :mod:`repro.sim.process`): the kick consults the
    fault injector and requests the TX engine, one step covers the wire
    time (two when stalled), the next completes the write, and the op is
    queued once more under its wire key to land the payload.
    """

    __slots__ = ("hca", "src", "dst", "done", "token", "act", "start",
                 "data")

    def __init__(self, hca, src, dst, done, token):
        self.hca = hca
        self.src = src
        self.dst = dst
        self.done = done
        self.token = token
        self.act = None
        self._step = _RdmaOp._on_kick
        hca.env.schedule_op(self)

    def _on_kick(self) -> None:
        hca = self.hca
        inj = hca.fabric.injector
        if inj is not None:
            self.act = inj.on_rdma(hca.node.node_id, self.dst.node_id,
                                   self.src.nbytes)
        self._step = _RdmaOp._on_tx
        hca.tx.request(self)

    def _on_tx(self) -> None:
        env = self.hca.env
        self.start = env.now
        act = self.act
        if act is not None and act.stall:
            # Fault: the TX engine wedges before streaming the payload.
            self._step = _RdmaOp._on_stalled
            env.schedule_op(self, act.stall)
        else:
            self._on_stalled()

    def _on_stalled(self) -> None:
        cfg = self.hca.cfg
        wire = cfg.net_post_overhead + self.src.nbytes / cfg.net_bandwidth
        self._step = _RdmaOp._on_sent
        self.hca.env.schedule_op(self, wire)

    def _on_sent(self) -> None:
        hca = self.hca
        env = hca.env
        src, dst = self.src, self.dst
        if hca.tracer.enabled:
            hca.tracer.record(
                self.start, env.now, hca.tx.name, "rdma_write",
                bytes=src.nbytes, dst=dst.node_id,
            )
        hca.tx.release()
        token = self.token
        if token is not None and token.cancelled:
            # Abandoned by the retry layer while stalled in TX: never
            # completes and never touches remote memory.
            return
        if self.act is not None and self.act.fail:
            self.done.fail(RdmaError(
                f"rdma_write {hca.name}->{dst.node_id} "
                f"({src.nbytes} bytes) completed in error"
            ))
            return
        # Local completion: the HCA has read the source buffer, the caller
        # may reuse it. The payload snapshot taken here is what lands
        # remotely one wire latency later.
        data = self.data = src.view().copy() if env.functional else None
        self.done.succeed()
        if dst.node_id == hca.node.node_id:
            # Loopback skips the wire, as a control message to self does:
            # the bytes land with the local completion, so a FIN posted
            # after it cannot overtake them.
            self._on_land()
            return
        arrival = env.now + hca._latency(dst.node_id)
        key = hca._next_wire_key()
        if not hca.fabric.is_local(dst.node_id):
            # Cross-shard: the snapshot ships through the bridge and the
            # owning shard injects the same keyed delivery at the arrival
            # instant. A post-completion token cancel is unreachable (the
            # retry layer only cancels attempts that never completed), so
            # the in-flight check in _on_land has no cross-shard counterpart.
            if data is not None:
                hca.fabric.bridge.send_rdma(
                    dst.node_id, dst.offset, data, arrival, key,
                )
            return
        self._step = _RdmaOp._on_land
        env.schedule_wire(arrival, key, self)

    def _on_land(self) -> None:
        if self.token is not None and self.token.cancelled:
            return
        if self.data is not None:
            dst = self.dst
            memory = self.hca.fabric.nodes[dst.node_id].memory
            BufferPtr(memory, dst.offset, dst.nbytes).view()[:] = self.data


class _ControlOp(CallbackOp):
    """One control send: TX engine, wire time, remote inbox deposit.

    A callback op (see :mod:`repro.sim.process`): the kick consults the
    fault injector and requests the TX engine, one step covers the wire
    time, and the next completes the send and queues the op under its
    wire key (twice for an injected duplicate) to deposit the message.
    """

    __slots__ = ("hca", "dst", "payload", "size", "done", "act", "start")

    def __init__(self, hca, dst, payload, size, done):
        self.hca = hca
        self.dst = dst
        self.payload = payload
        self.size = size
        self.done = done
        self.act = None
        self._step = _ControlOp._on_kick
        hca.env.schedule_op(self)

    def _on_kick(self) -> None:
        hca = self.hca
        inj = hca.fabric.injector
        if inj is not None:
            self.act = inj.on_control(hca.node.node_id, self.dst, self.payload)
        self._step = _ControlOp._on_tx
        hca.tx.request(self)

    def _on_tx(self) -> None:
        hca = self.hca
        cfg = hca.cfg
        self.start = hca.env.now
        wire = (
            cfg.net_post_overhead
            + cfg.net_control_overhead
            + self.size / cfg.net_bandwidth
        )
        self._step = _ControlOp._on_sent
        hca.env.schedule_op(self, wire)

    def _on_sent(self) -> None:
        hca = self.hca
        env = hca.env
        dst_node = self.dst
        if hca.tracer.enabled:
            hca.tracer.record(
                self.start, env.now, hca.tx.name, "control", dst=dst_node,
            )
        hca.tx.release()
        # Local completion does not imply delivery: a dropped message still
        # completes at the sender, exactly like a real unacked control path.
        self.done.succeed()
        act = self.act
        if act is not None and act.drop:
            return
        delay = hca._latency(dst_node) + (act.delay if act is not None else 0.0)
        arrival = env.now + delay
        key = hca._next_wire_key()
        duplicate = act is not None and act.duplicate
        # An injected duplicate trails the original by one control overhead.
        dup_arrival = arrival + hca.cfg.net_control_overhead
        dup_key = hca._next_wire_key() if duplicate else None
        if not hca.fabric.is_local(dst_node):
            # Cross-shard: enqueue the delivery (and any injected
            # duplicate) on the bridge at send time; the owning shard
            # injects it with the identical key at the same arrival
            # instant the local path below uses.
            src_node = hca.node.node_id
            hca.fabric.bridge.send_ctl(
                src_node, dst_node, self.payload, arrival, key,
            )
            if duplicate:
                hca.fabric.bridge.send_ctl(
                    src_node, dst_node, self.payload, dup_arrival, dup_key,
                )
            return
        self._step = _ControlOp._on_land
        env.schedule_wire(arrival, key, self)
        if duplicate:
            env.schedule_wire(dup_arrival, dup_key, self)

    def _on_land(self) -> None:
        hca = self.hca
        hca.fabric.hcas[self.dst].inbox.put(
            ControlMessage(hca.node.node_id, self.dst, self.payload)
        )


class _LoopbackOp(CallbackOp):
    """One self-send: no fabric and no fault injection, but the control-path
    CPU overhead plus a host-memory copy of the message body."""

    __slots__ = ("hca", "payload", "size", "done")

    def __init__(self, hca, payload, size, done):
        self.hca = hca
        self.payload = payload
        self.size = size
        self.done = done
        self._step = _LoopbackOp._on_kick
        hca.env.schedule_op(self)

    def _on_kick(self) -> None:
        cfg = self.hca.cfg
        self._step = _LoopbackOp._on_copied
        self.hca.env.schedule_op(
            self, cfg.net_control_overhead + self.size / cfg.host_memcpy_bandwidth
        )

    def _on_copied(self) -> None:
        # The completion step goes first, into the slot a put event took
        # before the inbox granted the message to its progress daemon.
        hca = self.hca
        node_id = hca.node.node_id
        self._step = _LoopbackOp._on_delivered
        hca.env.schedule_op(self)
        hca.inbox.put(ControlMessage(node_id, node_id, self.payload))

    def _on_delivered(self) -> None:
        self.done.succeed()
