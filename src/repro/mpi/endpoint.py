"""Per-rank MPI endpoint: progress engine, matching state, staging pools.

An :class:`Endpoint` is the library-internal half of one MPI process. It
owns

* the matching lists (posted receives / unexpected messages),
* the **progress daemon**, a callback op that waits on the HCA inbox for
  the control messages addressed to its rank and dispatches each (eager
  payloads, RTS/CTS/FIN, and any message types registered by the GPU
  pipeline) to its handler,
* rendezvous bookkeeping (send/recv transaction states keyed by SSN),
* the host staging-buffer pools (**vbufs**) of every staged rendezvous
  chunk, pre-allocated and registered exactly like MVAPICH2's -- one
  :class:`StagingPool` class, which also serves the GPU engine's device
  tbufs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from ..hw.memory import BufferPtr
from ..perf.stats import PERF
from ..sim import CallbackOp, Event, Resource, Store
from .matching import MatchLists
from .status import MpiError

if TYPE_CHECKING:  # pragma: no cover
    from ..cuda.runtime import CudaContext
    from ..hw.config import HardwareConfig
    from ..hw.node import Node
    from ..ib.verbs import HCA
    from ..sim import Environment, Tracer

__all__ = ["Endpoint", "StagingPool", "EndpointStats"]


class EndpointStats:
    """Per-endpoint communication counters (library observability).

    Mirrors the counters MVAPICH2 exposes through its debug interface:
    message and byte counts per protocol path, rendezvous chunk counts
    and control messages. Updated by the protocol and pipeline layers;
    read them in tests, benchmarks or tuning scripts. Staging-pool
    high-water marks are the pools' ``peak_in_use``; recovery actions
    are PERF counters (the ``[faults:]`` footer).
    """

    __slots__ = (
        "eager_sent", "eager_bytes_sent",
        "rndv_sent", "rndv_bytes_sent",
        "gpu_sent", "gpu_bytes_sent",
        "msgs_received", "bytes_received",
        "chunks_sent", "ctrl_messages",
    )

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)

    def note_send(self, path: str, nbytes: int) -> None:
        if path == "eager":
            self.eager_sent += 1
            self.eager_bytes_sent += nbytes
        elif path == "rndv":
            self.rndv_sent += 1
            self.rndv_bytes_sent += nbytes
        elif path == "gpu":
            self.gpu_sent += 1
            self.gpu_bytes_sent += nbytes

    def note_recv(self, nbytes: int) -> None:
        self.msgs_received += 1
        self.bytes_received += nbytes

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    @property
    def total_sent(self) -> int:
        return self.eager_sent + self.rndv_sent + self.gpu_sent

    @property
    def total_bytes_sent(self) -> int:
        return (
            self.eager_bytes_sent + self.rndv_bytes_sent + self.gpu_bytes_sent
        )


class StagingPool:
    """A pool of fixed-size staging buffers carved from one allocation.

    It serves an endpoint's host vbufs (MVAPICH2's pre-registered vbuf
    pool) and a GPU's device tbufs alike: taking from a drained pool
    blocks, which is the protocol's flow control. A callback op takes a
    buffer in place (:meth:`request`); the recovery layer races that
    wait against a deadline (:class:`~repro.sim.Race`), which withdraws
    it with :meth:`cancel_get` when it loses. Released buffers are handed
    out again oldest first.
    """

    def __init__(self, env: "Environment", alloc: Callable[[int], BufferPtr],
                 buf_bytes: int, count: int, kind: str = "vbuf",
                 counter: Optional[str] = None):
        """``alloc(nbytes)`` allocates the backing memory. ``kind`` names
        the buffers in errors; ``counter`` is a PERF counter bumped per
        buffer asked for."""
        if buf_bytes <= 0 or count <= 0:
            raise ValueError(f"{kind} pool needs positive size and count")
        self.env = env
        self.buf_bytes = buf_bytes
        self.count = count
        self.kind = kind
        self.counter = counter
        self._store: Store = Store(env, name=f"{kind}s")
        self._backing = alloc(buf_bytes * count)
        self._peak = 0
        # Slices of the backing allocation are materialized on first
        # demand: a pool is sized for the worst case (256 vbufs) but most
        # transfers touch a handful, and endpoint construction is on the
        # wall-clock critical path of every world. A spare slice is
        # deposited synchronously before the grant, so blocking happens
        # exactly when all `count` are in use.
        self._spare = count
        #: per slice: handed out and not yet released
        self._in_use = bytearray(count)

    @property
    def available(self) -> int:
        return len(self._store) + self._spare

    @property
    def in_use(self) -> int:
        return self.count - self.available

    @property
    def waiting(self) -> int:
        """Number of acquires not yet granted."""
        return self._store.queue_len

    @property
    def peak_in_use(self) -> int:
        """High-water mark of simultaneously-acquired buffers."""
        return self._peak

    def _take(self) -> None:
        """Ready the next grant: mint a spare slice when no released buffer
        is free, and mark the oldest free one, which goes next, in use."""
        if self.counter is not None:
            PERF.bump(self.counter)
        items = self._store.items
        if not items and self._spare:
            i = self.count - self._spare
            self._spare -= 1
            self._store.put(self._backing.sub(i * self.buf_bytes, self.buf_bytes))
        if items:
            self._in_use[(items[0].offset - self._backing.offset)
                         // self.buf_bytes] = 1
            in_use = self.count - self._spare - len(items) + 1
            if in_use > self._peak:
                self._peak = in_use

    def request(self, op) -> None:
        """Grant ``op`` one buffer in place (see :meth:`Store.request`)."""
        self._take()
        self._store.request(op)

    def cancel_get(self, op) -> bool:
        """Withdraw a waiting op (see :meth:`Store.cancel_get`)."""
        return self._store.cancel_get(op)

    def release(self, buf: BufferPtr) -> None:
        """Return a buffer; validates provenance and double release.

        A foreign buffer of the right size or a second release would grow
        the pool past ``count`` and silently break the flow control.
        """
        rel = buf.offset - self._backing.offset
        if (
            buf.arena is not self._backing.arena
            or buf.nbytes != self.buf_bytes
            or rel < 0
            or rel % self.buf_bytes
            or rel >= self.count * self.buf_bytes
        ):
            raise MpiError(
                f"released buffer (offset {buf.offset}, {buf.nbytes} bytes) "
                f"is not a {self.kind} of this pool"
            )
        i = rel // self.buf_bytes
        if i >= self.count - self._spare:
            raise MpiError(f"release of a {self.kind} that was never handed out")
        if not self._in_use[i]:
            raise MpiError(f"double release of {self.kind} at offset {buf.offset}")
        items = self._store.items
        self._store.put(buf)
        if items and items[-1] is buf:  # kept, not handed to a waiter
            self._in_use[i] = 0


class Endpoint:
    """Library-internal state of one MPI rank."""

    def __init__(
        self,
        rank: int,
        node: "Node",
        cuda: "CudaContext",
        cfg: "HardwareConfig",
        tracer: "Tracer",
        vbuf_bytes: int = 64 * 1024,
        vbuf_count: int = 256,
    ):
        self.rank = rank
        self.node = node
        self.cuda = cuda
        self.cfg = cfg
        self.tracer = tracer
        self.env = node.env
        self.hca: "HCA" = node.hca
        self.matching = MatchLists()
        # Separate staging pools for the two protocol roles. Sharing one
        # pool deadlocks under bidirectional load: in-flight send chunks
        # hold buffers while waiting for grants, which the receiver side
        # cannot issue without buffers of its own. Distinct pools break the
        # cycle (MVAPICH2 likewise partitions its vbuf queues by use).
        self.stats = EndpointStats()
        self.send_vbufs = StagingPool(self.env, node.malloc_host, vbuf_bytes,
                                      vbuf_count)
        self.recv_vbufs = StagingPool(self.env, node.malloc_host, vbuf_bytes,
                                      vbuf_count)
        #: Serializes the posting of envelope-carrying messages (eager
        #: payloads and RTSes) so that two sends to the same destination hit
        #: the wire in Isend call order -- MPI's non-overtaking guarantee.
        self.send_order = Resource(self.env, capacity=1, name=f"sendorder:{rank}")

        #: handler registry: message "type" -> fn(endpoint, payload_dict)
        self.handlers: Dict[str, Callable[["Endpoint", dict], None]] = {}
        #: sender-side rendezvous transactions: ssn -> state object
        self.send_states: Dict[tuple, Any] = {}
        #: receiver-side rendezvous transactions: ssn -> state object
        self.recv_states: Dict[tuple, Any] = {}
        #: Recovery policy (:class:`repro.core.config.RecoveryConfig`) or
        #: None. Armed by the world when the cluster carries a FaultPlan or
        #: on request; every recovery code path is gated on it so the
        #: disarmed schedule is bit-identical to the pre-recovery one.
        self.recovery: Optional[Any] = None
        #: Tuning table (:class:`repro.tune.table.TuningTable`) or None.
        #: Set by the world; consulted at RTS time for a per-(layout,
        #: message-size) chunk preference. None = untuned, bit-identical
        #: to the pre-tuning engine.
        self.tuning: Optional[Any] = None
        #: Per-endpoint tuning-resolution memo fed to
        #: :func:`repro.tune.table.tuned_transfer_choice`. Local to this
        #: endpoint (unlike the table's internal LRU), so the lookup
        #: counters it produces are invariant under shard partitioning.
        self.tune_memo: Dict[tuple, Any] = {}
        #: vbuf size (bytes) of peer endpoints' pools, when the world
        #: built every rank with the same geometry; None when unknown.
        #: Tuned chunk preferences are clamped against it -- the receiver
        #: hard-errors on an RTS chunk exceeding its own pool.
        self.peer_vbuf_bytes: Optional[int] = None
        #: SSNs whose RTS this endpoint has already processed (armed only;
        #: duplicate-RTS suppression must engage before matching).
        self.rts_seen: set = set()
        #: Completed receive-side SSNs (armed only; late duplicate FINs for
        #: these are suppressed instead of raising).
        self.retired_ssns: set = set()
        #: Completed send-side transactions kept for FIN retransmission
        #: (armed only): ssn -> SendState. A receiver NACK can arrive after
        #: the sender finished if the dropped message was a final FIN.
        self.sent_history: Dict[tuple, Any] = {}
        self._next_seq = 0
        #: rank -> node mapping, filled in by the world.
        self.rank_to_node: Dict[int, int] = {}
        #: The GPU-aware transfer engine handling device buffers
        #: (:class:`repro.core.pipeline.GpuNcEngine`), set by the world.
        self.gpu_engine: Optional[Any] = None
        #: the event a blocking Probe waits on between scans of the
        #: unexpected queue; made on demand and fired by the next arrival
        self._arrival: Optional[Event] = None
        self._cpu_engine = f"cpu{node.node_id}"
        #: the progress daemon
        self.progress = _ProgressOp(self)

    # -- identity ---------------------------------------------------------------
    def new_ssn(self) -> tuple:
        """A send sequence number unique across the world."""
        self._next_seq += 1
        return (self.rank, self._next_seq)

    def arrival_event(self) -> Event:
        """An event that succeeds when the next envelope arrives."""
        if self._arrival is None:
            self._arrival = Event(self.env, label=f"arrival:{self.rank}")
        return self._arrival

    def note_arrival(self) -> None:
        """Signal Probe waiters, if any, that a new envelope arrived."""
        fired = self._arrival
        if fired is not None:
            self._arrival = None
            fired.succeed()

    def node_of_rank(self, rank: int) -> int:
        try:
            return self.rank_to_node[rank]
        except KeyError:
            raise MpiError(f"unknown rank {rank}") from None

    # -- message plumbing ---------------------------------------------------------
    def register_handler(
        self, msg_type: str, fn: Callable[["Endpoint", dict], None]
    ) -> None:
        if msg_type in self.handlers:
            raise MpiError(f"duplicate handler for message type {msg_type!r}")
        self.handlers[msg_type] = fn

    def post_control(self, dst_rank: int, payload: dict, size_bytes: int = 64) -> Event:
        """Send a control message to another rank's endpoint."""
        self.stats.ctrl_messages += 1
        payload = dict(payload)
        payload["dst_rank"] = dst_rank
        return self.hca.send_control(
            self.node_of_rank(dst_rank), payload, size_bytes=size_bytes
        )

    # -- CPU accounting helper ------------------------------------------------------
    def cpu_work(self, duration: float, label: str):
        """Occupy the host CPU for ``duration`` (a generator)."""
        yield self.node.cpu.acquire()
        start = self.env.now
        if duration > 0:
            yield self.env.timeout(duration)
        self.release_cpu(start, label)

    def hold_cpu(self, op: CallbackOp, duration: float, step) -> None:
        """Hold the host CPU, just granted to callback op ``op``, for
        ``duration`` (the op form of :meth:`cpu_work`): ``op.t0`` notes
        the start and ``step`` runs once the time is up, in the slot of
        :meth:`cpu_work`'s timeout (at once when there is none), to end
        the hold with :meth:`release_cpu`."""
        env = self.env
        op.t0 = env.now
        op._step = step
        if duration > 0:
            env.schedule_op(op, duration)
        else:
            step(op)

    def release_cpu(self, start: float, label: str) -> None:
        """End a hold of the host CPU taken at ``start``: trace it as
        ``label`` and release the CPU (what a callback op does in place
        of :meth:`cpu_work`'s last step)."""
        if self.tracer.enabled:
            self.tracer.record(start, self.env.now, self._cpu_engine, label)
        self.node.cpu.release()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Endpoint rank={self.rank} node={self.node.node_id}>"


class _ProgressOp(CallbackOp):
    """The progress daemon of one endpoint (a callback op).

    It waits on the HCA inbox for the next control message addressed to
    its rank, which the inbox grants it in place, runs the handler
    registered for the message type, and waits again. Its kick takes the
    slot a process's init event would.
    """

    __slots__ = ("endpoint", "mine")

    def __init__(self, endpoint: Endpoint):
        self.endpoint = endpoint
        rank = endpoint.rank
        #: the inbox filter, built once: messages addressed to this rank
        self.mine = lambda m: (
            isinstance(m.payload, dict) and m.payload.get("dst_rank") == rank
        )
        self._step = _ProgressOp._on_kick
        endpoint.env.schedule_op(self)

    def _on_kick(self) -> None:
        self._step = _ProgressOp._on_message
        self.endpoint.hca.inbox.request(self, self.mine)

    def _on_message(self) -> None:
        endpoint = self.endpoint
        payload = self.item.payload
        mtype = payload.get("type")
        handler = endpoint.handlers.get(mtype)
        if handler is None:
            raise MpiError(f"rank {endpoint.rank}: no handler for {mtype!r}")
        handler(endpoint, payload)
        endpoint.hca.inbox.request(self, self.mine)
