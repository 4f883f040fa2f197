"""MPI point-to-point protocols: eager and rendezvous.

This is the protocol layer of the simulated MPI library: matching, the
eager path, the rendezvous transaction records and their grant window,
and the recovery layer. The rendezvous itself, for buffers in any memory
space, is driven by :class:`repro.core.pipeline.GpuNcEngine` (one sender
and one receiver message op per message), which every endpoint carries.
Every piece of per-message work here is a callback op too (see
:mod:`repro.sim.process`): an eager send, a host eager delivery, a
staged receive's grant window and each wait of the armed recovery layer,
which races its grant or completion against a deadline
(:class:`~repro.sim.Race`). The transaction records wake the ops waiting
on them in place (:class:`~repro.sim.Wakeup`).

Wire protocol (all over HCA control messages + RDMA writes):

``eager``
    Small messages: the packed payload rides inside the control message.
    The sender completes locally; the receiver unpacks on match.

``rts`` / ``cts`` / ``fin``
    Rendezvous: the sender announces (RTS) its message and preferred chunk
    size; once matched, the receiver grants a list of RDMA landing windows
    (CTS) -- either windows of the user buffer (zero-copy, contiguous host
    receives) or staging vbufs; the sender produces each chunk, RDMA-writes
    it and posts a per-chunk FIN; the receiver drains/unpacks chunks as
    FINs arrive and completes when all have landed.

This chunked-grant design is exactly the paper's Figure 3 protocol: each
side's chunks walk a stage description (:mod:`repro.core.backends`) --
GPU pack offload and D2H/H2D staging for device buffers, a CPU pack or
zero copy for host buffers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from ..hw.memory import BufferPtr
from ..ib.faults import CancelToken
from ..perf.stats import PERF
from ..sim import CallbackOp, Race, Store, Wakeup, wait
from .datatype import Datatype
from .endpoint import Endpoint
from .matching import ArrivedMessage, Envelope, PostedRecv
from .pack import (
    check_buffer_bounds,
    host_pack_range_time,
    host_pack_time,
    pack_bytes,
    unpack_array_into,
)
from .request import Request
from .status import MpiError, Status

__all__ = ["install_protocol", "isend", "irecv", "iprobe", "probe", "RtsInfo", "RecvState", "SendState"]

#: Wire overhead added to eager messages (header bytes).
EAGER_HEADER = 64


# ---------------------------------------------------------------------------
# Protocol state records
# ---------------------------------------------------------------------------

@dataclass
class RtsInfo:
    """Decoded RTS payload."""

    ssn: tuple
    envelope: Envelope
    total: int
    #: Sender's preferred chunk size; 0 = "whole message in one piece".
    chunk_pref: int


@dataclass
class RecvState:
    """Receiver-side rendezvous transaction."""

    posted: PostedRecv
    rts: RtsInfo
    chunk_bytes: int
    nchunks: int
    #: staging vbufs by chunk index (staged path) or None (direct path)
    staging: Optional[Dict[int, BufferPtr]]
    remaining: int
    status: Status
    #: fired by the per-chunk drain logic when everything has landed
    done: Wakeup
    endpoint: Endpoint = None  # type: ignore[assignment]
    #: per-transaction FIN handler: fn(state, chunk_index), installed by
    #: the receive driver.
    on_fin: Any = None
    #: next chunk index to grant a landing buffer for (staged path)
    next_grant: int = 0
    #: drained-chunk tokens feeding the granter (staged path)
    drained: Any = None
    #: chunk indices whose FIN has been processed (duplicate-FIN guard)
    fin_seen: set = field(default_factory=set)

    def chunk_range(self, index: int) -> tuple:
        lo = index * self.chunk_bytes
        hi = min(lo + self.chunk_bytes, self.rts.total)
        return lo, hi

    def release_staging(self, index: int) -> None:
        """Release chunk ``index``'s staging vbuf and feed the granter.

        May be called before the chunk is fully drained (e.g. as soon as
        the H2D copy out of the vbuf completes) to keep the pool flowing.
        """
        if self.staging is None:
            return
        vbuf = self.staging.pop(index)
        self.endpoint.recv_vbufs.release(vbuf)
        if self.drained is not None and self.next_grant < self.nchunks:
            self.drained.put(index)

    def finish_chunk(self) -> None:
        """Mark one chunk fully landed; fires ``done`` on the last one."""
        self.remaining -= 1
        if self.remaining == 0:
            self.done.fire()

    def retire_chunk(self, index: int) -> None:
        """Release staging and finish the chunk in one step."""
        self.release_staging(index)
        self.finish_chunk()


@dataclass
class SendState:
    """Sender-side rendezvous transaction.

    Landing-zone grants arrive incrementally (windowed CTS messages); an
    op whose grant is not in yet waits for the next window in place
    (:meth:`wait_grant`).
    """

    endpoint: Endpoint
    #: this transaction's SSN and destination rank (for retransmits)
    ssn: Any = None
    dst: int = -1
    #: RDMA windows granted so far, in chunk order.
    grants: List = field(default_factory=list)
    #: chunk size the receiver chose; None until the first CTS.
    chunk_bytes: Optional[int] = None
    #: wakes whoever waits for the next grant window; None while nobody
    #: does, and replaced every time new grants arrive
    next_window: Optional[Wakeup] = None
    #: chunk indices whose FIN has been posted (recovery: FIN replay pool)
    fin_sent: set = field(default_factory=set)
    #: the receiver holds the RTS unmatched (recovery: stop re-posting it)
    held: bool = False

    def _window(self) -> Wakeup:
        wakeup = self.next_window
        if wakeup is None:
            wakeup = self.next_window = Wakeup(self.endpoint.env)
        return wakeup

    def wait_grant(self, op: CallbackOp) -> None:
        """Run ``op``'s stored step when the next grant window arrives."""
        self._window().wait(op)

    def add_grants(self, start: int, chunks: List, chunk_bytes: int) -> None:
        """Accept a CTS grant window; duplicates are suppressed.

        Windows from one receiver arrive in order (reliable connection),
        but under faults a window -- or part of one, when the watchdog
        re-grants per chunk -- may be a replay of grants already held. A
        window starting past the held prefix is still a protocol error.
        """
        if self.chunk_bytes is None:
            self.chunk_bytes = chunk_bytes
        have = len(self.grants)
        if start > have:
            raise MpiError(
                f"out-of-order CTS window: start {start}, have {have} grants"
            )
        if start + len(chunks) <= have:
            PERF.bump("dup_cts_suppressed")
            return
        if start < have:
            PERF.bump("dup_cts_suppressed")
            chunks = chunks[have - start:]
        self.grants.extend(chunks)
        fired, self.next_window = self.next_window, None
        if fired is not None:
            fired.fire()


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def isend(
    endpoint: Endpoint,
    buf: BufferPtr,
    count: int,
    datatype: Datatype,
    dest: int,
    tag: int,
    comm_id: int,
    mode: str = "standard",
    coll_ctx: Optional[str] = None,
) -> Request:
    """Start a non-blocking send; returns the request.

    ``mode="synchronous"`` (``MPI_Ssend``) forces the rendezvous protocol so
    the send cannot complete before a matching receive is posted. Every
    rendezvous, from any buffer space, runs the GPU engine's one driver
    (:meth:`repro.core.pipeline.GpuNcEngine.rdv_send`).
    ``coll_ctx`` tags peer-messages spawned inside a collective with the
    fan-out context string the tuning table resolves against (None for
    plain point-to-point traffic -- the resolution is then unchanged).
    """
    datatype.require_committed()
    check_buffer_bounds(buf, datatype, count)
    if count < 0:
        raise MpiError("negative send count")
    if mode not in ("standard", "synchronous"):
        raise MpiError(f"unknown send mode {mode!r}")
    total = datatype.size * count
    req = Request(endpoint.env, "send", buf=buf, datatype=datatype, count=count)
    req.coll_ctx = coll_ctx
    envelope = Envelope(
        src=endpoint.rank,
        dst=dest,
        tag=tag,
        comm_id=comm_id,
        size_bytes=total,
    )
    if buf.space == "device":
        if endpoint.cuda.node.find_gpu(buf) is not endpoint.cuda.gpu:
            raise MpiError("send buffer lives on a GPU not bound to this rank")
        # The GPU engine sends nothing but an empty message eagerly.
        eager_limit = 0
    else:
        eager_limit = endpoint.cfg.eager_threshold
    if total <= eager_limit and mode == "standard":
        _EagerSendOp(endpoint, envelope, buf, count, datatype, req)
    else:
        endpoint.gpu_engine.rdv_send(endpoint, envelope, buf, count, datatype, req)
    return req


def iprobe(
    endpoint: Endpoint, source: int, tag: int, comm_id: int
) -> Optional[Status]:
    """``MPI_Iprobe``: peek at the unexpected queue without consuming."""
    matcher = PostedRecv(request=None, src=source, tag=tag, comm_id=comm_id)
    for msg in endpoint.matching.unexpected:
        if matcher.matches(msg.envelope):
            return Status(
                source=msg.envelope.src,
                tag=msg.envelope.tag,
                count_bytes=msg.envelope.size_bytes,
            )
    return None


def probe(endpoint: Endpoint, source: int, tag: int, comm_id: int):
    """``MPI_Probe`` (a generator): wait for a matching envelope."""
    while True:
        status = iprobe(endpoint, source, tag, comm_id)
        if status is not None:
            return status
        yield endpoint.arrival_event()


def irecv(
    endpoint: Endpoint,
    buf: BufferPtr,
    count: int,
    datatype: Datatype,
    source: int,
    tag: int,
    comm_id: int,
    coll_ctx: Optional[str] = None,
) -> Request:
    """Post a non-blocking receive; returns the request."""
    datatype.require_committed()
    check_buffer_bounds(buf, datatype, count)
    if count < 0:
        raise MpiError("negative recv count")
    req = Request(endpoint.env, "recv", buf=buf, datatype=datatype, count=count)
    req.coll_ctx = coll_ctx
    posted = PostedRecv(request=req, src=source, tag=tag, comm_id=comm_id)
    match = endpoint.matching.post_recv(posted)
    if match is not None:
        _dispatch_match(endpoint, posted, match)
    return req


def install_protocol(endpoint: Endpoint) -> None:
    """Register the eager/rendezvous message handlers on an endpoint."""
    endpoint.register_handler("eager", _on_eager)
    endpoint.register_handler("rts", _on_rts)
    endpoint.register_handler("cts", _on_cts)
    endpoint.register_handler("fin", _on_fin)
    # Receiver-watchdog NACKs and RTS holds (recovery layer). Registering
    # the handlers is schedule-neutral: both are only ever *sent* when
    # recovery is armed.
    endpoint.register_handler("nack", _on_nack)
    endpoint.register_handler("held", _on_held)


# ---------------------------------------------------------------------------
# Eager protocol
# ---------------------------------------------------------------------------

class _EagerSendOp(CallbackOp):
    """One eager send (a callback op).

    In ``send_order``, so that envelopes leave in call order, it packs the
    payload on the node CPU and posts it inside the eager control
    message, then completes its request. Its kick takes the slot of the
    old send process's init timeout, the order and the CPU grant it in
    place where ``acquire()`` succeeded, and the pack duration is a timed
    step where the timeout went.
    """

    __slots__ = ("endpoint", "envelope", "buf", "count", "datatype", "req",
                 "data", "t0")

    def __init__(self, endpoint: Endpoint, envelope: Envelope, buf: BufferPtr,
                 count: int, datatype: Datatype, req: Request):
        self.endpoint = endpoint
        self.envelope = envelope
        self.buf = buf
        self.count = count
        self.datatype = datatype
        self.req = req
        self._step = _EagerSendOp._on_kick
        endpoint.env.schedule_op(self)

    def _on_kick(self) -> None:
        self._step = _EagerSendOp._on_order
        self.endpoint.send_order.request(self)

    def _on_order(self) -> None:
        self.data = pack_bytes(self.buf, self.datatype, self.count)
        self._step = _EagerSendOp._on_cpu
        self.endpoint.node.cpu.request(self)

    def _on_cpu(self) -> None:
        endpoint = self.endpoint
        duration = host_pack_time(endpoint.cfg, self.datatype, self.count)
        endpoint.hold_cpu(self, duration, _EagerSendOp._packed)

    def _packed(self) -> None:
        endpoint = self.endpoint
        endpoint.release_cpu(self.t0, "pack:eager")
        data = self.data
        wait(endpoint.post_control(
            self.envelope.dst,
            {"type": "eager", "envelope": self.envelope, "data": data},
            size_bytes=data.nbytes + EAGER_HEADER,
        ), self._posted)

    def _posted(self, _event) -> None:
        endpoint = self.endpoint
        endpoint.send_order.release()
        nbytes = self.data.nbytes
        endpoint.stats.note_send("eager", nbytes)
        self.req._complete(Status(source=endpoint.rank, tag=self.envelope.tag,
                                  count_bytes=nbytes))


def _on_eager(endpoint: Endpoint, payload: dict) -> None:
    envelope: Envelope = payload["envelope"]
    msg = ArrivedMessage(envelope, "eager", payload["data"])
    posted = endpoint.matching.arrive(msg)
    endpoint.note_arrival()
    if posted is not None:
        _deliver_eager(endpoint, posted, msg)


def _deliver_eager(endpoint: Endpoint, posted: PostedRecv, msg: ArrivedMessage) -> None:
    req = posted.request
    envelope = msg.envelope
    data: np.ndarray = msg.payload
    if _truncated(req, data.nbytes):
        return
    status = Status(source=envelope.src, tag=envelope.tag, count_bytes=data.nbytes)
    if req.buf.space == "device":
        endpoint.gpu_engine.deliver_eager_device(endpoint, req, data, status)
    else:
        _EagerUnpackOp(endpoint, req, data, status)


class _EagerUnpackOp(CallbackOp):
    """An eager payload landing in host memory (a callback op).

    It unpacks the payload on the node CPU (a scatter for strided receive
    types) and completes the receive. Its kick takes the slot of the old
    delivery process's init timeout, the CPU grants it in place where
    ``acquire()`` succeeded, and the unpack duration is a timed step
    where the timeout went.
    """

    __slots__ = ("endpoint", "req", "data", "status", "t0")

    def __init__(self, endpoint: Endpoint, req: Request, data: np.ndarray,
                 status: Status):
        self.endpoint = endpoint
        self.req = req
        self.data = data
        self.status = status
        self._step = _EagerUnpackOp._on_kick
        endpoint.env.schedule_op(self)

    def _on_kick(self) -> None:
        self._step = _EagerUnpackOp._on_cpu
        self.endpoint.node.cpu.request(self)

    def _on_cpu(self) -> None:
        endpoint, req = self.endpoint, self.req
        duration = host_pack_range_time(endpoint.cfg, req.datatype, req.count,
                                        0, self.data.nbytes)
        endpoint.hold_cpu(self, duration, _EagerUnpackOp._unpacked)

    def _unpacked(self) -> None:
        endpoint = self.endpoint
        endpoint.release_cpu(self.t0, "unpack:eager")
        req = self.req
        data = self.data
        unpack_array_into(data, req.datatype, req.count, req.buf)
        endpoint.stats.note_recv(data.nbytes)
        req._complete(self.status)


# ---------------------------------------------------------------------------
# Rendezvous: matching glue
# ---------------------------------------------------------------------------

def _dispatch_match(endpoint: Endpoint, posted: PostedRecv, msg: ArrivedMessage) -> None:
    if msg.kind == "eager":
        _deliver_eager(endpoint, posted, msg)
    elif msg.kind == "rts":
        _rdv_recv_start(endpoint, posted, msg.payload)
    else:  # pragma: no cover - defensive
        raise MpiError(f"unknown matched message kind {msg.kind!r}")


def _on_rts(endpoint: Endpoint, payload: dict) -> None:
    ssn = payload["ssn"]
    if endpoint.recovery is not None:
        # Duplicate-SSN suppression must engage *before* matching: a
        # replayed RTS re-entering the match lists would consume a second
        # posted receive. Checked ahead of the recv_states lookup because
        # the transaction record is created one (zero-delay) event after
        # the match.
        if ssn in endpoint.rts_seen:
            PERF.bump("dup_rts_suppressed")
            if any(m.kind == "rts" and m.payload.ssn == ssn
                   for m in endpoint.matching.unexpected):
                # No receive matches it yet: the sender must wait for one,
                # not give the message up as lost.
                endpoint.post_control(payload["envelope"].src,
                                      {"type": "held", "ssn": ssn})
            return
        endpoint.rts_seen.add(ssn)
    rts = RtsInfo(
        ssn=ssn,
        envelope=payload["envelope"],
        total=payload["total"],
        chunk_pref=payload["chunk_pref"],
    )
    msg = ArrivedMessage(rts.envelope, "rts", rts)
    posted = endpoint.matching.arrive(msg)
    endpoint.note_arrival()
    if posted is not None:
        _rdv_recv_start(endpoint, posted, rts)


def _on_cts(endpoint: Endpoint, payload: dict) -> None:
    ssn = payload["ssn"]
    state: SendState = endpoint.send_states.get(ssn)
    if state is None:
        if endpoint.recovery is not None and ssn in endpoint.sent_history:
            # A replayed grant window arriving after the send completed.
            PERF.bump("dup_cts_suppressed")
            return
        raise MpiError(f"CTS for unknown SSN {ssn}")
    state.add_grants(payload["start"], payload["chunks"], payload["chunk_bytes"])


def _on_fin(endpoint: Endpoint, payload: dict) -> None:
    ssn = payload["ssn"]
    state: RecvState = endpoint.recv_states.get(ssn)
    if state is None:
        if endpoint.recovery is not None and ssn in endpoint.retired_ssns:
            # A duplicate FIN straggling in after the transaction retired.
            PERF.bump("dup_fin_suppressed")
            return
        raise MpiError(f"FIN for unknown SSN {ssn}")
    chunk = payload["chunk"]
    if chunk in state.fin_seen:
        # Duplicate FIN for a live transaction (duplicated message or a
        # watchdog-triggered replay that crossed the original). Processing
        # it twice would double-retire the chunk.
        PERF.bump("dup_fin_suppressed")
        return
    state.fin_seen.add(chunk)
    state.on_fin(state, chunk)


def _on_held(endpoint: Endpoint, payload: dict) -> None:
    """The receiver holds our RTS unmatched (recovery layer only)."""
    state: SendState = endpoint.send_states.get(payload["ssn"])
    if state is not None:
        state.held = True


def _on_nack(endpoint: Endpoint, payload: dict) -> None:
    """Receiver watchdog asked for FIN replays (recovery layer only)."""
    ssn = payload["ssn"]
    state: SendState = endpoint.send_states.get(ssn)
    if state is None:
        state = endpoint.sent_history.get(ssn)
    if state is None:
        return
    for i in payload["chunks"]:
        if i in state.fin_sent:
            PERF.bump("fin_resent")
            endpoint.post_control(
                state.dst, {"type": "fin", "ssn": ssn, "chunk": i}
            )
        # Chunks not yet FINed are still in flight on the sender; the
        # watchdog's re-granted CTS windows (sent just before the NACK)
        # unblock them if their grants were lost.


# ---------------------------------------------------------------------------
# Recovery layer (armed via endpoint.recovery; see core.config.RecoveryConfig)
# ---------------------------------------------------------------------------

class _ArmedWait(CallbackOp):
    """Base of the recovery layer's waits (DESIGN.md section 7): ops that race
    a grant or a completion against a deadline (:class:`~repro.sim.Race`),
    retry or give up when the deadline wins, and hand over to ``op`` by
    running the step stored on it."""

    __slots__ = ("endpoint", "op", "attempt", "race")

    def __init__(self, endpoint: Endpoint, op: Optional[CallbackOp] = None):
        self.endpoint = endpoint
        self.op = op
        self.attempt = 0

    def _race(self, on, delay: float) -> None:
        self.race = Race(self, type(self)._raced, on, delay)

    def _fault(self, kind: str, **meta) -> None:
        endpoint = self.endpoint
        endpoint.tracer.record_fault(endpoint.env.now, "recovery:" + kind,
                                     src=endpoint.node.node_id, **meta)

    def _retry(self, counter: str, message: str, step) -> None:
        """Count a lost attempt; fail with ``message`` (``{}``: the count) once
        ``max_attempts`` are spent, else take ``step`` after capped backoff."""
        rec = self.endpoint.recovery
        self.attempt += 1
        PERF.bump(counter)
        if self.attempt >= rec.max_attempts:
            raise MpiError(message.format(self.attempt))
        self._step = step
        self.endpoint.env.schedule_op(self, min(
            rec.backoff_cap, rec.backoff_base * (1 << (self.attempt - 1))))


def acquire_staging(endpoint: Endpoint, pool, op: CallbackOp, step, rec,
                    degrade: bool = False) -> None:
    """Run ``op``'s ``step`` with a buffer of ``pool`` in ``op.item``:
    granted in place, or armed (``rec``) through a :class:`_StagingWait`."""
    op._step = step
    if rec is None:
        pool.request(op)
    else:
        _StagingWait(endpoint, pool, op, degrade)


class _StagingWait(_ArmedWait):
    """A bounded wait for a staging buffer. A tbuf wait (``degrade``)
    races ``staging_timeout`` once, then hands over None: the chunk
    degrades to the host-style strided-PCIe path. A vbuf, which every
    staged chunk needs, is waited for again, ``staging_timeout`` longer
    each time, until a starved pool fails loudly."""

    __slots__ = ("pool", "degrade")

    def __init__(self, endpoint: Endpoint, pool, op: CallbackOp, degrade: bool):
        _ArmedWait.__init__(self, endpoint, op)
        self.pool = pool
        self.degrade = degrade
        self._wait()

    def _wait(self) -> None:
        self._race(self.pool,
                   self.endpoint.recovery.staging_timeout * (self.attempt + 1))

    def _raced(self) -> None:
        op = self.op
        if self.race.won():
            op.item = self.race.item
        elif self.degrade:
            PERF.bump("degrade_to_host")
            self._fault("degrade", rank=self.endpoint.rank)
            op.item = None
        else:
            self._retry("vbuf_wait_timeout", f"rank {self.endpoint.rank}: "
                        "vbuf pool starved for {} waits (flow-control leak?)",
                        _StagingWait._wait)
            return
        op._process()


class RdmaRetry(_ArmedWait):
    """An RDMA write raced against ``rdma_timeout``. A lost or failed
    attempt's :class:`CancelToken` is cancelled, so a stale write never
    lands in a re-granted buffer, and the write is posted again after
    backoff, up to ``max_attempts``."""

    __slots__ = ("src", "rb", "token")

    def __init__(self, endpoint: Endpoint, src, rb, op: CallbackOp):
        _ArmedWait.__init__(self, endpoint, op)
        self.src = src
        self.rb = rb
        self._post()

    def _post(self) -> None:
        endpoint = self.endpoint
        self.token = CancelToken()
        self._race(endpoint.hca.rdma_write(self.src, self.rb, token=self.token),
                   endpoint.recovery.rdma_timeout)

    def _raced(self) -> None:
        if self.race.won():
            self.op._process()
            return
        self.token.cancel()
        self._fault("rdma_retry", attempt=self.attempt + 1, what="rdma_write")
        self._retry("rdma_retry",
                    "rdma_write: no successful completion after {} attempts",
                    RdmaRetry._post)


class CtsWait(_ArmedWait):
    """A wait for the first CTS that re-posts the RTS every ``rts_timeout``
    (a lost RTS) until a receiver holding it unmatched answers ``held``: the
    send then waits as long as its receive takes. Without an ``op`` (a device
    send) it is a monitor beside the chunk pipeline, started with a kick."""

    __slots__ = ("state", "rts")

    def __init__(self, endpoint: Endpoint, state: SendState, rts: dict,
                 op: Optional[CallbackOp]):
        _ArmedWait.__init__(self, endpoint, op)
        self.state = state
        self.rts = rts
        self._step = CtsWait._wait
        if op is None:
            endpoint.env.schedule_op(self)
        else:
            self._wait()

    def _wait(self, _event=None) -> None:
        state = self.state
        if state.chunk_bytes is not None:
            if self.op is not None:
                self.op._process()
        elif state.held:
            self._step = CtsWait._wait
            state.wait_grant(self)
        else:
            self._race(state._window(), self.endpoint.recovery.rts_timeout)

    def _raced(self) -> None:
        state = self.state
        if state.chunk_bytes is not None or state.held:
            self._wait()
            return
        self.attempt += 1
        if self.attempt >= self.endpoint.recovery.max_attempts:
            raise MpiError(f"rendezvous {state.ssn}: no CTS after "
                           f"{self.attempt} RTS attempts")
        PERF.bump("rts_retry")
        self._fault("rts_retry", attempt=self.attempt)
        # Duplicate RTSes are suppressed by SSN at the receiver, so the
        # replay needs no send_order slot.
        wait(self.endpoint.post_control(state.dst, self.rts), self._wait)


def _pending_chunks(state: RecvState) -> List[int]:
    """Granted chunks whose FIN has not been processed (watchdog view)."""
    if state.staging is None:
        return [i for i in range(state.nchunks) if i not in state.fin_seen]
    return [i for i in sorted(state.staging) if i not in state.fin_seen]


def _rebuild_grant(endpoint: Endpoint, state: RecvState, i: int):
    """Re-register chunk ``i``'s landing window for a CTS replay."""
    lo, hi = state.chunk_range(i)
    if state.staging is None:
        req = state.posted.request
        base = (
            int(req.datatype.segments_for_count(req.count).offsets[0])
            if state.rts.total else 0
        )
        return endpoint.hca.register(req.buf.sub(base + lo, hi - lo))
    vbuf = state.staging.get(i)
    if vbuf is None:
        return None
    return endpoint.hca.register(vbuf.sub(0, hi - lo))


class _RecvWatchdog(_ArmedWait):
    """The receiver's progress watchdog, kicked off with the receive. Each
    ``watchdog_interval`` races ``done``; after one with no FIN, grant or
    drain it re-grants the pending chunks (a lost CTS; the sender ignores
    grants it holds) and NACKs them (a lost FIN), and ``watchdog_max_idle``
    idle periods (its attempts) fail the receive."""

    __slots__ = ("state", "last")

    def __init__(self, endpoint: Endpoint, state: RecvState):
        _ArmedWait.__init__(self, endpoint)
        self.state = state
        self.last = None
        self._step = _RecvWatchdog._period
        endpoint.env.schedule_op(self)

    def _period(self) -> None:
        if not self.state.done.processed:
            self._race(self.state.done, self.endpoint.recovery.watchdog_interval)

    def _raced(self) -> None:
        if self.race.won():
            return
        endpoint, state = self.endpoint, self.state
        progress = (state.remaining, len(state.fin_seen), state.next_grant)
        if progress != self.last:
            self.last, self.attempt = progress, 0
            self._period()
            return
        self.attempt += 1
        if self.attempt > endpoint.recovery.watchdog_max_idle:
            err = MpiError(f"rendezvous {state.rts.ssn}: no receiver progress in "
                           f"{self.attempt} watchdog periods ({state.remaining} "
                           "chunks missing)")
            state.posted.request._fail(err)
            raise err
        pending = _pending_chunks(state)
        if pending:
            self._fault("watchdog_probe", pending=len(pending), idle=self.attempt)
            src, ssn = state.rts.envelope.src, state.rts.ssn
            for i in pending:
                rb = _rebuild_grant(endpoint, state, i)
                if rb is not None:
                    PERF.bump("cts_resent")
                    endpoint.post_control(src, {
                        "type": "cts", "ssn": ssn, "start": i, "chunks": [rb],
                        "chunk_bytes": state.chunk_bytes})
            PERF.bump("nack_sent")
            endpoint.post_control(src, {"type": "nack", "ssn": ssn,
                                        "chunks": pending})
        self._period()


def retire_send_state(endpoint: Endpoint, ssn) -> None:
    """Drop a completed sender transaction, keeping it for FIN replay."""
    state = endpoint.send_states.pop(ssn)
    if endpoint.recovery is not None:
        endpoint.sent_history[ssn] = state


def retire_recv_state(endpoint: Endpoint, ssn) -> None:
    """Drop a completed receiver transaction, tombstoning its SSN."""
    del endpoint.recv_states[ssn]
    if endpoint.recovery is not None:
        endpoint.retired_ssns.add(ssn)


# ---------------------------------------------------------------------------
# Rendezvous: receiver
# ---------------------------------------------------------------------------

def _truncated(req: Request, nbytes: int) -> bool:
    """Whether ``nbytes`` overflow receive ``req``, which then fails."""
    capacity = req.datatype.size * req.count
    if nbytes > capacity:
        req._fail(MpiError(
            f"message truncation: {nbytes} bytes into a {capacity}-byte receive"
        ))
    return nbytes > capacity


def _rdv_recv_start(endpoint: Endpoint, posted: PostedRecv, rts: RtsInfo) -> None:
    if not _truncated(posted.request, rts.total):
        endpoint.gpu_engine.rdv_recv(endpoint, posted, rts)


def make_recv_state(
    endpoint: Endpoint,
    posted: PostedRecv,
    rts: RtsInfo,
    chunk_bytes: int,
    staged: bool,
    on_fin,
) -> RecvState:
    """Build a receiver transaction record (shared with the GPU engine)."""
    total = rts.total
    nchunks = max(1, math.ceil(total / chunk_bytes)) if total else 1
    state = RecvState(
        posted=posted,
        rts=rts,
        chunk_bytes=chunk_bytes,
        nchunks=nchunks,
        staging={} if staged else None,
        remaining=nchunks,
        status=Status(
            source=rts.envelope.src, tag=rts.envelope.tag, count_bytes=total
        ),
        done=Wakeup(endpoint.env),
        endpoint=endpoint,
        on_fin=on_fin,
    )
    if staged:
        state.drained = Store(endpoint.env, name=f"drained:{rts.ssn}")
    endpoint.recv_states[rts.ssn] = state
    if endpoint.recovery is not None:
        _RecvWatchdog(endpoint, state)
    return state


class GrantOp(CallbackOp):
    """Grants staging vbufs to the sender in windows (a callback op).

    Grants ``rendezvous_window`` chunks up front, then one more per drained
    chunk, so a message of any size flows through a bounded vbuf pool.
    Like every callback op (see :mod:`repro.sim.process`) it starts with
    a kick, then advances on each vbuf, each CTS post and each
    drained-chunk token. The vbuf pool and the transaction's drained-chunk
    store grant it in place; armed, a vbuf comes from the recovery layer's
    bounded wait instead (:func:`acquire_staging`).
    """

    __slots__ = ("endpoint", "state", "left", "start", "grants")

    def __init__(self, endpoint: Endpoint, state: RecvState):
        self.endpoint = endpoint
        self.state = state
        self._step = GrantOp._on_kick
        endpoint.env.schedule_op(self)

    def _on_kick(self) -> None:
        endpoint = self.endpoint
        self._batch(min(self.state.nchunks, endpoint.cfg.rendezvous_window,
                        max(1, endpoint.recv_vbufs.count // 2)))

    def _batch(self, count: int) -> None:
        self.left = count
        self.start = self.state.next_grant
        self.grants = []
        self._grant_next()

    def _grant_next(self) -> None:
        endpoint = self.endpoint
        state = self.state
        if self.left > 0 and state.next_grant < state.nchunks:
            acquire_staging(endpoint, endpoint.recv_vbufs, self,
                            GrantOp._granted, endpoint.recovery)
        elif self.grants:
            wait(endpoint.post_control(
                state.rts.envelope.src,
                {
                    "type": "cts",
                    "ssn": state.rts.ssn,
                    "start": self.start,
                    "chunks": self.grants,
                    "chunk_bytes": state.chunk_bytes,
                },
            ), self._posted)
        else:
            self._posted(None)

    def _granted(self) -> None:
        state = self.state
        i = state.next_grant
        lo, hi = state.chunk_range(i)
        vbuf = state.staging[i] = self.item
        self.grants.append(self.endpoint.hca.register(vbuf.sub(0, hi - lo)))
        state.next_grant += 1
        self.left -= 1
        self._grant_next()

    def _posted(self, _event) -> None:
        state = self.state
        if state.next_grant < state.nchunks:
            self._step = GrantOp._drained
            state.drained.request(self)

    def _drained(self) -> None:
        self._batch(1)
