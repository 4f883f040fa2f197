"""MV2-GPU-NC: the pipelined GPU-aware transfer engine (Section IV).

This module implements the paper's contribution: MPI point-to-point
transfers whose source and/or destination buffers live in GPU device
memory, with datatype processing offloaded to the GPU and every stage
pipelined at chunk (64 KB) granularity:

.. code-block:: text

   sender GPU          sender host        wire        receiver host   receiver GPU
   D2D nc2c (pack) ->  D2H c2c (vbuf) ->  RDMA  ->    H2D c2c     ->  D2D c2nc (unpack)
     exec engine        D2H engine       HCA TX        H2D engine      exec engine

Each chunk flows through the five stages independently (one callback op
per chunk on each side, see :mod:`repro.sim.process`); FIFO streams and
the hardware engine resources provide exactly the overlap structure of
Figure 3. Every device chunk, contiguous or strided, replays the
transfer's compiled :class:`~repro.core.plan.TransferPlan` with one walk:
the chunk op walks the stages of the transfer's
:class:`~repro.core.backends.Stages` description with plain methods.
Contiguous layouts walk :data:`~repro.core.backends.CONTIGUOUS`, which
has no pack/unpack stages: the three-stage pipeline of the earlier
MVAPICH2-GPU work the paper builds on.

The engine drives every rendezvous over :mod:`repro.mpi.protocol`'s
RTS/CTS/FIN wire protocol, whatever the buffer spaces: one sender and one
receiver message op per message (callback ops too, with no process), each
side walking its own buffer's description. A host buffer walks a host one
(:func:`~repro.core.backends.host_stages`), a CPU pack into vbufs or zero
copy, one chunk at a time; eager delivery into device memory walks the
drain ops one chunk at a time too. With recovery armed, a chunk's tbuf,
vbuf and RDMA write and a send's first CTS are the recovery layer's
raced waits (callback ops as well); each starts where its disarmed wait
does and hands the chunk or message op back its step.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import TYPE_CHECKING, Dict, Optional

from ..hw.config import CopyKind
from ..mpi import protocol as _proto
from ..perf.stats import PERF
from ..mpi.endpoint import StagingPool
from ..mpi.status import MpiError, Status
from ..sim import CallbackOp, wait
from .backends import BACKENDS, CONTIGUOUS, DEFAULT_BACKEND, ZERO_COPY, host_stages
from .config import GpuNcConfig
from .gpu_pack import gpu_pack_cost
from .plan import layout_kind

if TYPE_CHECKING:  # pragma: no cover
    from .backends import Stages
    from ..mpi.endpoint import Endpoint
    from ..mpi.world import MpiWorld

__all__ = ["GpuNcEngine"]


class _EndpointResources(SimpleNamespace):
    """Per-endpoint streams and device staging pool (lazily created).

    The tbufs are the GPU pack's device-side flow control: a packing or
    unpacking chunk holds one, and a drained pool stalls the pipeline.
    """


class GpuNcEngine:
    """The GPU-aware transfer engine installed on every endpoint."""

    def __init__(self, world: "MpiWorld", config: Optional[GpuNcConfig] = None):
        self.world = world
        self.config = config if config is not None else GpuNcConfig()
        self._resources: Dict[int, _EndpointResources] = {}
        #: Resolved tuning table (or None = untuned, bit-identical engine).
        self.tuning = getattr(world, "tuning", None)
        # Device staging must fit the largest chunk the table may pick;
        # without a table this is exactly the configured chunk size, so
        # pool geometry (and therefore every trace) is unchanged.
        self._staging_bytes = self.config.chunk_bytes
        if self.tuning is not None:
            self._staging_bytes = self.tuning.max_chunk_bytes(
                floor=self.config.chunk_bytes
            )

    # -- plumbing -----------------------------------------------------------------
    def resources(self, endpoint: "Endpoint") -> _EndpointResources:
        res = self._resources.get(endpoint.rank)
        if res is None:
            cuda = endpoint.cuda
            res = _EndpointResources(
                pack=cuda.stream(f"rank{endpoint.rank}.pack"),
                d2h=cuda.stream(f"rank{endpoint.rank}.d2h"),
                h2d=cuda.stream(f"rank{endpoint.rank}.h2d"),
                unpack=cuda.stream(f"rank{endpoint.rank}.unpack"),
                tbufs=StagingPool(cuda.env, cuda.malloc, self._staging_bytes,
                                  self.config.tbuf_chunks, kind="tbuf chunk",
                                  counter="tbuf_acquire"),
            )
            self._resources[endpoint.rank] = res
        return res

    def _transfer_choice(self, endpoint, dtype, count: int, total: int,
                         pool=None, ctx=None):
        """The tuning table's ``(backend, chunk)`` choice, or None.

        None (no table, or no entry for this layout class) keeps the
        static ``config.chunk_bytes`` and the default backend -- the
        untuned engine, bit-identical to pre-tuning behaviour. A tuned
        chunk preference is clamped to the staging capacity actually
        allocated on *both* sides: tbuf chunk size, this endpoint's vbuf
        pool, and the peer's vbuf size when the world recorded it
        (``endpoint.peer_vbuf_bytes``) -- the receiver hard-errors on an
        RTS chunk that exceeds its pool, so the clamp must see both ends.
        ``ctx`` is the request's collective context (None for p2p).
        """
        if self.tuning is None:
            return None
        from ..tune.table import tuned_transfer_choice

        pool = pool if pool is not None else endpoint.send_vbufs
        cap = min(self._staging_bytes, pool.buf_bytes)
        peer = getattr(endpoint, "peer_vbuf_bytes", None)
        if peer:
            cap = min(cap, peer)
        return tuned_transfer_choice(
            self.tuning, dtype, count, total, cap,
            memo=getattr(endpoint, "tune_memo", None), ctx=ctx,
        )

    def _stages_for(self, kind: str, choice) -> "Stages":
        """The stage description a transfer's chunks walk.

        A contiguous layout has no pack stage to choose. Otherwise an
        explicit ``config.backend`` wins (ablations, the conformance
        sweep), then the table's per-bucket choice, then the GPU-pack
        pipeline -- the engine's historical single path.
        """
        if kind == "contig":
            return CONTIGUOUS
        if self.config.backend != "auto":
            return BACKENDS[self.config.backend]
        if choice is not None and choice.backend in BACKENDS:
            return BACKENDS[choice.backend]
        return BACKENDS[DEFAULT_BACKEND]

    # ------------------------------------------------------------------------
    # The rendezvous driver, one message op per side of a message
    # ------------------------------------------------------------------------
    def rdv_send(self, endpoint, envelope, buf, count, dtype, req) -> None:
        """Start the rendezvous send of one message, from any buffer."""
        _SendOp(self, endpoint, envelope, buf, count, dtype, req)

    def rdv_recv(self, endpoint, posted, rts) -> None:
        """Start the rendezvous receive of a matched RTS, into any buffer."""
        _RecvOp(self, endpoint, posted, rts)

    def deliver_eager_device(self, endpoint, req, data, status) -> None:
        """Deliver an eager payload into device memory."""
        _EagerDelivery(self, endpoint, req, data, status)


# ---------------------------------------------------------------------------
# Message ops
# ---------------------------------------------------------------------------

class _SendOp(CallbackOp):
    """The sender side of one rendezvous (a callback op).

    Its kick chooses the stage description and chunk size, opens the
    transaction and waits for ``send_order``, which grants it in place;
    it then posts the RTS and starts the chunk ops. A device buffer's
    chunks start at once and count down on their transfer, the last one
    completing the send. A host buffer's first chunk waits for the first
    CTS (armed, through :class:`~repro.mpi.protocol.CtsWait`), and its
    chunks then move one at a time.
    """

    __slots__ = ("engine", "endpoint", "envelope", "buf", "count", "dtype",
                 "req", "stages", "transfer", "state", "rts")

    def __init__(self, engine, endpoint, envelope, buf, count, dtype, req):
        self.engine = engine
        self.endpoint = endpoint
        self.envelope = envelope
        self.buf = buf
        self.count = count
        self.dtype = dtype
        self.req = req
        self._step = _SendOp._on_kick
        endpoint.env.schedule_op(self)

    def _on_kick(self) -> None:
        engine, endpoint = self.engine, self.endpoint
        envelope, dtype, count = self.envelope, self.dtype, self.count
        total = envelope.size_bytes
        # A zero-byte send takes the host description of its datatype,
        # whatever its buffer space: there is nothing to stage.
        if self.buf.space == "device" and total:
            kind = layout_kind(dtype, count)
            tuned = kind == "strided"
        else:
            kind, stages = None, host_stages(dtype, count)
            tuned = stages is not ZERO_COPY
        # Contiguous sends deliberately bypass the table (no staging
        # geometry to tune); counted so tuned runs can see the traffic
        # the table never saw instead of it looking like lookup misses.
        choice = None
        if engine.tuning is not None:
            if tuned:
                choice = engine._transfer_choice(
                    endpoint, dtype, count, total, ctx=self.req.coll_ctx)
            else:
                PERF.bump("tune_contig_bypass")
        chunk = choice.chunk_bytes if choice is not None else 0
        if kind is not None:
            # A device buffer dictates the chunk size, and both sides
            # replay the cached TransferPlan of this shape: chunk ranges,
            # slices, labels and durations. Every chunk is staged in a
            # send vbuf.
            chunk = chunk or engine.config.chunk_bytes
            vbuf = endpoint.send_vbufs.buf_bytes
            if chunk > vbuf:
                raise MpiError(
                    f"device chunk {chunk} exceeds sender vbuf {vbuf}")
            stages = engine._stages_for(kind, choice)
            self.transfer = _Transfer(engine, endpoint, self.buf,
                                      dtype.plan_for(count, chunk), stages,
                                      self.req, envelope.tag)
        elif stages is not ZERO_COPY:  # a zero-copy send leaves it to the receiver
            chunk = chunk or endpoint.send_vbufs.buf_bytes
        self.stages = stages
        ssn = endpoint.new_ssn()
        self.state = _proto.SendState(endpoint=endpoint, ssn=ssn,
                                      dst=envelope.dst)
        endpoint.send_states[ssn] = self.state
        self.rts = {
            "type": "rts",
            "ssn": ssn,
            "envelope": envelope,
            "total": total,
            "chunk_pref": chunk,
        }
        self._step = _SendOp._on_order
        endpoint.send_order.request(self)

    def _on_order(self) -> None:
        wait(self.endpoint.post_control(self.envelope.dst, self.rts),
             self._rts_posted)

    def _rts_posted(self, _event) -> None:
        endpoint = self.endpoint
        endpoint.send_order.release()
        state = self.state
        # A host buffer's chunks wait for the first CTS, take the
        # receiver's chunk size and move one at a time; the last one
        # completes the send. A device buffer's start packing at once, so
        # an armed wait for the first CTS runs beside them.
        host = self.stages.host_buffer
        self._step = _SendOp._granted  # a host send's step once granted
        if endpoint.recovery is not None:
            _proto.CtsWait(endpoint, state, self.rts, self if host else None)
        elif host:
            state.wait_grant(self)
        if not host:
            transfer = self.transfer
            for i in range(transfer.plan.nchunks):
                _SendChunkOp(transfer, state, i)

    def _granted(self) -> None:
        state = self.state
        _SendChunkOp(_Transfer(self.engine, self.endpoint, self.buf,
                               self.dtype.plan_for(self.count, state.chunk_bytes),
                               self.stages, self.req, self.envelope.tag),
                     state, 0)


class _RecvOp(CallbackOp):
    """The receiver side of one rendezvous (a callback op).

    Its kick chooses the stage description and chunk size and opens the
    transaction: a zero-copy receive grants every window of the user
    buffer in one CTS, a staged one starts its
    :class:`~repro.mpi.protocol.GrantOp`. It then waits, in place, for
    the transaction's ``done`` wake-up and completes the receive.
    """

    __slots__ = ("engine", "endpoint", "posted", "rts", "state")

    def __init__(self, engine, endpoint, posted, rts):
        self.engine = engine
        self.endpoint = endpoint
        self.posted = posted
        self.rts = rts
        self._step = _RecvOp._on_kick
        endpoint.env.schedule_op(self)

    def _on_kick(self) -> None:
        engine, endpoint, rts = self.engine, self.endpoint, self.rts
        posted = self.posted
        req = posted.request
        total = rts.total
        dtype, count = req.datatype, req.count
        vbuf = endpoint.recv_vbufs.buf_bytes
        if req.buf.space == "device":
            # The sender dictated the chunk size; the drain backend comes
            # from this side's datatype and table.
            chunk = rts.chunk_pref or engine.config.chunk_bytes
            if chunk > vbuf:
                raise MpiError(f"sender chunk {chunk} exceeds receiver vbuf {vbuf}")
            kind = layout_kind(dtype, count)
            choice = None
            if kind == "strided":
                choice = engine._transfer_choice(
                    endpoint, dtype, count, total,
                    pool=endpoint.recv_vbufs, ctx=req.coll_ctx,
                )
            stages = engine._stages_for(kind, choice)
        else:
            stages = host_stages(dtype, count)
            if stages is ZERO_COPY:
                chunk = rts.chunk_pref or max(total, 1)
            else:
                chunk = min(vbuf, rts.chunk_pref or vbuf)
        # A posted receive may be larger than the incoming message: the
        # plan then covers the ``total`` bytes that arrive, which fill the
        # receive type map from its start.
        plan = dtype.plan_for(count, chunk, total)
        if stages is ZERO_COPY:
            # Every landing window is a window of the user buffer, all
            # granted at once; each FIN finishes its chunk.
            self.state = _proto.make_recv_state(
                endpoint, posted, rts, chunk, staged=False,
                on_fin=_proto.RecvState.retire_chunk,
            )
            wait(endpoint.post_control(rts.envelope.src, {
                "type": "cts", "ssn": rts.ssn, "start": 0, "chunk_bytes": chunk,
                "chunks": [endpoint.hca.register(_window(req.buf, cp))
                           for cp in plan.chunks],
            }), self._granted)
        else:
            transfer = _Transfer(engine, endpoint, req.buf, plan, stages)
            self.state = _proto.make_recv_state(
                endpoint, posted, rts, chunk, staged=True,
                on_fin=lambda state, i: _DrainChunkOp(transfer, state, i),
            )
            _proto.GrantOp(endpoint, self.state)
            self._granted()

    def _granted(self, _event=None) -> None:
        self._step = _RecvOp._on_done
        self.state.done.wait(self)

    def _on_done(self) -> None:
        endpoint, rts = self.endpoint, self.rts
        _proto.retire_recv_state(endpoint, rts.ssn)
        endpoint.stats.note_recv(rts.total)
        self.posted.request._complete(self.state.status)


# ---------------------------------------------------------------------------
# Chunk ops
# ---------------------------------------------------------------------------

class _Transfer:
    """One side of one message, shared by its chunk ops."""

    __slots__ = ("engine", "endpoint", "res", "buf", "plan", "stages",
                 "pack", "copy", "rec", "req", "tag", "eager", "left")

    def __init__(self, engine, endpoint, buf, plan, stages, req=None, tag=None,
                 eager=False):
        self.engine = engine
        self.endpoint = endpoint
        #: the endpoint's streams and tbuf pool (a device buffer's only)
        self.res = None if stages.host_buffer else engine.resources(endpoint)
        #: the user buffer: the send source or the receive destination
        self.buf = buf
        #: the compiled TransferPlan every chunk op replays
        self.plan = plan
        #: the stage description every chunk op starts out walking
        self.stages = stages
        #: per-chunk pack durations (None without a pack stage) and copy
        #: durations of ``stages``, memoized on the plan
        cfg = endpoint.cfg
        self.pack = plan.costs_for(cfg, gpu_pack_cost) if stages.packs else None
        self.copy = (plan.costs_for(cfg, stages.copy_cost)
                     if stages.copy_cost is not None else None)
        #: an eager delivery labels its copies alike, counts none and
        #: waits for its tbufs unraced
        self.eager = eager
        self.rec = None if eager else endpoint.recovery
        #: a send's request and tag
        self.req = req
        self.tag = tag
        #: a device send's chunks not yet finished (its count-down)
        self.left = plan.nchunks

    def send_done(self, state) -> None:
        """Retire a send whose last FIN is posted; complete its request."""
        endpoint = self.endpoint
        total = self.plan.total
        _proto.retire_send_state(endpoint, state.ssn)
        endpoint.stats.note_send("rndv" if self.stages.host_buffer else "gpu",
                                 total)
        endpoint.stats.chunks_sent += self.plan.nchunks
        self.req._complete(
            Status(source=endpoint.rank, tag=self.tag, count_bytes=total))


def _window(buf, cp):
    """Chunk ``cp`` of a contiguous layout: a window of ``buf``."""
    return buf.sub(int(cp.segs.offsets[0]) if cp.nbytes else 0, cp.nbytes)


class _ChunkOp(CallbackOp):
    """A callback op moving one chunk of a :class:`_Transfer`.

    It queues itself for its kick when created (or, with ``kick`` False,
    takes its first step at once, in its creator's step) and then walks
    the stages of its description, each a plain method that continues on
    the event its predecessor waits on (see :mod:`repro.sim.process`).
    The tbuf and vbuf pools and the node CPU grant it in place and the
    next step reads a buffer from ``item``; armed, a staging buffer comes
    from the recovery layer's bounded wait, which hands it over the same
    way (:func:`~repro.mpi.protocol.acquire_staging`).
    """

    __slots__ = ("transfer", "state", "i", "cp", "stages", "vbuf", "tbuf",
                 "t0")

    def __init__(self, transfer: _Transfer, state, i: int, kick: bool = True):
        self.transfer = transfer
        #: the SendState or RecvState of the transaction. Held here, not
        #: on the transfer: a RecvState holds the FIN callback that holds
        #: the transfer, and the cycle would outlive the message.
        self.state = state
        self.i = i
        self.cp = transfer.plan.chunks[i]
        self.stages = transfer.stages
        self.vbuf = None
        self.tbuf = None
        self._step = type(self)._on_kick
        if kick:
            transfer.endpoint.env.schedule_op(self)
        else:
            self._on_kick()

    def _acquire_tbuf(self, step) -> None:
        """Get a device staging chunk, then run ``step``, which finds it
        in ``item`` (None when the armed recovery layer degrades the
        chunk)."""
        t = self.transfer
        _proto.acquire_staging(t.endpoint, t.res.tbufs, self, step, t.rec,
                               degrade=True)

    def _hold_tbuf(self) -> bool:
        """Keep the granted tbuf; False once the chunk has degraded to the
        host description (strided PCIe copy, no tbuf)."""
        tbuf = self.item
        if tbuf is None:
            self.stages = BACKENDS["host"]
            return False
        self.tbuf = tbuf
        return True

    def _copy_cost(self) -> float:
        """The copy's duration: the transfer's memoized one, or the host
        description's once the chunk degraded."""
        t = self.transfer
        if self.stages is t.stages:
            return t.copy[self.i]
        return self.stages.copy_cost(t.endpoint.cfg, self.cp.segs)

    def _copy(self) -> None:
        """The copy stage between the user buffer and the chunk's vbuf.

        A host buffer's copy packs or unpacks on the node CPU; any other
        is a PCIe copy on this side's stream, with ``_move`` fused into
        its completion (on a drain, before the vbuf is recycled).
        """
        t = self.transfer
        if self.vbuf is None:  # a send chunk's vbuf, just granted
            self.vbuf = self.item
        if self.stages.host_buffer:
            self._step = _ChunkOp._on_cpu
            t.endpoint.node.cpu.request(self)
            return
        kind, side = self._COPY
        labels = self.stages.labels
        wait((t.res.h2d if side else t.res.d2h).enqueue(
            t.endpoint.cuda.gpu.engine_for(kind), self._copy_cost(), self._move,
            label=labels[2] if t.eager else labels[side] % self.i,
        ), self._copied)

    def _on_cpu(self) -> None:
        t = self.transfer
        t.endpoint.hold_cpu(self, t.copy[self.i], _ChunkOp._cpu_done)

    def _cpu_done(self) -> None:
        endpoint = self.transfer.endpoint
        endpoint.release_cpu(self.t0, self.stages.labels[self._COPY[1]])
        if endpoint.env.functional:
            self._move()
        self._copied(None)


class _SendChunkOp(_ChunkOp):
    """One sender chunk: (tbuf, pack) -> vbuf -> copy -> (release tbuf),
    RDMA-written once its grant is in, then announced with a FIN.

    Once its FIN is posted, a device buffer's chunk counts down on its
    transfer in the slot its old ``done`` event took, and the last one
    completes the send in the slot of the old ``AllOf`` over all of them.
    A host buffer's chunk instead starts the next one, or completes the
    send, in the step its FIN post completes."""

    __slots__ = ()
    #: the copy's engine, and its label's index (0: D2H stream, 1: H2D)
    _COPY = (CopyKind.D2H, 0)

    def __init__(self, transfer: _Transfer, state, i: int):
        _ChunkOp.__init__(self, transfer, state, i,
                          kick=not transfer.stages.host_buffer)

    def _on_kick(self) -> None:
        stages = self.stages
        if stages.host_buffer and len(self.state.grants) <= self.i:
            self.state.wait_grant(self)
            return
        stages.count(self.cp.segs)
        if stages.packs:
            self._acquire_tbuf(_SendChunkOp._pack)
        elif stages.copy_cost is None:
            self._staged()
        else:
            self._acquire_vbuf()

    def _pack(self) -> None:
        if not self._hold_tbuf():
            self._acquire_vbuf()
            return
        t = self.transfer
        cp = self.cp
        wait(t.res.pack.enqueue(
            t.endpoint.cuda.gpu.exec_engine, t.pack[cp.index], None,
            label=cp.pack_label,
        ), self._acquire_vbuf)

    def _acquire_vbuf(self, _event=None) -> None:
        t = self.transfer
        _proto.acquire_staging(t.endpoint, t.endpoint.send_vbufs, self,
                               _SendChunkOp._copy, t.rec)

    def _move(self) -> None:
        self.cp.gather_into(self.transfer.buf, self.vbuf.view())

    def _copied(self, _event) -> None:
        if self.tbuf is not None:
            self.transfer.res.tbufs.release(self.tbuf)
        self._staged()

    def _staged(self, _event=None) -> None:
        """The chunk is staged in ``self.vbuf`` (or, without a copy stage,
        sits in the user buffer): RDMA-write it once granted."""
        t = self.transfer
        state = self.state
        i = self.i
        if len(state.grants) <= i:
            self._step = _SendChunkOp._staged
            state.wait_grant(self)
            return
        if state.chunk_bytes != t.plan.chunk_bytes:
            raise MpiError(
                f"receiver granted {state.chunk_bytes}-byte chunks but "
                f"the sender pipelined at {t.plan.chunk_bytes}; configure "
                "matching vbuf/chunk sizes on both worlds"
            )
        cp = self.cp
        if self.vbuf is not None:
            src = self.vbuf.sub(0, cp.nbytes)
        elif cp.nbytes:
            src = _window(t.buf, cp)
        else:
            self._written(None)  # an empty zero-copy chunk writes nothing
            return
        if t.rec is None:
            wait(t.endpoint.hca.rdma_write(src, state.grants[i]), self._written)
        else:
            self._step = _SendChunkOp._written
            _proto.RdmaRetry(t.endpoint, src, state.grants[i], self)

    def _written(self, event=None) -> None:
        if event is not None and not event._ok:
            raise event._value  # completed in error, recovery disarmed
        t = self.transfer
        state = self.state
        if t.rec is not None:
            state.fin_sent.add(self.i)
        wait(t.endpoint.post_control(
            state.dst, {"type": "fin", "ssn": state.ssn, "chunk": self.i}
        ), self._finned)

    def _finned(self, _event) -> None:
        t = self.transfer
        if self.vbuf is not None:
            t.endpoint.send_vbufs.release(self.vbuf)
        if not t.stages.host_buffer:
            self._step = _SendChunkOp._counted
            t.endpoint.env.schedule_op(self)
        elif self.i + 1 < t.plan.nchunks:
            _SendChunkOp(t, self.state, self.i + 1)
        else:
            t.send_done(self.state)

    def _counted(self) -> None:
        t = self.transfer
        t.left -= 1
        if not t.left:
            self._step = _SendChunkOp._sent
            t.endpoint.env.schedule_op(self)

    def _sent(self) -> None:
        self.transfer.send_done(self.state)


class _DrainChunkOp(_ChunkOp):
    """FIN arrived for one receiver chunk: (tbuf) -> copy out of its
    staging vbuf -> release the vbuf -> (unpack, release tbuf), then
    finish the chunk."""

    __slots__ = ()
    _COPY = (CopyKind.H2D, 1)

    def _on_kick(self) -> None:
        t = self.transfer
        self.vbuf = self.state.staging[self.i]
        if not t.eager:
            self.stages.count(self.cp.segs)
        if self.stages.packs:
            self._acquire_tbuf(_DrainChunkOp._on_tbuf)
        else:
            self._copy()

    def _on_tbuf(self) -> None:
        self._hold_tbuf()
        self._copy()

    def _move(self) -> None:
        self.cp.scatter_from(self.vbuf.view(), self.transfer.buf)

    def _copied(self, _event) -> None:
        state = self.state
        state.release_staging(self.i)
        if self.tbuf is None:
            state.finish_chunk()
            return
        t = self.transfer
        cp = self.cp
        wait(t.res.unpack.enqueue(
            t.endpoint.cuda.gpu.exec_engine, t.pack[cp.index], None,
            label=cp.unpack_label,
        ), self._unpacked)

    def _unpacked(self, _event) -> None:
        self.transfer.res.tbufs.release(self.tbuf)
        self.state.finish_chunk()


class _EagerDelivery(CallbackOp):
    """An eager payload landing in device memory (a callback op).

    Its kick copies the payload into a host buffer, whose windows stand
    in for staging vbufs; drain ops then walk the chunks of the prefix
    plan one at a time, each started in the step its predecessor
    finishes. It plays the drain ops' RecvState.
    """

    __slots__ = ("engine", "endpoint", "req", "data", "status", "transfer",
                 "tmp", "staging", "landed")

    def __init__(self, engine, endpoint, req, data, status):
        self.engine = engine
        self.endpoint = endpoint
        self.req = req
        self.data = data
        self.status = status
        self._step = _EagerDelivery._on_kick
        endpoint.env.schedule_op(self)

    def _on_kick(self) -> None:
        engine, endpoint, req = self.engine, self.endpoint, self.req
        engine.resources(endpoint)
        total = self.data.nbytes
        if total == 0:
            req._complete(self.status)
            return
        plan = req.datatype.plan_for(req.count, engine.config.chunk_bytes, total)
        self.transfer = _Transfer(engine, endpoint, req.buf, plan,
                                  engine._stages_for(plan.kind, None), eager=True)
        tmp = self.tmp = endpoint.node.malloc_host(total)
        tmp.view()[:] = self.data
        self.staging = [tmp.sub(cp.lo, cp.nbytes) for cp in plan.chunks]
        self.landed = 0
        _DrainChunkOp(self.transfer, self, 0, kick=False)

    def release_staging(self, index: int) -> None:
        pass  # the host buffer goes once the last chunk has landed

    def finish_chunk(self) -> None:
        self.landed += 1
        if self.landed < len(self.staging):
            _DrainChunkOp(self.transfer, self, self.landed, kick=False)
            return
        self.endpoint.node.free_host(self.tmp)
        self.req._complete(self.status)
