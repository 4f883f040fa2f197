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

The engine plugs into :mod:`repro.mpi.protocol`'s rendezvous scaffolding:
same RTS/CTS/FIN wire protocol, so any combination of host/device source
and destination works -- including the mixed cases (host->device,
device->host).
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from ..hw.config import CopyKind
from ..mpi import protocol as _proto
from ..perf.stats import PERF
from ..mpi.datatype import Datatype
from ..mpi.request import Request
from ..mpi.status import MpiError, Status
from ..sim import CallbackOp, drive, wait
from .backends import BACKENDS, CONTIGUOUS, DEFAULT_BACKEND
from .config import GpuNcConfig
from .gpu_pack import gpu_pack_cost
from .plan import layout_kind
from .staging import TbufPool

if TYPE_CHECKING:  # pragma: no cover
    from .backends import Stages
    from ..hw.memory import BufferPtr
    from ..mpi.endpoint import Endpoint
    from ..mpi.matching import Envelope, PostedRecv
    from ..mpi.world import MpiWorld

__all__ = ["GpuNcEngine"]


class _EndpointResources(SimpleNamespace):
    """Per-endpoint streams and device staging pool (lazily created)."""


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
                tbufs=TbufPool(cuda, self._staging_bytes, self.config.tbuf_chunks),
            )
            self._resources[endpoint.rank] = res
        return res

    def _chunking(self, total: int, granted: Optional[int] = None) -> tuple:
        """Chunk size and count for a ``total``-byte transfer.

        ``granted`` is the peer-dictated chunk size (the RTS
        ``chunk_pref``); zero/None mean "no preference" and fall back to
        the engine's configured block size. Both sides of a transfer must
        derive the same ``(chunk, nchunks)`` from the same inputs -- the
        chunk size is part of the transfer-plan cache key, so an
        inconsistency would compile mismatched plans for one message (and
        trip the CTS chunk-size check). All chunk geometry used by the
        engine comes from this one method.
        """
        chunk = granted if granted else self.config.chunk_bytes
        nchunks = max(1, math.ceil(total / chunk)) if total else 1
        return chunk, nchunks

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
    # Sender side
    # ------------------------------------------------------------------------
    def isend_device(
        self,
        endpoint: "Endpoint",
        envelope: "Envelope",
        buf: "BufferPtr",
        count: int,
        dtype: Datatype,
        req: Request,
    ) -> None:
        """Entry point for sends whose buffer is in device memory."""
        if endpoint.cuda.node.find_gpu(buf) is not endpoint.cuda.gpu:
            raise MpiError("send buffer lives on a GPU not bound to this rank")
        total = envelope.size_bytes
        if total == 0:
            endpoint.env.process(
                _proto._eager_send(endpoint, envelope, buf, count, dtype, req),
                name=f"gpu-send-empty:{endpoint.rank}",
            )
            return
        endpoint.env.process(
            self._send_proc(endpoint, envelope, buf, count, dtype, req),
            name=f"gpu-send:{endpoint.rank}->{envelope.dst}",
        )

    def _send_proc(self, endpoint, envelope, buf, count, dtype, req):
        env = endpoint.env
        total = envelope.size_bytes
        kind = layout_kind(dtype, count)
        # Contiguous sends deliberately bypass the table (no staging
        # geometry to tune); counted so tuned runs can see the traffic
        # the table never saw instead of it looking like lookup misses.
        choice = None
        if kind == "strided":
            choice = self._transfer_choice(
                endpoint, dtype, count, total,
                ctx=getattr(req, "coll_ctx", None),
            )
        elif self.tuning is not None:
            PERF.bump("tune_contig_bypass")
        chunk, nchunks = self._chunking(
            total, granted=choice.chunk_bytes if choice is not None else None
        )
        # Every chunk replays the cached TransferPlan of this transfer
        # shape: precomputed chunk ranges, slices, labels and durations.
        transfer = _Transfer(self, endpoint, buf, dtype.plan_for(count, chunk),
                             self._stages_for(kind, choice))
        ssn = endpoint.new_ssn()
        state = _proto.SendState(endpoint=endpoint, ssn=ssn, dst=envelope.dst)
        endpoint.send_states[ssn] = state
        rec = endpoint.recovery
        rts_payload = {
            "type": "rts",
            "ssn": ssn,
            "envelope": envelope,
            "total": total,
            "chunk_pref": chunk,
            "mode": "gpu",
        }
        yield endpoint.send_order.acquire()
        try:
            yield endpoint.post_control(envelope.dst, rts_payload)
        finally:
            endpoint.send_order.release()
        if rec is not None:
            # Packing starts immediately after the RTS, so the RTS-retry
            # loop runs beside the chunk pipeline instead of gating it.
            def cts_monitor():
                yield from _proto.await_cts(endpoint, state, rts_payload, rec)
            env.process(cts_monitor(), name=f"cts-monitor:{ssn}")

        ops = [_SendChunkOp(transfer, state, i) for i in range(nchunks)]
        yield env.all_of([op.done for op in ops])
        _proto.retire_send_state(endpoint, ssn)
        endpoint.stats.note_send("gpu", total)
        endpoint.stats.chunks_sent += nchunks
        req._complete(
            Status(source=endpoint.rank, tag=envelope.tag, count_bytes=total)
        )

    def _acquire_tbuf(self, endpoint, res):
        """Acquire a device staging chunk or degrade (a generator).

        Runs only with recovery armed (a chunk op is otherwise granted a
        tbuf in place by the pool). A tbuf that cannot be had within
        ``staging_timeout`` returns None: the chunk degrades from the
        GPU-offload path to the host-style strided-PCIe path instead of
        blocking the pipeline indefinitely.
        """
        rec = endpoint.recovery
        env = endpoint.env
        get = res.tbufs.acquire()
        yield env.any_of([get, env.timeout(rec.staging_timeout)])
        if get.triggered:  # granted in the deadline instant: keep it
            return get.value
        res.tbufs.cancel(get)
        PERF.bump("degrade_to_host")
        endpoint.tracer.record_fault(
            env.now, "recovery:degrade", src=endpoint.node.node_id,
            rank=endpoint.rank,
        )
        return None

    # ------------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------------
    def rdv_recv_device(
        self, endpoint: "Endpoint", posted: "PostedRecv", rts
    ) -> None:
        """Entry point for rendezvous receives into device memory."""
        endpoint.env.process(
            self._recv_proc(endpoint, posted, rts),
            name=f"gpu-recv:rank{endpoint.rank}",
        )

    def _recv_proc(self, endpoint, posted, rts):
        req = posted.request
        total = rts.total
        chunk, _ = self._chunking(total, granted=rts.chunk_pref or None)
        if chunk > endpoint.recv_vbufs.buf_bytes:
            raise MpiError(
                f"sender chunk {chunk} exceeds receiver vbuf "
                f"{endpoint.recv_vbufs.buf_bytes}"
            )
        kind = layout_kind(req.datatype, req.count)
        # The receiver resolves its drain backend locally from its own
        # datatype and table (the RTS wire format is unchanged); the
        # chunk size stays whatever the sender dictated. Contiguous
        # receives never consult the table -- they have no strided drain.
        choice = None
        if kind == "strided":
            choice = self._transfer_choice(
                endpoint, req.datatype, req.count, total,
                pool=endpoint.recv_vbufs, ctx=getattr(req, "coll_ctx", None),
            )
        # Compiled replay (mirror of the send side). A posted receive may
        # be larger than the incoming message: the plan then covers the
        # ``total`` bytes that arrive, which fill the receive type map
        # from its start.
        transfer = _Transfer(self, endpoint, req.buf,
                             req.datatype.plan_for(req.count, chunk, total),
                             self._stages_for(kind, choice))
        state = _proto.make_recv_state(
            endpoint, posted, rts, chunk, staged=True,
            on_fin=lambda state, i: _DrainChunkOp(transfer, state, i),
        )
        _proto.GrantOp(endpoint, state)
        yield state.done
        _proto.retire_recv_state(endpoint, rts.ssn)
        endpoint.stats.note_recv(total)
        req._complete(state.status)

    # ------------------------------------------------------------------------
    # Eager delivery into device memory (host sender -> device receiver)
    # ------------------------------------------------------------------------
    def deliver_eager_device(
        self, endpoint: "Endpoint", req: Request, data: np.ndarray, status: Status
    ) -> None:
        endpoint.env.process(
            self._eager_device_proc(endpoint, req, data, status),
            name=f"gpu-eager-recv:rank{endpoint.rank}",
        )

    def _eager_device_proc(self, endpoint, req, data, status):
        res = self.resources(endpoint)
        total = data.nbytes
        if total == 0:
            req._complete(status)
            return
            yield  # pragma: no cover
        # The payload may be shorter than the posted receive: the prefix
        # plan covers the bytes that arrived. Chunks land one at a time,
        # each copy taken from the transfer's stage description.
        tplan = req.datatype.plan_for(req.count, self.config.chunk_bytes, total)
        stages = self._stages_for(tplan.kind, None)
        cfg = endpoint.cfg
        copy = tplan.costs_for(cfg, stages.copy_cost)
        pack = tplan.costs_for(cfg, gpu_pack_cost) if stages.packs else None
        h2d = endpoint.cuda.gpu.engine_for(CopyKind.H2D)
        tmp = endpoint.node.malloc_host(total)
        tmp.view()[:] = data
        try:
            for cp in tplan.chunks:
                staged = tmp.sub(cp.lo, cp.nbytes)
                tbuf = (yield res.tbufs.acquire()) if stages.packs else None
                # The scatter into the user buffer is fused into the H2D
                # completion, as on the rendezvous drain.
                yield res.h2d.enqueue(
                    h2d, copy[cp.index],
                    lambda cp=cp, staged=staged: cp.scatter_from(
                        staged.view(), req.buf),
                    label=stages.labels[2],
                )
                if tbuf is not None:
                    yield res.unpack.enqueue(
                        endpoint.cuda.gpu.exec_engine, pack[cp.index], None,
                        label=cp.unpack_label,
                    )
                    res.tbufs.release(tbuf)
        finally:
            endpoint.node.free_host(tmp)
        req._complete(status)


# ---------------------------------------------------------------------------
# Chunk ops
# ---------------------------------------------------------------------------

class _Transfer:
    """One side of one pipelined message, shared by its chunk ops."""

    __slots__ = ("engine", "endpoint", "res", "buf", "plan", "stages",
                 "pack", "copy", "rec")

    def __init__(self, engine, endpoint, buf, plan, stages):
        self.engine = engine
        self.endpoint = endpoint
        self.res = engine.resources(endpoint)
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
        self.copy = plan.costs_for(cfg, stages.copy_cost)
        self.rec = endpoint.recovery


class _ChunkOp(CallbackOp):
    """A callback op moving one chunk of a :class:`_Transfer`.

    It queues itself for its kick when created and then walks the stages
    of its description, each a plain method that continues on the event
    its predecessor waits on (see :mod:`repro.sim.process`). Disarmed,
    the tbuf and vbuf pools grant it a buffer in place and the next step
    reads it from ``item``; armed, the recovery layer's generator is
    driven inline and hands its buffer over the same way.
    """

    __slots__ = ("transfer", "state", "i", "cp", "stages", "vbuf", "tbuf")

    def __init__(self, transfer: _Transfer, state, i: int):
        self.transfer = transfer
        #: the SendState or RecvState of the transaction. Held here, not
        #: on the transfer: a RecvState holds the FIN callback that holds
        #: the transfer, and the cycle would outlive the message.
        self.state = state
        self.i = i
        self.cp = transfer.plan.chunks[i]
        self.stages = transfer.stages
        self.tbuf = None
        self._step = type(self)._on_kick
        transfer.endpoint.env.schedule_op(self)

    def _acquire_tbuf(self, step) -> None:
        """Get a device staging chunk, then run ``step``, which finds it
        in ``item`` (None when the armed recovery layer degrades the
        chunk)."""
        t = self.transfer
        self._step = step
        if t.rec is None:
            t.res.tbufs.request(self)
        else:
            drive(t.engine._acquire_tbuf(t.endpoint, t.res), self._take)

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


class _SendChunkOp(_ChunkOp):
    """One sender chunk: (tbuf, pack) -> vbuf -> copy -> (release tbuf),
    RDMA-written once its grant is in, then announced with a FIN.
    ``done`` completes it."""

    __slots__ = ("done",)

    def __init__(self, transfer: _Transfer, state, i: int):
        self.done = transfer.endpoint.env.event()
        _ChunkOp.__init__(self, transfer, state, i)

    def _on_kick(self) -> None:
        self.stages.count(self.cp.segs)
        if self.stages.packs:
            self._acquire_tbuf(_SendChunkOp._pack)
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
        pool = t.endpoint.send_vbufs
        self._step = _SendChunkOp._copy
        if t.rec is None:
            pool.request(self)
        else:
            drive(_proto.acquire_vbuf(t.endpoint, pool), self._take)

    def _copy(self) -> None:
        t = self.transfer
        cp = self.cp
        buf = t.buf
        vbuf = self.vbuf = self.item
        wait(t.res.d2h.enqueue(
            t.endpoint.cuda.gpu.engine_for(CopyKind.D2H), self._copy_cost(),
            lambda: cp.gather_into(buf, vbuf.view()),
            label=self.stages.labels[0] % cp.index,
        ), self._copied)

    def _copied(self, _event) -> None:
        if self.tbuf is not None:
            self.transfer.res.tbufs.release(self.tbuf)
        self._staged()

    def _staged(self, _event=None) -> None:
        """``self.vbuf`` holds the chunk: RDMA-write it once granted."""
        t = self.transfer
        state = self.state
        i = self.i
        if len(state.grants) <= i:
            wait(state.grant_event, self._staged)
            return
        if state.chunk_bytes != t.plan.chunk_bytes:
            raise MpiError(
                f"receiver granted {state.chunk_bytes}-byte chunks but "
                f"the sender pipelined at {t.plan.chunk_bytes}; configure "
                "matching vbuf/chunk sizes on both worlds"
            )
        src = self.vbuf.sub(0, self.cp.nbytes)
        if t.rec is None:
            wait(t.endpoint.hca.rdma_write(src, state.grants[i]), self._written)
        else:
            drive(_proto.rdma_write_safe(t.endpoint, src, state.grants[i]),
                  self._written)

    def _written(self, event) -> None:
        if not event._ok:
            raise event._value  # completed in error, recovery disarmed
        t = self.transfer
        state = self.state
        if t.rec is not None:
            state.fin_sent.add(self.i)
        wait(t.endpoint.post_control(
            state.dst, {"type": "fin", "ssn": state.ssn, "chunk": self.i}
        ), self._finned)

    def _finned(self, _event) -> None:
        self.transfer.endpoint.send_vbufs.release(self.vbuf)
        self.done.succeed()


class _DrainChunkOp(_ChunkOp):
    """FIN arrived for one receiver chunk: (tbuf) -> copy out of its
    staging vbuf -> release the vbuf -> (unpack, release tbuf), then
    finish the chunk."""

    __slots__ = ()

    def _on_kick(self) -> None:
        self.vbuf = self.state.staging[self.i]
        self.stages.count(self.cp.segs)
        if self.stages.packs:
            self._acquire_tbuf(_DrainChunkOp._on_tbuf)
        else:
            self._copy()

    def _on_tbuf(self) -> None:
        self._hold_tbuf()
        self._copy()

    def _copy(self) -> None:
        t = self.transfer
        cp = self.cp
        buf = t.buf
        vbuf = self.vbuf
        # The scatter into the user buffer is fused into the H2D
        # completion -- it must run before release_staging recycles the
        # vbuf. An unpack then charges pure device time.
        wait(t.res.h2d.enqueue(
            t.endpoint.cuda.gpu.engine_for(CopyKind.H2D), self._copy_cost(),
            lambda: cp.scatter_from(vbuf.view(), buf),
            label=self.stages.labels[1] % cp.index,
        ), self._copied)

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
