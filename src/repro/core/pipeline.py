"""MV2-GPU-NC: the pipelined GPU-aware transfer engine (Section IV).

This module implements the paper's contribution: MPI point-to-point
transfers whose source and/or destination buffers live in GPU device
memory, with datatype processing offloaded to the GPU and every stage
pipelined at chunk (64 KB) granularity:

.. code-block:: text

   sender GPU          sender host        wire        receiver host   receiver GPU
   D2D nc2c (pack) ->  D2H c2c (vbuf) ->  RDMA  ->    H2D c2c     ->  D2D c2nc (unpack)
     exec engine        D2H engine       HCA TX        H2D engine      exec engine

Each chunk flows through the five stages independently (one simulated
process per chunk); FIFO streams and the hardware engine resources provide
exactly the overlap structure of Figure 3. Every strided chunk replays the
transfer's compiled :class:`~repro.core.plan.TransferPlan` through the
selected :mod:`~repro.core.backends` mover. Contiguous device buffers skip
the pack/unpack stages and reduce to the three-stage pipeline of the
earlier MVAPICH2-GPU work the paper builds on.

The engine plugs into :mod:`repro.mpi.protocol`'s rendezvous scaffolding:
same RTS/CTS/FIN wire protocol, so any combination of host/device source
and destination works -- including the mixed cases (host->device,
device->host).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from ..hw.config import CopyKind
from ..mpi import protocol as _proto
from ..perf.stats import PERF
from ..mpi.datatype import Datatype
from ..mpi.request import Request
from ..mpi.status import MpiError, Status
from .backends import BACKENDS, strided_pcie_op
from .config import GpuNcConfig
from .staging import TbufPool

if TYPE_CHECKING:  # pragma: no cover
    from .backends import TransferBackend
    from ..hw.memory import BufferPtr
    from ..mpi.endpoint import Endpoint
    from ..mpi.matching import Envelope, PostedRecv
    from ..mpi.world import MpiWorld

__all__ = ["GpuNcEngine", "LayoutPlan"]


@dataclass(frozen=True)
class LayoutPlan:
    """How ``count`` elements of a datatype map onto a buffer."""

    #: "contig" (single run; staging copies go straight to/from the user
    #: buffer) or "strided" (needs pack/unpack).
    kind: str
    #: Buffer offset of packed byte 0 (contig only).
    base_offset: int
    total_bytes: int

    @classmethod
    def of(cls, dtype: Datatype, count: int) -> "LayoutPlan":
        segs = dtype.segments_for_count(count)
        total = dtype.size * count
        if segs.count <= 1:
            base = int(segs.offsets[0]) if segs.count else 0
            return cls("contig", base, total)
        return cls("strided", 0, total)


from types import SimpleNamespace


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

    def _backend_for(self, choice) -> "TransferBackend":
        """Resolve the strided-chunk backend for one transfer.

        An explicit ``config.backend`` always wins (ablations, the
        conformance sweep). ``"auto"`` follows the offload switch and
        then the table's per-bucket choice; without either, the GPU-pack
        pipeline -- the engine's historical single path.
        """
        if self.config.backend != "auto":
            return BACKENDS[self.config.backend]
        if not self.config.use_gpu_offload:
            return BACKENDS["host"]
        if choice is not None and choice.backend in BACKENDS:
            return BACKENDS[choice.backend]
        return BACKENDS["gpu"]

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
        plan = LayoutPlan.of(dtype, count)
        # Contiguous sends deliberately bypass the table (no staging
        # geometry to tune); counted so tuned runs can see the traffic
        # the table never saw instead of it looking like lookup misses.
        choice = None
        if plan.kind == "strided":
            choice = self._transfer_choice(
                endpoint, dtype, count, total,
                ctx=getattr(req, "coll_ctx", None),
            )
        elif self.tuning is not None:
            PERF.bump("tune_contig_bypass")
        chunk, nchunks = self._chunking(
            total, granted=choice.chunk_bytes if choice is not None else None
        )
        backend = self._backend_for(choice)
        res = self.resources(endpoint)
        # Every strided chunk, whatever its backend, replays the cached
        # TransferPlan of this transfer shape: precomputed chunk ranges,
        # slices, labels and stage durations.
        tplan = costs = None
        if plan.kind == "strided":
            tplan = dtype.plan_for(count, chunk)
            costs = tplan.costs_for(endpoint.cuda.cfg)
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
        with endpoint.send_order.request() as order:
            yield order
            yield endpoint.post_control(envelope.dst, rts_payload)
        if rec is not None:
            # Packing starts immediately after the RTS, so the RTS-retry
            # loop runs beside the chunk pipeline instead of gating it.
            def cts_monitor():
                yield from _proto.await_cts(endpoint, state, rts_payload, rec)
            env.process(cts_monitor(), name=f"cts-monitor:{ssn}")

        def chunk_proc(i: int):
            lo = i * chunk
            hi = min(lo + chunk, total)
            n = hi - lo
            if plan.kind == "contig":
                # Three-stage pipeline of the earlier MVAPICH2-GPU design:
                # D2H straight from the user buffer.
                vbuf = yield from _proto.acquire_vbuf(endpoint, endpoint.send_vbufs)
                yield endpoint.cuda.memcpy_async(
                    vbuf.sub(0, n), buf.sub(plan.base_offset + lo, n),
                    stream=res.d2h, label=f"d2h[{i}]",
                )
            else:
                # Strided chunk: delegate to the selected transfer
                # backend (GPU-pack pipeline, strided-PCIe host path, or
                # NIC offload). ``yield from`` keeps every event the
                # backend schedules inline in this chunk process, so the
                # default backend's schedule is bit-identical to the
                # pre-backend engine.
                PERF.bump(f"backend_{backend.name}_chunks")
                vbuf = yield from backend.send_chunk(
                    self, endpoint, res, buf, tplan.chunks[i], costs
                )
            rb = yield from _proto.await_grant(state, i)
            if state.chunk_bytes != chunk:
                raise MpiError(
                    f"receiver granted {state.chunk_bytes}-byte chunks but "
                    f"the sender pipelined at {chunk}; configure matching "
                    "vbuf/chunk sizes on both worlds"
                )
            yield from _proto.rdma_write_safe(endpoint, vbuf.sub(0, n), rb)
            if rec is not None:
                state.fin_sent.add(i)
            yield endpoint.post_control(
                envelope.dst, {"type": "fin", "ssn": ssn, "chunk": i}
            )
            endpoint.send_vbufs.release(vbuf)

        procs = [
            env.process(chunk_proc(i), name=f"gpu-send-chunk{i}:{ssn}")
            for i in range(nchunks)
        ]
        yield env.all_of(procs)
        _proto.retire_send_state(endpoint, ssn)
        endpoint.stats.note_send("gpu", total)
        endpoint.stats.chunks_sent += nchunks
        req._complete(
            Status(source=endpoint.rank, tag=envelope.tag, count_bytes=total)
        )

    def _acquire_tbuf(self, endpoint, res):
        """Acquire a device staging chunk; None = degrade (a generator).

        With recovery armed, a tbuf that cannot be had within
        ``staging_timeout`` degrades this chunk from the GPU-offload path
        to the host-style strided-PCIe path instead of blocking the
        pipeline indefinitely (the ISSUE's degradation ladder). Disarmed,
        this is exactly the plain blocking acquire.
        """
        rec = endpoint.recovery
        if rec is None or not rec.degrade_enabled:
            tbuf = yield res.tbufs.acquire()
            return tbuf
        env = endpoint.env
        get = res.tbufs.acquire()
        yield env.any_of([get, env.timeout(rec.staging_timeout)])
        if get.processed:
            return get.value
        res.tbufs.cancel(get)
        PERF.bump("degrade_to_host")
        endpoint.stats.degrades += 1
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
        res = self.resources(endpoint)
        plan = LayoutPlan.of(req.datatype, req.count)
        # The receiver resolves its drain backend locally from its own
        # datatype and table (the RTS wire format is unchanged); the
        # chunk size stays whatever the sender dictated. Contiguous
        # receives never consult the table -- they have no strided drain.
        choice = None
        if plan.kind == "strided":
            choice = self._transfer_choice(
                endpoint, req.datatype, req.count, total,
                pool=endpoint.recv_vbufs, ctx=getattr(req, "coll_ctx", None),
            )
        backend = self._backend_for(choice)
        # Compiled replay (mirror of the send side). A posted receive may
        # be larger than the incoming message: the plan then covers the
        # ``total`` bytes that arrive, which fill the receive type map
        # from its start.
        rplan = rcosts = None
        if plan.kind == "strided":
            rplan = req.datatype.plan_for(req.count, chunk, total)
            rcosts = rplan.costs_for(endpoint.cuda.cfg)
        state = _proto.make_recv_state(
            endpoint, posted, rts, chunk, staged=True,
            on_fin=lambda st, ci: self._drain_chunk(
                st, ci, plan, res, rplan, rcosts, backend
            ),
        )
        endpoint.env.process(
            _proto.staged_granter(endpoint, state),
            name=f"gpu-granter:rank{endpoint.rank}",
        )
        yield state.done
        _proto.retire_recv_state(endpoint, rts.ssn)
        endpoint.stats.note_recv(total)
        req._complete(state.status)

    def _drain_chunk(
        self, state, i: int, plan: LayoutPlan, res, rplan, rcosts,
        backend: "TransferBackend",
    ) -> None:
        """FIN arrived for chunk ``i``: run H2D (+ unpack) and retire it."""
        endpoint = state.endpoint
        req = state.posted.request

        def proc():
            vbuf = state.staging[i]
            if plan.kind == "contig":
                lo, hi = state.chunk_range(i)
                n = hi - lo
                yield endpoint.cuda.memcpy_async(
                    req.buf.sub(plan.base_offset + lo, n), vbuf.sub(0, n),
                    stream=res.h2d, label=f"h2d[{i}]",
                )
                state.release_staging(i)
            else:
                PERF.bump(f"backend_{backend.name}_chunks")
                yield from backend.drain_chunk(
                    self, state, res, req, rplan.chunks[i], vbuf, rcosts
                )
            state.finish_chunk()

        endpoint.env.process(proc(), name=f"gpu-drain{i}:rank{endpoint.rank}")

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
        plan = LayoutPlan.of(req.datatype, req.count)
        total = data.nbytes
        if total == 0:
            req._complete(status)
            return
            yield  # pragma: no cover
        tmp = endpoint.node.malloc_host(total)
        tmp.view()[:] = data
        chunk = self.config.chunk_bytes
        try:
            if plan.kind == "contig":
                for lo in range(0, total, chunk):
                    n = min(chunk, total - lo)
                    yield endpoint.cuda.memcpy_async(
                        req.buf.sub(plan.base_offset + lo, n), tmp.sub(lo, n),
                        stream=res.h2d, label="eager-h2d",
                    )
            else:
                # The payload may be shorter than the posted receive: the
                # prefix plan covers the bytes that arrived.
                tplan = req.datatype.plan_for(req.count, chunk, total)
                costs = tplan.costs_for(endpoint.cuda.cfg)
                for cp in tplan.chunks:
                    staged = tmp.sub(cp.lo, cp.nbytes)
                    if self.config.use_gpu_offload:
                        # H2D into the device tbuf, then the GPU unpack;
                        # the scatter into the user buffer is fused into
                        # the H2D completion, as on the rendezvous drain.
                        tbuf = yield res.tbufs.acquire()
                        yield res.h2d.enqueue(
                            endpoint.cuda.gpu.engine_for(CopyKind.H2D),
                            costs["h2d"][cp.index],
                            lambda cp=cp, staged=staged: cp.scatter_from(
                                staged.view(), req.buf),
                            label="eager-h2d:h2d",
                        )
                        yield res.unpack.enqueue(
                            endpoint.cuda.gpu.exec_engine,
                            costs["pack"][cp.index], None,
                            label=cp.unpack_label,
                        )
                        res.tbufs.release(tbuf)
                    else:
                        yield strided_pcie_op(
                            endpoint, res.h2d, CopyKind.H2D, req.buf, cp,
                            staged, "pcie-strided[0]",
                        )
        finally:
            endpoint.node.free_host(tmp)
        req._complete(status)

