"""Communicators: the per-rank MPI facade, groups, and topologies.

Rank programs are generators; blocking MPI calls are therefore invoked as
``yield from comm.Send(...)`` while non-blocking calls return a
:class:`~repro.mpi.request.Request` immediately::

    def program(ctx):
        comm = ctx.comm
        if comm.rank == 0:
            yield from comm.Send(buf, count, FLOAT, dest=1, tag=7)
        else:
            status = yield from comm.Recv(buf, count, FLOAT, source=0, tag=7)

Beyond the world communicator, this module implements communicator
management (``Dup``, ``Split``) and Cartesian topologies (``Cart_create``,
``Cart_shift``, ...). Sub-communicators carry a member list mapping comm
ranks to world ranks; matching stays correct because every message carries
the communicator's unique context id, exactly like contexts in a real MPI.

Context ids are derived *deterministically* from (parent id, per-parent
epoch, color), so all members compute the same id without extra
communication -- each rank must call communicator constructors in the same
order, which is what the MPI standard requires anyway.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..hw.memory import BufferPtr
from . import collectives as _coll
from . import protocol as _proto
from .datatype import Datatype
from .request import Request, wait_all
from .status import ANY_SOURCE, ANY_TAG, PROC_NULL, UNDEFINED, MpiError, Status

if TYPE_CHECKING:  # pragma: no cover
    from .endpoint import Endpoint
    from .world import MpiWorld

__all__ = ["Comm", "CartComm"]


class Comm:
    """One rank's view of a communicator."""

    def __init__(
        self,
        world: "MpiWorld",
        endpoint: "Endpoint",
        comm_id,
        members: Optional[List[int]] = None,
    ):
        self.world = world
        self.endpoint = endpoint
        self.comm_id = comm_id
        #: members[comm_rank] -> world rank
        self.members: List[int] = (
            list(members) if members is not None else list(range(world.size))
        )
        if endpoint.rank not in self.members:
            raise MpiError(
                f"world rank {endpoint.rank} is not a member of this communicator"
            )
        self._to_comm_rank: Dict[int, int] = {
            w: c for c, w in enumerate(self.members)
        }
        self._epoch = 0  # per-communicator constructor counter

    @property
    def rank(self) -> int:
        return self._to_comm_rank[self.endpoint.rank]

    @property
    def size(self) -> int:
        return len(self.members)

    def _world_peer(self, peer: int) -> int:
        if not (0 <= peer < self.size):
            raise MpiError(
                f"peer rank {peer} outside communicator of size {self.size}"
            )
        return self.members[peer]

    def _status_hook(self, status: Status) -> Status:
        """Translate a world-rank source into this communicator's rank."""
        if status.source in self._to_comm_rank:
            status.source = self._to_comm_rank[status.source]
        return status

    # -- point to point -----------------------------------------------------------
    def Isend(
        self, buf: BufferPtr, count: int, datatype: Datatype, dest: int,
        tag: int = 0, coll_ctx: Optional[str] = None,
    ) -> Request:
        """``MPI_Isend``.

        ``coll_ctx`` (internal) tags a peer-message spawned inside a
        collective with the fan-out context the tuning table resolves
        against; plain point-to-point callers leave it None.
        """
        if dest == PROC_NULL:
            return Request.null(self.endpoint.env, "send")
        return _proto.isend(
            self.endpoint, buf, count, datatype, self._world_peer(dest), tag,
            self.comm_id, coll_ctx=coll_ctx,
        )

    def Issend(
        self, buf: BufferPtr, count: int, datatype: Datatype, dest: int,
        tag: int = 0,
    ) -> Request:
        """``MPI_Issend``: non-blocking synchronous send."""
        if dest == PROC_NULL:
            return Request.null(self.endpoint.env, "send")
        return _proto.isend(
            self.endpoint, buf, count, datatype, self._world_peer(dest), tag,
            self.comm_id, mode="synchronous",
        )

    def Irecv(
        self,
        buf: BufferPtr,
        count: int,
        datatype: Datatype,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        coll_ctx: Optional[str] = None,
    ) -> Request:
        """``MPI_Irecv`` (``coll_ctx`` as in :meth:`Isend`)."""
        if source == PROC_NULL:
            return Request.null(self.endpoint.env, "recv")
        src = source if source == ANY_SOURCE else self._world_peer(source)
        req = _proto.irecv(
            self.endpoint, buf, count, datatype, src, tag, self.comm_id,
            coll_ctx=coll_ctx,
        )
        req.status_hook = self._status_hook
        return req

    def Send(self, buf: BufferPtr, count: int, datatype: Datatype, dest: int,
             tag: int = 0):
        """``MPI_Send`` (generator)."""
        req = self.Isend(buf, count, datatype, dest, tag)
        yield from req.wait()
        return None

    def Ssend(self, buf: BufferPtr, count: int, datatype: Datatype, dest: int,
              tag: int = 0):
        """``MPI_Ssend`` (generator): completes only once matched."""
        req = self.Issend(buf, count, datatype, dest, tag)
        yield from req.wait()
        return None

    def Recv(
        self,
        buf: BufferPtr,
        count: int,
        datatype: Datatype,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
    ):
        """``MPI_Recv`` (generator); returns the Status."""
        req = self.Irecv(buf, count, datatype, source, tag)
        status = yield from req.wait()
        return status

    def Iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Optional[Status]:
        """``MPI_Iprobe``: non-blocking envelope peek; Status or None."""
        src = source if source == ANY_SOURCE else self._world_peer(source)
        status = _proto.iprobe(self.endpoint, src, tag, self.comm_id)
        return self._status_hook(status) if status is not None else None

    def Probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """``MPI_Probe`` (generator): wait for a matching envelope."""
        src = source if source == ANY_SOURCE else self._world_peer(source)
        status = yield from _proto.probe(self.endpoint, src, tag, self.comm_id)
        return self._status_hook(status)

    def Sendrecv(
        self,
        sendbuf: BufferPtr,
        sendcount: int,
        sendtype: Datatype,
        dest: int,
        recvbuf: BufferPtr,
        recvcount: int,
        recvtype: Datatype,
        source: int,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
    ):
        """``MPI_Sendrecv`` (generator); returns the receive Status."""
        rreq = self.Irecv(recvbuf, recvcount, recvtype, source, recvtag)
        sreq = self.Isend(sendbuf, sendcount, sendtype, dest, sendtag)
        yield from wait_all([sreq, rreq])
        return rreq.status

    def Sendrecv_replace(
        self,
        buf: BufferPtr,
        count: int,
        datatype: Datatype,
        dest: int,
        source: int,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
    ):
        """``MPI_Sendrecv_replace`` (generator): same buffer both ways.

        Stages the outgoing data through an internal host buffer (host
        buffers only; device users stage explicitly or use Sendrecv).
        """
        if buf.space != "host":
            raise MpiError("Sendrecv_replace requires a host buffer")
        node = self.endpoint.node
        span = max(datatype.span_for_count(count), 1)
        tmp = node.malloc_host(span)
        try:
            yield from self.endpoint.cpu_work(
                span / self.endpoint.cfg.host_memcpy_bandwidth,
                "sendrecv_replace:stage",
            )
            tmp.view()[:span] = buf.view()[:span]
            status = yield from self.Sendrecv(
                tmp, count, datatype, dest, buf, count, datatype, source,
                sendtag, recvtag,
            )
            return status
        finally:
            node.free_host(tmp)

    # -- collectives (all generators) ------------------------------------------------
    def Barrier(self):
        """``MPI_Barrier``."""
        return _coll.barrier(self)

    def Bcast(self, buf: BufferPtr, count: int, datatype: Datatype, root: int = 0):
        """``MPI_Bcast``."""
        return _coll.bcast(self, buf, count, datatype, root)

    def Reduce(
        self,
        sendbuf: BufferPtr,
        recvbuf: Optional[BufferPtr],
        count: int,
        datatype: Datatype,
        op: str = "sum",
        root: int = 0,
    ):
        """``MPI_Reduce`` (host buffers)."""
        return _coll.reduce(self, sendbuf, recvbuf, count, datatype, op, root)

    def Allreduce(
        self,
        sendbuf: BufferPtr,
        recvbuf: BufferPtr,
        count: int,
        datatype: Datatype,
        op: str = "sum",
    ):
        """``MPI_Allreduce`` (host buffers)."""
        return _coll.allreduce(self, sendbuf, recvbuf, count, datatype, op)

    def Allgather(
        self,
        sendbuf: BufferPtr,
        recvbuf: BufferPtr,
        count: int,
        datatype: Datatype,
    ):
        """``MPI_Allgather``."""
        return _coll.allgather(self, sendbuf, recvbuf, count, datatype)

    def Gather(
        self,
        sendbuf: BufferPtr,
        recvbuf: Optional[BufferPtr],
        count: int,
        datatype: Datatype,
        root: int = 0,
    ):
        """``MPI_Gather``."""
        return _coll.gather(self, sendbuf, recvbuf, count, datatype, root)

    def Scatter(
        self,
        sendbuf: Optional[BufferPtr],
        recvbuf: BufferPtr,
        count: int,
        datatype: Datatype,
        root: int = 0,
    ):
        """``MPI_Scatter``."""
        return _coll.scatter(self, sendbuf, recvbuf, count, datatype, root)

    def Alltoall(
        self,
        sendbuf: BufferPtr,
        recvbuf: BufferPtr,
        count: int,
        datatype: Datatype,
    ):
        """``MPI_Alltoall``."""
        return _coll.alltoall(self, sendbuf, recvbuf, count, datatype)

    def Alltoallv(
        self,
        sendbuf: BufferPtr,
        sendcounts: Sequence[int],
        sdispls: Sequence[int],
        sendtypes,
        recvbuf: BufferPtr,
        recvcounts: Sequence[int],
        rdispls: Sequence[int],
        recvtypes,
    ):
        """``MPI_Alltoallv`` (byte displacements, ``Alltoallw`` types).

        ``sendtypes``/``recvtypes`` may be one :class:`Datatype` for all
        peers or a per-peer sequence; displacements are in bytes, so the
        single-type form is exactly ``MPI_Alltoallw``'s convention (which
        byte-displacement ``Alltoallv`` degenerates to). Each peer block
        rides its own pipelined point-to-point flow with the collective's
        fan-out tuning context.
        """
        return _coll.alltoallv(
            self, sendbuf, sendcounts, sdispls, sendtypes,
            recvbuf, recvcounts, rdispls, recvtypes,
        )

    def Allgatherv(
        self,
        sendbuf: BufferPtr,
        sendcount: int,
        sendtype: Datatype,
        recvbuf: BufferPtr,
        recvcounts: Sequence[int],
        rdispls: Sequence[int],
        recvtypes,
    ):
        """``MPI_Allgatherv`` (byte displacements, scalar or per-rank types)."""
        return _coll.allgatherv(
            self, sendbuf, sendcount, sendtype,
            recvbuf, recvcounts, rdispls, recvtypes,
        )

    # -- explicit pack/unpack --------------------------------------------------------
    def Pack_size(self, count: int, datatype: Datatype) -> int:
        """``MPI_Pack_size``: bytes needed to pack ``count`` elements."""
        datatype.require_committed()
        return datatype.size * count

    def Pack(
        self,
        inbuf: BufferPtr,
        count: int,
        datatype: Datatype,
        outbuf: BufferPtr,
        position: int = 0,
    ):
        """``MPI_Pack`` (generator): returns the new position.

        Host buffers are packed by the CPU (charged); device buffers by the
        GPU through the offload primitive of :mod:`repro.core`.
        """
        from .pack import host_pack_time, pack_bytes

        datatype.require_committed()
        nbytes = datatype.size * count
        if position + nbytes > outbuf.nbytes:
            raise MpiError(
                f"pack overflows outbuf: position {position} + {nbytes} > "
                f"{outbuf.nbytes}"
            )
        if inbuf.space == "device":
            from ..core.gpu_pack import gpu_pack_cost

            segs = datatype.segments_for_count(count)
            cost = gpu_pack_cost(self.endpoint.cuda.cfg, segs)
            done = self.endpoint.cuda.default_stream.enqueue(
                self.endpoint.cuda.gpu.exec_engine, cost,
                (lambda: outbuf.view()[position : position + nbytes]
                 .__setitem__(slice(None), pack_bytes(inbuf, datatype, count)))
                if self.endpoint.env.functional else None,
                label="mpi-pack",
            )
            yield done
        else:
            yield from self.endpoint.cpu_work(
                host_pack_time(self.endpoint.cfg, datatype, count), "mpi-pack"
            )
            if self.endpoint.env.functional:
                outbuf.view()[position : position + nbytes] = pack_bytes(
                    inbuf, datatype, count
                )
        return position + nbytes

    def Unpack(
        self,
        inbuf: BufferPtr,
        position: int,
        outbuf: BufferPtr,
        count: int,
        datatype: Datatype,
    ):
        """``MPI_Unpack`` (generator): returns the new position."""
        from .pack import host_pack_time, unpack_from

        datatype.require_committed()
        nbytes = datatype.size * count
        if position + nbytes > inbuf.nbytes:
            raise MpiError(
                f"unpack overruns inbuf: position {position} + {nbytes} > "
                f"{inbuf.nbytes}"
            )
        if outbuf.space == "device":
            from ..core.gpu_pack import gpu_pack_cost

            segs = datatype.segments_for_count(count)
            cost = gpu_pack_cost(self.endpoint.cuda.cfg, segs)
            done = self.endpoint.cuda.default_stream.enqueue(
                self.endpoint.cuda.gpu.exec_engine, cost,
                (lambda: unpack_from(
                    inbuf.sub(position, nbytes), datatype, count, outbuf
                )) if self.endpoint.env.functional else None,
                label="mpi-unpack",
            )
            yield done
        else:
            yield from self.endpoint.cpu_work(
                host_pack_time(self.endpoint.cfg, datatype, count), "mpi-unpack"
            )
            if self.endpoint.env.functional:
                unpack_from(inbuf.sub(position, nbytes), datatype, count, outbuf)
        return position + nbytes

    # -- communicator management ---------------------------------------------------
    def _next_context(self, *parts) -> Tuple:
        self._epoch += 1
        return (self.comm_id, self._epoch) + parts

    def Dup(self) -> "Comm":
        """``MPI_Comm_dup``: same group, fresh context id.

        Purely local here (context ids are derived deterministically), but
        every member must call it, like the real collective.
        """
        ctx = self._next_context("dup")
        return Comm(self.world, self.endpoint, ctx, self.members)

    def Split(self, color: int, key: int = 0):
        """``MPI_Comm_split`` (generator): returns the new Comm or None.

        Collective over this communicator: gathers every member's
        ``(color, key)`` and forms one new communicator per color, ranked
        by ``(key, old rank)``. Ranks passing ``UNDEFINED`` get None.
        """
        ctx_epoch = self._next_context()  # reserve the epoch identically
        entries = yield from _coll.allgather_obj(self, (color, key, self.rank))
        if color == UNDEFINED:
            return None
        group = sorted(
            (k, r) for c, k, r in entries if c == color
        )
        members = [self.members[r] for _, r in group]
        ctx = ctx_epoch + ("split", color)
        return Comm(self.world, self.endpoint, ctx, members)

    # -- topology ------------------------------------------------------------------
    def Cart_create(
        self,
        dims: Sequence[int],
        periods: Optional[Sequence[bool]] = None,
        reorder: bool = False,
    ) -> Optional["CartComm"]:
        """``MPI_Cart_create``: a Cartesian view of the first prod(dims)
        ranks; others get None. Purely local (no reordering)."""
        total = 1
        for d in dims:
            if d < 1:
                raise MpiError(f"invalid cartesian dimension {d}")
            total *= d
        if total > self.size:
            raise MpiError(
                f"cartesian grid of {total} ranks exceeds communicator size "
                f"{self.size}"
            )
        ctx = self._next_context("cart", tuple(dims))
        if self.rank >= total:
            return None
        return CartComm(
            self.world, self.endpoint, ctx, self.members[:total],
            dims=tuple(dims),
            periods=tuple(bool(p) for p in (periods or [False] * len(dims))),
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Comm id={self.comm_id} rank={self.rank}/{self.size}>"


class CartComm(Comm):
    """A communicator with a Cartesian process topology."""

    def __init__(self, world, endpoint, comm_id, members, dims, periods):
        super().__init__(world, endpoint, comm_id, members)
        if len(dims) != len(periods):
            raise MpiError("dims and periods length mismatch")
        self.dims: Tuple[int, ...] = tuple(dims)
        self.periods: Tuple[bool, ...] = tuple(periods)

    @property
    def ndims(self) -> int:
        return len(self.dims)

    def Cart_coords(self, rank: Optional[int] = None) -> Tuple[int, ...]:
        """``MPI_Cart_coords`` (row-major, like MPICH)."""
        r = self.rank if rank is None else rank
        if not (0 <= r < self.size):
            raise MpiError(f"rank {r} outside cartesian communicator")
        coords = []
        for extent in reversed(self.dims):
            coords.append(r % extent)
            r //= extent
        return tuple(reversed(coords))

    def Cart_rank(self, coords: Sequence[int]) -> int:
        """``MPI_Cart_rank``: coords -> rank (periodic wrapping applied)."""
        if len(coords) != self.ndims:
            raise MpiError("coordinate dimensionality mismatch")
        rank = 0
        for c, extent, periodic in zip(coords, self.dims, self.periods):
            if periodic:
                c %= extent
            elif not (0 <= c < extent):
                raise MpiError(
                    f"coordinate {c} out of range for non-periodic extent "
                    f"{extent}"
                )
            rank = rank * extent + c
        return rank

    def Cart_shift(self, direction: int, disp: int = 1) -> Tuple[int, int]:
        """``MPI_Cart_shift``: (source, dest) ranks, PROC_NULL at edges."""
        if not (0 <= direction < self.ndims):
            raise MpiError(f"invalid shift direction {direction}")
        coords = list(self.Cart_coords())

        def neighbour(offset):
            c = list(coords)
            c[direction] += offset
            extent = self.dims[direction]
            if self.periods[direction]:
                c[direction] %= extent
            elif not (0 <= c[direction] < extent):
                return PROC_NULL
            return self.Cart_rank(c)

        return neighbour(-disp), neighbour(disp)

    def Neighbor_alltoallv(
        self,
        sendbuf: BufferPtr,
        sendcounts: Sequence[int],
        sdispls: Sequence[int],
        sendtypes,
        recvbuf: BufferPtr,
        recvcounts: Sequence[int],
        rdispls: Sequence[int],
        recvtypes,
    ):
        """``MPI_Neighbor_alltoallv`` on the Cartesian topology.

        ``2 * ndims`` slots ordered (negative, positive) per dimension;
        ``MPI_PROC_NULL`` slots at non-periodic edges exchange nothing
        but keep their positions. Byte displacements, scalar or per-slot
        datatypes (the ``Neighbor_alltoallw`` convention).
        """
        return _coll.neighbor_alltoallv(
            self, sendbuf, sendcounts, sdispls, sendtypes,
            recvbuf, recvcounts, rdispls, recvtypes,
        )

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<CartComm dims={self.dims} periods={self.periods} "
            f"rank={self.rank}/{self.size}>"
        )
