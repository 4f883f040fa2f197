"""Sharded parallel execution of an MPI world under conservative sync.

The sequential simulator processes one global event queue. This module
partitions a :class:`~repro.hw.cluster.Cluster`'s nodes across forked
worker processes, each running its *own* :class:`Environment` over the
events of its nodes, and synchronizes them with a conservative
Chandy--Misra--Bryant-style protocol whose lookahead is the minimum
cross-shard fabric latency (``Fabric.shard_lookahead``; the base
``net_latency`` on a uniform fabric, wider when a topology makes every
cross-shard pair inter-leaf).

Protocol
--------
A coordinator (the parent process) runs the simulation in *rounds*. Each
round it folds every shard's earliest pending event time with the
arrival times of the cross-shard messages queued for that shard
(``eff``), applies the grant map once (:func:`window_bounds`)::

    bound_i = min(min(eff_j for j != i) + L,  eff_i + 2 * L)   [cap: horizon]

and sends every worker its bound together with its queued messages. A
worker injects the messages, runs one window (every event strictly
before its bound) and replies with its next event time and every
cross-shard message the window emitted; those ride into the next round's
grants.

Safety: a message peer *j* emits at ``t >= eff_j`` arrives at
``t + L >= bound_i``, so nothing lands in a window that already ran. The
``+ 2L`` term covers feedback: a reaction to something shard *i* emits
inside its own window needs two wire hops to come back. Progress: the
shard holding the smallest ``eff`` always gets a bound beyond it, so
every round below the horizon processes at least one event or delivery.

Cross-shard traffic is cut at **send time**: the verbs layer
(:mod:`repro.ib.verbs`) computes each operation's remote arrival timestamp
in the sender's timeline and hands it to the :class:`ShardBridge` instead
of touching the peer node's replica objects. Messages reach the owning
shard with the next grant and are queued as wire deliveries at the
precomputed arrival time -- by the safety argument above, never in the
receiver's past.

RDMA-write payload bytes travel through per-shard
``multiprocessing.shared_memory`` staging arenas (two halves, used in
round parity: a half filled in round *n* is recycled in round *n + 2*,
after every message staged in it was copied out by its receiver at the
round *n + 1* grant); oversized payloads fall back to inline pickling.

Determinism
-----------
Every cross-shard record carries the *wire key* its sender's HCA computed
-- ``(source node, per-source emission sequence)``, the same key the
sequential run uses for the delivery (see ``WIRE_KEY_BASE`` in
:mod:`repro.sim.core`). Workers inject granted messages through
:meth:`Environment.schedule_wire` under that key, so the receiving shard
processes them at exactly the queue position the sequential run would
have: after every locally-created event of the arrival instant, ordered
among deliveries by ``(src node, seq)``. Because the key is a pure
function of sender-local state, the whole run is partition-invariant: the
merged trace (``Tracer.merge_from``), per-rank results and final clock
are bit-identical to the sequential run for *any* shard map -- the
property the trace-equality tests in ``tests/sim/test_shard.py`` pin
down.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import traceback
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..perf.stats import PERF
from .core import Environment
from .events import SimulationError
from .process import CallbackOp

__all__ = ["ShardView", "ShardBridge", "run_sharded_world", "window_bounds"]

#: Size of each shard's shared-memory payload staging segment (two halves).
_SEG_BYTES = 8 << 20

_INF = float("inf")

_PICKLE = pickle.HIGHEST_PROTOCOL


def window_bounds(eff: List[float], lookahead: float,
                  horizon: float) -> List[float]:
    """Every shard's exclusive window bound for one round (the grant map).

    ``eff[i]`` is the earliest time anything can happen on shard ``i``
    (its next event or queued cross-shard arrival); ``lookahead`` is the
    minimum cross-shard wire latency ``L > 0``.
    """
    bounds = []
    for i, own in enumerate(eff):
        peers = min((e for j, e in enumerate(eff) if j != i), default=_INF)
        bounds.append(min(peers + lookahead, own + 2 * lookahead, horizon))
    return bounds


class ShardView:
    """Which nodes this worker owns inside the global partition."""

    __slots__ = ("index", "count", "node_to_shard")

    def __init__(self, index: int, count: int, node_to_shard: Tuple[int, ...]):
        self.index = index
        self.count = count
        self.node_to_shard = node_to_shard

    def owns_node(self, node_id: int) -> bool:
        return self.node_to_shard[node_id] == self.index

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ShardView {self.index}/{self.count}>"


def _open_shm(name: str):
    """Attach an existing shared-memory segment without tracker ownership."""
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - pre-3.13 fallback
        return shared_memory.SharedMemory(name=name)


class ShardBridge:
    """The worker-side endpoint of the cross-shard channel.

    The verbs layer calls :meth:`send_ctl` / :meth:`send_rdma` when an
    operation's destination node is not local; the worker main loop
    drains :meth:`take_outbox` after every window (the records ride the
    reply to the coordinator) and feeds inbound messages through
    :meth:`deliver`.
    """

    def __init__(self, view: ShardView, shm_names: List[str]):
        from ..hw.memory import Arena

        self.view = view
        self.outbox: List[tuple] = []
        self.fabric = None
        self.env: Optional[Environment] = None
        self._shms = [_open_shm(name) for name in shm_names]
        self._seg_views = [
            np.frombuffer(shm.buf, dtype=np.uint8) for shm in self._shms
        ]
        seg = len(self._seg_views[view.index])
        self._half = seg // 2
        own = self._seg_views[view.index]
        self._stage_arenas = [
            Arena(
                self._half, "host", name=f"shard{view.index}.stage{p}",
                backing=own[p * self._half : (p + 1) * self._half],
            )
            for p in (0, 1)
        ]
        self._parity = 0

    # -- lifecycle ----------------------------------------------------------
    def bind(self, fabric) -> None:
        """Called by ``Fabric.attach_shard``: adopt the fabric's environment."""
        self.fabric = fabric
        self.env = fabric.env

    def close(self) -> None:
        # Drop every view into the segments first: mmaps cannot close while
        # exported numpy buffers are alive.
        self._stage_arenas = []
        self._seg_views = []
        for shm in self._shms:
            try:
                shm.close()
            except BufferError:  # pragma: no cover - stray exported view
                pass

    def begin_window(self, parity: int) -> None:
        """Recycle the staging half of ``parity`` for this round's sends.

        Safe because a half filled in round *n* is only reused in round
        *n + 2*, and every message staged in *n* was routed with, and
        copied out by its receiver at, the round *n + 1* grant.
        """
        self._parity = parity
        self._stage_arenas[parity].release_all()

    # -- payload staging -----------------------------------------------------
    def _stage(self, data: np.ndarray) -> tuple:
        from ..hw.memory import OutOfMemoryError

        n = data.nbytes
        if n:
            arena = self._stage_arenas[self._parity]
            try:
                ptr = arena.alloc(n)
            except OutOfMemoryError:
                ptr = None
            if ptr is not None:
                ptr.view()[:] = data
                PERF.bump("shard_payload_shm_bytes", n)
                return ("s", self.view.index, self._parity * self._half + ptr.offset, n)
        PERF.bump("shard_payload_inline_bytes", n)
        return ("i", data)

    def _fetch(self, ref: tuple) -> np.ndarray:
        if ref[0] == "i":
            return ref[1]
        _, shard, offset, n = ref
        return self._seg_views[shard][offset : offset + n].copy()

    # -- sender side (called from repro.ib.verbs) ---------------------------
    # Record layout, shared by every kind:
    #   (kind, arrival, wire_key, dst_shard, *body)
    # ``wire_key`` is the sender HCA's key for this delivery -- carrying it
    # across lets the receiving shard inject at the exact queue position
    # the sequential run would use (see module docstring).

    def send_ctl(self, src_node: int, dst_node: int, payload: Any,
                 arrival: float, key: int) -> None:
        """Queue a control-message delivery into ``dst_node``'s inbox."""
        PERF.bump("shard_xmsg_ctl")
        self.outbox.append((
            "ctl", arrival, key, self.view.node_to_shard[dst_node],
            src_node, dst_node, payload,
        ))

    def send_rdma(self, dst_node: int, offset: int, data: np.ndarray,
                  arrival: float, key: int) -> None:
        """Queue an RDMA-write payload landing in ``dst_node``'s memory."""
        PERF.bump("shard_xmsg_rdma")
        self.outbox.append((
            "rdma", arrival, key, self.view.node_to_shard[dst_node],
            dst_node, offset, self._stage(data),
        ))

    def take_outbox(self) -> List[tuple]:
        out, self.outbox = self.outbox, []
        return out

    # -- receiver side -------------------------------------------------------
    def deliver(self, msgs: List[tuple]) -> None:
        """Queue granted messages as wire deliveries at their arrivals.

        Payload references are materialized *now* (delivery receipt),
        because the sender recycles its staging half two rounds later
        while a far-future arrival may still be queued here. Each record
        becomes a :class:`_Delivery` queued through
        :meth:`Environment.schedule_wire` under the sender's original wire
        key, landing at exactly the sequential run's queue position.
        """
        from ..ib.verbs import ControlMessage

        env = self.env
        for m in msgs:
            kind, arrival, key = m[0], m[1], m[2]
            if kind == "ctl":
                src_node, dst_node, payload = m[4], m[5], m[6]
                entry = _Delivery(
                    _Delivery._deposit, self.fabric.hcas[dst_node].inbox,
                    ControlMessage(src_node, dst_node, payload),
                )
            elif kind == "rdma":
                entry = _Delivery(
                    _Delivery._land, self.fabric.nodes[m[4]].memory,
                    (m[5], self._fetch(m[6])),
                )
            else:  # pragma: no cover - protocol error
                raise SimulationError(f"unknown cross-shard message {kind!r}")
            env.schedule_wire(arrival, key, entry)


class _Delivery(CallbackOp):
    """One granted cross-shard record, queued under its wire key: a
    control message for an HCA inbox, or an ``(offset, bytes)`` RDMA
    payload for a node's host memory."""

    __slots__ = ("target", "body")

    def __init__(self, step, target, body):
        self._step = step
        self.target = target
        self.body = body

    def _deposit(self) -> None:
        self.target.put(self.body)

    def _land(self) -> None:
        offset, data = self.body
        self.target.raw[offset : offset + data.nbytes] = data


# ---------------------------------------------------------------------------
# Result shipping: rank programs may return BufferPtr handles (the fault
# matrix returns its receive buffer for verification). Pickling one naively
# would serialize the entire backing arena, so buffers are re-rooted onto
# fresh minimal arenas carrying just their bytes.
# ---------------------------------------------------------------------------

class _ShippedBuffer:
    __slots__ = ("space", "data")

    def __init__(self, space: str, data: np.ndarray):
        self.space = space
        self.data = data


def _ship(value: Any) -> Any:
    from ..hw.memory import BufferPtr

    if isinstance(value, BufferPtr):
        return _ShippedBuffer(value.space, value.view().copy())
    if isinstance(value, tuple):
        return tuple(_ship(v) for v in value)
    if isinstance(value, list):
        return [_ship(v) for v in value]
    if isinstance(value, dict):
        return {k: _ship(v) for k, v in value.items()}
    return value


def _unship(value: Any) -> Any:
    from ..hw.memory import Arena, BufferPtr

    if isinstance(value, _ShippedBuffer):
        nbytes = value.data.nbytes
        arena = Arena(max(nbytes, 1), value.space, name="shipped")
        arena.raw[:nbytes] = value.data
        return BufferPtr(arena, 0, nbytes)
    if isinstance(value, tuple):
        return tuple(_unship(v) for v in value)
    if isinstance(value, list):
        return [_unship(v) for v in value]
    if isinstance(value, dict):
        return {k: _unship(v) for k, v in value.items()}
    return value


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------

def _pickle_or_none(exc: BaseException) -> Optional[bytes]:
    try:
        blob = pickle.dumps(exc)
        pickle.loads(blob)
        return blob
    except Exception:
        return None


def _worker_main(index, world, shard_map, shm_names, program, args,
                 cmd, rsp):
    """Entry point of one shard worker.

    Workers are forked *after* the parent constructs the world, so the
    fully-built cluster arrives by copy-on-write inheritance -- no
    per-worker rebuild (which used to dominate wall-clock at small scales
    and would be prohibitive for 1024-rank worlds). The inherited state is
    bit-identical to what a rebuild from the same specs would produce: the
    parent has not run a single event when it forks.
    """
    bridge = None
    try:
        PERF.reset()
        view = ShardView(index, max(shard_map) + 1, tuple(shard_map))
        bridge = ShardBridge(view, shm_names)
        cluster = world.cluster
        cluster.fabric.attach_shard(view, bridge)
        env = cluster.env

        # Every worker holds the full world (endpoints for remote ranks
        # are inert replicas: their progress engines block forever on
        # inboxes the bridge never feeds), but only local ranks run.
        local = [
            ctx for ctx in world.contexts if view.owns_node(ctx.node.node_id)
        ]
        procs = {
            ctx.rank: env.process(program(ctx, *args), name=f"rank{ctx.rank}")
            for ctx in local
        }
        done = env.all_of(list(procs.values()), label="shard-finished") \
            if procs else None
        state = {"done_time": None}
        if done is not None:
            done.callbacks.append(
                lambda _ev: state.__setitem__("done_time", env.now)
            )

        total_events = 0
        rsp.send(("ready", index, env.peek()))
        while True:
            msg = cmd.recv()
            op = msg[0]
            if op == "window":
                _, parity, bound, incoming = msg
                bridge.begin_window(parity)
                if incoming:
                    bridge.deliver(incoming)
                total_events += env.run_window(bound)
            elif op == "until":
                # Anything emitted here happens at t >= horizon and would
                # arrive strictly after it: the sequential run would leave
                # the delivery unprocessed too. The coordinator only checks
                # whether the outbox is non-empty (to mirror the sequential
                # "events remain, clock pins to the horizon" semantics) and
                # never routes it.
                _, horizon, incoming = msg
                if incoming:
                    bridge.deliver(incoming)
                if horizon >= env.now:
                    env.run(until=horizon)
            elif op == "finish":
                results = {
                    rank: _ship(proc.value)
                    for rank, proc in procs.items() if proc.processed
                }
                rsp.send(("result", index, {
                    "results": results,
                    "intervals": cluster.tracer.intervals,
                    "faults": cluster.tracer.faults,
                    "perf": PERF.snapshot(),
                    "events": total_events,
                    "done_ok": done is None or done.processed,
                    "done_time": state["done_time"],
                    "now": env.now,
                    "last_event": env.last_event_time,
                }))
                return
            else:  # pragma: no cover - protocol error
                raise SimulationError(f"unknown shard command {op!r}")
            if done is not None and done.triggered and not done.ok:
                done.defuse()
                raise done.value
            rsp.send((
                "ran", index, env.peek(), bridge.take_outbox(),
                done is None or done.processed, state["done_time"],
            ))
    except BaseException as exc:  # pragma: no cover - exercised via pipes
        try:
            rsp.send(("fatal", index, _pickle_or_none(exc),
                      traceback.format_exc()))
        except Exception:
            pass
    finally:
        if bridge is not None:
            bridge.close()


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------

class _TraceSource:
    __slots__ = ("intervals", "faults")

    def __init__(self, intervals, faults):
        self.intervals = intervals
        self.faults = faults


class _Coordinator:
    """Round loop over the shard workers: one pipe pair per worker, one
    granted window per worker per round."""

    def __init__(self, lookahead: float, cmds, rsps):
        self.shards = len(cmds)
        self.lookahead = lookahead
        self.cmds = cmds
        self.rsps = rsps
        self.next_time = [0.0] * self.shards
        self.pending: List[List[tuple]] = [[] for _ in range(self.shards)]
        self.done_flags = [False] * self.shards
        self.done_times: List[Optional[float]] = [None] * self.shards
        self.rounds = 0
        self.null_grants = 0
        self.batch_msgs = 0
        self.pipe_msgs = 0
        self.sent_bytes = 0
        # Set by run_until(): True when wire messages scheduled past the
        # horizon were dropped (the sequential run would leave their
        # delivery events sitting in the queue, keeping now == horizon).
        self.leftover = False

    def _recv(self, i: int) -> tuple:
        try:
            reply = self.rsps[i].recv()
        except EOFError:
            raise RuntimeError(
                f"shard worker {i} died without reporting an error"
            ) from None
        self.pipe_msgs += 1
        if reply[0] == "fatal":
            _, _, blob, tb = reply
            exc = pickle.loads(blob) if blob is not None else None
            if exc is None:
                exc = RuntimeError(f"shard worker {i} failed:\n{tb}")
            raise exc
        return reply

    def _dispatch(self, msgs: List[tuple]) -> List[tuple]:
        """Send every grant, then collect every reply (no circular wait:
        a worker reads its whole grant before it runs and replies)."""
        for conn, m in zip(self.cmds, msgs):
            blob = pickle.dumps(m, protocol=_PICKLE)
            conn.send_bytes(blob)
            self.pipe_msgs += 1
            self.sent_bytes += len(blob)
        return [self._recv(i) for i in range(self.shards)]

    def _absorb(self, replies: List[tuple]) -> List[List[tuple]]:
        """Record each shard's state from its reply; return the outboxes."""
        outboxes = []
        for i, reply in enumerate(replies):
            (_, _, self.next_time[i], outbox, self.done_flags[i],
             self.done_times[i]) = reply
            outboxes.append(outbox)
        return outboxes

    def handshake(self) -> None:
        for i in range(self.shards):
            reply = self._recv(i)
            assert reply[0] == "ready"
            self.next_time[i] = reply[2]

    def _take(self, i: int) -> List[tuple]:
        """Shard ``i``'s queued messages in arrival order, dequeued."""
        batch = sorted(self.pending[i], key=lambda m: (m[1], m[2]))
        self.pending[i] = []
        return batch

    def effective_times(self) -> List[float]:
        return [
            min(
                self.next_time[i],
                min((m[1] for m in self.pending[i]), default=_INF),
            )
            for i in range(self.shards)
        ]

    def round(self, horizon: Optional[float]) -> None:
        """Grant every shard one window with its pending batch."""
        bounds = window_bounds(
            self.effective_times(), self.lookahead,
            _INF if horizon is None else horizon,
        )
        parity = self.rounds % 2
        msgs = []
        incoming = 0
        for i in range(self.shards):
            batch = self._take(i)
            incoming += len(batch)
            msgs.append(("window", parity, bounds[i], batch))
        outboxes = self._absorb(self._dispatch(msgs))
        for outbox in outboxes:
            for m in outbox:
                self.pending[m[3]].append(m)
        self.rounds += 1
        self.batch_msgs += incoming
        if not incoming and not any(outboxes):
            self.null_grants += 1

    def run_until(self, horizon: float) -> None:
        """Rounds up to ``horizon``, then one inclusive final phase.

        Mirrors the sequential ``run(until=horizon)``: events strictly
        below the horizon are processed in granted windows; the final
        phase injects the leftover messages arriving exactly *at* the
        horizon (later arrivals are dropped, exactly as the sequential run
        leaves their delivery events unprocessed) and runs each shard
        inclusively to the horizon.
        """
        while min(self.effective_times()) < horizon:
            self.round(horizon)
        leftover = False
        msgs = []
        for i in range(self.shards):
            batch = self._take(i)
            kept = [m for m in batch if m[1] <= horizon]
            leftover |= len(kept) != len(batch)
            msgs.append(("until", horizon, kept))
        outboxes = self._absorb(self._dispatch(msgs))
        self.leftover = leftover or any(outboxes)

    def run_to_completion(self) -> float:
        """Rounds until every shard's rank programs finished.

        Returns the global finish time (max over shards' local finishes)
        and drains any in-flight messages arriving at or before it -- the
        sequential run processes those deliveries too, since it only stops
        once the last rank's completion event fires.
        """
        while not all(self.done_flags):
            if min(self.effective_times()) == _INF:
                raise SimulationError(
                    "sharded run exhausted every schedule before the rank "
                    "programs finished (deadlock?)"
                )
            self.round(None)
        finished = [t for t in self.done_times if t is not None]
        horizon = max(finished) if finished else 0.0
        if any(m[1] <= horizon for queued in self.pending for m in queued):
            self.run_until(horizon)
        return horizon

    def finish(self) -> List[dict]:
        replies = self._dispatch([("finish",)] * self.shards)
        assert all(reply[0] == "result" for reply in replies)
        return [reply[2] for reply in replies]


def run_sharded_world(world, program, args, until: Optional[float] = None):
    """Run ``world`` sharded; merge results, traces, clock and counters.

    Called by :meth:`repro.mpi.world.MpiWorld.run` when the underlying
    cluster was built with ``shards > 1``. Returns the per-rank result
    list, bit-identical (results, merged trace, final clock, raised
    errors) to what the sequential path would produce.
    """
    from multiprocessing import shared_memory

    cluster = world.cluster
    shards = cluster.shards
    shard_map = cluster.shard_map
    lookahead = cluster.fabric.shard_lookahead(shard_map)
    ctx = mp.get_context("fork")

    shms = [
        shared_memory.SharedMemory(create=True, size=_SEG_BYTES)
        for _ in range(shards)
    ]
    shm_names = [s.name for s in shms]
    cmds: List[Any] = []
    rsps: List[Any] = []
    procs: List[Any] = []
    try:
        for i in range(shards):
            cmd_r, cmd_w = ctx.Pipe(duplex=False)
            rsp_r, rsp_w = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_worker_main,
                args=(i, world, shard_map, shm_names, program, args,
                      cmd_r, rsp_w),
                name=f"repro-shard-{i}",
                daemon=True,
            )
            proc.start()
            cmd_r.close()
            rsp_w.close()
            cmds.append(cmd_w)
            rsps.append(rsp_r)
            procs.append(proc)

        coord = _Coordinator(lookahead, cmds, rsps)
        coord.handshake()
        if until is not None:
            coord.run_until(float(until))
            payloads = coord.finish()
            if coord.leftover or any(t != _INF for t in coord.next_time):
                final_now = float(until)
            else:
                # Every schedule drained before the horizon with nothing in
                # flight: the sequential run(until=...) leaves the clock at
                # the last processed event, not the horizon.
                final_now = max(p["last_event"] for p in payloads)
        else:
            final_now = coord.run_to_completion()
            payloads = coord.finish()
        results = _merge(world, cluster, coord, payloads, final_now)
        if until is not None and not all(p["done_ok"] for p in payloads):
            from ..mpi.status import MpiError

            raise MpiError(
                f"rank programs not finished after {until} simulated "
                "seconds (deadlock?)"
            )
        return results
    finally:
        for conn in cmds + rsps:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        for proc in procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=5)
        for shm in shms:
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass


def _merge(world, cluster, coord: _Coordinator, payloads: List[dict],
           final_now: float):
    # Merge traces in shard order, then canonical (time-keyed) sort.
    cluster.tracer.merge_from(
        _TraceSource(p["intervals"], p["faults"]) for p in payloads
    )
    # Fold worker counters deterministically by (shard index, counter
    # name), never by pipe-arrival or dict-iteration order: the merged
    # ``[faults:]``/``[tune:]`` footers must be byte-identical for every
    # shard partitioning of the same run (a regression test pins this).
    for shard in range(len(payloads)):
        snap = payloads[shard]["perf"]
        PERF.merge({name: snap[name] for name in sorted(snap)})
        PERF.bump(f"shard{shard}_events", payloads[shard]["events"])
    PERF.bump("shard_rounds", coord.rounds)
    PERF.bump("shard_null_grants", coord.null_grants)
    PERF.bump("shard_windows", coord.rounds)
    PERF.bump("shard_pipe_msgs", coord.pipe_msgs)
    PERF.bump("shard_batch_msgs", coord.batch_msgs)
    PERF.bump("shard_batch_bytes", coord.sent_bytes)

    # The parent environment never ran: clear the replica bootstrap events
    # it accumulated at construction and pin its clock to the merged final
    # simulated time, so callers reading ``env.now`` (and gantt renderers)
    # see exactly what the sequential run reports.
    env = cluster.env
    env._clear_schedule()
    if final_now > env.now:
        env._now = final_now

    results: Dict[int, Any] = {}
    for p in payloads:
        for rank, value in p["results"].items():
            results[rank] = _unship(value)
    return [results.get(rank) for rank in range(world.size)]
