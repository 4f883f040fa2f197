"""The simulation environment: clock, scheduler and run loop."""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Iterable, List, Optional, Tuple

from ..perf.stats import PERF
from .events import PROCESSED, TRIGGERED, AllOf, AnyOf, Event, SimulationError, Timeout
from .process import CallbackOp, Process, ProcessGenerator

__all__ = ["Environment", "EmptySchedule", "WIRE_KEY_BASE", "wire_key"]

#: Heap keys at or above this value mark *wire deliveries*: the
#: remote-side effects of cross-node fabric traffic (control-message inbox
#: deposits and RDMA payload landings). They share the event queue with
#: ordinary entries but use a key derived from the *sending node* --
#: ``(src_node, per-source sequence)`` -- instead of the global creation
#: counter. Two consequences, both deliberate:
#:
#: * at any instant, every locally-created event (keys are creation
#:   sequence numbers, far below the base) processes before any wire
#:   delivery at that instant;
#: * same-instant wire deliveries process in ``(src_node, seq)`` order.
#:
#: Both rules are computable from sender-local state alone, which makes
#: the simulation *partition-invariant*: a sharded run (repro.sim.shard)
#: reconstructs the identical key on the receiving shard, so event order
#: -- and therefore every trace and result -- is bit-identical no matter
#: how nodes are partitioned. Ordinary creation counters could never give
#: this: they encode the global interleaving of unrelated nodes' event
#: creations, which depends on the partition.
WIRE_KEY_BASE = 1 << 62

#: Room for 2**40 wire messages per node before keys of adjacent nodes
#: could collide (a multi-year simulation; asserted in wire_key).
_WIRE_KEY_STRIDE = 1 << 40


def wire_key(src_node: int, seq: int) -> int:
    """The queue key of the ``seq``-th wire delivery emitted by ``src_node``."""
    assert 0 <= seq < _WIRE_KEY_STRIDE
    return WIRE_KEY_BASE + src_node * _WIRE_KEY_STRIDE + seq


class EmptySchedule(Exception):
    """Raised internally when the event queue runs dry."""


class Environment:
    """A discrete-event simulation environment.

    Time is a float in **seconds**. Events scheduled at the same instant are
    processed in FIFO order of scheduling (a monotonically increasing
    sequence number breaks heap ties), which makes runs fully deterministic.

    Two queue structures back the schedule, merged by ``(time, seq)`` key:

    * the binary heap holds events scheduled with a positive delay;
    * an O(1) *immediate lane* (a deque) holds zero-delay events -- the
      vast majority (every ``succeed``, op kick and store or resource
      grant).
      Because the clock never moves backwards and the sequence number is
      monotonic, appended entries are already in key order, so the lane
      needs no sifting and the merge is a single head comparison.

    The split is invisible to simulated results: both structures order by
    the same key, so the processed event sequence is identical to a single
    heap's.

    An entry is anything with a ``_process()`` method: an event, or a
    :class:`~repro.sim.process.CallbackOp` queued by :meth:`schedule_op`
    or :meth:`schedule_wire`, or granted a
    :class:`~repro.sim.resources.Resource` or
    :class:`~repro.sim.resources.Store` in place.

    Wire deliveries (:meth:`schedule_wire`) carry keys above
    ``WIRE_KEY_BASE`` instead of a creation sequence number: at any given
    instant they process after every locally-created event, ordered among
    themselves by ``(source node, per-source sequence)``. See the
    ``WIRE_KEY_BASE`` docstring for why that rule makes runs
    partition-invariant.
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        #: Time of the last *processed* event. Differs from ``now`` only
        #: after a run stopped between events (``run(until=time)`` or a
        #: bounded :meth:`run_window`), which artificially advance the
        #: clock. The shard coordinator uses it to reproduce the
        #: sequential "queue drained before the horizon" clock exactly.
        self._last_event = float(initial_time)
        self._queue: List[Tuple[float, int, Any]] = []
        self._imm: "deque[Tuple[float, int, Any]]" = deque()
        self._eid = 0
        #: Free list of recyclable processed Timeouts (see
        #: :class:`repro.sim.events.Timeout`). Pooling changes wall-clock
        #: only, never event order or timestamps.
        self._timeout_pool: List[Timeout] = []
        #: Pool hit/miss tallies batched locally and folded into the global
        #: PERF counters when :meth:`run` exits -- a per-timeout PERF.bump
        #: is measurable at millions of events per second.
        self._pool_hits = 0
        self._pool_misses = 0
        #: When False, bulk data movement (CUDA copy apply functions, RDMA
        #: payload copies) charges simulated time but skips the actual byte
        #: movement. Used for timing-only benchmark runs whose working sets
        #: would otherwise dominate wall time; correctness is covered by
        #: the functional test suite at smaller scales.
        self.functional = True

    # -- clock ----------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def last_event_time(self) -> float:
        """Time of the last processed event (``<= now``; see ``_last_event``)."""
        return self._last_event

    # -- event factories --------------------------------------------------------
    def event(self, label: str = "") -> Event:
        return Event(self, label=label)

    def timeout(self, delay: float, value: Any = None, label: str = "") -> Timeout:
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise ValueError(f"negative timeout delay: {delay!r}")
            t = pool.pop()
            t.callbacks = []
            t._ok = True
            t._value = value
            t._defused = False
            t.label = label
            t.delay = delay
            # Inlined _schedule (hot path; recycled timeouts dominate
            # event creation): same key, same lane split.
            t._state = TRIGGERED
            self._eid += 1
            if delay == 0.0:
                self._imm.append((self._now, self._eid, t))
            else:
                heapq.heappush(self._queue, (self._now + delay, self._eid, t))
            self._pool_hits += 1
            return t
        self._pool_misses += 1
        return Timeout(self, delay, value=value, label=label)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event], label: str = "") -> AllOf:
        return AllOf(self, events, label=label)

    def any_of(self, events: Iterable[Event], label: str = "") -> AnyOf:
        return AnyOf(self, events, label=label)

    # -- scheduling ---------------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        # Equivalent to event._mark_triggered(), inlined: _schedule runs
        # once per event and the method call shows up in profiles.
        event._state = TRIGGERED
        self._eid += 1
        if delay == 0.0:
            self._imm.append((self._now, self._eid, event))
        elif delay > 0:
            heapq.heappush(self._queue, (self._now + delay, self._eid, event))
        else:
            raise SimulationError(f"cannot schedule {event!r} in the past")

    def schedule_op(self, op: "CallbackOp", delay: float = 0.0) -> None:
        """Queue callback op ``op``'s next step ``delay`` from now.

        The op itself is the queue entry: at its time the environment
        runs the step the op stored in ``_step`` (see
        :class:`~repro.sim.process.CallbackOp`). It takes the
        ``(time, seq)`` slot of a timeout created here, so replacing a
        timeout whose only callback was that step leaves every other
        entry's order as it was.
        """
        self._eid += 1
        if delay == 0.0:
            self._imm.append((self._now, self._eid, op))
        elif delay > 0:
            heapq.heappush(self._queue, (self._now + delay, self._eid, op))
        else:
            raise SimulationError(f"cannot schedule {op!r} in the past")

    def schedule_wire(self, when: float, key: int, entry: Any) -> None:
        """Queue ``entry`` for a wire delivery at ``when`` under ``key``.

        ``key`` must come from :func:`wire_key`; see its docstring for the
        ordering contract. ``entry`` is a queue entry (a
        :class:`~repro.sim.process.CallbackOp` whose stored step lands the
        delivery); an op may be queued under several keys. Used by the
        verbs layer for every cross-node delivery and by the shard bridge
        to inject granted cross-shard messages -- both compute the same key
        from the same sender-local counters, which is what makes sharded
        runs bit-identical to sequential ones.
        """
        if when < self._now:
            raise SimulationError(
                f"cannot schedule wire delivery at {when} (now is {self._now})"
            )
        assert key >= WIRE_KEY_BASE, "wire deliveries must use wire_key()"
        heapq.heappush(self._queue, (when, key, entry))

    def _clear_schedule(self) -> None:
        """Drop every scheduled entry (shard merge resets worker queues)."""
        self._queue.clear()
        self._imm.clear()

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when idle.

        After ``run(until=time)`` stops *between* events, the queue keeps
        every not-yet-processed entry: ``peek()`` reports the first event
        beyond the stop time (always ``>= now``), and a subsequent
        :meth:`run` / :meth:`step` resumes exactly there. Stopping the
        clock never drops or reorders scheduled work.
        """
        best = self._imm[0] if self._imm else None
        queue = self._queue
        if queue and (best is None or queue[0] < best):
            best = queue[0]
        return best[0] if best is not None else float("inf")

    def step(self) -> None:
        """Process exactly one event (the resumption primitive).

        Consistent with :meth:`peek`: advances the clock to the head
        entry's time -- which may be an event left over from a previous
        ``run(until=time)`` call -- and processes it.
        """
        imm, queue = self._imm, self._queue
        best = imm[0] if imm else None
        if queue and (best is None or queue[0] < best):
            best = queue[0]
        if best is None:
            raise EmptySchedule()
        if imm and best is imm[0]:
            when, _, event = imm.popleft()
        else:
            when, _, event = heapq.heappop(queue)
        assert when >= self._now, "event queue corrupted: time went backwards"
        self._now = when
        self._last_event = when
        event._process()

    # -- run loop -------------------------------------------------------------------
    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the queue is empty), a number
        (run until that simulated time), or an :class:`Event` (run until the
        event is processed and return its value).

        Stopping at a time between events leaves the remaining queue
        intact (see :meth:`peek`); calling ``run`` again picks up the
        leftover entries. The inner loop is the simulator's hottest
        wall-clock path, so it binds the queue and ``heappop`` locally and
        inlines :meth:`step`'s body -- semantics are identical.
        """
        stop_event: Optional[Event] = None
        stop_time = float("inf")
        if until is None:
            pass
        elif isinstance(until, Event):
            stop_event = until
            if stop_event.processed:
                return stop_event.value
        else:
            stop_time = float(until)
            if stop_time < self._now:
                raise ValueError(
                    f"until ({stop_time}) must not be before now ({self._now})"
                )

        queue = self._queue
        imm = self._imm
        pop = heapq.heappop
        popleft = imm.popleft
        last = None
        try:
            while True:
                if stop_event is not None and stop_event._state is PROCESSED:
                    if not stop_event._ok:
                        stop_event.defuse()
                        raise stop_event._value
                    return stop_event._value
                # Merge the immediate lane and the heap by (time, seq) key;
                # the lane is append-ordered, so its head is its minimum.
                best = imm[0] if imm else None
                if queue and (best is None or queue[0] < best):
                    best = queue[0]
                if best is None:
                    if stop_event is not None:
                        raise SimulationError(
                            f"run(until={stop_event!r}) exhausted the schedule "
                            "before the event triggered (deadlock?)"
                        )
                    return None
                if best[0] > stop_time:
                    self._now = stop_time
                    return None
                if imm and best is imm[0]:
                    when, _, event = popleft()
                else:
                    when, _, event = pop(queue)
                self._now = when
                last = when
                event._process()
        finally:
            if last is not None:
                self._last_event = last
            # Fold the batched pool tallies into the global perf counters.
            if self._pool_hits:
                PERF.bump("event_pool_hit", self._pool_hits)
                self._pool_hits = 0
            if self._pool_misses:
                PERF.bump("event_pool_miss", self._pool_misses)
                self._pool_misses = 0

    def run_window(self, bound: float) -> int:
        """Process every event with time **strictly below** ``bound``.

        The primitive behind conservative parallel execution: a shard that
        has been granted the window ``[now, bound)`` may process exactly the
        events below the bound -- anything a peer shard does in the same
        window can only produce arrivals at or after the bound (the grant
        logic guarantees ``bound <= earliest peer event + lookahead``).
        Unlike :meth:`run`, events *at* the bound stay queued: the bound is
        exclusive so that back-to-back windows partition the timeline.

        Advances the clock to ``bound`` when finite (mirroring
        ``run(until=...)`` stopping between events) and returns the number
        of events processed.
        """
        queue = self._queue
        imm = self._imm
        pop = heapq.heappop
        popleft = imm.popleft
        count = 0
        try:
            while True:
                best = imm[0] if imm else None
                if queue and (best is None or queue[0] < best):
                    best = queue[0]
                if best is None or best[0] >= bound:
                    break
                if imm and best is imm[0]:
                    when, _, event = popleft()
                else:
                    when, _, event = pop(queue)
                self._now = when
                event._process()
                count += 1
        finally:
            if self._pool_hits:
                PERF.bump("event_pool_hit", self._pool_hits)
                self._pool_hits = 0
            if self._pool_misses:
                PERF.bump("event_pool_miss", self._pool_misses)
                self._pool_misses = 0
        if count:
            self._last_event = self._now
        if bound != float("inf") and bound > self._now:
            self._now = bound
        return count
