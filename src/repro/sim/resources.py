"""Shared-resource primitives: FIFO resources and object stores.

These are the building blocks for modeling hardware queues: a DMA engine is
a ``Resource(capacity=1)``, a staging-buffer pool is a ``Store`` pre-filled
with buffer objects, and so on.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, Optional

from .events import Event, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from .core import Environment
    from .process import CallbackOp

__all__ = ["Resource", "Store", "StorePut", "StoreGet"]


class Resource:
    """A resource with finite capacity and a FIFO wait queue.

    A grant takes no claim object: it puts the waiter itself on the
    environment's immediate lane. :meth:`request` queues a
    :class:`~repro.sim.process.CallbackOp`, whose stored step then runs in
    the grant's slot; :meth:`acquire` queues a plain event for a process
    to yield, which succeeds in that slot. The holder hands its unit back
    with :meth:`release`, which grants the oldest waiter in its place.
    """

    __slots__ = ("env", "capacity", "name", "count", "_label", "_waiting")

    def __init__(self, env: "Environment", capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        #: Number of granted units.
        self.count = 0
        self._label = f"acquire:{name}"
        self._waiting: Deque[Any] = deque()

    @property
    def queue_len(self) -> int:
        """Number of waiters not yet granted."""
        return len(self._waiting)

    def request(self, op: "CallbackOp") -> None:
        """Queue ``op`` for a unit; its stored step runs once granted.

        A free unit is granted at once, in the ``(time, seq)`` slot of a
        zero-delay event succeeding now.
        """
        if self.count < self.capacity:
            self.count += 1
            self.env.schedule_op(op)
        else:
            self._waiting.append(op)

    def acquire(self) -> Event:
        """An event that succeeds once a unit is granted (for a process)."""
        event = Event(self.env, label=self._label)
        if self.count < self.capacity:
            self.count += 1
            event.succeed()
        else:
            self._waiting.append(event)
        return event

    def release(self) -> None:
        """Give back one granted unit; the oldest waiter gets it."""
        if not self.count:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if not self._waiting:
            self.count -= 1
            return
        waiter = self._waiting.popleft()
        if isinstance(waiter, Event):
            waiter.succeed()
        else:
            self.env.schedule_op(waiter)


class StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.env, label=store._put_label)
        self.item = item


class StoreGet(Event):
    __slots__ = ("filter",)

    def __init__(self, store: "Store", filt: Optional[Callable[[Any], bool]]):
        super().__init__(store.env, label=store._get_label)
        self.filter = filt


class Store:
    """An unbounded-or-bounded FIFO store of Python objects.

    ``get`` accepts an optional filter predicate, in which case the first
    (oldest) matching item is returned -- used e.g. for MPI message matching
    on mailboxes.
    """

    def __init__(self, env: "Environment", capacity: float = float("inf"), name: str = ""):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._put_label = f"put:{name}"
        self._get_label = f"get:{name}"
        self.items: list[Any] = []
        self._putters: Deque[StorePut] = deque()
        self._getters: Deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        event = StorePut(self, item)
        self._putters.append(event)
        self._dispatch()
        return event

    def put_nowait(self, item: Any) -> None:
        """Deposit an item without creating a put event.

        For callers that ignore the returned event (pool pre-fill and
        buffer release), the StorePut event is pure overhead: it succeeds
        immediately and nothing ever waits on it. Skipping it removes one
        allocation and one scheduled no-op per put; because the dropped
        event has no callbacks, the relative order of all remaining events
        is unchanged. Falls back to :meth:`put` when the deposit cannot
        complete immediately (bounded store at capacity, or queued putters
        whose FIFO turn must come first).
        """
        if self._putters or len(self.items) >= self.capacity:
            self.put(item)
            return
        self.items.append(item)
        if self._getters:
            self._dispatch()

    def get(self, filt: Optional[Callable[[Any], bool]] = None) -> StoreGet:
        event = StoreGet(self, filt)
        self._getters.append(event)
        self._dispatch()
        return event

    def peek_items(self) -> tuple:
        """Snapshot of currently stored items (for inspection/tests)."""
        return tuple(self.items)

    def cancel_get(self, get: StoreGet) -> bool:
        """Withdraw a pending get; returns False if it already triggered.

        Needed by timeout-based callers (the rendezvous recovery layer): a
        get that lost its race must be removed from the wait queue, or it
        would later steal an item nobody is waiting for.
        """
        if get.triggered:
            return False
        try:
            self._getters.remove(get)
        except ValueError:
            return False
        return True

    def _dispatch(self) -> None:
        # Allocation-free rendezvous loop (this runs once per put/get, the
        # hottest non-numpy path in the simulator). Unsatisfied getters are
        # rotated back onto the same deque in their original relative
        # order, which matches the semantics of rebuilding the queue.
        items = self.items
        getters = self._getters
        putters = self._putters
        while True:
            progress = False
            # Move queued puts into the store while capacity allows.
            while putters and len(items) < self.capacity:
                put = putters.popleft()
                items.append(put.item)
                put.succeed()
                progress = True
            # Satisfy getters (FIFO, skipping non-matching filters).
            for _ in range(len(getters)):
                get = getters.popleft()
                idx = self._find(get.filter)
                if idx is None:
                    getters.append(get)
                else:
                    get.succeed(items.pop(idx))
                    progress = True
            if not progress:
                return

    def _find(self, filt: Optional[Callable[[Any], bool]]) -> Optional[int]:
        if filt is None:
            return 0 if self.items else None
        for i, item in enumerate(self.items):
            if filt(item):
                return i
        return None
