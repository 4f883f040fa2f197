"""Shared-resource primitives: FIFO resources and object stores.

These are the building blocks for modeling hardware queues: a DMA engine is
a ``Resource(capacity=1)``, a staging-buffer pool is a ``Store`` of buffer
objects, an HCA inbox a ``Store`` of control messages, and so on.

Both grant a waiting callback op in place: the op itself is queued in the
``(time, seq)`` slot where a grant event would have succeeded, so neither
allocates an event per grant. Processes, which can only yield events,
take the event forms (:meth:`Resource.acquire`, :meth:`Store.get`).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, Optional

from .events import Event, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from .core import Environment
    from .process import CallbackOp

__all__ = ["Resource", "Store", "StoreGet"]

#: A store filter: accepts or rejects one item.
Filter = Callable[[Any], bool]

#: What :meth:`Store._take` returns when no item matches.
_NONE = object()


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


class StoreGet(Event):
    """The event :meth:`Store.get` returns; it succeeds with the item."""

    __slots__ = ()


class Store:
    """A FIFO store of Python objects that grants waiters in place.

    A waiter takes the oldest item its optional filter accepts (the
    filter is how each MPI progress engine picks the messages addressed
    to its rank out of a shared HCA inbox). As with :class:`Resource`, a
    grant takes no event of its own: :meth:`request` queues a
    :class:`~repro.sim.process.CallbackOp`, which finds the item in its
    ``item`` slot when its stored step runs in the grant's slot, and
    :meth:`get` queues a :class:`StoreGet` for a process to yield, which
    succeeds with the item in that slot. :meth:`put` hands a deposit to
    the oldest waiter whose filter accepts it, or keeps it.
    """

    __slots__ = ("env", "name", "items", "_get_label", "_waiting")

    def __init__(self, env: "Environment", name: str = ""):
        self.env = env
        self.name = name
        self._get_label = f"get:{name}"
        self.items: list[Any] = []
        #: ``(waiter, filter)`` pairs in arrival order; a waiter is a
        #: callback op or a StoreGet. No waiter accepts a kept item.
        self._waiting: Deque[tuple] = deque()

    def __len__(self) -> int:
        return len(self.items)

    @property
    def queue_len(self) -> int:
        """Number of waiters not yet granted."""
        return len(self._waiting)

    def request(self, op: "CallbackOp", filt: Optional[Filter] = None) -> None:
        """Queue ``op`` for the oldest item ``filt`` accepts.

        ``op.item`` receives the item and the op's stored step runs in
        the ``(time, seq)`` slot of a zero-delay event succeeding at the
        grant: now, when a kept item matches.
        """
        item = self._take(filt)
        if item is _NONE:
            self._waiting.append((op, filt))
        else:
            op.item = item
            self.env.schedule_op(op)

    def get(self, filt: Optional[Filter] = None) -> StoreGet:
        """An event that succeeds with the oldest item ``filt`` accepts
        (for a process)."""
        event = StoreGet(self.env, label=self._get_label)
        item = self._take(filt)
        if item is _NONE:
            self._waiting.append((event, filt))
        else:
            event.succeed(item)
        return event

    def put(self, item: Any) -> None:
        """Deposit ``item``: the oldest waiter that accepts it is granted
        it in place, or the store keeps it."""
        waiting = self._waiting
        if waiting:
            for i, (waiter, filt) in enumerate(waiting):
                if filt is None or filt(item):
                    del waiting[i]
                    if isinstance(waiter, Event):
                        waiter.succeed(item)
                    else:
                        waiter.item = item
                        self.env.schedule_op(waiter)
                    return
        self.items.append(item)

    def peek_items(self) -> tuple:
        """Snapshot of currently stored items (for inspection/tests)."""
        return tuple(self.items)

    def peek_waiters(self) -> tuple:
        """Snapshot of the waiting ops and events, oldest first."""
        return tuple(waiter for waiter, _ in self._waiting)

    def cancel_get(self, waiter: Any) -> bool:
        """Withdraw a waiting op or get; returns False once it was granted.

        Needed by waits with a deadline (a :class:`~repro.sim.process.Race`):
        a waiter that lost its race must be removed from the wait queue, or
        it would later steal an item nobody is waiting for.
        """
        waiting = self._waiting
        for i, (queued, _) in enumerate(waiting):
            if queued is waiter:
                del waiting[i]
                return True
        return False

    def _take(self, filt: Optional[Filter]) -> Any:
        """Remove and return the oldest item ``filt`` accepts, or ``_NONE``."""
        items = self.items
        if filt is None:
            return items.pop(0) if items else _NONE
        for i, item in enumerate(items):
            if filt(item):
                return items.pop(i)
        return _NONE
