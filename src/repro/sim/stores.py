"""Unbounded FIFO stores built on the kernel.

A :class:`Store` is the coordination primitive the network and
middleware layers use for inboxes: producers ``put``, consumers
``yield store.get()``.  A radio's one-transfer-at-a-time rule needs no
kernel primitive: it is a busy-until time on the interface
(:meth:`repro.net.node.Interface.reserve`).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Generic, List, Optional, TypeVar

from .environment import Environment
from .events import PENDING, Event

T = TypeVar("T")


class StoreGet(Event):
    """Request to take one item; fires with the item when available.

    An optional ``predicate`` turns this into a filtered get: only an
    item satisfying the predicate is delivered (items are still examined
    in FIFO order; non-matching items stay for other getters).
    """

    __slots__ = ("predicate", "_cancelled")

    def __init__(self, store: "Store", predicate: Optional[Callable[[object], bool]] = None) -> None:
        super().__init__(store.env)
        self.predicate = predicate
        self._cancelled = False
        store._get_waiters.append(self)
        store._service()

    def cancel(self) -> None:
        """Withdraw an unfired get request (e.g. after a timeout race)."""
        if not self.triggered:
            self._cancelled = True


class Store(Generic[T]):
    """Unbounded FIFO store of items: a put never waits."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.items: Deque[T] = deque()
        #: Pending gets in FIFO order; an inbox usually holds one.
        self._get_waiters: List[StoreGet] = []

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: T) -> Event:
        """Store ``item`` now; the returned event fires (at once, at
        normal priority) for a producer that yields it.

        The event is scheduled before a getter the item serves.
        """
        event = Event(self.env)
        event.succeed()
        self.put_nowait(item)
        return event

    def put_nowait(self, item: T) -> None:
        """Store ``item`` now, without an event, serving a waiting getter
        at once.

        A waiting getter fires exactly as it would after :meth:`put`.
        """
        self.items.append(item)
        self._service()

    def get(self, predicate: Optional[Callable[[T], bool]] = None) -> StoreGet:
        """Request an item; the returned event fires with it."""
        return StoreGet(self, predicate)  # type: ignore[arg-type]

    def try_get(self) -> Optional[T]:
        """Non-blocking take of the head item, or None when empty."""
        if not self.items:
            return None
        return self.items.popleft()

    def _service(self) -> None:
        """Serve pending gets in FIFO order with the items there are."""
        for get in list(self._get_waiters):
            if get._cancelled or get._value is not PENDING:
                self._get_waiters.remove(get)
                continue
            item = self._find_match(get)
            if item is not _NO_MATCH:
                self._get_waiters.remove(get)
                get.succeed(item)

    def _find_match(self, get: StoreGet) -> object:
        if get.predicate is None:
            if self.items:
                return self.items.popleft()
            return _NO_MATCH
        for index, item in enumerate(self.items):
            if get.predicate(item):
                del self.items[index]
                return item
        return _NO_MATCH


_NO_MATCH = object()
