"""Blocking FIFO stores and counting resources built on the kernel.

These are the coordination primitives the network and middleware layers
use: a :class:`Store` models an inbox or queue (producers ``put``,
consumers ``yield store.get()``); a :class:`Resource` models a limited
facility such as a radio channel or a CPU.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Generic, List, Optional, TypeVar

from ..errors import SimulationError
from .environment import Environment
from .events import PENDING, Event

T = TypeVar("T")


class StorePut(Event):
    """Request to add ``item`` to a store; fires when accepted."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: object) -> None:
        super().__init__(store.env)
        self.item = item
        store._put_waiters.append(self)
        store._service()


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
    """Unbounded-or-bounded FIFO store of items.

    ``capacity`` of ``inf`` (default) never blocks producers.  With a
    finite capacity, ``put`` events stay pending until space frees up.
    """

    def __init__(self, env: Environment, capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: Deque[T] = deque()
        self._put_waiters: Deque[StorePut] = deque()
        self._get_waiters: Deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: T) -> StorePut:
        """Offer ``item``; the returned event fires once it is stored."""
        return StorePut(self, item)

    def put_nowait(self, item: T) -> None:
        """Store ``item`` now, without an event, serving a waiting getter
        at once; raises :class:`SimulationError` when the store is full.

        A waiting getter fires exactly as it would after :meth:`put`.
        """
        if len(self.items) >= self.capacity:
            raise SimulationError(
                f"store is full ({len(self.items)} of {self.capacity} items)"
            )
        self.items.append(item)
        self._service()

    def get(self, predicate: Optional[Callable[[T], bool]] = None) -> StoreGet:
        """Request an item; the returned event fires with it."""
        return StoreGet(self, predicate)  # type: ignore[arg-type]

    def try_get(self) -> Optional[T]:
        """Non-blocking take of the head item, or None when empty."""
        if not self.items:
            return None
        item = self.items.popleft()
        self._service()
        return item

    def _service(self) -> None:
        """Match pending puts with space and pending gets with items."""
        progress = True
        while progress:
            progress = False
            # Admit puts while there is capacity.
            while self._put_waiters and len(self.items) < self.capacity:
                put = self._put_waiters.popleft()
                self.items.append(put.item)  # type: ignore[arg-type]
                put.succeed()
                progress = True
            # Serve gets in FIFO order.
            for get in list(self._get_waiters):
                if get._cancelled or get._value is not PENDING:
                    self._get_waiters.remove(get)
                    continue
                item = self._find_match(get)
                if item is not _NO_MATCH:
                    self._get_waiters.remove(get)
                    get.succeed(item)
                    progress = True
            if not self.items and not self._put_waiters:
                break

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


class ResourceRequest(Event):
    """Pending claim on a :class:`Resource` slot."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        resource._waiters.append(self)
        resource._service()

    def __enter__(self) -> "ResourceRequest":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.resource.release(self)


class Resource:
    """Counting resource with ``capacity`` concurrent slots."""

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self._users: List[ResourceRequest] = []
        self._waiters: Deque[ResourceRequest] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiters)

    def request(self) -> ResourceRequest:
        """Claim a slot; the event fires when the slot is granted."""
        return ResourceRequest(self)

    def release(self, request: ResourceRequest) -> None:
        """Return a previously granted slot."""
        if request in self._users:
            self._users.remove(request)
            self._service()
        else:
            # Releasing an ungranted request withdraws it from the queue.
            try:
                self._waiters.remove(request)
            except ValueError:
                raise SimulationError("release of a request never made") from None

    def _service(self) -> None:
        while self._waiters and len(self._users) < self.capacity:
            request = self._waiters.popleft()
            self._users.append(request)
            request.succeed()
