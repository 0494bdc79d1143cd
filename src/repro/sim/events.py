"""Event primitives for the discrete-event kernel.

The kernel follows the classic generator-process design: a
:class:`~repro.sim.environment.Environment` owns a time-ordered queue of
:class:`Event` objects; processes are generators that ``yield`` events and
are resumed when those events fire.

An event moves through three states:

* *untriggered* — created but not yet scheduled;
* *triggered*  — given a value (or an exception) and placed on the queue;
* *processed*  — its callbacks have run; its value is final.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .environment import Environment

#: Sentinel distinguishing "no value yet" from a legitimate ``None`` value.
PENDING = object()


class Event:
    """A happening at a point in simulated time.

    Events carry a *value* on success or an exception on failure.
    Callbacks registered before processing run when the event fires;
    registering a callback on an already-processed event raises, because
    the moment has passed.

    Events are the kernel's unit of allocation — simulations create
    millions — so the class is slotted; subclasses that add state must
    declare their own ``__slots__`` to keep the saving.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: object = PENDING
        self._ok = True
        #: Set when a failure's exception was delivered to someone.
        self._defused = False

    def __repr__(self) -> str:
        return "<{} at t={:.6g}{}>".format(
            type(self).__name__,
            self.env.now,
            " (processed)" if self.processed else "",
        )

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled (or processed)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run and the value is final."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        if not self.triggered:
            raise SimulationError("event value is not yet available")
        return self._ok

    @property
    def value(self) -> object:
        """The event's value (or the exception instance if it failed)."""
        if self._value is PENDING:
            raise SimulationError("event value is not yet available")
        return self._value

    def succeed(self, value: object = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``.

        The exception propagates into every process waiting on this event;
        if nobody is waiting, the kernel re-raises it at processing time so
        failures never pass silently.
        """
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(self)`` when the event is processed."""
        if self.callbacks is None:
            raise SimulationError(f"{self!r} has already been processed")
        self.callbacks.append(callback)


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation."""

    __slots__ = ("_delay",)

    def __init__(self, env: "Environment", delay: float, value: object = None) -> None:
        # Event.__init__ inlined: timeouts are the most frequent event.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self._delay = delay
        # ``env.schedule`` rejects any delay that is not >= 0.
        env.schedule(self, delay)

    @property
    def delay(self) -> float:
        return self._delay


class Condition(Event):
    """Composite event over several child events.

    Fires when ``evaluate(children, fired_count)`` returns True, or fails
    as soon as any child fails.  The value of a condition is a dict
    mapping each *fired* child event to its value, in firing order.
    """

    __slots__ = ("_evaluate", "_events", "_fired", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[Sequence[Event], int], bool],
        events: Sequence[Event],
    ) -> None:
        super().__init__(env)
        self._evaluate = evaluate
        self._events = tuple(events)
        self._fired: List[Event] = []
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise ValueError("cannot mix events from different environments")

        if not self._events:
            self.succeed({})
            return

        for event in self._events:
            if event.callbacks is None:
                # Already processed: account for it immediately.
                self._check(event)
            else:
                event.add_callback(self._check)

    @property
    def events(self) -> Tuple[Event, ...]:
        """The child events (immutable view; no copy per access)."""
        return self._events

    def _collect_values(self) -> dict:
        return {event: event.value for event in self._fired if event.ok}

    def _check(self, event: Event) -> None:
        if self.triggered:
            # Late-firing children of an already-decided condition must not
            # leak unhandled failures.
            if not event.ok:
                event._defused = True
            return
        self._count += 1
        self._fired.append(event)
        if not event.ok:
            event._defused = True
            self.fail(event.value)  # type: ignore[arg-type]
        elif self._evaluate(self._events, self._count):
            self.succeed(self._collect_values())


# Module-level evaluators: one shared function object instead of a fresh
# closure allocated per condition instance.
def _any_fired(events: Sequence[Event], count: int) -> bool:
    return count >= 1


def _all_fired(events: Sequence[Event], count: int) -> bool:
    return count == len(events)


class AnyOf(Condition):
    """Fires when the first of ``events`` fires."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Sequence[Event]) -> None:
        super().__init__(env, _any_fired, events)


class AllOf(Condition):
    """Fires when every one of ``events`` has fired."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Sequence[Event]) -> None:
        super().__init__(env, _all_fired, events)
