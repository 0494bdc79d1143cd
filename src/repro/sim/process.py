"""Generator-driven processes for the discrete-event kernel."""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from ..errors import Interrupt, SimulationError
from .events import Event, PENDING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .environment import Environment

ProcessGenerator = Generator[Event, object, object]


class _InterruptEvent(Event):
    """Internal event used to deliver an interrupt to a process."""

    __slots__ = ("process",)

    def __init__(self, env: "Environment", process: "Process", cause: object) -> None:
        super().__init__(env)
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True
        self.process = process
        self.add_callback(process._resume)
        env.schedule(self, priority=True)


class Process(Event):
    """An active entity driving a generator of events.

    The process itself is an event: it fires with the generator's return
    value when the generator finishes, or fails with the exception the
    generator raised.  Other processes may therefore ``yield`` a process
    to wait for its completion.
    """

    __slots__ = ("_generator", "name", "_target")

    def __init__(self, env: "Environment", generator: ProcessGenerator, name: str = "") -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process currently waits on (None when resuming
        #: or finished).
        self._target: Optional[Event] = None
        # Kick the generator off at the current simulation time.
        init = Event(env)
        init._ok = True
        init._value = None
        init.callbacks.append(self._resume)
        env.schedule(init, priority=True)

    def __repr__(self) -> str:
        return f"<Process {self.name!r}{' (ended)' if self.triggered else ''}>"

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event the process is currently waiting on, if any."""
        return self._target

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`~repro.errors.Interrupt` into the process.

        The process is rescheduled immediately; whatever event it was
        waiting for stays pending and may still fire later (its firing
        will simply no longer resume this process).  A process that has
        not started yet first runs to its first ``yield``, then receives
        the interrupt at the same simulated time.
        """
        if not self.is_alive:
            raise SimulationError(f"{self!r} has already terminated")
        _InterruptEvent(self.env, self, cause)

    # -- kernel plumbing ---------------------------------------------------

    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome.

        The kernel's busiest callback: it reads the events' slots
        directly rather than through the ``triggered``/``ok``/``value``
        properties.
        """
        if self._value is not PENDING:
            # Process already finished (e.g. interrupted to death while a
            # timeout was pending); swallow stale wakeups.
            if not event._ok:
                event._defused = True
            return
        # An interrupt may arrive while a real target is pending; detach so
        # the stale target's firing does not resume us twice.
        target = self._target
        if target is not None and target is not event:
            if isinstance(event, _InterruptEvent):
                self._detach_from(target)
            else:
                # Stale wakeup from an event we abandoned after an interrupt.
                if not event._ok:
                    event._defused = True
                return
        self._target = None
        env = self.env
        generator = self._generator
        try:
            while True:
                if event._ok:
                    next_target = generator.send(event._value)
                else:
                    event._defused = True
                    next_target = generator.throw(event._value)  # type: ignore[arg-type]
                if not isinstance(next_target, Event):
                    exc = SimulationError(
                        f"process {self.name!r} yielded {next_target!r}, "
                        "which is not an Event"
                    )
                    generator.throw(exc)
                    raise exc
                if next_target.env is not env:
                    exc = SimulationError(
                        f"process {self.name!r} yielded an event from a "
                        "different environment"
                    )
                    generator.throw(exc)
                    raise exc
                callbacks = next_target.callbacks
                if callbacks is not None:
                    # Pending: wait for it.
                    callbacks.append(self._resume)
                    self._target = next_target
                    return
                # Already processed: consume its outcome immediately.
                event = next_target
        except StopIteration as stop:
            self._ok = True
            self._value = stop.value
            env.schedule(self, priority=True)
        except BaseException as error:
            if isinstance(error, (KeyboardInterrupt, SystemExit)):
                raise
            self._ok = False
            self._value = error
            env.schedule(self, priority=True)

    def _detach_from(self, target: Event) -> None:
        if target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
