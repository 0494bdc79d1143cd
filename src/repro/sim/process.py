"""Generator-driven processes for the discrete-event kernel."""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from ..errors import SimulationError
from .events import Event, PENDING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .environment import Environment

ProcessGenerator = Generator[Event, object, object]


class Process(Event):
    """An active entity driving a generator of events.

    The process itself is an event: it fires with the generator's return
    value when the generator finishes, or fails with the exception the
    generator raised.  Other processes may therefore ``yield`` a process
    to wait for its completion.
    """

    __slots__ = ("_generator", "name")

    def __init__(self, env: "Environment", generator: ProcessGenerator, name: str = "") -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
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

    # -- kernel plumbing ---------------------------------------------------

    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome.

        The kernel's busiest callback: it reads the events' slots
        directly rather than through the ``triggered``/``ok``/``value``
        properties.
        """
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
