"""The discrete-event simulation environment (clock + event queue)."""

from __future__ import annotations

from heapq import heappop, heappush
from typing import List, Optional, Tuple

from ..errors import EmptySchedule, SimulationError, StopSimulation
from .events import AllOf, AnyOf, Event, Timeout
from .process import Process, ProcessGenerator

#: Queue entries are (time, priority, sequence, event).  ``priority`` 0 is
#: "urgent" (process resumptions), 1 is normal; ``sequence`` breaks ties
#: deterministically in scheduling order.
_QueueItem = Tuple[float, int, int, Event]


class Environment:
    """Holds simulated time and executes events in time order.

    All entities of a simulation (network, hosts, middleware, agents)
    share one environment.  Determinism: events at equal times run in a
    fixed order (urgent before normal, then FIFO), so a seeded simulation
    replays identically.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: List[_QueueItem] = []
        self._seq = 0
        #: Set by :meth:`repro.obs.TimeSeriesRecorder.attach`.  The
        #: sampler's ``due`` is the next cadence boundary to sweep.
        #: Once every event at or before it has run, that is before
        #: :meth:`step` runs the first event later than ``due``, or
        #: when :meth:`run` stops past it, the kernel moves the clock
        #: to ``due`` and calls ``close(upcoming)``.  Detached (None,
        #: the default) it costs one check per event.
        self._sampler: Optional[object] = None

    def __repr__(self) -> str:
        return f"<Environment now={self._now:.6g} pending={len(self._queue)}>"

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- event factories ----------------------------------------------------

    def event(self) -> Event:
        """A fresh untriggered event, to be succeeded/failed by someone."""
        return Event(self)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """An event firing ``delay`` seconds from now with ``value``."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start running ``generator`` as a process."""
        return Process(self, generator, name=name)

    def any_of(self, events: List[Event]) -> AnyOf:
        """Fires when the first of ``events`` fires."""
        return AnyOf(self, events)

    def all_of(self, events: List[Event]) -> AllOf:
        """Fires when all of ``events`` have fired."""
        return AllOf(self, events)

    # -- scheduling ----------------------------------------------------------

    def schedule(self, event: Event, delay: float = 0.0, priority: bool = False) -> None:
        """Place a triggered event on the queue ``delay`` seconds from now."""
        # ``not >= 0`` also rejects NaN, which would poison the clock.
        if not delay >= 0:
            raise ValueError(f"delay must be >= 0, got {delay!r}")
        self._seq += 1
        heappush(
            self._queue, (self._now + delay, 0 if priority else 1, self._seq, event)
        )

    def schedule_at(self, event: Event, when: float) -> None:
        """Place a triggered event on the queue at the instant ``when``.

        The absolute twin of :meth:`schedule`: a caller that already
        holds the instant (``t + latency``) schedules it exactly, with
        no ``when - now`` round trip through a delay."""
        # ``not >=`` also rejects NaN, as in :meth:`schedule`.
        if not when >= self._now:
            raise ValueError(f"when must be >= now ({self._now!r}), got {when!r}")
        self._seq += 1
        heappush(self._queue, (when, 1, self._seq, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the single next event."""
        queue = self._queue
        try:
            when, _, _, event = heappop(queue)
        except IndexError:
            raise EmptySchedule("no more events scheduled") from None
        if when < self._now:
            raise SimulationError("event scheduled in the past")
        # Processing finalises the event: its callbacks run exactly once,
        # and a copy that reaches the queue again finds None and is skipped.
        callbacks = event.callbacks
        if callbacks is None:
            return
        sampler = self._sampler
        if sampler is not None and when > sampler.due:
            # Every event at or before the due boundary has run: the
            # sample there sees all of that instant and none of this one.
            self._now = sampler.due
            sampler.close(when)  # type: ignore[attr-defined]
        self._now = when
        event.callbacks = None
        for callback in callbacks:
            callback(event)
        # A cancelled entry (callbacks set to None while queued) is
        # dropped once it reaches the head, so no step pops it, and
        # neither the clock nor the sampler sees it.
        while queue and queue[0][3].callbacks is None:
            heappop(queue)
        if not event._ok and not event._defused:
            # A failure nobody consumed: surface it rather than losing it.
            raise event._value  # type: ignore[misc]

    def _end_run(self, stop_at: float) -> None:
        """End a run at ``stop_at``: every event before it has run, so a
        sampler boundary earlier than ``stop_at`` is closed first."""
        sampler = self._sampler
        if sampler is not None and sampler.due < stop_at:
            self._now = sampler.due
            sampler.close(stop_at)  # type: ignore[attr-defined]
        self._now = stop_at

    def run(self, until: object = None) -> object:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the queue is empty;
        * a number — run until that simulated time;
        * an :class:`Event` — run until it fires; its value is returned
          (a failed event re-raises its exception).
        """
        stop_at: Optional[float] = None
        if until is not None:
            if isinstance(until, Event):
                if until.callbacks is None:
                    # Already processed: nothing to run.
                    if not until.ok:
                        raise until.value  # type: ignore[misc]
                    return until.value
                until.add_callback(self._stop_on_event)
            else:
                stop_at = float(until)
                if stop_at < self._now:
                    raise ValueError(
                        f"until={stop_at} lies in the past (now={self._now})"
                    )
        # step() is the one function that pops an event and fires its
        # callbacks; the loops below only read the queue head.
        queue = self._queue
        step = self.step
        try:
            if stop_at is None:
                while True:
                    step()
            # ``not >=`` so that a NaN ``until`` runs the queue dry, the
            # way a ``peek() >= until`` test does.
            while queue and not queue[0][0] >= stop_at:
                step()
            self._end_run(stop_at)
            return None
        except EmptySchedule:
            if isinstance(until, Event):
                raise SimulationError(
                    "schedule ran dry before the target event fired"
                ) from None
            if stop_at is not None:
                self._end_run(stop_at)
            return None
        except StopSimulation as stop:
            event = stop.value
            assert isinstance(event, Event)
            if not event.ok:
                event._defused = True
                raise event.value  # type: ignore[misc]
            return event.value

    @staticmethod
    def _stop_on_event(event: Event) -> None:
        raise StopSimulation(event)
