"""Mobility models driving node positions.

Each model updates node positions in small time steps; connectivity
queries pick the movement up immediately.  A random-waypoint walk is no
process: each node's walk is a :class:`_Walker`, a chain of timeout
callbacks that moves the node and arms its next tick
(docs/PERFORMANCE.md, "Random-waypoint walks").
:class:`PathMobility` stays a process.  Models draw from named RNG
streams, so a seeded run replays identically.
"""

from __future__ import annotations

from typing import Dict, Generator, Iterable, List, Optional, Sequence, Tuple

from ..sim import Environment, Event, RandomStreams
from .geometry import Area, Position
from .node import NetworkNode


class RandomWaypoint:
    """The classic random-waypoint model.

    Each node repeatedly: picks a uniform destination in ``area``, walks
    there at a uniform-random speed from ``speed_range`` (m/s), then
    pauses for a uniform-random time from ``pause_range`` (s).
    """

    def __init__(
        self,
        env: Environment,
        nodes: Iterable[NetworkNode],
        area: Area,
        streams: RandomStreams,
        speed_range: Tuple[float, float] = (0.5, 2.0),
        pause_range: Tuple[float, float] = (0.0, 10.0),
        tick: float = 1.0,
    ) -> None:
        if speed_range[0] <= 0:
            raise ValueError("minimum speed must be positive")
        if speed_range[1] < speed_range[0]:
            # ``uniform`` would draw speeds below the minimum, down to
            # negative ones that walk away from the waypoint forever.
            raise ValueError("maximum speed must not be below the minimum")
        if tick <= 0:
            raise ValueError("tick must be positive")
        if min(pause_range) < 0:
            raise ValueError("pauses must not be negative")
        if area.width == 0 and area.height == 0 and max(pause_range) <= 0:
            # Every destination is the start and every pause is zero:
            # the walk could never let simulated time advance.
            raise ValueError("a one-point area needs a positive pause")
        self.env = env
        self.area = area
        self.speed_range = speed_range
        self.pause_range = pause_range
        self.tick = tick
        for node in nodes:
            rng = streams.stream(f"mobility.{node.id}")
            if not area.contains(node.position):
                node.move_to(area.clamp(node.position))
            _Walker(self, node, rng)


class _Walker:
    """One node's random-waypoint walk, run as timeout callbacks.

    It makes the schedule calls of a process that loops "pick a
    destination and speed; tick towards it; pause", in the same order:
    an urgent start event (the process's init event), one timeout per
    tick and one per non-zero pause.  Event order and the RNG draws are
    therefore those of the process.
    """

    __slots__ = ("model", "node", "rng", "destination", "step")

    def __init__(self, model: RandomWaypoint, node: NetworkNode, rng) -> None:
        self.model = model
        self.node = node
        self.rng = rng
        start = Event(model.env)
        start._value = None
        start.callbacks.append(self._leave)
        model.env.schedule(start, priority=True)

    def _leave(self, _event: Optional[Event]) -> None:
        model = self.model
        self.destination = model.area.random_position(self.rng)
        self.step = self.rng.uniform(*model.speed_range) * model.tick
        self._arm()

    def _tick(self, _event: Event) -> None:
        node = self.node
        node.move_to(node.position.towards(self.destination, self.step))
        self._arm()

    def _arm(self) -> None:
        """Arm the next tick or, at the destination, the pause; a zero
        pause leaves at once."""
        model = self.model
        position, destination = self.node.position, self.destination
        # Coordinates, not ``Position.__eq__``: the dataclass comparison
        # costs more than the rest of the test.
        if position.x != destination.x or position.y != destination.y:
            model.env.timeout(model.tick).callbacks.append(self._tick)
            return
        pause = self.rng.uniform(*model.pause_range)
        if pause > 0:
            model.env.timeout(pause).callbacks.append(self._leave)
        else:
            self._leave(None)


class PathMobility:
    """Trace-driven movement along explicit timed waypoints.

    ``waypoints`` maps node id to a sequence of ``(time, Position)``
    pairs; the node teleport-steps to each position at its time (linear
    interpolation between waypoints at ``tick`` resolution).
    """

    def __init__(
        self,
        env: Environment,
        nodes: Dict[str, NetworkNode],
        waypoints: Dict[str, Sequence[Tuple[float, Position]]],
        tick: float = 1.0,
    ) -> None:
        if tick <= 0:
            raise ValueError("tick must be positive")
        self.env = env
        self.tick = tick
        for node_id, points in waypoints.items():
            ordered = sorted(points, key=lambda pair: pair[0])
            env.process(self._follow(nodes[node_id], ordered), name=f"path:{node_id}")

    def _follow(
        self, node: NetworkNode, points: Sequence[Tuple[float, Position]]
    ) -> Generator:
        for target_time, target_position in points:
            while self.env.now < target_time:
                remaining = target_time - self.env.now
                step = min(self.tick, remaining)
                yield self.env.timeout(step)
                time_left = target_time - self.env.now
                if time_left <= 0:
                    node.move_to(target_position)
                else:
                    distance = node.position.distance_to(target_position)
                    speed = distance / (time_left + step)
                    node.move_to(
                        node.position.towards(target_position, speed * step)
                    )
            node.move_to(target_position)


def grid_positions(count: int, area: Area, margin: float = 0.0) -> List[Position]:
    """Evenly spaced positions covering ``area`` for ``count`` nodes.

    Deterministic placement for experiments that must not depend on a
    placement RNG (e.g. density sweeps).
    """
    if count <= 0:
        return []
    columns = int(count**0.5)
    if columns * columns < count:
        columns += 1
    rows = (count + columns - 1) // columns
    usable_w = area.width - 2 * margin
    usable_h = area.height - 2 * margin
    positions = []
    for index in range(count):
        row, column = divmod(index, columns)
        x = margin + (column + 0.5) * usable_w / columns
        y = margin + (row + 0.5) * usable_h / rows
        positions.append(Position(x, y))
    return positions
