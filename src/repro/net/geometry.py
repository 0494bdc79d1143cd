"""2-D geometry for node placement, radio range, and spatial indexing."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class Position:
    """A point in the simulation plane, in metres."""

    x: float
    y: float

    def distance_to(self, other: "Position") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def towards(self, target: "Position", step: float) -> "Position":
        """The point ``step`` metres from here towards ``target``.

        Never overshoots: if ``target`` is closer than ``step``, returns
        ``target`` itself.
        """
        gap = self.distance_to(target)
        if gap <= step or gap == 0.0:
            return target
        fraction = step / gap
        return Position(
            self.x + (target.x - self.x) * fraction,
            self.y + (target.y - self.y) * fraction,
        )

    def __repr__(self) -> str:
        return f"({self.x:.1f}, {self.y:.1f})"


@dataclass(frozen=True)
class Area:
    """An axis-aligned rectangle [0, width] x [0, height], in metres."""

    width: float
    height: float

    def contains(self, position: Position) -> bool:
        return 0.0 <= position.x <= self.width and 0.0 <= position.y <= self.height

    def random_position(self, rng: random.Random) -> Position:
        return Position(rng.uniform(0.0, self.width), rng.uniform(0.0, self.height))

    def clamp(self, position: Position) -> Position:
        return Position(
            min(max(position.x, 0.0), self.width),
            min(max(position.y, 0.0), self.height),
        )


class SpatialGrid:
    """A spatial hash over point items for O(1)-amortised range queries.

    Items (keyed by an opaque string id) live in square cells of
    ``cell_size`` metres; :meth:`near` inspects only the cells a query
    circle overlaps, so a query costs O(items in nearby cells) instead
    of O(all items).  Cell size should match the dominant query radius
    (the longest radio range): larger cells degrade towards a full
    scan, smaller cells multiply the number of cells visited per query.
    """

    def __init__(self, cell_size: float = 100.0) -> None:
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.cell_size = cell_size
        self._cells: Dict[Tuple[int, int], Dict[str, Position]] = {}
        self._positions: Dict[str, Position] = {}

    def __len__(self) -> int:
        return len(self._positions)

    def __contains__(self, item_id: str) -> bool:
        return item_id in self._positions

    def cell_of(self, position: Position) -> Tuple[int, int]:
        """The (cx, cy) cell coordinates covering ``position``.

        Cell coordinates are only meaningful for one ``cell_size``;
        :meth:`rebuild` renumbers every cell, so consumers caching
        per-cell data must key on the size (or watch it) too.
        """
        size = self.cell_size
        return (int(math.floor(position.x / size)), int(math.floor(position.y / size)))

    def position_of(self, item_id: str) -> Position:
        """Current indexed position of ``item_id`` (KeyError if absent)."""
        return self._positions[item_id]

    def insert(self, item_id: str, position: Position) -> None:
        if item_id in self._positions:
            self.move(item_id, position)
            return
        self._positions[item_id] = position
        self._cells.setdefault(self.cell_of(position), {})[item_id] = position

    def move(self, item_id: str, position: Position) -> None:
        old = self._positions.get(item_id)
        if old is None:
            self.insert(item_id, position)
            return
        old_cell = self.cell_of(old)
        new_cell = self.cell_of(position)
        self._positions[item_id] = position
        if old_cell == new_cell:
            self._cells[old_cell][item_id] = position
            return
        bucket = self._cells[old_cell]
        del bucket[item_id]
        if not bucket:
            del self._cells[old_cell]
        self._cells.setdefault(new_cell, {})[item_id] = position

    def rebuild(self, cell_size: float) -> None:
        """Re-bucket every item under a new cell size (rare; used when a
        longer-range technology first appears)."""
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        items = list(self._positions.items())
        self.cell_size = cell_size
        self._cells = {}
        for item_id, position in items:
            self._cells.setdefault(self.cell_of(position), {})[item_id] = position

    def near(self, position: Position, radius: float) -> List[str]:
        """Ids of all items within ``radius`` metres of ``position``.

        Exact (distance-filtered), in no particular order; callers
        needing determinism must impose their own ordering.
        """
        if radius < 0:
            return []
        size = self.cell_size
        min_cx = int(math.floor((position.x - radius) / size))
        max_cx = int(math.floor((position.x + radius) / size))
        min_cy = int(math.floor((position.y - radius) / size))
        max_cy = int(math.floor((position.y + radius) / size))
        cells = self._cells
        px, py = position.x, position.y
        found: List[str] = []
        for cx in range(min_cx, max_cx + 1):
            for cy in range(min_cy, max_cy + 1):
                bucket = cells.get((cx, cy))
                if not bucket:
                    continue
                for item_id, item_position in bucket.items():
                    if math.hypot(item_position.x - px, item_position.y - py) <= radius:
                        found.append(item_id)
        return found
