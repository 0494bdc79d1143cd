"""2-D geometry for node placement, radio range, and spatial indexing."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from math import floor
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

    The grid keeps each item's cell beside its position, so a move
    computes only the new cell, and readers that need an item's cell
    (:meth:`item_cell`) compute none.
    """

    def __init__(self, cell_size: float = 100.0) -> None:
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.cell_size = cell_size
        self._cells: Dict[Tuple[int, int], Dict[str, Position]] = {}
        self._positions: Dict[str, Position] = {}
        #: Item id -> the cell its bucket is in.
        self._item_cells: Dict[str, Tuple[int, int]] = {}

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
        return (floor(position.x / size), floor(position.y / size))

    def position_of(self, item_id: str) -> Position:
        """Current indexed position of ``item_id`` (KeyError if absent)."""
        return self._positions[item_id]

    def item_cell(self, item_id: str) -> Tuple[int, int]:
        """The cell ``item_id`` is bucketed in, ``cell_of`` its indexed
        position (KeyError if absent)."""
        return self._item_cells[item_id]

    def move(
        self, item_id: str, position: Position
    ) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        """Index ``item_id`` at ``position`` (inserting it if absent).

        Returns the (old cell, new cell) pair; a new item's old cell is
        its new cell.
        """
        new_cell = self.cell_of(position)
        self._positions[item_id] = position
        old_cell = self._item_cells.get(item_id)
        if old_cell == new_cell:
            self._cells[new_cell][item_id] = position
            return new_cell, new_cell
        self._item_cells[item_id] = new_cell
        if old_cell is None:
            old_cell = new_cell
        else:
            bucket = self._cells[old_cell]
            del bucket[item_id]
            if not bucket:
                del self._cells[old_cell]
        self._cells.setdefault(new_cell, {})[item_id] = position
        return old_cell, new_cell

    def rebuild(self, cell_size: float) -> None:
        """Re-bucket every item under a new cell size (rare; used when a
        longer-range technology first appears)."""
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.cell_size = cell_size
        self._cells = {}
        item_cells = self._item_cells
        for item_id, position in self._positions.items():
            cell = item_cells[item_id] = self.cell_of(position)
            self._cells.setdefault(cell, {})[item_id] = position

    def buckets_near(
        self, position: Position, radius: float
    ) -> List[Tuple[Tuple[int, int], Dict[str, Position]]]:
        """``(cell, bucket)`` for every occupied cell that a circle of
        ``radius`` metres around ``position`` overlaps.

        A bucket maps each item id in the cell to its indexed position;
        it is the live index, so treat it as read-only.  Items in a
        bucket may lie outside the circle.
        """
        if radius < 0:
            return []
        size = self.cell_size
        x, y = position.x, position.y
        rows = range(floor((y - radius) / size), floor((y + radius) / size) + 1)
        get = self._cells.get
        found = []
        for cx in range(
            floor((x - radius) / size), floor((x + radius) / size) + 1
        ):
            for cy in rows:
                cell = (cx, cy)
                bucket = get(cell)
                if bucket:
                    found.append((cell, bucket))
        return found

    def near(self, position: Position, radius: float) -> List[str]:
        """Ids of all items within ``radius`` metres of ``position``.

        Exact (distance-filtered), in no particular order; callers
        needing determinism must impose their own ordering.
        """
        px, py = position.x, position.y
        hypot = math.hypot
        return [
            item_id
            for _, bucket in self.buckets_near(position, radius)
            for item_id, item_position in bucket.items()
            if hypot(item_position.x - px, item_position.y - py) <= radius
        ]
