"""Multi-hop relaying over the ad-hoc connectivity graph.

Direct links only reach one hop; the router forwards a message along a
BFS-shortest path, paying every hop's transmission time and loss.  It
re-plans before each hop, so paths survive moderate mobility; it gives
up when the destination becomes unreachable.

Path planning goes through an epoch-memoised :class:`RoutingTable`:
one BFS from a source yields the shortest-path tree to *every*
destination, and the trees are flushed whenever the topology epoch
moves.

For city-scale worlds :class:`HierarchicalRouter` first walks
neighbour to neighbour through the straight corridor of
:class:`~repro.net.geometry.SpatialGrid` cells between the endpoints,
proves unreachability on a coarse graph of occupied cells, and only
otherwise pays one flat BFS.  Its paths may be longer than flat-BFS
paths, but never by more than the documented stretch bound, and its
*reachability* answers are bit-identical to the naive reference sweeps
(see docs/PERFORMANCE.md, "City-scale routing").
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Generator, List, Optional, Set, Tuple

from ..errors import Unreachable
from ..sim import Environment, MetricsRegistry, Process
from .message import Message
from .network import Cell, Network, bfs_tree, walk_tree
from .transport import Transport

#: Deterministic neighbour-cell visit order for the coarse cell BFS.
_RING = (
    (-1, -1), (-1, 0), (-1, 1),
    (0, -1), (0, 1),
    (1, -1), (1, 0), (1, 1),
)


class RoutingTable:
    """Epoch-memoised shortest-path trees over one network.

    ``path(source, target)`` is bit-identical to
    :meth:`Network.shortest_path` (same BFS with sorted tie-breaking);
    the difference is that one tree answers every target for its
    source.  Any topology epoch change flushes every tree.
    """

    def __init__(
        self,
        network: Network,
        adhoc_only: bool = True,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.network = network
        self.adhoc_only = adhoc_only
        self.metrics = metrics
        self._epoch = -1
        #: source id -> {discovered node -> its BFS predecessor}.
        self._trees: Dict[str, Dict[str, str]] = {}
        self.stats = {"hits": 0, "misses": 0, "flushes": 0}

    def _count(self, key: str, node: str) -> None:
        self.stats[key] += 1
        if self.metrics is not None:
            # The labeled child forwards to the flat family total.
            self.metrics.counter(
                f"routing.tree_{key}", labels={"node": node}
            ).increment()

    def _sync(self) -> None:
        epoch = self.network.topology_epoch
        if epoch == self._epoch:
            return
        self._epoch = epoch
        if self._trees:
            self._trees.clear()
            self.stats["flushes"] += 1
            if self.metrics is not None:
                self.metrics.counter("routing.flushes").increment()

    def _tree(self, source_id: str) -> Dict[str, str]:
        self._sync()
        tree = self._trees.get(source_id)
        if tree is not None:
            self._count("hits", node=source_id)
            return tree
        self._count("misses", node=source_id)
        graph = self.network.adjacency(adhoc_only=self.adhoc_only)
        tree = bfs_tree(graph, source_id)
        self._trees[source_id] = tree
        return tree

    def path(self, source_id: str, target_id: str) -> Optional[List[str]]:
        """Hop-minimal path, or None when the target is unreachable."""
        if source_id == target_id:
            return [source_id]
        return walk_tree(self._tree(source_id), source_id, target_id)

    def next_hop(self, source_id: str, target_id: str) -> Optional[str]:
        """The first relay on the path, or None when unreachable."""
        path = self.path(source_id, target_id)
        if path is None or len(path) < 2:
            return None
        return path[1]


class HierarchicalRouter:
    """Cell-first path planning for city-scale ad-hoc worlds.

    Flat BFS touches the whole connected component per tree; at 10k+
    nodes that is the scaling wall.  This planner exploits the spatial
    structure the :class:`~repro.net.geometry.SpatialGrid` already
    maintains — a radio link never spans more than one cell per axis,
    because the cell size is at least the longest radio range — so:

    1. **Gateway walk.**  Dilate the straight cell-to-cell walk from
       the source's cell to the target's by one ring and walk
       neighbour to neighbour inside it, best-first towards the
       target.  In dense worlds this finds a short path after touching
       O(path length × degree) nodes.
    2. **Coarse certificate.**  If the walk misses, BFS over
       *occupied cells* (cells holding at least one up node, 8-connected).
       Any node-level path induces a cell-level path, so cell-level
       unreachability is an **exact** negative answer.
    3. **Flat fallback.**  Otherwise (sparse or maze-like worlds),
       delegate to the flat :class:`RoutingTable`.

    *Reachability is bit-identical to flat BFS* (positives are real
    node-level walks, negatives only come from the exact certificate or
    the flat fallback).  *Hop counts are not*: the walk's hop limit is
    ``stretch × max(cell_distance, 1) + 2``; since a flat path needs at
    least ``cell_distance`` hops, walked paths are within ``stretch ×
    flat_hops + 2`` of optimal, and fallback paths are optimal
    outright.  Worlds smaller than
    ``flat_threshold`` nodes — and any query over the backbone
    (``adhoc_only=False``), where every attached pair is one hop apart
    and hierarchy is pointless — skip straight to the flat table.

    Planned paths are cached per (source, target) and invalidated with
    the network's dirty-cell journal: a cached path stays valid until
    some cell it crosses shows up dirty (negatives die on any change).
    """

    def __init__(
        self,
        network: Network,
        adhoc_only: bool = True,
        flat_threshold: int = 256,
        stretch: int = 3,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if stretch < 1:
            raise ValueError("stretch must be >= 1")
        self.network = network
        self.adhoc_only = adhoc_only
        self.flat_threshold = flat_threshold
        self.stretch = stretch
        self.metrics = metrics
        self.table = RoutingTable(network, adhoc_only=adhoc_only, metrics=metrics)
        self._epoch = -1
        self._cell_size: Optional[float] = None
        #: Cells currently holding >= 1 up node (None = needs rebuild).
        self._occupied: Optional[Set[Cell]] = None
        #: (source, target) -> (path tuple or None, cells the path
        #: crosses or None).  ``cells=None`` marks answers that any
        #: topology change can overturn (negatives).
        self._paths: Dict[
            Tuple[str, str],
            Tuple[Optional[Tuple[str, ...]], Optional[FrozenSet[Cell]]],
        ] = {}
        self.stats = {
            "hits": 0,
            "misses": 0,
            "flat": 0,
            "greedy": 0,
            "cell_unreachable": 0,
            "flat_fallback": 0,
        }

    def _count(self, key: str, node: str) -> None:
        self.stats[key] += 1
        if self.metrics is not None:
            # The labeled child forwards to the flat family total.
            self.metrics.counter(
                f"routing.hier.{key}", labels={"node": node}
            ).increment()

    # -- coarse layer maintenance --------------------------------------------

    def _sync(self) -> None:
        network = self.network
        epoch = network.topology_epoch
        grid_size = network.grid.cell_size
        if epoch == self._epoch and grid_size == self._cell_size:
            return
        if self._cell_size != grid_size or self._epoch < 0:
            # First use, or the grid was rebuilt (every cell id is new).
            self._occupied = None
            self._paths.clear()
        else:
            _, cells = network.dirty_cells_since(self._epoch)
            if cells is None:
                self._occupied = None
                self._paths.clear()
            elif cells:
                self._apply_dirty(cells)
        self._epoch = epoch
        self._cell_size = grid_size

    def _apply_dirty(self, cells: FrozenSet[Cell]) -> None:
        if self._occupied is not None:
            grid = self.network.grid
            nodes = self.network.nodes
            for cell in cells:
                alive = any(
                    nodes[item_id].up for item_id in grid.items_in_cell(cell)
                )
                if alive:
                    self._occupied.add(cell)
                else:
                    self._occupied.discard(cell)
        stale = [
            key
            for key, (_path, path_cells) in self._paths.items()
            # Negative answers (path_cells None) can be overturned by
            # any new link anywhere; positive paths only break when a
            # cell they cross is dirty (each link on the path has both
            # endpoints on it, and a node's changes always dirty the
            # cell it occupied).
            if path_cells is None or not path_cells.isdisjoint(cells)
        ]
        for key in stale:
            del self._paths[key]

    def _occupied_cells(self) -> Set[Cell]:
        if self._occupied is None:
            grid = self.network.grid
            occupied: Set[Cell] = set()
            for node in self.network.nodes.values():
                if node.up:
                    occupied.add(grid.cell_of(grid.position_of(node.id)))
            self._occupied = occupied
        return self._occupied

    # -- planning ------------------------------------------------------------

    def _straight_corridor(self, start: Cell, goal: Cell) -> FrozenSet[Cell]:
        """The straight cell walk start→goal, dilated by one ring."""
        walk = [start]
        cx, cy = start
        gx, gy = goal
        while (cx, cy) != (gx, gy):
            cx += (gx > cx) - (gx < cx)
            cy += (gy > cy) - (gy < cy)
            walk.append((cx, cy))
        return frozenset(
            (wx + dx, wy + dy)
            for wx, wy in walk
            for dx in (-1, 0, 1)
            for dy in (-1, 0, 1)
        )

    def _greedy_corridor(
        self,
        source_id: str,
        target_id: str,
        corridor: FrozenSet[Cell],
        goal_cell: Cell,
        hop_limit: int,
    ) -> Optional[List[str]]:
        """Gateway walk: hop neighbour-to-neighbour inside ``corridor``,
        always trying the neighbour closest to the target first (fewest
        cells to go, then metres, then id — fully deterministic) and
        backtracking out of dead ends.  Visited nodes stay burned, so
        the walk is best-first DFS: O(path length x degree) on open
        ground, O(corridor area) at worst.  Returns None when the
        corridor is exhausted or every route exceeds ``hop_limit``
        (which enforces the stretch bound by construction); the caller
        then falls through to the certificate and the flat fallback.
        """
        network = self.network
        grid = network.grid
        nodes = network.nodes
        goal_position = grid.position_of(target_id)

        def children_of(node_id):
            """(target is adjacent?, unvisited candidates; stack order —
            pop() yields the most promising first)."""
            ranked = []
            for peer in network.neighbors(nodes[node_id]):
                peer_id = peer.id
                if peer_id == target_id:
                    return True, []
                if peer_id in seen:
                    continue
                position = grid.position_of(peer_id)
                cell = grid.cell_of(position)
                if cell not in corridor:
                    continue
                ranked.append(
                    (
                        max(
                            abs(cell[0] - goal_cell[0]),
                            abs(cell[1] - goal_cell[1]),
                        ),
                        position.distance_to(goal_position),
                        peer_id,
                    )
                )
            ranked.sort(reverse=True)
            return False, [peer_id for _, _, peer_id in ranked]

        seen = {source_id}
        path = [source_id]
        adjacent, candidates = children_of(source_id)
        if adjacent:
            return [source_id, target_id]
        stack = [candidates]
        while stack:
            if not stack[-1] or len(path) >= hop_limit:
                # Dead end, or no budget left for "one more hop plus
                # the closing hop": backtrack.
                stack.pop()
                path.pop()
                continue
            node_id = stack[-1].pop()
            if node_id in seen:
                # Reached first through a different branch meanwhile.
                continue
            seen.add(node_id)
            path.append(node_id)
            adjacent, candidates = children_of(node_id)
            if adjacent:
                path.append(target_id)
                return path
            stack.append(candidates)
        return None

    def _cells_connected(self, start: Cell, goal: Cell) -> bool:
        """BFS over occupied cells (8-connected); False is an exact
        proof of node-level unreachability."""
        occupied = self._occupied_cells()
        if start not in occupied or goal not in occupied:
            return False
        seen = {start}
        frontier = [start]
        while frontier:
            if goal in seen:
                return True
            next_frontier: List[Cell] = []
            for cx, cy in frontier:
                for dx, dy in _RING:
                    step = (cx + dx, cy + dy)
                    if step not in seen and step in occupied:
                        seen.add(step)
                        next_frontier.append(step)
            frontier = next_frontier
        return goal in seen

    def path(self, source_id: str, target_id: str) -> Optional[List[str]]:
        """A path within the stretch bound, or None iff flat BFS would
        also find none."""
        network = self.network
        if source_id == target_id:
            return [source_id]
        if len(network) < self.flat_threshold or not self.adhoc_only:
            self._count("flat", node=source_id)
            return self.table.path(source_id, target_id)
        source = network.nodes.get(source_id)
        target = network.nodes.get(target_id)
        if source is None or target is None or not (source.up and target.up):
            # Flat BFS answers None for unknown/down endpoints; match it.
            return None
        self._sync()
        cached = self._paths.get((source_id, target_id))
        if cached is not None:
            self._count("hits", node=source_id)
            path, _cells = cached
            return list(path) if path is not None else None
        self._count("misses", node=source_id)
        grid = network.grid
        s_cell = grid.cell_of(grid.position_of(source_id))
        t_cell = grid.cell_of(grid.position_of(target_id))
        cell_distance = max(
            abs(s_cell[0] - t_cell[0]), abs(s_cell[1] - t_cell[1])
        )
        path = self._greedy_corridor(
            source_id,
            target_id,
            self._straight_corridor(s_cell, t_cell),
            t_cell,
            self.stretch * max(cell_distance, 1) + 2,
        )
        if path is not None:
            # The hop limit IS the stretch bound, so no re-check needed.
            self._count("greedy", node=source_id)
            return self._remember(source_id, target_id, path)
        if not self._cells_connected(s_cell, t_cell):
            # Exact: every node path induces an occupied-cell path.
            self._count("cell_unreachable", node=source_id)
            return self._remember(source_id, target_id, None)
        # Sparse/maze-like world: pay one flat BFS, get the exact answer
        # (and the optimal path, so the stretch bound holds trivially).
        self._count("flat_fallback", node=source_id)
        path = self.table.path(source_id, target_id)
        return self._remember(source_id, target_id, path)

    def _remember(
        self, source_id: str, target_id: str, path: Optional[List[str]]
    ) -> Optional[List[str]]:
        if path is None:
            self._paths[(source_id, target_id)] = (None, None)
            return None
        grid = self.network.grid
        cells = frozenset(
            grid.cell_of(grid.position_of(node_id)) for node_id in path
        )
        self._paths[(source_id, target_id)] = (tuple(path), cells)
        return path

    def next_hop(self, source_id: str, target_id: str) -> Optional[str]:
        """The first relay on the planned path, or None when unreachable."""
        path = self.path(source_id, target_id)
        if path is None or len(path) < 2:
            return None
        return path[1]


class Router:
    """Hop-by-hop forwarding built on :class:`Transport`."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        transport: Transport,
        adhoc_only: bool = True,
        max_hops: int = 32,
        table=None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.env = env
        self.network = network
        self.transport = transport
        self.adhoc_only = adhoc_only
        self.max_hops = max_hops
        #: Any planner with ``path(source_id, target_id)`` works —
        #: pass a :class:`HierarchicalRouter` for city-scale worlds.
        self.table = (
            table
            if table is not None
            else RoutingTable(network, adhoc_only=adhoc_only, metrics=metrics)
        )

    def send_multihop(self, message: Message) -> Process:
        """Relay ``message`` towards its destination; resolves to the hop
        count on success, and fails with :class:`Unreachable` when no
        path exists (checked before every hop)."""
        return self.env.process(
            self._relay(message), name=f"route#{message.id}"
        )

    def _relay(self, message: Message) -> Generator:
        current = message.source
        hops = 0
        if message.created_at == 0.0:
            message.created_at = self.env.now
        while current != message.destination:
            if hops >= self.max_hops:
                raise Unreachable(
                    f"gave up after {hops} hops towards {message.destination}"
                )
            path = self.table.path(current, message.destination)
            if path is None or len(path) < 2:
                raise Unreachable(
                    f"no path from {current} to {message.destination}"
                )
            next_hop = path[1]
            leg = Message(
                source=current,
                destination=next_hop,
                kind="net.relay",
                payload=message,
                size_bytes=message.size_bytes,
                created_at=message.created_at,
            )
            yield self.transport.send_reliable(leg)
            hops += 1
            current = next_hop
            # The leg sits in the hop's inbox; reclaim it so dispatch loops
            # never see relay plumbing.
            hop_node = self.network.node(current)
            removal = hop_node.inbox.get(
                predicate=lambda m, leg_id=leg.id: m.id == leg_id
            )
            if removal.triggered:
                yield removal
            else:
                # A dispatcher consumed it first; it is expected to ignore
                # the reserved "net.relay" kind.
                removal.cancel()
        message.hops = hops
        message.via = "multihop"
        destination_node = self.network.node(message.destination)
        yield destination_node.inbox.put(message)
        return hops
