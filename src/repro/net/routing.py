"""Multi-hop relaying over the ad-hoc connectivity graph.

Direct links only reach one hop; the router forwards a message along a
planned path, paying every hop's transmission time and loss.  It
source-routes (Dynamic Source Routing, Johnson & Maltz 1996): the route
is planned once at the source and carried with the message; before each
hop one link lookup checks that the route's next node is still in
range, and only a broken link makes it plan again, from the node the
message has reached.  It gives up when the destination becomes
unreachable.

A multi-hop send is no process: it runs as a :class:`_Relay`, a chain
of callbacks on its legs' acknowledgements, and returns a plain
:class:`~repro.sim.Event`.  Its legs (kind
:data:`~repro.net.message.RELAY_KIND`) never enter an inbox; only the
relayed message itself is put into the destination's inbox.  Each hop
costs the leg's own events plus one hop event, in the queue slot where
the old relay process reclaimed the leg from the hop's inbox, so runs
replay event for event as before (docs/PERFORMANCE.md, "Multi-hop
relays without processes").

Path planning goes through an epoch-memoised :class:`RoutingTable`:
one BFS from a source yields the shortest-path tree to *every*
destination, and the trees are flushed whenever the topology epoch
moves.

For city-scale worlds :class:`HierarchicalRouter` first walks
neighbour to neighbour through the straight corridor of
:class:`~repro.net.geometry.SpatialGrid` cells between the endpoints,
and only when that walk misses pays one flat BFS, which also gives
every negative answer.  Its paths may be longer than flat-BFS paths,
but never by more than the documented stretch bound, and its
*reachability* answers are bit-identical to the naive reference sweeps
(see docs/PERFORMANCE.md, "City-scale routing").
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from ..errors import Unreachable
from ..sim import Environment, Event, MetricsRegistry
from ..sim.events import PENDING
from .message import RELAY_KIND, Message
from .network import Cell, Network, bfs_tree, walk_tree
from .transport import Transport

class RoutingTable:
    """Epoch-memoised shortest-path trees over one network.

    The one flat planner: ``path(source, target)`` is the hop-minimal
    path with sorted tie-breaking, and one tree answers every target
    for its source.  Any topology epoch change flushes every tree.
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
    2. **Flat fallback.**  If the walk misses (sparse or maze-like
       worlds, or no path at all), delegate to the flat
       :class:`RoutingTable`.

    *Reachability is bit-identical to flat BFS* (positives are real
    node-level walks, negatives only come from the flat fallback).  *Hop counts are not*: the walk's hop limit is
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
            "flat_fallback": 0,
        }

    def _count(self, key: str, node: str) -> None:
        self.stats[key] += 1
        if self.metrics is not None:
            # The labeled child forwards to the flat family total.
            self.metrics.counter(
                f"routing.hier.{key}", labels={"node": node}
            ).increment()

    # -- path cache maintenance ----------------------------------------------

    def _sync(self) -> None:
        network = self.network
        epoch = network.topology_epoch
        grid_size = network.grid.cell_size
        if epoch == self._epoch and grid_size == self._cell_size:
            return
        if self._cell_size != grid_size or self._epoch < 0:
            # First use, or the grid was rebuilt (every cell id is new).
            self._paths.clear()
        else:
            _, cells = network.dirty_cells_since(self._epoch)
            if cells is None:
                self._paths.clear()
            elif cells:
                self._apply_dirty(cells)
        self._epoch = epoch
        self._cell_size = grid_size

    def _apply_dirty(self, cells: FrozenSet[Cell]) -> None:
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
        then falls through to the flat fallback.
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


class Router:
    """Source-routed multi-hop forwarding built on :class:`Transport`.

    Each message costs one ``table.path()`` plan at its source; the
    route is walked hop by hop and planned again, from the node the
    message has reached, only when the link to the route's next node is
    gone.
    """

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

    def send_multihop(self, message: Message) -> Event:
        """Relay ``message`` towards its destination along a route
        planned at the source; resolves to the hop count on success.

        Fails with :class:`Unreachable` when a link on the route breaks
        and no path remains from the node the message has reached,
        after ``max_hops`` hops, or when the destination is down once
        the last leg is acknowledged; a failed leg fails it with the
        leg's error.
        """
        return _Relay(self, message).done

    def _link_up(self, sender_id: str, receiver_id: str) -> bool:
        """Whether ``sender_id`` can still reach ``receiver_id`` in one
        hop (one cached pair lookup; backbone links do not count when
        ``adhoc_only``)."""
        nodes = self.network.nodes
        links = self.network.links_between(
            nodes[sender_id], nodes[receiver_id]
        )
        if self.adhoc_only:
            return any(not link.via_backbone for link in links)
        return bool(links)


class _Relay:
    """One multi-hop send, run as kernel callbacks instead of a
    generator process (as :class:`~repro.net.transport._Leg` runs one
    leg).

    The steps:

    1. ``_advance``, first in the caller's event, then in each hop
       event, checks the next link, re-plans if it broke, and starts
       the leg from ``current`` with ``send_reliable``; at the
       destination it schedules ``done`` at normal priority and puts
       the message into the destination's inbox;
    2. ``_acked`` (the leg's ``done``, its final acknowledgement)
       advances to the next node and schedules one normal-priority hop
       event at that instant, whose callback is ``_advance``.

    The hop event takes the queue slot of the inbox ``get`` that used
    to reclaim each leg, and ``done`` takes the slot of the
    destination's ``put`` event, whose only callback finished the
    process at once.  A failed leg, or any exception a step raises,
    fails ``done`` urgently, as it failed the process (the first
    step's too: ``send_multihop`` never raises at its call site).
    """

    __slots__ = ("router", "message", "done", "current", "hops", "route", "step")

    def __init__(self, router: Router, message: Message) -> None:
        self.router = router
        self.message = message
        self.current = message.source
        self.hops = 0
        #: The carried route and the index of ``current`` on it.  A fresh
        #: plan was made over links that exist now, so its first link is
        #: not checked again.
        self.route: Optional[List[str]] = None
        self.step = 0
        self.done = Event(router.env)
        if message.created_at == 0.0:
            message.created_at = router.env.now
        self._advance()

    def _fail(self, error: Exception) -> None:
        """Fail ``done`` with ``error`` now (urgent, as a process failed)."""
        done = self.done
        if done._value is not PENDING:
            # The outcome is already scheduled; surface the error.
            raise error
        done._ok = False
        done._value = error
        self.router.env.schedule(done, priority=True)

    def _acked(self, leg: Event) -> None:
        if not leg._ok:
            leg._defused = True
            self._fail(leg._value)  # type: ignore[arg-type]
            return
        self.hops += 1
        self.step += 1
        self.current = self.route[self.step]  # type: ignore[index]
        hop = Event(self.router.env)
        hop._value = None
        hop.callbacks.append(self._advance)
        self.router.env.schedule(hop)

    def _advance(self, _event: Optional[Event] = None) -> None:
        """Start the leg from ``current``, or deliver."""
        try:
            router = self.router
            message = self.message
            current = self.current
            destination = message.destination
            if current == destination:
                self._deliver()
                return
            if self.hops >= router.max_hops:
                raise Unreachable(
                    f"gave up after {self.hops} hops towards {destination}"
                )
            route = self.route
            if route is None or not router._link_up(
                current, route[self.step + 1]
            ):
                route = self.route = router.table.path(current, destination)
                if route is None or len(route) < 2:
                    raise Unreachable(f"no path from {current} to {destination}")
                self.step = 0
            leg = Message(
                source=current,
                destination=route[self.step + 1],
                kind=RELAY_KIND,
                payload=message,
                size_bytes=message.size_bytes,
                created_at=message.created_at,
            )
            router.transport.send_reliable(leg).callbacks.append(self._acked)
        except Exception as error:
            self._fail(error)

    def _deliver(self) -> None:
        message = self.message
        node = self.router.network.node(message.destination)
        # The last leg's ack can return after the destination crashed;
        # a downed node's inbox takes nothing.
        if not node.up:
            raise Unreachable(f"destination {message.destination} is down")
        message.hops = self.hops
        message.via = "multihop"
        done = self.done
        done._value = self.hops
        self.router.env.schedule(done)
        node.inbox.put_nowait(message)
