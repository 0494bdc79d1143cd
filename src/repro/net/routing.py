"""Multi-hop relaying over the ad-hoc connectivity graph.

Direct links only reach one hop; the router forwards a message along a
planned path, paying every hop's transmission time and loss.  It
source-routes (Dynamic Source Routing, Johnson & Maltz 1996): the route
is planned once at the source and carried with the message; before each
later hop one link lookup checks that the route's next node is still in
range (skipped while the topology epoch stands where it was at the
plan), and only a broken link makes it plan again, from the node the
message has reached.  It gives up when the destination becomes
unreachable.

A multi-hop send is no process: it runs as a :class:`_Relay`, a chain
of callbacks on its legs' acknowledgements, and returns a plain
:class:`~repro.sim.Event`.  Its legs (kind
:data:`~repro.net.message.RELAY_KIND`) never enter an inbox; only the
relayed message itself is put into the destination's inbox.  A hop
costs its leg's own events and nothing more: the relay starts the next
leg in the event that acknowledges the last one (docs/PERFORMANCE.md,
"Multi-hop relays without processes").

Path planning goes through an epoch-memoised :class:`RoutingTable`:
one BFS from a source yields the shortest-path tree to *every*
destination, and the trees are flushed whenever the topology epoch
moves.

For city-scale worlds :class:`HierarchicalRouter` first walks
neighbour to neighbour through the straight corridor of
:class:`~repro.net.geometry.SpatialGrid` cells between the endpoints,
and only when that walk misses pays one flat BFS, which also gives
every negative answer.  The walk is lazy: it builds no neighbour list,
and each node it expands tests and ranks only the peers in its nearest
corridor cells until the walk backtracks into it.  Its paths may be longer than flat-BFS paths,
but never by more than the documented stretch bound, and its
*reachability* answers are bit-identical to the naive reference sweeps
(see docs/PERFORMANCE.md, "City-scale routing").
"""

from __future__ import annotations

from heapq import heapify, heappop
from math import hypot
from typing import Dict, List, Optional, Tuple

from ..errors import Unreachable
from ..sim import Environment, Event, MetricsRegistry
from ..sim.events import PENDING
from .message import RELAY_KIND, Message
from .network import Cell, Network, bfs_tree, walk_tree
from .transport import Transport

#: The gateway walk's hop limit is ``STRETCH × max(cell distance, 1) +
#: 2``, so a walked path is at most that many times the flat one, plus 2.
STRETCH = 3


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
       target, testing and ranking only the peers in the nearest
       cells of each node it expands.  In dense worlds this finds a
       short path after touching O(path length × nearest-cell
       occupancy) nodes.
    2. **Flat fallback.**  If the walk misses (sparse or maze-like
       worlds, or no path at all), delegate to the flat
       :class:`RoutingTable`.

    *Reachability is bit-identical to flat BFS* (positives are real
    node-level walks, negatives only come from the flat fallback).
    *Hop counts are not*: the walk's hop limit is ``STRETCH ×
    max(cell_distance, 1) + 2``; since a flat path needs at least
    ``cell_distance`` hops, walked paths are within ``STRETCH ×
    flat_hops + 2`` of optimal, and fallback paths are optimal
    outright.  Worlds smaller than
    ``flat_threshold`` nodes — and any query over the backbone
    (``adhoc_only=False``), where every attached pair is one hop apart
    and hierarchy is pointless — skip straight to the flat table.

    Planned paths are cached per (source, target) with the topology
    epoch they were last confirmed at.  A lookup serves a path while
    the epoch stands still, or while no bump since has touched a cell
    it crosses (:meth:`Network.cells_unchanged_since`); negatives die
    on any change.
    """

    def __init__(
        self,
        network: Network,
        adhoc_only: bool = True,
        flat_threshold: int = 256,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.network = network
        self.adhoc_only = adhoc_only
        self.flat_threshold = flat_threshold
        self.metrics = metrics
        self.table = RoutingTable(network, adhoc_only=adhoc_only, metrics=metrics)
        #: (source, target) -> (epoch last confirmed at, path tuple or
        #: None, the distinct cells the path crosses or None).
        #: ``cells=None`` marks answers that any topology change can
        #: overturn (negatives).
        self._paths: Dict[
            Tuple[str, str],
            Tuple[int, Optional[Tuple[str, ...]], Optional[Tuple[Cell, ...]]],
        ] = {}
        self.stats = {
            "hits": 0,
            "misses": 0,
            "flat": 0,
            "greedy": 0,
            "flat_fallback": 0,
        }
        #: stats key -> {node -> its labeled ``routing.hier.*`` child},
        #: each resolved on first use (the run digest covers the metric
        #: snapshot, so no child may be registered early).
        self._counters: Dict[str, Dict[str, object]] = {
            key: {} for key in self.stats
        }

    def _count(self, key: str, node: str) -> None:
        self.stats[key] += 1
        if self.metrics is not None:
            # The labeled child forwards to the flat family total.
            counters = self._counters[key]
            counter = counters.get(node)
            if counter is None:
                counter = counters[node] = self.metrics.counter(
                    f"routing.hier.{key}", labels={"node": node}
                )
            counter.increment()

    # -- planning ------------------------------------------------------------

    def _straight_corridor(self, start: Cell, goal: Cell) -> Dict[Cell, int]:
        """The straight cell walk start→goal, dilated by one ring, as
        ``{cell: cells to go}``: each cell's Chebyshev distance to
        ``goal``, so ``corridor[start]`` is the endpoints' cell
        distance.  Built in one pass over the walk."""
        corridor: Dict[Cell, int] = {}
        cx, cy = start
        gx, gy = goal
        while True:
            for x in (cx - 1, cx, cx + 1):
                to_go_x = abs(x - gx)
                for y in (cy - 1, cy, cy + 1):
                    to_go_y = abs(y - gy)
                    corridor[x, y] = to_go_x if to_go_x > to_go_y else to_go_y
            if cx == gx and cy == gy:
                return corridor
            cx += (gx > cx) - (gx < cx)
            cy += (gy > cy) - (gy < cy)

    def _greedy_corridor(
        self,
        source_id: str,
        target_id: str,
        corridor: Dict[Cell, int],
        hop_limit: int,
    ) -> Optional[List[str]]:
        """Gateway walk: hop neighbour-to-neighbour inside ``corridor``,
        always trying the neighbour closest to the target first (fewest
        cells to go, then metres, then id — fully deterministic) and
        backtracking out of dead ends.  Visited nodes stay burned, so
        the walk is best-first DFS.  Returns None when the corridor is
        exhausted or every route exceeds ``hop_limit`` (which enforces
        the stretch bound by construction); the caller then falls
        through to the flat fallback.

        The walk is lazy.  No event runs while a plan is made, so an
        expansion needs no neighbour list: it takes the in-corridor grid
        cells within its node's longest radio range (a link never spans
        more than one cell per axis) and groups them by the cells to go
        that ``corridor`` maps them to.  Only the nearest group is tested
        with :meth:`Network.adhoc_peers` and ranked by (metres, id); the
        next group is opened only when the walk backtracks into an
        exhausted one.  So an expansion costs its nearest group, not its whole
        neighbourhood, and peers still come in exactly (cells to go,
        metres, id) order.
        """
        network = self.network
        nodes = network.nodes
        radios_of = network.adhoc_radios
        peers_of = network.adhoc_peers
        buckets_near = network.grid.buckets_near
        goal = network.grid.position_of(target_id)
        goal_x, goal_y = goal.x, goal.y
        target_only = (target_id,)
        seen = {source_id}
        to_go_of = corridor.get

        def expand(node):
            """None if the target is adjacent, else the node's frame:
            [node, radios, {cells to go: buckets} of the unopened
            groups, ranked peers of the open group (a heap)]."""
            radios = radios_of(node)
            groups = {}
            for cell, bucket in buckets_near(
                node.position, radios[0][1] if radios else -1.0
            ):
                to_go = to_go_of(cell)
                if to_go is not None:
                    group = groups.get(to_go)
                    if group is None:
                        groups[to_go] = [bucket]
                    else:
                        group.append(bucket)
            # Only the goal cell is 0 cells to go, and the target sits
            # in it.
            if 0 in groups and peers_of(node, radios, target_only):
                return None
            return [node, radios, groups, []]

        def next_peer(frame):
            """The frame's best unvisited peer, opening its groups
            nearest first; None once they are exhausted."""
            heap = frame[3]
            while True:
                while heap:
                    peer = heappop(heap)[2]
                    if peer.id not in seen:
                        return peer
                groups = frame[2]
                if not groups:
                    return None
                candidates = [
                    peer_id
                    for bucket in groups.pop(min(groups))
                    for peer_id in bucket
                    if peer_id not in seen
                ]
                heap = frame[3] = [
                    (
                        hypot(
                            peer.position.x - goal_x, peer.position.y - goal_y
                        ),
                        peer.id,
                        peer,
                    )
                    for peer in peers_of(frame[0], frame[1], candidates)
                ]
                heapify(heap)

        path = [source_id]
        frame = expand(nodes[source_id])
        if frame is None:
            return [source_id, target_id]
        stack = [frame]
        while stack:
            # No budget left for "one more hop plus the closing hop", or
            # a dead end: backtrack.
            node = next_peer(stack[-1]) if len(path) < hop_limit else None
            if node is None:
                stack.pop()
                path.pop()
                continue
            node_id = node.id
            seen.add(node_id)
            path.append(node_id)
            frame = expand(node)
            if frame is None:
                path.append(target_id)
                return path
            stack.append(frame)
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
        key = (source_id, target_id)
        cached = self._paths.get(key)
        if cached is not None:
            epoch = network.topology_epoch
            confirmed, path, cells = cached
            if confirmed == epoch or (
                cells is not None
                and network.cells_unchanged_since(confirmed, cells)
            ):
                if confirmed != epoch:
                    self._paths[key] = (epoch, path, cells)
                self._count("hits", node=source_id)
                return list(path) if path is not None else None
        self._count("misses", node=source_id)
        grid = network.grid
        s_cell = grid.item_cell(source_id)
        corridor = self._straight_corridor(s_cell, grid.item_cell(target_id))
        path = self._greedy_corridor(
            source_id,
            target_id,
            corridor,
            STRETCH * max(corridor[s_cell], 1) + 2,
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
        network = self.network
        epoch = network.topology_epoch
        if path is None:
            self._paths[(source_id, target_id)] = (epoch, None, None)
            return None
        item_cell = network.grid.item_cell
        cells = tuple({item_cell(node_id) for node_id in path})
        self._paths[(source_id, target_id)] = (epoch, tuple(path), cells)
        return path


class Router:
    """Source-routed multi-hop forwarding built on :class:`Transport`.

    Each message costs one ``table.path()`` plan at its source; the
    route is walked hop by hop and planned again, from the node the
    message has reached, only when the link to the route's next node is
    gone.

    The planner (``table=``) must keep one contract: every hop of a
    route it returns has a link at the topology epoch it returned it.
    :class:`RoutingTable` and :class:`HierarchicalRouter` keep it: they
    plan over the graph of the current epoch, and drop a tree or a
    cached path once a change could have touched one of its links
    (``tests/property/test_routing_properties.py`` checks it, both
    ``adhoc_only`` values, under an asymmetric link filter).  The relay
    relies on it to skip the link check of a route's later hops while
    the epoch has not moved; a planner that breaks it still cannot
    carry a message over a missing link, because each leg's own pick
    fails the hop with :class:`~repro.errors.Unreachable`.
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
        #: Any planner with ``path(source_id, target_id)`` that keeps
        #: the contract above works — pass a
        #: :class:`HierarchicalRouter` for city-scale worlds.
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

    1. ``_advance``, first in the caller's event, then in each leg's
       acknowledgement, checks the next link, re-plans if it broke, and
       starts the leg from ``current`` with ``send_reliable``; at the
       destination it schedules ``done`` at normal priority and puts
       the message into the destination's inbox.  The next link is
       checked only once the topology epoch has moved since the plan
       (``epoch``): until then the planner's contract says every hop
       of the route has a link.  A passed check vouches for that one
       hop only, so it leaves ``epoch`` at the plan's;
    2. ``_acked`` (a callback on the leg's ``done``, its final
       acknowledgement) advances to the next node and calls
       ``_advance`` in that same event.

    ``done`` takes the slot of the destination's ``put`` event, whose
    only callback finished the process at once.  A failed leg, or any
    exception a step raises, fails ``done`` urgently, as it failed the
    process (the first step's too: ``send_multihop`` never raises at
    its call site).
    """

    __slots__ = (
        "router",
        "message",
        "done",
        "current",
        "hops",
        "route",
        "step",
        "epoch",
    )

    def __init__(self, router: Router, message: Message) -> None:
        self.router = router
        self.message = message
        self.current = message.source
        self.hops = 0
        #: The carried route, the index of ``current`` on it and the
        #: topology epoch it was planned at.  A fresh plan was made over
        #: links that exist now, so its first link is not checked again.
        self.route: Optional[List[str]] = None
        self.step = 0
        self.epoch = -1
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
        self._advance()

    def _advance(self) -> None:
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
            network = router.network
            if route is None or (
                self.epoch != network.topology_epoch
                and not router._link_up(current, route[self.step + 1])
            ):
                route = self.route = router.table.path(current, destination)
                if route is None or len(route) < 2:
                    raise Unreachable(f"no path from {current} to {destination}")
                self.step = 0
                self.epoch = network.topology_epoch
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
