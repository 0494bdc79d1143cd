"""The network: node registry and instantaneous connectivity.

Connectivity is a pure function of node positions and interface states,
so mobility and churn are reflected immediately:

* two usable *ad-hoc* interfaces of the same technology connect when the
  nodes are within radio range;
* two usable *attached* infrastructure interfaces (of any technologies)
  connect through the fixed backbone — e.g. a GPRS handset reaching a
  LAN server; the path takes the minimum bandwidth and the sum of
  latencies plus a backbone hop.

Topology queries are *incremental* rather than recomputed: every
mutation that can change connectivity (node add, move, crash/restart,
interface enable/disable/attach/detach) bumps a **topology epoch**, and
``links_between``/``neighbors``/``adjacency`` results are cached until
the epoch moves; paths are planned by
:class:`~repro.net.routing.RoutingTable` over ``adjacency``.  Candidate
enumeration uses a :class:`~repro.net.geometry.SpatialGrid` so range
queries touch only nearby nodes.  The cached fast paths are
bit-identical to the naive sweeps in ``tests/net/reference.py``
(property-tested under random mobility).

Per-cell **stamps** let the fabric scale past ~10k nodes (see
docs/PERFORMANCE.md, "City-scale routing"): each epoch bump writes the
new epoch on every grid cell it changed — one cell for a node that
stays in its cell, two for one that crosses — and nowhere else.  One
rule reads them (:meth:`Network.cells_unchanged_since`): a path cached
by the hierarchical router survives while no stamp on a cell it
crosses is newer than the path, and a per-pair/per-node cache entry
while no stamp on the 3×3 cells around its endpoints' cells is (nine
lookups per distinct endpoint cell).  Whole-graph products still clear on every
bump, and a global bump (grid rebuild, link-filter swap) drops every
tagged entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import hypot
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..errors import NetworkError
from ..sim import Environment
from .geometry import SpatialGrid
from .node import Interface, NetworkNode
from .technologies import BACKBONE_LATENCY_S, LinkTechnology

Cell = Tuple[int, int]


@dataclass(frozen=True)
class Link:
    """The effective path between two nodes at one instant."""

    sender_technology: LinkTechnology
    receiver_technology: LinkTechnology
    bandwidth_bps: float
    latency_s: float
    loss: float
    via_backbone: bool

    def transfer_time(self, size_bytes: int) -> float:
        return size_bytes * 8.0 / self.bandwidth_bps

    @property
    def name(self) -> str:
        if self.via_backbone:
            return (
                f"{self.sender_technology.name}~backbone~"
                f"{self.receiver_technology.name}"
            )
        return self.sender_technology.name

    @property
    def is_free(self) -> bool:
        """True when neither endpoint pays a metered tariff for it."""
        return (
            self.sender_technology.cost_per_mb == 0.0
            and self.sender_technology.cost_per_minute == 0.0
            and self.receiver_technology.cost_per_mb == 0.0
            and self.receiver_technology.cost_per_minute == 0.0
        )


def _direct_link(tech: LinkTechnology) -> Link:
    return Link(
        sender_technology=tech,
        receiver_technology=tech,
        bandwidth_bps=tech.bandwidth_bps,
        latency_s=tech.latency_s,
        loss=tech.loss,
        via_backbone=False,
    )


def _backbone_link(sender: LinkTechnology, receiver: LinkTechnology) -> Link:
    return Link(
        sender_technology=sender,
        receiver_technology=receiver,
        bandwidth_bps=min(sender.bandwidth_bps, receiver.bandwidth_bps),
        latency_s=sender.latency_s + BACKBONE_LATENCY_S + receiver.latency_s,
        loss=1.0 - (1.0 - sender.loss) * (1.0 - receiver.loss),
        via_backbone=True,
    )


def prefer_free_then_fast(link: Link) -> tuple:
    """The link rule: free links first, then highest bandwidth, then
    lowest latency."""
    return (0 if link.is_free else 1, -link.bandwidth_bps, link.latency_s)


def bfs_tree(
    graph: Dict[str, Tuple[str, ...]], source_id: str
) -> Dict[str, str]:
    """BFS predecessor tree over an adjacency snapshot.

    Each node expands its sorted neighbour tuple, so predecessor
    assignment and frontier order match the reference sweep exactly.
    """
    previous: Dict[str, str] = {}
    seen = {source_id}
    frontier = [source_id]
    while frontier:
        next_frontier: List[str] = []
        for current in frontier:
            for neighbor in graph.get(current, ()):
                if neighbor in seen:
                    continue
                seen.add(neighbor)
                previous[neighbor] = current
                next_frontier.append(neighbor)
        frontier = next_frontier
    return previous


def walk_tree(
    previous: Dict[str, str], source_id: str, target_id: str
) -> Optional[List[str]]:
    """Source→target node path from a predecessor tree, or None."""
    if source_id == target_id:
        return [source_id]
    if target_id not in previous:
        return None
    walk = [target_id]
    while walk[-1] != source_id:
        walk.append(previous[walk[-1]])
    walk.reverse()
    return walk


class Network:
    """Registry of nodes plus epoch-cached connectivity queries."""

    #: Default spatial-hash cell size; grown to the longest radio range
    #: seen so a single query ring covers one full range circle.
    DEFAULT_CELL_M = 100.0

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.nodes: Dict[str, NetworkNode] = {}
        self._grid = SpatialGrid(cell_size=self.DEFAULT_CELL_M)
        #: Node id -> registration index; imposes registry iteration
        #: order on grid candidates so results match the naive sweep.
        self._order: Dict[str, int] = {}
        self._epoch = 0
        self._cache_epoch = -1
        #: Per-pair/per-node caches are *tagged* with the epoch they
        #: were computed at and revalidated lazily against the cell
        #: stamps, so entries untouched by a localised change survive
        #: it; a global bump empties them.
        self._links_cache: Dict[
            Tuple[str, str], Tuple[int, Tuple[Link, ...]]
        ] = {}
        self._neighbors_cache: Dict[
            Tuple[str, Optional[str]], Tuple[int, Tuple[NetworkNode, ...]]
        ] = {}
        #: Whole-graph snapshots clear on any epoch change.
        self._adjacency_cache: Dict[bool, Dict[str, Tuple[str, ...]]] = {}
        self.cache_stats = {
            "hits": 0,
            "misses": 0,
            "invalidations": 0,
            "revalidations": 0,
            "dirty_nodes": 0,
        }
        #: Cell -> newest epoch whose bump touched this cell; a cached
        #: path is stale once a cell it crosses is stamped newer, a
        #: tagged entry once a cell around one of its endpoints is.
        self._cell_stamp: Dict[Cell, int] = {}
        #: Epoch of the newest global bump; nothing older survives it.
        self._global_epoch = 0
        #: Optional admission predicate over (sender id, receiver id):
        #: when set, pairs it rejects have no links at all — the
        #: injection point :mod:`repro.faults` uses to model network
        #: partitions.  Installing/clearing it bumps the topology epoch
        #: so every cached connectivity answer is recomputed.
        self._link_filter: Optional[Callable[[str, str], bool]] = None

    def add_node(self, node: NetworkNode) -> NetworkNode:
        if node.id in self.nodes:
            raise NetworkError(f"duplicate node id {node.id!r}")
        if node._network is not None and node._network is not self:
            raise NetworkError(
                f"node {node.id!r} already belongs to another network"
            )
        self.nodes[node.id] = node
        self._order[node.id] = len(self._order)
        node._network = self
        cell_size = self._grid.cell_size
        for interface in node.interfaces.values():
            self._note_range(interface.technology)
        _, cell = self._grid.move(node.id, node.position)
        if self._grid.cell_size != cell_size:
            self._bump()  # grid rebuilt: every cached cell id is stale
        else:
            self._bump(node.id, (cell,))
        return node

    def node(self, node_id: str) -> NetworkNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise NetworkError(f"unknown node {node_id!r}") from None

    def __contains__(self, node_id: str) -> bool:
        return node_id in self.nodes

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def grid(self) -> SpatialGrid:
        """The live spatial index (read-only use by routers/monitors)."""
        return self._grid

    # -- topology epoch -------------------------------------------------------

    @property
    def topology_epoch(self) -> int:
        """Monotonic counter; unchanged epoch guarantees identical
        answers from every connectivity query."""
        return self._epoch

    def _bump(
        self, node_id: Optional[str] = None, cells: Tuple[Cell, ...] = ()
    ) -> None:
        """Advance the epoch, stamping what changed.

        ``node_id=None`` records a *global* change (grid rebuild, link
        filter swap): the stamps clear, and every tagged cache entry and
        cached path from before it dies.  Otherwise each grid cell the
        dirty node can have affected gets the new epoch as its stamp.
        """
        self._epoch += 1
        epoch = self._epoch
        if node_id is None:
            self._global_epoch = epoch
            # No entry tagged before this epoch can be served again.
            self._cell_stamp.clear()
            self._links_cache.clear()
            self._neighbors_cache.clear()
        else:
            stamp = self._cell_stamp
            for cell in cells:
                stamp[cell] = epoch
            self.cache_stats["dirty_nodes"] += 1

    def cells_unchanged_since(self, epoch: int, cells: Iterable[Cell]) -> bool:
        """True when no bump after ``epoch`` touched any of ``cells``.

        A moved node stamps both its old and new cell, and every change
        to a node stamps the cell it sits in, so a walk whose nodes all
        sat in ``cells`` at ``epoch`` still has every one of its links.
        """
        if epoch < self._global_epoch:
            return False
        stamp = self._cell_stamp
        for cell in cells:
            if stamp.get(cell, -1) > epoch:
                return False
        return True

    def _entry_fresh(self, entry_epoch: int, *node_ids: str) -> bool:
        """True when a tagged cache entry provably still holds.

        The entry is about the registered nodes ``node_ids``; it
        survives a newer epoch iff no global bump came after it and no
        bump since touched a cell within one ring of any of their grid
        cells — no mutation since could have touched a link predicate
        whose endpoints sit there, as the cell size is the longest
        radio range.  :meth:`cells_unchanged_since` over those rings,
        inlined: this runs on every revalidation.
        """
        if entry_epoch < self._global_epoch:
            return False
        stamp = self._cell_stamp.get
        item_cell = self._grid.item_cell
        for cx, cy in set(map(item_cell, node_ids)):
            for x in (cx - 1, cx, cx + 1):
                if (
                    stamp((x, cy - 1), -1) > entry_epoch
                    or stamp((x, cy), -1) > entry_epoch
                    or stamp((x, cy + 1), -1) > entry_epoch
                ):
                    return False
        return True

    def cache_info(self) -> Dict[str, float]:
        """Flat snapshot of cache effectiveness for reports/benchmarks."""
        info = {
            "epoch": float(self._epoch),
            "grid_cell_m": self._grid.cell_size,
        }
        for key, value in self.cache_stats.items():
            info[key] = float(value)
        return info

    @property
    def link_filter(self) -> Optional[Callable[[str, str], bool]]:
        return self._link_filter

    def set_link_filter(
        self, predicate: Optional[Callable[[str, str], bool]]
    ) -> None:
        """Install (or with ``None`` clear) the link admission filter.

        The predicate sees ``(sender id, receiver id)`` and returns
        False to sever every link between the pair.  It must be pure
        with respect to the topology epoch: the filter's answers are
        baked into the connectivity caches, so whoever mutates the
        predicate's underlying state must call this setter again (each
        call bumps the epoch).
        """
        self._link_filter = predicate
        self._bump()

    def _note_range(self, technology: LinkTechnology) -> None:
        if technology.range_m > self._grid.cell_size:
            self._grid.rebuild(technology.range_m)

    # Mutation hooks, called from NetworkNode/Interface.

    def _node_moved(self, node: NetworkNode) -> None:
        if self.nodes.get(node.id) is not node:
            return
        old_cell, new_cell = self._grid.move(node.id, node.position)
        if old_cell == new_cell:
            self._bump(node.id, (new_cell,))
        else:
            self._bump(node.id, (old_cell, new_cell))

    def _topology_changed(self, node: NetworkNode) -> None:
        if self.nodes.get(node.id) is node:
            self._bump(node.id, (self._grid.item_cell(node.id),))
        else:
            self._bump(node.id)

    def _interface_added(
        self, node: NetworkNode, technology: LinkTechnology
    ) -> None:
        cell_size = self._grid.cell_size
        self._note_range(technology)
        if self._grid.cell_size != cell_size:
            self._bump()  # rebuild renumbered every cell
        else:
            self._topology_changed(node)

    def _validate_caches(self) -> None:
        if self._cache_epoch != self._epoch:
            # Whole-graph products clear; tagged per-node/per-pair
            # entries are revalidated individually at read time.
            self._adjacency_cache.clear()
            self._cache_epoch = self._epoch
            self.cache_stats["invalidations"] += 1

    def _registered(self, node: NetworkNode) -> bool:
        return self.nodes.get(node.id) is node

    # -- connectivity --------------------------------------------------------

    def _cached(
        self, cache: Dict, key: tuple, node_ids: Tuple[str, ...]
    ) -> Optional[tuple]:
        """The answer ``cache`` holds under ``key`` if it still holds,
        re-tagged to the current epoch, or None (counted as a miss).

        An entry tagged at an older epoch is served again only while
        :meth:`_entry_fresh` vouches for its nodes ``node_ids``.
        """
        self._validate_caches()
        epoch = self._epoch
        stats = self.cache_stats
        entry = cache.get(key)
        if entry is not None:
            entry_epoch, value = entry
            if entry_epoch == epoch:
                stats["hits"] += 1
                return value
            if self._entry_fresh(entry_epoch, *node_ids):
                cache[key] = (epoch, value)
                stats["hits"] += 1
                stats["revalidations"] += 1
                return value
        stats["misses"] += 1
        return None

    def links_between(self, a: NetworkNode, b: NetworkNode) -> Tuple[Link, ...]:
        """Every link that could carry a message from ``a`` to ``b`` now."""
        if a.id == b.id:
            raise NetworkError(f"node {a.id!r} cannot link to itself")
        if not (self._registered(a) and self._registered(b)):
            return self._compute_links(a, b)
        key = (a.id, b.id)
        links = self._cached(self._links_cache, key, key)
        if links is None:
            links = self._compute_links(a, b)
            self._links_cache[key] = (self._epoch, links)
        return links

    def _compute_links(self, a: NetworkNode, b: NetworkNode) -> Tuple[Link, ...]:
        if not (a.up and b.up):
            return ()
        if self._link_filter is not None and not self._link_filter(a.id, b.id):
            return ()
        links: List[Link] = []
        a_ifaces = a.usable_interfaces()
        b_by_name = {i.technology.name: i for i in b.usable_interfaces()}
        # Direct ad-hoc links: same technology, within range.
        for iface in a_ifaces:
            tech = iface.technology
            peer = b_by_name.get(tech.name)
            if peer is None or not tech.is_adhoc:
                continue
            if a.position.distance_to(b.position) <= tech.range_m:
                links.append(_direct_link(tech))
        # Backbone links: any attached infrastructure pair.  Radio-based
        # infrastructure (hotspot Wi-Fi) additionally needs an in-range
        # base station/access point.
        a_infra = [
            i
            for i in a_ifaces
            if i.technology.infrastructure and self._infra_covered(a, i)
        ]
        b_infra = [
            i
            for i in b_by_name.values()
            if i.technology.infrastructure and self._infra_covered(b, i)
        ]
        for sender in a_infra:
            for receiver in b_infra:
                links.append(
                    _backbone_link(sender.technology, receiver.technology)
                )
        return tuple(links)

    def _infra_covered(self, node: NetworkNode, interface: Interface) -> bool:
        """True when ``node`` has coverage for an infrastructure radio.

        Wired/cellular technologies (``range_m == 0``) are covered
        everywhere; radio infrastructure (e.g. hotspot Wi-Fi) needs a
        *fixed* node carrying the same technology within range — the
        access point.  Fixed nodes are their own base stations.  Not
        cached: the answer only feeds :meth:`_compute_links`, whose
        per-pair result is, and an access point in range sits within
        one ring of ``node``'s cell, where that entry's stamps look.
        """
        technology = interface.technology
        if technology.range_m <= 0 or node.fixed:
            return True
        for other_id in self._grid.near(node.position, technology.range_m):
            if other_id == node.id:
                continue
            other = self.nodes[other_id]
            if not other.fixed or not other.up:
                continue
            access_point = other.interfaces.get(technology.name)
            if access_point is not None and access_point.enabled:
                return True
        return False

    def best_link(self, a: NetworkNode, b: NetworkNode) -> Optional[Link]:
        """The link from ``a`` to ``b`` that :func:`prefer_free_then_fast`
        ranks first, or None if unreachable; a lone link is returned
        without ranking."""
        links = self.links_between(a, b)
        if len(links) < 2:
            return links[0] if links else None
        return min(links, key=prefer_free_then_fast)

    def connected(self, a_id: str, b_id: str) -> bool:
        return self.best_link(self.node(a_id), self.node(b_id)) is not None

    def neighbors(
        self, node: NetworkNode, technology: Optional[LinkTechnology] = None
    ) -> Tuple[NetworkNode, ...]:
        """Nodes reachable from ``node`` over *ad-hoc* radio right now.

        With ``technology`` given, restrict to that radio; otherwise any
        shared ad-hoc technology counts.  Returns an immutable tuple in
        node-registration order (the order the naive sweep produced).
        """
        if not node.up:
            return ()
        cacheable = self._registered(node)
        key = (node.id, technology.name if technology is not None else None)
        if cacheable:
            cached = self._cached(self._neighbors_cache, key, (node.id,))
            if cached is not None:
                return cached
        result: Tuple[NetworkNode, ...] = ()
        radios = self.adhoc_radios(node, technology)
        if radios:
            # Any ad-hoc neighbour sits within the longest usable
            # range, so a single grid ring bounds the sweep.
            candidates = self._grid.near(node.position, radios[0][1])
            candidates.sort(key=self._order.__getitem__)
            result = tuple(self.adhoc_peers(node, radios, candidates))
        if cacheable:
            self._neighbors_cache[key] = (self._epoch, result)
        return result

    def adhoc_radios(
        self, node: NetworkNode, technology: Optional[LinkTechnology] = None
    ) -> List[Tuple[str, float]]:
        """``node``'s usable ad-hoc radios as (technology name, range)
        pairs, longest range first, so ``radios[0][1]`` is how far the
        node reaches.

        With ``technology`` given, only that radio counts.  A down node
        has no usable radio.
        """
        radios: List[Tuple[str, float]] = []
        if not node.up:
            return radios
        for iface in node.interfaces.values():
            # ``Interface.usable`` for an ad-hoc radio on an up node.
            tech = iface.technology
            if tech.infrastructure or not iface.enabled:
                continue
            if technology is not None and tech.name != technology.name:
                continue
            radios.append((tech.name, tech.range_m))
        if len(radios) > 1:
            radios.sort(key=itemgetter(1), reverse=True)
        return radios

    def adhoc_peers(
        self,
        node: NetworkNode,
        radios: List[Tuple[str, float]],
        candidate_ids: Iterable[str],
    ) -> List[NetworkNode]:
        """The candidates that ``node`` reaches over one of ``radios``
        (as :meth:`adhoc_radios` returns them) right now, in candidate
        order.

        The direct-link predicate of :meth:`_compute_links`, on ids and
        positions: ``other`` is reached iff it is up, the link filter
        admits (node, other), and one of the radios reaches it and finds
        a usable same-name interface there.  No Link is built; only sent
        legs need one.  ``node`` itself is never reached.
        """
        if not radios:
            return []
        reach = radios[0][1]
        x, y = node.position.x, node.position.y
        node_id = node.id
        nodes = self.nodes
        link_filter = self._link_filter
        found: List[NetworkNode] = []
        for other_id in candidate_ids:
            other = nodes[other_id]
            # ``Position.distance_to``, inlined; most candidates of a
            # grid sweep are out of reach, so this test comes first.
            position = other.position
            distance = hypot(x - position.x, y - position.y)
            if distance > reach or other_id == node_id or not other.up:
                continue
            if link_filter is not None and not link_filter(node_id, other_id):
                continue
            interfaces = other.interfaces
            for name, range_m in radios:
                if distance <= range_m:
                    peer = interfaces.get(name)
                    if peer is not None and peer.usable:
                        found.append(other)
                        break
        return found

    def adjacency(
        self, adhoc_only: bool = False
    ) -> Dict[str, Tuple[str, ...]]:
        """Snapshot of the connectivity graph: each up node's sorted
        neighbour ids.

        Ad-hoc edges come from :meth:`neighbors`, so they follow the
        link filter per direction: ``b`` is listed under ``a`` iff the
        filter admits ``(a, b)``.  Unless ``adhoc_only``, every pair of
        backbone-attached nodes that the filter admits *both ways* is
        written out too, so B attached nodes cost O(B²) edges.  Under
        an asymmetric filter the snapshot is therefore not symmetric.
        Only *up* nodes appear as keys.  The returned snapshot is
        cached — treat it as read-only.
        """
        self._validate_caches()
        cached = self._adjacency_cache.get(adhoc_only)
        if cached is not None:
            self.cache_stats["hits"] += 1
            return cached
        self.cache_stats["misses"] += 1
        sets: Dict[str, set] = {}
        up_nodes = [node for node in self.nodes.values() if node.up]
        for node in up_nodes:
            sets[node.id] = {other.id for other in self.neighbors(node)}
        if not adhoc_only:
            attached = [
                node.id
                for node in up_nodes
                if self._has_backbone_access(node)
            ]
            link_filter = self._link_filter
            for index, a_id in enumerate(attached):
                a_bucket = sets[a_id]
                for b_id in attached[index + 1 :]:
                    if link_filter is None or (
                        link_filter(a_id, b_id) and link_filter(b_id, a_id)
                    ):
                        a_bucket.add(b_id)
                        sets[b_id].add(a_id)
        graph = {
            node_id: tuple(sorted(neighbor_ids))
            for node_id, neighbor_ids in sets.items()
        }
        self._adjacency_cache[adhoc_only] = graph
        return graph

    def _has_backbone_access(self, node: NetworkNode) -> bool:
        for iface in node.usable_interfaces():
            if iface.technology.infrastructure and self._infra_covered(node, iface):
                return True
        return False


#: The ISSUE/design name for the simulated physical fabric.
PhysicalNetwork = Network
