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
``links_between``/``neighbors``/``adjacency``/``reachable_set``/
``shortest_path`` results are cached until the epoch moves.  Candidate
enumeration uses a :class:`~repro.net.geometry.SpatialGrid` so range
queries touch only nearby nodes instead of the whole registry.  The
cached fast paths are bit-identical to the naive sweeps kept in
:mod:`repro.net.reference` (property-tested under random mobility).

A **dirty-cell journal** lets the fabric scale past ~10k nodes (see
docs/PERFORMANCE.md, "City-scale routing"): each epoch bump records
*which* grid cells changed.  The per-pair/per-node caches below survive
a bump when no dirty cell lies within one ring of their endpoints, and
the hierarchical router (:meth:`dirty_cells_since`) drops only the
cached paths that cross a dirty cell.  Whole-graph products still clear
on every bump.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from ..errors import NetworkError
from ..sim import Environment
from .geometry import Position, SpatialGrid
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


#: Orders candidate links; the default prefers free links, then faster ones.
LinkPolicy = Callable[[Link], tuple]


def prefer_free_then_fast(link: Link) -> tuple:
    """Default link selection: free links first, then highest bandwidth."""
    return (0 if link.is_free else 1, -link.bandwidth_bps, link.latency_s)


def prefer_fast(link: Link) -> tuple:
    """Latency/bandwidth-greedy selection, ignoring tariffs."""
    return (-link.bandwidth_bps, link.latency_s)


#: Sentinel distinguishing "not cached" from a cached ``None`` path.
_MISSING = object()


def bfs_reachable(
    graph: Dict[str, Tuple[str, ...]], start_id: str
) -> FrozenSet[str]:
    """Transitive closure of ``start_id`` over an adjacency snapshot."""
    seen = {start_id}
    frontier = [start_id]
    while frontier:
        current = frontier.pop()
        for neighbor in graph.get(current, ()):
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    return frozenset(seen)


def bfs_tree(
    graph: Dict[str, Tuple[str, ...]],
    source_id: str,
    target_id: Optional[str] = None,
) -> Dict[str, str]:
    """BFS predecessor tree over an adjacency snapshot.

    Each node expands its sorted neighbour tuple, so predecessor
    assignment and frontier order match the reference sweep exactly.
    With ``target_id`` given, returns as soon as the target is
    discovered (the tree is then partial but the source→target walk is
    complete and identical to the full tree's).
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
                if neighbor == target_id:
                    return previous
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

    #: Dirty-log length; consumers further behind than this get a
    #: conservative "everything dirty" answer.
    DIRTY_LOG_CAP = 4096

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
        #: were computed at and revalidated lazily against the dirty
        #: log, so entries untouched by a localised change survive it.
        self._links_cache: Dict[
            Tuple[str, str], Tuple[int, Tuple[Link, ...]]
        ] = {}
        self._neighbors_cache: Dict[
            Tuple[str, Optional[str]], Tuple[int, Tuple[NetworkNode, ...]]
        ] = {}
        self._coverage_cache: Dict[Tuple[str, str], Tuple[int, bool]] = {}
        #: Whole-graph snapshots clear on any epoch change.
        self._adjacency_cache: Dict[bool, Dict[str, Tuple[str, ...]]] = {}
        self._reachable_cache: Dict[Tuple[str, bool], FrozenSet[str]] = {}
        self._path_cache: Dict[Tuple[str, str, bool], object] = {}
        self.cache_stats = {
            "hits": 0,
            "misses": 0,
            "invalidations": 0,
            "revalidations": 0,
            "dirty_nodes": 0,
        }
        #: Append-only (epoch, cells) journal of what each bump touched;
        #: ``None`` cells mean a global change.
        self._dirty_log: List[Tuple[int, Optional[Tuple[Cell, ...]]]] = []
        #: Epochs at or below this fell off the journal.
        self._dirty_floor = 0
        #: Memoised dirty-ring answers per from-epoch (cleared on bump).
        self._dirty_ring_cache: Dict[int, Optional[FrozenSet[Cell]]] = {}
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
        self._grid.insert(node.id, node.position)
        if self._grid.cell_size != cell_size:
            self._bump()  # grid rebuilt: every cached cell id is stale
        else:
            self._bump(node.id, (self._grid.cell_of(node.position),))
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
        """Advance the epoch, journalling what changed.

        ``node_id=None`` records a *global* change (grid rebuild, link
        filter swap): every dirty query until consumers resync answers
        "everything".  Otherwise the grid cells the dirty node can have
        affected are appended to the log.
        """
        self._epoch += 1
        self._dirty_ring_cache.clear()
        log = self._dirty_log
        if node_id is None:
            log.append((self._epoch, None))
        else:
            log.append((self._epoch, cells))
            self.cache_stats["dirty_nodes"] += 1
        if len(log) > self.DIRTY_LOG_CAP:
            drop = len(log) // 2
            self._dirty_floor = log[drop - 1][0]
            del log[:drop]

    def dirty_cells_since(
        self, epoch: int
    ) -> Tuple[int, Optional[FrozenSet[Cell]]]:
        """Grid cells touched by changes after ``epoch`` (None = all).

        A moved node contributes both its old and new cell, so "no
        dirty cell within one ring of mine" certifies an unchanged
        neighbourhood (cell size ≥ every radio range).
        """
        if epoch >= self._epoch:
            return (self._epoch, frozenset())
        if epoch < self._dirty_floor:
            return (self._epoch, None)
        cells: List[Cell] = []
        for entry_epoch, entry_cells in reversed(self._dirty_log):
            if entry_epoch <= epoch:
                break
            if entry_cells is None:
                return (self._epoch, None)
            cells.extend(entry_cells)
        return (self._epoch, frozenset(cells))

    def _dirty_ring(self, epoch: int) -> Optional[FrozenSet[Cell]]:
        """Dirty cells since ``epoch`` dilated by one ring, memoised.

        A cached per-node/per-pair answer computed at ``epoch`` is
        still valid iff none of its endpoints' cells is in this set
        (``None`` = global change, nothing survives).
        """
        cached = self._dirty_ring_cache.get(epoch, _MISSING)
        if cached is not _MISSING:
            return cached  # type: ignore[return-value]
        _, cells = self.dirty_cells_since(epoch)
        ring: Optional[FrozenSet[Cell]]
        if cells is None:
            ring = None
        else:
            ring = frozenset(
                (cx + dx, cy + dy)
                for cx, cy in cells
                for dx in (-1, 0, 1)
                for dy in (-1, 0, 1)
            )
        self._dirty_ring_cache[epoch] = ring
        return ring

    def _entry_fresh(self, entry_epoch: int, *positions: Position) -> bool:
        """True when a tagged cache entry provably still holds.

        The entry is about nodes at ``positions``; it survives a newer
        epoch iff no dirty cell lies within one ring of any of them —
        no mutation since could have touched a link predicate whose
        endpoints sit there.
        """
        ring = self._dirty_ring(entry_epoch)
        if ring is None:
            return False
        cell_of = self._grid.cell_of
        for position in positions:
            if cell_of(position) in ring:
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
        grid = self._grid
        old_cell = grid.cell_of(grid.position_of(node.id))
        new_cell = grid.cell_of(node.position)
        grid.move(node.id, node.position)
        if old_cell == new_cell:
            self._bump(node.id, (new_cell,))
        else:
            self._bump(node.id, (old_cell, new_cell))

    def _topology_changed(self, node: NetworkNode) -> None:
        if self.nodes.get(node.id) is node:
            self._bump(node.id, (self._grid.cell_of(node.position),))
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
            self._reachable_cache.clear()
            self._path_cache.clear()
            self._cache_epoch = self._epoch
            self.cache_stats["invalidations"] += 1

    def _registered(self, node: NetworkNode) -> bool:
        return self.nodes.get(node.id) is node

    # -- connectivity --------------------------------------------------------

    def links_between(self, a: NetworkNode, b: NetworkNode) -> Tuple[Link, ...]:
        """Every link that could carry a message from ``a`` to ``b`` now."""
        if a.id == b.id:
            raise NetworkError(f"node {a.id!r} cannot link to itself")
        cacheable = self._registered(a) and self._registered(b)
        if cacheable:
            self._validate_caches()
            key = (a.id, b.id)
            entry = self._links_cache.get(key)
            if entry is not None:
                entry_epoch, links = entry
                if entry_epoch == self._epoch:
                    self.cache_stats["hits"] += 1
                    return links
                if self._entry_fresh(entry_epoch, a.position, b.position):
                    self._links_cache[key] = (self._epoch, links)
                    self.cache_stats["hits"] += 1
                    self.cache_stats["revalidations"] += 1
                    return links
            self.cache_stats["misses"] += 1
        links = self._compute_links(a, b)
        if cacheable:
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
        access point.  Fixed nodes are their own base stations.
        """
        technology = interface.technology
        if technology.range_m <= 0 or node.fixed:
            return True
        cacheable = self._registered(node)
        if cacheable:
            self._validate_caches()
            key = (node.id, technology.name)
            entry = self._coverage_cache.get(key)
            if entry is not None:
                entry_epoch, covered = entry
                if entry_epoch == self._epoch:
                    return covered
                if self._entry_fresh(entry_epoch, node.position):
                    self._coverage_cache[key] = (self._epoch, covered)
                    self.cache_stats["revalidations"] += 1
                    return covered
        covered = False
        for other_id in self._grid.near(node.position, technology.range_m):
            if other_id == node.id:
                continue
            other = self.nodes[other_id]
            if not other.fixed or not other.up:
                continue
            access_point = other.interfaces.get(technology.name)
            if access_point is None or not access_point.enabled:
                continue
            covered = True
            break
        if cacheable:
            self._coverage_cache[key] = (self._epoch, covered)
        return covered

    def best_link(
        self,
        a: NetworkNode,
        b: NetworkNode,
        policy: LinkPolicy = prefer_free_then_fast,
    ) -> Optional[Link]:
        """The preferred link from ``a`` to ``b``, or None if unreachable."""
        links = self.links_between(a, b)
        if not links:
            return None
        return min(links, key=policy)

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
            self._validate_caches()
            entry = self._neighbors_cache.get(key)
            if entry is not None:
                entry_epoch, cached = entry
                if entry_epoch == self._epoch:
                    self.cache_stats["hits"] += 1
                    return cached
                if self._entry_fresh(entry_epoch, node.position):
                    self._neighbors_cache[key] = (self._epoch, cached)
                    self.cache_stats["hits"] += 1
                    self.cache_stats["revalidations"] += 1
                    return cached
            self.cache_stats["misses"] += 1
        # Any ad-hoc neighbour must sit within the longest usable ad-hoc
        # range of this node, so a single grid ring bounds the sweep.
        radius = -1.0
        for iface in node.usable_interfaces():
            tech = iface.technology
            if not tech.is_adhoc:
                continue
            if technology is not None and tech.name != technology.name:
                continue
            if tech.range_m > radius:
                radius = tech.range_m
        found: List[NetworkNode] = []
        if radius >= 0.0:
            candidates = self._grid.near(node.position, radius)
            candidates.sort(key=self._order.__getitem__)
            for other_id in candidates:
                if other_id == node.id:
                    continue
                other = self.nodes[other_id]
                if not other.up:
                    continue
                for link in self.links_between(node, other):
                    if link.via_backbone:
                        continue
                    if technology is not None and (
                        link.sender_technology.name != technology.name
                    ):
                        continue
                    found.append(other)
                    break
        result = tuple(found)
        if cacheable:
            self._neighbors_cache[key] = (self._epoch, result)
        return result

    def adjacency(
        self, adhoc_only: bool = False
    ) -> Dict[str, Tuple[str, ...]]:
        """Snapshot of the connectivity graph: each up node's sorted
        neighbour ids.

        Ad-hoc edges come from :meth:`neighbors`.  Unless
        ``adhoc_only``, every pair of backbone-attached nodes that the
        link filter admits is written out too, so B attached nodes cost
        O(B²) edges.  Only *up* nodes appear as keys.  The returned
        snapshot is cached — treat it as read-only.
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

    def reachable_set(
        self, start_id: str, adhoc_only: bool = False
    ) -> FrozenSet[str]:
        """Transitive closure of connectivity from ``start_id`` (BFS)."""
        self._validate_caches()
        key = (start_id, adhoc_only)
        cached = self._reachable_cache.get(key)
        if cached is not None:
            self.cache_stats["hits"] += 1
            return cached
        self.cache_stats["misses"] += 1
        result = bfs_reachable(self.adjacency(adhoc_only), start_id)
        self._reachable_cache[key] = result
        return result

    def shortest_path(
        self, source_id: str, target_id: str, adhoc_only: bool = False
    ) -> Optional[List[str]]:
        """Hop-minimal node path from source to target, or None."""
        if source_id == target_id:
            return [source_id]
        self._validate_caches()
        key = (source_id, target_id, adhoc_only)
        cached = self._path_cache.get(key, _MISSING)
        if cached is not _MISSING:
            self.cache_stats["hits"] += 1
            return list(cached) if cached is not None else None  # type: ignore[arg-type]
        self.cache_stats["misses"] += 1
        tree = bfs_tree(self.adjacency(adhoc_only), source_id, target_id)
        path = walk_tree(tree, source_id, target_id)
        self._path_cache[key] = tuple(path) if path is not None else None
        return path


#: The ISSUE/design name for the simulated physical fabric.
PhysicalNetwork = Network
