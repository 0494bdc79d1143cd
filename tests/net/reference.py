"""Naive reference implementations of the topology queries.

These are the original O(N²)-sweep algorithms :class:`~repro.net.network.Network`
used before topology-epoch caching and the spatial index were added.
They are kept as the *executable specification*: the cached fast paths
must return bit-identical results, which ``tests/property`` asserts
after arbitrary mobility/churn interleavings and
``benchmarks/bench_micro_net.py`` uses as the speedup baseline.

Everything here reads only public node state (positions, interfaces,
``up`` flags) and the network's link filter, never its caches.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.net.network import Link, Network, _backbone_link, _direct_link
from repro.net.node import Interface, NetworkNode
from repro.net.technologies import LinkTechnology


def naive_infra_covered(
    network: Network, node: NetworkNode, interface: Interface
) -> bool:
    """Full-scan backbone coverage check (pre-index semantics)."""
    technology = interface.technology
    if technology.range_m <= 0 or node.fixed:
        return True
    for other in network.nodes.values():
        if other.id == node.id or not other.fixed or not other.up:
            continue
        access_point = other.interfaces.get(technology.name)
        if access_point is None or not access_point.enabled:
            continue
        if node.position.distance_to(other.position) <= technology.range_m:
            return True
    return False


def naive_links_between(
    network: Network, a: NetworkNode, b: NetworkNode
) -> List[Link]:
    """Pairwise link computation without caches or the spatial index.

    Honours ``network.link_filter`` over ``(a.id, b.id)``, the one
    piece of network state the links depend on besides node state.
    """
    if not (a.up and b.up):
        return []
    link_filter = network.link_filter
    if link_filter is not None and not link_filter(a.id, b.id):
        return []
    links: List[Link] = []
    a_ifaces = a.usable_interfaces()
    b_by_name = {i.technology.name: i for i in b.usable_interfaces()}
    for iface in a_ifaces:
        tech = iface.technology
        peer = b_by_name.get(tech.name)
        if peer is None or not tech.is_adhoc:
            continue
        if a.position.distance_to(b.position) <= tech.range_m:
            links.append(_direct_link(tech))
    a_infra = [
        i
        for i in a_ifaces
        if i.technology.infrastructure and naive_infra_covered(network, a, i)
    ]
    b_infra = [
        i
        for i in b_by_name.values()
        if i.technology.infrastructure and naive_infra_covered(network, b, i)
    ]
    for sender in a_infra:
        for receiver in b_infra:
            links.append(_backbone_link(sender.technology, receiver.technology))
    return links


def naive_neighbors(
    network: Network,
    node: NetworkNode,
    technology: Optional[LinkTechnology] = None,
) -> List[NetworkNode]:
    """Full-scan ad-hoc neighbour enumeration (registry order)."""
    if not node.up:
        return []
    neighbors = []
    for other in network.nodes.values():
        if other.id == node.id or not other.up:
            continue
        for link in naive_links_between(network, node, other):
            if link.via_backbone:
                continue
            if technology is not None and (
                link.sender_technology.name != technology.name
            ):
                continue
            neighbors.append(other)
            break
    return neighbors


def naive_adjacency(
    network: Network, adhoc_only: bool = False
) -> Dict[str, Set[str]]:
    """O(N²) pairwise adjacency snapshot.

    Only *up* nodes appear as keys: a crashed node has no links, so it
    contributes nothing to connectivity and BFS must not see it.  Each
    pair is linked both ways by its lower-registered end's links, so
    this matches :meth:`Network.adjacency` only under a symmetric (or
    no) link filter.
    """
    ids = [node_id for node_id, node in network.nodes.items() if node.up]
    graph: Dict[str, Set[str]] = {node_id: set() for node_id in ids}
    for index, a_id in enumerate(ids):
        for b_id in ids[index + 1 :]:
            links = naive_links_between(
                network, network.nodes[a_id], network.nodes[b_id]
            )
            if adhoc_only:
                links = [link for link in links if not link.via_backbone]
            if links:
                graph[a_id].add(b_id)
                graph[b_id].add(a_id)
    return graph


def naive_reachable_set(
    network: Network, start_id: str, adhoc_only: bool = False
) -> Set[str]:
    """BFS closure over a freshly recomputed adjacency."""
    graph = naive_adjacency(network, adhoc_only=adhoc_only)
    seen = {start_id}
    frontier = [start_id]
    while frontier:
        current = frontier.pop()
        for neighbor in graph.get(current, ()):
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    return seen


def naive_shortest_path(
    network: Network, source_id: str, target_id: str, adhoc_only: bool = False
) -> Optional[List[str]]:
    """Early-exit BFS with sorted tie-breaking over a fresh adjacency."""
    if source_id == target_id:
        return [source_id]
    graph = naive_adjacency(network, adhoc_only=adhoc_only)
    previous: Dict[str, str] = {}
    seen = {source_id}
    frontier = [source_id]
    while frontier:
        next_frontier: List[str] = []
        for current in frontier:
            for neighbor in sorted(graph.get(current, ())):
                if neighbor in seen:
                    continue
                seen.add(neighbor)
                previous[neighbor] = current
                if neighbor == target_id:
                    path = [target_id]
                    while path[-1] != source_id:
                        path.append(previous[path[-1]])
                    path.reverse()
                    return path
                next_frontier.append(neighbor)
        frontier = next_frontier
    return None
