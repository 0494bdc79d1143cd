"""Cache-coherence property tests for the epoch-cached network fabric.

The cached fast paths (spatial grid + topology-epoch caches) must be
*bit-identical* to the naive O(N²) sweeps kept in
``tests/net/reference.py``, no matter how mobility, churn, interface
toggles and link-filter swaps (symmetric partitions and asymmetric
cut-sets) interleave with queries.  Queries run between
mutations so the caches are populated, invalidated, and repopulated —
the exact pattern a live simulation produces.
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.net import (
    BLUETOOTH,
    GPRS,
    Network,
    NetworkNode,
    Position,
    RoutingTable,
    WIFI_ADHOC,
    WIFI_INFRA,
)
from repro.sim import Environment
from tests.net import reference as ref

TECH_SETS = [
    [WIFI_ADHOC],
    [BLUETOOTH],
    [WIFI_ADHOC, BLUETOOTH],
    [GPRS],
    [WIFI_ADHOC, GPRS],
    [WIFI_INFRA],
    [WIFI_ADHOC, WIFI_INFRA],
]

coordinate = st.floats(0, 400)

#: (x, y, tech-set index, fixed, attach-infra)
node_spec = st.tuples(
    coordinate,
    coordinate,
    st.integers(0, len(TECH_SETS) - 1),
    st.booleans(),
    st.booleans(),
)

node_index = st.integers(0, 7)

operation = st.one_of(
    st.tuples(st.just("move"), st.integers(0, 9), coordinate, coordinate),
    st.tuples(st.just("crash"), st.integers(0, 9)),
    st.tuples(st.just("restart"), st.integers(0, 9)),
    st.tuples(st.just("toggle"), st.integers(0, 9), st.integers(0, 3)),
    st.tuples(st.just("attach"), st.integers(0, 9), st.integers(0, 3)),
    st.tuples(st.just("detach"), st.integers(0, 9), st.integers(0, 3)),
    st.tuples(st.just("add"), node_spec),
    # Link-filter swaps: a symmetric partition (node -> side, the shape
    # repro.faults installs; unlisted nodes reach everyone) and an
    # asymmetric cut-set of ordered (sender, receiver) pairs.
    st.tuples(
        st.just("partition"), st.dictionaries(node_index, st.integers(0, 2))
    ),
    st.tuples(
        st.just("cut"),
        st.frozensets(st.tuples(node_index, node_index), max_size=12),
    ),
)

programs = st.tuples(
    st.lists(node_spec, min_size=2, max_size=4),
    st.lists(operation, min_size=1, max_size=8),
)


def _make_node(env, network, index, spec):
    x, y, tech_index, fixed, attach = spec
    node = NetworkNode(
        env,
        f"n{index}",
        Position(x, y),
        technologies=TECH_SETS[tech_index],
        fixed=fixed,
    )
    network.add_node(node)
    if attach:
        for interface in node.interfaces.values():
            if interface.technology.infrastructure:
                interface.attach()
    return node


def _apply(env, network, nodes, op):
    kind = op[0]
    if kind == "add":
        nodes.append(_make_node(env, network, len(nodes), op[1]))
        return
    if kind == "partition":
        side = {f"n{index}": group for index, group in op[1].items()}
        network.set_link_filter(
            lambda a, b: a not in side or b not in side or side[a] == side[b]
        )
        return
    if kind == "cut":
        cut = {(f"n{a}", f"n{b}") for a, b in op[1]}
        network.set_link_filter(lambda a, b: (a, b) not in cut)
        return
    node = nodes[op[1] % len(nodes)]
    if kind == "move":
        node.move_to(Position(op[2], op[3]))
    elif kind == "crash":
        node.crash()
    elif kind == "restart":
        node.restart()
    else:
        interfaces = list(node.interfaces.values())
        interface = interfaces[op[2] % len(interfaces)]
        if kind == "toggle":
            if interface.enabled:
                interface.disable()
            else:
                interface.enable()
        elif kind == "attach" and interface.technology.infrastructure:
            if interface.enabled:
                interface.attach()
        elif kind == "detach":
            interface.detach()


def _filter_symmetric(network):
    """True when the link filter (if any) admits every pair both ways."""
    admits = network.link_filter
    if admits is None:
        return True
    ids = list(network.nodes)
    return all(admits(a, b) == admits(b, a) for a in ids for b in ids)


def _check_live_queries(network, nodes):
    """The per-step checks: adjacency, every neighbour list per radio,
    and every pairwise link set.

    Each cached query runs twice, so both the miss path (fresh build)
    and the hit path (epoch-validated reuse) are compared.  The naive
    adjacency links each pair both ways, so it is only an oracle under
    a symmetric filter (see :meth:`Network.adjacency`).
    """
    if _filter_symmetric(network):
        for adhoc_only in (True, False):
            expected = ref.naive_adjacency(network, adhoc_only=adhoc_only)
            for _attempt in range(2):
                got = network.adjacency(adhoc_only=adhoc_only)
                assert {k: set(v) for k, v in got.items()} == expected
    for technology in (None, WIFI_ADHOC, BLUETOOTH):
        for node in nodes:
            expected_ids = [
                other.id
                for other in ref.naive_neighbors(network, node, technology)
            ]
            for _attempt in range(2):
                assert [
                    other.id for other in network.neighbors(node, technology)
                ] == expected_ids
    _query_all_pairs(network, nodes)


def _check_full(network, nodes):
    """The expensive end-of-program checks: every pairwise path.

    Paths and reachability come from the flat planner,
    :class:`RoutingTable`; each path is asked twice, so the second
    answer is served from the source's cached tree.  Like adjacency,
    the naive paths are an oracle only under a symmetric filter.
    """
    if not _filter_symmetric(network):
        return
    tables = {
        adhoc_only: RoutingTable(network, adhoc_only=adhoc_only)
        for adhoc_only in (True, False)
    }
    for a in nodes:
        for b in nodes:
            if a.id == b.id:
                continue
            for adhoc_only, table in tables.items():
                # The tree-derived paths match the naive BFS bit for
                # bit (same sorted tie-breaking).
                expected_path = ref.naive_shortest_path(
                    network, a.id, b.id, adhoc_only=adhoc_only
                )
                assert table.path(a.id, b.id) == expected_path
                assert table.path(a.id, b.id) == expected_path
    for node in nodes:
        for adhoc_only, table in tables.items():
            expected = ref.naive_reachable_set(
                network, node.id, adhoc_only=adhoc_only
            )
            reachable = {
                other_id
                for other_id in network.nodes
                if table.path(node.id, other_id) is not None
            }
            assert reachable == expected


class TestTopologyCacheCoherence:
    @given(programs)
    @settings(max_examples=500, deadline=None)
    def test_cached_queries_match_naive_after_interleavings(self, program):
        specs, operations = program
        env = Environment()
        network = Network(env)
        nodes = [
            _make_node(env, network, index, spec)
            for index, spec in enumerate(specs)
        ]
        # Populate the caches before the first mutation.
        _check_live_queries(network, nodes)
        for op in operations:
            _apply(env, network, nodes, op)
            _check_live_queries(network, nodes)
        _check_full(network, nodes)

    @given(st.lists(node_spec, min_size=2, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_epoch_stability_means_identical_answers(self, specs):
        env = Environment()
        network = Network(env)
        nodes = [
            _make_node(env, network, index, spec)
            for index, spec in enumerate(specs)
        ]
        epoch = network.topology_epoch
        first = {node.id: network.neighbors(node) for node in nodes}
        graph = network.adjacency()
        # No mutations: the epoch must not move, and repeated queries
        # must return the very same cached objects.
        assert network.topology_epoch == epoch
        for node in nodes:
            assert network.neighbors(node) is first[node.id]
        assert network.adjacency() is graph

    @given(st.lists(node_spec, min_size=2, max_size=5), operation)
    @settings(max_examples=120, deadline=None)
    def test_any_single_mutation_invalidates_stale_answers(self, specs, op):
        env = Environment()
        network = Network(env)
        nodes = [
            _make_node(env, network, index, spec)
            for index, spec in enumerate(specs)
        ]
        _check_live_queries(network, nodes)
        _apply(env, network, nodes, op)
        _check_live_queries(network, nodes)


#: Mutations that bump the epoch globally, on top of :data:`operation`.
global_operation = st.one_of(
    st.tuples(st.just("filter")),
    st.tuples(st.just("unfilter")),
    st.tuples(st.just("rebuild"), st.integers(0, 9)),
)

stamp_programs = st.tuples(
    st.lists(node_spec, min_size=2, max_size=4),
    st.lists(st.one_of(operation, global_operation), min_size=1, max_size=10),
)


def _apply_any(env, network, nodes, op):
    kind = op[0]
    if kind == "filter":
        # A new predicate is a global bump even when it admits every pair.
        network.set_link_filter(lambda a, b: True)
    elif kind == "unfilter":
        network.set_link_filter(None)
    elif kind == "rebuild":
        # A radio longer than the grid cell forces a grid rebuild.
        longer = network.grid.cell_size + 50.0
        technology = replace(
            WIFI_ADHOC, name=f"long-{longer:.0f}", range_m=longer
        )
        nodes[op[1] % len(nodes)].add_interface(technology)
    else:
        _apply(env, network, nodes, op)


def _record_bumps(network):
    """Journal every bump of ``network`` as ``(epoch, cells)``, with
    ``None`` cells for a global bump."""
    journal = []
    bump = network._bump

    def recording(node_id=None, cells=()):
        bump(node_id, cells)
        journal.append(
            (network.topology_epoch, None if node_id is None else tuple(cells))
        )

    network._bump = recording
    return journal


def _dirty_since(journal, epoch):
    """Cells the bumps after ``epoch`` touched, or None after a global
    bump."""
    cells = set()
    for entry_epoch, entry_cells in journal:
        if entry_epoch <= epoch:
            continue
        if entry_cells is None:
            return None
        cells.update(entry_cells)
    return cells


def _ring(cells):
    return {
        (cx + dx, cy + dy)
        for cx, cy in cells
        for dx in (-1, 0, 1)
        for dy in (-1, 0, 1)
    }


def _journal_fresh(network, dirty, positions):
    """Freshness the journal way: dilate the cells dirtied since the
    entry by one ring and look for the entry's endpoints."""
    if dirty is None:
        return False
    ring = _ring(dirty)
    cell_of = network.grid.cell_of
    return all(cell_of(position) not in ring for position in positions)


def _check_freshness(network, nodes, journal):
    registry = network.nodes
    entries = [
        (epoch, (a, b)) for (a, b), (epoch, _) in network._links_cache.items()
    ]
    entries.extend(
        (epoch, (node_id,))
        for (node_id, _), (epoch, _) in network._neighbors_cache.items()
    )
    # The stamps are read at the cells the grid stores; the oracle
    # computes each node's cell from its position.
    for epoch, node_ids in entries:
        positions = [registry[node_id].position for node_id in node_ids]
        assert network._entry_fresh(epoch, *node_ids) == _journal_fresh(
            network, _dirty_since(journal, epoch), positions
        )
    # Every epoch an entry or a path could carry, not only the live ones.
    cell_of = network.grid.cell_of
    occupied = {cell_of(node.position) for node in nodes}
    for epoch in range(network.topology_epoch + 1):
        dirty = _dirty_since(journal, epoch)
        for node in nodes:
            assert network._entry_fresh(epoch, node.id) == (
                _journal_fresh(network, dirty, (node.position,))
            )
        # The path rule reads the cells themselves, not their rings.
        for cell in _ring(occupied):
            assert network.cells_unchanged_since(epoch, (cell,)) == (
                dirty is not None and cell not in dirty
            )
        assert network.cells_unchanged_since(epoch, occupied) == (
            dirty is not None and dirty.isdisjoint(occupied)
        )


def _query_all_pairs(network, nodes):
    for a in nodes:
        for b in nodes:
            if a.id != b.id:
                assert list(network.links_between(a, b)) == (
                    ref.naive_links_between(network, a, b)
                )


class TestCellStampFreshness:
    @given(stamp_programs)
    @settings(max_examples=300, deadline=None)
    def test_stamps_agree_with_the_journal_oracle(self, program):
        specs, operations = program
        env = Environment()
        network = Network(env)
        journal = _record_bumps(network)
        nodes = [
            _make_node(env, network, index, spec)
            for index, spec in enumerate(specs)
        ]
        _check_live_queries(network, nodes)
        for op in operations:
            _apply_any(env, network, nodes, op)
            # Before any query refreshes the tags.
            _check_freshness(network, nodes, journal)
            _check_live_queries(network, nodes)
            _check_freshness(network, nodes, journal)
        _check_full(network, nodes)

    @given(
        st.lists(node_spec, min_size=2, max_size=5),
        st.sampled_from([("filter",), ("unfilter",), ("rebuild", 0)]),
    )
    @settings(max_examples=80, deadline=None)
    def test_global_bump_drops_every_tagged_entry(self, specs, op):
        env = Environment()
        network = Network(env)
        nodes = [
            _make_node(env, network, index, spec)
            for index, spec in enumerate(specs)
        ]
        _check_live_queries(network, nodes)
        assert network._links_cache and network._neighbors_cache
        _apply_any(env, network, nodes, op)
        assert network._links_cache == {}
        assert network._neighbors_cache == {}
        _check_live_queries(network, nodes)
        _check_full(network, nodes)

    def test_filter_swap_recomputes_severed_pairs(self):
        env = Environment()
        network = Network(env)
        nodes = [
            _make_node(env, network, index, (10.0 * index, 0.0, 0, False, False))
            for index in range(3)
        ]
        _query_all_pairs(network, nodes)
        network.set_link_filter(lambda a, b: {a, b} != {"n0", "n1"})
        assert network._links_cache == {}
        _query_all_pairs(network, nodes)
        assert network.links_between(nodes[0], nodes[1]) == ()
        assert [node.id for node in network.neighbors(nodes[0])] == ["n2"]
