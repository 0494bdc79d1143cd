"""Property test for the cells the spatial grid stores.

:class:`SpatialGrid` keeps each item's cell beside its position, so a
move computes only the new cell and the network and the router read
the stored one.  After any run of moves, insertions and grid rebuilds
(a longer-range radio joining the network partway through renumbers
every cell), each item's stored cell must be ``cell_of`` its indexed
position, the item must sit in exactly that bucket, and no bucket may
be empty.
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.net import Network, NetworkNode, Position, WIFI_ADHOC
from repro.sim import Environment

#: Coordinates, with cell edges (multiples of 100 m and of the longer
#: radios' ranges) drawn often.
coordinate = st.one_of(
    st.floats(-300.0, 700.0),
    st.sampled_from([-200.0, -100.0, 0.0, 100.0, 150.0, 300.0, 450.0]),
)

operation = st.one_of(
    # Move node ``index`` to (x, y).
    st.tuples(st.just("move"), st.integers(0, 99), coordinate, coordinate),
    # Nudge node ``index`` by (dx, dy): mostly a move inside its cell.
    st.tuples(
        st.just("nudge"),
        st.integers(0, 99),
        st.floats(-5.0, 5.0),
        st.floats(-5.0, 5.0),
    ),
    # Add a node at (x, y); with ``longer`` its radio outranges the
    # grid's cell, so the grid rebuilds.
    st.tuples(st.just("add"), coordinate, coordinate, st.booleans()),
    # Give node ``index`` a radio longer than the cell: a rebuild.
    st.tuples(st.just("radio"), st.integers(0, 99)),
)


def _longer_radio(network):
    longer = network.grid.cell_size + 50.0
    return replace(WIFI_ADHOC, name=f"long-{longer:.0f}", range_m=longer)


def _check_grid(grid):
    buckets = grid._cells
    assert all(buckets.values()), "an empty bucket remains"
    placed = {}
    for bucket_cell, bucket in buckets.items():
        for item_id, position in bucket.items():
            assert item_id not in placed, f"{item_id} sits in two buckets"
            placed[item_id] = bucket_cell
            assert position == grid.position_of(item_id)
    assert len(placed) == len(grid)
    for item_id, bucket_cell in placed.items():
        stored = grid.item_cell(item_id)
        assert stored == grid.cell_of(grid.position_of(item_id))
        assert stored == bucket_cell


class TestStoredCells:
    @given(
        starts=st.lists(st.tuples(coordinate, coordinate), min_size=1,
                        max_size=12),
        operations=st.lists(operation, max_size=40),
    )
    @settings(max_examples=300, deadline=None)
    def test_stored_cells_follow_moves_and_rebuilds(self, starts, operations):
        env = Environment()
        network = Network(env)
        nodes = []

        def add(x, y, technologies=(WIFI_ADHOC,)):
            nodes.append(
                network.add_node(
                    NetworkNode(env, f"n{len(nodes)}", Position(x, y),
                                technologies=technologies)
                )
            )

        for x, y in starts:
            add(x, y)
        for op in operations:
            kind = op[0]
            if kind == "move":
                nodes[op[1] % len(nodes)].move_to(Position(op[2], op[3]))
            elif kind == "nudge":
                node = nodes[op[1] % len(nodes)]
                node.move_to(
                    Position(node.position.x + op[2], node.position.y + op[3])
                )
            elif kind == "add":
                radios = [WIFI_ADHOC]
                if op[3]:
                    radios.append(_longer_radio(network))
                add(op[1], op[2], radios)
            else:
                nodes[op[1] % len(nodes)].add_interface(
                    _longer_radio(network)
                )
            _check_grid(network.grid)
        _check_grid(network.grid)
        for node in nodes:
            assert network.grid.position_of(node.id) == node.position
