"""What a host costs the bookkeeping: exact counts, no timer.

A fleet past the metrics registry's label cap must not add a labeled
key per host (over-cap series share their family's ``__other__``
child), and a host's one-shot key stream must not outlive its key
pair.  Both are counted on two fleets, one four times the other, so a
per-host leak shows as a difference.
"""

import pytest

from repro import World, standard_host
from repro.net import WIFI_ADHOC, Position
from repro.sim.metrics import DEFAULT_LABEL_CAPACITY, OVERFLOW_LABEL

SMALL = DEFAULT_LABEL_CAPACITY + 16
LARGE = 4 * SMALL


def fleet(hosts: int) -> World:
    world = World(seed=1)
    for index in range(hosts):
        standard_host(
            world, f"h{index}", Position(10.0 * index, 0.0), [WIFI_ADHOC]
        )
    return world


def families(registry) -> list:
    return sorted({family for family, _items in registry._labeled})


@pytest.fixture(scope="module")
def fleets():
    return {hosts: fleet(hosts) for hosts in (SMALL, LARGE)}


class TestLabelFootprint:
    def test_labeled_keys_do_not_grow_with_hosts(self, fleets):
        small, large = (fleets[hosts].metrics for hosts in (SMALL, LARGE))
        assert families(small) == families(large)
        per_host = len(families(small))
        assert per_host > 0
        expected = per_host * (DEFAULT_LABEL_CAPACITY + 1)
        assert len(small._labeled) == expected
        assert len(large._labeled) == expected

    def test_every_family_folds_into_one_other_child(self, fleets):
        registry = fleets[LARGE].metrics
        for family in families(registry):
            children = registry.labeled_children(family)
            assert len(children) == DEFAULT_LABEL_CAPACITY + 1
            assert OVERFLOW_LABEL in children

    @pytest.mark.parametrize("hosts", [SMALL, LARGE])
    def test_overflow_counts_each_folded_series_once(self, fleets, hosts):
        registry = fleets[hosts].metrics
        overflow = registry.counter("obs.labels.overflow")
        folded = len(families(registry)) * (hosts - DEFAULT_LABEL_CAPACITY)
        assert overflow.value == folded
        # Asking again for every host's series neither adds a key nor
        # counts a series twice.
        keys = len(registry._labeled)
        for family in families(registry):
            for index in range(hosts):
                registry.counter(family, labels={"node": f"h{index}"})
        assert overflow.value == folded
        assert len(registry._labeled) == keys


class TestKeyMinting:
    def test_no_key_stream_is_kept(self, fleets):
        for hosts, world in fleets.items():
            assert not [
                name
                for name in world.streams._streams
                if name.startswith("keys.")
            ]

    def test_minted_keys_are_pinned(self):
        # Keys feed capsule sizes, trust decisions and run digests: a
        # change to how a host mints its key pair must show here.
        world = World(seed=1)
        alice = standard_host(world, "alice")
        bob = standard_host(world, "bob")
        assert alice.keypair.public_key.fingerprint() == "502f190468d6eca0"
        assert bob.keypair.public_key.fingerprint() == "fad2f20898551abf"
