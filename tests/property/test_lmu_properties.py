"""Property-based tests (hypothesis) for the LMU layer invariants."""

import enum
import string
from collections import OrderedDict
from typing import Mapping, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import QuotaExceeded
from repro.lmu import (
    Codebase,
    DataUnit,
    Requirement,
    Version,
    assemble_capsule,
    code_unit,
    dependency_closure,
    estimate_size,
    largest_first_policy,
    lfu_policy,
    lru_policy,
)
from repro.net import Message

versions = st.builds(
    Version,
    major=st.integers(0, 20),
    minor=st.integers(0, 20),
    patch=st.integers(0, 20),
)

unit_names = st.text(
    alphabet=string.ascii_lowercase + string.digits + "-",
    min_size=1,
    max_size=12,
).filter(lambda name: not name.startswith("-"))


def make_unit(name, version=Version(1, 0, 0), size=100):
    return code_unit(
        name, str(version), lambda: (lambda ctx: None), size
    )


class TestVersionProperties:
    @given(versions)
    def test_parse_roundtrip(self, version):
        assert Version.parse(str(version)) == version

    @given(versions, versions)
    def test_ordering_total_and_antisymmetric(self, a, b):
        assert (a < b) + (a == b) + (a > b) == 1

    @given(versions)
    def test_self_compatibility(self, version):
        assert version.compatible_with(version)

    @given(versions, versions)
    def test_compatibility_requires_same_major_and_not_older(self, a, b):
        if a.compatible_with(b):
            assert a.major == b.major
            assert a >= b

    @given(versions, versions, versions)
    def test_compatibility_transitive_along_order(self, a, b, c):
        # if a satisfies b's floor and b satisfies c's floor -> a satisfies c.
        if a.compatible_with(b) and b.compatible_with(c):
            assert a.compatible_with(c)


class TestRequirementProperties:
    @given(unit_names, versions)
    def test_parse_roundtrip(self, name, version):
        requirement = Requirement(name, version)
        assert Requirement.parse(str(requirement)) == requirement

    @given(unit_names, versions, versions)
    def test_satisfaction_consistent_with_compatibility(
        self, name, floor, actual
    ):
        requirement = Requirement(name, floor)
        unit = make_unit(name, actual)
        expected = requirement.any_version or actual.compatible_with(floor)
        assert requirement.satisfied_by(unit) == expected


class TestCodebaseQuotaInvariant:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from("abcdefgh"),
                st.integers(min_value=1, max_value=400),
            ),
            max_size=30,
        ),
        st.sampled_from([lru_policy, lfu_policy, largest_first_policy]),
    )
    @settings(max_examples=60)
    def test_used_bytes_never_exceed_quota(self, installs, policy):
        quota = 1000
        codebase = Codebase(quota_bytes=quota, eviction=policy)
        for name, size in installs:
            try:
                codebase.install(make_unit(name, size=size))
            except QuotaExceeded:
                pass
            except Exception:
                # Version conflicts etc. must not corrupt accounting.
                pass
            assert codebase.used_bytes <= quota

    @given(
        st.lists(
            st.tuples(
                st.sampled_from("abcdefgh"),
                st.integers(min_value=1, max_value=400),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=60)
    def test_used_bytes_equals_sum_of_installed(self, installs):
        codebase = Codebase(quota_bytes=1500, eviction=lru_policy)
        for name, size in installs:
            try:
                codebase.install(make_unit(name, size=size))
            except QuotaExceeded:
                pass
        assert codebase.used_bytes == sum(
            unit.size_bytes for unit in codebase.installed()
        )


class TestDependencyClosureProperties:
    @st.composite
    def acyclic_graphs(draw):
        """Random DAG: each unit may depend only on lower-numbered units."""
        count = draw(st.integers(min_value=1, max_value=10))
        edges = {}
        for index in range(count):
            if index == 0:
                edges[index] = []
            else:
                edges[index] = draw(
                    st.lists(
                        st.integers(0, index - 1), unique=True, max_size=3
                    )
                )
        return edges

    @given(acyclic_graphs())
    @settings(max_examples=60)
    def test_closure_is_dependency_ordered_and_complete(self, edges):
        units = {
            f"u{index}": code_unit(
                f"u{index}",
                "1.0.0",
                lambda: (lambda ctx: None),
                10,
                requires=[f"u{dep}" for dep in deps],
            )
            for index, deps in edges.items()
        }

        def resolve(requirement):
            return units[requirement.name]

        roots = [f"u{len(edges) - 1}"]
        closure = dependency_closure(roots, resolve)
        names = [unit.name for unit in closure]
        # No duplicates.
        assert len(names) == len(set(names))
        # Every dependency of an included unit is included, earlier.
        positions = {name: index for index, name in enumerate(names)}
        for unit in closure:
            for requirement in unit.requires:
                assert requirement.name in positions
                assert positions[requirement.name] < positions[unit.name]


json_like = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(2**31), 2**31),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=30),
        st.binary(max_size=30),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=8), children, max_size=5),
    ),
    max_leaves=20,
)


class TestSerializerProperties:
    @given(json_like)
    def test_size_is_positive_and_deterministic(self, value):
        size = estimate_size(value)
        assert size > 0
        assert estimate_size(value) == size

    @given(st.lists(json_like, max_size=5))
    def test_container_size_at_least_max_element(self, items):
        container_size = estimate_size(items)
        for item in items:
            # Envelope overheads differ, but content cannot shrink.
            assert container_size >= estimate_size(item) - 16

    @given(st.text(max_size=200))
    def test_string_size_monotone_in_length(self, text):
        assert estimate_size(text + "a") > estimate_size(text)


def oracle_payload_size(value, depth=0):
    """Reference wire-size walk with no exact-type shortcut: every
    value probes ``size_bytes`` and the ABCs in this fixed order."""
    if depth > 32:
        return 256
    if value is None:
        return 1
    declared = getattr(value, "size_bytes", None)
    if isinstance(declared, int) and not isinstance(value, (bool, int)):
        return declared + 8
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, Mapping):
        return sum(
            oracle_payload_size(key, depth + 1)
            + oracle_payload_size(item, depth + 1)
            for key, item in value.items()
        ) + 8
    if isinstance(value, (Sequence, set, frozenset)):
        return (
            sum(oracle_payload_size(item, depth + 1) for item in value) + 8
        )
    return 256


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Tag(str):
    """A ``str`` subclass: not an exact built-in, so the slow path."""


class SizedTag(str):
    """A ``str`` subclass declaring its own wire size."""

    size_bytes = 40


def _capsule(state):
    unit = code_unit("agent", "1.0.0", lambda: (lambda ctx: None), 64)
    return assemble_capsule(
        "host", "migrate", [unit], [DataUnit("state", state, estimate_size(state))]
    )


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False),
    st.text(max_size=12),
    st.binary(max_size=12),
    st.sampled_from(list(Level)),
    st.text(max_size=8).map(Tag),
    st.text(max_size=8).map(SizedTag),
    st.builds(Message, st.just("a"), st.just("b"), st.just("echo"),
              size_bytes=st.integers(0, 500)),
    st.builds(object),
)

hashable = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 5), st.text(max_size=6)
)

wire_values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(hashable, children, max_size=4),
        st.dictionaries(hashable, children, max_size=4).map(OrderedDict),
        st.frozensets(hashable, max_size=4),
        st.sets(hashable, max_size=4),
        children.map(_capsule),
    ),
    max_leaves=24,
)


def _nest(value, depth):
    for index in range(depth):
        value = [value] if index % 2 else {"k": value}
    return value


class TestWireSizeMatchesOracle:
    @given(wire_values)
    @settings(max_examples=300, deadline=None)
    def test_estimate_size_equals_pre_dispatch_walk(self, value):
        assert estimate_size(value) == 8 + oracle_payload_size(value)

    @given(wire_values, st.integers(28, 40))
    @settings(max_examples=60, deadline=None)
    def test_depth_cap_unchanged(self, value, depth):
        nested = _nest(value, depth)
        assert estimate_size(nested) == 8 + oracle_payload_size(nested)

    def test_bool_and_int_mix(self):
        value = [True, 1, False, 0, {True: 1, 2: False}, (1.0, True)]
        assert estimate_size(value) == 8 + oracle_payload_size(value)
        assert estimate_size(True) == 9
        assert estimate_size(Level.HIGH) == estimate_size(2) == 16


class TestByteBuffersChargedByLength:
    @given(st.binary(max_size=2000))
    def test_bytearray_costs_what_bytes_costs(self, data):
        assert estimate_size(bytearray(data)) == estimate_size(data)

    @given(st.binary(max_size=2000))
    def test_memoryview_costs_its_byte_length(self, data):
        assert estimate_size(memoryview(data)) == estimate_size(data)
        words = memoryview(bytes(4 * len(data))).cast("i")
        assert estimate_size(words) == 8 + words.nbytes

    def test_kilobyte_buffer_is_not_charged_per_element(self):
        assert estimate_size(bytearray(1000)) == 1008
        assert estimate_size([memoryview(bytes(1000))]) == 1016
