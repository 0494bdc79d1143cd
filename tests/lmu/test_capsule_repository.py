"""Unit tests for capsules, repositories, and the serializer size model."""

import pytest

from repro.errors import DependencyError, UnitNotFound
from repro.lmu import (
    Capsule,
    Codebase,
    CodeRepository,
    DataUnit,
    MANIFEST_BYTES,
    MANIFEST_ENTRY_BYTES,
    Requirement,
    build_capsule,
    code_unit,
    estimate_size,
    install_capsule,
)
from repro.sim.metrics import MetricsRegistry


def unit(name, version="1.0.0", size=100, requires=None):
    return code_unit(
        name,
        version,
        lambda: (lambda ctx: name),
        size,
        requires=requires,
    )


def make_repository(*units_):
    repository = CodeRepository()
    for unit_ in units_:
        repository.publish(unit_)
    return repository


class TestRepository:
    def test_publish_and_latest(self):
        repository = make_repository(unit("a", "1.0.0"), unit("a", "1.2.0"))
        assert str(repository.latest("a").version) == "1.2.0"

    def test_latest_missing_raises(self):
        with pytest.raises(UnitNotFound):
            CodeRepository().latest("ghost")

    def test_resolve_respects_version_floor(self):
        repository = make_repository(
            unit("a", "1.0.0"), unit("a", "1.5.0"), unit("a", "2.0.0")
        )
        resolved = repository.resolve(Requirement.parse("a>=1.2"))
        assert str(resolved.version) == "1.5.0"  # 2.0 is a different major line

    def test_resolve_unsatisfiable(self):
        repository = make_repository(unit("a", "1.0.0"))
        with pytest.raises(UnitNotFound):
            repository.resolve(Requirement.parse("a>=1.5"))

    def test_total_bytes(self):
        repository = make_repository(unit("a", size=100), unit("b", size=250))
        assert repository.total_bytes() == 350


class TestRepositoryCatalogue:
    """What the catalogue answers, whatever shape it keeps versions in."""

    def test_out_of_order_publish_keeps_newest_latest(self):
        repository = make_repository(unit("a", "1.2.0"), unit("a", "1.0.0"))
        assert str(repository.latest("a").version) == "1.2.0"
        resolved = repository.resolve(Requirement.parse("a>=1.0"))
        assert str(resolved.version) == "1.2.0"

    def test_republishing_a_version_replaces_that_unit(self):
        first = unit("a", "1.0.0", size=100)
        second = unit("a", "1.0.0", size=300)
        repository = make_repository(first, unit("a", "0.9.0"), second)
        assert repository.latest("a") is second
        assert repository.resolve(Requirement.parse("a>=1.0")) is second
        assert repository.total_bytes() == 300
        with pytest.raises(UnitNotFound) as excinfo:
            repository.resolve(Requirement.parse("a>=1.5"))
        assert "have ['0.9.0', '1.0.0']" in str(excinfo.value)

    def test_units_gauge_counts_names_not_versions(self):
        metrics = MetricsRegistry()
        repository = CodeRepository(metrics=metrics)
        for unit_ in (unit("a", "1.0.0"), unit("a", "1.1.0"), unit("b")):
            repository.publish(unit_)
        repository.publish(unit("a", "1.1.0"))
        assert metrics.gauge("repository.units").value == 2
        assert metrics.counter("repository.publishes").value == 4
        assert len(repository) == 2
        assert repository.names() == ["a", "b"]

    def test_resolve_picks_newest_compatible_within_major_line(self):
        metrics = MetricsRegistry()
        repository = CodeRepository(metrics=metrics)
        for text in ("2.1.0", "1.0.0", "1.4.2", "3.0.0", "1.4.0", "2.0.0"):
            repository.publish(unit("a", text))
        picks = {
            text: str(repository.resolve(Requirement.parse(text)).version)
            for text in ("a>=1.0", "a>=1.4.1", "a>=2.0", "a>=2.1", "a>=3.0")
        }
        assert picks == {
            "a>=1.0": "1.4.2",
            "a>=1.4.1": "1.4.2",
            "a>=2.0": "2.1.0",
            "a>=2.1": "2.1.0",
            "a>=3.0": "3.0.0",
        }
        # A bare requirement takes the newest of all.
        newest = repository.resolve(Requirement.parse("a"))
        assert str(newest.version) == "3.0.0"
        # Newer majors never satisfy an older floor.
        with pytest.raises(UnitNotFound):
            repository.resolve(Requirement.parse("a>=1.5"))
        assert metrics.counter("repository.resolutions").value == 6
        assert metrics.counter("repository.misses").value == 1

    def test_unsatisfiable_miss_lists_versions_sorted(self):
        metrics = MetricsRegistry()
        repository = CodeRepository(metrics=metrics)
        for text in ("1.10.0", "0.3.0", "1.2.0"):
            repository.publish(unit("a", text))
        with pytest.raises(UnitNotFound) as excinfo:
            repository.resolve(Requirement.parse("a>=2.0"))
        assert str(excinfo.value) == (
            "no published version of a satisfies a>=2.0.0; "
            "have ['0.3.0', '1.10.0', '1.2.0']"
        )
        with pytest.raises(UnitNotFound) as excinfo:
            repository.resolve(Requirement.parse("ghost"))
        assert str(excinfo.value) == "repository has no unit 'ghost'"
        assert metrics.counter("repository.misses").value == 2
        assert metrics.counter("repository.resolutions").value == 0


class TestCapsuleBuild:
    def test_closure_included_dependency_first(self):
        repository = make_repository(
            unit("app", requires=["lib"]), unit("lib")
        )
        capsule = build_capsule("host-a", "cod-reply", ["app"], repository.resolve)
        assert [u.name for u in capsule.code_units] == ["lib", "app"]
        assert capsule.manifest.purpose == "cod-reply"

    def test_size_model(self):
        repository = make_repository(unit("a", size=1000))
        capsule = build_capsule("s", "cod-reply", ["a"], repository.resolve)
        assert capsule.size_bytes == MANIFEST_BYTES + MANIFEST_ENTRY_BYTES + 1000

    def test_data_units_counted(self):
        repository = make_repository(unit("a", size=100))
        capsule = build_capsule(
            "s",
            "agent",
            ["a"],
            repository.resolve,
            data_units=[DataUnit("state", {"k": 1}, 500)],
        )
        assert capsule.size_bytes == (
            MANIFEST_BYTES + 2 * MANIFEST_ENTRY_BYTES + 100 + 500
        )
        assert capsule.data_unit("state").payload == {"k": 1}

    def test_differential_shipping_skips_installed(self):
        repository = make_repository(unit("app", requires=["lib"]), unit("lib"))
        receiver = Codebase()
        receiver.install(unit("lib"))
        capsule = build_capsule(
            "s", "cod-reply", ["app"], repository.resolve,
            already_installed=receiver.inventory(),
        )
        assert [u.name for u in capsule.code_units] == ["app"]

    def test_lookup_helpers(self):
        repository = make_repository(unit("a"))
        capsule = build_capsule("s", "cod-reply", ["a"], repository.resolve)
        assert capsule.code_unit("a").name == "a"
        with pytest.raises(UnitNotFound):
            capsule.code_unit("ghost")
        with pytest.raises(UnitNotFound):
            capsule.data_unit("ghost")


class TestCapsuleIntegrity:
    def test_digest_stable(self):
        repository = make_repository(unit("a"))
        capsule = build_capsule("s", "cod-reply", ["a"], repository.resolve)
        assert capsule.content_digest() == capsule.content_digest()

    def test_tamper_changes_digest(self):
        repository = make_repository(unit("a"))
        capsule = build_capsule("s", "cod-reply", ["a"], repository.resolve)
        before = capsule.content_digest()
        capsule.tamper()
        assert capsule.content_digest() != before

    def test_different_contents_different_digest(self):
        repository = make_repository(unit("a"), unit("b"))
        one = build_capsule("s", "cod-reply", ["a"], repository.resolve)
        two = build_capsule("s", "cod-reply", ["b"], repository.resolve)
        assert one.content_digest() != two.content_digest()


class TestInstallCapsule:
    def test_installs_everything(self):
        repository = make_repository(unit("app", requires=["lib"]), unit("lib"))
        capsule = build_capsule("s", "cod-reply", ["app"], repository.resolve)
        codebase = Codebase()
        installed = install_capsule(capsule, codebase)
        assert installed == ["lib", "app"]
        assert "app" in codebase and "lib" in codebase

    def test_differential_capsule_needs_local_dependency(self):
        repository = make_repository(unit("app", requires=["lib"]), unit("lib"))
        receiver = Codebase()
        receiver.install(unit("lib"))
        capsule = build_capsule(
            "s", "cod-reply", ["app"], repository.resolve,
            already_installed=receiver.inventory(),
        )
        # Receiver then evicted lib: installation must fail up front.
        receiver.uninstall("lib")
        with pytest.raises(DependencyError):
            install_capsule(capsule, receiver)

    def test_pinned_installation(self):
        repository = make_repository(unit("core"))
        capsule = build_capsule("s", "update", ["core"], repository.resolve)
        codebase = Codebase()
        install_capsule(capsule, codebase, pinned=True)
        assert codebase.stats("core").pinned


class TestSerializer:
    def test_none_and_bool(self):
        assert estimate_size(None) < estimate_size(1.0)
        assert estimate_size(True) < estimate_size(1)

    def test_strings_scale_with_length(self):
        assert estimate_size("x" * 100) - estimate_size("") == 100

    def test_bytes_exact(self):
        assert estimate_size(b"abc") - estimate_size(b"") == 3

    def test_collections_recurse(self):
        flat = estimate_size([1, 2, 3])
        nested = estimate_size([[1], [2], [3]])
        assert nested > flat

    def test_mapping_counts_keys_and_values(self):
        assert estimate_size({"key": "value"}) > estimate_size("keyvalue")

    def test_declared_size_wins(self):
        class Declared:
            size_bytes = 5000

        assert estimate_size(Declared()) >= 5000

    def test_opaque_object_fallback(self):
        class Opaque:
            pass

        assert estimate_size(Opaque()) > 0

    def test_deep_nesting_bounded(self):
        value = []
        for _ in range(100):
            value = [value]
        assert estimate_size(value) > 0  # terminates, no recursion error
