"""Unit tests for the local codebase: install, versions, quota, eviction."""

import gc

import pytest

from repro.errors import (
    DependencyError,
    QuotaExceeded,
    UnitNotFound,
    VersionConflict,
)
from repro.lmu import (
    Codebase,
    code_unit,
    dependency_closure,
    largest_first_policy,
    lfu_policy,
    lru_policy,
)


def unit(name, version="1.0.0", size=100, requires=None, provides=None):
    return code_unit(
        name,
        version,
        lambda: (lambda ctx: name),
        size,
        requires=requires,
        provides=provides,
    )


class FakeClock:
    def __init__(self):
        self.time = 0.0

    def __call__(self):
        return self.time


class TestInstall:
    def test_install_and_get(self):
        codebase = Codebase()
        codebase.install(unit("a"))
        assert "a" in codebase
        assert codebase.get("a").name == "a"

    def test_get_missing_raises(self):
        with pytest.raises(UnitNotFound):
            Codebase().get("ghost")

    def test_upgrade_same_major(self):
        codebase = Codebase()
        codebase.install(unit("a", "1.0.0"))
        codebase.install(unit("a", "1.2.0"))
        assert str(codebase.get("a").version) == "1.2.0"

    def test_downgrade_rejected(self):
        codebase = Codebase()
        codebase.install(unit("a", "1.2.0"))
        with pytest.raises(VersionConflict):
            codebase.install(unit("a", "1.1.0"))

    def test_major_change_rejected(self):
        codebase = Codebase()
        codebase.install(unit("a", "1.0.0"))
        with pytest.raises(VersionConflict):
            codebase.install(unit("a", "2.0.0"))

    def test_major_change_after_uninstall(self):
        codebase = Codebase()
        codebase.install(unit("a", "1.0.0"))
        codebase.uninstall("a")
        codebase.install(unit("a", "2.0.0"))
        assert str(codebase.get("a").version) == "2.0.0"

    def test_used_bytes_accounts_upgrades(self):
        codebase = Codebase()
        codebase.install(unit("a", "1.0.0", size=100))
        codebase.install(unit("a", "1.1.0", size=150))
        assert codebase.used_bytes == 150


class TestQuotaAndEviction:
    def test_quota_enforced_without_eviction(self):
        codebase = Codebase(quota_bytes=150, eviction=None)
        codebase.install(unit("a", size=100))
        with pytest.raises(QuotaExceeded):
            codebase.install(unit("b", size=100))

    def test_lru_evicts_least_recent(self):
        clock = FakeClock()
        codebase = Codebase(quota_bytes=250, eviction=lru_policy, now=clock)
        codebase.install(unit("a", size=100))
        clock.time = 1.0
        codebase.install(unit("b", size=100))
        clock.time = 2.0
        codebase.touch("a")  # b is now least recently used
        clock.time = 3.0
        codebase.install(unit("c", size=100))
        assert "b" not in codebase
        assert "a" in codebase and "c" in codebase
        assert codebase.evictions == 1

    def test_lfu_evicts_least_frequent(self):
        clock = FakeClock()
        codebase = Codebase(quota_bytes=250, eviction=lfu_policy, now=clock)
        codebase.install(unit("a", size=100))
        codebase.install(unit("b", size=100))
        for _ in range(3):
            codebase.touch("b")
        codebase.install(unit("c", size=100))
        assert "a" not in codebase

    def test_largest_first_frees_big_units(self):
        codebase = Codebase(quota_bytes=300, eviction=largest_first_policy)
        codebase.install(unit("small", size=50))
        codebase.install(unit("big", size=200))
        codebase.install(unit("incoming", size=150))
        assert "big" not in codebase
        assert "small" in codebase

    def test_pinned_units_never_evicted(self):
        codebase = Codebase(quota_bytes=200, eviction=lru_policy)
        codebase.install(unit("core", size=100), pinned=True)
        codebase.install(unit("app", size=100))
        codebase.install(unit("new", size=100))
        assert "core" in codebase
        assert "app" not in codebase

    def test_eviction_insufficient_raises(self):
        codebase = Codebase(quota_bytes=200, eviction=lru_policy)
        codebase.install(unit("core", size=150), pinned=True)
        with pytest.raises(QuotaExceeded):
            codebase.install(unit("huge", size=100))

    def test_uninstall_pinned_refuses(self):
        codebase = Codebase()
        codebase.install(unit("core"), pinned=True)
        with pytest.raises(VersionConflict):
            codebase.uninstall("core")
        codebase.unpin("core")
        codebase.uninstall("core")
        assert "core" not in codebase

    def test_invalid_quota(self):
        with pytest.raises(ValueError):
            Codebase(quota_bytes=0)

    def test_upgrade_keeps_pin(self):
        codebase = Codebase()
        codebase.install(unit("core", "1.0.0"), pinned=True)
        codebase.install(unit("core", "1.1.0"))
        with pytest.raises(VersionConflict):
            codebase.uninstall("core")


class TestQueries:
    def test_satisfies_requirement(self):
        codebase = Codebase()
        codebase.install(unit("a", "1.5.0"))
        from repro.lmu import Requirement

        assert codebase.satisfies(Requirement.parse("a>=1.2"))
        assert not codebase.satisfies(Requirement.parse("a>=1.6"))
        assert not codebase.satisfies(Requirement.parse("b"))

    def test_missing_requirements(self):
        codebase = Codebase()
        dependent = unit("app", requires=["lib>=1.0", "other"])
        codebase.install(unit("lib", "1.2.0"))
        missing = codebase.missing_requirements(dependent)
        assert [str(req) for req in missing] == ["other"]

    def test_providers_of_capability(self):
        codebase = Codebase()
        codebase.install(unit("ogg", provides=["codec:ogg"]))
        codebase.install(unit("mp3", provides=["codec:mp3"]))
        assert [u.name for u in codebase.providers_of("codec:ogg")] == ["ogg"]

    def test_touch_updates_stats(self):
        clock = FakeClock()
        codebase = Codebase(now=clock)
        codebase.install(unit("a"))
        clock.time = 5.0
        codebase.touch("a")
        stats = codebase.stats("a")
        assert stats.last_used == 5.0
        assert stats.use_count == 1


class TestDependencyClosure:
    def build_resolver(self, units):
        by_name = {u.name: u for u in units}

        def resolve(requirement):
            try:
                return by_name[requirement.name]
            except KeyError:
                raise UnitNotFound(requirement.name) from None

        return resolve

    def test_dependencies_ordered_first(self):
        resolver = self.build_resolver(
            [
                unit("app", requires=["lib"]),
                unit("lib", requires=["base"]),
                unit("base"),
            ]
        )
        closure = dependency_closure(["app"], resolver)
        assert [u.name for u in closure] == ["base", "lib", "app"]

    def test_shared_dependency_once(self):
        resolver = self.build_resolver(
            [
                unit("a", requires=["base"]),
                unit("b", requires=["base"]),
                unit("base"),
            ]
        )
        closure = dependency_closure(["a", "b"], resolver)
        assert [u.name for u in closure].count("base") == 1

    def test_cycle_detected(self):
        resolver = self.build_resolver(
            [unit("a", requires=["b"]), unit("b", requires=["a"])]
        )
        with pytest.raises(DependencyError, match="cycle"):
            dependency_closure(["a"], resolver)

    def test_missing_dependency_surfaces(self):
        resolver = self.build_resolver([unit("a", requires=["ghost"])])
        with pytest.raises(UnitNotFound):
            dependency_closure(["a"], resolver)

    def test_unsatisfiable_version_detected(self):
        resolver = self.build_resolver([unit("a", "1.0.0")])
        with pytest.raises(DependencyError):
            dependency_closure(["a>=1.5"], resolver)

    def test_leaves_no_reference_cycles(self):
        resolver = self.build_resolver(
            [
                unit("app", requires=["lib", "base"]),
                unit("lib", requires=["base"]),
                unit("base"),
            ]
        )
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for _ in range(100):
                dependency_closure(["app"], resolver)
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()
