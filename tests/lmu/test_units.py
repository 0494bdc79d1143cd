"""Unit tests for versions, requirements, and unit definitions."""

import pytest

from repro.errors import CodebaseError
from repro.lmu import CodeUnit, DataUnit, Requirement, Version, code_unit


class TestVersion:
    def test_parse_full(self):
        assert Version.parse("1.2.3") == Version(1, 2, 3)

    def test_parse_short(self):
        assert Version.parse("2.1") == Version(2, 1, 0)

    def test_parse_rejects_garbage(self):
        for bad in ("", "1", "a.b.c", "1.2.3.4", "-1.0"):
            with pytest.raises(CodebaseError):
                Version.parse(bad)

    def test_ordering(self):
        assert Version(1, 0, 0) < Version(1, 0, 1) < Version(1, 1, 0) < Version(2, 0, 0)

    def test_compatibility_same_major_newer_ok(self):
        assert Version(1, 5, 0).compatible_with(Version(1, 2, 0))

    def test_compatibility_older_fails(self):
        assert not Version(1, 1, 0).compatible_with(Version(1, 2, 0))

    def test_compatibility_major_change_fails(self):
        assert not Version(2, 0, 0).compatible_with(Version(1, 9, 9))

    def test_str_roundtrip(self):
        assert str(Version.parse("3.4.5")) == "3.4.5"


class TestRequirement:
    def test_parse_bare_name(self):
        requirement = Requirement.parse("codec-ogg")
        assert requirement.name == "codec-ogg"
        assert requirement.min_version == Version(0, 0, 0)

    def test_parse_with_version(self):
        requirement = Requirement.parse("codec-ogg>=1.2")
        assert requirement.min_version == Version(1, 2, 0)

    def test_satisfied_by(self):
        unit = code_unit("codec-ogg", "1.3.0", lambda: (lambda ctx: None), 100)
        assert Requirement.parse("codec-ogg>=1.2").satisfied_by(unit)
        assert not Requirement.parse("codec-ogg>=1.4").satisfied_by(unit)
        assert not Requirement.parse("other").satisfied_by(unit)

    def test_str_forms(self):
        assert str(Requirement.parse("x")) == "x"
        assert str(Requirement.parse("x>=1.0.0")) == "x>=1.0.0"


class TestCodeUnit:
    def test_qualified_name(self):
        unit = code_unit("player", "2.0.1", lambda: (lambda ctx: None), 10)
        assert unit.qualified_name == "player@2.0.1"

    def test_instantiate_fresh_instances(self):
        instances = []

        def factory():
            def run(context):
                return len(instances)

            instances.append(run)
            return run

        unit = code_unit("u", "1.0", factory, 10)
        first = unit.instantiate()
        second = unit.instantiate()
        assert first is not second

    def test_empty_name_rejected(self):
        with pytest.raises(CodebaseError):
            code_unit("", "1.0", lambda: (lambda ctx: None), 10)

    def test_negative_size_rejected(self):
        with pytest.raises(CodebaseError):
            code_unit("u", "1.0", lambda: (lambda ctx: None), -5)


class TestDataUnit:
    def test_holds_payload(self):
        data = DataUnit("state", {"x": 1}, 50)
        assert data.payload == {"x": 1}

    def test_negative_size_rejected(self):
        with pytest.raises(CodebaseError):
            DataUnit("state", None, -1)
