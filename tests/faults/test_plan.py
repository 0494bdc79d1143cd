"""Unit tests for the declarative fault plan."""

import pytest

from repro.faults import FAULT_KINDS, FaultPlan, FaultSpec


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="meteor", at=1.0)

    def test_negative_schedule_rejected(self):
        with pytest.raises(ValueError, match="past"):
            FaultSpec(kind="drop", at=-1.0)

    def test_rate_bounds(self):
        with pytest.raises(ValueError, match="rate"):
            FaultSpec(kind="drop", at=0.0, rate=1.5)

    def test_overlapping_repeats_rejected(self):
        with pytest.raises(ValueError, match="period"):
            FaultSpec(
                kind="crash",
                at=0.0,
                duration=10.0,
                targets=("a",),
                repeat=3,
                period=5.0,
            )

    def test_partition_needs_two_groups(self):
        with pytest.raises(ValueError, match="two groups"):
            FaultSpec(kind="partition", at=0.0, groups=(("a", "b"),))

    def test_crash_needs_targets(self):
        with pytest.raises(ValueError, match="target"):
            FaultSpec(kind="crash", at=0.0)

    def test_hostile_guest_needs_targets(self):
        with pytest.raises(ValueError, match="target"):
            FaultSpec(kind="hostile_guest", at=0.0, guest="quota_loop")

    def test_hostile_guest_must_be_registered(self):
        with pytest.raises(ValueError, match="unknown hostile guest"):
            FaultSpec(
                kind="hostile_guest", at=0.0, targets=("a",), guest="meteor"
            )

    def test_window_occurrences(self):
        spec = FaultSpec(
            kind="drop", at=10.0, duration=2.0, repeat=3, period=5.0
        )
        assert spec.window(0) == (10.0, 12.0)
        assert spec.window(2) == (20.0, 22.0)

    def test_matches_targets_and_kind_globs(self):
        spec = FaultSpec(
            kind="drop",
            at=0.0,
            targets=("b",),
            message_kinds=("cs.*",),
        )
        assert spec.matches("b", "cs.request")
        assert not spec.matches("a", "cs.request")
        assert not spec.matches("b", "disc.request")

    def test_empty_scopes_match_everything(self):
        spec = FaultSpec(kind="corrupt", at=0.0)
        assert spec.matches("anyone", "any.kind")


class TestFaultPlan:
    def make_plan(self):
        return (
            FaultPlan()
            .link_flap(["a"], at=1.0, down_s=2.0)
            .crash(["b"], at=3.0, down_s=4.0)
            .partition([["a"], ["b"]], at=5.0, duration=6.0)
            .drop(at=7.0, duration=1.0, rate=0.5)
            .duplicate(at=8.0, duration=1.0, rate=0.25, delay_s=0.1)
            .delay(at=9.0, duration=1.0, extra_s=2.0)
            .corrupt(at=10.0, duration=1.0, rate=0.1)
            .hostile_guest(["b"], at=11.0, guest="quota_loop")
        )

    def test_builders_cover_all_kinds(self):
        kinds = {spec.kind for spec in self.make_plan()}
        assert kinds == set(FAULT_KINDS)

    def test_churn_round_robin(self):
        plan = FaultPlan().churn(
            ["a", "b"], start=10.0, period=5.0, down_s=2.0, rounds=2
        )
        schedule = [(spec.targets[0], spec.at) for spec in plan]
        assert schedule == [
            ("a", 10.0),
            ("b", 15.0),
            ("a", 20.0),
            ("b", 25.0),
        ]

    def test_churn_must_restart(self):
        with pytest.raises(ValueError, match="restart"):
            FaultPlan().churn(["a"], start=0.0, period=5.0, down_s=0.0)

    def test_roundtrip_through_dict(self):
        plan = self.make_plan()
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone.faults == plan.faults

    def test_dict_form_omits_defaults(self):
        plan = FaultPlan().drop(at=1.0, duration=2.0, rate=1.0)
        data = plan.to_dict()["faults"][0]
        assert data == {"kind": "drop", "at": 1.0, "duration": 2.0}
