"""Unit tests for design-time paradigm assessment."""

import pytest

from repro.core import (
    CostWeights,
    STANDARD_CONTEXTS,
    TaskProfile,
    assess,
)


def profile(**overrides):
    base = dict(
        interactions=20,
        request_bytes=200,
        reply_bytes=2_000,
        code_bytes=40_000,
        result_bytes=500,
        work_units=20_000,
        expected_reuses=5,
    )
    base.update(overrides)
    return TaskProfile(**base)


class TestAssess:
    def test_covers_all_standard_contexts(self):
        report = assess(profile())
        assert [row.context for row in report.rows] == [
            name for name, _link in STANDARD_CONTEXTS
        ]

    def test_every_row_has_all_paradigm_estimates(self):
        report = assess(profile())
        for row in report.rows:
            assert {e.paradigm for e in row.estimates} == {
                "cs",
                "rev",
                "cod",
                "ma",
            }

    def test_winner_is_cheapest_composite(self):
        report = assess(profile())
        for row in report.rows:
            costs = {
                e.paradigm: e.composite(report.weights) for e in row.estimates
            }
            assert costs[row.winner] == min(costs.values())

    def test_margin_at_least_one(self):
        report = assess(profile())
        for row in report.rows:
            assert row.margin >= 1.0

    def test_metered_links_favour_code_mobility(self):
        report = assess(profile())
        winners = report.winner_by_context()
        # On metered slow links a logical-mobility paradigm must win.
        assert winners["gprs"] in ("cod", "rev", "ma")
        assert winners["gsm-dialup"] in ("cod", "rev", "ma")

    def test_unanimous_detection(self):
        # A one-shot tiny task: CS wins everywhere.
        report = assess(
            profile(
                interactions=1,
                reply_bytes=100,
                code_bytes=500_000,
                expected_reuses=1,
            )
        )
        assert report.unanimous() == "cs"
        # The mixed case is not unanimous.
        assert assess(profile()).unanimous() is None

    def test_restricted_paradigm_set(self):
        report = assess(profile(), paradigms=["rev", "cs"])
        for row in report.rows:
            assert row.winner in ("cs", "rev")
            assert len(row.estimates) == 2
        # The table has one cost column per assessed paradigm, in the
        # order they were asked for.
        header = report.render().splitlines()[2].split()
        assert header == [
            "context", "rev", "cost", "cs", "cost", "winner", "margin", "x"
        ]

    def test_render_contains_contexts_and_winners(self):
        report = assess(profile())
        text = report.render()
        assert "gprs" in text
        assert "winner" in text

    def test_weights_change_verdict(self):
        # Money-blind assessment on GPRS favours speed.
        report_fast = assess(profile(), weights=CostWeights(time=1, money=0))
        report_cheap = assess(profile(), weights=CostWeights(time=0, money=1))
        assert (
            report_fast.winner_by_context() != report_cheap.winner_by_context()
        )

    def test_estimate_for_unknown_paradigm_raises(self):
        report = assess(profile())
        with pytest.raises(KeyError):
            report.rows[0].estimate_for("warp")
