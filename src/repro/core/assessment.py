"""Design-time paradigm assessment reports.

The paper's closing paragraph sketches "a design methodology, possibly
based on UML, that can be used by application programmers to evaluate
the use of each mobile code paradigm, depending on different contexts"
(in the spirit of PrimaMob-UML).  This module is the programmatic
version: given a :class:`~repro.core.adaptation.TaskProfile`, it
evaluates every paradigm across every deployment context (link
technology pair) and renders the decision table a designer would read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..net import Link
from ..net.network import _backbone_link, _direct_link
from ..net.technologies import BLUETOOTH, DIALUP, GPRS, LAN, WIFI_ADHOC, WIFI_INFRA
from .adaptation import (
    CostEstimate,
    CostWeights,
    ParadigmSelector,
    TaskProfile,
)

#: The deployment contexts a designer typically weighs up.
STANDARD_CONTEXTS: Tuple[Tuple[str, Link], ...] = (
    ("bluetooth-piconet", _direct_link(BLUETOOTH)),
    ("wifi-adhoc", _direct_link(WIFI_ADHOC)),
    ("wifi-hotspot", _backbone_link(WIFI_INFRA, LAN)),
    ("gprs", _backbone_link(GPRS, LAN)),
    ("gsm-dialup", _backbone_link(DIALUP, LAN)),
)


@dataclass(frozen=True)
class AssessmentRow:
    """One context's verdict for a task profile."""

    context: str
    winner: str
    margin: float  #: runner-up composite / winner composite
    estimates: Tuple[CostEstimate, ...]

    def estimate_for(self, paradigm: str) -> CostEstimate:
        for estimate in self.estimates:
            if estimate.paradigm == paradigm:
                return estimate
        raise KeyError(paradigm)


@dataclass
class AssessmentReport:
    """The full decision table for one task profile."""

    profile: TaskProfile
    weights: CostWeights
    rows: List[AssessmentRow]
    #: The assessed paradigm kinds, in the selector's ``available``
    #: order: the report's cost columns.
    paradigms: Tuple[str, ...]

    def winner_by_context(self) -> Dict[str, str]:
        return {row.context: row.winner for row in self.rows}

    def unanimous(self) -> Optional[str]:
        """The single winning paradigm, if one wins every context."""
        winners = {row.winner for row in self.rows}
        if len(winners) == 1:
            return winners.pop()
        return None

    def render(self) -> str:
        """The report as a designer-readable text table."""
        from ..analysis import render_table

        header = ["context"] + [f"{p} cost" for p in self.paradigms] + [
            "winner",
            "margin x",
        ]
        table_rows = []
        for row in self.rows:
            cells: List[object] = [row.context]
            for paradigm in self.paradigms:
                cells.append(row.estimate_for(paradigm).composite(self.weights))
            cells.append(row.winner)
            cells.append(row.margin)
            table_rows.append(cells)
        return render_table(
            "Paradigm assessment (composite cost per context)",
            header,
            table_rows,
            note=(
                f"task: n={self.profile.interactions}, "
                f"code={self.profile.code_bytes}B, "
                f"reuse={self.profile.expected_reuses}x"
            ),
        )


def assess(
    profile: TaskProfile,
    weights: CostWeights = CostWeights(),
    contexts: Sequence[Tuple[str, Link]] = STANDARD_CONTEXTS,
    paradigms: Optional[List[str]] = None,
) -> AssessmentReport:
    """Evaluate every paradigm for ``profile`` across ``contexts``."""
    selector = ParadigmSelector(available=paradigms)
    rows = []
    for context_name, link in contexts:
        ranked = selector.rank(profile, link, weights)
        winner = ranked[0]
        if len(ranked) > 1:
            winner_cost = winner.composite(weights)
            runner_up = ranked[1].composite(weights)
            margin = runner_up / winner_cost if winner_cost > 0 else float("inf")
        else:
            margin = float("inf")
        rows.append(
            AssessmentRow(
                context=context_name,
                winner=winner.paradigm,
                margin=margin,
                estimates=tuple(ranked),
            )
        )
    return AssessmentReport(
        profile=profile,
        weights=weights,
        rows=rows,
        paradigms=tuple(selector.available),
    )
