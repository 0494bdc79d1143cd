"""E7 / Figure 4 — adaptive paradigm selection vs any fixed paradigm.

A mixed stream of tasks (quick lookups, chatty bulk processing,
reusable capabilities, multi-host errands) is costed under each fixed
paradigm and under the adaptation engine, across two contexts: a free
Wi-Fi hotspot and metered GPRS coverage.  Costing uses the same
estimates the selector itself ranks by, so the adaptive win holds by
construction.  Those estimates are not validated end to end: a probe of
``paradigm_mix`` picks at seed 1 found bulk CS priced at 177.6 while it
realises 1.47, COD priced at 0.29 while it realises 10.2, and an REV
errand priced at 3.98 while it realises 19.6 (ROADMAP.md, "Measure E7
... in the simulator", is where realised costs replace them).

Expected shape: the adaptive strategy matches the per-task best choice
and therefore beats every fixed paradigm on the total composite cost.
"""

from __future__ import annotations

from repro.analysis import render_table
from repro.core import CostWeights, PARADIGMS, ParadigmSelector
from repro.net import GPRS, LAN, WIFI_ADHOC
from repro.net.network import _backbone_link, _direct_link
from repro.sim import RandomStreams
from repro.workloads import mixed_tasks

from _common import once, write_report_data, write_result

TASKS = 60
CONTEXTS = [
    ("wifi-hotspot", _direct_link(WIFI_ADHOC)),
    ("gprs-coverage", _backbone_link(GPRS, LAN)),
]
WEIGHTS = CostWeights(time=1.0, money=1.0)


def run_experiment():
    rng = RandomStreams(707).stream("e7.tasks")
    tasks = mixed_tasks(rng, TASKS)
    selector = ParadigmSelector()
    rows = []
    for context_name, link in CONTEXTS:
        totals = {paradigm: 0.0 for paradigm in PARADIGMS}
        adaptive_total = 0.0
        choices = {paradigm: 0 for paradigm in PARADIGMS}
        for _class_name, profile in tasks:
            estimates = {
                estimate.paradigm: estimate.composite(WEIGHTS)
                for estimate in selector.estimates(profile, link)
            }
            for paradigm, cost in estimates.items():
                totals[paradigm] += cost
            winner = selector.choose(profile, link, WEIGHTS)
            adaptive_total += estimates[winner.paradigm]
            choices[winner.paradigm] += 1
        rows.append(
            [
                context_name,
                totals["cs"],
                totals["rev"],
                totals["cod"],
                totals["ma"],
                adaptive_total,
                " ".join(
                    f"{paradigm}:{count}"
                    for paradigm, count in sorted(choices.items())
                    if count
                ),
            ]
        )
    return rows


def test_e7_adaptive(benchmark):
    rows = once(benchmark, run_experiment)
    table = render_table(
        "E7 / Figure 4 — total composite cost of 60 mixed tasks per strategy",
        [
            "context",
            "fixed CS",
            "fixed REV",
            "fixed COD",
            "fixed MA",
            "adaptive",
            "adaptive picks",
        ],
        rows,
        note=(
            "composite = time + money (equal weights); costs predicted by "
            "the selector's own estimators (realised costs: ROADMAP, "
            "'Measure E7')"
        ),
    )
    write_result("e7_adaptive", table)
    metrics = {}
    for row in rows:
        context = str(row[0]).replace("-", "_")
        for column, paradigm in enumerate(("cs", "rev", "cod", "ma"), 1):
            metrics[f"e7.{context}.fixed_{paradigm}"] = row[column]
        metrics[f"e7.{context}.adaptive"] = row[5]
    write_report_data(
        "e7_adaptive", metrics=metrics, params={"tasks": TASKS}
    )

    for row in rows:
        fixed = row[1:5]
        adaptive = row[5]
        # Adaptive never loses to the best fixed strategy...
        assert adaptive <= min(fixed) * 1.0001
        # ...and strictly beats every fixed one (the mix is genuinely mixed).
        for fixed_total in fixed:
            assert adaptive < fixed_total
        # More than one paradigm actually got picked.
        assert " " in row[6]
