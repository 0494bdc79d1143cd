"""Work-count gate for the paradigm selection path.

Exact counts, not timings: on a fixed small world whose context does
not change between selections, ``select_and_invoke`` must

* resolve the profile exactly once per selection, however many
  candidates it prices (each ``Component.estimate`` prices the one
  profile the selector built);
* parse each version text at most once (``Version.parse`` memoises);
* run no ``import`` statement.

Any of these doubling is a regression the counts catch at once.
"""

import builtins

import pytest

from repro.core import ParadigmSelector, adaptation, provision_task
from repro.lmu import units
from tests.core.test_selector_ranking import ALL_FIVE, make_task, make_world

ROUNDS = 4


class Counting:
    """Wrap a callable and count its calls."""

    def __init__(self, function):
        self.function = function
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.function(*args, **kwargs)


class CountingPattern:
    """A compiled regex whose ``match`` counts calls per text."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.texts = {}

    def match(self, text):
        self.texts[text] = self.texts.get(text, 0) + 1
        return self.pattern.match(text)


@pytest.fixture
def warmed():
    """A device and two servers, and five selections whose winners are
    local, CS (once the guest's work is metered), MA, REV (two targets)
    and COD (the four mobile paradigms only).  Two warm-up rounds fill
    code caches, metered work, pipelines and metric children."""
    plays = [
        (ALL_FIVE, make_task("light", 20_000.0, 20_000, interactions=3), 1),
        (ALL_FIVE, make_task("heavy", 5_000.0, 400_000, expected_reuses=4), 1),
        (
            ALL_FIVE,
            make_task(
                "crunch", 200_000.0, 200_000, interactions=40,
                reply_bytes=3_000, code_bytes=2_000,
            ),
            1,
        ),
        (
            ALL_FIVE,
            make_task(
                "tour", 200_000.0, 200_000, interactions=40,
                reply_bytes=3_000, code_bytes=2_000,
            ),
            2,
        ),
        (
            None,
            make_task(
                "reuse", 1_000.0, 1_000, interactions=5, reply_bytes=2_000,
                expected_reuses=500,
            ),
            1,
        ),
    ]
    world, device, targets = make_world(plays[0][1])
    for _, task, _ in plays[1:]:
        for target in targets:
            provision_task(world.hosts[target], task)
    plays = [
        (ParadigmSelector(available), task, targets[:count])
        for available, task, count in plays
    ]

    def select_all():
        outcomes = []
        for selector, task, target in plays:
            process = world.env.process(
                selector.select_and_invoke(device, task, target)
            )
            outcomes.append(world.run(until=process))
        return outcomes

    for _ in range(2):
        select_all()
    return select_all


def test_selection_path_work_counts(warmed, monkeypatch):
    resolve = Counting(adaptation.resolve_profile)
    pattern = CountingPattern(units._VERSION_RE)
    imports = Counting(builtins.__import__)
    monkeypatch.setattr(adaptation, "resolve_profile", resolve)
    monkeypatch.setattr(units, "_VERSION_RE", pattern)
    units._parse_version.cache_clear()
    monkeypatch.setattr(builtins, "__import__", imports)
    outcomes = [outcome for _ in range(ROUNDS) for outcome in warmed()]
    monkeypatch.undo()

    assert {outcome.paradigm for outcome in outcomes} == set(ALL_FIVE)
    assert resolve.calls == len(outcomes)
    assert pattern.texts, "the selections parsed no version at all"
    assert max(pattern.texts.values()) == 1, pattern.texts
    assert imports.calls == 0
