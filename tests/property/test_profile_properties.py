"""``resolve_profile`` builds the profile of its reference form.

The selector resolves a task's :class:`TaskProfile` once per selection
and prices every candidate paradigm on it.  For random tasks, speeds,
quotas, target counts and observed work (int/float mixes included),
``resolve_profile`` and the reference form below must produce equal
profiles, and every built-in paradigm's ``estimate`` must price the two
equally.
"""

from typing import Optional

from hypothesis import given, settings, strategies as st

from repro.core import (
    AgentRuntime,
    ClientServer,
    CodeOnDemand,
    LocalExecution,
    RemoteEvaluation,
)
from repro.core.adaptation import TaskProfile
from repro.core.invocation import InvocationTask, resolve_profile
from repro.net import GPRS, LAN
from repro.net.network import _backbone_link

GPRS_LINK = _backbone_link(GPRS, LAN)
PARADIGMS = (
    ClientServer, RemoteEvaluation, CodeOnDemand, AgentRuntime, LocalExecution
)


def oracle_resolve_profile(
    task: InvocationTask,
    local_speed: Optional[float] = None,
    remote_speed: Optional[float] = None,
    hosts: Optional[int] = None,
    local_work_quota: Optional[float] = None,
    remote_work_quota: Optional[float] = None,
    observed_work: Optional[float] = None,
) -> TaskProfile:
    """``resolve_profile``, written out as the reference."""
    count = int(hosts) if hosts else 1
    count = max(1, count)
    return TaskProfile(
        interactions=max(1, task.interactions) * count,
        request_bytes=task.request_bytes,
        reply_bytes=task.reply_bytes,
        code_bytes=task.code_bytes,
        result_bytes=task.result_bytes,
        work_units=max(task.work_units, observed_work or 0.0),
        local_speed=0.2 if local_speed is None else local_speed,
        remote_speed=1.0 if remote_speed is None else remote_speed,
        expected_reuses=task.expected_reuses,
        hosts_to_visit=count,
        state_bytes=task.state_bytes,
        local_work_quota=local_work_quota,
        remote_work_quota=remote_work_quota,
    )


# Small pools, so the arguments often equal each other as int or as
# float (300000 vs 300000.0, 1 vs 1.0).
speeds = st.sampled_from([0.2, 0.5, 1, 1.0, 2, 2.0])
quotas = st.sampled_from([None, 1_000, 1_000.0, 300_000, 300_000.0, 5e6])
works = st.sampled_from([0, 1_000, 1_000.0, 10_000, 10_000.0, 250_000.5])
maybe = lambda strategy: st.none() | strategy  # noqa: E731

tasks = st.builds(
    InvocationTask,
    name=st.sampled_from(["t", "crunch"]),
    work_units=works,
    code_bytes=st.integers(0, 50_000),
    request_bytes=st.integers(0, 5_000),
    reply_bytes=st.integers(0, 5_000),
    result_bytes=st.integers(0, 5_000),
    interactions=st.integers(0, 20),
    expected_reuses=st.integers(1, 50),
    state_bytes=st.integers(0, 2_000),
)
arguments = st.fixed_dictionaries(
    {
        "local_speed": maybe(speeds),
        "remote_speed": maybe(speeds),
        "hosts": maybe(st.integers(0, 6)),
        "local_work_quota": quotas,
        "remote_work_quota": quotas,
        "observed_work": maybe(works),
    }
)


class TestResolveProfileMatchesOracle:
    @settings(max_examples=300)
    @given(task=tasks, kwargs=arguments)
    def test_same_profile_and_estimates(self, task, kwargs):
        resolved = resolve_profile(task, **kwargs)
        expected = oracle_resolve_profile(task, **kwargs)
        assert type(resolved) is TaskProfile
        assert resolved == expected
        for paradigm in PARADIGMS:
            assert paradigm.estimate(resolved, GPRS_LINK) == paradigm.estimate(
                expected, GPRS_LINK
            )
