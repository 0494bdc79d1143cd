"""``resolve_profile`` gives the answers of its ``replace``-always form.

The selector resolves a task's :class:`TaskProfile` once and every
candidate's ``Component.cost`` re-resolves it with the same speeds,
quotas and observed work.  ``resolve_profile`` now copies a profile
only when a given value differs from the field it would replace; the
old form (kept below as the oracle) copied whenever any value was
given.  Both must produce equal profiles and equal estimates, and
re-resolving a result with the same arguments must hand back that very
object.
"""

from dataclasses import replace
from typing import Dict, Optional, Union

from hypothesis import given, settings, strategies as st

from repro.core.adaptation import (
    TaskProfile,
    estimate_cod,
    estimate_cs,
    estimate_local,
    estimate_ma,
    estimate_rev,
)
from repro.core.invocation import InvocationTask, resolve_profile
from repro.net import GPRS, LAN
from repro.net.network import _backbone_link

GPRS_LINK = _backbone_link(GPRS, LAN)
ESTIMATORS = (
    estimate_cs, estimate_rev, estimate_cod, estimate_ma, estimate_local
)


def oracle_resolve_profile(
    task: Union[InvocationTask, TaskProfile],
    local_speed: Optional[float] = None,
    remote_speed: Optional[float] = None,
    hosts: Optional[int] = None,
    local_work_quota: Optional[float] = None,
    remote_work_quota: Optional[float] = None,
    observed_work: Optional[float] = None,
) -> TaskProfile:
    """``resolve_profile`` as it was before the no-op-copy skip."""
    if isinstance(task, TaskProfile):
        updates: Dict[str, float] = {}
        if local_speed is not None:
            updates["local_speed"] = local_speed
        if remote_speed is not None:
            updates["remote_speed"] = remote_speed
        if local_work_quota is not None:
            updates["local_work_quota"] = local_work_quota
        if remote_work_quota is not None:
            updates["remote_work_quota"] = remote_work_quota
        if observed_work is not None and observed_work > task.work_units:
            updates["work_units"] = observed_work
        return replace(task, **updates) if updates else task
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


# Small pools, so the arguments often equal the profile's own fields,
# as int or as float (300000 vs 300000.0, 1 vs 1.0).
speeds = st.sampled_from([0.2, 0.5, 1, 1.0, 2, 2.0])
quotas = st.sampled_from([None, 1_000, 1_000.0, 300_000, 300_000.0, 5e6])
works = st.sampled_from([0, 1_000, 1_000.0, 10_000, 10_000.0, 250_000.5])
maybe = lambda strategy: st.none() | strategy  # noqa: E731

profiles = st.builds(
    TaskProfile,
    interactions=st.integers(1, 20),
    request_bytes=st.integers(0, 5_000),
    reply_bytes=st.integers(0, 5_000),
    code_bytes=st.integers(0, 50_000),
    result_bytes=st.integers(0, 5_000),
    work_units=works,
    local_speed=speeds,
    remote_speed=speeds,
    expected_reuses=st.integers(1, 50),
    hosts_to_visit=st.integers(1, 5),
    state_bytes=st.integers(0, 2_000),
    local_work_quota=quotas,
    remote_work_quota=quotas,
)
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
    @given(task=profiles | tasks, kwargs=arguments)
    def test_same_profile_and_estimates(self, task, kwargs):
        resolved = resolve_profile(task, **kwargs)
        expected = oracle_resolve_profile(task, **kwargs)
        assert type(resolved) is TaskProfile
        assert resolved == expected
        for estimator in ESTIMATORS:
            assert estimator(resolved, GPRS_LINK) == estimator(
                expected, GPRS_LINK
            )

    @settings(max_examples=300)
    @given(task=profiles | tasks, kwargs=arguments)
    def test_re_resolving_returns_the_same_object(self, task, kwargs):
        resolved = resolve_profile(task, **kwargs)
        assert resolve_profile(resolved, **kwargs) is resolved

    @given(profile=profiles)
    def test_nothing_given_returns_the_profile(self, profile):
        assert resolve_profile(profile) is profile

    def test_int_float_mix_keeps_the_profile(self):
        profile = TaskProfile(
            interactions=1,
            request_bytes=1,
            reply_bytes=1,
            code_bytes=1,
            result_bytes=1,
            work_units=1_000,
            local_speed=1,
            local_work_quota=300_000,
        )
        resolved = resolve_profile(
            profile,
            local_speed=1.0,
            local_work_quota=300_000.0,
            observed_work=1_000.0,
        )
        assert resolved is profile
        assert resolved == oracle_resolve_profile(
            profile,
            local_speed=1.0,
            local_work_quota=300_000.0,
            observed_work=1_000.0,
        )
