"""Tests for plugging in paradigms dynamically ("used when needed")."""

from contextlib import contextmanager

import pytest

from repro.core import (
    PARADIGMS,
    AgentRuntime,
    ClientServer,
    CodeOnDemand,
    CostEstimate,
    CostWeights,
    MobileHost,
    ParadigmSelector,
    TaskProfile,
    UpdateManager,
    World,
    component_unit,
    mutual_trust,
    register_estimator,
    standard_host,
)
from repro.core import adaptation
from repro.errors import ComponentError
from repro.lmu import CodeRepository
from repro.net import GPRS, LAN, Position
from repro.net.network import _backbone_link
from repro.security import OPEN_POLICY
from tests.core.conftest import loss_free, run


def minimal_host(world):
    """A host with only the essentials: CS, COD, update manager."""
    node = world.add_node("mini", Position(0, 0), [GPRS])
    host = MobileHost(world, node, policy=OPEN_POLICY)
    host.add_component(ClientServer())
    host.add_component(CodeOnDemand())
    host.add_component(UpdateManager())
    node.interface("gprs").attach()
    return host


def plugin_world():
    world = loss_free(World(seed=161))
    repository = CodeRepository()
    repository.publish(
        component_unit(AgentRuntime, unit_name="component:agents")
    )
    mini = minimal_host(world)
    server = standard_host(
        world, "server", Position(0, 0), [LAN], fixed=True,
        repository=repository,
    )
    mutual_trust(mini, server)
    return world, mini, server


class TestPluginParadigms:
    def test_minimal_host_lacks_agents(self):
        world, mini, server = plugin_world()
        with pytest.raises(ComponentError):
            mini.component("agents")

    def test_install_component_plugs_in_agents(self):
        world, mini, server = plugin_world()

        def go():
            component = yield from mini.component("update").install_component(
                "server", "component:agents"
            )
            return component

        component = run(world, go())
        assert component.kind == "agents"
        assert mini.component("agents") is component
        assert component.started

    def test_plugged_in_runtime_actually_hosts_agents(self):
        from repro.core import Agent

        world, mini, server = plugin_world()

        class Visitor(Agent):
            def on_arrival(self, context):
                if context.host_id != "mini":
                    yield from context.migrate("mini")
                self.state["made_it"] = True
                yield from context.sleep(0)

        def go():
            yield from mini.component("update").install_component(
                "server", "component:agents"
            )
            agent_id = server.component("agents").launch(Visitor())
            final = yield mini.component("agents").completion(agent_id)
            return final

        final = run(world, go())
        assert final["made_it"] is True

    def test_duplicate_install_rejected(self):
        world, mini, server = plugin_world()

        def go():
            yield from mini.component("update").install_component(
                "server", "component:agents"
            )
            yield from mini.component("update").install_component(
                "server", "component:agents"
            )

        with pytest.raises(ComponentError):
            run(world, go())

    def test_component_unit_pinned_against_eviction(self):
        world, mini, server = plugin_world()

        def go():
            yield from mini.component("update").install_component(
                "server", "component:agents"
            )

        run(world, go())
        assert mini.codebase.stats("component:agents").pinned


@contextmanager
def restored_estimators():
    """Put the estimator registry back as it was on the way out."""
    saved = dict(adaptation._ESTIMATORS)
    try:
        yield
    finally:
        adaptation._ESTIMATORS.clear()
        adaptation._ESTIMATORS.update(saved)


class TestRegisterEstimator:
    """A fifth paradigm's estimator ranks beside the built-in four."""

    profile = TaskProfile(
        interactions=10,
        request_bytes=200,
        reply_bytes=2_000,
        code_bytes=50_000,
        result_bytes=500,
        work_units=100,
    )
    link = _backbone_link(GPRS, LAN)

    def test_toy_paradigm_ranks_among_the_four(self):
        weights = CostWeights()
        builtin = ParadigmSelector().rank(self.profile, self.link, weights)
        best, runner_up = (e.composite(weights) for e in builtin[:2])
        assert best < runner_up
        between = (best + runner_up) / 2

        def estimate_toy(profile, link):
            return CostEstimate(
                paradigm="toy",
                wireless_bytes=0.0,
                time_s=between,
                money=0.0,
                energy_j=0.0,
            )

        with restored_estimators():
            register_estimator("toy", estimate_toy)
            ranked = ParadigmSelector(available=[*PARADIGMS, "toy"]).rank(
                self.profile, self.link, weights
            )
        assert [e.paradigm for e in ranked] == [
            builtin[0].paradigm,
            "toy",
            *(e.paradigm for e in builtin[1:]),
        ]
        assert ranked[1].composite(weights) == between
        # Restored: the toy kind is unknown again.
        with pytest.raises(ValueError):
            ParadigmSelector(available=["toy"])
