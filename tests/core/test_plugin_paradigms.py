"""Tests for plugging in paradigms dynamically ("used when needed")."""

import pytest

from repro.core import (
    PARADIGMS,
    AgentRuntime,
    ClientServer,
    CodeOnDemand,
    Component,
    CostEstimate,
    CostWeights,
    MobileHost,
    ParadigmSelector,
    TaskProfile,
    UpdateManager,
    World,
    component_unit,
    mutual_trust,
    standard_host,
)
from repro.core.adaptation import PARADIGM_CLASSES
from repro.errors import ComponentError
from repro.lmu import CodeRepository
from repro.net import GPRS, LAN, Position
from repro.net.network import _backbone_link
from repro.security import OPEN_POLICY
from tests.core.conftest import loss_free, run
from tests.core.test_selector_ranking import make_task, make_world


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


class Toy(Component):
    """A fifth paradigm, plugged in by its class alone.

    It prices a task at :attr:`position` of the way from the cheapest
    built-in paradigm's composite (0) to the runner-up's (1), and runs
    it by answering at once.
    """

    kind = "toy"
    paradigm = "toy"
    requires_link = False
    position = 0.5

    def invoke(self, task, target, retry=None):
        yield self.env.timeout(0)
        return f"toy:{task.name}"

    @classmethod
    def estimate(cls, profile, link):
        best, runner_up = (
            estimate.composite(CostWeights())
            for estimate in ParadigmSelector().rank(profile, link)[:2]
        )
        return CostEstimate(
            paradigm=cls.paradigm,
            wireless_bytes=0.0,
            time_s=best + cls.position * (runner_up - best),
            money=0.0,
            energy_j=0.0,
        )


class CheapToy(Toy):
    """The toy priced below every built-in paradigm."""

    kind = "cheap-toy"
    paradigm = "cheap-toy"
    position = -0.5


class TestRegisterEstimator:
    """A fifth paradigm's own ``estimate`` ranks it beside the four."""

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
        expected = [
            builtin[0].paradigm, "toy", *(e.paradigm for e in builtin[1:])
        ]
        selector = ParadigmSelector(available=[*PARADIGMS, "toy"])
        ranked = selector.rank(self.profile, self.link, weights)
        assert [e.paradigm for e in ranked] == expected
        assert ranked[1].composite(weights) == (best + runner_up) / 2

        # The same class, installed on a host, ranks the same way there.
        task = make_task("chore", 20_000.0, 20_000, interactions=3)
        world, device, targets = make_world(task, servers=1)
        device.add_component(Toy())
        outcome = run(
            world, selector.select_and_invoke(device, task, targets[0])
        )
        four = [e.paradigm for e in outcome.ranking if e.paradigm != "toy"]
        assert [e.paradigm for e in outcome.ranking] == [
            four[0], "toy", *four[1:]
        ]
        assert outcome.paradigm == four[0]

    def test_cheapest_toy_paradigm_runs(self):
        task = make_task("chore", 20_000.0, 20_000, interactions=3)
        world, device, targets = make_world(task, servers=1)
        device.add_component(CheapToy())
        selector = ParadigmSelector(available=[*PARADIGMS, "cheap-toy"])
        outcome = run(
            world, selector.select_and_invoke(device, task, targets[0])
        )
        assert outcome.paradigm == "cheap-toy"
        assert outcome.result == "toy:chore"
        assert outcome.ranking[0].paradigm == "cheap-toy"


class TestParadigmKindsAreUnique:
    def test_redeclared_builtin_kind_is_refused(self):
        with pytest.raises(ComponentError, match="'cs'"):

            class Impostor(ClientServer):
                paradigm = "cs"

        assert PARADIGM_CLASSES["cs"] is ClientServer

    def test_inherited_kind_is_not_a_declaration(self):
        class ClientServerV2(ClientServer):
            kind = "cs-v2"

        assert ClientServerV2.paradigm == "cs"
        assert PARADIGM_CLASSES["cs"] is ClientServer


def teardown_module():
    """Unplug this module's kinds so later tests rank the built-ins only."""
    for kind in (Toy.paradigm, CheapToy.paradigm):
        del PARADIGM_CLASSES[kind]
