"""repro — a logical-mobility middleware for mobile computing.

A complete, from-scratch reproduction of the system described in
S. Zachariadis, C. Mascolo & W. Emmerich, *Exploiting Logical Mobility
in Mobile Computing Middleware* (ICDCS Workshops 2002): a discrete-
event simulated world of fixed and mobile devices, a middleware that
plugs in the four code-mobility paradigms (Client/Server, Remote
Evaluation, Code On Demand, Mobile Agents), decentralised and
centralised service discovery, signed code capsules, a protected agent
environment, context awareness, paradigm assessment, and dynamic
middleware self-update.

Quickstart::

    from repro import World, standard_host, mutual_trust
    from repro.net import WIFI_ADHOC, Position

    world = World(seed=7)
    alice = standard_host(world, "alice", Position(0, 0), [WIFI_ADHOC])
    bob = standard_host(world, "bob", Position(30, 0), [WIFI_ADHOC])
    mutual_trust(alice, bob)
    bob.register_service("greet", lambda args, host: (f"hello {args}", 64))

    def app():
        reply = yield from alice.component("cs").call("bob", "greet", "alice")
        return reply

    process = world.env.process(app())
    print(world.run(until=process))  # -> "hello alice"

Subpackages:

* :mod:`repro.sim`        — discrete-event kernel;
* :mod:`repro.net`        — link technologies, mobility, transport;
* :mod:`repro.lmu`        — logical mobility units, capsules, codebases;
* :mod:`repro.security`   — signatures, trust, policy, sandbox;
* :mod:`repro.core`       — the middleware itself;
* :mod:`repro.faults`     — deterministic fault injection and chaos;
* :mod:`repro.tuplespace` — Linda/Lime data-sharing baseline;
* :mod:`repro.apps`       — the paper's five scenario applications;
* :mod:`repro.workloads`  — experiment workload generators;
* :mod:`repro.analysis`   — table rendering for experiments.
"""

from .core import (
    Agent,
    AgentRuntime,
    Battery,
    ClientServer,
    CodeOnDemand,
    Component,
    Discovery,
    LookupClient,
    LookupServer,
    MobileHost,
    ParadigmSelector,
    RemoteEvaluation,
    TaskProfile,
    UpdateManager,
    World,
    mutual_trust,
    service,
    standard_host,
)
from .errors import ReproError

__version__ = "1.0.0"

__all__ = [
    "Agent",
    "AgentRuntime",
    "Battery",
    "ClientServer",
    "CodeOnDemand",
    "Component",
    "Discovery",
    "LookupClient",
    "LookupServer",
    "MobileHost",
    "ParadigmSelector",
    "RemoteEvaluation",
    "ReproError",
    "TaskProfile",
    "UpdateManager",
    "World",
    "__version__",
    "mutual_trust",
    "service",
    "standard_host",
]
