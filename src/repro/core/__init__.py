"""The logical-mobility middleware core — the paper's contribution.

A :class:`MobileHost` runs on every device and hosts pluggable
components implementing the four Fuggetta/Picco/Vigna paradigms —
Client/Server (:class:`ClientServer`), Remote Evaluation
(:class:`RemoteEvaluation`), Code On Demand (:class:`CodeOnDemand`),
and Mobile Agents (:class:`AgentRuntime`) — plus decentralised
discovery, a Jini-style lookup baseline, context awareness, paradigm
assessment/selection, and dynamic self-update via COD.
"""

from .adaptation import (
    PARADIGM_COD,
    PARADIGM_CS,
    PARADIGM_LOCAL,
    PARADIGM_MA,
    PARADIGM_REV,
    PARADIGMS,
    CostEstimate,
    CostWeights,
    ParadigmSelector,
    TaskProfile,
    estimate_cod,
    estimate_cs,
    estimate_local,
    estimate_ma,
    estimate_rev,
    estimator_for,
    register_estimator,
)
from .agents import Agent, AgentContext, AgentRuntime, TaskAgent
from .assessment import (
    AssessmentReport,
    AssessmentRow,
    STANDARD_CONTEXTS,
    assess,
)
from .builders import (
    STANDARD_COMPONENTS,
    mutual_trust,
    pda_host,
    server_host,
    standard_host,
)
from .cod import CodeOnDemand
from .components import Component
from .context import (
    Battery,
    ContextMonitor,
    ContextRegistry,
    KEY_BANDWIDTH,
    KEY_BATTERY,
    KEY_COST_PER_MB,
    KEY_LOCATION_X,
    KEY_LOCATION_Y,
    KEY_NEIGHBORS,
    KEY_STORAGE_FREE,
    Reading,
)
from .cs import ClientServer
from .discovery import Discovery
from .handover import HandoverManager
from .host import MobileHost
from .invocation import (
    DEFAULT_RETRY,
    InvocationOutcome,
    InvocationPipeline,
    InvocationTask,
    LocalExecution,
    Paradigm,
    RetryPolicy,
    provision_task,
    run_task_locally,
)
from .lookup import LookupClient, LookupServer
from .outbox import Outbox, OutboxEntry
from .prefetch import PrefetchItem, Prefetcher
from .rev import RemoteEvaluation
from .services import ServiceDescription, service
from .update import UpdateManager, UpdateReport, component_unit
from .world import World

__all__ = [
    "Agent",
    "AgentContext",
    "AgentRuntime",
    "AssessmentReport",
    "AssessmentRow",
    "Battery",
    "ClientServer",
    "CodeOnDemand",
    "Component",
    "ContextMonitor",
    "ContextRegistry",
    "CostEstimate",
    "CostWeights",
    "DEFAULT_RETRY",
    "Discovery",
    "HandoverManager",
    "InvocationOutcome",
    "InvocationPipeline",
    "InvocationTask",
    "KEY_BANDWIDTH",
    "KEY_BATTERY",
    "KEY_COST_PER_MB",
    "KEY_LOCATION_X",
    "KEY_LOCATION_Y",
    "KEY_NEIGHBORS",
    "KEY_STORAGE_FREE",
    "LocalExecution",
    "LookupClient",
    "LookupServer",
    "MobileHost",
    "Outbox",
    "OutboxEntry",
    "PARADIGMS",
    "PARADIGM_COD",
    "PARADIGM_CS",
    "PARADIGM_LOCAL",
    "PARADIGM_MA",
    "PARADIGM_REV",
    "Paradigm",
    "ParadigmSelector",
    "PrefetchItem",
    "Prefetcher",
    "Reading",
    "RemoteEvaluation",
    "RetryPolicy",
    "STANDARD_COMPONENTS",
    "STANDARD_CONTEXTS",
    "ServiceDescription",
    "TaskAgent",
    "TaskProfile",
    "UpdateManager",
    "UpdateReport",
    "World",
    "assess",
    "component_unit",
    "estimate_cod",
    "estimate_cs",
    "estimate_local",
    "estimate_ma",
    "estimate_rev",
    "estimator_for",
    "mutual_trust",
    "pda_host",
    "provision_task",
    "register_estimator",
    "run_task_locally",
    "server_host",
    "service",
    "standard_host",
]
