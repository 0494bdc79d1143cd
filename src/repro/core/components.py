"""The component model: pluggable middleware capabilities.

The paper argues that "different mobile code paradigms could be
plugged-in dynamically and used when needed".  Concretely: each
paradigm (CS, REV, COD, MA), discovery flavour, and manager is a
:class:`Component` registered with a host.  Components declare the
message kinds they handle; the host's dispatcher routes inbound
messages to them.  A paradigm component also carries the paradigm
contract: :meth:`Component.invoke` runs a task and
:meth:`Component.estimate` prices it, so assessment and execution ship
together.  Because components are described by code units,
they can themselves be shipped and hot-swapped via COD (see
:mod:`repro.core.update`).
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Generator,
    Optional,
    Sequence,
    Union,
)

from ..errors import ComponentError
from ..lmu import Version
from ..net import Link, Message
from .adaptation import PARADIGM_CLASSES, CostEstimate, TaskProfile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .host import MobileHost
    from .invocation import InvocationTask, RetryPolicy

#: A handler consumes one inbound message; it is run as a kernel process,
#: so it may yield events (timeouts, sends) freely.
MessageHandler = Callable[[Message], Generator]


class Component:
    """Base class for middleware components.

    Subclasses set :attr:`kind` (registry name, e.g. ``"cod"``) and
    :attr:`version`, implement :meth:`handlers`, and may override the
    lifecycle hooks.  A component is *attached* to exactly one host.

    A paradigm component also declares :attr:`paradigm` and
    :attr:`requires_link` and implements :meth:`invoke` and
    :meth:`estimate`.  Declaring :attr:`paradigm` in a class body
    plugs the class in: ``ParadigmSelector`` can rank its kind from
    then on.  A kind has one class: declaring a kind another class
    already holds raises :class:`~repro.errors.ComponentError`
    (a subclass that inherits its kind does not declare it).
    """

    kind: str = "component"
    version: Version = Version(1, 0, 0)
    #: Modelled code footprint when shipped as an update capsule.
    code_size: int = 8_000
    #: Paradigm kind this component executes (``"cs"``, ``"rev"``, …),
    #: or None for non-paradigm components (lookup, update, outbox).
    paradigm: Optional[str] = None
    #: False when :meth:`invoke` works without a usable network link
    #: (local execution, COD against an already-cached unit).
    requires_link: bool = True

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        kind = cls.__dict__.get("paradigm")
        if kind is None:
            return
        holder = PARADIGM_CLASSES.get(kind)
        if holder is not None:
            raise ComponentError(
                f"paradigm {kind!r} is already held by {holder.__qualname__}"
            )
        PARADIGM_CLASSES[kind] = cls

    def __init__(self) -> None:
        self.host: Optional["MobileHost"] = None
        self.started = False
        self._pipeline = None

    # -- lifecycle -------------------------------------------------------------

    def attach(self, host: "MobileHost") -> None:
        if self.host is not None:
            raise ComponentError(
                f"component {self.kind} is already attached to {self.host.id}"
            )
        self.host = host

    def start(self) -> None:
        """Begin operation (spawn internal processes here)."""
        if self.host is None:
            raise ComponentError(f"component {self.kind} is not attached")
        self.started = True

    def stop(self) -> None:
        """Cease operation; must leave the component restartable-by-replacement."""
        self.started = False

    # -- dispatch ---------------------------------------------------------------

    def handlers(self) -> Dict[str, MessageHandler]:
        """Message kind -> handler mapping this component serves."""
        return {}

    # -- conveniences ------------------------------------------------------------

    @property
    def env(self):
        if self.host is None:
            raise ComponentError(f"component {self.kind} is not attached")
        return self.host.env

    def require_host(self) -> "MobileHost":
        if self.host is None:
            raise ComponentError(f"component {self.kind} is not attached")
        return self.host

    @property
    def pipeline(self):
        """This component's :class:`~repro.core.invocation.InvocationPipeline`
        (created lazily; metric namespace is :attr:`paradigm`, falling
        back to :attr:`kind` for non-paradigm components)."""
        if self._pipeline is None:
            from .invocation import InvocationPipeline

            self._pipeline = InvocationPipeline(
                self, self.paradigm or self.kind
            )
        return self._pipeline

    # -- the paradigm contract -----------------------------------------------------

    def invoke(
        self,
        task: "InvocationTask",
        target: Union[str, Sequence[str], None],
        retry: Optional["RetryPolicy"] = None,
    ) -> Generator:
        """Run ``task`` against ``target`` (generator; returns result)."""
        raise NotImplementedError(f"component {self.kind} runs no paradigm")

    @classmethod
    def estimate(
        cls, profile: TaskProfile, link: Optional[Link]
    ) -> CostEstimate:
        """Predicted cost of :meth:`invoke` for ``profile`` over ``link``
        (``None`` only for a component that does not require a link),
        labelled :attr:`paradigm`."""
        raise NotImplementedError(f"component {cls.kind} prices no paradigm")

    def __repr__(self) -> str:
        owner = self.host.id if self.host else "unattached"
        return f"<{type(self).__name__} {self.kind}@{self.version} on {owner}>"
