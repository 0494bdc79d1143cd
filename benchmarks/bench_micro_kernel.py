"""Microbenchmarks — raw throughput of the substrate layers.

Unlike E1–E10 (simulated-time experiments), these measure *wall-clock*
performance of the implementation itself: kernel event throughput,
transport message rate, CS round trips, and agent migrations per real
second.  They exist so a regression in the simulator's own speed is
caught, and to document the scale the harness supports (the laptop-
scale claim of the reproduction).
"""

from __future__ import annotations

from bisect import insort
from statistics import median
from time import perf_counter

from repro.core import Agent, World, mutual_trust, standard_host
from repro.net import Message, Position, WIFI_ADHOC
from repro.obs import SpanTracer
from repro.sim import AllOf, AnyOf, Environment, Event
from repro.sim.metrics import Histogram

from _common import gate_against_baseline, instrument, write_report, write_report_data


def test_kernel_event_throughput(benchmark):
    """Schedule-and-run 10k timeout events."""

    def run_events():
        env = Environment()

        def ticker(env):
            for _ in range(10_000):
                yield env.timeout(1.0)

        env.process(ticker(env))
        env.run()
        return env.now

    result = benchmark(run_events)
    assert result == 10_000.0


def test_kernel_process_churn(benchmark):
    """Spawn 2k short-lived processes."""

    def run_processes():
        env = Environment()

        def worker(env, n):
            yield env.timeout(float(n % 7) + 0.1)
            return n

        for n in range(2_000):
            env.process(worker(env, n))
        env.run()
        return True

    assert benchmark(run_processes)


def _message_world():
    world = World(seed=1)
    world.transport._rng.random = lambda: 0.999
    a = standard_host(world, "a", Position(0, 0), [WIFI_ADHOC])
    b = standard_host(world, "b", Position(10, 0), [WIFI_ADHOC])
    mutual_trust(a, b)
    return world, a, b


def test_transport_message_rate(benchmark):
    """Push 500 small messages through the transport end to end."""

    def run_messages():
        world, a, b = _message_world()

        def go():
            for index in range(500):
                yield world.transport.send(
                    Message("a", "b", "tick", size_bytes=64)
                )

        process = world.env.process(go())
        world.run(until=process)
        return world.metrics.counter("net.messages_delivered").value

    delivered = benchmark(run_messages)
    assert delivered == 500


def test_cs_roundtrip_rate(benchmark):
    """200 full CS request/reply cycles through the middleware."""

    def run_calls():
        world, a, b = _message_world()
        b.register_service("echo", lambda args, host: (args, 32))

        def go():
            for index in range(200):
                yield from a.component("cs").call("b", "echo", index)

        process = world.env.process(go())
        world.run(until=process)
        return world.metrics.counter("paradigm.cs.served").value

    assert benchmark(run_calls) == 200


class _PingPong(Agent):
    code_size = 2_000

    def on_arrival(self, context):
        bounces = int(self.state.get("bounces", 0))
        if bounces <= 0:
            yield from context.sleep(0)
            return
        self.state["bounces"] = bounces - 1
        target = "b" if context.host_id == "a" else "a"
        yield from context.migrate(target)


def test_agent_migration_rate(benchmark):
    """An agent bouncing 50 times between two hosts (signed transfers)."""

    def run_agent():
        world, a, b = _message_world()
        runtime = a.component("agents")
        agent_id = runtime.launch(_PingPong(), bounces=50)
        world.run(until=600.0)
        return world.metrics.counter("agents.migrations").value

    migrations = benchmark(run_agent)
    assert migrations == 50


def test_histogram_observe_scaling(benchmark):
    """Append-only observe must beat insort-per-observe at 100k.

    Guards the O(1) Histogram.observe: the old implementation kept the
    sample list sorted with ``insort`` on every observation, which is
    O(n) per sample and quadratic over a run.  The >=10x floor lives in
    ``benchmarks/baselines/micro_kernel_hist.json``.
    """
    count = 100_000
    # Deterministic pseudo-random values (Knuth multiplicative hash).
    values = [((i * 2654435761) % 1000003) / 1000.0 for i in range(count)]

    def lazy():
        histogram = Histogram("bench")
        for value in values:
            histogram.observe(value)
        return histogram.quantile(0.95)

    def insort_reference():
        ordered = []
        for value in values:
            insort(ordered, value)
        return ordered[int(0.95 * (len(ordered) - 1))]

    started = perf_counter()
    lazy()
    lazy_seconds = perf_counter() - started
    started = perf_counter()
    insort_reference()
    insort_seconds = perf_counter() - started
    speedup = insort_seconds / lazy_seconds
    print(f"\nhistogram observe: lazy {lazy_seconds:.3f}s vs "
          f"insort {insort_seconds:.3f}s ({speedup:.1f}x)")
    path = write_report_data(
        "micro_kernel_hist",
        metrics={
            "samples": float(count),
            "lazy_seconds": lazy_seconds,
            "insort_seconds": insort_seconds,
            "speedup": speedup,
        },
    )
    gate_against_baseline("micro_kernel_hist", path)
    benchmark(lazy)


#: Alternating timing rounds per side in the tracing-overhead gate.
REPEATS = 5


def test_disabled_tracing_overhead(benchmark):
    """Disabled spans must cost <5% of kernel event processing.

    Times 100k start/finish pairs on a disabled tracer against 10k
    kernel timeout events (the event-throughput workload above, which
    runs with tracing off).  The two sides alternate for ``REPEATS``
    rounds and the gate reads the median per-round ratio, so one
    descheduled sample cannot fail it.  A lenient 2x margin on the 5%
    target keeps the guard flake-resistant on loaded machines; the 0.10
    ceiling is the ``micro_kernel_tracing`` baseline document.
    """
    tracer = SpanTracer(now=lambda: 0.0, enabled=False)

    def disabled_spans():
        for _ in range(100_000):
            span = tracer.start("bench", "micro")
            tracer.finish(span)

    def kernel_events():
        env = Environment()

        def ticker(env):
            for _ in range(10_000):
                yield env.timeout(1.0)

        env.process(ticker(env))
        env.run()

    def timed(run, operations):
        started = perf_counter()
        run()
        return (perf_counter() - started) / operations

    # Per-operation: one disabled span pair vs one kernel event.
    span_samples, event_samples = [], []
    for _ in range(REPEATS):
        span_samples.append(timed(disabled_spans, 100_000))
        event_samples.append(timed(kernel_events, 10_000))
    ratio = median(
        span / event for span, event in zip(span_samples, event_samples)
    )
    per_span = median(span_samples)
    per_event = median(event_samples)
    print(f"\ndisabled span pair {per_span * 1e9:.0f}ns vs kernel event "
          f"{per_event * 1e9:.0f}ns (median ratio {ratio * 100:.1f}% "
          f"over {REPEATS} rounds)")
    path = write_report_data(
        "micro_kernel_tracing",
        metrics={
            "span_pair_nanos": per_span * 1e9,
            "kernel_event_nanos": per_event * 1e9,
            "overhead_ratio": ratio,
        },
    )
    gate_against_baseline("micro_kernel_tracing", path)
    benchmark(disabled_spans)


def test_kernel_objects_stay_slotted(benchmark):
    """Hot kernel classes must stay ``__dict__``-free and condition
    churn cheap.

    Guards the slots micro-opt: events are the kernel's unit of
    allocation, so a subclass quietly dropping its ``__slots__``
    declaration re-grows a per-instance dict (and the allocation cost)
    without failing any functional test.  Also pins the shared
    module-level condition evaluators — one function object for all
    AnyOf/AllOf instances instead of a fresh closure each.
    """
    env = Environment()

    def nap(env):
        yield env.timeout(1.0)

    samples = [
        Event(env),
        env.timeout(0.0),
        env.process(nap(env)),
        AnyOf(env, [Event(env), Event(env)]),
        AllOf(env, [Event(env), Event(env)]),
    ]
    for instance in samples:
        assert not hasattr(instance, "__dict__"), type(instance).__name__
    assert AnyOf(env, [])._evaluate is AnyOf(env, [])._evaluate
    assert AllOf(env, [])._evaluate is AllOf(env, [])._evaluate

    def condition_churn():
        env = Environment()

        def waiter(env):
            for _ in range(2_000):
                events = (env.timeout(0.0), env.timeout(1.0))
                yield AnyOf(env, events)
                yield AllOf(env, events)

        env.process(waiter(env))
        env.run()
        return env.now

    assert benchmark(condition_churn) == 2_000.0


def test_micro_report(benchmark):
    """The CS round-trip workload, instrumented, as a run report."""

    def run_instrumented():
        world, a, b = _message_world()
        profiler = instrument(world, series_cadence=1.0)
        b.register_service("echo", lambda args, host: (args, 32))

        def go():
            for index in range(50):
                yield from a.component("cs").call("b", "echo", index)

        process = world.env.process(go())
        world.run(until=process)
        world.run(until=world.now + 60.0)
        return world, profiler

    world, profiler = benchmark.pedantic(
        run_instrumented, rounds=1, iterations=1
    )
    write_report(
        "micro_kernel", world, profiler, params={"workload": "cs-roundtrips"}
    )
    assert world.metrics.counter("paradigm.cs.served").value == 50
