"""Property test: :class:`Gauge` answers exactly as its standalone form.

``Gauge`` keeps its written values in a :class:`Histogram` it owns.
:class:`OracleGauge` below is the earlier self-contained gauge, with
its own append-only buffer, lazy sorted copy and ordinal-stride
decimation, kept verbatim as the executable specification.  Under
random write sequences, with and without ``max_samples``, and with a
labeled child forwarding to its parent, every public answer must match
bit for bit.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.sim.metrics import Gauge, interpolated_quantile


class OracleGauge:
    """The self-contained gauge: its own retention buffer."""

    def __init__(self, name, parent=None, max_samples=None):
        self.name = name
        self.value = 0.0
        self._parent = parent
        self.max_samples = max_samples
        self._max = -math.inf
        self._min = math.inf
        self._written = []
        self._sorted = []
        self._dirty = False
        self._observed = 0
        self._stride = 1

    def set(self, value):
        parent = self._parent
        if parent is not None:
            parent.set(value)
        self.value = value
        if value > self._max:
            self._max = value
        if value < self._min:
            self._min = value
        ordinal = self._observed
        self._observed = ordinal + 1
        cap = self.max_samples
        if cap is None:
            self._written.append(value)
            self._dirty = True
            return
        if ordinal % self._stride:
            return
        self._written.append(value)
        self._dirty = True
        if len(self._written) > cap:
            self._written = self._written[::2]
            self._stride *= 2

    def add(self, delta):
        self.set(self.value + delta)

    @property
    def max(self):
        return self._max if self._max != -math.inf else 0.0

    @property
    def min(self):
        return self._min if self._min != math.inf else 0.0

    @property
    def touched(self):
        return self._max != -math.inf

    @property
    def observed(self):
        return self._observed

    @property
    def retained(self):
        return len(self._written)

    def quantile(self, q):
        if self._dirty:
            self._sorted = sorted(self._written)
            self._dirty = False
        return interpolated_quantile(self._sorted, q)

    @property
    def p50(self):
        return self.quantile(0.5)


values = st.floats(-1e6, 1e6, allow_nan=False)
#: ("set", v) / ("add", v) writes, ("query", q) reads mid-stream so
#: the lazy sorted copy is rebuilt between writes too.
steps = st.lists(
    st.one_of(
        st.tuples(st.just("set"), values),
        st.tuples(st.just("add"), values),
        st.tuples(st.just("query"), st.floats(0.0, 1.0)),
    ),
    max_size=120,
)
caps = st.one_of(st.none(), st.integers(2, 16))
quantiles = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]


def answers(gauge):
    return (
        gauge.value,
        gauge.min,
        gauge.max,
        gauge.touched,
        gauge.p50,
        [gauge.quantile(q) for q in quantiles],
        gauge.observed,
        gauge.retained,
    )


class TestGaugeMatchesOracle:
    @given(steps, caps)
    @settings(max_examples=300, deadline=None)
    def test_every_answer_matches(self, program, cap):
        parent = Gauge("g", max_samples=cap)
        child = Gauge('g{node="a"}', parent=parent, max_samples=cap)
        oracle_parent = OracleGauge("g", max_samples=cap)
        oracle_child = OracleGauge(
            'g{node="a"}', parent=oracle_parent, max_samples=cap
        )
        for kind, number in program:
            if kind == "query":
                assert child.quantile(number) == oracle_child.quantile(number)
                assert parent.quantile(number) == oracle_parent.quantile(
                    number
                )
                continue
            getattr(child, kind)(number)
            getattr(oracle_child, kind)(number)
        assert answers(child) == answers(oracle_child)
        assert answers(parent) == answers(oracle_parent)
