"""Property-based tests for the kernel, metrics, geometry, and tuple space."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import Area, CostMeter, GPRS, Position, WIFI_ADHOC
from repro.sim import Environment, Store
from repro.sim.metrics import Histogram
from repro.tuplespace import ANY, Template, TupleSpace


class TestStoreProperties:
    @given(st.lists(st.integers(), max_size=30))
    def test_fifo_order_preserved(self, items):
        env = Environment()
        store = Store(env)
        received = []

        def producer(env):
            for item in items:
                yield store.put(item)

        def consumer(env):
            for _ in items:
                value = yield store.get()
                received.append(value)

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert received == items


class TestHistogramProperties:
    @given(st.lists(st.floats(-1e9, 1e9), min_size=1, max_size=100))
    def test_quantiles_bounded_and_monotone(self, samples):
        histogram = Histogram("h")
        for sample in samples:
            histogram.observe(sample)
        quantiles = [histogram.quantile(q / 10) for q in range(11)]
        assert quantiles[0] == min(samples)
        assert quantiles[-1] == max(samples)
        assert quantiles == sorted(quantiles)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=100))
    def test_mean_between_min_and_max(self, samples):
        histogram = Histogram("h")
        for sample in samples:
            histogram.observe(sample)
        assert histogram.min - 1e-6 <= histogram.mean <= histogram.max + 1e-6


class TestGeometryProperties:
    positions = st.builds(
        Position, st.floats(-1e4, 1e4), st.floats(-1e4, 1e4)
    )

    @given(positions, positions)
    def test_distance_symmetric_nonnegative(self, a, b):
        assert a.distance_to(b) == b.distance_to(a) >= 0

    @given(positions, positions, positions)
    def test_triangle_inequality(self, a, b, c):
        assert a.distance_to(c) <= a.distance_to(b) + b.distance_to(c) + 1e-6

    @given(positions, positions, st.floats(0.001, 1e5))
    def test_towards_never_overshoots(self, a, b, step):
        moved = a.towards(b, step)
        assert moved.distance_to(b) <= a.distance_to(b) + 1e-6

    @given(positions, st.floats(1, 1e3), st.floats(1, 1e3))
    def test_clamp_stays_inside(self, position, width, height):
        area = Area(width, height)
        assert area.contains(area.clamp(position))


class TestCostMeterProperties:
    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(0, 10_000_000)), max_size=30
        )
    )
    def test_money_monotone_and_bytes_conserved(self, transfers):
        meter = CostMeter()
        last_money = 0.0
        sent = received = 0
        for outbound, size in transfers:
            meter.account_transfer(GPRS, size, sent=outbound)
            assert meter.money >= last_money
            last_money = meter.money
            if outbound:
                sent += size
            else:
                received += size
        assert meter.total_bytes_sent == sent
        assert meter.total_bytes_received == received

    @given(st.integers(0, 10_000_000), st.integers(0, 10_000_000))
    def test_merge_adds_exactly(self, a_bytes, b_bytes):
        a = CostMeter()
        b = CostMeter()
        a.account_transfer(GPRS, a_bytes, sent=True)
        b.account_transfer(GPRS, b_bytes, sent=True)
        expected = a.money + b.money
        a.merge(b)
        assert a.total_bytes_sent == a_bytes + b_bytes
        assert a.money == pytest.approx(expected)

    def test_free_technology_costs_nothing_ever(self):
        meter = CostMeter()
        meter.account_transfer(WIFI_ADHOC, 10**9, sent=True)
        assert meter.money == 0.0


tuple_values = st.one_of(
    st.integers(-100, 100), st.text(max_size=6), st.booleans()
)
tuples_ = st.lists(tuple_values, min_size=1, max_size=4).map(tuple)


class TestTupleSpaceProperties:
    @given(st.lists(tuples_, max_size=30))
    def test_out_then_in_all_conserves_content(self, items):
        env = Environment()
        space = TupleSpace(env)
        for item in items:
            space.out(item)
        assert len(space) == len(items)
        drained = []
        for arity in range(1, 5):
            drained.extend(space.in_all(tuple([ANY] * arity)))
        assert sorted(map(repr, drained)) == sorted(map(repr, items))
        assert len(space) == 0

    @given(tuples_)
    def test_exact_template_matches_itself(self, item):
        assert Template(*item).matches(item)

    @given(tuples_)
    def test_wildcard_template_matches_same_arity_only(self, item):
        assert Template(*([ANY] * len(item))).matches(item)
        assert not Template(*([ANY] * (len(item) + 1))).matches(item)

    @given(st.lists(tuples_, max_size=20), tuples_)
    def test_rdp_consistent_with_rd_all(self, items, probe):
        env = Environment()
        space = TupleSpace(env)
        for item in items:
            space.out(item)
        template = tuple([ANY] * len(probe))
        first = space.rdp(template)
        everything = space.rd_all(template)
        if everything:
            assert first == everything[0]
        else:
            assert first is None
