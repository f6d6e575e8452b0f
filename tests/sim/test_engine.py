"""Discrete-event engine."""

import weakref
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.engine import Simulator


class TestScheduling:
    def test_runs_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(2.0, lambda: log.append("b"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(3.0, lambda: log.append("c"))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_ties_fire_in_schedule_order(self):
        sim = Simulator()
        log = []
        for i in range(5):
            sim.schedule(1.0, lambda i=i: log.append(i))
        sim.run()
        assert log == [0, 1, 2, 3, 4]

    def test_now_advances(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]
        assert sim.now == 1.5

    def test_events_can_schedule_events(self):
        sim = Simulator()
        log = []

        def first():
            log.append(("first", sim.now))
            sim.schedule(0.5, lambda: log.append(("second", sim.now)))

        sim.schedule(1.0, first)
        sim.run()
        assert log == [("first", 1.0), ("second", 1.5)]

    def test_negative_delay_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_in_past_raises(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: sim.schedule_at(0.5, lambda: None))
        with pytest.raises(SimulationError):
            sim.run()


class TestRun:
    def test_until_stops_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append(1))
        t = sim.run(until=2.0)
        assert t == 2.0 and not fired
        sim.run()
        assert fired == [1]

    def test_until_advances_clock_when_empty(self):
        sim = Simulator()
        assert sim.run(until=7.0) == 7.0

    def test_event_counter(self):
        sim = Simulator()
        for _ in range(3):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 3
        assert sim.pending == 0

    def test_runaway_guard(self):
        sim = Simulator()

        def loop():
            sim.schedule(0.1, loop)

        sim.schedule(0.0, loop)
        with pytest.raises(SimulationError):
            sim.run(until=1e9, max_events=100)


class TestFeed:
    def test_arrival_beats_heap_event_at_same_instant(self):
        sim = Simulator()
        log = []
        sim.schedule_at(1.0, lambda: log.append("heap"))
        sim.feed([1.0], lambda c: log.append("arrival"))
        sim.run()
        assert log == ["arrival", "heap"]

    @pytest.mark.parametrize(
        "times", [[2.0, 1.0], [float("nan")], [[1.0, 2.0]]],
        ids=["descending", "nan", "two_dimensional"],
    )
    def test_rejects_malformed_times(self, times):
        with pytest.raises(SimulationError):
            Simulator().feed(times, lambda c: None)

    def test_rejects_times_before_now_and_overlapping_feeds(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.feed([0.5], lambda c: None)
        sim.feed([2.0], lambda c: None)
        with pytest.raises(SimulationError):
            sim.feed([3.0], lambda c: None)

    def test_drained_feed_is_released(self):
        class Holder:
            def __call__(self, c):
                pass

        sim = Simulator()
        holder = Holder()
        ref = weakref.ref(holder)
        sim.feed([1.0, 2.0], holder)
        del holder
        sim.run()
        assert ref() is None
        sim.feed([3.0], lambda c: None)  # a drained feed admits the next
        sim.run()
        assert sim.events_processed == 3


# -- oracle: a fed run equals one that pre-schedules every arrival -----------

#: an action a callback takes: schedule at now, at a later arrival's exact
#: time (offset into the arrivals from the current one), or after a delay
_action = st.one_of(
    st.just(("now", 0)),
    st.tuples(st.just("arrival"), st.integers(0, 6)),
    st.tuples(st.just("delay"), st.sampled_from([0.0, 0.25, 0.5, 0.37, 1.0, 2.25])),
)


def _drive(times, arrival_actions, event_actions, until, fed):
    """Run the scenario; return what the two runs must agree on."""
    log, seen = [], []
    sim = Simulator(on_event=lambda now, pending: seen.append((now, pending)))
    made = [0]  # dynamic events created so far, in creation order

    def take(actions, c):
        for kind, arg in actions:
            if kind == "now":
                at = sim.now
            elif kind == "arrival":
                at = times[min(c + arg, len(times) - 1)] if c >= 0 else sim.now
                at = max(at, sim.now)
            else:
                at = sim.now + arg
            k = made[0]
            made[0] += 1
            sim.schedule_at(at, lambda k=k: event(k))

    def event(k):
        log.append(("event", k, sim.now))
        if k < len(event_actions):
            take(event_actions[k], -1)

    def arrive(c):
        log.append(("arrival", c, sim.now))
        take(arrival_actions[c], c)

    if fed:
        sim.feed(np.array(times), arrive)
    else:
        for c, t in enumerate(times):
            sim.schedule_at(t, partial(arrive, c))
    if until is not None:
        sim.run(until=until)
        seen.append(("until", sim.now, sim.pending))
    end = sim.run()
    return log, seen, sim.events_processed, end, [type(now) for _, _, now in log]


@settings(max_examples=200, deadline=None)
@given(
    ticks=st.lists(st.integers(0, 6), max_size=25),
    data=st.data(),
)
def test_fed_run_equals_prescheduled_run(ticks, data):
    times = [0.25 * t for t in sorted(ticks)]  # many ties
    arrival_actions = data.draw(
        st.lists(st.lists(_action, max_size=3), min_size=len(times), max_size=len(times))
    )
    event_actions = data.draw(st.lists(st.lists(_action, max_size=2), max_size=12))
    until = data.draw(st.one_of(st.none(), st.sampled_from([0.0, 0.5, 0.6, 1.25])))
    fed = _drive(times, arrival_actions, event_actions, until, fed=True)
    pre = _drive(times, arrival_actions, event_actions, until, fed=False)
    assert fed == pre
    assert set(fed[4]) <= {float}
