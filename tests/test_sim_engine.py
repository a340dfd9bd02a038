"""Discrete-event engine: ordering, cancellation, periodic tasks."""

import sys

import pytest

from repro.errors import SimulationError
from repro.obs.profiler import LoopProfiler
from repro.sim import PeriodicTask, Simulator


class TestScheduling:
    def test_time_advances(self, sim):
        fired = []
        sim.schedule(1.5, fired.append, "a")
        sim.run()
        assert fired == ["a"]
        assert sim.now == 1.5

    def test_fifo_order_for_equal_times(self, sim):
        fired = []
        for tag in "abc":
            sim.schedule(1.0, fired.append, tag)
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_time_order(self, sim):
        fired = []
        sim.schedule(2.0, fired.append, "late")
        sim.schedule(1.0, fired.append, "early")
        sim.run()
        assert fired == ["early", "late"]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_nested_scheduling(self, sim):
        fired = []

        def first():
            fired.append("first")
            sim.schedule(1.0, lambda: fired.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert fired == ["first", "second"]
        assert sim.now == 2.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        handle.cancel()
        sim.run()
        assert fired == []

    def test_pending_excludes_cancelled(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending() == 2
        handle.cancel()
        assert sim.pending() == 1


class TestRunControl:
    def test_run_until_stops_before_later_events(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "in")
        sim.schedule(5.0, fired.append, "out")
        sim.run(until=2.0)
        assert fired == ["in"]
        assert sim.now == 2.0
        sim.run()
        assert fired == ["in", "out"]

    def test_run_until_advances_time_when_idle(self, sim):
        sim.run(until=3.0)
        assert sim.now == 3.0

    def test_max_events(self, sim):
        fired = []
        for i in range(5):
            sim.schedule(float(i + 1), fired.append, i)
        sim.run(max_events=2)
        assert fired == [0, 1]

    def test_max_events_stop_keeps_time_at_last_event(self, sim):
        fired = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule_at(t, lambda t=t: fired.append((t, sim.now)))
        assert sim.run(until=10.0, max_events=2) == 2.0
        assert sim.now == 2.0
        assert sim.run() == 3.0
        assert fired == [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]

    def test_max_events_stop_advances_when_rest_is_beyond_until(self, sim):
        for t in (1.0, 2.0, 30.0):
            sim.schedule_at(t, lambda: None)
        sim.run(until=10.0, max_events=2)
        assert sim.now == 10.0
        assert sim.pending() == 1

    @pytest.mark.parametrize("max_events", [0, -1])
    def test_non_positive_max_events_fires_nothing(self, sim, max_events):
        fired = []
        sim.schedule(1.0, fired.append, "x")
        sim.run(until=5.0, max_events=max_events)
        assert fired == []
        assert sim.now == 0.0
        assert sim.events_processed == 0

    def test_max_events_zero_on_idle_queue_advances_to_until(self, sim):
        sim.run(until=5.0, max_events=0)
        assert sim.now == 5.0

    def test_step(self, sim):
        sim.schedule(1.0, lambda: None)
        assert sim.step()
        assert not sim.step()

    def test_peek_next_time(self, sim):
        assert sim.peek_next_time() is None
        sim.schedule(4.0, lambda: None)
        assert sim.peek_next_time() == 4.0

    def test_run_not_reentrant(self, sim):
        def recurse():
            sim.run()

        sim.schedule(1.0, recurse)
        with pytest.raises(SimulationError):
            sim.run()

    def test_events_processed_counter(self, sim):
        for i in range(3):
            sim.schedule(float(i + 1), lambda: None)
        sim.run()
        assert sim.events_processed == 3


class TestPeriodicTask:
    def test_fires_on_interval(self, sim):
        times = []
        PeriodicTask(sim, 1.0, lambda: times.append(sim.now))
        sim.run(until=3.5)
        assert times == [1.0, 2.0, 3.0]

    def test_stop(self, sim):
        count = []
        task = PeriodicTask(sim, 1.0, lambda: count.append(1))
        sim.schedule(2.5, task.stop)
        sim.run(until=10.0)
        assert len(count) == 2

    def test_start_after(self, sim):
        times = []
        PeriodicTask(sim, 1.0, lambda: times.append(sim.now), start_after=0.25)
        sim.run(until=2.5)
        assert times == [0.25, 1.25, 2.25]

    def test_invalid_interval(self, sim):
        with pytest.raises(SimulationError):
            PeriodicTask(sim, 0.0, lambda: None)


class _StepFrameProfiler(LoopProfiler):
    """A LoopProfiler that also notes which frame calls ``record``."""

    def __init__(self) -> None:
        super().__init__()
        self.callers: set[str] = set()

    def record(self, callback, elapsed_s: float) -> None:
        self.callers.add(sys._getframe(1).f_code.co_name)
        super().record(callback, elapsed_s)


class TestProfiledDispatch:
    @staticmethod
    def _schedule_mix(sim, fired):
        handles = []
        for i in range(40):
            when = float(i % 7)
            handles.append(sim.schedule_at(when, fired.append, (when, i)))
        for handle in handles[::5]:
            handle.cancel()

        def spawn():
            fired.append(("spawn", sim.now))
            sim.schedule(0.0, fired.append, ("child", sim.now))

        sim.schedule_at(3.0, spawn)

    def test_profiler_sees_every_event_in_unprofiled_order(self):
        plain_fired: list = []
        plain = Simulator()
        self._schedule_mix(plain, plain_fired)
        plain.run(until=5.0)
        plain.run()

        profiled_fired: list = []
        profiled = Simulator()
        profiler = profiled.profiler = _StepFrameProfiler()
        self._schedule_mix(profiled, profiled_fired)
        profiled.run(until=5.0)
        profiled.run()

        assert profiled_fired == plain_fired
        assert profiled.events_processed == plain.events_processed
        assert sum(p.calls for p in profiler.profiles.values()) == (
            profiled.events_processed
        )
        assert profiler.callers == {"step"}
