"""Kernel property: the event loop against a naive sorted-list model.

Random interleavings of scheduling, cancellation, stepping, peeking and
bounded runs are applied to a :class:`Simulator` and to a model that
keeps every live event in a plain dict and always fires the smallest
``(time, seq)``.  Times are multiples of 0.5, so many events share a
timestamp and the ``seq`` tiebreak is exercised constantly.  Some events
schedule a child when they fire, so the queue also changes under a run.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator

OFFSETS = (0.0, 0.5, 1.0, 2.0)


def child_delay(tag: int) -> float | None:
    """Delay of the child event ``tag`` schedules when it fires, if any."""
    return OFFSETS[tag % 4] if tag % 3 == 0 else None


class Model:
    """Live events as ``seq -> time``; fires the minimum ``(time, seq)``."""

    def __init__(self) -> None:
        self.live: dict[int, float] = {}
        self.now = 0.0
        self.seq = 0
        self.processed = 0
        self.fired: list[tuple[int, float]] = []

    def schedule_at(self, when: float) -> int:
        self.seq += 1
        self.live[self.seq] = when
        return self.seq

    def cancel(self, seq: int) -> None:
        self.live.pop(seq, None)

    def head(self) -> tuple[float, int] | None:
        return min(((t, s) for s, t in self.live.items()), default=None)

    def fire(self) -> bool:
        head = self.head()
        if head is None:
            return False
        when, seq = head
        del self.live[seq]
        self.now = when
        self.processed += 1
        self.fired.append((seq, when))
        delay = child_delay(seq)
        if delay is not None:
            self.schedule_at(self.now + delay)
        return True

    def run(self, until: float | None, max_events: int | None) -> float:
        processed = 0
        cut_short = False
        while True:
            head = self.head()
            if head is None or (until is not None and head[0] > until):
                break
            if max_events is not None and processed >= max_events:
                cut_short = True
                break
            self.fire()
            processed += 1
        if until is not None and not cut_short and self.now < until:
            self.now = until
        return self.now


class Harness:
    """The simulator under test, tagging each event with its ``seq``."""

    def __init__(self) -> None:
        self.sim = Simulator()
        self.handles: list = []
        self.fired: list[tuple[int, float]] = []
        self.tags = 0

    def schedule_at(self, when: float) -> None:
        self.tags += 1
        self.handles.append(self.sim.schedule_at(when, self._fire, self.tags))

    def schedule(self, delay: float) -> None:
        self.tags += 1
        self.handles.append(self.sim.schedule(delay, self._fire, self.tags))

    def _fire(self, tag: int) -> None:
        self.fired.append((tag, self.sim.now))
        delay = child_delay(tag)
        if delay is not None:
            self.schedule(delay)


offsets = st.sampled_from(OFFSETS)
operations = st.one_of(
    st.tuples(st.just("schedule"), offsets),
    st.tuples(st.just("schedule_at"), offsets),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=63)),
    st.tuples(st.just("step")),
    st.tuples(st.just("peek")),
    st.tuples(
        st.just("run"),
        st.one_of(st.none(), st.sampled_from((-1.0, 0.0, 0.5, 1.0, 3.0))),
        st.one_of(st.none(), st.integers(min_value=-1, max_value=4)),
    ),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(operations, max_size=40))
def test_kernel_matches_sorted_model(ops):
    harness = Harness()
    sim = harness.sim
    model = Model()
    cancelled: set[int] = set()
    last_now = sim.now
    for op in ops:
        kind = op[0]
        if kind == "schedule":
            harness.schedule(op[1])
            model.schedule_at(model.now + op[1])
        elif kind == "schedule_at":
            harness.schedule_at(sim.now + op[1])
            model.schedule_at(model.now + op[1])
        elif kind == "cancel":
            if harness.handles:
                handle = harness.handles[op[1] % len(harness.handles)]
                if handle.seq in model.live:
                    cancelled.add(handle.seq)
                handle.cancel()
                model.cancel(handle.seq)
        elif kind == "step":
            assert sim.step() == model.fire()
        elif kind == "peek":
            head = model.head()
            assert sim.peek_next_time() == (None if head is None else head[0])
        else:
            until = None if op[1] is None else sim.now + op[1]
            assert sim.run(until=until, max_events=op[2]) == model.run(
                until, op[2]
            )
        assert sim.now >= last_now
        last_now = sim.now
        assert sim.now == model.now
        assert sim.pending() == len(model.live)
        assert sim.events_processed == model.processed
        assert harness.fired == model.fired
    # A handle cancelled before it fired never fires.
    assert not cancelled & {tag for tag, _ in harness.fired}
    # Overall, events fire in (time, seq) order.
    order = [(when, tag) for tag, when in harness.fired]
    assert order == sorted(order)
