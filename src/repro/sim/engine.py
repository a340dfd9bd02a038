"""Discrete-event simulation engine.

A deliberately small, deterministic event loop: events are ``(time, seq)``
ordered, where ``seq`` is a monotonically increasing tiebreaker so that
same-timestamp events fire in scheduling order.  Time is a float in seconds;
at 10 Gbps a 64-byte frame lasts ~67 ns, comfortably inside double precision
for the simulated horizons used here (milliseconds to seconds).
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..obs.profiler import LoopProfiler


class EventHandle:
    """Handle returned by ``schedule``; allows O(1) cancellation."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(
        self, time: float, seq: int, callback: Callable[..., Any], args: tuple
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if already fired)."""
        self.cancelled = True


class Simulator:
    """The event loop.

    Components keep a reference to the simulator, call
    :meth:`schedule`/:meth:`schedule_at` to arrange callbacks, and read
    :attr:`now` for the current simulation time.

    The queue is a heap of ``(time, seq, handle)`` tuples: ``seq`` is
    unique, so ordering is decided by C-level tuple comparison and the
    handle itself is never compared.
    """

    def __init__(self) -> None:
        self._queue: list[tuple[float, int, EventHandle]] = []
        self._seq = 0
        self._now = 0.0
        self._running = False
        self.events_processed = 0
        # Upper bound of the current run() window.  Batched components that
        # replay several virtual times inside one event consult this so
        # they never deliver work the event-per-frame execution would have
        # left beyond the window.
        self.horizon = float("inf")
        # Optional event-loop profiler (repro.obs.profiler.LoopProfiler):
        # when installed, each dispatched event's wall-clock cost is
        # attributed to the handling component class.  None costs one
        # attribute load per event.
        self.profiler: "LoopProfiler | None" = None

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(
        self, when: float, callback: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule into the past (when={when}, now={self._now})"
            )
        seq = self._seq = self._seq + 1
        event = EventHandle(when, seq, callback, args)
        heappush(self._queue, (when, seq, event))
        return event

    def peek_next_time(self) -> float | None:
        """Timestamp of the next pending event, if any."""
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heappop(queue)
        return queue[0][0] if queue else None

    def step(self) -> bool:
        """Run a single event; returns False when the queue is empty."""
        queue = self._queue
        while queue:
            event = heappop(queue)[2]
            if event.cancelled:
                continue
            self._now = event.time
            self.events_processed += 1
            profiler = self.profiler
            if profiler is None:
                event.callback(*event.args)
            else:
                # Wall-clock reads are the profiler's whole purpose; they
                # attribute real CPU time and never feed simulated state.
                start = perf_counter()  # flexsfp: allow(det-wallclock)
                try:
                    event.callback(*event.args)
                finally:
                    elapsed = perf_counter() - start  # flexsfp: allow(det-wallclock)
                    profiler.record(event.callback, elapsed)
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Run events until the queue drains, ``until``, or ``max_events``.

        Returns the simulation time when the run stopped.  When ``until`` is
        given and no event due by ``until`` is left pending, time is
        advanced to exactly ``until`` even if the queue drains earlier (so
        rate meters read consistent windows).  A run cut short by
        ``max_events`` leaves time at the last fired event, so the events
        it left behind still fire at their own times later.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        self.horizon = horizon = float("inf") if until is None else until
        limit = float("inf") if max_events is None else max_events
        queue = self._queue
        processed = 0
        cut_short = False
        try:
            # One read of the heap head per event: cancelled entries are
            # dropped, the head is checked against the window, and a live
            # event is popped once.  A profiled run dispatches through
            # step(), so the profiler still records inside that frame.
            while queue:
                when, _seq, event = queue[0]
                if event.cancelled:
                    heappop(queue)
                    continue
                if when > horizon:
                    break
                if processed >= limit:
                    cut_short = True
                    break
                processed += 1
                if self.profiler is not None:
                    self.step()
                    continue
                heappop(queue)
                self._now = when
                self.events_processed += 1
                event.callback(*event.args)
            if until is not None and not cut_short and self._now < until:
                self._now = until
        finally:
            self._running = False
            self.horizon = float("inf")
        return self._now

    def pending(self) -> int:
        """Number of not-yet-cancelled queued events."""
        return sum(1 for entry in self._queue if not entry[2].cancelled)

    def scheduled(self, *callbacks: Callable[..., Any]) -> list[EventHandle]:
        """Live events whose callback is one of ``callbacks``, in firing
        order (a scan of the whole queue: for rare, structural changes)."""
        return [
            entry[2]
            for entry in sorted(
                entry
                for entry in self._queue
                if not entry[2].cancelled and entry[2].callback in callbacks
            )
        ]


class ServiceTimeline:
    """Analytic busy clock for a single server processing frames in batches.

    The event-per-frame pattern (schedule service completion, then schedule
    the next start) costs one or two heap events per frame.  Batched
    components instead *reserve* service slots on this timeline — the
    arithmetic is identical to the sequential schedule (``start = max(now,
    free_at)``, ``finish = start + service``, same float operations in the
    same order), so per-frame start/finish timestamps are bit-identical to
    the unbatched execution while only one real event fires per batch.

    The timeline also tracks byte occupancy: a reserved frame's bytes stay
    "queued" until its virtual start time passes, which keeps tail-drop /
    overload decisions at intermediate arrival events identical to the
    event-per-frame execution.  Call :meth:`drain` with the current
    simulation time before reading :attr:`pending_bytes`.
    """

    __slots__ = ("free_at", "pending_bytes", "_pending")

    def __init__(self) -> None:
        self.free_at = 0.0
        self.pending_bytes = 0
        self._pending: deque[tuple[float, int]] = deque()

    def reserve(self, now: float, service_s: float, size: int) -> tuple[float, float]:
        """Reserve one service slot; returns ``(start, finish)`` times."""
        start = now if now > self.free_at else self.free_at
        finish = start + service_s
        self.free_at = finish
        self._pending.append((start, size))
        self.pending_bytes += size
        return start, finish

    def drain(self, now: float) -> None:
        """Release the bytes of every reservation whose start has passed."""
        pending = self._pending
        while pending and pending[0][0] <= now:
            self.pending_bytes -= pending.popleft()[1]

    def reset(self) -> None:
        self.free_at = 0.0
        self.pending_bytes = 0
        self._pending.clear()


class PeriodicTask:
    """Re-arms a callback every ``interval`` seconds until stopped."""

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[[], Any],
        start_after: float | None = None,
    ) -> None:
        if interval <= 0:
            raise SimulationError("interval must be positive")
        self.sim = sim
        self.interval = interval
        self.callback = callback
        self._stopped = False
        self._handle = sim.schedule(
            interval if start_after is None else start_after, self._fire
        )

    def _fire(self) -> None:
        if self._stopped:
            return
        self.callback()
        if not self._stopped:
            self._handle = self.sim.schedule(self.interval, self._fire)

    def stop(self) -> None:
        """Stop the periodic task (pending occurrence is cancelled)."""
        self._stopped = True
        self._handle.cancel()
