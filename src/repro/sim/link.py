"""Ports and links: the packet-transport fabric of the simulator.

A :class:`Port` is one direction-agnostic attachment point owned by a device
(host NIC, switch port, FlexSFP interface).  Connecting two ports creates a
full-duplex link; each direction models store-and-forward transmission with
a bounded output FIFO (tail drop), per-frame serialization at the port rate,
and constant propagation delay.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from itertools import repeat
from typing import Callable

import numpy as np

from ..errors import ConfigError, SimulationError
from ..packet import Packet
from .burst import chain_reservations
from .engine import EventHandle, ServiceTimeline, Simulator
from .stats import Counter

PacketHandler = Callable[["Port", Packet], None]
# Batched receive: one call per delivery flush with [(packet, size, when)].
BatchHandler = Callable[["Port", "list[tuple[Packet, int, float]]"], None]
# Compiled-burst receive: one call per burst with the shared template, the
# wire size, and the struct-of-arrays vector of delivery times.
BurstHandler = Callable[["Port", Packet, int, "np.ndarray"], None]

# Default propagation: 10 m of fiber at ~5 ns/m.
DEFAULT_PROPAGATION_S = 50e-9
DEFAULT_QUEUE_BYTES = 512 * 1024


class Port:
    """A full-duplex network port with an egress FIFO.

    ``send`` enqueues a frame for transmission; the port serializes frames
    back-to-back at ``rate_bps`` and delivers them to the connected peer
    after the link's propagation delay.  Received frames are handed to the
    attached handler (set by the owning device via :meth:`attach`).

    With ``coalesce=True`` (the batched fast path) the per-frame
    tx-done/deliver event pair collapses into a single deliver event:
    serialization start/finish times come from an analytic
    :class:`~repro.sim.engine.ServiceTimeline` whose arithmetic matches the
    event-per-frame schedule bit for bit, so delivery timestamps and
    tail-drop decisions are unchanged.  :meth:`disconnect` loses the same
    frames on both paths (see there).

    A receiver may additionally opt into *batched delivery* with
    ``batch_rx=True``: a coalescing sender then accumulates reservations
    and hands them over in a single flush event scheduled at the first
    pending frame's delivery time, stamping each frame's exact (virtual)
    delivery timestamp into ``packet.meta["link_deliver_s"]``.  Later
    frames of the flush arrive *early* in event time but carry their true
    wire arrival; a batch-aware handler (the FlexSFP module, a meter)
    reads the stamp and reproduces the event-per-frame arithmetic bit for
    bit.  Only attach batch_rx to ports whose handler understands the
    stamp.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        rate_bps: float = 10e9,
        queue_bytes: int = DEFAULT_QUEUE_BYTES,
        coalesce: bool = False,
        batch_rx: bool = False,
    ) -> None:
        if rate_bps <= 0:
            raise ConfigError(f"port {name}: rate_bps must be positive")
        if queue_bytes < 0:
            raise ConfigError(f"port {name}: queue_bytes must be non-negative")
        self.sim = sim
        self.name = name
        self.rate_bps = rate_bps
        self.queue_bytes = queue_bytes
        self.coalesce = coalesce
        self.batch_rx = batch_rx
        self._pending_rx: list[tuple[Packet, int, float]] = []
        self._rx_flush_event: EventHandle | None = None
        # Optional bracketing callbacks a batch_rx owner may install: a
        # sender's flush calls begin before and end after handing over the
        # whole pending run, letting the receiver defer per-frame work
        # (e.g. PPE group-event arming) to one commit per flush.
        self.rx_flush_begin: Callable[[], None] | None = None
        self.rx_flush_end: Callable[[], None] | None = None
        self._batch_handler: BatchHandler | None = None
        self._burst_handler: BurstHandler | None = None
        # Compiled bursts pending delivery: (template, size, whens).  Never
        # non-empty at the same time as _pending_rx — mixing materializes
        # the bursts into per-frame entries first (see send_burst).
        self._pending_bursts: list[tuple[Packet, int, np.ndarray]] = []
        self._burst_flush_event = None
        self._peer: Port | None = None
        self._propagation_s = DEFAULT_PROPAGATION_S
        self._handler: PacketHandler | None = None
        self._tx_fifo: deque[tuple[Packet, int]] = deque()
        self._tx_fifo_bytes = 0
        self._tx_busy = False
        self._timeline = ServiceTimeline()
        # Reservations drained from the timeline's queue by a later send
        # due after their start, though they have not started yet: with
        # the timeline they make up every frame not yet on the wire, which
        # is what a link cut needs (see _cut).
        self._ahead: deque[tuple[float, int, float, float]] = deque()
        self.tx = Counter(f"{name}.tx")
        self.rx = Counter(f"{name}.rx")
        self.drops = Counter(f"{name}.drops")

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, handler: PacketHandler) -> None:
        """Register the owner's receive callback."""
        self._handler = handler

    def attach_batch(self, handler: BatchHandler) -> None:
        """Register a batched receive callback (``batch_rx`` ports only).

        When set, a sender's flush hands the whole pending run over in one
        call — ``handler(port, [(packet, size, when), ...])`` — instead of
        stamping ``link_deliver_s`` and invoking the per-frame handler for
        each frame.  Frames delivered individually (from non-coalescing
        senders) still go through the per-frame handler, so owners should
        attach both.
        """
        self._batch_handler = handler

    def attach_burst(self, handler: BurstHandler) -> None:
        """Register a compiled-burst receive callback.

        When set, a sender's burst flush hands each pending burst over in
        one call — ``handler(port, template, size, whens)`` — where
        ``whens`` is the float64 vector of exact (virtual) delivery times.
        The template is shared, not copied: the receiver must not mutate
        it.  Frames sent individually still take the batch/per-frame
        paths, so owners should attach all applicable handlers.
        """
        self._burst_handler = handler

    def connect(self, peer: "Port", propagation_s: float = DEFAULT_PROPAGATION_S) -> None:
        """Create a full-duplex link between this port and ``peer``."""
        if self._peer is not None or peer._peer is not None:
            raise SimulationError(
                f"port already connected: {self.name} or {peer.name}"
            )
        self._peer = peer
        peer._peer = self
        self._propagation_s = propagation_s
        peer._propagation_s = propagation_s

    def disconnect(self) -> None:
        """Tear down the link.

        Both transmit paths lose the same frames.  For each direction, at
        the cut time T:

        * a frame that finished serializing by T still reaches the old peer;
        * a frame being serialized at T counts as sent when it finishes and
          reaches the peer the port has by then (with none, it is lost);
        * frames queued on this port vanish uncounted, while the far end's
          queue keeps serializing frames as if they were on the wire;
        * a frame sent ahead (:meth:`send_delayed`, :meth:`send_at`) whose
          send time is after T is sent at that time, over whatever link
          exists then.

        A batch-aware receiver keeps the frames a flush already handed it,
        and a coalescing port reserves a frame when it is handed over, so a
        frame sent ahead across a later reconnect may be reserved after
        frames sent later (no producer in the simulator does that).
        """
        peer = self._peer
        if peer is not None:
            self._peer = None
            peer._peer = None
            if self.coalesce:
                self._cut(peer, near=True)
            if peer.coalesce:
                peer._cut(self, near=False)
        self._tx_fifo.clear()
        self._tx_fifo_bytes = 0

    def _cut(self, old_peer: "Port", near: bool) -> None:
        """Re-plan a coalescing port's in-flight frames at a link cut.

        In-flight frames, oldest first, are the pending deliver events
        (including frames an earlier cut left on the wire, but not those
        it already sent to their old peer) followed by the batch lane.
        They are the newest reservations, so aligning them with the
        timeline's chain from the newest end gives each frame its times:
        the reservations that start after the cut are a suffix of the
        chain, and the frame before them is on the wire if it finishes
        after the cut.  Everything older has finished serializing.
        """
        sim = self.sim
        now = sim.now
        if self._pending_bursts:
            self._materialize_pending_bursts()
        frames: list[tuple[Packet, int, float, EventHandle | None]] = [
            (event.args[0], event.args[1], event.time, event)
            for event in sim.scheduled(self._coalesced_deliver, self._finish_orphan)
            if len(event.args) == 2
        ]
        if self._pending_rx:
            self._rx_flush_event.cancel()
            self._rx_flush_event = None
            frames.extend((*entry, None) for entry in self._pending_rx)
            self._pending_rx = []
        timeline = self._timeline
        reservations = timeline._pending
        ahead = self._ahead
        chain = [*ahead, *reservations]
        split = len(chain)
        while split and chain[split - 1][0] > now:
            split -= 1
        later = chain[split:]
        wire_end = later[0][3] if later else timeline.free_at
        offset = len(frames) - len(later)
        finished: list[tuple[Packet, int, float]] = []
        for index, (packet, size, when, event) in enumerate(frames):
            position = index - offset
            if position < -1 or (position == -1 and wire_end <= now):
                # Done serializing: it reaches the peer it was sent to.
                if event is None:
                    finished.append((packet, size, when))
                elif event.callback == self._coalesced_deliver:
                    event.args = (packet, size, old_peer)
                continue
            if position == -1:
                finish = wire_end
            else:
                start, _size, arrival, _chained = later[position]
                following = position + 1
                finish = (
                    later[following][3] if following < len(later) else timeline.free_at
                )
                if arrival > now or (near and start > now):
                    if event is not None:
                        event.cancel()
                    if arrival > now:
                        sim.schedule_at(arrival, self.send, packet, size)
                    continue
            if event is not None:
                if event.callback == self._finish_orphan:
                    continue
                event.cancel()
            sim.schedule_at(finish, self._finish_orphan, packet, size)
        if finished:
            self._hand_over(old_peer, finished)
        if near:
            # The queue is gone; a frame on the wire keeps it busy.
            timeline.reset()
            ahead.clear()
            if wire_end > now:
                timeline.free_at = wire_end
        else:
            # Sends due after the cut left the chain; the rest still drains.
            while reservations and reservations[-1][2] > now:
                _start, size, _arrival, chained = reservations.pop()
                timeline.pending_bytes -= size
                timeline.free_at = chained
            while ahead and ahead[-1][2] > now:
                timeline.free_at = ahead.pop()[3]

    def _finish_orphan(self, packet: Packet, size: int) -> None:
        """Event-pair end of serialization for a frame a cut left running."""
        tx = self.tx
        tx.packets += 1
        tx.bytes += size
        peer = self._peer
        if peer is not None:
            self.sim.schedule(self._propagation_s, peer._deliver, packet, size)

    @property
    def connected(self) -> bool:
        return self._peer is not None

    @property
    def peer(self) -> "Port | None":
        return self._peer

    @property
    def queue_depth_bytes(self) -> int:
        """Bytes currently waiting in the egress FIFO."""
        if self.coalesce:
            self._timeline.drain(self.sim.now)
            return self._timeline.pending_bytes
        return self._tx_fifo_bytes

    @property
    def queue_depth_packets(self) -> int:
        return len(self._tx_fifo)

    def metric_values(self) -> dict[str, int | float]:
        """Flat :class:`~repro.obs.registry.MetricSource` view."""
        return {
            "tx.packets": self.tx.packets,
            "tx.bytes": self.tx.bytes,
            "rx.packets": self.rx.packets,
            "rx.bytes": self.rx.bytes,
            "drops.packets": self.drops.packets,
            "drops.bytes": self.drops.bytes,
            "queue.bytes": self.queue_depth_bytes,
            "rate_bps": self.rate_bps,
        }

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def send(self, packet: Packet, size: int | None = None) -> bool:
        """Enqueue ``packet`` for transmission; False on tail drop.

        ``size`` is the frame's wire length, for callers that have it.
        """
        if size is None:
            size = packet.wire_len
        if self._peer is None:
            self.drops.count(size)
            return False
        if self.coalesce:
            return self._reserve_tx(packet, self.sim._now, size)
        if self._tx_fifo_bytes + size > self.queue_bytes:
            self.drops.count(size)
            return False
        if self._tx_busy:
            self._tx_fifo.append((packet, size))
            self._tx_fifo_bytes += size
        else:
            # An idle port has an empty FIFO: serialize straight away.
            self._tx_busy = True
            self._start_tx(packet, size)
        return True

    def send_delayed(
        self, packet: Packet, delay_s: float, size: int | None = None
    ) -> None:
        """Send ``packet`` after ``delay_s`` (e.g. a transceiver crossing).

        Coalescing ports fold the delay into the serialization reservation
        — no intermediate event; others schedule a plain deferred send.
        """
        if self.coalesce and self._peer is not None:
            self._reserve_tx(packet, self.sim._now + delay_s, size)
        else:
            self.sim.schedule(delay_s, self.send, packet, size)

    def send_at(self, packet: Packet, at_s: float, size: int | None = None) -> bool:
        """Send ``packet`` at absolute (virtual) time ``at_s``.

        On a coalescing port the reservation is made immediately with the
        given arrival time — the foundation of burst traffic emission and
        of batched PPE egress.  ``at_s`` may lag ``now`` by up to one
        batch window (a batch tail replaying per-frame deliver times);
        serialization arithmetic still uses the virtual arrival, only the
        deliver *event* is clamped to now.  Non-coalescing ports fall
        back to a plain send scheduled at exactly ``at_s`` (and cannot
        report the eventual tail-drop outcome, hence True), so
        ``send_at(p, now + d)`` and ``send_delayed(p, d)`` send at the
        same float time on every port.
        """
        if self.coalesce and self._peer is not None:
            return self._reserve_tx(packet, at_s, size)
        if at_s <= self.sim.now:
            return self.send(packet, size)
        self.sim.schedule_at(at_s, self.send, packet, size)
        return True

    def _reserve_tx(
        self, packet: Packet, arrival: float, size: int | None = None
    ) -> bool:
        """Coalesced transmit: one deliver event per frame.

        The occupancy check drains the timeline to the frame's *arrival*
        (which may differ from now for delayed/burst/virtual sends): that
        is the state the event-per-frame execution would see when its
        deferred ``send`` ran at the arrival time.  Callers must reserve
        in non-decreasing arrival order, which every producer (serialized
        sources, per-direction module egress) naturally does.
        """
        if size is None:
            size = packet.wire_len
        # Inlined ServiceTimeline.drain/reserve and serialization_time
        # (hot path): framing arithmetic is pure int and the float
        # operations run in the helper's exact order, so timestamps and
        # occupancy are bit-identical to the out-of-line versions.
        timeline = self._timeline
        reservations = timeline._pending
        pending_bytes = timeline.pending_bytes
        sim = self.sim
        now = sim._now
        ahead = self._ahead
        while ahead and ahead[0][0] <= now:
            ahead.popleft()
        while reservations and reservations[0][0] <= arrival:
            entry = reservations.popleft()
            pending_bytes -= entry[1]
            if entry[0] > now:
                ahead.append(entry)
        if pending_bytes + size > self.queue_bytes:
            timeline.pending_bytes = pending_bytes
            self.drops.count(size)
            return False
        framed = size + 4
        if framed < 64:
            framed = 64
        service = (framed + 20) * 8 / self.rate_bps
        free_at = timeline.free_at
        start = arrival if arrival > free_at else free_at
        finish = start + service
        timeline.free_at = finish
        # Arrival and the previous frame's finish ride along for _cut.
        reservations.append((start, size, arrival, free_at))
        timeline.pending_bytes = pending_bytes + size
        when = finish + self._propagation_s
        peer = self._peer
        if peer.batch_rx:
            # Batch-aware receiver: fold this frame into one flush event
            # per producing burst.  Batch handlers get the delivery time
            # as data; per-frame handlers read the meta stamp.
            if self._pending_bursts:
                # Per-frame traffic mixing with pending compiled bursts:
                # materialize the bursts first so one flush run preserves
                # global delivery order (burst whens precede this frame's).
                self._materialize_pending_bursts()
            if peer._batch_handler is None:
                packet.meta["link_deliver_s"] = when
            pending = self._pending_rx
            pending.append((packet, size, when))
            if len(pending) == 1:
                self._rx_flush_event = sim.schedule_at(
                    when if when > now else now, self._flush_rx
                )
            return True
        if when < now:
            # A virtual arrival far enough in the past that the frame
            # "already" left: deliver immediately (bounded by the batch
            # window; the reservation arithmetic stays exact regardless).
            when = now
        # Inlined Simulator.schedule_at (hot path; ``when`` is not past).
        seq = sim._seq = sim._seq + 1
        heappush(
            sim._queue,
            (when, seq, EventHandle(when, seq, self._coalesced_deliver, (packet, size))),
        )
        return True

    def _coalesced_deliver(
        self, packet: Packet, size: int, peer: "Port | None" = None
    ) -> None:
        """End of a coalesced hop; ``peer`` is set by a cut in between."""
        tx = self.tx
        tx.packets += 1
        tx.bytes += size
        if peer is None:
            peer = self._peer
        peer._deliver(packet, size)

    # ------------------------------------------------------------------
    # Compiled burst transmit (struct-of-arrays lane)
    # ------------------------------------------------------------------
    def send_burst(
        self, template: Packet, size: int, times: "np.ndarray"
    ) -> int:
        """Transmit a burst of identical frames at the given arrival times.

        ``template`` is the shared frame (never copied on the fused path),
        ``size`` its wire length and ``times`` a non-decreasing float64
        vector of virtual arrival times.  Admission, serialization and
        delivery timestamps are bit-identical to calling :meth:`send_at`
        once per frame; the whole burst costs a handful of Python-level
        operations instead.  Returns the number of admitted frames.
        """
        times = np.ascontiguousarray(times, dtype=np.float64)
        n = len(times)
        if n == 0:
            return 0
        if self._peer is None:
            self.drops.packets += n
            self.drops.bytes += n * size
            return 0
        if not self.coalesce:
            # Event-per-frame port: replay as individual sends.
            for at in times.tolist():
                self.send_at(template.copy(), at, size)
            return n
        timeline = self._timeline
        reservations = timeline._pending
        # Same framing arithmetic and float-op order as _reserve_tx.
        framed = size + 4
        if framed < 64:
            framed = 64
        service = (framed + 20) * 8 / self.rate_bps
        whens = None
        # Amortized drain to the burst head — the state _reserve_tx would
        # see at the first arrival (each reservation pops once ever).
        first = float(times[0])
        now = self.sim._now
        ahead = self._ahead
        while ahead and ahead[0][0] <= now:
            ahead.popleft()
        pending_bytes = timeline.pending_bytes
        while reservations and reservations[0][0] <= first:
            entry = reservations.popleft()
            pending_bytes -= entry[1]
            if entry[0] > now:
                ahead.append(entry)
        timeline.pending_bytes = pending_bytes
        if timeline.pending_bytes + n * size <= self.queue_bytes:
            # Conservative no-drop precheck (occupancy only shrinks as the
            # timeline drains), so admission cannot tail-drop: chain the
            # reservations vectorially.
            chained = chain_reservations(times, service, timeline.free_at)
            if chained is not None:
                starts, finishes = chained
                ends = finishes.tolist()
                reservations.extend(
                    zip(
                        starts.tolist(),
                        repeat(size),
                        times.tolist(),
                        [timeline.free_at, *ends[:-1]],
                    )
                )
                timeline.free_at = ends[-1]
                timeline.pending_bytes += n * size
                whens = finishes + self._propagation_s
        if whens is None:
            # Exact scalar replay of _reserve_tx per frame.
            pending_bytes = timeline.pending_bytes
            free_at = timeline.free_at
            queue_bytes = self.queue_bytes
            admitted: list[float] = []
            admit = admitted.append
            dropped = 0
            for at in times.tolist():
                while reservations and reservations[0][0] <= at:
                    entry = reservations.popleft()
                    pending_bytes -= entry[1]
                    if entry[0] > now:
                        ahead.append(entry)
                if pending_bytes + size > queue_bytes:
                    dropped += 1
                    continue
                start = at if at > free_at else free_at
                finish = start + service
                reservations.append((start, size, at, free_at))
                free_at = finish
                pending_bytes += size
                admit(finish + self._propagation_s)
            timeline.free_at = free_at
            timeline.pending_bytes = pending_bytes
            if dropped:
                self.drops.packets += dropped
                self.drops.bytes += dropped * size
            if not admitted:
                return 0
            whens = np.asarray(admitted)
        count = len(whens)
        peer = self._peer
        if not peer.batch_rx:
            # Per-frame receiver: replay the coalesced deliver events.
            for when in whens.tolist():
                self.sim.schedule_at(
                    when if when > now else now,
                    self._coalesced_deliver,
                    template.copy(),
                    size,
                )
            return count
        if self._pending_rx:
            # Per-frame frames already pending: keep one flush run by
            # materializing this burst into the same pending list.
            stamp = peer._batch_handler is None
            pending = self._pending_rx
            for when in whens.tolist():
                packet = template.copy()
                if stamp:
                    packet.meta["link_deliver_s"] = when
                pending.append((packet, size, when))
            return count
        pending_bursts = self._pending_bursts
        pending_bursts.append((template, size, whens))
        if self._burst_flush_event is None:
            first = float(whens[0])
            self._burst_flush_event = self.sim.schedule_at(
                first if first > now else now, self._flush_rx_bursts
            )
        return count

    def _materialize_pending_bursts(self) -> None:
        """Deopt pending bursts into the per-frame pending-rx lane."""
        event = self._burst_flush_event
        if event is not None:
            event.cancel()
            self._burst_flush_event = None
        bursts = self._pending_bursts
        self._pending_bursts = []
        pending = self._pending_rx
        was_empty = not pending
        peer = self._peer
        stamp = peer is None or peer._batch_handler is None
        for template, size, whens in bursts:
            for when in whens.tolist():
                packet = template.copy()
                if stamp:
                    packet.meta["link_deliver_s"] = when
                pending.append((packet, size, when))
        if pending and was_empty:
            first = pending[0][2]
            now = self.sim.now
            self._rx_flush_event = self.sim.schedule_at(
                first if first > now else now, self._flush_rx
            )

    def _flush_rx_bursts(self) -> None:
        self._burst_flush_event = None
        bursts = self._pending_bursts
        self._pending_bursts = []
        horizon = self.sim.horizon
        if bursts and float(bursts[-1][2][-1]) > horizon:
            # Frames due beyond the run window stay pending, exactly like
            # _flush_rx: split each burst at the horizon and re-arm.
            flushed: list[tuple[Packet, int, np.ndarray]] = []
            kept: list[tuple[Packet, int, np.ndarray]] = []
            for template, size, whens in bursts:
                split = int(np.searchsorted(whens, horizon, side="right"))
                if split == len(whens):
                    flushed.append((template, size, whens))
                    continue
                if split:
                    flushed.append((template, size, whens[:split]))
                kept.append((template, size, whens[split:]))
            bursts = flushed
            if kept:
                self._pending_bursts = kept
                self._burst_flush_event = self.sim.schedule_at(
                    float(kept[0][2][0]), self._flush_rx_bursts
                )
        if not bursts:
            return
        peer = self._peer
        tx = self.tx
        begin = peer.rx_flush_begin
        if begin is not None:
            begin()
        burst_handler = peer._burst_handler
        batch_handler = peer._batch_handler
        handler = peer._handler
        frames = 0
        total_bytes = 0
        for template, size, whens in bursts:
            count = len(whens)
            frames += count
            total_bytes += count * size
            if burst_handler is not None:
                burst_handler(peer, template, size, whens)
            elif batch_handler is not None:
                batch_handler(
                    peer,
                    [
                        (template.copy(), size, when)
                        for when in whens.tolist()
                    ],
                )
            elif handler is not None:
                for when in whens.tolist():
                    packet = template.copy()
                    packet.meta["link_deliver_s"] = when
                    handler(peer, packet)
        tx.packets += frames
        tx.bytes += total_bytes
        rx = peer.rx
        rx.packets += frames
        rx.bytes += total_bytes
        end = peer.rx_flush_end
        if end is not None:
            end()

    def _flush_rx(self) -> None:
        self._rx_flush_event = None
        pending = self._pending_rx
        self._pending_rx = []
        if pending[-1][2] > self.sim.horizon:
            # Frames due beyond the current run window stay pending (the
            # event-per-frame execution would not have delivered them);
            # a later run resumes them from the re-armed flush.
            horizon = self.sim.horizon
            split = next(
                i for i, entry in enumerate(pending) if entry[2] > horizon
            )
            self._pending_rx = pending[split:]
            self._rx_flush_event = self.sim.schedule_at(
                self._pending_rx[0][2], self._flush_rx
            )
            pending = pending[:split]
        self._hand_over(self._peer, pending)

    def _hand_over(
        self, peer: "Port", pending: "list[tuple[Packet, int, float]]"
    ) -> None:
        """Deliver a run of batch-lane frames to ``peer`` in one go."""
        begin = peer.rx_flush_begin
        if begin is not None:
            begin()
        batch_handler = peer._batch_handler
        total_bytes = 0
        if batch_handler is not None:
            for entry in pending:
                total_bytes += entry[1]
            batch_handler(peer, pending)
        else:
            handler = peer._handler
            if handler is None:
                for _packet, size, _when in pending:
                    total_bytes += size
            else:
                for packet, size, _when in pending:
                    total_bytes += size
                    handler(peer, packet)
        frames = len(pending)
        tx = self.tx
        tx.packets += frames
        tx.bytes += total_bytes
        rx = peer.rx
        rx.packets += frames
        rx.bytes += total_bytes
        end = peer.rx_flush_end
        if end is not None:
            end()

    def _start_tx(self, packet: Packet, size: int) -> None:
        # Inlined serialization_time, as in _reserve_tx: pure-int framing
        # and the helper's float operations in the same order.
        framed = size + 4
        if framed < 64:
            framed = 64
        self.sim.schedule(
            (framed + 20) * 8 / self.rate_bps, self._tx_done, packet, size
        )

    def _tx_done(self, packet: Packet, size: int) -> None:
        tx = self.tx
        tx.packets += 1
        tx.bytes += size
        peer = self._peer
        if peer is not None:
            self.sim.schedule(self._propagation_s, peer._deliver, packet, size)
        fifo = self._tx_fifo
        if fifo:
            packet, size = fifo.popleft()
            self._tx_fifo_bytes -= size
            self._start_tx(packet, size)
        else:
            self._tx_busy = False

    def _deliver(self, packet: Packet, size: int) -> None:
        """Receive one frame of ``size`` wire bytes (sized once at send)."""
        rx = self.rx
        rx.packets += 1
        rx.bytes += size
        if self._handler is not None:
            self._handler(self, packet)


def connect(a: Port, b: Port, propagation_s: float = DEFAULT_PROPAGATION_S) -> None:
    """Module-level convenience mirroring :meth:`Port.connect`."""
    a.connect(b, propagation_s)
