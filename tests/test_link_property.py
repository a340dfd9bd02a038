"""Differential property: the coalesced transmit path is the event-pair path.

A :class:`~repro.sim.link.Port` built with ``coalesce=True`` reserves each
frame on an analytic timeline and delivers it with one event; the default
port serializes with a tx-done/deliver event pair.  For any mix of
``send``/``send_delayed``/``send_at`` calls in both directions, frame sizes,
queue limits, rates and propagation delays, and an optional mid-run
``disconnect`` (optionally followed by a reconnect), both ports must deliver
the same frames at the same times in the same order, with the same
tx/rx/drop counters.

Times are whole multiples of ``TICK`` (a power of two), so arrival times
add up exactly on both paths; cuts and reconnects fall on half ticks, so no
send coincides with them.  Per port, call times and send times never go
backwards, the order every producer in the simulator keeps, and a frame
sent after a deferred one is sent strictly later.  No frame is sent ahead
across a reconnect: a coalescing port reserves a frame when it is handed
over, so such a frame could be reserved after later ones.
"""

from __future__ import annotations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.packet import Packet
from repro.sim import Port, Simulator

TICK = 2.0**-30  # ~0.93 ns
SENDS = ("send", "send_delayed", "send_at")


@st.composite
def port_ops(draw):
    """One port's calls: (call tick, kind, send tick, payload bytes)."""
    ops = []
    arrival = 0
    previous_call = 0
    previous_direct = True
    for _ in range(draw(st.integers(0, 12))):
        # A deferred send fires after every call already due at its time,
        # so the next frame must be sent strictly later to keep its place.
        arrival += draw(st.integers(0 if previous_direct else 1, 6000))
        kind = draw(st.sampled_from(SENDS))
        lead = 0
        if kind != "send":
            lead = draw(st.integers(0, min(4000, arrival - previous_call)))
        previous_call = arrival - lead
        previous_direct = kind == "send" or (kind == "send_at" and lead == 0)
        ops.append((previous_call, kind, arrival, draw(st.integers(0, 1600))))
    return ops


scenarios = st.fixed_dictionaries(
    {
        "a": port_ops(),
        "b": port_ops(),
        "rate": st.sampled_from((1e9, 2.5e9, 10e9, 25e9)),
        "queue_bytes": st.sampled_from((0, 100, 600, 1600, 4096, 1 << 20)),
        "propagation": st.sampled_from((0.0, 50e-9, 2e-6)),
        "cut": st.one_of(
            st.none(),
            st.tuples(
                st.sampled_from("ab"),
                st.integers(0, 60_000),
                st.one_of(st.none(), st.integers(0, 30_000)),
            ),
        ),
    }
)


def run(scenario: dict, coalesce: bool) -> dict:
    sim = Simulator()
    ports = {
        name: Port(
            sim,
            name,
            rate_bps=scenario["rate"],
            queue_bytes=scenario["queue_bytes"],
            coalesce=coalesce,
        )
        for name in "ab"
    }
    a, b = ports["a"], ports["b"]
    a.connect(b, scenario["propagation"])
    received: dict[str, list] = {"a": [], "b": []}
    for name, port in ports.items():
        port.attach(
            lambda port, packet, log=received[name]: log.append(
                (packet.meta["id"], sim.now)
            )
        )

    def call(port: Port, kind: str, packet: Packet, arrival: float) -> None:
        if kind == "send":
            port.send(packet)
        elif kind == "send_delayed":
            port.send_delayed(packet, arrival - sim.now)
        else:
            port.send_at(packet, arrival)

    for name in "ab":
        for index, (at, kind, arrival, payload) in enumerate(scenario[name]):
            packet = Packet(payload=bytes(payload))
            packet.meta["id"] = (name, index)
            sim.schedule_at(
                at * TICK, call, ports[name], kind, packet, arrival * TICK
            )
    if scenario["cut"] is not None:
        side, cut, rejoin = scenario["cut"]
        cut_s = (cut + 0.5) * TICK
        sim.schedule_at(cut_s, ports[side].disconnect)
        if rejoin is not None:
            rejoin_s = cut_s + (rejoin + 1) * TICK
            assume(
                not any(
                    at * TICK < rejoin_s < arrival * TICK
                    for name in "ab"
                    for at, _kind, arrival, _payload in scenario[name]
                )
            )
            sim.schedule_at(rejoin_s, a.connect, b, scenario["propagation"])
    sim.run()
    return {
        "received": received,
        "counters": {
            name: (
                port.tx.packets,
                port.tx.bytes,
                port.rx.packets,
                port.rx.bytes,
                port.drops.packets,
                port.drops.bytes,
            )
            for name, port in ports.items()
        },
        "connected": a.connected,
    }


@settings(max_examples=300, deadline=None)
@given(scenarios)
def test_coalesced_port_matches_event_pair(scenario):
    assert run(scenario, coalesce=True) == run(scenario, coalesce=False)


@settings(max_examples=200, deadline=None)
@given(
    now=st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False),
    frames=st.lists(
        st.tuples(
            st.floats(0.0, 1e-3, allow_nan=False, allow_infinity=False),
            st.integers(0, 1600),
        ),
        min_size=1,
        max_size=8,
    ),
    coalesce=st.booleans(),
    queue_bytes=st.sampled_from((100, 1600, 1 << 20)),
)
def test_send_at_matches_send_delayed(now, frames, coalesce, queue_bytes):
    """``send_at(p, now + d)`` is ``send_delayed(p, d)``, to the bit.

    The module egresses every frame at an absolute virtual time; on a
    port that does not coalesce that must schedule the same float the
    relative form would, so per-frame and batched runs stay identical.
    Unlike the differential property above, times here are arbitrary
    floats, not whole ticks.
    """
    frames = sorted(frames)

    def run(absolute: bool) -> dict:
        sim = Simulator()
        a = Port(sim, "a", rate_bps=10e9, queue_bytes=queue_bytes, coalesce=coalesce)
        b = Port(sim, "b", rate_bps=10e9)
        a.connect(b)
        received = []
        b.attach(lambda port, packet: received.append((packet.meta["id"], sim.now)))

        def burst() -> None:
            for index, (delay, payload) in enumerate(frames):
                packet = Packet(payload=bytes(payload))
                packet.meta["id"] = index
                if absolute:
                    a.send_at(packet, sim.now + delay)
                else:
                    a.send_delayed(packet, delay)

        sim.schedule_at(now, burst)
        sim.run()
        return {
            "received": received,
            "a": (a.tx.packets, a.tx.bytes, a.drops.packets, a.drops.bytes),
            "b": (b.rx.packets, b.rx.bytes),
        }

    assert run(absolute=True) == run(absolute=False)
