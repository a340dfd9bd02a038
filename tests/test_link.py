"""Port/link transport: timing, queueing, drops, wiring rules."""

import pytest

from repro.errors import ConfigError, SimulationError
from repro.netem import ImpairedPort
from repro.packet import Packet, make_udp, pad_to_min
from repro.sim import Port, Simulator, connect, serialization_time


def make_pair(sim, rate=10e9, queue_bytes=4096):
    a = Port(sim, "a", rate_bps=rate, queue_bytes=queue_bytes)
    b = Port(sim, "b", rate_bps=rate, queue_bytes=queue_bytes)
    connect(a, b, propagation_s=50e-9)
    return a, b


class TestDelivery:
    def test_packet_arrives(self, sim):
        a, b = make_pair(sim)
        got = []
        b.attach(lambda port, packet: got.append(packet))
        packet = make_udp(payload=b"hi")
        assert a.send(packet)
        sim.run()
        assert got and got[0] is packet

    def test_delivery_time_is_serialization_plus_propagation(self, sim):
        a, b = make_pair(sim)
        arrival = []
        b.attach(lambda port, packet: arrival.append(sim.now))
        packet = pad_to_min(make_udp())  # 60 B -> 84 B wire -> 67.2 ns
        a.send(packet)
        sim.run()
        assert arrival[0] == pytest.approx(67.2e-9 + 50e-9, rel=1e-9)

    def test_back_to_back_serialization(self, sim):
        a, b = make_pair(sim, queue_bytes=1 << 20)
        arrivals = []
        b.attach(lambda port, packet: arrivals.append(sim.now))
        for _ in range(3):
            a.send(pad_to_min(make_udp()))
        sim.run()
        gaps = [t2 - t1 for t1, t2 in zip(arrivals, arrivals[1:])]
        assert all(gap == pytest.approx(67.2e-9, rel=1e-9) for gap in gaps)

    def test_counters(self, sim):
        a, b = make_pair(sim)
        b.attach(lambda port, packet: None)
        a.send(make_udp(payload=b"x" * 100))
        sim.run()
        assert a.tx.packets == 1
        assert b.rx.packets == 1


class TestDrops:
    def test_unconnected_send_drops(self, sim):
        port = Port(sim, "lonely")
        assert not port.send(make_udp())
        assert port.drops.packets == 1

    def test_queue_overflow_tail_drop(self, sim):
        a, b = make_pair(sim, queue_bytes=200)
        b.attach(lambda port, packet: None)
        big = make_udp(payload=b"x" * 120)  # wire_len 162
        assert a.send(big)
        # First packet starts transmitting immediately; queue can hold one
        # more 162 B frame but not two.
        assert a.send(make_udp(payload=b"x" * 120))
        assert not a.send(make_udp(payload=b"x" * 120))
        assert a.drops.packets == 1

    def test_queue_depth_tracking(self, sim):
        a, b = make_pair(sim, queue_bytes=1 << 20)
        b.attach(lambda port, packet: None)
        for _ in range(4):
            a.send(pad_to_min(make_udp()))
        # One packet is in flight; remainder queued.
        assert a.queue_depth_packets == 3
        sim.run()
        assert a.queue_depth_packets == 0


class TestWiring:
    def test_double_connect_rejected(self, sim):
        a, b = make_pair(sim)
        c = Port(sim, "c")
        with pytest.raises(SimulationError):
            a.connect(c)

    def test_disconnect_allows_reconnect(self, sim):
        a, b = make_pair(sim)
        a.disconnect()
        assert not a.connected and not b.connected
        c = Port(sim, "c")
        a.connect(c)
        assert a.peer is c


class TestConstruction:
    @pytest.mark.parametrize("rate", [0, 0.0, -1e9])
    def test_non_positive_rate_rejected(self, sim, rate):
        with pytest.raises(ConfigError):
            Port(sim, "bad", rate_bps=rate)

    def test_negative_queue_rejected(self, sim):
        with pytest.raises(ConfigError):
            Port(sim, "bad", queue_bytes=-1)

    def test_impaired_port_rate_rejected(self, sim):
        with pytest.raises(ConfigError):
            ImpairedPort(sim, "bad", rate_bps=0)

    def test_zero_queue_accepted(self, sim):
        a = Port(sim, "a", queue_bytes=0)
        b = Port(sim, "b")
        connect(a, b)
        assert not a.send(make_udp())
        assert a.drops.packets == 1


SIZES = (0, 1, 59, 60, 63, 64, 1500, 9000)
RATES = (1e9, 3.3e9, 10e9, 25e9)


class TestHopIdentity:
    @pytest.mark.parametrize("rate", RATES)
    def test_delivery_time_is_exact_sum(self, rate):
        propagation = 50e-9
        for size in SIZES:
            sim = Simulator()
            a = Port(sim, "a", rate_bps=rate, queue_bytes=1 << 20)
            b = Port(sim, "b", rate_bps=rate, queue_bytes=1 << 20)
            connect(a, b, propagation_s=propagation)
            arrivals = []
            b.attach(lambda port, packet: arrivals.append(sim.now))
            assert a.send(Packet(payload=b"x" * size))
            sim.run()
            expected = 0.0 + serialization_time(size, rate) + propagation
            assert arrivals == [expected], (size, rate)

    def test_byte_counters_sum_wire_len(self, sim):
        a, b = make_pair(sim, queue_bytes=1 << 20)
        b.attach(lambda port, packet: None)
        packets = [Packet(payload=b"x" * size) for size in SIZES]
        for packet in packets:
            a.send(packet)
        sim.run()
        total = sum(packet.wire_len for packet in packets)
        assert (a.tx.packets, a.tx.bytes) == (len(SIZES), total)
        assert (b.rx.packets, b.rx.bytes) == (len(SIZES), total)

    def test_byte_counters_through_impaired_port(self, sim):
        a = Port(sim, "a", queue_bytes=1 << 20)
        b = ImpairedPort(
            sim,
            "b",
            jitter_s=200e-9,
            duplicate_probability=0.5,
            seed=7,
        )
        connect(a, b)
        got = []
        b.attach(lambda port, packet: got.append(packet.wire_len))
        sizes = SIZES * 8
        for size in sizes:
            a.send(Packet(payload=b"x" * size))
        sim.run()
        assert a.tx.bytes == sum(sizes)
        assert b.duplicated.packets > 0
        assert len(got) == len(sizes) + b.duplicated.packets
        assert b.rx.packets == len(got)
        assert b.rx.bytes == sum(got) == sum(sizes) + b.duplicated.bytes


def five_frames_cut_at_9us(coalesce: bool, batch_rx: bool = False, cut_s=9e-6):
    """5 x 500 B frames on 1 Gbps with 2 us propagation, cut at ``cut_s``.

    Each frame serializes for 4.192 us: frames 1-2 finish by 9 us, frame 3
    is on the wire, frames 4-5 are still queued.
    """
    sim = Simulator()
    a = Port(sim, "a", rate_bps=1e9, coalesce=coalesce)
    b = Port(sim, "b", rate_bps=1e9, batch_rx=batch_rx)
    connect(a, b, propagation_s=2e-6)
    got = []
    b.attach(
        lambda port, packet: got.append(packet.meta.get("link_deliver_s", sim.now))
    )
    for _ in range(5):
        assert a.send(Packet(payload=bytes(500)))
    sim.schedule(cut_s, a.disconnect)
    sim.run()
    return got, a.tx.packets, b.rx.packets


class TestDisconnectInFlight:
    @pytest.mark.parametrize("coalesce", [False, True])
    def test_cut_loses_the_same_frames_on_both_paths(self, coalesce):
        got, tx, rx = five_frames_cut_at_9us(coalesce)
        service = serialization_time(500, 1e9)
        assert got == [service + 2e-6, service + service + 2e-6]
        assert (tx, rx) == (3, 2)

    def test_frame_on_the_wire_reaches_a_reconnected_peer(self):
        results = []
        for coalesce in (False, True):
            sim = Simulator()
            a = Port(sim, "a", rate_bps=1e9, coalesce=coalesce)
            b = Port(sim, "b", rate_bps=1e9)
            connect(a, b, propagation_s=2e-6)
            got = []
            b.attach(lambda port, packet: got.append(sim.now))
            for _ in range(3):
                a.send(Packet(payload=bytes(500)))
            sim.schedule(5e-6, a.disconnect)
            sim.schedule(6e-6, a.connect, b, 2e-6)
            sim.schedule(7e-6, a.send, Packet(payload=bytes(500)))
            sim.run()
            results.append((got, a.tx.packets, b.rx.packets))
        assert results[0] == results[1]
        # Frame 2 finished on the restored link; the frame sent after the
        # reconnect waited for it.
        assert results[0][1:] == (3, 3)

    def test_batch_lane_frames_not_yet_flushed_follow_the_same_rules(self):
        # Cut at 5 us, before the first flush (6.192 us): frame 1 finished
        # serializing and still arrives, stamped with its wire time.
        got, tx, rx = five_frames_cut_at_9us(True, batch_rx=True, cut_s=5e-6)
        assert got == [serialization_time(500, 1e9) + 2e-6]
        assert (tx, rx) == (2, 1)
        assert five_frames_cut_at_9us(False, cut_s=5e-6)[1:] == (2, 1)
