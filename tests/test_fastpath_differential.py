"""Differential equivalence: flow-cache fast path + batching vs reference.

The fast path's contract (``repro.core.flowcache``) is that enabling it
changes *nothing* about the simulated results — verdict counts, functional
application counters, drop counts, delivered bytes, and the per-frame
latency distribution must be bit-identical to the reference per-frame
engine.  This suite drives a seeded IMIX of mixed traffic (IPv4/IPv6 UDP,
TCP, DNS) through every registered application twice — fast path + batched
execution on vs off — and compares.
"""

import random

import pytest

from repro.apps import APP_FACTORIES, create_app
from repro.core import FlexSFPModule
from repro.engine import EngineConfig
from repro.netem import ImixSource
from repro.packet import make_dns_query, make_tcp, make_udp, make_udp6
from repro.sim import Port, Simulator, connect
from repro.nfv import Deployment

KEY = b"differential-key"
RUN_S = 0.3e-3
RATE_BPS = 5e9
SEED = 7
REFERENCE = EngineConfig()
FASTPATH = EngineConfig(tier="batched", fastpath=True, batch_size=16)

# Applications whose ``decide`` actually produces cacheable recipes for
# plain IPv4 traffic; for these the fast run must also record cache hits
# (otherwise the differential test would pass vacuously with the cache
# never engaged).
CACHED_APPS = {"nat", "firewall", "loadbalancer", "dnsfilter"}

SRC_IPS = [f"10.0.0.{i}" for i in range(1, 9)]
DST_IPS = [f"203.0.113.{i}" for i in range(1, 5)]


def make_factory(seed: int):
    """Seeded mixed-traffic factory: a small flow pool with repeats.

    Eight sources times four destinations gives 32 flows, so the IMIX
    stream revisits flows often enough for real cache hits while still
    exercising insertion and lookup across many keys.  The RNG is local
    to the factory, so two runs built with the same seed emit identical
    packet sequences regardless of engine mode.
    """
    rng = random.Random(seed)

    def factory(index: int, frame_len: int) -> object:
        src = rng.choice(SRC_IPS)
        dst = rng.choice(DST_IPS)
        sport = 10_000 + rng.randrange(4)
        kind = rng.randrange(10)
        payload = bytes(max(0, frame_len - 42))
        if kind < 6:
            return make_udp(
                src_ip=src, dst_ip=dst, sport=sport, dport=20_000,
                payload=payload,
            )
        if kind < 8:
            return make_tcp(src_ip=src, dst_ip=dst, sport=sport, dport=80)
        if kind == 8:
            return make_udp6(payload=payload)
        return make_dns_query("www.example.com", src_ip=src)

    return factory


def run_app(name: str, engine: EngineConfig) -> tuple[dict, object]:
    sim = Simulator()
    app = create_app(name)
    if name == "nat":
        for src in SRC_IPS:
            app.add_mapping(src, src.replace("10.0.0.", "198.51.100."))
    module = FlexSFPModule(sim, "dut", Deployment.solo(app), auth_key=KEY, engine=engine)
    batch_size = engine.batch_size
    host = Port(
        sim, "host", 10e9, queue_bytes=1 << 20, coalesce=batch_size > 1
    )
    fiber = Port(
        sim, "fiber", 10e9, queue_bytes=1 << 20, batch_rx=batch_size > 1
    )
    connect(host, module.edge_port)
    connect(module.line_port, fiber)
    ImixSource(
        sim,
        host,
        rate_bps=RATE_BPS,
        stop=RUN_S,
        factory=make_factory(SEED),
        seed=SEED,
        burst=batch_size if batch_size > 1 else 1,
    )
    sim.run(until=RUN_S + 0.2e-3)
    return {
        "verdicts": dict(module.ppe.snapshot()["verdicts"]),
        "processed": module.ppe.processed.snapshot(),
        "overload_drops": module.ppe.overload_drops.snapshot(),
        "latency_ns": module.ppe.latency_ns.snapshot(),
        "app_counters": module.app.counters_snapshot(),
        "delivered": fiber.rx.snapshot(),
        "returned": host.rx.snapshot(),
        "edge_drops": module.edge_port.drops.snapshot(),
        "line_drops": module.line_port.drops.snapshot(),
    }, module


@pytest.mark.parametrize("name", sorted(APP_FACTORIES))
def test_fastpath_matches_reference(name):
    reference, _ = run_app(name, REFERENCE)
    fast, module = run_app(name, FASTPATH)
    assert fast == reference, name
    # The run processed real traffic (not a vacuous comparison)...
    assert reference["processed"]["packets"] > 50, name
    cache = module.ppe.flow_cache
    assert cache is not None
    # ...and for recipe-producing apps the cache demonstrably engaged.
    if name in CACHED_APPS:
        assert cache.hits > 0, f"{name}: flow cache never hit"
        assert cache.hit_rate > 0.2, f"{name}: {cache.snapshot()}"


def test_batching_alone_matches_reference():
    """Batched execution with the cache off is also result-identical."""
    reference, _ = run_app("nat", REFERENCE)
    batched, module = run_app(
        "nat", EngineConfig(tier="batched", fastpath=False, batch_size=16)
    )
    assert module.ppe.flow_cache is None
    assert batched == reference


def test_midrun_table_write_matches_reference():
    """A control-plane write mid-stream lands between the same packets.

    Frames whose virtual service finished before the write must be decided
    against the pre-write tables even if they are still sitting in a
    pending batch — the pre-mutation drain hook (``Table._pre_mutate`` →
    ``PacketProcessingEngine._process_due``) enforces this.  The remap
    below must flip the translated source address at exactly the same
    packet index in both engines.
    """
    from repro.apps import StaticNat
    from repro.netem import CbrSource

    def run(engine: EngineConfig) -> tuple[list[str], object]:
        sim = Simulator()
        nat = StaticNat()
        nat.add_mapping("10.0.0.1", "198.51.100.1")
        module = FlexSFPModule(
            sim, "dut", Deployment.solo(nat), auth_key=KEY, engine=engine
        )
        batch_size = engine.batch_size
        host = Port(
            sim, "host", 10e9, queue_bytes=1 << 22, coalesce=batch_size > 1
        )
        fiber = Port(
            sim, "fiber", 10e9, queue_bytes=1 << 22, batch_rx=batch_size > 1
        )
        seen: list[str] = []

        def rx(port, pkt):
            seen.append(pkt.ipv4.src_ip)

        fiber.attach(rx)
        if batch_size > 1:
            fiber.attach_batch(
                lambda port, items: seen.extend(
                    pkt.ipv4.src_ip for pkt, _size, _when in items
                )
            )
        connect(host, module.edge_port)
        connect(module.line_port, fiber)
        template = make_udp(src_ip="10.0.0.1", payload=b"y" * 50)
        CbrSource(
            sim, host, rate_bps=1e8, frame_len=112, stop=2e-4,
            factory=lambda i, s: template.copy(),
            burst=batch_size if batch_size > 1 else 1,
        )
        sim.schedule_at(
            1e-4, lambda: module.app.add_mapping("10.0.0.1", "198.51.100.99")
        )
        sim.run(until=3e-4)
        return seen, module

    reference, _ = run(REFERENCE)
    fast, module = run(EngineConfig(tier="batched", fastpath=True, batch_size=8))
    assert reference == fast
    # Both translations were actually observed (the write landed mid-run)
    # and the cache both engaged and invalidated across the write.
    assert set(reference) == {"198.51.100.1", "198.51.100.99"}
    cache = module.ppe.flow_cache
    assert cache is not None and cache.hits > 0
    assert cache.invalidations > 0
