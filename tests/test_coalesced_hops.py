"""The batched tiers' one-event link hop fires on switch topologies.

On ``batched`` and ``compiled`` every port of the chaos gauntlet and the
fleet-upgrade campaign (switch cages, lossy wires, controller, host and
sink) coalesces each hop into one event.  A fast path that silently never
fires is a bug, so these runs must process at most 0.6x the reference
tier's events while producing the same semantic digest.
"""

from __future__ import annotations

import pytest

from repro.artifact import semantic_shard_digest
from repro.obs.scenario import ScenarioSpec, TrafficProfile

SPECS = {
    # A shortened smoke gauntlet: traffic and probes stop at 0.4 s.
    "chaos": dict(
        kind="chaos",
        traffic=TrafficProfile(rate_bps=50e6, frame_len=512, duration_s=0.4),
        fault_plan="smoke",
        seed=1,
    ),
    "fleet-upgrade": dict(kind="fleet-upgrade", seed=1),
}


def run(name: str, engine: str) -> tuple[int, str]:
    result = ScenarioSpec(**SPECS[name], engine=engine, shards=1).run()
    metrics = result.metrics()
    digest = semantic_shard_digest(metrics, result.summary, result.histograms())
    return metrics["sim.events"], digest


@pytest.mark.parametrize("name", sorted(SPECS))
def test_compiled_hops_are_single_events(name):
    reference_events, reference_digest = run(name, "reference")
    events, digest = run(name, "compiled")
    assert digest == reference_digest
    assert events <= 0.6 * reference_events, (events, reference_events)
