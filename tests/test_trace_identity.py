"""Tracing is an observer: it changes no result and reads the same on every tier.

For each scenario kind, a run with a packet tracer attached must hash to
the same semantic digest as the untraced reference run (the tracer's own
``trace.*`` metrics aside), and every traced packet's spans -- stage,
component, virtual start/end, direction and detail -- must be identical
whether the reference, batched or compiled engine ran it.
"""

from __future__ import annotations

import pytest

from repro.artifact import semantic_shard_digest
from repro.obs.scenario import ScenarioSpec

KINDS = ("nat-chain", "nfv-chain", "tenant-churn", "chaos")
TIERS = ("reference", "batched", "compiled")
TRACED_PACKETS = 6


def _digest(run) -> str:
    metrics = {
        name: value
        for name, value in run.metrics().items()
        if not name.startswith("trace.")
    }
    return semantic_shard_digest(metrics, run.summary, run.histograms())


def _spans(run) -> dict[int, list[tuple]]:
    tracer = run.tracer
    return {
        trace_id: [
            (
                span.stage,
                span.component,
                span.start_ns,
                span.end_ns,
                span.direction,
                span.detail,
            )
            for span in tracer.spans_for(trace_id)
        ]
        for trace_id in tracer.trace_ids()
    }


@pytest.fixture(scope="module", params=KINDS)
def kind_runs(request):
    kind = request.param
    untraced = ScenarioSpec(kind=kind, engine="reference", fastpath=True).run()
    traced = {
        tier: ScenarioSpec(
            kind=kind, engine=tier, fastpath=True, trace_packets=TRACED_PACKETS
        ).run()
        for tier in TIERS
    }
    return kind, _digest(untraced), traced


@pytest.mark.parametrize("tier", TIERS)
def test_tracing_leaves_the_semantic_digest_alone(kind_runs, tier):
    kind, reference_digest, traced = kind_runs
    assert _digest(traced[tier]) == reference_digest, (kind, tier)


def test_spans_identical_across_tiers(kind_runs):
    kind, _digest_ref, traced = kind_runs
    reference = _spans(traced["reference"])
    assert len(reference) == TRACED_PACKETS, kind
    for tier in ("batched", "compiled"):
        assert _spans(traced[tier]) == reference, (kind, tier)
