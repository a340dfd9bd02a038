"""The benchmark's own tests: tracing hygiene, exact zero predictions,
attribution coverage, the correctness gate, and the benchmark contract.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
import workloads
from repro.sim.engine import Simulator

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Largest share of a traced run's host time that no layer may claim.
#: Measured below 0.002 on every workload; what there is is the scenario
#: builders' own glue in ``repro.obs.scenario``.
UNATTRIBUTED_BOUND = 0.02


@pytest.fixture(scope="module")
def traced():
    """One traced run per workload, shared by every test in this file."""
    samples: dict[str, workloads.TracedSample] = {}

    def sample(name: str) -> workloads.TracedSample:
        if name not in samples:
            # The overhead ratio is not under test here; any positive
            # untraced time will do.
            samples[name] = workloads.measure_traced(
                workloads.WORKLOADS[name], workloads.DEFAULT_SEED, untraced_run_s=1.0
            )
        return samples[name]

    return sample


def _repro_namespaces():
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        yield vars(module)
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__ == name:
                yield vars(value)


def test_trace_removes_span_wrappers_and_profiler(traced):
    run_before = Simulator.run
    sample = traced("nat-burst")
    assert Simulator.run is run_before
    wrappers = set(sample.tracer._wrappers.values())
    assert len(wrappers) > 100
    for namespace in _repro_namespaces():
        for value in namespace.values():
            if isinstance(value, property):
                value = value.fget
            elif isinstance(value, (staticmethod, classmethod)):
                value = value.__func__
            assert not (callable(value) and value in wrappers)
    assert sample.tracer.simulators
    assert all(sim.profiler is None for sim in sample.tracer.simulators)


def test_traced_run_matches_the_reference_digest(traced):
    for name, workload in workloads.WORKLOADS.items():
        expected = workloads.reference_digest(workload, workloads.DEFAULT_SEED)
        assert traced(name).digest == expected, name


def test_every_layer_is_reported(traced):
    names = {metric["name"] for metric in BENCHMARK["per_layer"]}
    for name in workloads.WORKLOADS:
        assert set(traced(name).per_layer) == names


@pytest.mark.parametrize(
    ("workload", "metric", "expected"),
    [
        # nat-burst runs on the fused lane: no switch, wire impairment,
        # crossbar or per-frame app code at all.
        ("nat-burst", "switch.calls", 0),
        ("nat-burst", "netem.calls", 0),
        ("nat-burst", "crossbar.calls", 0),
        ("nat-burst", "ppe.fused_frac", 1.0),
        ("chaos-smoke", "crossbar.calls", 0),
        ("chaos-smoke", "ppe.fused_frac", 0),
        ("nfv-mix", "switch.calls", 0),
        ("nfv-mix", "netem.calls", 0),
        ("nfv-mix", "ppe.fused_frac", 0),
        ("nfv-mix", "ppe.flowcache_hit_frac", 0),
    ],
)
def test_exact_predictions(traced, workload, metric, expected):
    assert traced(workload).per_layer[metric][0] == expected


def test_nat_burst_runs_no_per_frame_app_code(traced):
    """On the fused lane the app never processes a frame: it is asked for
    a flow key once per burst and for a recipe once per flow-cache miss."""
    sample = traced("nat-burst")
    metrics = sample.run.metrics()
    bursts = metrics["module0.ppe.nat.compiled.bursts"]
    misses = metrics["module0.ppe.nat.flow_cache.misses"]
    calls = sample.tracer.function_calls
    assert calls("repro.apps.nat", "StaticNat.process") == 0
    assert calls("repro.apps.nat", "StaticNat.flow_key") == bursts > 0
    assert calls("repro.apps.nat", "StaticNat.decide") == misses
    assert sample.tracer.in_run_calls["app"] == bursts + misses


def test_control_layer_idle_per_frame_without_faults(traced):
    for name in ("nat-burst", "nfv-mix"):
        assert traced(name).tracer.in_run_calls["control"] == 0, name


def test_unattributed_share_is_bounded(traced):
    for name in workloads.WORKLOADS:
        unattributed = traced(name).per_layer["trace.unattributed_frac"][0]
        assert 0 <= unattributed < UNATTRIBUTED_BOUND, name


def test_layer_self_times_add_up(traced):
    for name in workloads.WORKLOADS:
        sample = traced(name)
        self_s = sample.tracer.layer_self_s()
        assert all(seconds >= 0 for seconds in self_s.values()), name
        assert sum(self_s.values()) <= sample.tracer.wall_s


def test_digest_mismatch_fails_the_benchmark(monkeypatch, capsys):
    for variable in bench._THREAD_VARIABLES:
        monkeypatch.setenv(variable, "1")
    monkeypatch.setattr(workloads, "reference_digest", lambda workload, seed: "0" * 64)
    assert bench.main(["--workload", "nat-burst", "--seconds", "0.1"]) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] - 1 > 0


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


@pytest.mark.parametrize(
    ("trace", "section"), [("0", "end_to_end"), ("1", "per_layer")]
)
def test_prints_the_declared_metrics(trace, section):
    done = _bench(
        ROOT, "--workload", "nat-burst", "--seed", "3", "--seconds", "0.5",
        "--trace", trace,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == declared


def test_benchmark_json_lists_the_workloads():
    declared = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
    assert declared == {name: w.why for name, w in workloads.WORKLOADS.items()}


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = _bench(tmp_path, "--workload", "nat-burst", "--seed", "1", "--seconds", "1")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
