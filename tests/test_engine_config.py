"""The typed Engine API: EngineConfig validation, resolution, conflicts.

One frozen :class:`~repro.engine.EngineConfig` is the only way to pick
an engine.  These tests pin the construction rules (a config that
exists is runnable), the resolution precedence (explicit config > tier
name > ``FLEXSFP_ENGINE`` env > ``reference``), the deprecation gate on
the CLI scenario path, and the spec/artifact plumbing that records the
resolved selection.
"""

from __future__ import annotations

import json
import warnings

import pytest

from repro.apps import StaticNat
from repro.cli import main
from repro.config import Settings
from repro.core import FlexSFPModule
from repro.engine import (
    DEFAULT_BATCHED_SIZE,
    ENGINES,
    EngineConfig,
    engine_batch_size,
    resolve_engine,
)
from repro.errors import ConfigError
from repro.obs.scenario import ScenarioSpec
from repro.sim import Simulator
from repro.nfv import Deployment


def make_nat() -> StaticNat:
    nat = StaticNat(capacity=16)
    nat.add_mapping("10.0.0.1", "198.51.100.1")
    return nat


class TestEngineConfig:
    def test_default_is_reference(self):
        config = EngineConfig()
        assert config.tier == "reference"
        assert not config.compiled and not config.batched

    @pytest.mark.parametrize("tier", ENGINES)
    def test_every_tier_constructs(self, tier):
        size = 1 if tier == "reference" else 8
        fastpath = tier == "compiled"
        config = EngineConfig(tier=tier, fastpath=fastpath, batch_size=size)
        assert config.to_dict() == {
            "tier": tier,
            "fastpath": fastpath,
            "batch_size": size,
        }

    def test_unknown_tier_rejected(self):
        with pytest.raises(ConfigError, match="unknown engine"):
            EngineConfig(tier="warp")

    def test_reference_rejects_batching(self):
        with pytest.raises(ConfigError, match="batch_size must be 1"):
            EngineConfig(tier="reference", batch_size=8)

    def test_batched_rejects_unit_batch(self):
        with pytest.raises(ConfigError, match="batch_size >= 2"):
            EngineConfig(tier="batched", batch_size=1)

    def test_compiled_requires_fastpath(self):
        with pytest.raises(ConfigError, match="fastpath"):
            EngineConfig(tier="compiled", fastpath=False, batch_size=8)

    def test_frozen(self):
        with pytest.raises(Exception):
            EngineConfig().tier = "batched"


class TestResolution:
    def test_explicit_config_wins(self):
        config = EngineConfig(tier="batched", batch_size=4)
        assert resolve_engine(config, settings=Settings(engine="compiled")) is config

    def test_tier_name_fills_defaults(self):
        settings = Settings()
        config = resolve_engine("compiled", settings=settings)
        assert config.tier == "compiled"
        assert config.fastpath is True  # compiled implies the flow cache
        assert config.batch_size == DEFAULT_BATCHED_SIZE

    def test_no_tier_named_is_reference(self):
        assert resolve_engine(None, settings=Settings()) == EngineConfig()
        assert resolve_engine(
            None, settings=Settings(fastpath=True)
        ) == EngineConfig(fastpath=True)

    def test_env_engine_is_used_when_no_argument(self):
        settings = Settings(engine="batched")
        assert resolve_engine(None, settings=settings).tier == "batched"
        # The argument still beats the environment.
        assert resolve_engine("reference", settings=settings).tier == "reference"

    def test_helpers(self):
        assert engine_batch_size("reference") == 1
        assert engine_batch_size("compiled", 32) == 32
        with pytest.raises(ConfigError):
            engine_batch_size("warp")


class TestModuleConflicts:
    def test_engine_config_carries_options(self):
        module = FlexSFPModule(
            Simulator(),
            "dut",
            Deployment.solo(make_nat()),
            engine=EngineConfig(tier="compiled", fastpath=True, batch_size=32),
        )
        assert module.batch_size == 32
        assert module.fastpath is True
        assert module.program is not None


class TestScenarioSpecEngine:
    def test_resolved_spec_pins_all_three_fields(self):
        spec = ScenarioSpec(kind="nat-linerate", engine="compiled").resolved(
            Settings()
        )
        assert (spec.engine, spec.fastpath, spec.batch_size) == (
            "compiled",
            True,
            DEFAULT_BATCHED_SIZE,
        )
        assert spec.engine_config(Settings()).compiled

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError, match="unknown engine"):
            ScenarioSpec(kind="nat-linerate", engine="warp").validate()

    def test_resolution_is_idempotent(self):
        settings = Settings()
        once = ScenarioSpec(kind="nat-linerate", engine="batched").resolved(
            settings
        )
        assert once.resolved(settings) == once

    def test_batch_size_needs_a_batched_tier(self):
        spec = ScenarioSpec(kind="nat-linerate", fastpath=True, batch_size=16)
        with pytest.raises(ConfigError, match="batch_size must be 1"):
            spec.resolved(Settings())
        assert spec.resolved(Settings(engine="batched")).engine == "batched"

    def test_round_trips_through_dict(self):
        spec = ScenarioSpec(kind="nat-linerate", engine="compiled").resolved(
            Settings()
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec


class TestCliConflicts:
    def run(self, capsys, *argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_engine_flag_lands_in_artifact_knobs(self, capsys):
        code, out, _ = self.run(
            capsys,
            "run",
            "--scenario",
            "nat-linerate",
            "--shards",
            "1",
            "--engine",
            "compiled",
            "--json",
        )
        assert code == 0
        knobs = json.loads(out)["knobs"]
        assert knobs["engine"] == "compiled"
        assert knobs["engine_config"] == {
            "tier": "compiled",
            "fastpath": True,
            "batch_size": DEFAULT_BATCHED_SIZE,
        }

    def test_gate_catches_warning_on_engine_resolution(self, capsys, monkeypatch):
        import repro.obs.scenario as scenario

        def noisy_resolve(*args, **kwargs):
            warnings.warn("old engine spelling", DeprecationWarning)
            return resolve_engine(*args, **kwargs)

        monkeypatch.setattr(scenario, "resolve_engine", noisy_resolve)
        code, _, err = self.run(capsys, "metrics", "--fail-on-deprecated")
        assert code == 3
        assert "deprecated: old engine spelling" in err

    def test_bare_metrics_is_deprecation_clean(self, capsys):
        code, _, _ = self.run(capsys, "metrics", "--fail-on-deprecated")
        assert code == 0
