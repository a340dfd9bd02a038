"""The typed engine API: one :class:`EngineConfig` instead of scattered knobs.

Three engine tiers execute the same packet-processing semantics at
different simulation speeds:

``reference``
    One frame per event through the un-batched PPE — the semantic
    oracle every other tier is differential-tested against.
``batched``
    Reserve-at-submit batched execution (PR 2): frames are admitted to
    the service timeline immediately and drained in bursts, bit-exact
    with the reference engine by construction.
``compiled``
    The batched machinery plus fused per-flow recipe programs compiled
    from verified pipeline IR (:func:`repro.hls.compile_executor`) and a
    struct-of-arrays burst lane through ports, sources, and the PPE — a
    whole burst advances with a handful of Python-level operations.
    Frames a recipe cannot handle deopt to the batched path one by one.

The tier is a first-class, validated value: modules, switches,
:class:`~repro.obs.scenario.ScenarioSpec`, ``MatrixAxes`` and the CLI
all accept one :class:`EngineConfig` (or a tier name that
:func:`resolve_engine` fills in with the tier's defaults).  There is no
second spelling: an unnamed tier comes from ``FLEXSFP_ENGINE`` or
defaults to ``reference``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError

# Canonical engine names: the matrix axis vocabulary.
ENGINE_REFERENCE = "reference"
ENGINE_BATCHED = "batched"
ENGINE_COMPILED = "compiled"
ENGINES = (ENGINE_REFERENCE, ENGINE_BATCHED, ENGINE_COMPILED)

# Batch size a ``batched``/``compiled`` tier runs unless overridden.
DEFAULT_BATCHED_SIZE = 16


def engine_batch_size(engine: str, batched_size: int = DEFAULT_BATCHED_SIZE) -> int:
    """The batch size that realizes a named engine."""
    if engine == ENGINE_REFERENCE:
        return 1
    if engine in (ENGINE_BATCHED, ENGINE_COMPILED):
        return batched_size
    raise ConfigError(f"unknown engine {engine!r}; known: {list(ENGINES)}")


@dataclass(frozen=True)
class EngineConfig:
    """One validated engine selection: tier + the options it admits.

    ``fastpath`` enables the flow cache (meaningful on every tier;
    mandatory on ``compiled``, whose recipe programs *are* cached flow
    decisions).  ``batch_size`` is the PPE burst size (exactly 1 on
    ``reference``, > 1 on the batched tiers).  Construction validates
    the combination, so an ``EngineConfig`` that exists is runnable.
    """

    tier: str = ENGINE_REFERENCE
    fastpath: bool = False
    batch_size: int = 1

    def __post_init__(self) -> None:
        if self.tier not in ENGINES:
            raise ConfigError(
                f"unknown engine {self.tier!r}; known: {list(ENGINES)}"
            )
        if self.tier == ENGINE_REFERENCE:
            if self.batch_size != 1:
                raise ConfigError(
                    "engine 'reference' processes one frame per event; "
                    f"batch_size must be 1, got {self.batch_size}"
                )
        else:
            if self.batch_size < 2:
                raise ConfigError(
                    f"engine {self.tier!r} needs batch_size >= 2, "
                    f"got {self.batch_size}"
                )
        if self.tier == ENGINE_COMPILED and not self.fastpath:
            raise ConfigError(
                "engine 'compiled' fuses flow-cache recipes; "
                "fastpath cannot be disabled"
            )

    @property
    def compiled(self) -> bool:
        return self.tier == ENGINE_COMPILED

    @property
    def batched(self) -> bool:
        return self.batch_size > 1

    def to_dict(self) -> dict:
        return {
            "tier": self.tier,
            "fastpath": self.fastpath,
            "batch_size": self.batch_size,
        }


def resolve_engine(
    engine: "EngineConfig | str | None" = None, settings=None
) -> EngineConfig:
    """Resolve an engine selection to one :class:`EngineConfig`.

    An explicit :class:`EngineConfig` wins outright.  Otherwise the tier
    is the ``engine`` name, then ``FLEXSFP_ENGINE``, then ``reference``,
    filled in with the tier's defaults: ``reference`` runs one frame per
    event, the batched tiers run :data:`DEFAULT_BATCHED_SIZE`,
    ``compiled`` implies the flow cache, and the other tiers take it
    from ``FLEXSFP_FASTPATH``.
    """
    if isinstance(engine, EngineConfig):
        return engine
    if settings is None:
        from .config import get_settings

        settings = get_settings()
    tier = str(engine) if engine is not None else settings.engine or ENGINE_REFERENCE
    return EngineConfig(
        tier=tier,
        fastpath=tier == ENGINE_COMPILED or settings.fastpath,
        batch_size=engine_batch_size(tier),
    )


__all__ = [
    "DEFAULT_BATCHED_SIZE",
    "ENGINES",
    "ENGINE_BATCHED",
    "ENGINE_COMPILED",
    "ENGINE_REFERENCE",
    "EngineConfig",
    "engine_batch_size",
    "resolve_engine",
]
