"""Per-layer host-time attribution for one traced scenario run.

The simulator is split into layers named by their modules (the table in
``LAYERS``).  A traced run charges host time to the layer that spent it,
not to the owner of the event being dispatched:

* every function and method a layer's modules define is wrapped in a
  span for the duration of the run, and a span's *self time* is its
  duration minus the spans nested inside it.  Private names are spans
  too, because layers often enter each other through them: a port's
  delivery calls the legacy switch's ``_forward`` directly, and with
  public names alone the switch's work was charged to the link;
* a :class:`SpanTracer` sits on the public ``Simulator.profiler`` hook,
  which reports each event's elapsed time keyed by its callback.  The
  event's time not claimed by nested spans is charged to the layer whose
  module defines the callback.

Host time no layer claims (scenario-builder glue, callbacks defined
outside every layer) is reported as unattributed.  Everything installed
for the run is removed again when :meth:`SpanTracer.trace` returns, even
if the run raised.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
from collections import Counter
from contextlib import contextmanager
from enum import Enum
from time import perf_counter
from types import FunctionType, ModuleType
from typing import Callable, Iterator

from repro.sim.engine import Simulator

#: Layer name -> the module prefixes it owns.  A prefix owns the module
#: of that name and every submodule below it.
LAYERS: dict[str, tuple[str, ...]] = {
    "kernel": ("repro.sim.engine",),
    "link": ("repro.sim.link", "repro.sim.burst"),
    "traffic": ("repro.netem.traffic",),
    "netem": ("repro.netem.impairments",),
    "switch": ("repro.switch.legacy",),
    "control": (
        "repro.core.controlplane",
        "repro.core.mgmt",
        "repro.fleet",
        "repro.fpga.flash",
        "repro.faults",
    ),
    "module": ("repro.core.module", "repro.core.arbiter"),
    "crossbar": ("repro.nfv.crossbar",),
    "ppe": ("repro.core.ppe", "repro.core.flowcache"),
    "app": ("repro.apps",),
    "packet": ("repro.packet",),
    "hls": ("repro.hls", "repro.fpga.estimator", "repro.nfv.pricing"),
    # ``repro.artifact.diff`` holds the semantic digest every run is
    # checked with.
    "obs": ("repro.obs.registry", "repro.artifact.diff"),
}

#: The only dunder methods that are spans: construction and calls are
#: work of the layer.  Every other dunder stays unwrapped, because C code
#: such as ``heapq`` calls ``__lt__`` millions of times and a span there
#: would measure the tracer, not the layer.
_SPAN_DUNDERS = ("__init__", "__call__")

#: Packages whose submodules are imported before wrapping, so that a
#: submodule first imported during the run is not left untraced.
_PACKAGES = ("repro.apps", "repro.packet", "repro.hls", "repro.faults")


def layer_of(module_name: str | None) -> str | None:
    """The layer that owns ``module_name``, or None."""
    if not module_name:
        return None
    for layer, prefixes in LAYERS.items():
        for prefix in prefixes:
            if module_name == prefix or module_name.startswith(prefix + "."):
                return layer
    return None


def _layer_modules() -> list[tuple[str, ModuleType]]:
    for package in _PACKAGES:
        root = importlib.import_module(package)
        for info in pkgutil.walk_packages(root.__path__, package + "."):
            importlib.import_module(info.name)
    modules = []
    for name, module in sorted(sys.modules.items()):
        layer = layer_of(name)
        if layer is not None and module is not None:
            modules.append((layer, module))
    return modules


def _spanned(name: str) -> bool:
    return not name.startswith("__") or name in _SPAN_DUNDERS


class SpanTracer:
    """Span wrappers plus a ``Simulator.profiler`` for one traced run.

    ``functions`` maps ``module:qualname`` to ``[layer, calls, self_s]``;
    ``events`` maps a layer to ``[events, self_s]`` for the events whose
    callback it defines.  ``in_run_calls`` counts each layer's calls made
    while a ``Simulator.run`` was executing, i.e. the per-frame work as
    opposed to set-up.
    """

    def __init__(self) -> None:
        self.functions: dict[str, list] = {}
        self.events: dict[str, list] = {layer: [0, 0.0] for layer in LAYERS}
        self.in_run_calls: Counter[str] = Counter()
        self.simulators: list[Simulator] = []
        self.wall_s = 0.0
        self.root_self_s = 0.0
        # Each open span is a one-element list holding the host time
        # its nested spans have taken so far.
        self._stack: list[list[float]] = []
        self._wrappers: dict[FunctionType, Callable] = {}
        self._owners: dict[object, str | None] = {}

    # ------------------------------------------------------------------
    # The Simulator.profiler protocol
    # ------------------------------------------------------------------
    def record(self, callback: Callable, elapsed_s: float) -> None:
        """Charge one dispatched event to the layer defining its callback.

        Called from inside ``Simulator.step``, whose span is the top of
        the stack; the spans the callback opened have already added
        their time to it.
        """
        frame = self._stack[-1]
        layer = self._owner_layer(callback)
        if layer is not None:
            event = self.events[layer]
            event[0] += 1
            event[1] += elapsed_s - frame[0]
        frame[0] = elapsed_s

    def _owner_layer(self, callback: Callable) -> str | None:
        function = getattr(callback, "__func__", callback)
        if isinstance(function, functools.partial):
            function = function.func
        try:
            return self._owners[function]
        except KeyError:
            layer = self._owners[function] = layer_of(
                getattr(function, "__module__", None)
            )
            return layer

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def trace(self, body: Callable[[], object]) -> object:
        """Run ``body`` with every layer traced; returns its result."""
        with self._installed():
            self._stack.append([0.0])
            start = perf_counter()
            try:
                return body()
            finally:
                self.wall_s = perf_counter() - start
                self.root_self_s = self.wall_s - self._stack.pop()[0]

    def layer_calls(self) -> Counter[str]:
        """Span calls plus dispatched events, per layer."""
        calls: Counter[str] = Counter()
        for layer, count, _ in self.functions.values():
            calls[layer] += count
        for layer, (count, _) in self.events.items():
            calls[layer] += count
        return calls

    def layer_self_s(self) -> dict[str, float]:
        self_s = {layer: events[1] for layer, events in self.events.items()}
        for layer, _, seconds in self.functions.values():
            self_s[layer] += seconds
        return self_s

    def function_calls(self, module: str, qualname: str) -> int:
        record = self.functions.get(f"{module}:{qualname}")
        return record[1] if record is not None else 0

    # ------------------------------------------------------------------
    # Installing and removing the wrappers
    # ------------------------------------------------------------------
    @contextmanager
    def _installed(self) -> Iterator[None]:
        undo: list[tuple[object, str, object]] = []
        try:
            self._wrap_layers(undo)
            run = Simulator.run
            undo.append((Simulator, "run", run))
            Simulator.run = self._run_hook(run)
            yield
        finally:
            for owner, name, original in reversed(undo):
                if isinstance(owner, dict):
                    owner[name] = original
                else:
                    setattr(owner, name, original)

    def _run_hook(self, run: Callable) -> Callable:
        tracer = self

        @functools.wraps(run)
        def traced_run(sim: Simulator, *args, **kwargs):
            previous = sim.profiler
            sim.profiler = tracer
            tracer.simulators.append(sim)
            before = tracer.layer_calls()
            try:
                return run(sim, *args, **kwargs)
            finally:
                sim.profiler = previous
                tracer.in_run_calls += tracer.layer_calls() - before

        return traced_run

    def _wrap_layers(self, undo: list) -> None:
        for layer, module in _layer_modules():
            for name, value in list(vars(module).items()):
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                if isinstance(value, FunctionType) and _spanned(name):
                    self._wrap(value, layer)
                elif isinstance(value, type) and not issubclass(value, Enum):
                    self._wrap_class(value, layer, undo)
        # Patch every repro namespace that holds a wrapped function, so
        # ``from x import f`` call sites are traced too.
        wrappers = self._wrappers
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if isinstance(value, FunctionType) and value in wrappers:
                    undo.append((namespace, key, value))
                    namespace[key] = wrappers[value]

    def _wrap_class(self, cls: type, layer: str, undo: list) -> None:
        for name, value in list(vars(cls).items()):
            if not _spanned(name):
                continue
            if isinstance(value, FunctionType):
                wrapped: object = self._wrap(value, layer)
            elif isinstance(value, (staticmethod, classmethod)) and isinstance(
                value.__func__, FunctionType
            ):
                wrapped = type(value)(self._wrap(value.__func__, layer))
            elif isinstance(value, property):
                wrapped = property(
                    *(
                        self._wrap(f, layer) if isinstance(f, FunctionType) else f
                        for f in (value.fget, value.fset, value.fdel)
                    ),
                    value.__doc__,
                )
            else:
                continue
            undo.append((cls, name, value))
            setattr(cls, name, wrapped)

    def _wrap(self, function: FunctionType, layer: str) -> Callable:
        wrapper = self._wrappers.get(function)
        if wrapper is not None:
            return wrapper
        record = self.functions.setdefault(
            f"{function.__module__}:{function.__qualname__}", [layer, 0, 0.0]
        )
        stack = self._stack

        @functools.wraps(function)
        def span(*args, **kwargs):
            if not stack:
                # Objects built during the run keep bound wrappers after
                # it; outside a trace those only pass the call through.
                return function(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                record[1] += 1
                record[2] += elapsed - frame[0]
                stack[-1][0] += elapsed

        self._wrappers[function] = span
        return span


def per_layer_metrics(
    tracer: SpanTracer,
    metrics: dict,
    emitted: int,
    scale: float,
    traced_run_s: float,
    untraced_run_s: float,
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced run, as ``name -> (value, unit)``.

    ``metrics`` is the run's registry snapshot; the ratios come from its
    existing public counters.  ``scale`` converts the tracer's raw host
    seconds to the calibrated seconds every reported time uses.
    ``traced_run_s`` is the traced ``run()`` alone and ``untraced_run_s``
    the untraced ``wall_s``; together they give the tracing overhead.
    """
    wall_s = tracer.wall_s
    self_s = tracer.layer_self_s()
    calls = tracer.layer_calls()
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_s[layer] * scale, "s")
        out[f"{layer}.calls"] = (calls[layer], "count")
        out[f"{layer}.share"] = (self_s[layer] / wall_s, "frac")

    def total(suffix: str) -> float:
        return sum(v for name, v in metrics.items() if name.endswith(suffix))

    scheduled = tracer.function_calls("repro.sim.engine", "Simulator.schedule_at")
    fired = sum(sim.events_processed for sim in tracer.simulators)
    pending = sum(sim.pending() for sim in tracer.simulators)
    out["kernel.events_per_pkt"] = (metrics["sim.events"] / emitted, "events/pkt")
    out["kernel.cancelled_frac"] = (
        (scheduled - fired - pending) / scheduled if scheduled else 0.0,
        "frac",
    )
    link_calls = tracer.in_run_calls["link"]
    out["link.frames_per_call"] = (
        emitted / link_calls if link_calls else 0.0,
        "frames/call",
    )
    out["link.drops"] = (total(".drops.packets"), "count")
    processed = total(".processed.packets")
    out["ppe.fused_frac"] = (
        total(".compiled.recipe_frames") / processed if processed else 0.0,
        "frac",
    )
    lookups = total(".flow_cache.hits") + total(".flow_cache.misses")
    out["ppe.flowcache_hit_frac"] = (
        total(".flow_cache.hits") / lookups if lookups else 0.0,
        "frac",
    )
    out["app.calls_per_pkt"] = (tracer.in_run_calls["app"] / emitted, "calls/pkt")
    out["packet.calls_per_pkt"] = (
        tracer.in_run_calls["packet"] / emitted,
        "calls/pkt",
    )
    out["trace.overhead_frac"] = (traced_run_s / untraced_run_s - 1, "frac")
    out["trace.unattributed_frac"] = (
        (wall_s - sum(self_s.values())) / wall_s,
        "frac",
    )
    return out
