"""Per-layer busy time for the traced run, taken from outside the program.

:class:`LayerTracer` wraps each layer's public entry point for the
duration of one traced pass and books inclusive busy seconds and call
counts as counters.  The counters go to the metrics registry of the
:class:`~repro.harness.ExperimentRunner` whose ``run_benchmark`` is
executing, so pool workers (forked with the wrappers in place) ship
them back with their own metrics and the parent's merge folds them in.
Work done outside any ``run_benchmark`` -- the parent building traces
to share with workers -- lands on the tracer's own registry.

The program's six ``sampling`` spans carry no method label, so
per-sampler time is taken around each ``get_sampler(m).build_plan(ctx)``
call that ``ExperimentRunner.plans`` makes: one shared ``PlanContext``,
registry order, exactly as an untraced run.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from typing import Callable, Dict, List, Tuple

from repro.analysis import bic
from repro.detailed.timing import TimingSimulator
from repro.engine import trace as engine_trace
from repro.engine.functional import FunctionalSimulator
from repro.harness.cache import ResultCache
from repro.harness.runner import ExperimentRunner
from repro.obs import MetricsRegistry
from repro.samplers import registry as samplers_registry
from repro.sampling import estimate
from repro.workloads import registry as workloads_registry

BUSY = "perfbench_busy_seconds_total"
CALLS = "perfbench_busy_calls_total"
ROWS = "perfbench_rows_total"

#: (module-level function, layer name): every binding of the function in
#: a loaded ``repro`` module is wrapped, wherever it was imported to.
FUNCTIONS: Tuple[Tuple[Callable, str], ...] = (
    (workloads_registry.load_workload, "workloads.load_workload"),
    (engine_trace.build_trace, "engine.build_trace"),
    (bic.cluster_with_bic, "analysis.cluster_with_bic"),
    (estimate.simulate_point_set, "detailed.simulate_point_set"),
    (estimate.simulate_tagged_ranges, "detailed.simulate_tagged_ranges"),
)

#: (class, method, layer name).
METHODS: Tuple[Tuple[type, str, str], ...] = (
    (TimingSimulator, "simulate_full", "detailed.simulate_full"),
    (FunctionalSimulator, "run", "engine.profile"),
    (FunctionalSimulator, "profile_fixed_intervals", "engine.profile"),
    (FunctionalSimulator, "profile_coarse_intervals", "engine.profile"),
    (FunctionalSimulator, "profile_structures", "engine.profile"),
    (ResultCache, "get", "harness.cache_get"),
    (ResultCache, "put", "harness.cache_put"),
)


class LayerTracer:
    """Context manager installing the layer wrappers for one pass."""

    def __init__(self) -> None:
        #: Where work outside any ``run_benchmark`` is booked.
        self.own = MetricsRegistry()
        self._active: List[MetricsRegistry] = []
        self._undo: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _registry(self) -> MetricsRegistry:
        return self._active[-1] if self._active else self.own

    def _timed(self, layer: str, function: Callable) -> Callable:
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            began = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                registry = self._registry()
                registry.counter(BUSY, layer=layer).inc(
                    time.perf_counter() - began
                )
                registry.counter(CALLS, layer=layer).inc()
                if layer == "analysis.cluster_with_bic":
                    data = args[0] if args else kwargs["data"]
                    registry.counter(ROWS, layer=layer).inc(len(data))

        return wrapper

    def _set(self, owner: object, name: str, value: object) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _rebind(self, original: Callable, replacement: Callable) -> None:
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    # ------------------------------------------------------------------
    def __enter__(self) -> "LayerTracer":
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self) -> None:
        for function, layer in FUNCTIONS:
            self._rebind(function, self._timed(layer, function))
        for cls, name, layer in METHODS:
            self._set(cls, name, self._timed(layer, cls.__dict__[name]))

        original_get_sampler = samplers_registry.get_sampler

        def get_sampler(name: str):
            spec = original_get_sampler(name)
            return dataclasses.replace(
                spec,
                build_plan=self._timed(f"samplers.{name}", spec.build_plan),
            )

        self._rebind(original_get_sampler, get_sampler)

        run_benchmark = ExperimentRunner.__dict__["run_benchmark"]

        @functools.wraps(run_benchmark)
        def routed(runner, *args, **kwargs):
            self._active.append(runner.obs.metrics)
            try:
                return run_benchmark(runner, *args, **kwargs)
            finally:
                self._active.pop()

        self._set(ExperimentRunner, "run_benchmark", routed)

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def busy(registries: List[MetricsRegistry]) -> Dict[str, Dict[str, float]]:
    """``{layer: {"s", "calls", "rows"}}`` summed over *registries*."""
    out: Dict[str, Dict[str, float]] = {}
    keys = {BUSY: "s", CALLS: "calls", ROWS: "rows"}
    for registry in registries:
        for name, labels, metric in registry.samples():
            if name in keys:
                layer = dict(labels)["layer"]
                entry = out.setdefault(
                    layer, {"s": 0.0, "calls": 0.0, "rows": 0.0}
                )
                entry[keys[name]] += metric.value
    return out
