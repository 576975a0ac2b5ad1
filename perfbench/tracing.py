"""Per-layer tracing from outside the program.

The benchmark wraps public functions of each ``repro`` module it measures
(the ``LAYERS`` table below) with span-recording shims.  Nothing inside
``src/`` is instrumented: spans are opened and closed around the calls
into each layer, kept in memory, and reduced to per-layer ``calls``,
inclusive ``ms`` and exclusive ``self_ms`` when the run ends.

Self time of a span is its duration minus the part of its interval that
its child spans cover.  ``unattributed`` is the self time of the
service-layer entry points (``service.*``): time spent in the monitor's
own code that no deeper wrapped layer accounts for.

Wrappers only exist while a :class:`Tracer` is installed, so untraced
operations run the program's own functions with no shim in the way.  Process
workers import their own copy of ``repro``; work they do is therefore
only visible from the coordinator as ``parallel.wait``.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "LAYERS",
    "Layer",
    "Span",
    "Tracer",
    "UNATTRIBUTED",
    "layer_table",
    "self_times",
]

#: The row that collects the service entry points' self time.
UNATTRIBUTED = "unattributed"


@dataclass(frozen=True)
class Layer:
    """One wrapped public function.

    ``target`` is ``"module:Class.method"`` or ``"module:function"``;
    ``name`` is the metric prefix.  Several targets may share a name (two
    phases of one operation); ``count`` says whether a call of this target
    counts toward ``<name>.calls``.  ``on_result(args, kwargs, result,
    parent)`` turns a call's arguments and result, and the name of the
    enclosing span, into counter increments; ``span=False`` targets
    record counters only (they run on background threads, where a span
    would have no parent).
    """

    target: str
    name: str
    count: bool = True
    span: bool = True
    on_result: Callable | None = None


def _reconstruct_cols(args, kwargs, result, parent) -> dict[str, float]:
    # Columns the tree expanded: the output width of MrDMDTree.reconstruct.
    # Those expanded for a baseline refit are the O(T) part of a refit.
    cols = float(result.shape[-1])
    counts = {"core.tree_reconstruct.cols": cols}
    if parent == "pipeline.fit_baseline":
        counts["pipeline.fit_baseline.cols"] = cols
    return counts


def _block_put(args, kwargs, result, parent) -> dict[str, float]:
    # BlockStore.put -> (digest, created, nbytes); a block that already
    # existed is referenced, not written.
    _digest, created, nbytes = result
    key = "checkpoint.bytes_written" if created else "checkpoint.bytes_referenced"
    return {key: float(nbytes)}


def _save_info(args, kwargs, result, parent) -> dict[str, float]:
    return {
        "checkpoint.shards_reused": float(result.shards_reused),
        "checkpoint.shards_saved": float(result.n_shards),
    }


def _fired(args, kwargs, result, parent) -> dict[str, float]:
    return {"alerts.fired": float(len(result))}


def _routed(args, kwargs, result, parent) -> dict[str, float]:
    return {"alerts.routed": float(len(result))}


_PAR = "repro.util.parallel"
_MON = "repro.service.monitor"
_PIPE = "repro.pipeline.online"
_CORE = "repro.core.imrdmd"

#: Wrapped public calls, by module, and the metric name each reports as.
LAYERS: tuple[Layer, ...] = (
    # service.monitor: the entry points (root spans).
    Layer(f"{_MON}:FleetMonitor.ingest_and_alert", "service.round"),
    Layer(f"{_MON}:FleetMonitor.ingest", "service.round"),
    Layer(f"{_MON}:FleetMonitor.rack_values", "service.rack_values"),
    Layer(f"{_MON}:FleetMonitor.fleet_spectrum", "service.fleet_spectrum"),
    # util.parallel: dispatch and blocking waits.
    Layer(f"{_PAR}:SerialShardExecutor.submit", "parallel.submit"),
    Layer(f"{_PAR}:ThreadShardExecutor.submit", "parallel.submit"),
    Layer(f"{_PAR}:ProcessShardExecutor.submit", "parallel.submit"),
    Layer(f"{_PAR}:ShardTask.result", "parallel.wait"),
    # pipeline.online (ingest is split in two phases on the batched path).
    Layer(f"{_PIPE}:OnlineAnalysisPipeline.ingest", "pipeline.ingest"),
    Layer(f"{_PIPE}:OnlineAnalysisPipeline.prepare_ingest", "pipeline.ingest", count=False),
    Layer(f"{_PIPE}:OnlineAnalysisPipeline.finish_ingest", "pipeline.ingest"),
    Layer(f"{_PIPE}:OnlineAnalysisPipeline.fit_baseline", "pipeline.fit_baseline"),
    Layer(f"{_PIPE}:OnlineAnalysisPipeline.zscores", "pipeline.zscores"),
    Layer(f"{_PIPE}:OnlineAnalysisPipeline.spectrum", "pipeline.spectrum"),
    # core.
    Layer(f"{_CORE}:IncrementalMrDMD.partial_fit", "core.partial_fit"),
    Layer(f"{_CORE}:IncrementalMrDMD.prepare_partial_fit", "core.partial_fit", count=False),
    Layer(f"{_CORE}:IncrementalMrDMD.finish_partial_fit", "core.partial_fit"),
    Layer("repro.core.isvd:IncrementalSVD.update", "core.isvd_update"),
    Layer("repro.core.batchops:ShardBatchPlanner.run", "core.isvd_batch"),
    Layer(f"{_CORE}:IncrementalMrDMD.reconstruction_error", "core.reconstruction_error"),
    Layer("repro.core.tree:MrDMDTree.reconstruct", "core.tree_reconstruct",
          on_result=_reconstruct_cols),
    Layer(f"{_CORE}:IncrementalMrDMD.refresh_deep_levels", "core.refresh_deep"),
    # core.baseline.
    Layer("repro.core.baseline:BaselineModel.from_data", "baseline.fit"),
    Layer("repro.core.baseline:BaselineModel.score", "baseline.score"),
    # service.alerts.
    Layer("repro.service.alerts:AlertEngine.evaluate", "alerts.evaluate",
          on_result=_fired),
    # service.checkpoint and io.delta.
    Layer("repro.service.checkpoint:save_checkpoint", "checkpoint.save",
          on_result=_save_info),
    Layer(f"{_MON}:FleetMonitor.flush_checkpoints", "checkpoint.flush"),
    Layer("repro.io.delta:BlockStore.put", "checkpoint.block_put", span=False,
          on_result=_block_put),
    # federation.
    Layer("repro.federation.monitor:FederatedMonitor.ingest_and_alert", "federation.round"),
    Layer("repro.federation.monitor:FederatedMonitor.ingest", "federation.round"),
    Layer("repro.federation.monitor:FederatedMonitor.rack_values", "service.rack_values"),
    Layer("repro.federation.monitor:FederatedMonitor.fleet_spectrum", "service.fleet_spectrum"),
    Layer("repro.federation.monitor:FederatedMonitor.flush_checkpoints", "checkpoint.flush"),
    Layer("repro.federation.routing:AlertRouter.route", "federation.route",
          on_result=_routed),
    Layer("repro.federation.checkpoint:save_federated_checkpoint", "federation.save"),
)

#: Metric prefixes reported for every workload, in table order.
LAYER_NAMES: tuple[str, ...] = tuple(dict.fromkeys(
    layer.name for layer in LAYERS if layer.span
))

#: Counters every traced run reports (zero when a workload never hits them).
COUNTERS: tuple[str, ...] = (
    "core.tree_reconstruct.cols",
    "pipeline.fit_baseline.cols",
    "alerts.fired",
    "alerts.routed",
    "checkpoint.bytes_written",
    "checkpoint.bytes_referenced",
    "checkpoint.shards_reused",
    "checkpoint.shards_saved",
)


@dataclass
class Span:
    """One recorded call: ``parent`` indexes the enclosing span (or -1)."""

    name: str
    start: float
    end: float
    parent: int = -1
    count: bool = True


def _resolve(target: str):
    """``"module:Owner.attr"`` -> (owner object, attribute name)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans and counters between :meth:`install` and
    :meth:`uninstall`."""

    def __init__(self, layers: tuple[Layer, ...] = LAYERS) -> None:
        self.layers = layers
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------ #
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, counts: dict[str, float]) -> None:
        with self._lock:
            for key, value in counts.items():
                self.counters[key] = self.counters.get(key, 0.0) + value

    def call(self, layer: Layer, fn: Callable, args, kwargs):
        """Run ``fn`` inside a span named after ``layer``."""
        stack = self._stack()
        parent = self.spans[stack[-1]].name if stack else None
        if not layer.span or parent == layer.name:
            # Counter-only target, or a phase of the operation the
            # enclosing span already measures: no span of its own.
            result = fn(*args, **kwargs)
        else:
            with self._lock:
                index = len(self.spans)
                self.spans.append(Span(layer.name, 0.0, 0.0,
                                       stack[-1] if stack else -1, layer.count))
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = self.spans[index]
                span.start, span.end = start, end
        if layer.on_result is not None:
            self.add(layer.on_result(args, kwargs, result, parent))
        return result

    # -- installation --------------------------------------------------- #
    def _wrap(self, layer: Layer, original):
        tracer = self
        if isinstance(original, (classmethod, staticmethod)):
            inner = self._wrap(layer, original.__func__)
            return type(original)(inner)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer.call(layer, original, args, kwargs)

        return wrapper

    def install(self) -> None:
        """Swap every target for its span-recording wrapper."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for layer in self.layers:
            owner, attr = _resolve(layer.target)
            # Read the raw attribute so classmethods stay classmethods.
            original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, original))

    def uninstall(self) -> None:
        """Put every original back (in reverse, for shared owners)."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Seconds of each span not covered by its children's intervals.

    Children of one span are normally sequential; the union of their
    (clipped) intervals is used so overlapping children never make self
    time negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, cursor), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append((span.end - span.start) - covered)
    return result


def calls_under(spans: list[Span], name: str, parents: set[str]) -> int:
    """Spans called ``name`` whose direct parent is one of ``parents``."""
    return sum(
        1 for span in spans
        if span.name == name and span.parent >= 0 and spans[span.parent].name in parents
    )


def layer_table(spans: list[Span]) -> dict[str, dict[str, float]]:
    """``{layer: {"calls", "ms", "self_ms"}}`` for every name in LAYER_NAMES
    plus the ``unattributed`` row.

    A service entry point's self time is moved to ``unattributed`` (its
    own row keeps calls and inclusive ms), so the ``self_ms`` column sums
    to the total duration of the root spans.
    """
    table = {name: {"calls": 0.0, "ms": 0.0, "self_ms": 0.0} for name in LAYER_NAMES}
    table[UNATTRIBUTED] = {"calls": 0.0, "ms": 0.0, "self_ms": 0.0}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span.name, {"calls": 0.0, "ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1.0 if span.count else 0.0
        row["ms"] += (span.end - span.start) * 1e3
        if span.name.startswith("service."):
            table[UNATTRIBUTED]["self_ms"] += own * 1e3
        else:
            row["self_ms"] += own * 1e3
    return table
