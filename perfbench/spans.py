"""In-memory span tracer installed around the library's public entry points.

The wrappers live here, in the benchmark, so the library itself carries
no instrumentation.  :func:`install` replaces each function or method in
:data:`LAYER_TARGETS` with a timing wrapper — in its defining module and
in every ``repro`` module that imported it by name — and wraps
:func:`repro.kernels.get_backend` so the kernels a backend hands out are
timed too.  :meth:`Tracer.uninstall` restores the originals.

A span records its layer, start, end, the span that was open on the same
thread when it began (its parent) and optional counts.  A layer's *self
time* is its spans' durations minus the part their child spans cover;
because children nest inside their parent on one thread, the self times
of a root span and all its descendants add up to the root's duration.
Asynchronous spans (the batcher's ``submit``) interleave on the event
loop, so they never become parents and are only summarised by duration.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``(layer, "module:qualname")`` — every public entry point timed per layer.
LAYER_TARGETS: Tuple[Tuple[str, str], ...] = (
    ("sampling.engine", "repro.sampling.engine:generate_rr_batch"),
    ("collection.build", "repro.sampling.flat_collection:FlatRRCollection.generate"),
    ("collection.build", "repro.sampling.flat_collection:FlatRRCollection.extend_generate"),
    *(
        ("collection.query", f"repro.sampling.flat_collection:FlatRRCollection.{name}")
        for name in (
            "coverage", "batch_coverage", "estimate_spreads", "marginal_coverage",
            "estimate_spread", "estimate_marginal_spread", "estimate_fraction",
            "covered_mask", "covering_ids", "sets_containing", "nodes_appearing",
        )
    ),
    *(
        ("coverage.counter", f"repro.sampling.coverage:CoverageCounter.{name}")
        for name in (
            "__init__", "sync", "add", "remove", "marginal_count",
            "estimate_marginal_spread", "estimate_spread",
        )
    ),
    ("core.estimation", "repro.core.estimation:FrontRearEstimator.estimates"),
    ("core.decision", "repro.core.hatp:HATP.run"),
    ("core.decision", "repro.core.addatp:ADDATP.run"),
    ("core.decision", "repro.core.hntp:HNTP.select"),
    ("core.session", "repro.core.session:AdaptiveSession.commit_seed"),
    ("core.session", "repro.core.session:AdaptiveSession.evaluate_nonadaptive"),
    ("core.targets", "repro.core.targets:build_spread_calibrated_instance"),
    ("baselines", "repro.baselines.nsg:NSG.select"),
    ("baselines", "repro.baselines.ndg:NDG.select"),
    ("baselines", "repro.baselines.random_set:RandomSet.select"),
    ("baselines", "repro.baselines.random_set:AdaptiveRandomSet.run"),
    ("baselines", "repro.baselines.imm:greedy_max_coverage"),
    ("baselines", "repro.baselines.imm:top_k_influential"),
    ("diffusion.mc", "repro.diffusion.spread:monte_carlo_spread"),
    ("diffusion.mc", "repro.diffusion.spread:monte_carlo_spread_samples"),
    ("diffusion.mc", "repro.diffusion.mc_engine:simulate_ic_batch"),
    ("diffusion.mc", "repro.diffusion.mc_engine:replay_live_edges"),
    ("diffusion.mc", "repro.diffusion.realization:batch_realization_spreads"),
    ("diffusion.realizations", "repro.diffusion.realization:Realization.sample"),
    ("diffusion.realizations", "repro.diffusion.realization:BaseRealization.activated_by"),
    ("diffusion.realizations", "repro.diffusion.realization:BaseRealization.spread"),
    ("diffusion.realizations", "repro.diffusion.realization:sample_realizations"),
    ("graphs", "repro.graphs.datasets:load_proxy"),
    ("runner", "repro.experiments.runner:evaluate_suite"),
    ("runner", "repro.experiments.runner:evaluate_adaptive"),
    ("runner", "repro.experiments.runner:evaluate_nonadaptive"),
    ("runner", "repro.experiments.profit_experiments:reproduce_figure2"),
    ("runner", "repro.experiments.profit_experiments:profit_series"),
    ("runner", "repro.experiments.profit_experiments:sweep_target_sizes"),
    ("service.state", "repro.service.state:ServiceState.execute_batch"),
    ("service.cache", "repro.service.state:ServiceState.try_cached"),
    ("service.batcher", "repro.service.batcher:RequestBatcher.submit"),
)

#: Kernel entry points of a backend and the layer each is timed under.
KERNEL_LAYERS = {
    "generate_batch": "kernels.generate",
    "simulate_batch": "kernels.simulate",
    "replay_batch": "kernels.replay",
}


@dataclasses.dataclass
class Span:
    ident: int
    parent: Optional[int]
    layer: str
    start: float
    end: float = 0.0
    counts: Optional[Dict[str, float]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; :meth:`dump` returns them at the end."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)  # next() is atomic under the GIL
        self._restore: List[Tuple[Any, str, Any]] = []
        self._kernel_cache: Dict[str, Any] = {}
        #: Callbacks by layer, called with ``(args, result, span)``.
        self.observers: Dict[str, Callable] = {}

    # -- recording ------------------------------------------------------ #

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, layer: str, nested: bool) -> Span:
        ident = next(self._ids)
        stack = self._stack()
        span = Span(ident, stack[-1] if (stack and nested) else None, layer, 0.0)
        if nested:
            stack.append(ident)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span, nested: bool) -> None:
        span.end = time.perf_counter()
        if nested:
            self._stack().pop()
        self.spans.append(span)

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """A timing wrapper of ``fn`` recording one span per call."""
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                span = self._open(layer, nested=False)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    self._close(span, nested=False)
                observer = self.observers.get(layer)
                if observer is not None:
                    observer(args, result, span)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(layer, nested=True)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span, nested=True)
            observer = self.observers.get(layer)
            if observer is not None:
                observer(args, result, span)
            return result

        return wrapper

    # -- installation --------------------------------------------------- #

    def _replace(self, owner: Any, name: str, value: Any) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _install_function(self, layer: str, module_name: str, name: str) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, name)
        wrapped = self.wrap(layer, original)
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").startswith("repro") and (
                other.__dict__.get(name) is original
            ):
                self._replace(other, name, wrapped)

    def _install_method(self, layer: str, module_name: str, cls_name: str, name: str) -> None:
        cls = getattr(importlib.import_module(module_name), cls_name)
        raw = cls.__dict__[name]  # KeyError: the method is inherited, wrap its owner
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(layer, raw.__func__))
        else:
            wrapped = self.wrap(layer, raw)
        self._replace(cls, name, wrapped)

    def _timed_backend(self, backend: Any) -> Any:
        timed = self._kernel_cache.get(backend.name)
        if timed is None:
            timed = dataclasses.replace(
                backend,
                **{
                    attr: self.wrap(layer, getattr(backend, attr))
                    for attr, layer in KERNEL_LAYERS.items()
                },
            )
            self._kernel_cache[backend.name] = timed
        return timed

    def install(self) -> "Tracer":
        """Wrap every target of :data:`LAYER_TARGETS` and the kernel registry."""
        # Import every target module first, so that each by-name import of
        # a wrapped function exists by the time the module scan runs.
        for _, target in LAYER_TARGETS:
            importlib.import_module(target.split(":")[0])
        for layer, target in LAYER_TARGETS:
            module_name, qualname = target.split(":")
            if "." in qualname:
                cls_name, name = qualname.split(".")
                self._install_method(layer, module_name, cls_name, name)
            else:
                self._install_function(layer, module_name, qualname)
        import repro.kernels

        original = repro.kernels.get_backend

        @functools.wraps(original)
        def get_backend(*args, **kwargs):
            return self._timed_backend(original(*args, **kwargs))

        self._replace(repro.kernels, "get_backend", get_backend)
        self.observers.setdefault("kernels.generate", _count_rr_batch)
        return self

    def uninstall(self) -> None:
        """Restore every replaced attribute (reverse order)."""
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)

    # -- export --------------------------------------------------------- #

    def dump(self) -> List[Dict[str, Any]]:
        return [dataclasses.asdict(span) for span in self.spans]


def _count_rr_batch(args, batch, span: Span) -> None:
    span.counts = {
        "rr_sets": float(len(batch)),
        "rr_members": float(batch.nodes.size),
        "rr_bytes": float(batch.nodes.size * batch.nodes.itemsize),
    }


# --------------------------------------------------------------------- #
# analysis
# --------------------------------------------------------------------- #


def spans_from_dump(rows: List[Dict[str, Any]]) -> List[Span]:
    return [Span(**row) for row in rows]


def within(spans: List[Span], layers: Tuple[str, ...]) -> List[Span]:
    """The spans whose outermost ancestor belongs to one of ``layers``.

    These are the spans inside the timed unit of work: calls the benchmark
    makes around it (drawing a realization, checking an answer) open root
    spans of their own and are left out.
    """
    by_id = {span.ident: span for span in spans}
    roots: Dict[int, Span] = {}

    def root(span: Span) -> Span:
        found = roots.get(span.ident)
        if found is None:
            parent = by_id.get(span.parent) if span.parent is not None else None
            found = span if parent is None else root(parent)
            roots[span.ident] = found
        return found

    return [span for span in spans if root(span).layer in layers]


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Self time of every span: its duration minus its children's."""
    child_time: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    return {span.ident: span.duration - child_time[span.ident] for span in spans}


class LayerSummary:
    """Per-layer totals over a set of spans."""

    def __init__(self, spans: List[Span]) -> None:
        own = self_times(spans)
        by_id = {span.ident: span for span in spans}
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.outer_calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        for span in spans:
            self.self_s[span.layer] += own[span.ident]
            self.calls[span.layer] += 1
            self.durations[span.layer].append(span.duration)
            parent = by_id.get(span.parent) if span.parent is not None else None
            if parent is None or parent.layer != span.layer:
                self.total_s[span.layer] += span.duration
                self.outer_calls[span.layer] += 1
            for key, value in (span.counts or {}).items():
                self.counts[key] += value
