"""Span tracing installed from outside the program under test.

The traced run wraps the public entry point of each repository layer
(:data:`LAYERS`) in place: every module binding and class attribute that
holds the original callable is swapped for a wrapper that records a span
and put back afterwards, so no source file changes.  A function imported
by name into several modules (``agglomerative_cluster_1d`` lives in
``core.agglomerative``, ``core.tensor_dictionary`` and
``core.golden_dictionary``) is therefore traced wherever it is called.

Spans stay in memory until :func:`attribute` turns them into per-layer
self times.  A span's self time is its duration minus the time its child
spans cover.  When spans of several threads are open at once (the
campaign sweep's thread pool), each instant is split evenly over the
innermost open span of every thread, leaving out a span while one of its
descendants runs elsewhere: it is only waiting.  The attributed times
therefore sum exactly to the time the requests' root spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import threading
import time
import types
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

Work = Optional[Callable[[tuple, dict, Any], int]]


def _pairs(result: Any) -> int:
    """Operand pairs of one engine result (tuple, result object or list)."""
    if isinstance(result, list):
        return sum(_pairs(item) for item in result)
    stats = result[1] if isinstance(result, tuple) else result.stats
    return int(stats.total_pairs)


def _values(args: tuple, kwargs: dict, result: Any) -> int:
    values = args[0] if args else kwargs["values"]
    return int(getattr(values, "size", len(values)))


#: (span name, "module" or "module:Class", attribute, work counter).  The
#: span names are the layer names the per-layer metrics use.
LAYERS: Tuple[Tuple[str, str, str, Work], ...] = (
    ("golden", "repro.core.golden_dictionary", "generate_golden_dictionary", None),
    ("cluster", "repro.core.agglomerative", "agglomerative_cluster_1d", _values),
    ("quantizer.fit", "repro.core.quantizer:MokeyQuantizer", "fit_dictionary", None),
    ("quantizer.fit", "repro.core.quantizer:MokeyQuantizer", "fit_dictionary_from_stats", None),
    ("quantizer.encode", "repro.core.quantizer:MokeyQuantizer", "quantize", None),
    ("engine", "repro.core.index_compute", "index_domain_matmul_many",
     lambda a, k, r: _pairs(r)),
    ("engine", "repro.core.index_compute:IndexDomainEngine", "matmul",
     lambda a, k, r: _pairs(r)),
    ("engine", "repro.core.index_compute:VectorizedIndexDomainEngine", "matmul",
     lambda a, k, r: _pairs(r)),
    ("executor.forward", "repro.transformer.index_model:IndexDomainModelExecutor",
     "forward", None),
    ("executor.forward", "repro.transformer.index_model", "execute_decoder", None),
    ("simulator", "repro.accelerator.simulator:AcceleratorSimulator", "simulate", None),
    ("campaign", "repro.experiments.spec", "run_spec", lambda a, k, r: len(r)),
    ("store.put", "repro.experiments.store:ArtifactStore", "put", None),
    ("store.get", "repro.experiments.store:ArtifactStore", "get", None),
    ("store.query", "repro.experiments.store:ArtifactStore", "query", None),
    ("store.records", "repro.experiments.store:ArtifactStore", "records", None),
    ("store.put", "repro.experiments.store_sqlite:SqliteStoreBackend", "put", None),
    ("store.get", "repro.experiments.store_sqlite:SqliteStoreBackend", "get", None),
    ("store.query", "repro.experiments.store_sqlite:SqliteStoreBackend", "query", None),
    ("store.records", "repro.experiments.store_sqlite:SqliteStoreBackend", "records", None),
    ("serving", "repro.serving.spec", "run_serving", None),
    ("replay", "repro.serving.replay", "replay_trace",
     lambda a, k, r: int(r.metrics.requests)),
    ("service.submit", "repro.service.client:ServiceClient", "submit", None),
    ("service.wait", "repro.service.client:ServiceClient", "wait", None),
    ("service.http", "repro.service.client:ServiceClient", "_request", None),
)

#: Name of the root span of every operation and of every set-up; its self
#: time is the benchmark's own code plus program code outside any layer.
ROOT = "client"


class Span:
    __slots__ = ("name", "start", "end", "thread", "parent", "request", "work", "nested")

    def __init__(self, name: str, thread: int, parent: Optional["Span"],
                 request: Any, nested: bool) -> None:
        self.name = name
        self.thread = thread
        self.parent = parent
        self.request = request
        self.nested = nested
        self.work = 0
        self.start = self.end = 0.0


class Tracer:
    """Records spans around the wrapped layer entry points."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._root_stack: List[Span] = []
        self._request: Any = None
        self._bindings: Optional[List[Tuple[Any, str, Any, Any]]] = None
        self._installed = False

    # -- recording -------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        # A span opened on a pool thread hangs under whatever the thread
        # that opened the operation is doing.
        parents = stack or self._root_stack
        span = Span(
            name,
            threading.get_ident(),
            parents[-1] if parents else None,
            self._request,
            any(open_span.name == name for open_span in stack),
        )
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def call(self, name: str, work: Work, fn: Callable, args: tuple, kwargs: dict) -> Any:
        span = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(span)
        if work is not None and not span.nested:
            span.work = work(args, kwargs, result)
        if isinstance(result, types.GeneratorType):
            return self._iterate(name, result)
        return result

    def _iterate(self, name: str, generator: Any) -> Any:
        """Lazy results (store records) are traced one ``next`` at a time."""
        while True:
            span = self._open(name)
            try:
                item = next(generator)
            except StopIteration:
                return
            finally:
                self._close(span)
            yield item

    @contextlib.contextmanager
    def operation(self, request: Any) -> Iterator[Span]:
        """Root span of one timed request (or one set-up) on this thread,
        with the layer wrappers installed for its duration."""
        self._request = request
        self._root_stack = self._stack()
        self.install()
        span = self._open(ROOT)
        try:
            yield span
        finally:
            self._close(span)
            self.uninstall()
            self._root_stack = []
            self._request = None

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Swap every binding of every :data:`LAYERS` callable for a wrapper.

        The bindings are found once, on the first install, after the
        workload's set-up has imported every module it calls into.
        """
        if self._bindings is None:
            self._bindings = self._find_bindings()
        for owner, attribute, _original, wrapper in self._bindings:
            setattr(owner, attribute, wrapper)
        self._installed = True

    def _find_bindings(self) -> List[Tuple[Any, str, Any, Any]]:
        bindings = []
        for name, owner_path, attribute, work in LAYERS:
            module_name, _, class_name = owner_path.partition(":")
            module = importlib.import_module(module_name)
            if class_name:
                owner = getattr(module, class_name)
                original = owner.__dict__[attribute]
                bindings.append(
                    (owner, attribute, original, self._wrapper(name, work, original))
                )
                continue
            original = getattr(module, attribute)
            wrapper = self._wrapper(name, work, original)
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__dict__", {}).get(attribute) is original:
                    bindings.append((loaded, attribute, original, wrapper))
        return bindings

    def _wrapper(self, name: str, work: Work, original: Callable) -> Callable:
        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, work, original, args, kwargs)

        return traced

    def uninstall(self) -> None:
        if self._installed:
            for owner, attribute, original, _wrapper in self._bindings:
                setattr(owner, attribute, original)
            self._installed = False


class LayerTotals:
    """Per-layer calls, work and attributed self seconds over some spans."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.work: Dict[str, int] = defaultdict(int)
        self.seconds: Dict[str, float] = defaultdict(float)
        self.spans = 0


def attribute(spans: List[Span], select: Callable[[Any], bool]) -> LayerTotals:
    """Calls, work and exclusive self time per span name, for the spans
    whose request satisfies ``select``."""
    chosen = [span for span in spans if select(span.request)]
    totals = LayerTotals()
    totals.spans = len(chosen)
    for span in chosen:
        if not span.nested:
            totals.calls[span.name] += 1
            totals.work[span.name] += span.work
    # At equal times a span opens before it closes (zero-length spans).
    events = sorted(
        [(span.start, 0, index) for index, span in enumerate(chosen)]
        + [(span.end, 1, index) for index, span in enumerate(chosen)]
    )
    stacks: Dict[int, List[int]] = defaultdict(list)
    previous = None
    for moment, closing, index in events:
        if previous is not None and moment > previous:
            leaves = [stack[-1] for stack in stacks.values() if stack]
            if len(leaves) > 1:
                leaves = _running(chosen, leaves)
            share = (moment - previous) / len(leaves) if leaves else 0.0
            for leaf in leaves:
                totals.seconds[chosen[leaf].name] += share
        previous = moment
        stack = stacks[chosen[index].thread]
        if closing:
            stack.remove(index)
        else:
            stack.append(index)
    return totals


def _running(chosen: List[Span], leaves: List[int]) -> List[int]:
    """Drop the leaves that are waiting on a descendant open elsewhere."""
    waiting = set()
    for leaf in leaves:
        parent = chosen[leaf].parent
        while parent is not None:
            waiting.add(id(parent))
            parent = parent.parent
    return [leaf for leaf in leaves if id(chosen[leaf]) not in waiting]
