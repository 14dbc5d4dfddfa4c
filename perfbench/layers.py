"""Per-layer timing for the traced benchmark run.

The traced run wraps the public entry points of each layer in timing
shims, installed by :func:`tracing` for the duration of a ``with`` block
and removed on exit.  Untraced runs never enter :func:`tracing`, so no
shim sits in any timed region that produces an end-to-end metric.

A shim adds the wall time of each call to a named total in a
:class:`LayerTrace`.  Self time of a layer is then its total minus the
totals of the layers it calls, which the benchmark computes where it
reports the metric (for example dedup blocking = dedup - scoring -
merge).

Layers, named after the modules they live in:

* ``corpus.bibtex.parse`` - ``iter_publications_from_bibtex``, timed per
  record it yields while the store's ingest consumes it;
* ``corpus.store.<method>`` - ``CorpusStore.extend``, ``search``,
  ``by_year``, ``by_venue`` and ``stats``;
* ``corpus.dedup``, ``.scoring``, ``.merge`` - ``CorpusStore.deduplicate``,
  ``pair_similarity`` and ``merge_cluster`` as the store calls them;
* ``continuum.compile`` / ``continuum.scheduling`` - ``compile_problem``
  and every scheduler's ``schedule``, as the sweep driver calls them;
* ``mc.fold`` - ``CellAggregate.add`` in the sweep's parent process;
* ``serve.dispatch.<study|corpus|other>`` - ``ServeApp.dispatch``, split
  by the request path;
* ``pipeline.cache.hit`` / ``.miss`` - ``ArtifactCache.get`` outcomes.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

_MARK = "__perfbench_layer__"


class LayerTrace:
    """Named wall-time totals and call counts, safe across threads."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()

    def add(self, name: str, elapsed: float) -> None:
        with self._lock:
            self.seconds[name] += elapsed
            self.calls[name] += 1

    def total(self, name: str) -> float:
        return self.seconds.get(name, 0.0)

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)

    def to_dict(self) -> dict[str, Any]:
        with self._lock:
            return {"seconds": dict(self.seconds), "calls": dict(self.calls)}


def _timed(trace: LayerTrace, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def shim(*args: Any, **kwargs: Any) -> Any:
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            trace.add(name, time.perf_counter() - started)

    return shim


def _timed_iter(trace: LayerTrace, name: str, fn: Callable) -> Callable:
    """Time a generator function by the work done inside each ``next``."""

    @functools.wraps(fn)
    def shim(*args: Any, **kwargs: Any) -> Iterator[Any]:
        inner = fn(*args, **kwargs)
        while True:
            started = time.perf_counter()
            try:
                item = next(inner)
            except StopIteration:
                trace.add(name, time.perf_counter() - started)
                return
            trace.add(name, time.perf_counter() - started)
            yield item

    return shim


def _timed_dispatch(trace: LayerTrace, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def shim(self: Any, method: str, target: str, body: Any) -> Any:
        started = time.perf_counter()
        try:
            return fn(self, method, target, body)
        finally:
            kind = target.split("/", 2)[1] if target.count("/") >= 2 else ""
            kind = kind if kind in ("study", "corpus") else "other"
            trace.add(f"serve.dispatch.{kind}", time.perf_counter() - started)

    return shim


def _counted_cache_get(trace: LayerTrace, fn: Callable) -> Callable:
    miss = object()

    @functools.wraps(fn)
    def shim(self: Any, key: str, default: Any = None) -> Any:
        value = fn(self, key, miss)
        trace.add("pipeline.cache.miss" if value is miss else
                  "pipeline.cache.hit", 0.0)
        return default if value is miss else value

    return shim


class TimedLock:
    """A ``threading.Lock`` stand-in that times how long acquiring waits."""

    def __init__(self, trace: LayerTrace, name: str) -> None:
        self._lock = threading.Lock()
        self._trace = trace
        self._name = name

    def __enter__(self) -> "TimedLock":
        started = time.perf_counter()
        self._lock.acquire()
        self._trace.add(self._name, time.perf_counter() - started)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._lock.release()


def _targets(trace: LayerTrace) -> list[tuple[Any, str, Callable]]:
    """(owner, attribute, shim factory) for every timed entry point."""
    import repro.continuum.montecarlo as montecarlo
    import repro.corpus.store as store
    from repro.continuum.scheduling import (
        EnergyAwareScheduler,
        HeftScheduler,
        RoundRobinScheduler,
    )
    from repro.pipeline.cache import ArtifactCache
    from repro.serve.app import ServeApp

    def timed(name: str) -> Callable:
        return lambda fn: _timed(trace, name, fn)

    targets: list[tuple[Any, str, Callable]] = [
        (store, "iter_publications_from_bibtex",
         lambda fn: _timed_iter(trace, "corpus.bibtex.parse", fn)),
        (store, "pair_similarity", timed("corpus.dedup.scoring")),
        (store, "merge_cluster", timed("corpus.dedup.merge")),
        (store.CorpusStore, "deduplicate", timed("corpus.dedup")),
        (montecarlo, "compile_problem", timed("continuum.compile")),
        (montecarlo.CellAggregate, "add", timed("mc.fold")),
        (ServeApp, "dispatch", lambda fn: _timed_dispatch(trace, fn)),
        (ArtifactCache, "get", lambda fn: _counted_cache_get(trace, fn)),
    ]
    for method in ("extend", "search", "by_year", "by_venue", "stats"):
        targets.append(
            (store.CorpusStore, method, timed(f"corpus.store.{method}"))
        )
    for scheduler in (HeftScheduler, EnergyAwareScheduler,
                      RoundRobinScheduler):
        targets.append(
            (scheduler, "schedule", timed("continuum.scheduling"))
        )
    return targets


def wrapped_targets() -> list[str]:
    """``owner.attribute`` of every entry point currently shimmed."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attribute}"
        for owner, attribute, _ in _targets(LayerTrace())
        if getattr(getattr(owner, attribute), _MARK, False)
    ]


@contextmanager
def tracing(trace: LayerTrace) -> Iterator[LayerTrace]:
    """Shim every layer entry point into *trace*; restore them on exit."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for owner, attribute, factory in _targets(trace):
            original = owner.__dict__[attribute]
            shim = factory(original)
            setattr(shim, _MARK, True)
            saved.append((owner, attribute, original))
            setattr(owner, attribute, shim)
        yield trace
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
