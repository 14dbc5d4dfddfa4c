"""The adaptive round engine behind every Monte-Carlo fan-out.

Two workloads share one shape: a batch of independent *tasks* (grid
cells of :mod:`repro.continuum.montecarlo`, randomized estimates of
:mod:`repro.stats.fanout`), each consuming a seeded random stream in
*rounds* until a stopping rule or a budget cap says enough.  This module
runs that shape once; a :class:`RoundKind` supplies only what differs
per task kind — identities, a round runner, a fold, a stop rule and a
finish.  The engine owns:

* **identity → stream** — a task's ``SeedSequence`` entropy is
  :func:`task_entropy` of its content-addressed identity, and stream
  index ``i`` (a replication or a round, the kind decides) draws from
  :func:`stream_rng`.  Streams never depend on a task's position in the
  batch, so identical tasks in different sweeps produce identical draws;
* **caching** — each task's result is stored under its kind-derived key
  in an :class:`~repro.pipeline.cache.ArtifactCache`; a hit skips every
  round of that task;
* **dispatch** — one shared queue of ``(task, start, count)`` rounds,
  drained serially or by a ``ProcessPoolExecutor`` whose workers take
  whatever round is next.  Fixed sweeps enqueue the whole plan upfront,
  round-major; adaptive sweeps keep exactly one round outstanding per
  task and enqueue the next only after its predecessor folded and the
  stop rule said continue;
* **telemetry and the ledger** — the sweep span, the ``<prefix>.*``
  counters, the ``<span>.finish`` log event, and one
  :func:`~repro.obs.build_sweep_record` entry per sweep.

Determinism contract
--------------------
Rounds that complete out of order wait in a per-task buffer until every
predecessor has folded, so each task folds a prefix of its stream in
stream order no matter which worker ran which round or in what order the
queue was drained (``steal_seed`` shuffles it to prove that).  Stop rules
run only at fully-folded round boundaries, on state that is therefore
bit-identical across execution placements; results are identical across
worker counts, steal orders and the serial path, and an adaptive task
that stops early has folded exactly the first rounds of the capped run.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Protocol, Sequence

import numpy as np

from repro.telemetry import ensure

__all__ = [
    "SweepNames",
    "Runner",
    "RoundKind",
    "ci_half_width",
    "task_entropy",
    "stream_rng",
    "run_rounds",
]

#: Normal-approximation z of a two-sided 95% confidence interval.
_CI_Z = 1.959963984540054


def ci_half_width(std: float, count: int) -> float:
    """The normal-approximation 95% confidence half-width of a mean."""
    return _CI_Z * std / math.sqrt(count)


def task_entropy(identity: Mapping[str, Any]) -> int:
    """The ``SeedSequence`` entropy word a task's streams derive from.

    Content-addressed: it depends only on the task's own identity, never
    on its position in a sweep, so cache hits are sound.
    """
    from repro.pipeline.cache import stable_digest

    return int(stable_digest(identity)[:32], 16)


def stream_rng(entropy: int, index: int) -> np.random.Generator:
    """The dedicated generator for stream index *index* of a task."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy, spawn_key=(index,))
    )


@dataclass(frozen=True)
class SweepNames:
    """How a task kind names its telemetry and ledger output.

    The span is ``span`` (its log event ``<span>.finish``); counters are
    ``<prefix>.<units>``, ``<prefix>.<items>_computed``,
    ``<prefix>.<items>_cached``, ``<prefix>.rounds`` and
    ``<prefix>.<units>_saved``; the ledger record kind is ``record``.
    """

    span: str
    prefix: str
    items: str
    units: str
    record: str


def _no_init() -> None:
    pass


@dataclass(frozen=True)
class Runner:
    """How one round runs: ``fn((slot, start, count)) -> partial``.

    ``init(*initargs)`` prepares a process before its first round — each
    pool worker, or the parent on the serial path.  A kind that runs on a
    process pool gives module-level (picklable) ``fn`` and ``init``.
    """

    fn: Callable[[tuple[int, int, int]], Any]
    init: Callable[..., None] = _no_init
    initargs: tuple = ()


class RoundKind(Protocol):
    """One task kind's part of an adaptive sweep.

    ``slot`` below is a task's position among the tasks this call
    computes (cache misses), in sweep order.
    """

    names: SweepNames
    #: Result class built from ``cells``/``computed``/``cached``/
    #: ``n_replications_run``/``n_replications_budget``.
    result_type: type
    adaptive: bool
    #: Stream units (replications, draws) per task, and per round.
    cap: int
    round_size: int
    #: String-valued fields of the ledger record's ``meta``.
    meta: dict[str, Any]

    def identities(self) -> Sequence[Mapping[str, Any]]:
        """Per task, in sweep order: what pins its streams."""

    def cache_key(self, identity: Mapping[str, Any]) -> str:
        """The task's cache key: its identity plus the sizing plan."""

    def decode(self, payload: Any) -> Any:
        """A cell (with ``cell_id``/``to_dict``) from its cached payload."""

    def setup(self, misses: Sequence[int], entropies: Sequence[int],
              tel: Any) -> tuple[Runner, list[Any]]:
        """Prepare the tasks at indices *misses*: a runner plus one empty
        fold state per slot."""

    def fold(self, state: Any, partial: Any) -> None:
        """Fold one round's partial into *state*."""

    def stop(self, state: Any, folded: int) -> bool:
        """The adaptive stopping rule, asked at round boundaries only."""

    def finish(self, slot: int, state: Any, folded: int) -> Any:
        """The cell for *slot* after *folded* stream units."""


def run_rounds(
    kind: RoundKind,
    *,
    workers: int | None = None,
    cache=None,
    telemetry=None,
    registry=None,
    steal_seed: int | None = None,
) -> Any:
    """Run every task of *kind*: cached, dispatched, counted, recorded.

    ``workers`` is the process-pool size (``0``/``1`` run serially);
    ``None`` marks a serial-only kind and leaves ``workers`` out of the
    span tags.
    """
    tel = ensure(telemetry)
    identities = kind.identities()
    names = kind.names
    tags: dict[str, Any] = {names.items: len(identities), names.units: kind.cap}
    if workers is not None:
        tags["workers"] = workers
    tags["adaptive"] = kind.adaptive
    with tel.tracer.span(names.span, **tags) as span:
        result = _run(
            kind, identities, workers or 0, cache, tel, registry, steal_seed
        )
        span.tags.update(
            computed=len(result.computed), cached=len(result.cached)
        )
        tel.log.info(
            f"{names.span}.finish",
            **{
                names.items: len(result.cells),
                "computed": len(result.computed),
                "cached": len(result.cached),
                f"{names.units}_run": result.n_replications_run,
            },
        )
    return result


def _run(kind: RoundKind, identities: Sequence[Mapping[str, Any]],
         workers: int, cache, tel, registry, steal_seed: int | None) -> Any:
    from repro.pipeline.cache import stable_digest

    keys = [kind.cache_key(identity) for identity in identities]
    cells: list[Any] = [None] * len(keys)
    cached_ids: list[str] = []
    misses: list[int] = []
    for index, key in enumerate(keys):
        payload = cache.get(key) if cache is not None else None
        if payload is not None:
            cells[index] = kind.decode(payload)
            cached_ids.append(cells[index].cell_id)
        else:
            misses.append(index)

    run = rounds = 0
    if misses:
        runner, states = kind.setup(
            misses, [task_entropy(identities[i]) for i in misses], tel
        )
        folded, rounds = _dispatch(kind, runner, states, workers, steal_seed)
        for slot, index in enumerate(misses):
            cell = kind.finish(slot, states[slot], folded[slot])
            cells[index] = cell
            run += folded[slot]
            if cache is not None:
                cache.store(keys[index], cell.to_dict())

    result = kind.result_type(
        cells=tuple(cells),
        computed=tuple(cells[index].cell_id for index in misses),
        cached=tuple(cached_ids),
        n_replications_run=run,
        n_replications_budget=kind.cap * len(misses),
    )
    names = kind.names
    counter = tel.metrics.counter
    counter(f"{names.prefix}.{names.units}").inc(run)
    counter(f"{names.prefix}.{names.items}_computed").inc(len(misses))
    counter(f"{names.prefix}.{names.items}_cached").inc(len(cached_ids))
    if misses:
        counter(f"{names.prefix}.rounds").inc(rounds)
    if kind.adaptive:
        counter(f"{names.prefix}.{names.units}_saved").inc(
            result.n_replications_saved
        )
    if registry is not None:
        from repro.obs import build_sweep_record

        registry.record(
            build_sweep_record(
                result,
                telemetry=tel if tel.enabled else None,
                config_digest=stable_digest(sorted(keys)),
                kind=names.record,
                meta=kind.meta,
            )
        )
    return result


def _dispatch(
    kind: RoundKind,
    runner: Runner,
    states: list[Any],
    workers: int,
    steal_seed: int | None,
) -> tuple[list[int], int]:
    """Drain every task's rounds through one shared work-stealing queue.

    Returns the stream units folded per slot and the rounds executed.
    """
    cap, size = kind.cap, kind.round_size
    n = len(states)
    pending: deque[tuple[int, int, int]] = deque(
        (slot, 0, min(size, cap)) for slot in range(n)
    ) if kind.adaptive else deque(
        (slot, start, min(size, cap - start))
        for start in range(0, cap, size)
        for slot in range(n)
    )
    folded = [0] * n
    buffers: list[dict[int, tuple[int, Any]]] = [{} for _ in range(n)]
    steal_rng = (
        np.random.default_rng(steal_seed) if steal_seed is not None else None
    )
    rounds = 0

    def receive(item: tuple[int, int, int], partial: Any) -> None:
        nonlocal rounds
        slot, start, count = item
        buffer = buffers[slot]
        buffer[start] = (count, partial)
        while folded[slot] in buffer:
            count, partial = buffer.pop(folded[slot])
            kind.fold(states[slot], partial)
            folded[slot] += count
            rounds += 1
            if (kind.adaptive and folded[slot] < cap
                    and not kind.stop(states[slot], folded[slot])):
                pending.append(
                    (slot, folded[slot], min(size, cap - folded[slot]))
                )

    def take() -> tuple[int, int, int]:
        if steal_rng is None or len(pending) == 1:
            return pending.popleft()
        index = int(steal_rng.integers(len(pending)))
        item = pending[index]
        del pending[index]
        return item

    if workers > 1:
        in_flight: dict[Any, tuple[int, int, int]] = {}
        limit = workers * 2
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=runner.init,
            initargs=runner.initargs,
        ) as pool:
            while pending or in_flight:
                while pending and len(in_flight) < limit:
                    item = take()
                    in_flight[pool.submit(runner.fn, item)] = item
                finished, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                for future in finished:
                    receive(in_flight.pop(future), future.result())
    else:
        runner.init(*runner.initargs)
        while pending:
            item = take()
            receive(item, runner.fn(item))
    return folded, rounds
