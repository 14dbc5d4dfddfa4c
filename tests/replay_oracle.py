"""Object-keyed replay oracles for the integer-id simulator kernels.

The production simulators run on integer ids over a
:class:`~repro.continuum.compile.CompiledProblem`.  This module keeps the
original string-keyed loops they replaced, verbatim, as the parity
oracle the test suite (and the Monte-Carlo benchmark's naive side)
compares them against:

* :class:`_FailureClock` and :func:`_replay` — the per-event failure
  replay that :func:`repro.continuum.failures.simulate_with_failures`
  must reproduce bit-for-bit, counters and ``sim.failure`` events
  included;
* :func:`_simulate_reference` — the event loop that
  :func:`repro.continuum.simulate.simulate_schedule` must reproduce.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.continuum.failures import FailureTrace
from repro.continuum.resources import Continuum
from repro.continuum.scheduling import Schedule, TaskPlacement
from repro.continuum.simulate import ExecutionTrace
from repro.continuum.workflow import Workflow
from repro.errors import ContinuumError

__all__ = ["_FailureClock", "_replay", "_simulate_reference"]


class _FailureClock:
    """Per-resource Poisson failure process, sampled lazily."""

    def __init__(self, keys, mtbf: float, rng: np.random.Generator) -> None:
        self._mtbf = mtbf
        self._rng = rng
        self._next: dict[str, float] = {
            key: float(rng.exponential(mtbf)) for key in keys
        }
        #: Failures that fired (harmless idle reboots included) — the
        #: ``sim.failures_injected`` counter.
        self.consumed = 0

    def next_failure(self, resource: str) -> float:
        return self._next[resource]

    def consume(self, resource: str) -> None:
        """The pending failure happened; sample the next one."""
        self.consumed += 1
        self._next[resource] += float(self._rng.exponential(self._mtbf))

    def advance_past(self, resource: str, time: float) -> None:
        """Discard failures that elapsed while the resource was idle.

        A failure of an idle node is modelled as harmless (it reboots with
        nothing to lose), so pending failure times strictly before *time*
        are skipped.
        """
        while self._next[resource] < time:
            self.consume(resource)


def _replay(
    schedule: Schedule,
    mtbf: float,
    repair_time: float,
    policy: str,
    rng: np.random.Generator,
    max_attempts: int,
    tel,
) -> tuple[FailureTrace, int, int]:
    """The replay loop; returns (trace, failures fired, attempts started)."""
    workflow = schedule.workflow
    continuum: Continuum = schedule.continuum
    clock = _FailureClock(continuum.keys, mtbf, rng)

    resource_free: dict[str, float] = {key: 0.0 for key in continuum.keys}
    finished: dict[str, TaskPlacement] = {}
    n_failures = 0
    n_migrations = 0
    lost_work = 0.0
    attempts_started = 0

    def data_ready(task_key: str, on_resource: str) -> float:
        ready = 0.0
        for pred in workflow.predecessors(task_key):
            placement = finished[pred]
            arrival = placement.finish + continuum.transfer_time(
                workflow[pred].output_size, placement.resource, on_resource
            )
            ready = max(ready, arrival)
        return ready

    # Replay in the plan's global start order restricted to a valid
    # topological order (the plan's start order IS topological: a schedule
    # validates that successors start after predecessors finish).
    order = [p.task for p in schedule.placements]

    for task_key in order:
        task = workflow[task_key]
        resource_key = schedule[task_key].resource
        attempts = 0
        while True:
            if attempts >= max_attempts:
                raise ContinuumError(
                    f"task {task_key!r} failed {attempts} times; "
                    f"mtbf={mtbf} is too small for its duration"
                )
            attempts_started += 1
            resource = continuum[resource_key]
            duration = resource.execution_time(task.work)
            start = max(
                resource_free[resource_key],
                data_ready(task_key, resource_key),
            )
            clock.advance_past(resource_key, start)
            failure = clock.next_failure(resource_key)
            if failure >= start + duration:
                finish = start + duration
                resource_free[resource_key] = finish
                finished[task_key] = TaskPlacement(
                    task_key, resource_key, start, finish
                )
                break
            # The attempt dies at the failure instant.
            attempts += 1
            n_failures += 1
            lost_work += failure - start
            clock.consume(resource_key)
            resource_free[resource_key] = failure + repair_time
            if tel.enabled:
                tel.log.debug(
                    "sim.failure",
                    task=task_key,
                    resource=resource_key,
                    at=failure,
                    lost=failure - start,
                    attempt=attempts,
                    policy=policy,
                )
            if policy == "migrate":
                # Earliest-finish feasible resource for the retry.
                candidates = []
                for other in continuum:
                    if not other.supports(task.requirements):
                        continue
                    retry_start = max(
                        resource_free[other.key],
                        data_ready(task_key, other.key),
                    )
                    retry_finish = retry_start + other.execution_time(task.work)
                    candidates.append((retry_finish, other.key))
                if not candidates:  # pragma: no cover - plan was feasible
                    raise ContinuumError(
                        f"no feasible resource left for {task_key!r}"
                    )
                _, best_key = min(candidates)
                if best_key != resource_key:
                    resource_key = best_key

    makespan = max(p.finish for p in finished.values())
    n_migrations = sum(
        1
        for task_key, placement in finished.items()
        if placement.resource != schedule[task_key].resource
    )
    trace = FailureTrace(
        placements=tuple(
            sorted(finished.values(), key=lambda p: (p.start, p.task))
        ),
        makespan=float(makespan),
        planned_makespan=schedule.makespan,
        n_failures=n_failures,
        n_migrations=n_migrations,
        lost_work=float(lost_work),
    )
    return trace, clock.consumed, attempts_started


def _simulate_reference(
    schedule: Schedule, jitter: float, rng: np.random.Generator
) -> tuple[ExecutionTrace, int]:
    """The original object-keyed event loop (parity reference)."""
    workflow: Workflow = schedule.workflow
    continuum: Continuum = schedule.continuum

    # Per-resource task order: exactly as planned.
    queue_of: dict[str, list[str]] = {key: [] for key in continuum.keys}
    for placement in schedule.placements:  # sorted by planned start
        queue_of[placement.resource].append(placement.task)

    durations: dict[str, float] = {}
    for task in workflow:
        nominal = schedule[task.key].duration
        factor = float(rng.lognormal(mean=0.0, sigma=jitter)) if jitter else 1.0
        durations[task.key] = nominal * factor

    remaining_inputs = {
        key: len(workflow.predecessors(key)) for key in workflow.task_keys
    }
    data_ready: dict[str, float] = {key: 0.0 for key in workflow.task_keys}
    resource_free: dict[str, float] = {key: 0.0 for key in continuum.keys}
    next_in_queue: dict[str, int] = {key: 0 for key in continuum.keys}

    finished: dict[str, TaskPlacement] = {}
    # Event heap: (time, sequence, task) for completions.  `sequence` breaks
    # ties deterministically.
    heap: list[tuple[float, int, str]] = []
    sequence = 0

    def try_start(resource_key: str, now: float) -> None:
        """Start the next planned task on *resource_key* if it is ready."""
        nonlocal sequence
        queue = queue_of[resource_key]
        idx = next_in_queue[resource_key]
        if idx >= len(queue):
            return
        task_key = queue[idx]
        if remaining_inputs[task_key] > 0:
            return
        start = max(now, resource_free[resource_key], data_ready[task_key])
        finish = start + durations[task_key]
        next_in_queue[resource_key] += 1
        resource_free[resource_key] = finish
        finished[task_key] = TaskPlacement(task_key, resource_key, start, finish)
        sequence += 1
        heapq.heappush(heap, (finish, sequence, task_key))

    for resource_key in continuum.keys:
        try_start(resource_key, 0.0)

    n_events = 0
    while heap:
        n_events += 1
        now, _, task_key = heapq.heappop(heap)
        placement = finished[task_key]
        for succ in workflow.successors(task_key):
            transfer = continuum.transfer_time(
                workflow[task_key].output_size,
                placement.resource,
                schedule[succ].resource,
            )
            data_ready[succ] = max(data_ready[succ], now + transfer)
            remaining_inputs[succ] -= 1
        # The finished resource may start its next task; successors' hosts
        # may have been waiting on the data that just arrived.
        try_start(placement.resource, now)
        for succ in workflow.successors(task_key):
            try_start(schedule[succ].resource, now)

    if len(finished) != len(workflow):
        unrun = sorted(set(workflow.task_keys) - set(finished))
        raise ContinuumError(
            f"simulation deadlocked; tasks never ran: {unrun[:5]}"
        )

    makespan = max(p.finish for p in finished.values())
    busy_energy = sum(
        continuum[p.resource].busy_power * p.duration
        for p in finished.values()
    )
    trace = ExecutionTrace(
        placements=tuple(
            sorted(finished.values(), key=lambda p: (p.start, p.task))
        ),
        makespan=float(makespan),
        planned_makespan=schedule.makespan,
        busy_energy=float(busy_energy),
    )
    return trace, n_events
