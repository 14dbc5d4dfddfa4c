"""Failure injection: executing plans on unreliable resources.

The paper's discussion (Sec. 4) flags *fault tolerance* as a direction the
surveyed ecosystem does not yet cover.  This module supplies the substrate
to study it: a schedule is replayed on resources that fail according to
seeded exponential (Poisson-process) inter-failure times; a failure kills
the running task's attempt (its work is lost) and takes the resource down
for a repair interval.  Two recovery policies:

* ``"restart"`` — re-run the attempt on the same resource once repaired;
* ``"migrate"`` — move the task to the feasible resource that can finish
  it earliest (checkpoint-free migration: the attempt restarts from zero).

The replay is a *list-scheduling replay*: tasks run in dependency
(topological) order, each starting as soon as its inputs have arrived and
its resource is free — the plan fixes the task→resource mapping, reality
fixes the timing.  Returned metrics quantify the fault-tolerance cost:
failure count, retries, lost work, and makespan inflation.  A failure
that fires while its resource is idle is a harmless reboot: it is
counted as injected but kills nothing.

The replay itself is the Monte-Carlo kernel
(:func:`repro.continuum.montecarlo._replicate`): this function runs one
replication of it on the schedule's compiled problem and lifts the
kernel's integer-id start/finish times into a :class:`FailureTrace`, so
one-shot replays and sweeps share a single implementation.

Passing ``telemetry=`` traces the replay (``simulate_failures`` span),
logs every killed attempt (``sim.failure``), and mirrors the cost into
the ``sim.failures_injected`` / ``sim.retries`` / ``sim.migrations`` /
``sim.events`` counters that :func:`repro.obs.build_simulation_record`
lifts into the run ledger.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.continuum.montecarlo import (
    SimulationContext,
    _replicate,
    _validate_cell_params,
)
from repro.continuum.scheduling import Schedule, TaskPlacement
from repro.errors import ContinuumError
from repro.telemetry import ensure

__all__ = ["FailureTrace", "simulate_with_failures"]


@dataclass(frozen=True, slots=True)
class FailureTrace:
    """Outcome of executing a schedule under failures.

    Attributes
    ----------
    placements:
        Final successful attempt of every task.
    makespan:
        Realized completion time.
    planned_makespan:
        The failure-free plan's makespan.
    n_failures:
        Attempts killed by resource failures.
    n_migrations:
        Tasks that ended up on a different resource than planned.
    lost_work:
        Total seconds of execution destroyed by failures.
    """

    placements: tuple[TaskPlacement, ...]
    makespan: float
    planned_makespan: float
    n_failures: int
    n_migrations: int
    lost_work: float

    @property
    def slowdown(self) -> float:
        return self.makespan / self.planned_makespan


def simulate_with_failures(
    schedule: Schedule,
    *,
    mtbf: float,
    repair_time: float,
    policy: str = "restart",
    seed: int | None = None,
    rng: np.random.Generator | None = None,
    max_attempts: int = 50,
    telemetry=None,
) -> FailureTrace:
    """Replay *schedule* with exponential failures of rate ``1/mtbf``.

    Parameters
    ----------
    schedule:
        The plan (fixes the task→resource mapping and task order); its
        compiled problem is reused across calls.
    mtbf:
        Mean time between failures per resource, in simulated seconds
        (required; :func:`~repro.continuum.simulate.simulate_schedule`
        executes a plan without failures).
    repair_time:
        Downtime after each failure.
    policy:
        ``"restart"`` or ``"migrate"`` (see module docstring).
    seed:
        Seeds both the failure process and migration tie-breaks.
    rng:
        Pre-built generator, as an alternative to *seed* (at most one of
        the two) — lets batch drivers like
        :mod:`repro.continuum.montecarlo` hand in per-replication
        spawned streams.
    max_attempts:
        Abort with :class:`ContinuumError`, naming the task, if one task
        fails this often — guards against ``mtbf`` far below task
        durations.
    telemetry:
        Optional :class:`repro.telemetry.Telemetry`; when bound the replay
        is traced (``simulate_failures`` span), every killed attempt is
        logged (``sim.failure``, in replay order), and the counters
        ``sim.failures_injected`` (failures fired, harmless idle reboots
        included), ``sim.retries`` (attempts killed mid-execution),
        ``sim.migrations``, ``sim.events`` (attempts started: one per
        task plus one per retry) and ``sim.tasks`` feed the run-ledger
        metrics snapshot.
    """
    if mtbf is None:
        raise ContinuumError(
            "mtbf must be > 0; use simulate_schedule for a failure-free run"
        )
    _validate_cell_params(
        mtbf=mtbf, repair_time=repair_time, policy=policy, jitter=0.0,
        max_attempts=max_attempts,
    )
    if rng is not None and seed is not None:
        raise ContinuumError("provide either seed or rng, not both")
    if rng is None:
        rng = np.random.default_rng(seed)

    context = SimulationContext(schedule)
    tel = ensure(telemetry)
    if not tel.enabled:
        return _run(context, mtbf, repair_time, policy, max_attempts, rng)[0]
    with tel.tracer.span(
        "simulate_failures",
        policy=policy,
        mtbf=mtbf,
        tasks=len(schedule.workflow),
    ) as span:
        killed: list[tuple[int, int, float, float, int]] = []
        try:
            trace, injected, attempts = _run(
                context, mtbf, repair_time, policy, max_attempts, rng, killed
            )
        finally:
            # Emitted after the replay (also when max_attempts aborts
            # it) so the kernel's failure branch only appends a tuple.
            problem = context.problem
            for ti, res, at, lost, attempt in killed:
                tel.log.debug(
                    "sim.failure",
                    task=problem.cw.keys[ti],
                    resource=problem.cc.keys[res],
                    at=at,
                    lost=lost,
                    attempt=attempt,
                    policy=policy,
                )
        span.tags.update(
            makespan=trace.makespan,
            failures=trace.n_failures,
            migrations=trace.n_migrations,
        )
        metrics = tel.metrics
        metrics.counter("sim.failures_injected").inc(injected)
        metrics.counter("sim.retries").inc(trace.n_failures)
        metrics.counter("sim.migrations").inc(trace.n_migrations)
        metrics.counter("sim.events").inc(attempts)
        metrics.counter("sim.tasks").inc(len(trace.placements))
        tel.log.info(
            "sim.finish",
            tasks=len(trace.placements),
            events=attempts,
            failures_injected=injected,
            retries=trace.n_failures,
            migrations=trace.n_migrations,
            makespan=trace.makespan,
            slowdown=trace.slowdown,
            lost_work=trace.lost_work,
        )
    return trace


def _run(
    context: SimulationContext,
    mtbf: float,
    repair_time: float,
    policy: str,
    max_attempts: int,
    rng: np.random.Generator,
    killed: list[tuple[int, int, float, float, int]] | None = None,
) -> tuple[FailureTrace, int, int]:
    """One kernel replication as (trace, failures fired, attempts started)."""
    result, start, finish, resource, idle_reboots = _replicate(
        context, mtbf, repair_time, policy == "migrate", 0.0, max_attempts,
        rng, killed,
    )
    problem = context.problem
    task_keys, res_keys = problem.cw.keys, problem.cc.keys
    placements = sorted(
        (
            TaskPlacement(task_keys[t], res_keys[resource[t]], start[t], finish[t])
            for t in range(context.n_tasks)
        ),
        key=lambda p: (p.start, p.task),
    )
    trace = FailureTrace(
        placements=tuple(placements),
        makespan=result.makespan,
        planned_makespan=context.planned_makespan,
        n_failures=result.retries,
        n_migrations=result.migrations,
        lost_work=result.lost_work,
    )
    return (
        trace,
        result.retries + idle_reboots,
        context.n_tasks + result.retries,
    )
