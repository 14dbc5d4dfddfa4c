"""Workflow scheduling on the Computing Continuum.

Implements the scheduling layer the paper's orchestration tools motivate:

* :class:`HeftScheduler` — the classic Heterogeneous Earliest Finish Time
  list scheduler (Topcuoglu et al. 2002): upward ranks computed in one
  backward pass with vectorized mean costs, then insertion-based earliest-
  finish placement.
* :class:`EnergyAwareScheduler` — greedy energy-aware placement (the PESOS
  idea transplanted to workflows): minimize marginal energy, with a
  configurable makespan-degradation bound.
* :class:`RoundRobinScheduler` — the naive baseline.

All schedulers honour task requirements versus resource capabilities and
return a :class:`Schedule` with per-task timing and the three figures of
merit: makespan, energy, and carbon.

``schedule()`` runs on the compiled core (:mod:`repro.continuum.compile`):
task/resource keys are lowered to integer ids once and every hot placement
quantity — ready times, durations, marginal energies — is an array
expression, which is what lets 10k-task × 1k-resource fleets schedule in
seconds.  The original pure-Python implementations are preserved verbatim
as ``schedule_reference()`` (and ``Schedule.validate_reference()``); the
compiled paths are **bit-identical** to them — same placements, same
starts/finishes, same tie-breaks — asserted across a workflow × fleet
grid by ``tests/test_compile.py`` and speed-gated by
``benchmarks/test_bench_scheduling.py``.

Every ``schedule()`` accepts an optional ``telemetry=`` keyword: when
bound, the placement runs inside a ``schedule.<name>`` span and emits a
``schedule.finish`` log event (scheduler, task count, makespan).  The
default is the shared zero-overhead null telemetry.  An optional
``problem=`` keyword accepts a precompiled
:class:`~repro.continuum.compile.CompiledProblem` so callers placing the
same workflow × continuum pairing repeatedly (sweeps, benchmarks) pay the
compilation exactly once.
A :class:`Schedule` keeps that problem (:attr:`Schedule.problem`), and
validation and every simulator of the plan read it from there.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.continuum.compile import (
    CompiledProblem,
    ResourceTimeline,
    compile_problem,
    energy_placements,
    heft_placements,
    round_robin_placements,
    upward_rank_array,
)
from repro.continuum.resources import Continuum
from repro.continuum.workflow import Workflow
from repro.errors import SchedulingError
from repro.telemetry import ensure

__all__ = [
    "TaskPlacement",
    "Schedule",
    "HeftScheduler",
    "EnergyAwareScheduler",
    "RoundRobinScheduler",
]


@dataclass(frozen=True, slots=True)
class TaskPlacement:
    """Where and when one task runs."""

    task: str
    resource: str
    start: float
    finish: float

    @property
    def duration(self) -> float:
        return self.finish - self.start


class Schedule:
    """A complete placement of a workflow on a continuum."""

    def __init__(
        self,
        workflow: Workflow,
        continuum: Continuum,
        placements: Mapping[str, TaskPlacement],
    ) -> None:
        missing = set(workflow.task_keys) - set(placements)
        if missing:
            raise SchedulingError(f"unplaced tasks: {sorted(missing)}")
        extra = set(placements) - set(workflow.task_keys)
        if extra:
            raise SchedulingError(f"placements for unknown tasks: {sorted(extra)}")
        self.workflow = workflow
        self.continuum = continuum
        self._placements = dict(placements)
        # The placement map is frozen after construction, so the sorted
        # view and the makespan are computed once on first access —
        # validate(), the tracing wrapper, and the simulator all hit them
        # repeatedly on the same schedule.
        self._sorted_placements: tuple[TaskPlacement, ...] | None = None
        self._makespan: float | None = None
        self._problem: CompiledProblem | None = None

    def __getitem__(self, task: str) -> TaskPlacement:
        try:
            return self._placements[task]
        except KeyError:
            raise SchedulingError(f"no placement for task {task!r}") from None

    @property
    def placements(self) -> tuple[TaskPlacement, ...]:
        """All placements, ordered by start time (stable on ties); cached."""
        if self._sorted_placements is None:
            self._sorted_placements = tuple(
                sorted(self._placements.values(), key=lambda p: (p.start, p.task))
            )
        return self._sorted_placements

    @property
    def problem(self) -> CompiledProblem:
        """The compiled workflow × continuum pairing this plan runs on.

        A scheduler hands over the problem it placed on; a hand-built
        schedule compiles it on first use and caches it.  Pickling keeps
        it, so schedules placed on one problem still share it after a
        round trip through one payload.
        """
        if self._problem is None:
            self._problem = compile_problem(self.workflow, self.continuum)
        return self._problem

    @property
    def makespan(self) -> float:
        """Completion time of the last task; cached."""
        if self._makespan is None:
            self._makespan = max(p.finish for p in self._placements.values())
        return self._makespan

    def busy_energy(self) -> float:
        """Joules consumed executing tasks (busy power × duration)."""
        total = 0.0
        for placement in self._placements.values():
            resource = self.continuum[placement.resource]
            total += resource.busy_power * placement.duration
        return total

    def total_energy(self) -> float:
        """Busy energy plus idle energy of every node over the makespan.

        Idle draw applies to each node for the whole makespan minus its own
        busy time — the platform-level view PESOS-style consolidation cares
        about (idle nodes still burn power unless switched off).
        """
        makespan = self.makespan
        busy_time = {key: 0.0 for key in self.continuum.keys}
        for placement in self._placements.values():
            busy_time[placement.resource] += placement.duration
        total = self.busy_energy()
        for resource in self.continuum:
            idle = max(0.0, makespan - busy_time[resource.key])
            total += resource.idle_power * idle
        return total

    def carbon(self) -> float:
        """Busy energy weighted by each node's carbon intensity."""
        total = 0.0
        for placement in self._placements.values():
            resource = self.continuum[placement.resource]
            total += (
                resource.busy_power
                * placement.duration
                * resource.carbon_intensity
            )
        return total

    def validate(self) -> None:
        """Check dependency and exclusivity invariants.

        * every task starts at or after every predecessor's finish (plus
          the required transfer time);
        * no two tasks overlap on the same resource.

        Raises :class:`SchedulingError` on the first violation.

        The checks run as three array expressions (per-task timing, one
        gather over all edges, consecutive-slot comparison per resource);
        when a violation is detected the original loop implementation
        (:meth:`validate_reference`) re-runs to raise the identical
        first-violation error.  The id maps and adjacency come from
        :attr:`problem`.
        """
        eps = 1e-9
        cw, cc = self.problem.cw, self.problem.cc

        n = cw.n_tasks
        start = np.empty(n, dtype=np.float64)
        finish = np.empty(n, dtype=np.float64)
        res = np.empty(n, dtype=np.intp)
        placements = self._placements
        rindex = cc.index
        for i, key in enumerate(cw.keys):
            p = placements[key]
            start[i] = p.start
            finish[i] = p.finish
            res[i] = rindex[p.resource]

        ok = not bool((start < -eps).any() or (finish < start - eps).any())
        if ok and cw.pred_ids.size:
            # One gather over every (pred, task) edge: arrival is
            # pred_finish + latency + size / bandwidth, IEEE-identical to
            # Continuum.transfer_time.
            dst = np.repeat(
                np.arange(n, dtype=np.intp), np.diff(cw.pred_indptr)
            )
            src = cw.pred_ids
            arrival = finish[src] + (
                cc.latency[res[src], res[dst]]
                + cw.output_size[src] / cc.bandwidth[res[src], res[dst]]
            )
            ok = not bool((start[dst] + eps < arrival).any())
        if ok and n > 1:
            # Per-resource consecutive-slot check, replicating the
            # reference order: stable sort by (resource, start) keeps
            # placement-map order on ties, exactly like the per-resource
            # lists the loop builds.
            vals = list(placements.values())
            v_start = np.asarray([p.start for p in vals])
            v_finish = np.asarray([p.finish for p in vals])
            v_res = np.asarray([rindex[p.resource] for p in vals])
            order = np.lexsort((v_start, v_res))
            s_res = v_res[order]
            same = s_res[1:] == s_res[:-1]
            ok = not bool(
                (v_start[order][1:] + eps < v_finish[order][:-1])[same].any()
            )
        if ok:
            return
        self.validate_reference()
        raise SchedulingError(
            "schedule failed vectorized validation"
        )  # pragma: no cover - reference raises first

    def validate_reference(self) -> None:
        """The original loop validator — raises the first violation found.

        Kept as the arbiter for error ordering/messages and as the parity
        reference for :meth:`validate`.
        """
        eps = 1e-9
        for task_key in self.workflow.task_keys:
            placement = self[task_key]
            if placement.start < -eps or placement.finish < placement.start - eps:
                raise SchedulingError(f"task {task_key!r} has invalid timing")
            for pred_key in self.workflow.predecessors(task_key):
                pred = self[pred_key]
                transfer = self.continuum.transfer_time(
                    self.workflow[pred_key].output_size,
                    pred.resource,
                    placement.resource,
                )
                if placement.start + eps < pred.finish + transfer:
                    raise SchedulingError(
                        f"task {task_key!r} starts before data from "
                        f"{pred_key!r} arrives"
                    )
        by_resource: dict[str, list[TaskPlacement]] = {}
        for placement in self._placements.values():
            by_resource.setdefault(placement.resource, []).append(placement)
        for resource, slots in by_resource.items():
            slots.sort(key=lambda p: p.start)
            for a, b in zip(slots, slots[1:]):
                if b.start + eps < a.finish:
                    raise SchedulingError(
                        f"tasks {a.task!r} and {b.task!r} overlap on {resource!r}"
                    )


def _feasible_resources(workflow: Workflow, continuum: Continuum) -> dict[str, list[str]]:
    feasible: dict[str, list[str]] = {}
    for task in workflow:
        nodes = [r.key for r in continuum if r.supports(task.requirements)]
        if not nodes:
            raise SchedulingError(
                f"no resource satisfies requirements {sorted(task.requirements)} "
                f"of task {task.key!r}"
            )
        feasible[task.key] = nodes
    return feasible


def _traced_schedule(name: str):
    """Wrap a ``schedule()`` method with optional telemetry.

    The wrapped method grows a keyword-only ``telemetry=`` parameter.
    ``None`` (the default) resolves to the null telemetry and takes the
    undecorated fast path; a real :class:`~repro.telemetry.Telemetry`
    traces the placement as a ``schedule.<name>`` span and logs a
    ``schedule.finish`` event.  Other keywords (``problem=``) pass
    through to the wrapped method.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(self, workflow, continuum, *, telemetry=None, **kwargs):
            tel = ensure(telemetry)
            if not tel.enabled:
                return fn(self, workflow, continuum, **kwargs)
            with tel.tracer.span(f"schedule.{name}", tasks=len(workflow)) as span:
                schedule = fn(self, workflow, continuum, **kwargs)
                span.tags.update(makespan=schedule.makespan)
                tel.log.info(
                    "schedule.finish",
                    scheduler=name,
                    tasks=len(workflow),
                    makespan=schedule.makespan,
                )
                return schedule

        return wrapper

    return decorate


def _build_schedule(
    problem: CompiledProblem,
    res_of: np.ndarray,
    start_of: np.ndarray,
    fin_of: np.ndarray,
) -> Schedule:
    """Lift kernel id/time arrays into a validated :class:`Schedule`."""
    cw = problem.cw
    res_keys = problem.cc.keys
    starts = start_of.tolist()
    finishes = fin_of.tolist()
    resources = res_of.tolist()
    placements = {
        key: TaskPlacement(key, res_keys[resources[i]], starts[i], finishes[i])
        for i, key in enumerate(cw.keys)
    }
    schedule = Schedule(problem.workflow, problem.continuum, placements)
    schedule._problem = problem
    schedule.validate()
    return schedule


class HeftScheduler:
    """Heterogeneous Earliest Finish Time list scheduling."""

    def __init__(self, *, insertion: bool = True) -> None:
        self.insertion = insertion

    def upward_ranks(
        self, workflow: Workflow, continuum: Continuum
    ) -> dict[str, float]:
        """HEFT upward ranks: mean execution + max over successors of
        (mean communication + successor rank), computed in one vectorized
        backward sweep (bit-identical to :meth:`upward_ranks_reference`)."""
        problem = compile_problem(workflow, continuum)
        ranks = upward_rank_array(problem)
        return dict(zip(problem.cw.keys, ranks.tolist()))

    def upward_ranks_reference(
        self, workflow: Workflow, continuum: Continuum
    ) -> dict[str, float]:
        """The original per-task rank loop (parity reference)."""
        speeds = continuum.speeds
        mean_speed_inv = float((1.0 / speeds).mean())
        # Mean communication cost per data unit over distinct node pairs.
        n = len(continuum)
        if n > 1:
            off_diag = ~np.eye(n, dtype=bool)
            mean_inv_bw = float((1.0 / continuum.bandwidth[off_diag]).mean())
            mean_lat = float(continuum.latency[off_diag].mean())
        else:
            mean_inv_bw = 0.0
            mean_lat = 0.0

        ranks: dict[str, float] = {}
        for key in reversed(workflow.topological_order()):
            task = workflow[key]
            mean_exec = task.work * mean_speed_inv
            best = 0.0
            for succ in workflow.successors(key):
                comm = mean_lat + task.output_size * mean_inv_bw
                best = max(best, comm + ranks[succ])
            ranks[key] = mean_exec + best
        return ranks

    @_traced_schedule("heft")
    def schedule(
        self,
        workflow: Workflow,
        continuum: Continuum,
        *,
        problem: CompiledProblem | None = None,
    ) -> Schedule:
        """Place every task; returns a validated :class:`Schedule`."""
        if problem is None:
            problem = compile_problem(workflow, continuum)
        res_of, start_of, fin_of = heft_placements(
            problem, insertion=self.insertion
        )
        return _build_schedule(problem, res_of, start_of, fin_of)

    def schedule_reference(
        self, workflow: Workflow, continuum: Continuum
    ) -> Schedule:
        """The original pure-Python HEFT (parity/speedup reference)."""
        feasible = _feasible_resources(workflow, continuum)
        ranks = self.upward_ranks_reference(workflow, continuum)
        order = sorted(workflow.task_keys, key=lambda k: (-ranks[k], k))

        timelines = {key: ResourceTimeline() for key in continuum.keys}
        placements: dict[str, TaskPlacement] = {}
        for task_key in order:
            task = workflow[task_key]
            best: TaskPlacement | None = None
            for node_key in feasible[task_key]:
                resource = continuum[node_key]
                ready = 0.0
                for pred_key in workflow.predecessors(task_key):
                    pred = placements[pred_key]
                    arrival = pred.finish + continuum.transfer_time(
                        workflow[pred_key].output_size, pred.resource, node_key
                    )
                    ready = max(ready, arrival)
                duration = resource.execution_time(task.work)
                if self.insertion:
                    start = timelines[node_key].earliest_slot(ready, duration)
                else:
                    start = max(ready, timelines[node_key].last_finish)
                candidate = TaskPlacement(
                    task_key, node_key, start, start + duration
                )
                if best is None or candidate.finish < best.finish:
                    best = candidate
            assert best is not None  # feasible[] is never empty
            timelines[best.resource].reserve(best.start, best.duration)
            placements[task_key] = best
        schedule = Schedule(workflow, continuum, placements)
        schedule.validate_reference()
        return schedule


class EnergyAwareScheduler:
    """Greedy energy-aware placement with a bounded makespan penalty.

    For each task (in HEFT priority order) the scheduler picks the feasible
    resource minimizing marginal busy energy, among candidates whose finish
    time is within ``slack`` × the best achievable finish for that task.
    ``slack=1.0`` degenerates to HEFT; larger values trade makespan for
    energy — the knob the ablation benchmark sweeps.
    """

    def __init__(self, *, slack: float = 2.0) -> None:
        if slack < 1.0:
            raise SchedulingError(f"slack must be >= 1.0, got {slack}")
        self.slack = slack

    @_traced_schedule("energy")
    def schedule(
        self,
        workflow: Workflow,
        continuum: Continuum,
        *,
        problem: CompiledProblem | None = None,
    ) -> Schedule:
        """Place every task; returns a validated :class:`Schedule`."""
        if problem is None:
            problem = compile_problem(workflow, continuum)
        res_of, start_of, fin_of = energy_placements(problem, slack=self.slack)
        return _build_schedule(problem, res_of, start_of, fin_of)

    def schedule_reference(
        self, workflow: Workflow, continuum: Continuum
    ) -> Schedule:
        """The original pure-Python placement (parity reference)."""
        feasible = _feasible_resources(workflow, continuum)
        ranks = HeftScheduler().upward_ranks_reference(workflow, continuum)
        order = sorted(workflow.task_keys, key=lambda k: (-ranks[k], k))

        timelines = {key: ResourceTimeline() for key in continuum.keys}
        placements: dict[str, TaskPlacement] = {}
        for task_key in order:
            task = workflow[task_key]
            candidates: list[tuple[float, float, TaskPlacement]] = []
            for node_key in feasible[task_key]:
                resource = continuum[node_key]
                ready = 0.0
                for pred_key in workflow.predecessors(task_key):
                    pred = placements[pred_key]
                    arrival = pred.finish + continuum.transfer_time(
                        workflow[pred_key].output_size, pred.resource, node_key
                    )
                    ready = max(ready, arrival)
                duration = resource.execution_time(task.work)
                start = timelines[node_key].earliest_slot(ready, duration)
                energy = resource.busy_power * duration
                candidates.append(
                    (
                        energy,
                        start + duration,
                        TaskPlacement(task_key, node_key, start, start + duration),
                    )
                )
            best_finish = min(c[1] for c in candidates)
            admissible = [
                c for c in candidates if c[1] <= self.slack * best_finish
            ]
            energy, _, placement = min(
                admissible, key=lambda c: (c[0], c[1], c[2].resource)
            )
            timelines[placement.resource].reserve(placement.start, placement.duration)
            placements[task_key] = placement
        schedule = Schedule(workflow, continuum, placements)
        schedule.validate_reference()
        return schedule


class RoundRobinScheduler:
    """Naive baseline: tasks in topological order, resources in rotation.

    Skips resources that do not satisfy a task's requirements (still
    rotating), and starts each task as early as dependencies and the
    resource timeline allow.
    """

    @_traced_schedule("round_robin")
    def schedule(
        self,
        workflow: Workflow,
        continuum: Continuum,
        *,
        problem: CompiledProblem | None = None,
    ) -> Schedule:
        """Place every task; returns a validated :class:`Schedule`."""
        if problem is None:
            problem = compile_problem(workflow, continuum)
        res_of, start_of, fin_of = round_robin_placements(problem)
        return _build_schedule(problem, res_of, start_of, fin_of)

    def schedule_reference(
        self, workflow: Workflow, continuum: Continuum
    ) -> Schedule:
        """The original pure-Python rotation (parity reference)."""
        feasible = _feasible_resources(workflow, continuum)
        keys = continuum.keys
        timelines = {key: ResourceTimeline() for key in keys}
        placements: dict[str, TaskPlacement] = {}
        cursor = 0
        for task_key in workflow.topological_order():
            task = workflow[task_key]
            for offset in range(len(keys)):
                node_key = keys[(cursor + offset) % len(keys)]
                if node_key in feasible[task_key]:
                    cursor = (cursor + offset + 1) % len(keys)
                    break
            else:  # pragma: no cover - _feasible_resources guarantees a hit
                raise SchedulingError(f"no feasible resource for {task_key!r}")
            resource = continuum[node_key]
            ready = 0.0
            for pred_key in workflow.predecessors(task_key):
                pred = placements[pred_key]
                arrival = pred.finish + continuum.transfer_time(
                    workflow[pred_key].output_size, pred.resource, node_key
                )
                ready = max(ready, arrival)
            duration = resource.execution_time(task.work)
            start = timelines[node_key].earliest_slot(ready, duration)
            placement = TaskPlacement(task_key, node_key, start, start + duration)
            timelines[node_key].reserve(start, duration)
            placements[task_key] = placement
        schedule = Schedule(workflow, continuum, placements)
        schedule.validate_reference()
        return schedule
