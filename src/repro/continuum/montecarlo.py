"""Monte-Carlo sweep engine: batched, process-parallel continuum experiments.

The one-shot simulators (:func:`repro.continuum.simulate.simulate_schedule`,
:func:`repro.continuum.failures.simulate_with_failures`) answer "what does
one noisy execution of this plan look like?".  The questions the paper's Q3
analysis raises — how do schedulers compare *in distribution* across
failure rates, jitter levels, and a fleet of workflows — need thousands of
replications per grid cell, so per-call setup (object construction,
string-keyed lookups, validation) must be paid once, not per replication.

This module is the batched engine, in three layers:

1. **The replay kernel** — :class:`SimulationContext` hoists every
   schedule invariant out of the replication loop: the plan's start
   order and planned resources, plus the pairing-level tables the
   schedule's :attr:`~repro.continuum.scheduling.Schedule.problem`
   caches (per-task durations on every resource, the ``task × src ×
   dst`` transfer-cost table, predecessor and feasibility lists).  One
   replication (:func:`_replicate`) then runs on flat lists of floats
   and ints.  It is the only failure replay in the library:
   :func:`~repro.continuum.failures.simulate_with_failures` is a thin
   wrapper that runs one replication and lifts the kernel's start and
   finish times into a trace.
2. **Adaptive rounds on a process pool** — :func:`run_sweep` runs the
   grid as the Monte-Carlo task kind of the shared round engine,
   :mod:`repro.stats.adaptive`, which owns the content-addressed
   streams, the work-stealing round queue, the cache, telemetry and the
   ledger.  A round is ``chunk_size`` replications of one cell, replayed
   by a ``ProcessPoolExecutor`` worker (the pure-Python replay loop is
   GIL-bound, so threads cannot scale it) that received the schedules
   once and builds contexts lazily.  With ``SweepSpec.target_ci`` set, a
   cell stops once the 95% confidence half-width of its primary
   metric's mean falls to ``target_ci`` relative to that mean, capped at
   ``max_replications``: low-variance cells stop after one round and
   only noisy cells spend the full budget (gated in
   ``benchmarks/test_bench_montecarlo.py``).
3. **Streaming, mergeable aggregation** — the parent folds replications
   into :class:`RunningStat` (Welford mean/variance, min/max) and
   :class:`~repro.stats.sketch.QuantileSketch` (log-bucket quantile
   sketch with an *exact, associative* merge) accumulators per grid
   cell (:class:`CellAggregate`), so memory stays O(buckets) — constant
   in the replication count — and partial aggregates from independent
   processes or hosts combine deterministically.

The ``repro sweep`` CLI command and the serve layer's ``POST /sweeps``
drive the whole thing through one spec builder, :func:`build_sweep_spec`.

Determinism contract
--------------------
Replication ``j`` of a grid cell draws from stream index ``j`` of an
entropy derived from the cell's content (``spec.seed`` and the cell
identity) — not from a shared stream or the cell's grid position.  The
engine folds each cell's rounds in replication order and checks stop
rules only at round boundaries, so results are bit-identical across
worker counts, steal orders (``steal_seed``) and the serial path, and
the first ``R`` replications of a larger run reproduce a smaller run
exactly.  The round size (``chunk_size``) is therefore part of an
adaptive cell's identity, while for fixed-replication sweeps chunking
can never change results.  Against the one-shot simulators, one
replication with generator ``g`` *is*
``simulate_with_failures(schedule, ..., rng=g)`` when ``jitter == 0``
(the same kernel call), and reproduces the makespan of
``simulate_schedule(schedule, jitter=j, rng=g)`` bit-for-bit when
``mtbf is None`` (batch draws of NumPy ``Generator`` consume the stream
exactly like the equivalent scalar sequence).  The failure replay is
pinned bit-for-bit, counters and failure events included, against the
original object-keyed replay kept as a test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from repro.continuum.compile import CompiledProblem, compile_problem
from repro.continuum.resources import Continuum
from repro.continuum.scheduling import (
    EnergyAwareScheduler,
    HeftScheduler,
    RoundRobinScheduler,
    Schedule,
)
from repro.continuum.workflow import Workflow
from repro.errors import ContinuumError, MonteCarloError
from repro.stats.adaptive import (
    Runner,
    SweepNames,
    ci_half_width,
    run_rounds,
    stream_rng,
)
from repro.stats.sketch import QuantileSketch

__all__ = [
    "ENGINE_VERSION",
    "SCHEDULERS",
    "METRIC_NAMES",
    "SKETCH_ALPHA",
    "ReplicationResult",
    "SimulationContext",
    "replicate_once",
    "RunningStat",
    "QuantileSketch",
    "CellAggregate",
    "MetricSummary",
    "CellSpec",
    "CellStats",
    "SweepSpec",
    "SweepResult",
    "run_sweep",
    "parse_grid",
    "build_sweep_spec",
]

#: Bump when the replay semantics or the aggregation layout change —
#: part of every cell's cache key, so stale cached cells can never leak
#: into a sweep computed by a newer engine.  "2": quantile sketches
#: replaced fixed-bucket histograms in the cell aggregate, and the
#: replication plan (fixed count vs adaptive stopping) joined the key.
ENGINE_VERSION = "2"

#: Relative-accuracy guarantee of every cell's quantile sketches.
SKETCH_ALPHA = 0.01

#: Scheduler registry the sweep grid selects from by name.
SCHEDULERS: dict[str, Any] = {
    "heft": HeftScheduler,
    "energy": EnergyAwareScheduler,
    "round_robin": RoundRobinScheduler,
}

#: Per-replication metrics every grid cell aggregates, in fold order.
METRIC_NAMES = ("makespan", "slowdown", "retries", "migrations", "lost_work")


@dataclass(frozen=True, slots=True)
class ReplicationResult:
    """One replication's figures of merit (no placements: streaming-sized)."""

    makespan: float
    slowdown: float
    retries: int
    migrations: int
    lost_work: float

    def as_tuple(self) -> tuple[float, float, int, int, float]:
        return (
            self.makespan,
            self.slowdown,
            self.retries,
            self.migrations,
            self.lost_work,
        )


class SimulationContext:
    """Schedule invariants hoisted out of the replication loop.

    Everything a replication needs that does not depend on the random
    stream is computed once here: integer task/resource indices, the
    plan's start order, per-task durations on every resource (IEEE-equal
    to ``Resource.execution_time``), the plan's own placement durations
    (for the jitter-only path, where ``simulate_schedule`` multiplies the
    *placement* duration), predecessor adjacency, the
    ``task × src × dst`` transfer-cost table (IEEE-equal to
    ``Continuum.transfer_time``; the kernel builds a task's row for the
    resource it finished on), feasibility sets, and the
    key-sorted resource ranks that break migrate-policy ties exactly like
    the string comparison of the original object-keyed replay.

    The pairing-level invariants (duration matrix, transfer table,
    adjacency, feasibility) are the cached list views of the schedule's
    own :attr:`~repro.continuum.scheduling.Schedule.problem`, so every
    context of schedules placed on one pairing shares them; only the
    schedule-specific pieces (plan order, planned resources/durations)
    are rebuilt per context.
    """

    __slots__ = (
        "schedule",
        "problem",
        "n_tasks",
        "n_resources",
        "order",
        "planned_res",
        "plan_dur",
        "dur",
        "transfer",
        "preds",
        "feasible",
        "res_rank",
        "planned_makespan",
    )

    def __init__(self, schedule: Schedule) -> None:
        problem = schedule.problem
        cw, cc = problem.cw, problem.cc
        tindex = cw.index
        rindex = cc.index

        self.schedule = schedule
        self.problem = problem
        self.n_tasks = cw.n_tasks
        self.n_resources = cc.n_resources
        #: Plan start order as task indices (a valid topological order —
        #: the schedule validated that successors start after predecessors).
        self.order = [tindex[p.task] for p in schedule.placements]
        self.planned_res = [0] * self.n_tasks
        self.plan_dur = [0.0] * self.n_tasks
        for key in cw.keys:
            placement = schedule[key]
            self.planned_res[tindex[key]] = rindex[placement.resource]
            self.plan_dur[tindex[key]] = placement.duration

        # Pairing-level tables, shared via the compiled problem's cached
        # list views (dur[task][resource] == Resource.execution_time;
        # transfer[task][src][dst] == Continuum.transfer_time — the
        # diagonal is free and a zero output costs latency only, the
        # same IEEE division either way).
        self.dur = problem.dur_lists()
        self.transfer = problem.transfer_lists()
        self.preds = problem.pred_id_lists()
        self.feasible = problem.feasible_id_lists()
        # Migration breaks earliest-finish ties on the resource *key
        # string*; ranks reproduce that order on ints.
        self.res_rank = cc.res_rank.tolist()
        self.planned_makespan = schedule.makespan


def replicate_once(
    context: SimulationContext,
    *,
    mtbf: float | None = None,
    repair_time: float = 0.0,
    policy: str = "restart",
    jitter: float = 0.0,
    max_attempts: int = 50,
    rng: np.random.Generator,
) -> ReplicationResult:
    """Run one replication against a precomputed context.

    With ``mtbf=None`` this is the jitter-only replay (bit-identical
    makespan to :func:`~repro.continuum.simulate.simulate_schedule`);
    with a finite ``mtbf`` it is the failure replay that
    :func:`~repro.continuum.failures.simulate_with_failures` also runs
    (the same figures when ``jitter == 0``).  Draw order: the per-task
    jitter factors first (task insertion order), then the per-resource
    initial failure times (continuum key order), then one exponential
    per consumed failure, idle reboots included.
    """
    _validate_cell_params(
        mtbf=mtbf, repair_time=repair_time, policy=policy, jitter=jitter,
        max_attempts=max_attempts,
    )
    return _replicate(
        context, mtbf, repair_time, policy == "migrate", jitter,
        max_attempts, rng,
    )[0]


def _validate_cell_params(
    *,
    mtbf: float | None,
    repair_time: float,
    policy: str,
    jitter: float,
    max_attempts: int,
) -> None:
    if mtbf is not None and not mtbf > 0:
        raise MonteCarloError("mtbf must be > 0 (or None for no failures)")
    if repair_time < 0:
        raise MonteCarloError("repair_time must be >= 0")
    if policy not in ("restart", "migrate"):
        raise MonteCarloError(f"unknown policy {policy!r}")
    if jitter < 0:
        raise MonteCarloError("jitter must be >= 0")
    if max_attempts < 1:
        raise MonteCarloError("max_attempts must be >= 1")


def _replicate(
    ctx: SimulationContext,
    mtbf: float | None,
    repair_time: float,
    migrate: bool,
    jitter: float,
    max_attempts: int,
    rng: np.random.Generator,
    killed: list[tuple[int, int, float, float, int]] | None = None,
) -> tuple[ReplicationResult, list[float], list[float], list[int], int]:
    """The replication hot loop: flat lists, integer indices, local names.

    Returns ``(result, start, finish, resource, idle_reboots)``: the
    figures of merit, then per task id the start time, finish time and
    resource id of its successful attempt, and the number of failures
    that fired on an idle resource.  When *killed* is a list, every
    killed attempt is appended to it as ``(task id, resource id, failure
    time, lost seconds, attempt number)``.
    """
    n_tasks = ctx.n_tasks
    order = ctx.order
    planned_res = ctx.planned_res
    preds = ctx.preds
    dur_table = ctx.dur
    plan_dur = ctx.plan_dur
    transfer = ctx.transfer
    feasible = ctx.feasible
    res_rank = ctx.res_rank
    task_transfer_row = ctx.problem.task_transfer_row
    exponential = rng.exponential

    factors = (
        rng.lognormal(mean=0.0, sigma=jitter, size=n_tasks).tolist()
        if jitter
        else None
    )
    clocked = mtbf is not None
    next_failure = (
        exponential(mtbf, size=ctx.n_resources).tolist() if clocked else None
    )
    resource_free = [0.0] * ctx.n_resources
    start_time = [0.0] * n_tasks
    fin_time = [0.0] * n_tasks
    fin_res = list(planned_res)
    n_failures = 0
    idle_reboots = 0
    lost_work = 0.0

    for ti in order:
        res = planned_res[ti]
        task_preds = preds[ti]
        # The jitter-only path multiplies the *placement* duration, like
        # simulate_schedule; the failure replay recomputes work/speed,
        # like simulate_with_failures (equal up to float noise).
        durations = dur_table[ti]
        attempts = 0
        while True:
            if attempts >= max_attempts:
                raise ContinuumError(
                    f"task {ctx.problem.cw.keys[ti]!r} failed {attempts} times; "
                    f"mtbf={mtbf} is too small for its duration"
                )
            duration = plan_dur[ti] if not clocked else durations[res]
            if factors is not None:
                duration *= factors[ti]
            ready = 0.0
            for p in task_preds:
                arrival = fin_time[p] + transfer[p][fin_res[p]][res]
                if arrival > ready:
                    ready = arrival
            start = resource_free[res]
            if ready > start:
                start = ready
            if not clocked:
                finish = start + duration
                resource_free[res] = finish
                start_time[ti] = start
                fin_time[ti] = finish
                fin_res[ti] = res
                break
            # Idle failures are harmless reboots: skip (and count) any
            # that elapsed before the attempt starts.
            failure = next_failure[res]
            while failure < start:
                failure += float(exponential(mtbf))
                idle_reboots += 1
            if failure >= start + duration:
                next_failure[res] = failure
                finish = start + duration
                resource_free[res] = finish
                start_time[ti] = start
                fin_time[ti] = finish
                fin_res[ti] = res
                break
            # The attempt dies at the failure instant.
            attempts += 1
            n_failures += 1
            lost_work += failure - start
            next_failure[res] = failure + float(exponential(mtbf))
            resource_free[res] = failure + repair_time
            if killed is not None:
                killed.append((ti, res, failure, failure - start, attempts))
            if migrate:
                best: tuple[float, int] | None = None
                best_res = res
                for r in feasible[ti]:
                    retry_ready = 0.0
                    for p in task_preds:
                        arrival = fin_time[p] + transfer[p][fin_res[p]][r]
                        if arrival > retry_ready:
                            retry_ready = arrival
                    retry_start = resource_free[r]
                    if retry_ready > retry_start:
                        retry_start = retry_ready
                    candidate = (retry_start + durations[r], res_rank[r])
                    if best is None or candidate < best:
                        best = candidate
                        best_res = r
                res = best_res
        # Successors read this task's transfer row from where it ran.
        if transfer[ti][res] is None:
            transfer[ti][res] = task_transfer_row(ti, res)

    makespan = max(fin_time)
    migrations = 0
    for ti in range(n_tasks):
        if fin_res[ti] != planned_res[ti]:
            migrations += 1
    result = ReplicationResult(
        makespan=makespan,
        slowdown=makespan / ctx.planned_makespan,
        retries=n_failures,
        migrations=migrations,
        lost_work=lost_work,
    )
    return result, start_time, fin_time, fin_res, idle_reboots


# -- streaming aggregation ----------------------------------------------------


class RunningStat:
    """Welford mean/variance accumulator with min/max, O(1) memory.

    The fold order is fixed by the caller (replication order), which pins
    the floating-point result bit-for-bit across worker counts.
    """

    __slots__ = ("count", "mean", "_m2", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def variance(self) -> float:
        """Sample variance (ddof=1); 0.0 with fewer than two observations."""
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def merge(self, other: "RunningStat") -> "RunningStat":
        """Fold another accumulator in (Chan et al. parallel update).

        For combining partial aggregates from independent processes or
        hosts.  The merged moments are deterministic for a given merge
        tree but — unlike the quantile sketches — not bit-identical to a
        value-by-value fold; that is why :func:`run_sweep` itself folds
        raw replications in replication order and reserves ``merge`` for
        cross-host combination.
        """
        if other.count == 0:
            return self
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self._m2 = other._m2
            self.min = other.min
            self.max = other.max
            return self
        total = self.count + other.count
        delta = other.mean - self.mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self.mean += delta * other.count / total
        self.count = total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        return self

    def to_dict(self) -> dict[str, float | int]:
        return {
            "count": self.count,
            "mean": self.mean,
            "m2": self._m2,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunningStat":
        stat = cls()
        stat.count = int(payload["count"])
        stat.mean = float(payload["mean"])
        stat._m2 = float(payload["m2"])
        if stat.count:
            stat.min = float(payload["min"])
            stat.max = float(payload["max"])
        return stat


@dataclass(frozen=True, slots=True)
class MetricSummary:
    """One metric's distribution over a grid cell's replications."""

    count: int
    mean: float
    std: float
    min: float
    max: float
    p50: float
    p90: float
    p99: float

    def to_dict(self) -> dict[str, float | int]:
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.min,
            "max": self.max,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "MetricSummary":
        return cls(
            count=int(payload["count"]),
            mean=float(payload["mean"]),
            std=float(payload["std"]),
            min=float(payload["min"]),
            max=float(payload["max"]),
            p50=float(payload["p50"]),
            p90=float(payload["p90"]),
            p99=float(payload["p99"]),
        )


class CellAggregate:
    """Streams one cell's replications into mergeable stats + sketches.

    One :class:`RunningStat` (exact moments) and one
    :class:`~repro.stats.sketch.QuantileSketch` (quantiles within
    :data:`SKETCH_ALPHA` relative error) per metric.  The sketches need
    no a-priori value range and their :meth:`merge` is *exact*: combining
    partial aggregates from independent processes or hosts yields the
    same sketch state as one aggregate fed every replication — the
    foundation for distributing sweeps beyond one parent process.

    ``to_dict``/``from_dict`` round-trip the full state through JSON so
    a partial aggregate is shippable between hosts.
    """

    __slots__ = ("stats", "sketches")

    def __init__(self) -> None:
        self.stats = {name: RunningStat() for name in METRIC_NAMES}
        self.sketches = {
            name: QuantileSketch(SKETCH_ALPHA) for name in METRIC_NAMES
        }

    def add(self, values: tuple[float, float, int, int, float]) -> None:
        for name, value in zip(METRIC_NAMES, values):
            self.stats[name].add(value)
            self.sketches[name].add(value)

    def merge(self, other: "CellAggregate") -> "CellAggregate":
        """Fold another cell aggregate in (sketch merge is exact)."""
        for name in METRIC_NAMES:
            self.stats[name].merge(other.stats[name])
            self.sketches[name].merge(other.sketches[name])
        return self

    def summaries(self) -> dict[str, MetricSummary]:
        out: dict[str, MetricSummary] = {}
        for name in METRIC_NAMES:
            stat = self.stats[name]
            sketch = self.sketches[name]
            out[name] = MetricSummary(
                count=stat.count,
                mean=stat.mean,
                std=stat.std,
                min=stat.min,
                max=stat.max,
                p50=sketch.quantile(0.50),
                p90=sketch.quantile(0.90),
                p99=sketch.quantile(0.99),
            )
        return out

    def to_dict(self) -> dict[str, Any]:
        return {
            "stats": {
                name: self.stats[name].to_dict() for name in METRIC_NAMES
            },
            "sketches": {
                name: self.sketches[name].to_dict() for name in METRIC_NAMES
            },
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CellAggregate":
        aggregate = cls()
        try:
            aggregate.stats = {
                name: RunningStat.from_dict(payload["stats"][name])
                for name in METRIC_NAMES
            }
            aggregate.sketches = {
                name: QuantileSketch.from_dict(payload["sketches"][name])
                for name in METRIC_NAMES
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise MonteCarloError(
                f"malformed cell aggregate payload: {exc}"
            ) from None
        return aggregate


# -- grid cells ----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CellSpec:
    """One grid cell: a workflow × scheduler × failure/jitter condition."""

    workflow: str
    scheduler: str
    mtbf: float | None
    jitter: float
    policy: str

    @property
    def cell_id(self) -> str:
        mtbf = "none" if self.mtbf is None else f"{self.mtbf:g}"
        return (
            f"{self.workflow}|{self.scheduler}|mtbf={mtbf}"
            f"|jitter={self.jitter:g}|policy={self.policy}"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "workflow": self.workflow,
            "scheduler": self.scheduler,
            "mtbf": self.mtbf,
            "jitter": self.jitter,
            "policy": self.policy,
        }


@dataclass(frozen=True, slots=True)
class CellStats:
    """Aggregated outcome of one grid cell."""

    cell: CellSpec
    replications: int
    planned_makespan: float
    metrics: dict[str, MetricSummary]

    @property
    def cell_id(self) -> str:
        return self.cell.cell_id

    def to_dict(self) -> dict[str, Any]:
        return {
            "cell": self.cell.to_dict(),
            "cell_id": self.cell_id,
            "replications": self.replications,
            "planned_makespan": self.planned_makespan,
            "metrics": {
                name: summary.to_dict()
                for name, summary in self.metrics.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CellStats":
        cell = payload["cell"]
        return cls(
            cell=CellSpec(
                workflow=str(cell["workflow"]),
                scheduler=str(cell["scheduler"]),
                mtbf=None if cell["mtbf"] is None else float(cell["mtbf"]),
                jitter=float(cell["jitter"]),
                policy=str(cell["policy"]),
            ),
            replications=int(payload["replications"]),
            planned_makespan=float(payload["planned_makespan"]),
            metrics={
                str(name): MetricSummary.from_dict(summary)
                for name, summary in payload["metrics"].items()
            },
        )


# -- sweep specification --------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """A full Monte-Carlo experiment grid.

    The grid is the cross product ``workflows × schedulers × mtbfs ×
    jitters × policies``.  Replication sizing has two modes:

    * **fixed** (``target_ci is None``, the default): every cell runs
      exactly ``replications`` seeded replications, and ``chunk_size``
      shapes the parallel fan-out only — it can never change results
      (see the module determinism contract).
    * **adaptive** (``target_ci`` set): every cell runs rounds of
      ``chunk_size`` replications until the 95% confidence half-width
      of its ``primary_metric`` mean is at most ``target_ci`` *relative
      to that mean* (``1.96·s/√n ≤ target_ci·|mean|``), capped at
      ``max_replications`` (default: ``replications``).  Stop checks
      happen at round boundaries, so in this mode ``chunk_size`` is part
      of a cell's identity (and cache key); results remain bit-identical
      across worker counts and queue orders.

    ``max_replications`` without ``target_ci`` is rejected — a fixed
    sweep sizes itself with ``replications`` alone.
    """

    workflows: tuple[Workflow, ...]
    continuum: Continuum
    schedulers: tuple[str, ...] = ("heft",)
    mtbfs: tuple[float | None, ...] = (None,)
    jitters: tuple[float, ...] = (0.0,)
    policies: tuple[str, ...] = ("restart",)
    repair_time: float = 1.0
    max_attempts: int = 50
    replications: int = 100
    seed: int = 0
    chunk_size: int = 64
    target_ci: float | None = None
    max_replications: int | None = None
    primary_metric: str = "makespan"

    def __post_init__(self) -> None:
        if not self.workflows:
            raise MonteCarloError("sweep needs at least one workflow")
        names = [w.name for w in self.workflows]
        if len(set(names)) != len(names):
            raise MonteCarloError("workflow names must be unique in a sweep")
        if not self.schedulers:
            raise MonteCarloError("sweep needs at least one scheduler")
        for name in self.schedulers:
            if name not in SCHEDULERS:
                raise MonteCarloError(
                    f"unknown scheduler {name!r}; "
                    f"choose from {sorted(SCHEDULERS)}"
                )
        if not self.mtbfs or not self.jitters or not self.policies:
            raise MonteCarloError("mtbfs, jitters, and policies must be non-empty")
        if self.replications < 1:
            raise MonteCarloError("replications must be >= 1")
        if self.chunk_size < 1:
            raise MonteCarloError("chunk_size must be >= 1")
        if self.primary_metric not in METRIC_NAMES:
            raise MonteCarloError(
                f"unknown primary_metric {self.primary_metric!r}; "
                f"choose from {METRIC_NAMES}"
            )
        if self.target_ci is not None:
            if not (math.isfinite(self.target_ci) and self.target_ci > 0):
                raise MonteCarloError(
                    f"target_ci must be a finite value > 0, "
                    f"got {self.target_ci}"
                )
        if self.max_replications is not None:
            if self.target_ci is None:
                raise MonteCarloError(
                    "max_replications requires target_ci (a fixed sweep "
                    "sizes itself with replications)"
                )
            if self.max_replications < 1:
                raise MonteCarloError("max_replications must be >= 1")
        for mtbf in self.mtbfs:
            for jitter in self.jitters:
                for policy in self.policies:
                    _validate_cell_params(
                        mtbf=mtbf, repair_time=self.repair_time,
                        policy=policy, jitter=jitter,
                        max_attempts=self.max_attempts,
                    )

    @property
    def adaptive(self) -> bool:
        """Whether this sweep sizes replications by sequential stopping."""
        return self.target_ci is not None

    @property
    def replication_cap(self) -> int:
        """Per-cell replication ceiling (fixed count in fixed mode)."""
        if self.adaptive and self.max_replications is not None:
            return self.max_replications
        return self.replications

    def replication_plan(self) -> dict[str, Any]:
        """The replication-sizing identity (part of every cell cache key)."""
        if not self.adaptive:
            return {"mode": "fixed", "replications": self.replications}
        return {
            "mode": "adaptive",
            "target_ci": self.target_ci,
            "max_replications": self.replication_cap,
            "round_size": self.chunk_size,
            "primary_metric": self.primary_metric,
        }

    def cells(self) -> tuple[CellSpec, ...]:
        """The grid cells in deterministic enumeration order."""
        return tuple(
            CellSpec(
                workflow=workflow.name, scheduler=scheduler,
                mtbf=mtbf, jitter=jitter, policy=policy,
            )
            for workflow in self.workflows
            for scheduler in self.schedulers
            for mtbf in self.mtbfs
            for jitter in self.jitters
            for policy in self.policies
        )


@dataclass(frozen=True)
class SweepResult:
    """Outcome of :func:`run_sweep`.

    ``computed``/``cached`` partition the grid's cell ids by whether
    their replications ran in this call or came from the artifact cache;
    ``n_replications_run`` counts the simulations actually executed.
    ``n_replications_budget`` is what a fixed sweep at the replication
    cap would have executed for the same computed cells — the difference
    is the adaptive engine's savings (zero by construction in fixed
    mode, where run == budget).
    """

    cells: tuple[CellStats, ...]
    computed: tuple[str, ...]
    cached: tuple[str, ...]
    n_replications_run: int
    n_replications_budget: int = 0

    @property
    def n_replications_saved(self) -> int:
        return self.n_replications_budget - self.n_replications_run

    def to_dict(self) -> dict[str, Any]:
        return {
            "engine_version": ENGINE_VERSION,
            "cells": [cell.to_dict() for cell in self.cells],
            "computed": list(self.computed),
            "cached": list(self.cached),
            "n_replications_run": self.n_replications_run,
            "n_replications_budget": self.n_replications_budget,
        }


# -- request construction ---------------------------------------------------------


def parse_grid(text: str) -> dict[str, tuple]:
    """Parse a grid axis spec into :class:`SweepSpec` keyword values.

    The format is shared by ``repro sweep --grid`` and the serve layer's
    ``POST /sweeps`` body: ``"key=v1,v2;key=v1"`` with keys ``scheduler``
    (heft|energy|round_robin), ``mtbf`` (floats or ``none``), ``jitter``
    (floats), and ``policy`` (restart|migrate); omitted axes keep the
    single-cell defaults.

    >>> parse_grid("scheduler=heft,energy;mtbf=50")["schedulers"]
    ('heft', 'energy')
    """
    axes: dict[str, tuple] = {
        "schedulers": ("heft",),
        "mtbfs": (None,),
        "jitters": (0.0,),
        "policies": ("restart",),
    }
    plural = {
        "scheduler": "schedulers",
        "mtbf": "mtbfs",
        "jitter": "jitters",
        "policy": "policies",
    }
    for entry in filter(None, (part.strip() for part in text.split(";"))):
        key, sep, raw = entry.partition("=")
        key = key.strip().lower()
        if not sep or key not in plural:
            raise MonteCarloError(
                f"bad grid entry {entry!r}; expected "
                "scheduler=.../mtbf=.../jitter=.../policy=..."
            )
        values = [v.strip() for v in raw.split(",") if v.strip()]
        if not values:
            raise MonteCarloError(f"grid axis {key!r} has no values")
        if key in ("mtbf", "jitter"):
            try:
                axes[plural[key]] = tuple(
                    None if key == "mtbf" and v.lower() == "none" else float(v)
                    for v in values
                )
            except ValueError:
                raise MonteCarloError(
                    f"grid axis {key!r} needs numeric values, got {raw!r}"
                ) from None
        else:
            axes[plural[key]] = tuple(values)
    return axes


def build_sweep_spec(
    *,
    grid: str = "scheduler=heft",
    fleet: int = 3,
    replications: int = 100,
    seed: int = 0,
    target_ci: float | None = None,
    max_replications: int | None = None,
) -> SweepSpec:
    """The canonical :class:`SweepSpec` for a sweep *request*.

    Both front doors — ``repro sweep`` and the serve layer's
    ``POST /sweeps`` — build their spec through this one function, so an
    HTTP-submitted sweep is *bit-identical* (same fleet, same continuum,
    same per-cell entropy, hence the same cache keys and ledger record)
    to the CLI sweep with the same arguments.  ``target_ci`` switches
    the sweep to adaptive sequential stopping (``max_replications``
    caps it; default: ``replications``) — invalid combinations raise
    :class:`~repro.errors.MonteCarloError` here, before any work runs.
    """
    from repro.continuum.resources import default_continuum
    from repro.data import synthetic_workflows

    if fleet < 1:
        raise MonteCarloError("fleet must be >= 1")
    return SweepSpec(
        workflows=synthetic_workflows(fleet, seed=seed),
        continuum=default_continuum(seed=seed),
        replications=replications,
        seed=seed,
        target_ci=target_ci,
        max_replications=max_replications,
        **parse_grid(grid),
    )


# -- fingerprints and cache keys -------------------------------------------------


def _workflow_fingerprint(workflow: Workflow) -> str:
    from repro.continuum.serialize import workflow_to_dict
    from repro.pipeline.cache import stable_digest

    return stable_digest(workflow_to_dict(workflow))


def _continuum_fingerprint(continuum: Continuum) -> str:
    from repro.continuum.serialize import continuum_to_dict
    from repro.pipeline.cache import stable_digest

    return stable_digest(continuum_to_dict(continuum))


def _cell_identity(spec: SweepSpec, cell: CellSpec,
                   fingerprints: Mapping[str, str],
                   continuum_fp: str) -> dict[str, Any]:
    """Everything that pins a cell's random streams (not the rep count)."""
    return {
        "engine": ENGINE_VERSION,
        "seed": spec.seed,
        "workflow": fingerprints[cell.workflow],
        "continuum": continuum_fp,
        "scheduler": cell.scheduler,
        "mtbf": cell.mtbf,
        "jitter": cell.jitter,
        "policy": cell.policy,
        "repair_time": spec.repair_time,
        "max_attempts": spec.max_attempts,
    }




# -- worker protocol --------------------------------------------------------------


@dataclass(frozen=True)
class _CellTask:
    """One cell's work order, as shipped to (or run by) a worker."""

    schedule_index: int
    mtbf: float | None
    jitter: float
    policy: str
    repair_time: float
    max_attempts: int
    entropy: int


# Worker-global state, set once per process by the pool initializer; the
# serial path uses the same two functions in-process.
_WORKER_SCHEDULES: list[Schedule] = []
_WORKER_TASKS: list[_CellTask] = []
_WORKER_CONTEXTS: dict[int, SimulationContext] = {}


def _worker_init(schedules: list[Schedule], tasks: list[_CellTask]) -> None:
    global _WORKER_SCHEDULES, _WORKER_TASKS, _WORKER_CONTEXTS
    _WORKER_SCHEDULES = schedules
    _WORKER_TASKS = tasks
    _WORKER_CONTEXTS = {}


def _worker_chunk(
    args: tuple[int, int, int],
) -> list[tuple[float, float, int, int, float]]:
    """Run replications [start, start+count) of one cell task.

    Returns raw metric tuples in replication order; every replication
    owns a spawned generator, so execution placement is irrelevant.
    """
    task_index, start, count = args
    task = _WORKER_TASKS[task_index]
    context = _WORKER_CONTEXTS.get(task.schedule_index)
    if context is None:
        context = SimulationContext(_WORKER_SCHEDULES[task.schedule_index])
        _WORKER_CONTEXTS[task.schedule_index] = context
    migrate = task.policy == "migrate"
    return [
        _replicate(
            context, task.mtbf, task.repair_time, migrate, task.jitter,
            task.max_attempts, stream_rng(task.entropy, rep),
        )[0].as_tuple()
        for rep in range(start, start + count)
    ]


# -- the sweep driver --------------------------------------------------------------


class _CellKind:
    """Grid cells as a :class:`~repro.stats.adaptive.RoundKind`.

    A cell's stream is indexed by replication; a round is ``chunk_size``
    replications run by :func:`_worker_chunk` and folded into a
    :class:`CellAggregate`.
    """

    names = SweepNames(
        span="sweep", prefix="mc", items="cells", units="replications",
        record="mc-sweep",
    )
    result_type = SweepResult

    def __init__(self, spec: SweepSpec, workers: int) -> None:
        self.spec = spec
        self.cells = spec.cells()
        self.adaptive = spec.adaptive
        self.cap = spec.replication_cap
        self.round_size = spec.chunk_size
        self.plan = spec.replication_plan()
        self.meta: dict[str, Any] = {
            "seed": spec.seed,
            "replications": spec.replications,
            "workers": workers,
        }
        if spec.adaptive:
            self.meta["target_ci"] = spec.target_ci
            self.meta["max_replications"] = spec.replication_cap
            self.meta["primary_metric"] = spec.primary_metric
        self._computed: list[CellSpec] = []
        self._planned: list[float] = []

    def identities(self) -> list[dict[str, Any]]:
        spec = self.spec
        fingerprints = {
            w.name: _workflow_fingerprint(w) for w in spec.workflows
        }
        continuum_fp = _continuum_fingerprint(spec.continuum)
        return [
            _cell_identity(spec, cell, fingerprints, continuum_fp)
            for cell in self.cells
        ]

    def cache_key(self, identity: Mapping[str, Any]) -> str:
        # The cell's stream identity plus the replication *plan*: a fixed
        # count, or the adaptive stopping rule (whose round size shapes
        # where stop checks happen, hence the result).
        from repro.pipeline.cache import stable_digest

        return stable_digest("montecarlo-cell", identity, self.plan)

    decode = staticmethod(CellStats.from_dict)

    def setup(
        self, misses: list[int], entropies: list[int], tel
    ) -> tuple[Runner, list[CellAggregate]]:
        # Schedule once per (workflow, scheduler) pair actually needed;
        # compile each workflow × continuum pairing exactly once and
        # share it across every scheduler placing on it.  Each schedule
        # owns that problem, and the pool ships all schedules as one
        # payload, so workers unpickle one shared problem per pairing.
        spec = self.spec
        workflow_of = {w.name: w for w in spec.workflows}
        schedules: list[Schedule] = []
        schedule_index: dict[tuple[str, str], int] = {}
        problems: dict[str, CompiledProblem] = {}
        tasks: list[_CellTask] = []
        for index, entropy in zip(misses, entropies):
            cell = self.cells[index]
            pair = (cell.workflow, cell.scheduler)
            if pair not in schedule_index:
                problem = problems.get(cell.workflow)
                if problem is None:
                    problem = compile_problem(
                        workflow_of[cell.workflow], spec.continuum
                    )
                    problems[cell.workflow] = problem
                schedule_index[pair] = len(schedules)
                schedules.append(
                    SCHEDULERS[cell.scheduler]().schedule(
                        workflow_of[cell.workflow], spec.continuum,
                        telemetry=tel if tel.enabled else None,
                        problem=problem,
                    )
                )
            tasks.append(_CellTask(
                schedule_index=schedule_index[pair],
                mtbf=cell.mtbf,
                jitter=cell.jitter,
                policy=cell.policy,
                repair_time=spec.repair_time,
                max_attempts=spec.max_attempts,
                entropy=entropy,
            ))
            self._computed.append(cell)
            self._planned.append(schedules[schedule_index[pair]].makespan)
        runner = Runner(_worker_chunk, _worker_init, (schedules, tasks))
        return runner, [CellAggregate() for _ in misses]

    def fold(self, aggregate: CellAggregate, rows) -> None:
        for row in rows:
            aggregate.add(row)

    def stop(self, aggregate: CellAggregate, folded: int) -> bool:
        """Stop once the 95% confidence half-width of the primary metric's
        mean is within ``target_ci`` of the mean's magnitude.

        A zero-variance cell (e.g. no failures, no jitter) stops after
        its first round; a zero-mean cell stops only when its variance is
        also zero, since no relative precision is otherwise attainable
        before the cap.
        """
        stat = aggregate.stats[self.spec.primary_metric]
        if stat.count < 2:
            return False
        half_width = ci_half_width(stat.std, stat.count)
        return half_width <= self.spec.target_ci * abs(stat.mean)

    def finish(
        self, slot: int, aggregate: CellAggregate, folded: int
    ) -> CellStats:
        return CellStats(
            cell=self._computed[slot],
            replications=folded,
            planned_makespan=self._planned[slot],
            metrics=aggregate.summaries(),
        )


def run_sweep(
    spec: SweepSpec,
    *,
    workers: int = 0,
    cache=None,
    telemetry=None,
    registry=None,
    steal_seed: int | None = None,
) -> SweepResult:
    """Run the full Monte-Carlo grid of *spec*.

    Parameters
    ----------
    spec:
        The experiment grid (see :class:`SweepSpec`).
    workers:
        Process-pool size for the replication fan-out.  ``0`` or ``1``
        runs the deterministic serial path in-process; results are
        bit-identical either way.
    cache:
        Optional :class:`~repro.pipeline.cache.ArtifactCache`.  Grid
        cells are content-addressed (engine version, seed, workflow and
        continuum fingerprints, cell condition, replication plan): a hit
        skips every simulation of that cell.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry`; when bound the
        sweep is traced (``sweep`` span with per-scheduler ``schedule.*``
        child spans), counted (``mc.replications``, ``mc.rounds``,
        ``mc.replications_saved``, ``mc.cells_computed``,
        ``mc.cells_cached``), and logged (``sweep.finish``).
    registry:
        Optional :class:`~repro.obs.RunRegistry`; when given, the sweep
        appends a ``mc-sweep`` :class:`~repro.obs.RunRecord` (cell
        digests, replication counters) to the run ledger.
    steal_seed:
        Optional seed that *shuffles* the order rounds are taken off the
        shared work queue — a chaos knob for exercising the determinism
        contract (results are bit-identical for any value, which the
        test suite asserts), never needed for normal runs.

    Returns
    -------
    SweepResult
        Per-cell streaming statistics plus the computed/cached split.
    """
    if workers < 0:
        raise MonteCarloError("workers must be >= 0")
    return run_rounds(
        _CellKind(spec, workers), workers=workers, cache=cache,
        telemetry=telemetry, registry=registry, steal_seed=steal_seed,
    )
