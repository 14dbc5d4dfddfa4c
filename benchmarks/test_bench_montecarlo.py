"""Monte-Carlo engine benchmark: batched vs naive, parallel determinism.

The sweep engine (:mod:`repro.continuum.montecarlo`) exists so thousands
of replications stop paying the one-shot simulators' per-call setup.
This bench pins the acceptance criteria:

* **batched vs naive** — 1000 single-process replications through the
  precomputed :class:`SimulationContext` must run ≥ 3× faster than the
  same 1000 replications through the object-keyed replay (the test
  oracle in ``tests/replay_oracle.py``), on bit-identical
  per-replication results, which `simulate_with_failures` (a one-shot
  wrapper over the same kernel) must return too;
* **parallel == serial** — a multi-worker sweep must be bit-identical to
  the serial fallback for the same seed;
* **warm cache** — re-running an identical sweep spec against a primed
  `ArtifactCache` must execute zero simulations.
"""

from __future__ import annotations

import sys
import time

import numpy as np
from conftest import REPO_ROOT, report

from repro.continuum import (
    HeftScheduler,
    SimulationContext,
    SweepSpec,
    default_continuum,
    random_workflow,
    replicate_once,
    run_sweep,
    simulate_with_failures,
)
from repro.pipeline import ArtifactCache
from repro.telemetry import ensure

# The oracle lives in the tests package; a run of benchmarks/ alone does
# not put the repository root on sys.path.
if str(REPO_ROOT) not in sys.path:
    sys.path.append(str(REPO_ROOT))
from tests.replay_oracle import _replay  # noqa: E402

WORKFLOW = random_workflow(80, seed=55, output_range=(0.0, 0.2))
CONTINUUM = default_continuum(n_hpc=2, n_cloud=4, n_edge=6, seed=55)
SCHEDULE = HeftScheduler().schedule(WORKFLOW, CONTINUUM)

REPLICATIONS = 1000
MTBF = 20.0
REPAIR = 1.0


def _rng(rep: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(55, spawn_key=(rep,)))


def test_bench_batched_vs_naive(benchmark):
    """Acceptance: the batched engine is ≥ 3× faster than a naive loop
    over the object-keyed replay at 1000 replications, one process."""

    def naive():
        tel = ensure(None)
        return [
            _replay(
                SCHEDULE, MTBF, REPAIR, "restart", _rng(rep), 50, tel
            )[0].makespan
            for rep in range(REPLICATIONS)
        ]

    def batched():
        context = SimulationContext(SCHEDULE)
        return [
            replicate_once(
                context, mtbf=MTBF, repair_time=REPAIR, rng=_rng(rep)
            ).makespan
            for rep in range(REPLICATIONS)
        ]

    start = time.perf_counter()
    naive_makespans = naive()
    naive_s = time.perf_counter() - start

    batched_makespans = benchmark.pedantic(batched, rounds=3, iterations=1)
    start = time.perf_counter()
    batched()
    batched_s = time.perf_counter() - start

    # Same replications, same draws: the speedup is measured on
    # bit-identical results, not on a shortcut.
    assert batched_makespans == naive_makespans
    assert [
        simulate_with_failures(
            SCHEDULE, mtbf=MTBF, repair_time=REPAIR, rng=_rng(rep)
        ).makespan
        for rep in range(REPLICATIONS)
    ] == naive_makespans

    speedup = naive_s / batched_s
    report(
        f"Monte-Carlo — batched vs naive ({REPLICATIONS} replications, "
        "1 process)",
        [
            f"naive loop:   {naive_s * 1e3:9.1f} ms "
            f"({naive_s / REPLICATIONS * 1e6:7.1f} µs/replication)",
            f"batched:      {batched_s * 1e3:9.1f} ms "
            f"({batched_s / REPLICATIONS * 1e6:7.1f} µs/replication)",
            f"speedup:      {speedup:9.2f}x (bit-identical makespans)",
        ],
    )
    assert speedup >= 3.0, (
        f"batched engine only {speedup:.2f}x faster than naive (< 3x)"
    )


def test_bench_parallel_bit_identical(benchmark):
    """Acceptance: parallel (workers>1) and serial sweeps are
    bit-identical for the same seed."""
    spec = SweepSpec(
        workflows=(WORKFLOW,),
        continuum=CONTINUUM,
        schedulers=("heft", "round_robin"),
        mtbfs=(MTBF,),
        jitters=(0.0, 0.1),
        replications=50,
        seed=55,
        chunk_size=16,
    )
    serial = run_sweep(spec, workers=0)
    start = time.perf_counter()
    run_sweep(spec, workers=0)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = benchmark.pedantic(
        lambda: run_sweep(spec, workers=2), rounds=1, iterations=1
    )
    parallel_s = time.perf_counter() - start

    assert parallel.to_dict()["cells"] == serial.to_dict()["cells"]
    report(
        "Monte-Carlo — parallel vs serial sweep "
        f"({len(spec.cells())} cells × {spec.replications} replications)",
        [
            f"serial:    {serial_s * 1e3:9.1f} ms",
            f"2 workers: {parallel_s * 1e3:9.1f} ms "
            "(bit-identical cell statistics)",
        ],
    )


def test_bench_warm_cache_zero_simulations(benchmark, tmp_path):
    """Acceptance: a warm-cache re-run of an identical sweep spec
    executes zero simulations."""
    spec = SweepSpec(
        workflows=(WORKFLOW,),
        continuum=CONTINUUM,
        schedulers=("heft", "round_robin"),
        mtbfs=(MTBF,),
        jitters=(0.0, 0.1),
        replications=100,
        seed=55,
    )
    cache = ArtifactCache(tmp_path)

    start = time.perf_counter()
    cold = run_sweep(spec, cache=cache)
    cold_s = time.perf_counter() - start
    assert cold.n_replications_run == len(spec.cells()) * spec.replications

    warm = benchmark(lambda: run_sweep(spec, cache=cache))
    start = time.perf_counter()
    run_sweep(spec, cache=cache)
    warm_s = time.perf_counter() - start

    assert warm.n_replications_run == 0
    assert warm.computed == ()
    assert len(warm.cached) == len(spec.cells())
    assert warm.to_dict()["cells"] == cold.to_dict()["cells"]
    report(
        "Monte-Carlo — warm-cache re-run "
        f"({len(spec.cells())} cells × {spec.replications} replications)",
        [
            f"cold: {cold_s * 1e3:9.1f} ms "
            f"({cold.n_replications_run} simulations)",
            f"warm: {warm_s * 1e3:9.1f} ms (0 simulations, "
            f"{len(warm.cached)} cells from cache)",
            f"speedup: {cold_s / warm_s:6.1f}x",
        ],
    )


def test_bench_adaptive_sequential_stopping(benchmark):
    """Acceptance: on the EXPERIMENTS.md reference grid (3 schedulers ×
    3 MTBFs, 200-replication cap) adaptive sequential stopping executes
    ≤ 50% of the fixed-replication simulation count while every cell
    meets ``target_ci``, on cells bit-identical to the serial run."""
    import math

    from repro.continuum.montecarlo import parse_grid
    from repro.data import synthetic_workflows

    base = dict(
        workflows=synthetic_workflows(1, seed=0),
        continuum=default_continuum(seed=0),
        seed=0,
        chunk_size=20,
        **parse_grid("scheduler=heft,energy,round_robin;mtbf=20,50,200"),
    )
    fixed = SweepSpec(replications=200, **base)
    adaptive = SweepSpec(replications=200, target_ci=0.02, **base)

    start = time.perf_counter()
    fixed_result = run_sweep(fixed, workers=2)
    fixed_s = time.perf_counter() - start

    result = benchmark.pedantic(
        lambda: run_sweep(adaptive, workers=2), rounds=1, iterations=1
    )
    start = time.perf_counter()
    run_sweep(adaptive, workers=2)
    adaptive_s = time.perf_counter() - start

    assert fixed_result.n_replications_run == 1800
    assert result.n_replications_budget == 1800
    fraction = result.n_replications_run / result.n_replications_budget
    # Every cell met the stopping rule (or ran to the cap).
    met = 0
    for stats in result.cells:
        summary = stats.metrics[adaptive.primary_metric]
        half = 1.96 * summary.std / math.sqrt(summary.count)
        if stats.replications < adaptive.replication_cap:
            assert half <= adaptive.target_ci * abs(summary.mean) * 1.0001
            met += 1
    # Bit-identical to the serial adaptive run.
    serial = run_sweep(adaptive, workers=0)
    assert serial.to_dict() == result.to_dict()

    report(
        "Monte-Carlo — adaptive sequential stopping "
        "(reference grid: 3 schedulers × 3 MTBFs, cap 200)",
        [
            f"fixed:    {fixed_s * 1e3:9.1f} ms "
            f"({fixed_result.n_replications_run} simulations)",
            f"adaptive: {adaptive_s * 1e3:9.1f} ms "
            f"({result.n_replications_run} simulations, "
            f"{result.n_replications_saved} saved, "
            f"{fraction:.1%} of budget)",
            f"cells stopped early: {met}/{len(result.cells)} "
            "(all met target_ci=0.02; bit-identical at any worker count)",
        ],
    )
    assert fraction <= 0.5, (
        f"adaptive sweep ran {fraction:.1%} of the fixed budget (> 50%)"
    )


def test_bench_quantile_sketch_merge_exact(benchmark):
    """Acceptance: merging per-shard `QuantileSketch` states is exact —
    the merged sketch equals the single-stream sketch — and quantile
    estimates stay within the alpha error bound at 100k samples."""
    from repro.continuum import QuantileSketch

    ALPHA = 0.01
    N = 100_000
    SHARDS = 8
    rng = np.random.default_rng(55)
    values = rng.lognormal(1.0, 1.0, size=N)

    def build_and_merge():
        whole = QuantileSketch(ALPHA)
        shards = [QuantileSketch(ALPHA) for _ in range(SHARDS)]
        for index, value in enumerate(values):
            whole.add(float(value))
            shards[index % SHARDS].add(float(value))
        merged = shards[0]
        for shard in shards[1:]:
            merged.merge(shard)
        return whole, merged

    start = time.perf_counter()
    whole, merged = build_and_merge()
    build_s = time.perf_counter() - start
    benchmark.pedantic(
        lambda: merged.copy().merge(whole), rounds=3, iterations=1
    )

    assert merged == whole  # exact: not approximately equal
    worst = 0.0
    for q in (0.01, 0.1, 0.5, 0.9, 0.99, 0.999):
        exact = float(np.quantile(values, q))
        error = abs(merged.quantile(q) - exact) / exact
        worst = max(worst, error)
        assert error <= 2 * ALPHA
    report(
        f"Monte-Carlo — mergeable quantile sketch ({N} samples, "
        f"{SHARDS} shards, alpha={ALPHA})",
        [
            f"build+merge: {build_s * 1e3:9.1f} ms "
            f"({len(merged.to_dict()['pos'])} buckets)",
            f"merged == single-stream: exact "
            f"(worst quantile error {worst:.4%} ≤ {2 * ALPHA:.0%} bound)",
        ],
    )
