"""Run one benchmark workload (or all) and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 40
    python3 perfbench/run.py --workload all
    python3 perfbench/run.py --workload all --trace 1 --out traced.json

``--trace 0`` (the default) prints the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` runs the traced variant and prints the
per-layer metrics and the tracing overhead instead.  Each metric is
printed as a line ``workload  name  value  unit``, followed by a line
with the environment and, last, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--out`` also
writes the environment and that object to a file.

``--workload all`` runs each workload in a process of its own, so that
each reports its own peak memory, prints each one's attempted and failed
operations, and ends with one object over all of them (metric names
prefixed ``<workload>/``); its ``--out`` file holds every workload's
object as well.

The exit code is 0 when every output check passed and 1 when one
failed; a run that cannot start (no ``src/repro`` next to this
directory) exits 2 without printing a result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import sqlite3
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_RUNS = 3  # set-up is repeated and its median reported
MIN_ROUNDS = 5  # a run plays rounds for --seconds, and at least this many
SERIAL_CHECK_CELLS = 3


def workloads() -> dict[str, object]:
    """One round of each workload: its own phases large, the others small.

    Every run reports every end-to-end metric, so each workload runs a
    short burst of the phases it does not target as well.
    """
    from phases import SMALL_GRID, SWEEP_GRID, Sizes

    return {
        # The corpus engine at full size, both sides: 10k records make a
        # 5.6 MB served store, larger than sqlite's default 2 MB page
        # cache, and the harvest is the 1,000-record one.  The study
        # artifacts all fit in ArtifactCache.
        "serve-mix": Sizes(serve_records=10_000, serve_s=0.8,
                           harvest_records=1_000, sweep_grid=SMALL_GRID,
                           stat_target_se=5e-4),
        "adaptive-sweeps": Sizes(serve_records=2_000, serve_s=0.8,
                                 harvest_records=500, sweep_grid=SWEEP_GRID,
                                 stat_target_se=4e-4),
    }


def peak_rss_mb(server_kb: int) -> float:
    """Peak resident set of this process plus that of the server process.

    The two run side by side: the server holds the served store and the
    study cache, this process runs the harvest and sweep phases.  Sweep
    pool workers are forks of this process and are not added.
    """
    if server_kb is None:
        raise RuntimeError("the server did not report its peak memory")
    mine_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (mine_kb + server_kb) / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> tuple[dict[str, float], object]:
    """Set up, play rounds for *seconds*, and return (metrics, tally).

    The traced run plays untraced rounds for half the time and traced
    rounds for the other half; the difference is the tracing overhead.
    """
    import layers
    import phases

    sizes = workloads()[name]
    tally = phases.Tally()
    setup_s = []
    trace_out = workdir / "server-trace.json"
    for attempt in range(SETUP_RUNS):
        started = time.perf_counter()
        session = phases.set_up(sizes, seed, workdir / f"s{attempt}",
                                trace_out=trace_out if trace else None)
        setup_s.append(time.perf_counter() - started)
        if attempt < SETUP_RUNS - 1:
            session.close()
    try:
        if not trace:
            rounds = [phases.play_round(session, i, tally)
                      for i in phases.repeat(seconds, MIN_ROUNDS)]
            session.close()
            phases.check_serial_cells(session, rounds[0].sweep, tally,
                                      SERIAL_CHECK_CELLS)
            metrics = {"setup_s": statistics.median(setup_s),
                       **phases.round_metrics(session, rounds)}
        else:
            base = [phases.play_round(session, i, tally)
                    for i in phases.repeat(seconds / 2, 2)]
            session.server.trace()
            layer_trace = layers.LayerTrace()
            traced = [phases.play_round(session, len(base) + i, tally,
                                        layer_trace)
                      for i in phases.repeat(seconds / 2, 2)]
            session.close()
            metrics = {
                **phases.serve_trace_metrics(
                    [r.serve for r in traced],
                    json.loads(trace_out.read_text())),
                **phases.harvest_trace_metrics(
                    [r.harvest for r in traced], layer_trace),
                **phases.sweep_trace_metrics(
                    session, [r.sweep for r in traced], layer_trace, tally),
                **phases.overhead_metrics(base, traced),
            }
            rounds = base + traced
        phases.check_queries(session, [r.serve for r in rounds], tally)
    finally:
        session.close()
    if not trace:
        metrics["peak_rss_mb"] = peak_rss_mb(session.server.peak_rss_kb)
    return metrics, tally


def environment(args: argparse.Namespace) -> dict[str, object]:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sqlite": sqlite3.sqlite_version,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_one(args: argparse.Namespace, units: dict[str, str]
            ) -> tuple[dict[str, float], object]:
    """Run the workload ``args.workload`` in this process."""
    sys.path.insert(0, str(SRC))
    # SQLite puts temporary tables (dedup's) in SQLITE_TMPDIR; keep
    # them, like every other file the run writes, inside the checkout.
    WORK.mkdir(exist_ok=True)
    os.environ["SQLITE_TMPDIR"] = os.environ["TMPDIR"] = str(WORK)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        metrics, tally = run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    if set(metrics) != set(units):
        raise RuntimeError(f"{args.workload} reported {sorted(metrics)}, "
                           f"expected {sorted(units)}")
    for metric, value in metrics.items():
        print(f"{args.workload:16} {metric:36} {value:14.6g} {units[metric]}")
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return metrics, tally


def run_each(args: argparse.Namespace, names: list[str]
             ) -> dict[str, dict[str, object]]:
    """Run every workload in a process of its own and collect its result.

    A process per workload keeps each one's peak memory its own.
    """
    results = {}
    for name in names:
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.splitlines()
        if len(lines) < 2 or not lines[-1].startswith('{"correct"'):
            raise RuntimeError(f"{name} exited with {child.returncode} "
                               "without a result")
        print("\n".join(lines[:-2]))  # its metric lines, not its JSON
        results[name] = json.loads(lines[-1])
        print(f"{name:16} attempted {results[name]['attempted']}, "
              f"failed {results[name]['failed']}")
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the repro benchmark workloads.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        parser.error(f"--workload must be one of {names} or all")

    env = environment(args)
    if args.workload == "all":
        per_workload = run_each(args, names)
        result = {
            "correct": all(r["correct"] for r in per_workload.values()),
            "attempted": sum(r["attempted"] for r in per_workload.values()),
            "failed": sum(r["failed"] for r in per_workload.values()),
            "metrics": {f"{name}/{metric}": value
                        for name, r in per_workload.items()
                        for metric, value in r["metrics"].items()},
        }
        saved = {"env": env, "workloads": per_workload, "result": result}
    else:
        metrics, tally = run_one(args, units)
        result = {
            "correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {metric: {"value": value, "unit": units[metric]}
                        for metric, value in metrics.items()},
        }
        saved = {"env": env, "result": result}
    if args.out is not None:
        args.out.write_text(json.dumps(saved, indent=2) + "\n")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
