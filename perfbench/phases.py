"""The three phases every workload runs: serve, harvest and sweep.

Each phase measures one engine through its public API, checks the
engine's outputs, and counts every operation it attempted and every one
whose output check failed in a :class:`Tally`.  A run plays rounds of
one serve burst, one harvest and one sweep; a workload's :class:`Sizes`
make its own phase large and the other two small, so that every run
reports every end-to-end metric.

Timed regions hold only calls into the program.  Output checks, input
generation and layer shims (:mod:`layers`) stay outside them; shims are
installed only by the traced run.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import urllib.parse
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

import inputs
import layers

from repro.continuum import build_sweep_spec, run_sweep
from repro.corpus.query import Query
from repro.corpus.store import CorpusStore
from repro.pipeline.cache import ArtifactCache
from repro.pipeline.study import run_icsc_pipeline
from repro.serve import study_payloads
from repro.stats.fanout import StatSpec, run_stat_sweep, share_ci_tasks

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: The adaptive-sweeps grid: 3 schedulers x 3 failure rates x 2 jitters.
SWEEP_GRID = "scheduler=heft,energy,round_robin;mtbf=20,50,200;jitter=0,0.1"
#: The three-cell grid the other workloads run.
SMALL_GRID = "scheduler=heft,energy,round_robin;mtbf=50;jitter=0.1"
#: Seed of the swept workflow and continuum.  It is fixed so that every
#: workload seed sweeps the same problem; the workload seed still picks
#: every replication's random stream.
FLEET_SEED = 0
SWEEP_CAP = 5000
SWEEP_TARGET_CI = 0.005
SWEEP_WORKERS = 2
CI_Z = statistics.NormalDist().inv_cdf(0.975)  # 95% two-sided
STAT_CAP = 1_000_000
QUERIES = 200
QUERY_SAMPLE = 10  # check every tenth harvest query and served query
REQUESTS = 20_000  # request-sequence length; the closed loop cycles it
CONNECTIONS = 2
BATCH_SIZE = 2000


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failures."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def op(self, ok: bool, problem: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)


@dataclass(frozen=True)
class Sizes:
    """How much of each phase one round of a workload runs."""

    serve_records: int  # records in the served store
    serve_s: float  # length of the closed-loop burst
    harvest_records: int
    sweep_grid: str
    stat_target_se: float


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, *q* in [0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def repeat(budget_s: float, min_runs: int) -> Iterator[int]:
    """Yield run indices until *budget_s* has passed and *min_runs* ran."""
    started = time.perf_counter()
    run = 0
    while run < min_runs or time.perf_counter() - started < budget_s:
        yield run
        run += 1


# -- set-up and the server process ---------------------------------------------


class ServerProcess:
    """``server.py`` over one store, stopped by closing its input.

    After :meth:`stop`, ``peak_rss_kb`` holds the peak resident set the
    server reported as it shut down.
    """

    peak_rss_kb: int | None = None

    def __init__(self, store: Path, seed: int, trace_out: Path | None) -> None:
        command = [sys.executable, str(HERE / "server.py"),
                   "--store", str(store), "--seed", str(seed)]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        line = self.proc.stdout.readline().split()
        if line[:1] != ["ready"]:
            self.stop()
            raise RuntimeError(f"server failed to start: {line}")
        self.port = int(line[1])

    def trace(self) -> None:
        self.proc.stdin.write("trace\n")
        self.proc.stdin.flush()
        if self.proc.stdout.readline().strip() != "tracing":
            raise RuntimeError("server did not start tracing")

    def stop(self) -> None:
        if self.proc.stdout.closed:
            return
        self.proc.stdin.close()
        timer = threading.Timer(30, self.proc.kill)
        timer.start()
        try:
            for line in self.proc.stdout:
                word, _, value = line.partition(" ")
                if word == "peak_rss_kb":
                    self.peak_rss_kb = int(value)
            self.proc.wait()
        finally:
            timer.cancel()
            self.proc.stdout.close()


@dataclass
class Session:
    """Everything one run measures, set up from the workload seed."""

    workdir: Path
    sizes: Sizes
    harvest: inputs.Harvest
    queries: list[str]
    serve_store: Path
    requests: list[str]
    expected_study: dict[str, bytes]
    sweep_spec: Any
    stat_spec: StatSpec
    server: ServerProcess
    cursor: int = 0  # where the next serve burst resumes the sequence

    def close(self) -> None:
        self.server.stop()


def set_up(
    sizes: Sizes, seed: int, workdir: Path, *, trace_out: Path | None = None
) -> Session:
    """Generate inputs, build the served store, start and warm the server."""
    workdir.mkdir(parents=True)
    harvest = inputs.harvest(sizes.harvest_records, seed)
    served = inputs.harvest(sizes.serve_records, seed)
    store = workdir / "serve.sqlite3"
    with CorpusStore(store) as corpus:
        corpus.ingest_bibtex(served.bibtex, batch_size=BATCH_SIZE)
    results, _ = run_icsc_pipeline(seed=seed, cache=ArtifactCache())
    expected = {
        name: (json.dumps(payload) + "\n").encode("utf-8")
        for name, payload in study_payloads(results).items()
    }
    sweep_spec = dataclasses.replace(
        build_sweep_spec(grid=sizes.sweep_grid, fleet=1,
                         replications=SWEEP_CAP, seed=FLEET_SEED,
                         target_ci=SWEEP_TARGET_CI),
        seed=seed,
    )
    stat_spec = StatSpec(
        tasks=share_ci_tasks(results.q2.distribution, prefix="fig2")
        + share_ci_tasks(results.q3.votes, prefix="fig4"),
        seed=seed, target_se=sizes.stat_target_se, max_draws=STAT_CAP,
    )
    server = ServerProcess(store, seed, trace_out)
    try:
        connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                                timeout=60)
        for name in inputs.STUDY_ENDPOINTS:
            connection.request("GET", f"/study/{name}")
            response = connection.getresponse()
            body = response.read()
            if response.status != 200 or body != expected[name]:
                raise RuntimeError(f"warm-up /study/{name} does not match")
        connection.close()
    except BaseException:
        server.stop()
        raise
    return Session(
        workdir=workdir, sizes=sizes, harvest=harvest,
        queries=inputs.boolean_queries(harvest.vocabulary, QUERIES, seed),
        serve_store=store,
        requests=inputs.request_sequence(served.vocabulary, REQUESTS, seed),
        expected_study=expected, sweep_spec=sweep_spec, stat_spec=stat_spec,
        server=server,
    )


# -- serve ---------------------------------------------------------------------


@dataclass
class LoopResult:
    elapsed_s: float
    latencies: dict[str, list[float]]  # "study" / "corpus" -> seconds
    sampled: list[tuple[str, bytes]]  # query replies kept for checking

    @property
    def requests(self) -> int:
        return sum(len(v) for v in self.latencies.values())

    @property
    def latency_s(self) -> float:
        return sum(map(sum, self.latencies.values()))


def serve_metrics(loops: list[LoopResult]) -> dict[str, float]:
    """Median burst throughput; latency percentiles over every request."""
    study = [v for loop in loops for v in loop.latencies["study"]]
    corpus = [v for loop in loops for v in loop.latencies["corpus"]]
    return {
        "serve_rps": statistics.median(
            loop.requests / loop.elapsed_s for loop in loops),
        "serve_p50_ms": percentile(study + corpus, 50) * 1e3,
        "serve_p99_ms": percentile(study + corpus, 99) * 1e3,
        "serve_study_p50_ms": percentile(study, 50) * 1e3,
        "serve_corpus_p50_ms": percentile(corpus, 50) * 1e3,
    }


def serve_loop(session: Session, seconds: float, tally: Tally) -> LoopResult:
    """A closed-loop burst of keep-alive connections.

    Each connection is a caller that sends its next request only when
    the previous reply has arrived.  Connection *k* takes sequence
    positions cursor + k, cursor + k + CONNECTIONS, ..., and the next
    burst resumes where this one stopped.  Study bodies are compared with
    the in-process payloads as they arrive; every QUERY_SAMPLE-th query
    reply is kept for :func:`check_queries`.
    """
    requests = session.requests
    expected = session.expected_study
    port = session.server.port
    latencies: list[dict[str, list[float]]] = []
    sampled: list[list[tuple[str, bytes]]] = []
    outcomes: list[list[tuple[bool, str]]] = []
    reached: list[int] = []
    deadline = time.perf_counter() + seconds

    def caller(slot: int) -> None:
        mine: dict[str, list[float]] = {"study": [], "corpus": []}
        kept: list[tuple[str, bytes]] = []
        bad: list[tuple[bool, str]] = []
        latencies.append(mine)
        sampled.append(kept)
        outcomes.append(bad)
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        position = session.cursor + slot
        try:
            while time.perf_counter() < deadline:
                target = requests[position % len(requests)]
                started = time.perf_counter()
                try:
                    connection.request("GET", target)
                    response = connection.getresponse()
                    body = response.read()
                except (OSError, http.client.HTTPException) as exc:
                    bad.append((False, f"{target}: {exc!r}"))
                    connection.close()
                    connection = http.client.HTTPConnection(
                        "127.0.0.1", port, timeout=60
                    )
                    position += CONNECTIONS
                    continue
                elapsed = time.perf_counter() - started
                kind = "study" if target.startswith("/study/") else "corpus"
                mine[kind].append(elapsed)
                if response.status != 200:
                    bad.append((False, f"{target}: HTTP {response.status}"))
                elif kind == "study":
                    ok = body == expected[target[len("/study/"):]]
                    bad.append((ok, f"{target}: body differs"))
                elif target.startswith("/corpus/query") and (
                    position // CONNECTIONS % QUERY_SAMPLE == 0
                ):
                    kept.append((target, body))
                else:
                    bad.append((True, ""))
                position += CONNECTIONS
        finally:
            connection.close()
            reached.append(position)

    threads = [threading.Thread(target=caller, args=(slot,))
               for slot in range(CONNECTIONS)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started

    session.cursor = max(reached)
    for per_caller in outcomes:
        for ok, problem in per_caller:
            tally.op(ok, problem)
    merged = {
        kind: [v for mine in latencies for v in mine[kind]]
        for kind in ("study", "corpus")
    }
    return LoopResult(elapsed_s=elapsed, latencies=merged,
                      sampled=[kept for each in sampled for kept in each])


def check_queries(session: Session, loops: list[LoopResult],
                  tally: Tally) -> None:
    """Compare kept query replies with an in-process ``CorpusStore.search``."""
    with CorpusStore(session.serve_store) as store:
        for loop in loops:
            for target, body in loop.sampled:
                terms = urllib.parse.parse_qs(
                    urllib.parse.urlsplit(target).query
                )["q"][0]
                hits = store.search(terms)
                reply = json.loads(body)
                tally.op(
                    reply["count"] == len(hits)
                    and [r["key"] for r in reply["results"]]
                    == [p.key for p in hits[:50]],
                    f"{target}: hits differ from CorpusStore.search",
                )


def serve_trace_metrics(loops: list[LoopResult], totals: dict[str, Any]
                        ) -> dict:
    """Per-layer serve metrics from the server's layer totals."""
    seconds = totals["seconds"]
    calls = totals["calls"]

    def per_call_ms(name: str) -> float:
        return seconds.get(name, 0.0) / calls[name] * 1e3 if calls.get(
            name) else 0.0

    dispatched = sum(
        seconds.get(f"serve.dispatch.{k}", 0.0) for k in ("study", "corpus")
    )
    client = sum(loop.latency_s for loop in loops)
    requests = sum(loop.requests for loop in loops)
    hits = calls.get("pipeline.cache.hit", 0)
    lookups = hits + calls.get("pipeline.cache.miss", 0)
    out = {
        "serve.shell.ms_per_req": (client - dispatched) / requests * 1e3,
        "serve.dispatch.ms_per_req.study": per_call_ms("serve.dispatch.study"),
        "serve.dispatch.ms_per_req.corpus": per_call_ms(
            "serve.dispatch.corpus"),
        "pipeline.cache.hit_ratio": hits / lookups if lookups else 0.0,
        "serve.store_lock.wait_ms": per_call_ms("serve.store_lock"),
    }
    for method in ("search", "by_year", "by_venue", "stats"):
        out[f"corpus.store.busy_ms.{method}"] = per_call_ms(
            f"corpus.store.{method}")
    return out


# -- harvest -------------------------------------------------------------------


@dataclass
class HarvestRun:
    ingest_s: float
    query_s: list[float]
    dedup_s: float
    pairs_scored: int
    dropped: int


def harvest_once(
    session: Session, run: int, tally: Tally, trace: layers.LayerTrace | None
) -> HarvestRun:
    """Ingest the harvest into a fresh store, query it, deduplicate it."""
    harvest = session.harvest
    where = session.workdir / f"harvest-{run}"
    where.mkdir()
    try:
        with ExitStack() as stack:
            store = stack.enter_context(CorpusStore(where / "c.sqlite3"))
            if trace is not None:
                stack.enter_context(layers.tracing(trace))
            started = time.perf_counter()
            report = store.ingest_bibtex(harvest.bibtex, batch_size=BATCH_SIZE)
            ingest_s = time.perf_counter() - started
            tally.op(report.ingested == harvest.records,
                     f"ingested {report.ingested} of {harvest.records}")
            query_s = []
            hits = []
            for query in session.queries:
                started = time.perf_counter()
                found = store.search(query)
                query_s.append(time.perf_counter() - started)
                hits.append(found)
            records = list(store)
            for index, (query, found) in enumerate(zip(session.queries, hits)):
                ok = index % QUERY_SAMPLE != 0 or [p.key for p in found] == [
                    p.key for p in Query(query).filter(records)
                ]
                tally.op(ok, f"search {query!r} differs from Query.filter")
            started = time.perf_counter()
            summary = store.deduplicate()
            dedup_s = time.perf_counter() - started
            leftover = [k for k in store.keys if k.startswith("dup-")]
            tally.op(
                not leftover and summary.dropped == harvest.duplicates,
                f"dedup dropped {summary.dropped} of {harvest.duplicates}, "
                f"{len(leftover)} dup- keys left",
            )
    finally:
        shutil.rmtree(where)
    return HarvestRun(ingest_s, query_s, dedup_s, summary.pairs_scored,
                      summary.dropped)


def harvest_metrics(runs: list[HarvestRun], records: int) -> dict[str, float]:
    return {
        "ingest_records_per_s": statistics.median(
            records / run.ingest_s for run in runs),
        "search_p50_ms": percentile(
            [s for run in runs for s in run.query_s], 50) * 1e3,
        "dedup_s": statistics.median(run.dedup_s for run in runs),
    }


def harvest_trace_metrics(runs: list[HarvestRun],
                          trace: layers.LayerTrace) -> dict[str, float]:
    """Per-layer ingest and dedup metrics, per harvest run."""
    def per_run(name: str) -> float:
        return trace.total(name) / len(runs)

    parse = per_run("corpus.bibtex.parse")
    scoring = per_run("corpus.dedup.scoring")
    merge = per_run("corpus.dedup.merge")
    return {
        "corpus.bibtex.parse_s": parse,
        "corpus.store.extend_s": per_run("corpus.store.extend") - parse,
        "corpus.dedup.blocking_s": per_run("corpus.dedup") - scoring - merge,
        "corpus.dedup.scoring_s": scoring,
        "corpus.dedup.merge_s": merge,
        "corpus.dedup.pairs_scored": runs[0].pairs_scored,
        "corpus.dedup.useful_ratio": runs[0].dropped / runs[0].pairs_scored,
    }


# -- sweeps --------------------------------------------------------------------


@dataclass
class SweepRun:
    mc_s: float
    stat_s: float
    result: Any
    stat_result: Any


def _cell_json(cell: Any) -> str:
    return json.dumps(cell.to_dict(), sort_keys=True)


def sweep_once(
    session: Session, tally: Tally, trace: layers.LayerTrace | None,
    *, workers: int = SWEEP_WORKERS,
) -> SweepRun:
    """The adaptive grid on a process pool, then the share-CI stat sweep."""
    spec = session.sweep_spec
    with layers.tracing(trace) if trace is not None else nullcontext():
        started = time.perf_counter()
        result = run_sweep(spec, workers=workers)
        mc_s = time.perf_counter() - started
        started = time.perf_counter()
        stat_result = run_stat_sweep(session.stat_spec)
        stat_s = time.perf_counter() - started
    for cell in result.cells:
        summary = cell.metrics[spec.primary_metric]
        half_width = CI_Z * summary.std / math.sqrt(summary.count)
        # The relative slack absorbs the last-digit difference between
        # this z and the engine's own constant, nothing more.
        tally.op(
            cell.replications == spec.replication_cap
            or half_width <= spec.target_ci * abs(summary.mean) * (1 + 1e-9),
            f"cell {cell.cell.cell_id} stopped before its target",
        )
    stat_spec = session.stat_spec
    for cell in stat_result.cells:
        tally.op(
            cell.draws == stat_spec.draw_cap or cell.se <= stat_spec.target_se,
            f"stat task {cell.name} stopped before its target",
        )
    return SweepRun(mc_s, stat_s, result, stat_result)


def check_serial_cells(
    session: Session, run: SweepRun, tally: Tally, cells: int
) -> None:
    """Re-run *cells* grid cells in-process and compare them bit for bit.

    A cell's replications depend only on the cell's identity, not on the
    grid around it, so a one-cell spec reproduces the cell exactly.
    """
    spec = session.sweep_spec
    workflows = {w.name: w for w in spec.workflows}
    step = max(1, len(run.result.cells) // cells)
    for cell in run.result.cells[::step][:cells]:
        one = dataclasses.replace(
            spec, workflows=(workflows[cell.cell.workflow],),
            schedulers=(cell.cell.scheduler,), mtbfs=(cell.cell.mtbf,),
            jitters=(cell.cell.jitter,), policies=(cell.cell.policy,),
        )
        serial = run_sweep(one, workers=0).cells[0]
        tally.op(_cell_json(serial) == _cell_json(cell),
                 f"cell {cell.cell.cell_id} differs from the serial run")


def sweep_metrics(runs: list[SweepRun]) -> dict[str, float]:
    return {
        "mc_sweep_s": statistics.median(run.mc_s for run in runs),
        "mc_replications_per_s": statistics.median(
            run.result.n_replications_run / run.mc_s for run in runs),
        "stat_sweep_s": statistics.median(run.stat_s for run in runs),
    }


def sweep_trace_metrics(
    session: Session, runs: list[SweepRun], trace: layers.LayerTrace,
    tally: Tally,
) -> dict[str, float]:
    """Per-layer sweep metrics of traced pool runs and a serial baseline.

    The baseline is the same spec run once with ``workers=0``; its cells
    must match the pool's bit for bit.  Compile and scheduling time come
    from the baseline, where every call runs in this process.
    """
    serial_trace = layers.LayerTrace()
    serial = sweep_once(session, tally, serial_trace, workers=0)
    for pooled, alone in zip(runs[0].result.cells, serial.result.cells):
        tally.op(_cell_json(pooled) == _cell_json(alone),
                 f"cell {pooled.cell.cell_id} differs from the serial run")
    replicate_s = serial.mc_s - sum(
        serial_trace.total(name)
        for name in ("continuum.compile", "continuum.scheduling", "mc.fold")
    )
    result = runs[0].result
    draws = runs[0].stat_result.n_replications_run
    return {
        # From the serial run: pool workers compile and schedule in their
        # own processes, out of reach of the parent's trace.
        "continuum.compile.s": serial_trace.total("continuum.compile"),
        "continuum.scheduling.s": serial_trace.total("continuum.scheduling"),
        "mc.replication_us": replicate_s / serial.result.n_replications_run
        * 1e6,
        "mc.parallel_efficiency": serial.mc_s / (
            SWEEP_WORKERS * statistics.median(run.mc_s for run in runs)),
        "mc.fold_s": trace.total("mc.fold") / len(runs),
        "mc.replications_run": result.n_replications_run,
        "mc.budget_fraction": result.n_replications_run
        / result.n_replications_budget,
        "stat.draws_run": draws,
        "stat.draw_us": statistics.median(run.stat_s for run in runs)
        / draws * 1e6,
    }


# -- rounds --------------------------------------------------------------------


@dataclass
class Round:
    serve: LoopResult
    harvest: HarvestRun
    sweep: SweepRun


def play_round(session: Session, index: int, tally: Tally,
               trace: layers.LayerTrace | None = None) -> Round:
    """One serve burst, one harvest and one sweep, in that order."""
    return Round(
        serve_loop(session, session.sizes.serve_s, tally),
        harvest_once(session, index, tally, trace),
        sweep_once(session, tally, trace),
    )


def round_metrics(session: Session, rounds: list[Round]) -> dict[str, float]:
    """Every end-to-end metric but set-up time and peak memory."""
    return {
        **serve_metrics([r.serve for r in rounds]),
        **harvest_metrics([r.harvest for r in rounds],
                          session.harvest.records),
        **sweep_metrics([r.sweep for r in rounds]),
    }


def overhead_metrics(base: list[Round], traced: list[Round]
                     ) -> dict[str, float]:
    """How much slower each phase ran with the layer shims installed."""
    def pct(traced_s: float, base_s: float) -> float:
        return (traced_s - base_s) / base_s * 100.0

    def harvest_s(r: Round) -> float:
        return r.harvest.ingest_s + sum(r.harvest.query_s) + r.harvest.dedup_s

    def latency_s(rounds: list[Round]) -> float:
        return (sum(r.serve.latency_s for r in rounds)
                / sum(r.serve.requests for r in rounds))

    return {
        "trace.overhead_pct.serve": pct(latency_s(traced), latency_s(base)),
        "trace.overhead_pct.harvest": pct(
            statistics.median(map(harvest_s, traced)),
            statistics.median(map(harvest_s, base))),
        "trace.overhead_pct.sweep": pct(
            statistics.median(r.sweep.mc_s + r.sweep.stat_s for r in traced),
            statistics.median(r.sweep.mc_s + r.sweep.stat_s for r in base)),
    }
