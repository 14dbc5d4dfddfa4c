"""Tests of the benchmark's own machinery.

Run from the root of the repository::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

from types import SimpleNamespace

import inputs
import layers
import phases
import pytest

from repro.corpus.store import CorpusStore


def test_harvest_is_byte_identical_per_seed():
    assert inputs.harvest(300, 7).bibtex == inputs.harvest(300, 7).bibtex
    assert inputs.harvest(300, 7).bibtex != inputs.harvest(300, 8).bibtex


def test_harvest_injects_two_percent_duplicates():
    harvest = inputs.harvest(500, 3)
    assert harvest.duplicates == 10
    assert harvest.bibtex.count("@article{dup-") == 10
    assert harvest.bibtex.count("@article{") == 500


def test_request_sequence_and_queries_are_identical_per_seed():
    vocabulary = inputs.harvest(300, 1).vocabulary
    same = inputs.request_sequence(vocabulary, 1000, 5)
    assert same == inputs.request_sequence(vocabulary, 1000, 5)
    assert same != inputs.request_sequence(vocabulary, 1000, 6)
    queries = inputs.boolean_queries(vocabulary, 50, 5)
    assert queries == inputs.boolean_queries(vocabulary, 50, 5)
    assert queries != inputs.boolean_queries(vocabulary, 50, 6)


def test_request_mix_proportions():
    vocabulary = inputs.harvest(300, 1).vocabulary
    sequence = inputs.request_sequence(vocabulary, 20_000, 1)
    share = {
        prefix: sum(t.startswith(prefix) for t in sequence) / len(sequence)
        for prefix in ("/study/", "/corpus/query", "/corpus/by_", "/corpus/s")
    }
    assert share["/study/"] == pytest.approx(0.60, abs=0.02)
    assert share["/corpus/query"] == pytest.approx(0.35, abs=0.02)
    assert share["/corpus/by_"] + share["/corpus/s"] == pytest.approx(
        0.05, abs=0.01)


def test_tracing_wraps_every_target_and_restores_them():
    assert layers.wrapped_targets() == []
    with layers.tracing(layers.LayerTrace()):
        assert len(layers.wrapped_targets()) == len(
            layers._targets(layers.LayerTrace()))
    assert layers.wrapped_targets() == []


@pytest.mark.parametrize("traced", [False, True])
def test_shims_are_present_only_in_the_traced_harvest(
    traced, tmp_path, monkeypatch
):
    seen: list[list[str]] = []
    original = CorpusStore.deduplicate

    def spy(self, **kwargs):
        seen.append(layers.wrapped_targets())
        return original(self, **kwargs)

    monkeypatch.setattr(CorpusStore, "deduplicate", spy)
    harvest = inputs.harvest(200, 4)
    session = SimpleNamespace(
        harvest=harvest, workdir=tmp_path,
        queries=inputs.boolean_queries(harvest.vocabulary, 20, 4),
    )
    tally = phases.Tally()
    trace = layers.LayerTrace() if traced else None
    run = phases.harvest_once(session, 0, tally, trace)

    assert (tally.failed, tally.problems) == (0, [])
    assert tally.attempted == 1 + 20 + 1
    assert run.dropped == harvest.duplicates
    assert bool(seen[0]) is traced
    assert layers.wrapped_targets() == []
    if traced:
        assert trace.total("corpus.bibtex.parse") > 0
        assert trace.count("corpus.store.search") == 20
        assert trace.count("corpus.dedup") == 1


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert phases.percentile(values, 50) == 50.0
    assert phases.percentile(values, 99) == 99.0
    assert phases.percentile([3.0], 99) == 3.0


def test_server_reports_its_peak_memory_on_stop(tmp_path):
    store = tmp_path / "s.sqlite3"
    with CorpusStore(store) as corpus:
        corpus.ingest_bibtex(inputs.harvest(100, 2).bibtex)
    server = phases.ServerProcess(store, 2, None)
    server.stop()
    assert server.proc.returncode == 0
    assert server.peak_rss_kb > 10_000
    server.stop()  # a second stop is a no-op
