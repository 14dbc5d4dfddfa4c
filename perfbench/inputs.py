"""Seeded inputs for the benchmark workloads.

Everything the program receives is generated here from the workload
seed, so the same seed gives byte-identical inputs and another seed
gives other inputs.  The program itself never sees the seed.

The harvest generator follows the wide-vocabulary corpus of
``benchmarks/test_bench_corpus_scale.py``: titles drawn from a large
sampled vocabulary plus a unique per-record study tag, so rare-shingle
blocking stays selective the way it does on real titles, and the three
duplicate mutations of ``repro.data.synthetic`` (case folding, subtitle
truncation, off-by-one year) injected under ``dup-`` keys.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

_WORD_LEN = 7
DUP_FRACTION = 0.02  # share of a harvest injected as duplicates
_SURNAMES = (
    "Aldinucci", "Bianchi", "Colonnelli", "Danelutto", "Esposito",
    "Ferrari", "Greco", "Lombardi", "Marino", "Ricci", "Romano", "Torquati",
)
_VENUES = (
    "Future Generation Computer Systems", "IEEE TPDS", "JPDC",
    "Euro-Par", "CCGrid", "PDP", "Journal of Supercomputing",
)
STUDY_ENDPOINTS = ("table1", "table2", "fig2", "fig3", "fig4", "report")
AGGREGATE_ENDPOINTS = ("by_year", "by_venue", "stats")


@dataclass(frozen=True)
class Harvest:
    """A generated BibTeX harvest and what the checks need to know of it."""

    bibtex: str
    vocabulary: tuple[str, ...]
    records: int
    duplicates: int


def _study_tag(i: int) -> str:
    """Unique base-26 tag whose 4-gram shingles are unique per record."""
    return "".join(chr(97 + (i // 26**k) % 26) for k in range(6))


def _entry(key: str, title: str, author: str, year: int, venue: str) -> str:
    return (
        f"@article{{{key},\n"
        f"  title = {{{title}}},\n"
        f"  author = {{{author}}},\n"
        f"  year = {{{year}}},\n"
        f"  journal = {{{venue}}}\n"
        f"}}"
    )


def harvest(records: int, seed: int) -> Harvest:
    """A *records*-entry BibTeX harvest, ``DUP_FRACTION`` of it duplicates."""
    rng = random.Random(f"harvest:{seed}:{records}")
    vocab_size = max(records, 1000)
    vocabulary = tuple(
        "".join(chr(97 + rng.randrange(26)) for _ in range(_WORD_LEN))
        for _ in range(vocab_size)
    )
    n_dups = int(records * DUP_FRACTION)
    n_originals = records - n_dups
    entries: list[str] = []
    originals: list[tuple[str, str, int, str]] = []
    for i in range(n_originals):
        w = [vocabulary[rng.randrange(vocab_size)] for _ in range(5)]
        title = (
            f"{w[0]} {w[1]} {w[2]} for {w[3]} {w[4]}:"
            f" evidence from study {_study_tag(i)}"
        )
        author = f"{_SURNAMES[i % len(_SURNAMES)]}, {chr(65 + i % 26)}."
        year = 2005 + i % 19
        venue = _VENUES[i % len(_VENUES)]
        entries.append(_entry(f"syn-{i:06d}", title, author, year, venue))
        originals.append((title, author, year, venue))
    for j in range(n_dups):
        src = rng.randrange(n_originals)
        title, author, year, venue = originals[src]
        kind = j % 3
        if kind == 0:
            title = title.upper()
        elif kind == 1:
            title = title.split(":")[0]
        else:
            year += 1
        entries.append(
            _entry(f"dup-{j:05d}-of-syn-{src:06d}", title, author, year, venue)
        )
    return Harvest(
        bibtex="\n\n".join(entries),
        vocabulary=vocabulary,
        records=records,
        duplicates=n_dups,
    )


def boolean_queries(
    vocabulary: tuple[str, ...], count: int, seed: int
) -> list[str]:
    """*count* boolean queries mixing AND, OR, NOT and prefix terms."""
    rng = random.Random(f"queries:{seed}")
    shapes = (
        "{a} OR {b}",
        "({a} OR {b}) AND NOT {c}",
        "{p}* OR {a}",
        "{a} {b} OR {c}",
    )
    out = []
    for i in range(count):
        a, b, c = (vocabulary[rng.randrange(len(vocabulary))] for _ in range(3))
        out.append(shapes[i % len(shapes)].format(a=a, b=b, c=c, p=a[:4]))
    return out


def request_sequence(
    vocabulary: tuple[str, ...], length: int, seed: int
) -> list[str]:
    """The serve-mix request targets, in order.

    Built from shuffled blocks of 20 requests: 12 warm ``/study/*`` (each
    endpoint twice), 7 ``/corpus/query`` with two random vocabulary terms,
    and one ``/corpus/{by_year,by_venue,stats}``, taken in turn.  Every
    stretch of the sequence then holds the 60/35/5 mix almost exactly, so
    how far a closed loop gets into it does not change the work it sees.
    """
    rng = random.Random(f"requests:{seed}")
    out: list[str] = []
    block = 0
    while len(out) < length:
        batch = [f"/study/{name}" for name in STUDY_ENDPOINTS * 2]
        for _ in range(7):
            a = vocabulary[rng.randrange(len(vocabulary))]
            b = vocabulary[rng.randrange(len(vocabulary))]
            batch.append(f"/corpus/query?q={a}+OR+{b}")
        batch.append(
            f"/corpus/{AGGREGATE_ENDPOINTS[block % len(AGGREGATE_ENDPOINTS)]}"
        )
        rng.shuffle(batch)
        out += batch
        block += 1
    return out[:length]
