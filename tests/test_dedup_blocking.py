"""Parity of the numpy blocking kernel with the SQL temp-table oracle.

:func:`repro.corpus.dedup.candidate_pairs` must yield exactly the pair
set the SQLite blocking in :mod:`tests.sql_blocking` yields — sorted,
each pair once — on every input shape that can move the rare-shingle
choice: small and wide vocabularies, short and empty titles, records
with fewer shingles than ``BLOCKING_KEYS``, frequency ties broken by
non-ASCII code points, other shingle sizes, and corpora spanning more
than one pair chunk.
"""

import random

import pytest

from repro.corpus.dedup import (
    BLOCKING_KEYS,
    PAIR_CHUNK,
    candidate_pairs,
    title_shingles,
)
from repro.corpus.publication import normalize_title
from repro.data.synthetic import synthetic_corpus
from tests.sql_blocking import sql_candidate_pairs


def _kernel_pairs(shingle_sets):
    return [
        pair
        for left, right in candidate_pairs(shingle_sets)
        for pair in zip(left.tolist(), right.tolist())
    ]


def _assert_parity(shingle_sets):
    pairs = _kernel_pairs(shingle_sets)
    assert pairs == sorted(set(pairs))
    assert all(i < j for i, j in pairs)
    assert pairs == sql_candidate_pairs(shingle_sets)
    return pairs


def _shingled(titles, k=4):
    return [title_shingles(normalize_title(title), k) for title in titles]


def _wide_titles(records, seed):
    """Wide-vocabulary harvest titles with injected case/truncation dups."""
    rng = random.Random(seed)
    vocabulary = [
        "".join(chr(97 + rng.randrange(26)) for _ in range(7))
        for _ in range(max(records, 500))
    ]
    titles = []
    for i in range(records):
        if titles and rng.random() < 0.05:
            source = rng.choice(titles)
            titles.append(
                source.upper() if rng.random() < 0.5 else source.split(":")[0]
            )
            continue
        words = " ".join(rng.choice(vocabulary) for _ in range(5))
        titles.append(f"{words}: evidence from study {i:06d}")
    return titles


class TestKernelParity:
    @pytest.mark.parametrize("seed", [0, 3, 5, 11])
    def test_synthetic_corpus(self, seed):
        corpus = synthetic_corpus(300, seed=seed, duplicate_fraction=0.25)
        shingle_sets = [
            title_shingles(pub.normalized_title) for pub in corpus
        ]
        assert _assert_parity(shingle_sets)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_wide_vocabulary_harvest(self, seed):
        assert _assert_parity(_shingled(_wide_titles(600, seed)))

    @pytest.mark.parametrize("k", [3, 5])
    def test_other_shingle_sizes(self, k):
        corpus = synthetic_corpus(200, seed=k, duplicate_fraction=0.25)
        assert _assert_parity(_shingled([pub.title for pub in corpus], k))

    def test_empty_and_short_titles(self):
        titles = [
            "", "a", "ab c", "abcd", "abcd", "abcde", "", "x y", "ABCD!",
            "Workflow engines for the continuum", "workflow engines",
        ]
        shingle_sets = _shingled(titles)
        assert frozenset() in shingle_sets
        pairs = _assert_parity(shingle_sets)
        assert (3, 4) in pairs

    def test_fewer_shingles_than_blocking_keys(self):
        titles = ["workflow", "workflows", "WORKFLOW", "flow", "streamflow",
                  "stream", "dataflow", "workflow engines for streamflow"]
        shingle_sets = _shingled(titles)
        assert sum(len(s) < BLOCKING_KEYS for s in shingle_sets) == 7
        assert _assert_parity(shingle_sets)

    def test_ties_broken_by_code_point_order(self):
        # Records 0 and 1 share only "😀aaa".  Every shingle of record 0
        # is held by two records, so its blocking keys are its ten
        # smallest by code point: U+1F600 sorts after U+FF5E, so "😀aaa"
        # is left out (a UTF-16 order would put it first).  Record 1's
        # ten unique shingles are rarer, so it does not block on it
        # either, and the pair is not a candidate.
        tilde = [f"～a{chr(97 + i)}a" for i in range(10)]
        shingle_sets = [
            frozenset(tilde + ["😀aaa"]),
            frozenset(["😀aaa"] + [f"é{i:03d}" for i in range(10)]),
            frozenset(tilde),
        ]
        pairs = _assert_parity(shingle_sets)
        assert (0, 1) not in pairs
        assert (0, 2) in pairs

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_non_ascii_ties(self, seed):
        rng = random.Random(seed)
        alphabet = "azéΩ中～😀𝐀"
        pool = [
            "".join(rng.choice(alphabet) for _ in range(4)) for _ in range(120)
        ]
        shingle_sets = [
            frozenset(rng.sample(pool, rng.randrange(1, 20)))
            for _ in range(150)
        ]
        assert _assert_parity(shingle_sets)

    def test_pair_spanning_chunks_found_once(self):
        titles = _wide_titles(PAIR_CHUNK + 200, seed=9)
        titles[PAIR_CHUNK + 100] = titles[3].upper()
        shingle_sets = _shingled(titles)
        pairs = _assert_parity(shingle_sets)
        assert pairs.count((3, PAIR_CHUNK + 100)) == 1
        assert any(i >= PAIR_CHUNK for i, _ in pairs)

    @pytest.mark.parametrize(
        "shingle_sets",
        [[], [frozenset({"abcd"})], [frozenset()] * 3],
    )
    def test_nothing_to_pair(self, shingle_sets):
        assert _assert_parity(shingle_sets) == []
