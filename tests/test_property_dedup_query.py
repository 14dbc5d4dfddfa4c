"""Property-based tests for deduplication and the query engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.dedup import find_duplicates, merge_cluster
from repro.corpus.publication import Publication
from repro.corpus.query import Query
from repro.corpus.store import CorpusStore
from repro.errors import QueryError

words = st.sampled_from(
    "workflow orchestration scheduling energy cloud edge hpc data stream "
    "placement migration analytics portable kernel notebook".split()
)
titles = st.lists(words, min_size=3, max_size=8, unique=True).map(" ".join)


class TestDedupProperties:
    @given(titles, st.integers(min_value=1990, max_value=2024),
           st.sampled_from(["upper", "truncate", "year"]))
    @settings(max_examples=60)
    def test_injected_mutation_always_detected(self, title, year, mutation):
        original = Publication(key="orig", title=title + ": extra subtitle",
                               year=year)
        if mutation == "upper":
            dup_title, dup_year = original.title.upper(), year
        elif mutation == "truncate":
            dup_title, dup_year = original.title.split(":")[0], year
        else:
            dup_title, dup_year = original.title, year + 1
        duplicate = Publication(key="dup", title=dup_title, year=dup_year)
        clusters = find_duplicates([original, duplicate])
        assert len(clusters) == 1
        assert {p.key for p in clusters[0]} == {"orig", "dup"}

    @given(st.lists(titles, min_size=2, max_size=8, unique=True))
    @settings(max_examples=40)
    def test_merge_preserves_one_record_per_cluster(self, unique_titles):
        pubs = [
            Publication(key=f"p{i}", title=f"{title} study number {i}",
                        year=2000 + i)
            for i, title in enumerate(unique_titles)
        ]
        clusters = find_duplicates(pubs)
        for cluster in clusters:
            merged = merge_cluster(cluster)
            assert merged.key in {p.key for p in cluster}

    @given(titles)
    def test_self_duplicate_found(self, title):
        a = Publication(key="a", title=title, year=2020)
        b = Publication(key="b", title=title, year=2020)
        assert len(find_duplicates([a, b])) == 1


    @given(
        st.lists(titles, min_size=1, max_size=4, unique=True),
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=3),
                      st.integers(min_value=2019, max_value=2022),
                      st.booleans(), st.booleans()),
            min_size=2, max_size=10,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_find_duplicates_clusters_equal_store_survivors(self, bases, rows):
        pubs = []
        for i, (base, year, shout, doi) in enumerate(rows):
            title = bases[base % len(bases)]
            pubs.append(Publication(
                key=f"p{i}", title=title.upper() if shout else title,
                year=year, doi=f"10.1000/{i}" if doi else "",
            ))
        clusters = find_duplicates(pubs)
        merged = {c[0].key: merge_cluster(c) for c in clusters}
        dropped = {pub.key for cluster in clusters for pub in cluster[1:]}
        expected = [merged.get(pub.key, pub) for pub in pubs
                    if pub.key not in dropped]

        store = CorpusStore()
        store.extend(pubs)
        summary = store.deduplicate()
        assert list(store) == expected
        assert summary.clusters == len(clusters)
        assert summary.dropped == len(dropped)


class TestQueryProperties:
    @given(words)
    def test_term_matches_itself(self, word):
        assert Query(word).matches_text(f"a study of {word} systems")

    @given(words, words)
    def test_and_implies_both(self, a, b):
        query = Query(f"{a} AND {b}")
        text_both = f"{a} meets {b}"
        assert query.matches_text(text_both)
        if a != b:
            assert not query.matches_text(f"only {a} here")

    @given(words, words)
    def test_or_superset_of_and(self, a, b):
        texts = [f"{a} only", f"{b} only", f"{a} and {b}", "neither thing"]
        and_hits = [t for t in texts if Query(f"{a} AND {b}").matches_text(t)]
        or_hits = [t for t in texts if Query(f"{a} OR {b}").matches_text(t)]
        assert set(and_hits) <= set(or_hits)

    @given(words)
    def test_double_negation_is_identity(self, word):
        texts = [f"{word} present", "absent entirely"]
        plain = [t for t in texts if Query(word).matches_text(t)]
        double = [t for t in texts
                  if Query(f"NOT NOT {word}").matches_text(t)]
        assert plain == double

    @given(words)
    def test_demorgan(self, word):
        other = "zzz"
        for text in (f"{word} here", f"{other} here", f"{word} {other}", "none"):
            lhs = Query(f"NOT ({word} OR {other})").matches_text(text)
            rhs = Query(f"NOT {word} AND NOT {other}").matches_text(text)
            assert lhs == rhs
