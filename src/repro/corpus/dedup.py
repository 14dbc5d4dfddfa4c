"""Near-duplicate detection for bibliographic corpora.

Merging exports from several databases (Scopus, WoS, DBLP, ...) yields
duplicate records with slightly different titles.  The deduplicator blocks
candidates cheaply, scores them with title similarity, and clusters matches
with a union-find structure:

1. **Blocking** — records sharing one of their *rarest* normalized-title
   4-gram shingles land in the same block; only within-block pairs are
   scored.  Indexing only the rare shingles (rather than all of them) keeps
   block sizes small — ubiquitous shingles like ``tion`` would otherwise
   put most of the corpus into one block and reintroduce the O(n²)
   all-pairs comparison.  True near-duplicates share the large majority of
   their shingles, so they share rare ones too.  :func:`candidate_pairs`
   computes the blocking exactly, as one numpy kernel over integer
   shingle ids, and streams the pairs in bounded record chunks.
2. **Scoring** — two complementary measures over title shingles: Jaccard
   similarity (catches spelling/case variants) and containment
   (``|A∩B| / min(|A|,|B|)``, catches subtitle truncation where one title
   is a prefix of the other), gated by year compatibility (missing years
   are compatible with everything).
3. **Clustering** — union-find over pairs passing either measure.

Blocking is exact rather than MinHash-LSH on purpose: LSH bands tuned for
the Jaccard threshold miss subtitle-truncated pairs, which merge on
containment while their Jaccard similarity sits far below the threshold.
"""

from __future__ import annotations

from collections.abc import Collection, Iterator, Sequence
from itertools import chain

import numpy as np

from repro.corpus.publication import Publication
from repro.errors import CorpusError

__all__ = [
    "BLOCKING_KEYS",
    "DuplicateCluster",
    "PAIR_CHUNK",
    "candidate_pairs",
    "find_duplicates",
    "merge_cluster",
    "pair_similarity",
    "title_shingles",
    "validate_dedup_params",
    "years_compatible",
]

#: Rare shingles indexed per record by the blocking stage.
BLOCKING_KEYS = 10

#: Records per chunk of :func:`candidate_pairs`.  A chunk's pairs are
#: expanded, deduplicated and handed out before the next chunk starts, so
#: working memory follows the chunk, not the corpus-wide pair count.
PAIR_CHUNK = 1024


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:  # path compression
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1


def title_shingles(normalized_title: str, k: int = 4) -> frozenset[str]:
    """Character *k*-gram shingles of a normalized title."""
    text = normalized_title.replace(" ", "_")
    if len(text) <= k:
        return frozenset((text,)) if text else frozenset()
    return frozenset(text[i : i + k] for i in range(len(text) - k + 1))


def candidate_pairs(
    shingle_sets: Sequence[Collection[str]],
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Stream the blocked candidate pairs of a corpus.

    Each record's *blocking keys* are its ``BLOCKING_KEYS`` rarest
    shingles: fewest records holding the shingle first, ties broken by
    the code-point order of the shingle strings (which is also SQLite's
    ``BINARY`` order on UTF-8 text).  Records ``i < j`` are a candidate
    pair when a shingle of one is a blocking key of the other.

    Parameters
    ----------
    shingle_sets:
        One shingle set per record, as from :func:`title_shingles`.

    Yields
    ------
    (left, right)
        Record-index arrays, one chunk per ``PAIR_CHUNK`` records of
        ``left``.  Every pair appears exactly once, with
        ``left < right``, and the concatenated stream is sorted.
    """
    n = len(shingle_sets)
    sizes = np.fromiter(map(len, shingle_sets), np.int64, count=n)
    total = int(sizes.sum())
    if n < 2 or total == 0:
        return
    # Each spent array is dropped at once: at 100k records one int64
    # entry per shingle is ~50 MB, against the 100k benchmark's 512 MB
    # heap gate.
    # Shingle ids follow the code-point order of the strings, so integer
    # order reproduces the string tie-break.
    vocabulary = sorted(dict.fromkeys(chain.from_iterable(shingle_sets)))
    n_codes = len(vocabulary)
    ids = dict(zip(vocabulary, range(n_codes)))
    del vocabulary
    codes = np.fromiter(
        map(ids.__getitem__, chain.from_iterable(shingle_sets)),
        np.int32,
        count=total,
    )
    del ids
    owner = np.repeat(np.arange(n, dtype=np.int32), sizes)
    offsets = np.zeros(n + 1, np.int64)
    np.cumsum(sizes, out=offsets[1:])
    frequency = np.bincount(codes, minlength=n_codes)

    # Rank every shingle by (frequency, code) once; one sort of the
    # owner-major rank keys then lists each record's rarest shingles first.
    by_rarity = np.lexsort((np.arange(n_codes), frequency)).astype(np.int32)
    rarity = np.empty(n_codes, np.int32)
    rarity[by_rarity] = np.arange(n_codes, dtype=np.int32)
    ranked = owner.astype(np.int64)
    ranked *= n_codes
    ranked += rarity[codes]
    ranked.sort()
    del rarity
    block_sizes = np.minimum(sizes, BLOCKING_KEYS)
    block_offsets = np.zeros(n + 1, np.int64)
    np.cumsum(block_sizes, out=block_offsets[1:])
    ranked = ranked[
        np.repeat(offsets[:-1] - block_offsets[:-1], block_sizes)
        + np.arange(block_offsets[-1])
    ]
    block_codes = by_rarity[ranked % n_codes]
    block_postings = _postings(block_codes, ranked // n_codes, n, n_codes)
    del ranked, by_rarity
    full_postings = _postings(codes, owner, n, n_codes)
    del owner

    for first in range(0, n, PAIR_CHUNK):
        last = min(first + PAIR_CHUNK, n)
        rows = np.arange(first, last)
        pairs = np.concatenate((
            # The chunk's full shingles against other records' blocks ...
            _partners(
                *block_postings,
                codes[offsets[first]:offsets[last]],
                np.repeat(rows, sizes[first:last]),
                n,
            ),
            # ... and the chunk's blocks against other records' shingles.
            _partners(
                *full_postings,
                block_codes[block_offsets[first]:block_offsets[last]],
                np.repeat(rows, block_sizes[first:last]),
                n,
            ),
        ))
        pairs.sort()
        pairs = pairs[np.diff(pairs, prepend=-1) != 0]
        if len(pairs):
            yield pairs // n, pairs % n


def _postings(
    codes: np.ndarray, owners: np.ndarray, n: int, n_codes: int
) -> tuple[np.ndarray, np.ndarray]:
    """CSR posting lists of *codes* held by *owners*.

    Returns every code's owners, ascending and grouped by code, and the
    ``n_codes + 1`` offsets where each code's group starts.
    """
    keys = codes.astype(np.int64)
    keys *= n
    keys += owners
    keys.sort()
    starts = np.searchsorted(keys, np.arange(n_codes + 1, dtype=np.int64) * n)
    np.remainder(keys, n, out=keys)
    return keys.astype(np.int32), starts


def _partners(
    owners: np.ndarray,
    starts: np.ndarray,
    codes: np.ndarray,
    rows: np.ndarray,
    n: int,
) -> np.ndarray:
    """Pair keys ``row * n + j`` for every posting ``j > row`` of each code."""
    first = starts[codes]
    counts = starts[codes + 1] - first
    index = np.repeat(first - np.cumsum(counts) + counts, counts)
    index += np.arange(len(index))
    partners = owners[index]
    left = np.repeat(rows, counts)
    keep = partners > left
    return left[keep] * n + partners[keep]


def years_compatible(a: int | None, b: int | None, slack: int = 1) -> bool:
    """Whether two publication years may belong to the same work.

    Missing years are compatible with everything; otherwise the absolute
    difference must be within *slack* (preprint vs camera-ready).
    """
    if a is None or b is None:
        return True
    return abs(a - b) <= slack


def pair_similarity(
    sa: frozenset[str], sb: frozenset[str]
) -> tuple[float, float]:
    """(Jaccard, containment) similarity of two shingle sets.

    Containment is ``|A∩B| / min(|A|, |B|)`` — the subtitle-truncation
    detector.  Either set empty yields ``(0.0, 0.0)``.
    """
    if not sa or not sb:
        return 0.0, 0.0
    intersection = len(sa & sb)
    return (
        intersection / len(sa | sb),
        intersection / min(len(sa), len(sb)),
    )


def validate_dedup_params(
    threshold: float, containment_threshold: float, shingle_size: int
) -> None:
    """Validate shared dedup knobs (raises :class:`CorpusError`)."""
    if not 0 < threshold <= 1:
        raise CorpusError(f"threshold must be in (0, 1], got {threshold}")
    if not 0 < containment_threshold <= 1:
        raise CorpusError(
            f"containment_threshold must be in (0, 1], got {containment_threshold}"
        )
    if shingle_size < 2:
        raise CorpusError(f"shingle_size must be >= 2, got {shingle_size}")


DuplicateCluster = tuple[Publication, ...]


def find_duplicates(
    publications: Sequence[Publication],
    *,
    threshold: float = 0.75,
    containment_threshold: float = 0.9,
    shingle_size: int = 4,
    year_slack: int = 1,
) -> list[DuplicateCluster]:
    """Cluster near-duplicate records.

    Parameters
    ----------
    publications:
        The corpus to scan.
    threshold:
        Minimum shingle-Jaccard similarity for a match (case/spelling
        variants).
    containment_threshold:
        Minimum shingle containment ``|A∩B| / min(|A|,|B|)`` for a match
        (subtitle truncation); a pair merges when *either* measure passes.
    shingle_size:
        Character n-gram size for title shingling.
    year_slack:
        Maximum year difference still considered the same work (preprint
        vs. camera-ready).

    Returns
    -------
    list of tuples
        One tuple per duplicate cluster (size >= 2), records in input
        order; singletons are omitted.
    """
    validate_dedup_params(threshold, containment_threshold, shingle_size)
    n = len(publications)
    if n < 2:
        return []

    shingle_sets = [
        title_shingles(pub.normalized_title, shingle_size)
        for pub in publications
    ]

    union_find = _UnionFind(n)
    for left, right in candidate_pairs(shingle_sets):
        for i, j in zip(left.tolist(), right.tolist()):
            if not years_compatible(
                publications[i].year, publications[j].year, year_slack
            ):
                continue
            jac, containment = pair_similarity(
                shingle_sets[i], shingle_sets[j]
            )
            if jac >= threshold or containment >= containment_threshold:
                union_find.union(i, j)

    clusters: dict[int, list[int]] = {}
    for i in range(n):
        clusters.setdefault(union_find.find(i), []).append(i)
    return [
        tuple(publications[i] for i in members)
        for members in clusters.values()
        if len(members) >= 2
    ]


def merge_cluster(cluster: DuplicateCluster) -> Publication:
    """Merge a duplicate cluster into one best record.

    Field policy: keep the record with the most metadata as the base, then
    fill every missing field from the others (longest abstract wins, author
    list of the base wins, keywords are unioned).
    """
    if not cluster:
        raise CorpusError("cannot merge an empty cluster")

    def richness(pub: Publication) -> int:
        return sum(
            bool(field)
            for field in (
                pub.abstract, pub.doi, pub.url, pub.venue,
                pub.authors, pub.year, pub.keywords,
            )
        )

    base = max(cluster, key=richness)
    abstract = max((p.abstract for p in cluster), key=len)
    keywords: dict[str, None] = {}
    for pub in cluster:
        for keyword in pub.keywords:
            keywords.setdefault(keyword, None)
    return Publication(
        key=base.key,
        title=base.title,
        authors=base.authors or next(
            (p.authors for p in cluster if p.authors), ()
        ),
        year=base.year if base.year is not None else next(
            (p.year for p in cluster if p.year is not None), None
        ),
        venue=base.venue or next((p.venue for p in cluster if p.venue), ""),
        abstract=abstract,
        doi=base.doi or next((p.doi for p in cluster if p.doi), ""),
        url=base.url or next((p.url for p in cluster if p.url), ""),
        keywords=tuple(keywords),
        kind=base.kind,
        language=base.language,
    )
