"""Reference oracle: rare-shingle blocking as SQLite temp tables.

This is the blocking the corpus store ran before
:func:`repro.corpus.dedup.candidate_pairs` replaced it: every
``(record, shingle)`` row in a temp table, each record's
``BLOCKING_KEYS`` rarest shingles picked by a ``ROW_NUMBER()`` window
ordered by ``(frequency, shingle)`` under SQLite's ``BINARY`` collation,
and the candidate pairs read from a ``DISTINCT`` self-join of shingles
against blocks.  The parity tests hold the numpy kernel to it.
"""

from __future__ import annotations

import sqlite3
from collections.abc import Collection, Sequence

from repro.corpus.dedup import BLOCKING_KEYS


def sql_candidate_pairs(
    shingle_sets: Sequence[Collection[str]],
) -> list[tuple[int, int]]:
    """Sorted ``(i, j)``, ``i < j``, candidate pairs of *shingle_sets*."""
    db = sqlite3.connect(":memory:")
    try:
        db.executescript(
            """
            CREATE TEMP TABLE dedup_shingles (
                pub_id INTEGER NOT NULL,
                shingle TEXT NOT NULL
            );
            """
        )
        db.executemany(
            "INSERT INTO dedup_shingles (pub_id, shingle) VALUES (?, ?)",
            (
                (pub_id, shingle)
                for pub_id, shingles in enumerate(shingle_sets)
                for shingle in shingles
            ),
        )
        db.executescript(
            f"""
            CREATE INDEX temp.idx_dedup_shingles_sh
                ON dedup_shingles(shingle);
            CREATE TEMP TABLE dedup_blocks AS
                SELECT pub_id, shingle FROM (
                    SELECT s.pub_id, s.shingle,
                           ROW_NUMBER() OVER (
                               PARTITION BY s.pub_id
                               ORDER BY f.c, s.shingle
                           ) AS rn
                    FROM dedup_shingles s
                    JOIN (
                        SELECT shingle, COUNT(*) AS c
                        FROM dedup_shingles GROUP BY shingle
                    ) f ON f.shingle = s.shingle
                ) WHERE rn <= {BLOCKING_KEYS};
            CREATE INDEX temp.idx_dedup_blocks_sh
                ON dedup_blocks(shingle);
            """
        )
        return sorted(
            db.execute(
                "SELECT DISTINCT min(s.pub_id, b.pub_id),"
                " max(s.pub_id, b.pub_id)"
                " FROM dedup_shingles s JOIN dedup_blocks b"
                " ON b.shingle = s.shingle AND s.pub_id != b.pub_id"
            )
        )
    finally:
        db.close()
