"""SQLite connection management for the provenance store."""

from __future__ import annotations

import json
import sqlite3
import sys
from array import array
from collections.abc import Iterable
from pathlib import Path
from typing import Union

from repro.exceptions import StorageError
from repro.faults import fault_point
from repro.storage.schema import (
    SCHEMA_DROPPED_INDEXES,
    SCHEMA_INDEX_STATEMENTS,
    SCHEMA_MIGRATIONS,
    SCHEMA_STATEMENTS,
    SCHEMA_VERSION,
)

__all__ = [
    "connect",
    "initialize_schema",
    "CANONICAL_VERTEX_ORDER",
    "pack_edge_positions",
    "unpack_edge_positions",
    "LABEL_FETCH_CHUNK",
    "SQLITE_MAX_VARIABLE_NUMBER",
    "row_value_chunk",
    "iter_value_chunks",
]

PathLike = Union[str, Path]

#: how many (module, instance) executions one batched label SELECT resolves;
#: kept well under SQLite's default host-parameter limit (2 params each)
LABEL_FETCH_CHUNK = 400

#: SQLite's historical default for SQLITE_MAX_VARIABLE_NUMBER — the lowest
#: host-parameter limit a deployed SQLite is likely to enforce (3.32 raised
#: the default to 32766, but binaries built with the old limit are common)
SQLITE_MAX_VARIABLE_NUMBER = 999

#: the store's canonical handle order of one run's ``run_labels`` rows:
#: persisted interner ids first (for rows written since schema v2 a run's
#: ids are ``0 .. n-1``, so a row's position *is* its ``vertex_id``), then
#: legacy ``NULL``-id rows by ``(module, instance)``
CANONICAL_VERTEX_ORDER = "ORDER BY (vertex_id IS NULL), vertex_id, module, instance"

#: ``array`` typecode of the packed edge blobs in ``runs.document`` (a C
#: ``int``: 4 bytes on every supported platform)
EDGE_TYPECODE = "i"


def row_value_chunk(columns_per_row: int = 2, reserved: int = 1) -> int:
    """Largest row-value ``IN`` chunk whose parameters fit the SQLite limit.

    A chunk of ``k`` rows binds ``k * columns_per_row`` parameters plus
    *reserved* fixed ones (the ``run_id``).  The returned size is
    :data:`LABEL_FETCH_CHUNK` capped so that total never exceeds
    :data:`SQLITE_MAX_VARIABLE_NUMBER` — today's 2-column chunks of 400
    bind 801 parameters and pass untouched, but adding a column to the row
    value can no longer silently overflow the limit.
    """
    if columns_per_row < 1:
        raise ValueError("columns_per_row must be at least 1")
    if reserved < 0:
        raise ValueError("reserved must be non-negative")
    hard_cap = (SQLITE_MAX_VARIABLE_NUMBER - reserved) // columns_per_row
    if hard_cap < 1:
        raise ValueError(
            f"{columns_per_row} columns per row cannot fit SQLite's "
            f"{SQLITE_MAX_VARIABLE_NUMBER}-parameter limit"
        )
    return max(1, min(LABEL_FETCH_CHUNK, hard_cap))


def iter_value_chunks(values, *, columns_per_row: int = 1, reserved: int = 0):
    """Split *values* into ``IN``-list chunks under the host-parameter limit.

    The one chunking loop behind every batched ``IN`` in the store — the
    label fetches of ``_StoredRunIndex``, the streaming array loader, and
    the SQL pushdown's run/module lists all size their chunks here.  Yields
    ``(chunk, placeholders)`` pairs where *placeholders* is the ready-made
    fragment for the ``IN (...)`` clause: ``"?, ?, ?"`` for single-column
    values, ``"(?, ?), (?, ?)"`` row values otherwise (for use with
    ``IN (VALUES ...)``).
    """
    values = list(values)
    chunk_size = row_value_chunk(columns_per_row=columns_per_row, reserved=reserved)
    if columns_per_row == 1:
        template = "?"
    else:
        template = "(" + ", ".join("?" * columns_per_row) + ")"
    for start in range(0, len(values), chunk_size):
        chunk = values[start : start + chunk_size]
        yield chunk, ", ".join([template] * len(chunk))


def pack_edge_positions(positions: Iterable[int]) -> bytes:
    """Pack flattened ``(tail, head)`` vertex positions as a run-edge blob.

    The ``runs.document`` format since schema v5: little-endian int32
    pairs, each value a vertex's position in :data:`CANONICAL_VERTEX_ORDER`.
    """
    packed = array(EDGE_TYPECODE, positions)
    if sys.byteorder == "big":  # pragma: no cover - little-endian hosts
        packed.byteswap()
    return packed.tobytes()


def unpack_edge_positions(blob: bytes) -> array:
    """The flattened ``(tail, head)`` positions of a run-edge blob."""
    positions = array(EDGE_TYPECODE, blob)
    if sys.byteorder == "big":  # pragma: no cover - little-endian hosts
        positions.byteswap()
    return positions


def connect(
    path: PathLike = ":memory:", *, journal_mode: str = "MEMORY"
) -> sqlite3.Connection:
    """Open a SQLite connection with the pragmas the store relies on.

    ``path`` may be ``":memory:"`` for an ephemeral store.  Foreign keys are
    enforced and rows are returned as :class:`sqlite3.Row` so columns can be
    accessed by name.

    ``journal_mode`` defaults to the single-file store's in-memory rollback
    journal; the sharded store opens its shard files in ``"WAL"`` mode so an
    ingest worker committing a batch never blocks the concurrent readers of
    the parallel query executor (``synchronous=NORMAL`` is the recommended
    — and still durable-on-app-crash — pairing for WAL commits).  A busy
    timeout covers the brief write-lock handovers between the shard's main
    connection and its ingest workers.
    """
    if journal_mode.upper() not in ("MEMORY", "WAL", "DELETE", "TRUNCATE", "PERSIST", "OFF"):
        raise StorageError(f"unsupported journal mode {journal_mode!r}")
    try:
        # deterministic fault injection (sql-kind faults land in the
        # sqlite3.Error handler below, so callers see the usual typed
        # StorageError); see repro.faults
        fault_point("store.connect")
        # when the sqlite3 module serializes all access itself
        # (threadsafety 3, the norm on modern CPython builds), the store's
        # connections may be shared across threads — a sharded store's
        # readers then don't need a connection per thread; older builds
        # keep the per-thread guard
        connection = sqlite3.connect(
            str(path), check_same_thread=sqlite3.threadsafety < 3
        )
    except sqlite3.Error as exc:
        raise StorageError(f"could not open provenance database {path!r}: {exc}") from exc
    connection.row_factory = sqlite3.Row
    connection.execute("PRAGMA foreign_keys = ON")
    connection.execute(f"PRAGMA journal_mode = {journal_mode.upper()}")
    if journal_mode.upper() == "WAL":
        connection.execute("PRAGMA synchronous = NORMAL")
    connection.execute("PRAGMA busy_timeout = 30000")
    return connection


def initialize_schema(connection: sqlite3.Connection) -> None:
    """Create all tables and indexes; safe to call on an existing database.

    Databases written by earlier schema versions are migrated in place:
    columns added since (see :data:`~repro.storage.schema.SCHEMA_MIGRATIONS`)
    are ``ALTER TABLE``-ed on, with ``NULL`` for pre-existing rows, and
    indexes retired since (:data:`~repro.storage.schema.SCHEMA_DROPPED_INDEXES`)
    are dropped.  Run graphs stored as JSON documents (schema v4 and
    earlier) are re-encoded as packed edge blobs (schema v5); the
    conversion and the version stamp commit in one transaction, so a
    failed conversion leaves every document and the stamp as they were.
    """
    try:
        with connection:
            for statement in SCHEMA_STATEMENTS:
                connection.execute(statement)
            for table, column, declaration in SCHEMA_MIGRATIONS:
                existing = {
                    row[1]
                    for row in connection.execute(f"PRAGMA table_info({table})")
                }
                if column not in existing:
                    connection.execute(
                        f"ALTER TABLE {table} ADD COLUMN {column} {declaration}"
                    )
            # index statements covering migrated columns must come after the
            # ALTER TABLEs so a version-1 database migrates cleanly
            for statement in SCHEMA_INDEX_STATEMENTS:
                connection.execute(statement)
            for name in SCHEMA_DROPPED_INDEXES:
                connection.execute(f"DROP INDEX IF EXISTS {name}")
            _pack_legacy_run_documents(connection)
            connection.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES ('schema_version', ?)",
                (str(SCHEMA_VERSION),),
            )
    except sqlite3.Error as exc:
        raise StorageError(f"could not initialize provenance schema: {exc}") from exc


def _pack_legacy_run_documents(connection: sqlite3.Connection) -> None:
    """Schema v5: convert every JSON run document to a packed edge blob.

    Edges are mapped through the run's :data:`CANONICAL_VERTEX_ORDER`, the
    same positions the write path packs, so a converted run reads back
    through the one blob decoder.  Only ``text`` documents are touched,
    which makes the upgrade idempotent; a document whose vertices or edges
    disagree with the run's label rows raises
    :class:`~repro.exceptions.StorageError` naming the run.
    """
    legacy = connection.execute(
        "SELECT run_id FROM runs WHERE typeof(document) = 'text' ORDER BY run_id"
    ).fetchall()
    for (run_id,) in legacy:
        document, n_edges = connection.execute(
            "SELECT document, n_edges FROM runs WHERE run_id = ?", (run_id,)
        ).fetchone()
        position_of = {
            (module, instance): position
            for position, (module, instance) in enumerate(
                connection.execute(
                    "SELECT module, instance FROM run_labels WHERE run_id = ? "
                    + CANONICAL_VERTEX_ORDER,
                    (run_id,),
                )
            )
        }
        try:
            payload = json.loads(document)
            vertices = {(module, int(instance)) for module, instance in payload["vertices"]}
            positions = [
                position_of[(module, int(instance))]
                for edge in payload["edges"]
                for module, instance in edge
            ]
        except (ValueError, KeyError, TypeError) as exc:
            raise StorageError(
                f"run {run_id}: cannot convert its JSON document to an edge "
                f"blob ({exc!r})"
            ) from exc
        if vertices != position_of.keys() or len(positions) != 2 * n_edges:
            raise StorageError(
                f"run {run_id}: its JSON document names {len(vertices)} "
                f"vertices and {len(positions) // 2} edges, but the store holds "
                f"{len(position_of)} labeled vertices and {n_edges} edges"
            )
        connection.execute(
            "UPDATE runs SET document = ? "
            "WHERE run_id = ? AND typeof(document) = 'text'",
            (pack_edge_positions(positions), run_id),
        )
