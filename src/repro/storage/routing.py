"""The shard routing catalog: persisted placement overrides + online rebalance.

The sharded store places every specification by a fixed CRC-32 of its name
(:func:`repro.storage.sharded.shard_of_spec`) and every run by the shard
encoded into its global id.  That static map is perfect until it is not:
one hot specification saturates its shard file while siblings idle.  This
module makes placement an *override-able catalog* without touching the
hash for anyone else:

* :class:`RoutingTable` — the persisted spec→shard and run→shard
  overrides (schema v4 tables ``shard_routing`` / ``run_routing``), held
  in shard 0 of the directory (the **catalog shard**) and mirrored into
  process memory.  A spec absent from the catalog keeps hashing exactly
  as before; a migrated run keeps its original global id (bit-identical
  answers require the visible ids to survive relocation), so its encoded
  shard is overridden by a ``run_routing`` row instead.
* :func:`migrate_spec` — the online ``rebalance`` maintenance path:
  under the source shard's write lock the spec's rows are **copied**
  verbatim (ids unchanged) into the target shard in one transaction, the
  routing entries are **flipped** in one catalog transaction, and only
  then are the source rows deleted.  WAL keeps concurrent readers
  unblocked throughout, and because the flip is atomic they serve
  bit-identical answers from whichever placement is current.
* :func:`recover_migrations` — crash repair.  Every migration writes a
  journal row (``shard_migrations``) before copying and deletes it after
  the source rows are gone.  A crash leaves the journal in one of two
  states: ``copying`` (the flip never committed — roll *back* by
  dropping the partial target copy) or ``flipped`` (the catalog already
  points at the target — roll *forward* by finishing the source delete).
  Either way exactly one valid placement survives; the store runs this
  on every open and after any failed migration.

The ``routing.migrate`` fault point fires between the copy commit and
the routing flip — the widest crash window — so chaos tests can kill a
migration exactly where both placements hold a full copy.
"""

from __future__ import annotations

import json
import sqlite3
from typing import TYPE_CHECKING, Optional

from repro.exceptions import StorageError
from repro.faults import fault_point, suppressed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.sharded import ShardedProvenanceStore

__all__ = [
    "RoutingTable",
    "migrate_spec",
    "recover_migrations",
]

#: the dependent tables copied (and source-deleted) with a spec's runs;
#: each is keyed by ``run_id``, so one ``IN (SELECT run_id ...)`` subquery
#: per table moves exactly the migrated rows
_RUN_TABLES = ("run_labels", "data_items", "data_consumers")


class RoutingTable:
    """Persisted placement overrides, mirrored in memory for hot-path reads.

    Backed by the catalog shard (shard 0 of the directory) over a
    **private** WAL connection with its own lock — catalog transactions
    must never nest inside a shard's write lock, because a migration out
    of shard 0 journals while holding exactly that lock.  Reads
    (:meth:`shard_of_spec`, :meth:`shard_of_run`) are lock-free
    dictionary lookups — the mirrors are replaced wholesale, and
    replacing a reference is atomic — so consulting the catalog before
    the hash costs one ``dict.get`` per routed operation.
    """

    def __init__(self, catalog_path) -> None:
        import threading

        from repro.storage.database import connect

        self._connection = connect(catalog_path, journal_mode="WAL")
        self._lock = threading.Lock()
        self._spec_overrides: dict[str, int] = {}
        self._run_overrides: dict[int, int] = {}
        self.reload()

    def close(self) -> None:
        """Close the private catalog connection (idempotent)."""
        try:
            self._connection.close()
        except sqlite3.Error:  # pragma: no cover - close is best-effort
            pass

    # ------------------------------------------------------------------
    # reads (the hot path)
    # ------------------------------------------------------------------
    def shard_of_spec(self, name: str) -> Optional[int]:
        """The overridden shard of specification *name* (``None`` = hash)."""
        return self._spec_overrides.get(name)

    def shard_of_run(self, run_id: int) -> Optional[int]:
        """The overridden shard of *run_id* (``None`` = id-encoded shard)."""
        if not self._run_overrides:
            return None
        return self._run_overrides.get(int(run_id))

    def entries(self) -> dict[str, int]:
        """A snapshot of every spec→shard override (for CLI / wire dumps)."""
        return dict(self._spec_overrides)

    @property
    def overridden_run_count(self) -> int:
        """How many runs live away from their id-encoded shard."""
        return len(self._run_overrides)

    def forget_run(self, run_id: int) -> None:
        """Drop a deleted run's override (ids are never reused, so this is
        pure housekeeping — a stale override could only name a gone run)."""
        run_id = int(run_id)
        if run_id not in self._run_overrides:
            return
        with self._lock, self._connection:
            self._connection.execute(
                "DELETE FROM run_routing WHERE run_id = ?", (run_id,)
            )
        run_overrides = dict(self._run_overrides)
        run_overrides.pop(run_id, None)
        self._run_overrides = run_overrides

    def reload(self) -> None:
        """Rebuild the in-memory mirrors from the catalog tables."""
        spec_rows = self._connection.execute(
            "SELECT spec_name, shard FROM shard_routing"
        ).fetchall()
        run_rows = self._connection.execute(
            "SELECT run_id, shard FROM run_routing"
        ).fetchall()
        self._spec_overrides = {
            row["spec_name"]: int(row["shard"]) for row in spec_rows
        }
        self._run_overrides = {int(row["run_id"]): int(row["shard"]) for row in run_rows}

    # ------------------------------------------------------------------
    # the migration journal
    # ------------------------------------------------------------------
    def journal_rows(self) -> list[sqlite3.Row]:
        """Every in-flight migration recorded in the catalog."""
        return self._connection.execute(
            "SELECT spec_name, spec_id, source, target, state, run_ids "
            "FROM shard_migrations ORDER BY spec_name"
        ).fetchall()

    def begin_migration(
        self, spec_name: str, spec_id: int, source: int, target: int, run_ids: list[int]
    ) -> None:
        """Journal a migration in state ``copying`` (before any row moves)."""
        with self._lock, self._connection:
            self._connection.execute(
                "INSERT INTO shard_migrations "
                "(spec_name, spec_id, source, target, state, run_ids) "
                "VALUES (?, ?, ?, ?, 'copying', ?)",
                (spec_name, int(spec_id), int(source), int(target), json.dumps(run_ids)),
            )

    def flip(self, spec_name: str, target: int, run_ids: list[int]) -> None:
        """Commit the new placement in **one** catalog transaction.

        The journal state, the spec override and every run override flip
        together — a reader resolving a run either sees the old placement
        (source rows still present) or the new one (target copy already
        committed), never a mix.
        """
        with self._lock, self._connection:
            self._connection.execute(
                "UPDATE shard_migrations SET state = 'flipped' WHERE spec_name = ?",
                (spec_name,),
            )
            self._connection.execute(
                "INSERT OR REPLACE INTO shard_routing (spec_name, shard) VALUES (?, ?)",
                (spec_name, int(target)),
            )
            self._connection.executemany(
                "INSERT OR REPLACE INTO run_routing (run_id, shard) VALUES (?, ?)",
                [(int(run_id), int(target)) for run_id in run_ids],
            )
        spec_overrides = dict(self._spec_overrides)
        spec_overrides[spec_name] = int(target)
        run_overrides = dict(self._run_overrides)
        for run_id in run_ids:
            run_overrides[int(run_id)] = int(target)
        # atomic reference swaps: concurrent readers see old or new, never half
        self._spec_overrides = spec_overrides
        self._run_overrides = run_overrides

    def clear_migration(self, spec_name: str) -> None:
        """Drop the journal row of a completed (or rolled-back) migration."""
        with self._lock, self._connection:
            self._connection.execute(
                "DELETE FROM shard_migrations WHERE spec_name = ?", (spec_name,)
            )


# ----------------------------------------------------------------------
# the online rebalance path
# ----------------------------------------------------------------------
def _copy_spec_rows(
    store: "ShardedProvenanceStore", spec_id: int, source: int, target: int
) -> None:
    """Copy one spec's rows from *source* into *target*, ids unchanged.

    One ``BEGIN IMMEDIATE`` transaction on the target shard: a crash
    mid-copy rolls the whole copy back inside SQLite, so the journal's
    ``copying`` state only ever has to undo a *committed* copy.  Global
    ids are unique across shards, so the rows land verbatim — every fetch
    helper works on the relocated rows unchanged.
    """
    source_connection = store._stores[source]._connection
    target_connection = store._stores[target]._connection
    spec_row = source_connection.execute(
        "SELECT spec_id, name, document, n_modules, n_edges, created_at "
        "FROM specifications WHERE spec_id = ?",
        (spec_id,),
    ).fetchone()
    if spec_row is None:  # pragma: no cover - checked by migrate_spec
        raise StorageError(f"no specification with id {spec_id} in shard {source}")
    run_rows = source_connection.execute(
        "SELECT run_id, spec_id, name, document, n_vertices, n_edges, "
        "spec_scheme, created_at FROM runs WHERE spec_id = ? ORDER BY run_id",
        (spec_id,),
    ).fetchall()
    dependents = {
        table: source_connection.execute(
            f"SELECT * FROM {table} WHERE run_id IN "  # noqa: S608 - fixed names
            "(SELECT run_id FROM runs WHERE spec_id = ?)",
            (spec_id,),
        ).fetchall()
        for table in _RUN_TABLES
    }
    with store._locks[target]:
        target_connection.execute("BEGIN IMMEDIATE")
        try:
            target_connection.execute(
                "INSERT INTO specifications "
                "(spec_id, name, document, n_modules, n_edges, created_at) "
                "VALUES (?, ?, ?, ?, ?, ?)",
                tuple(spec_row),
            )
            target_connection.executemany(
                "INSERT INTO runs (run_id, spec_id, name, document, n_vertices, "
                "n_edges, spec_scheme, created_at) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                [tuple(row) for row in run_rows],
            )
            for table, rows in dependents.items():
                if not rows:
                    continue
                placeholders = ", ".join("?" for _ in rows[0].keys())
                columns = ", ".join(rows[0].keys())
                target_connection.executemany(
                    f"INSERT INTO {table} ({columns}) VALUES ({placeholders})",  # noqa: S608
                    [tuple(row) for row in rows],
                )
            target_connection.execute("COMMIT")
        except BaseException:
            target_connection.execute("ROLLBACK")
            raise


def _delete_spec_rows(connection: sqlite3.Connection, spec_id: int) -> None:
    """Drop one spec's rows (runs cascade their labels and data rows)."""
    with connection:
        connection.execute("DELETE FROM runs WHERE spec_id = ?", (spec_id,))
        connection.execute("DELETE FROM specifications WHERE spec_id = ?", (spec_id,))


def _purge_shard_caches(shard_store, spec_id: int, run_ids: list[int]) -> None:
    """Evict a migrated spec from one shard store's in-memory caches."""
    shard_store._spec_cache.pop(spec_id, None)
    for cache in (shard_store._index_cache, shard_store._spec_kernel_cache):
        for key in [key for key in cache if key[0] == spec_id]:
            cache.pop(key, None)
    for run_id in run_ids:
        shard_store._stored_run_cache.pop(run_id, None)
        shard_store._engine_cache.pop(run_id, None)
    shard_store.invalidate_label_columns()


def migrate_spec(
    store: "ShardedProvenanceStore", name: str, target: Optional[int] = None
) -> dict:
    """Relocate every run of specification *name* onto shard *target*.

    ``target=None`` auto-picks the least-loaded shard (fewest runs,
    excluding the current one) — the ``split`` form of the maintenance
    path.  Returns a summary dict (spec, source, target, moved run
    count).  Rebalancing onto the current shard is a no-op.

    The source shard's write lock is held across copy → flip → delete, so
    ingest of the migrating spec cannot slip rows into the source behind
    the copy; readers take no locks and stay unblocked (WAL).  A failure
    anywhere runs :func:`recover_migrations` before re-raising, so the
    store is back to exactly one valid placement even without a reopen.
    """
    store._require_open()
    if store.shard_count < 2:
        raise StorageError("rebalance needs a store with at least 2 shards")
    source = store._routed_shard_of_spec(name)
    if target is None:
        loads = store._shard_run_counts()
        target = min(
            (shard for shard in range(store.shard_count) if shard != source),
            key=lambda shard: (loads[shard], shard),
        )
    target = int(target)
    if not 0 <= target < store.shard_count:
        raise StorageError(
            f"target shard {target} out of range; store has shards "
            f"0..{store.shard_count - 1}"
        )
    routing = store._routing
    with store._migration_lock, store._locks[source]:
        source_connection = store._stores[source]._connection
        row = source_connection.execute(
            "SELECT spec_id FROM specifications WHERE name = ?", (name,)
        ).fetchone()
        if row is None:
            raise StorageError(f"no specification named {name!r}")
        spec_id = int(row["spec_id"])
        if target == source:
            return {"specification": name, "source": source, "target": target, "moved_runs": 0}
        run_ids = [
            int(run_row["run_id"])
            for run_row in source_connection.execute(
                "SELECT run_id FROM runs WHERE spec_id = ? ORDER BY run_id", (spec_id,)
            ).fetchall()
        ]
        routing.begin_migration(name, spec_id, source, target, run_ids)
        try:
            _copy_spec_rows(store, spec_id, source, target)
            # the widest crash window: both shards hold a full copy and the
            # catalog still points at the source
            fault_point("routing.migrate")
            routing.flip(name, target, run_ids)
            _delete_spec_rows(source_connection, spec_id)
            routing.clear_migration(name)
        except BaseException:
            with suppressed():
                _recover_locked(store, hold_source=source)
            raise
        _purge_shard_caches(store._stores[source], spec_id, run_ids)
        store._note_shard_write(source)
        store._note_shard_write(target)
    # compact both shards: the copy filled the target's WAL and the delete
    # filled the source's.  Checkpointing here lets post-rebalance readers
    # (and replica snapshots) serve from the plain main file instead of
    # resolving every page through a migration-sized WAL.  Best-effort —
    # a long-lived reader snapshot can legally block truncation.
    for shard in (source, target):
        try:
            with store._locks[shard]:
                store._stores[shard]._connection.execute(
                    "PRAGMA wal_checkpoint(TRUNCATE)"
                )
        except sqlite3.Error:  # pragma: no cover - compaction is optional
            pass
    return {
        "specification": name,
        "source": source,
        "target": target,
        "moved_runs": len(run_ids),
    }


# ----------------------------------------------------------------------
# crash recovery
# ----------------------------------------------------------------------
def _recover_locked(store: "ShardedProvenanceStore", hold_source: Optional[int] = None):
    """Repair every journaled migration; *hold_source* is already locked."""
    routing = store._routing
    repaired: list[dict] = []
    for row in routing.journal_rows():
        spec_name = row["spec_name"]
        spec_id = int(row["spec_id"])
        source = int(row["source"])
        target = int(row["target"])
        state = row["state"]
        run_ids = [int(run_id) for run_id in json.loads(row["run_ids"])]
        if state == "copying":
            # the flip never committed: roll back by dropping the target copy
            with store._locks[target]:
                _delete_spec_rows(store._stores[target]._connection, spec_id)
            _purge_shard_caches(store._stores[target], spec_id, run_ids)
        else:
            # the catalog already points at the target: roll forward by
            # finishing the source delete
            if hold_source == source:
                _delete_spec_rows(store._stores[source]._connection, spec_id)
            else:
                with store._locks[source]:
                    _delete_spec_rows(store._stores[source]._connection, spec_id)
            _purge_shard_caches(store._stores[source], spec_id, run_ids)
        routing.clear_migration(spec_name)
        repaired.append(
            {
                "specification": spec_name,
                "state": state,
                "resolved_to": source if state == "copying" else target,
            }
        )
    if repaired:
        routing.reload()
    return repaired


def recover_migrations(store: "ShardedProvenanceStore") -> list[dict]:
    """Resolve every half-done migration to exactly one valid placement.

    Runs on store open (and after a failed :func:`migrate_spec`) with
    fault injection suppressed — recovery must never be re-killed by the
    rule that killed the migration it is repairing.
    """
    with suppressed(), store._migration_lock:
        return _recover_locked(store)
