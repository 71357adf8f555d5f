"""Columnar run labels and the store's resident label-column cache.

A cross-run query asks the same question of every run of a specification,
and the Algorithm 3 predicate answers it in constant time per row once a
run's labels are in memory.  The expensive part is getting them there: a
SQL scan plus a row-to-column transpose per run.  This module holds the
query-ready form of one run's labels (:class:`RunLabelArrays`), the loader
that builds it from ``run_labels`` rows (:func:`load_label_arrays`), and
:class:`LabelColumnCache`, the bounded cache a store keeps them in between
queries.

The cache follows the maintain-under-updates pattern rather than
rebuild-per-query: entries stay resident until a write makes them stale.
The owning store drops a run's entry on its own writes (``delete_run``,
``update_run_labels``, migrations), and :meth:`LabelColumnCache.sync`
drops everything once ``PRAGMA data_version`` shows that another
connection — another process, or a sharded store's writer connections —
committed to the file.
"""

from __future__ import annotations

import sqlite3
import threading
from array import array
from collections import OrderedDict
from typing import Optional, Sequence

from repro.engine.kernels import ModuleColumn, ModuleTable
from repro.faults import fault_point
from repro.storage.database import iter_value_chunks

try:  # numpy accelerates the label columns but is strictly optional
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only on numpy-less installs
    _np = None

__all__ = [
    "LABEL_COLUMN_CACHE_ROWS",
    "LabelColumnCache",
    "RunLabelArrays",
    "load_label_arrays",
]

#: how many label rows one store keeps resident across all cached runs.
#: A cached row costs ~52 bytes with numpy (int64 q1/q2/q3/instance, an
#: int32 module code, and the int64 key + order arrays a cross-run batch
#: builds lazily), so the budget holds the cache under ~64 MB, the same
#: order as the STORED_RUN_CACHE_LIMIT engines.  Beyond it the
#: least-recently-read run is evicted.
LABEL_COLUMN_CACHE_ROWS = 1 << 20


def _readonly(values):
    if _np is not None:
        values.setflags(write=False)
    return values


class RunLabelArrays:
    """One stored run's label columns, in persisted-handle order.

    ``q1``/``q2``/``q3`` and ``instances`` are int64 columns (numpy arrays,
    read-only, when numpy is installed; ``array('q')`` otherwise) and
    ``modules`` is the origin-module column dictionary-encoded as a
    :class:`~repro.engine.kernels.ModuleColumn`.  No per-row Python tuple
    or string is stored: ``(module, instance)`` executions are built only
    for the rows a query returns (:meth:`executions_at`).  Row order
    follows the persisted interner (the ``vertex_id`` column), like every
    other handle surface.
    """

    __slots__ = ("run_id", "q1", "q2", "q3", "instances", "modules", "_keys")

    def __init__(self, run_id, q1, q2, q3, instances, modules: ModuleColumn) -> None:
        self.run_id = run_id
        self.q1 = q1
        self.q2 = q2
        self.q3 = q3
        self.instances = instances
        self.modules = modules
        self._keys = None

    def __len__(self) -> int:
        return len(self.instances)

    @property
    def executions(self) -> list[tuple[str, int]]:
        """Every ``(module, instance)`` execution, in row order."""
        return self.executions_at(range(len(self)))

    @property
    def origins(self) -> list[str]:
        """Every row's origin module name, in row order."""
        return list(self.modules)

    def executions_at(self, rows) -> list[tuple[str, int]]:
        """The ``(module, instance)`` executions of *rows*, in that order."""
        names = self.modules.table.names
        if _np is not None:
            rows = _np.asarray(rows, dtype=_np.int64)
            codes = self.modules.codes[rows].tolist()
            instances = self.instances[rows].tolist()
            return list(zip(map(names.__getitem__, codes), instances))
        codes = self.modules.codes
        return [(names[codes[row]], self.instances[row]) for row in rows]

    def anchor_row(self, execution: tuple) -> Optional[int]:
        """The row of *execution*, or ``None`` when the run never ran it."""
        module, instance = execution
        code = self.modules.table.code_of.get(module)
        if code is None:
            return None
        if _np is not None:
            hits = _np.flatnonzero(
                (self.modules.codes == code) & (self.instances == instance)
            )
            return int(hits[0]) if len(hits) else None
        low, span, row_of = self._key_index()
        if not low <= instance < low + span:
            return None
        return row_of.get(code * span + instance - low)

    def pair_rows(self, codes, instances):
        """Rows of executions given as parallel code / instance columns.

        *codes* must be encoded against this column's table
        (:meth:`~repro.engine.kernels.ModuleTable.encode`, ``-1`` for
        unknown modules).  Returns
        one row per slot, or ``None`` when any execution is missing from
        the run.  With numpy this is one ``searchsorted`` over the run's
        sorted key array (built on first use and kept with the entry).
        """
        low, span, index = self._key_index()
        if _np is not None:
            sorted_keys, order = index
            valid = (codes >= 0) & (instances >= low) & (instances < low + span)
            if not len(sorted_keys) or not valid.all():
                return None
            query = codes * span + (instances - low)
            slots = _np.minimum(
                _np.searchsorted(sorted_keys, query), len(sorted_keys) - 1
            )
            if not (sorted_keys[slots] == query).all():
                return None
            return order[slots]
        rows = []
        for code, instance in zip(codes, instances):
            row = (
                index.get(code * span + instance - low)
                if code >= 0 and low <= instance < low + span
                else None
            )
            if row is None:
                return None
            rows.append(row)
        return rows

    def _key_index(self):
        """``(low, span, index)`` over ``code * span + instance - low`` keys.

        With numpy *index* is ``(sorted_keys, order)``; without it, a
        key → row dict.  Built once per entry; concurrent first uses build
        identical values, so the unguarded publish is benign.
        """
        keys = self._keys
        if keys is not None:
            return keys
        instances = self.instances
        if len(instances):
            low, high = (
                (instances.min(), instances.max())
                if _np is not None
                else (min(instances), max(instances))
            )
            low, span = int(low), int(high) - int(low) + 1
        else:
            low, span = 0, 1
        codes = self.modules.codes
        if _np is not None:
            raw = codes.astype(_np.int64) * span + (instances - low)
            order = _np.argsort(raw, kind="stable")
            index = (_readonly(raw[order]), _readonly(order))
        else:
            index = {
                code * span + instance - low: row
                for row, (code, instance) in enumerate(zip(codes, instances))
            }
        keys = self._keys = (low, span, index)
        return keys


def load_label_arrays(
    connection: sqlite3.Connection,
    run_ids: Sequence[int],
    table: Optional[ModuleTable] = None,
) -> dict[int, RunLabelArrays]:
    """Fetch many runs' label columns over *connection*, one scan per chunk.

    The connection-agnostic loader behind
    :meth:`~repro.storage.store.ProvenanceStore.run_label_arrays_many`
    (which caches what it returns) and behind the parallel executor's
    worker tasks (which call it over their own read-only connections).
    Each chunk of runs is one ``run_id IN`` query ordered by ``(run_id,
    vertex_id)``, transposed once and sliced at the run boundaries into
    per-run columns.  Module names are encoded against *table* — pass a
    spec kernel's ``module_table`` so its kernel reads the codes as
    matrix positions — grown by any module it lacks.  Run ids without
    rows yield empty columns; existence policy is the caller's.
    """
    fault_point("store.load_label_arrays")
    distinct = list(dict.fromkeys(int(run_id) for run_id in run_ids))
    if table is None:
        table = ModuleTable(())
    arrays: dict[int, RunLabelArrays] = {}
    for chunk, placeholders in iter_value_chunks(distinct, columns_per_row=1):
        cursor = connection.execute(
            # the skeleton column is not fetched: the store persists the
            # origin module name there (see add_labeled_run), so the
            # module column already carries every origin a sweep needs
            "SELECT run_id, module, instance, q1, q2, q3 FROM run_labels "
            f"WHERE run_id IN ({placeholders}) "
            "ORDER BY run_id, (vertex_id IS NULL), vertex_id, module, instance",
            chunk,
        )
        # plain tuples instead of sqlite3.Row: skip the per-row wrapper
        cursor.row_factory = None
        rows = cursor.fetchall()
        if rows:
            # one C-level transpose per chunk
            rid_col, modules, instances, q1_col, q2_col, q3_col = zip(*rows)
        else:
            rid_col = modules = instances = q1_col = q2_col = q3_col = ()
        try:
            codes = _encode(table, modules)
        except KeyError:
            table = table.extended(modules)
            codes = _encode(table, modules)
        columns = [
            _int64_column(column) for column in (q1_col, q2_col, q3_col, instances)
        ]
        bounds = _run_bounds(rid_col)
        for run_id in chunk:
            lo, hi = bounds(run_id)
            q1, q2, q3, run_instances = (_slice(column, lo, hi) for column in columns)
            arrays[run_id] = RunLabelArrays(
                run_id,
                q1,
                q2,
                q3,
                run_instances,
                ModuleColumn(_slice(codes, lo, hi), table),
            )
    return arrays


def _encode(table: ModuleTable, modules):
    if _np is not None:
        return _np.fromiter(
            map(table.code_of.__getitem__, modules), dtype=_np.int32, count=len(modules)
        )
    return array("q", map(table.code_of.__getitem__, modules))


def _int64_column(values):
    if _np is not None:
        return _np.fromiter(values, dtype=_np.int64, count=len(values))
    return array("q", values)


def _slice(column, lo: int, hi: int):
    # a copy, not a view: each cached run owns exactly its rows, so evicting
    # it frees them and the row budget measures what is really resident
    if _np is not None:
        return _readonly(column[lo:hi].copy())
    return column[lo:hi]


def _run_bounds(rid_col):
    """``bounds(run_id) -> (lo, hi)`` over a ``run_id``-ordered column."""
    if _np is not None:
        rid = _np.fromiter(rid_col, dtype=_np.int64, count=len(rid_col))
        return lambda run_id: (
            int(_np.searchsorted(rid, run_id, side="left")),
            int(_np.searchsorted(rid, run_id, side="right")),
        )
    from bisect import bisect_left, bisect_right

    return lambda run_id: (bisect_left(rid_col, run_id), bisect_right(rid_col, run_id))


class LabelColumnCache:
    """LRU of :class:`RunLabelArrays` bounded by a total row budget.

    Thread-safe: a sharded store's writer threads invalidate while readers
    look up.  A fill carries the generation it started under
    (:meth:`sync`), and any invalidation in between discards it, so a
    fetch that raced a write can never publish pre-write rows.
    """

    def __init__(self) -> None:
        self.row_budget = LABEL_COLUMN_CACHE_ROWS
        self._entries: "OrderedDict[int, RunLabelArrays]" = OrderedDict()
        self._rows = 0
        self._lock = threading.Lock()
        self._generation = 0
        self._data_version: Optional[int] = None
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def sync(self, data_version: int) -> int:
        """Drop every entry if *data_version* moved; returns the fill token.

        *data_version* is the owning connection's ``PRAGMA data_version``,
        which changes exactly when another connection committed to the
        file since the last read.
        """
        with self._lock:
            if self._data_version is not None and data_version != self._data_version:
                self._clear_locked()
            self._data_version = data_version
            return self._generation

    def lookup(self, run_ids: Sequence[int]):
        """``(found, missing)``: cached entries by run id, and the rest."""
        found: dict[int, RunLabelArrays] = {}
        missing: list[int] = []
        with self._lock:
            entries = self._entries
            for run_id in run_ids:
                entry = entries.get(run_id)
                if entry is None:
                    missing.append(run_id)
                else:
                    entries.move_to_end(run_id)
                    found[run_id] = entry
            self.hits += len(found)
            self.misses += len(missing)
        return found, missing

    def resident(self, run_ids: Sequence[int]) -> bool:
        """Whether every run of *run_ids* is cached; counts no hit or miss."""
        with self._lock:
            return all(run_id in self._entries for run_id in run_ids)

    def fill(self, token: int, arrays: dict[int, RunLabelArrays]) -> None:
        """Cache freshly loaded *arrays*, unless a write intervened."""
        with self._lock:
            if token != self._generation:
                return
            entries = self._entries
            for run_id, entry in arrays.items():
                if len(entry) > self.row_budget:
                    continue
                previous = entries.pop(run_id, None)
                if previous is not None:
                    self._rows -= len(previous)
                entries[run_id] = entry
                self._rows += len(entry)
            while self._rows > self.row_budget:
                _, evicted = entries.popitem(last=False)
                self._rows -= len(evicted)
                self.evictions += 1

    def discard(self, run_id: int) -> None:
        """Drop *run_id*'s entry: the run was rewritten or removed."""
        with self._lock:
            self._generation += 1
            entry = self._entries.pop(run_id, None)
            if entry is not None:
                self._rows -= len(entry)
                self.invalidations += 1

    def clear(self) -> None:
        """Drop every entry: the file changed in ways not tracked per run."""
        with self._lock:
            self._clear_locked()

    def _clear_locked(self) -> None:
        self._generation += 1
        self.invalidations += len(self._entries)
        self._entries.clear()
        self._rows = 0

    def stats(self) -> dict:
        """``runs``/``rows`` resident plus the lifetime counters."""
        with self._lock:
            return {
                "runs": len(self._entries),
                "rows": self._rows,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }
