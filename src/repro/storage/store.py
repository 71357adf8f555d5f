"""The SQLite-backed provenance store.

:class:`ProvenanceStore` persists specifications, labeled runs and data-item
assignments, and answers reachability and dependency queries straight from
the stored labels.  The storage layout mirrors the paper's amortization
argument (Section 7): skeleton labels are stored once per specification
(rebuilt on demand from the specification document), while every run vertex
stores only its three context coordinates and the name of its origin module —
``3 log nR + log nG`` bits of information per vertex.

Two query paths are offered.  The per-pair path (:meth:`ProvenanceStore.reaches`)
issues one label SELECT per endpoint and is fine for interactive use.  The
batched path (:meth:`ProvenanceStore.reaches_batch`,
:meth:`ProvenanceStore.labels_of_many`, :meth:`ProvenanceStore.downstream_of`,
:meth:`ProvenanceStore.upstream_of`) resolves all labels behind a query set
with a single row-value ``IN`` SELECT (chunked at :data:`LABEL_FETCH_CHUNK`,
guarded against SQLite's 999-host-parameter limit) and evaluates the
Algorithm 3 predicate batch-wise.

For replayed workloads the store additionally keeps, per ``(run_id,
spec_scheme)``, a cached skeleton-labeled view of the run whose labels are
fetched from SQL **at most once** and whose compiled
:class:`~repro.engine.QueryEngine` kernel is reused across calls: repeated
:meth:`~ProvenanceStore.reaches_batch` /
:meth:`~ProvenanceStore.downstream_of` / :meth:`~ProvenanceStore.upstream_of`
calls pay neither label re-resolution nor SQL round trips.  The interner
behind those handles is persisted with the run (the ``vertex_id`` column),
so handles are stable across store sessions; :meth:`ProvenanceStore.query_engine`
exposes the cached engine for handle-native callers (the CLI's
``query-batch`` interns its whole input file once through it).
"""

from __future__ import annotations

import sqlite3
import warnings
from collections import OrderedDict
from collections.abc import Iterable, Sequence
from itertools import chain
from pathlib import Path
from typing import Optional, Union

from repro.engine.kernels import ModuleTable, SpecKernel, compile_spec_kernel
from repro.engine.pool import WorkerPoolOwner
from repro.engine.query import QueryEngine
from repro.exceptions import StorageError
from repro.graphs.digraph import DiGraph
from repro.labeling.base import VertexHandleAPI
from repro.labeling.registry import get_scheme
from repro.provenance.data import DataFlow
from repro.skeleton.labels import RunLabel
from repro.skeleton.skl import (
    SkeletonLabeledRun,
    skeleton_predicate,
    skeleton_predicate_many,
)
from repro.storage.columns import (
    LabelColumnCache,
    RunLabelArrays,
    load_label_arrays,
)
from repro.storage.database import (
    CANONICAL_VERTEX_ORDER,
    LABEL_FETCH_CHUNK,
    SQLITE_MAX_VARIABLE_NUMBER,
    connect,
    initialize_schema,
    iter_value_chunks,
    pack_edge_positions,
    row_value_chunk,
    unpack_edge_positions,
)
from repro.storage.pushdown import pushdown_sweep, reachable_modules, scheme_supports_pushdown
from repro.workflow.run import RunVertex, WorkflowRun
from repro.workflow.serialization import (
    specification_from_json,
    specification_to_json,
)
from repro.workflow.specification import WorkflowSpecification

__all__ = [
    "ProvenanceStore",
    "RunLabelArrays",
    "LABEL_FETCH_CHUNK",
    "SQLITE_MAX_VARIABLE_NUMBER",
    "row_value_chunk",
    "iter_value_chunks",
    "load_label_arrays",
    "insert_specification",
    "insert_labeled_run",
    "pack_run_edges",
    "warn_deprecated_query",
]

PathLike = Union[str, Path]

#: how many stored runs keep their label cache + compiled engine resident at
#: once; beyond this the least-recently-queried run is evicted (its labels
#: and kernel are rebuilt from SQL on the next query), bounding store memory
#: on workloads that sweep across many runs
STORED_RUN_CACHE_LIMIT = 16


def pack_run_edges(run: WorkflowRun, position_of: dict) -> bytes:
    """*run*'s edges as the packed ``runs.document`` blob.

    *position_of* maps each run vertex to its position in the store's
    canonical handle order — the labeled run's ``interner.id_map`` on
    insert, since the persisted ``vertex_id`` *is* that position.  One
    C-level pass over the edges, no per-edge Python work.
    """
    return pack_edge_positions(
        map(position_of.__getitem__, chain.from_iterable(run.graph.iter_edges()))
    )


def insert_specification(
    connection: sqlite3.Connection,
    spec: WorkflowSpecification,
    *,
    spec_id: Optional[int] = None,
) -> int:
    """Insert *spec* over *connection* (idempotent by name); returns its id.

    The connection-agnostic core of
    :meth:`ProvenanceStore.add_specification`, shared with the sharded
    store's ingest workers (which write over their own per-shard
    connections).  An explicit *spec_id* lets the sharded layer allocate
    globally unique, shard-encoded identifiers instead of the table's
    autoincrement sequence.  Transaction management is the caller's.
    """
    existing = connection.execute(
        "SELECT spec_id FROM specifications WHERE name = ?", (spec.name,)
    ).fetchone()
    if existing is not None:
        return int(existing[0])
    cursor = connection.execute(
        "INSERT INTO specifications (spec_id, name, document, n_modules, n_edges) "
        "VALUES (?, ?, ?, ?, ?)",
        (
            spec_id,
            spec.name,
            specification_to_json(spec),
            spec.vertex_count,
            spec.edge_count,
        ),
    )
    return int(cursor.lastrowid)


def insert_labeled_run(
    connection: sqlite3.Connection,
    labeled: SkeletonLabeledRun,
    spec_id: int,
    *,
    run_id: Optional[int] = None,
) -> int:
    """Insert one labeled run's row and label set over *connection*.

    The connection-agnostic core of :meth:`ProvenanceStore.add_labeled_run`;
    the sharded ingest workers call it with explicit shard-encoded *run_id*
    values so every shard file carries globally unique run identifiers.
    Raises :class:`sqlite3.IntegrityError` on duplicates — wrapping it in a
    :class:`~repro.exceptions.StorageError` (and the transaction) is the
    caller's job.
    """
    run = labeled.run
    scheme = labeled.spec_index.scheme_name
    cursor = connection.execute(
        "INSERT INTO runs (run_id, spec_id, name, document, n_vertices, n_edges, spec_scheme) "
        "VALUES (?, ?, ?, ?, ?, ?, ?)",
        (
            run_id,
            spec_id,
            run.name,
            pack_run_edges(run, labeled.interner.id_map),
            run.vertex_count,
            run.edge_count,
            scheme,
        ),
    )
    run_id = int(cursor.lastrowid)
    # The interned handle of each vertex is persisted alongside its label,
    # so a store reopened later hands out exactly the ids the in-memory
    # labeled run assigned.
    id_of = labeled.interner.id_of
    connection.executemany(
        "INSERT INTO run_labels "
        "(run_id, module, instance, q1, q2, q3, skeleton, vertex_id) "
        "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
        [
            (
                run_id,
                vertex.module,
                vertex.instance,
                label.q1,
                label.q2,
                label.q3,
                vertex.module,
                id_of(vertex),
            )
            for vertex, label in labeled.labels().items()
        ],
    )
    return run_id


def warn_deprecated_query(
    owner: str, old: str, query: str, *, stacklevel: int = 3
) -> None:
    """Warn that a legacy store query method was used, blaming the caller.

    Shared by both store layouts so the deprecation text and — crucially —
    the ``stacklevel`` arithmetic live in one place: with the default of 3
    the warning is attributed to the caller of the public shim (helper →
    shim → caller), so ``-W error::DeprecationWarning`` reports the user's
    own line, not ``store.py``.  Callers that add a delegation hop must
    bump *stacklevel* accordingly.
    """
    warnings.warn(
        f"{owner}.{old} is deprecated: run a {query} through the "
        "store's ProvenanceSession (store.session().run(...)) instead",
        DeprecationWarning,
        stacklevel=stacklevel,
    )


def _deprecated_store_entry(old: str, query: str) -> None:
    # one hop deeper than the shared helper's default (shim → here → warn)
    warn_deprecated_query("ProvenanceStore", old, query, stacklevel=4)


class ProvenanceStore(WorkerPoolOwner):
    """Persist and query workflow provenance in a SQLite database.

    ``journal_mode`` is the SQLite journal the store's connections use;
    the sharded store opens its shard files in ``"WAL"`` mode so ingest
    writers and parallel readers coexist (see
    :mod:`repro.storage.database`).
    """

    def __init__(
        self, path: PathLike = ":memory:", *, journal_mode: str = "MEMORY"
    ) -> None:
        self.path = path
        self.journal_mode = journal_mode
        self._connection = connect(path, journal_mode=journal_mode)
        initialize_schema(self._connection)
        self._spec_cache: dict[int, WorkflowSpecification] = {}
        self._index_cache: dict[tuple[int, str], object] = {}
        # Cached skeleton-labeled views of stored runs and the compiled
        # batch engines over them (see _StoredRunIndex).  Keyed by run_id —
        # a run's spec scheme is fixed at insert time, so the (run_id,
        # scheme) identity the engines represent is preserved while warm
        # lookups stay SQL-free.  LRU-bounded at STORED_RUN_CACHE_LIMIT.
        self._stored_run_cache: "OrderedDict[int, _StoredRunIndex]" = OrderedDict()
        self._engine_cache: dict[int, tuple[QueryEngine, int]] = {}
        # Compiled fall-through evaluators shared by every run of one
        # (spec_id, scheme) — unlike the two caches above this one is not
        # LRU-bounded: one entry per stored specification+scheme, and a
        # cross-run sweep needs all of a spec's runs to hit the same entry.
        self._spec_kernel_cache: dict[tuple[int, str], SpecKernel] = {}
        # Resident label columns of the runs cross-run queries read (see
        # repro.storage.columns): filled on first read, dropped on writes.
        self._label_columns = LabelColumnCache()
        self._session = None
        self._closed = False
        # Lifetime counters behind ProvenanceSession.cache_stats(): how many
        # stored-run label caches the LRU pushed out (each eviction means the
        # next query on that run rebuilds from SQL).
        self._evictions = 0
        # Per-scheme counts of dependency sweeps answered by the SQL
        # pushdown vs the streamed kernel, so planner decisions and scheme
        # skew stay observable through cache_stats().
        self._sweep_paths: dict[str, dict[str, int]] = {"sql": {}, "kernel": {}}
        # Graceful-degradation events (pushdown falling back to the kernel,
        # worker chunks retried or re-run sequentially); see note_degraded.
        self._degraded: dict[str, int] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def _require_open(self) -> None:
        if self._closed:
            raise StorageError("store is closed")

    def close(self) -> None:
        """Close the underlying connection and any worker pools (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.close_pools()
        self._connection.close()

    def __enter__(self) -> "ProvenanceStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def pool_owner_description(self) -> str:
        return f"ProvenanceStore({str(self.path)!r})"

    # ------------------------------------------------------------------
    # specifications
    # ------------------------------------------------------------------
    def add_specification(self, spec: WorkflowSpecification) -> int:
        """Store *spec* (idempotent by name) and return its identifier."""
        self._require_open()
        with self._connection:
            return insert_specification(self._connection, spec)

    def get_specification(self, name: str) -> WorkflowSpecification:
        """Load the specification called *name*."""
        self._require_open()
        row = self._connection.execute(
            "SELECT spec_id, document FROM specifications WHERE name = ?", (name,)
        ).fetchone()
        if row is None:
            raise StorageError(f"no specification named {name!r} in the store")
        return self._load_specification(int(row["spec_id"]), row["document"])

    def list_specifications(self) -> list[dict]:
        """Return summaries of every stored specification."""
        self._require_open()
        rows = self._connection.execute(
            "SELECT spec_id, name, n_modules, n_edges FROM specifications ORDER BY spec_id"
        ).fetchall()
        return [dict(row) for row in rows]

    def _load_specification(self, spec_id: int, document: Optional[str] = None) -> WorkflowSpecification:
        if spec_id in self._spec_cache:
            return self._spec_cache[spec_id]
        if document is None:
            row = self._connection.execute(
                "SELECT document FROM specifications WHERE spec_id = ?", (spec_id,)
            ).fetchone()
            if row is None:
                raise StorageError(f"no specification with id {spec_id}")
            document = row["document"]
        spec = specification_from_json(document)
        self._spec_cache[spec_id] = spec
        return spec

    # ------------------------------------------------------------------
    # runs and labels
    # ------------------------------------------------------------------
    def add_labeled_run(self, labeled: SkeletonLabeledRun) -> int:
        """Store a labeled run (its graph, labels and spec scheme) and return its id."""
        self._require_open()
        run = labeled.run
        spec_id = self.add_specification(run.specification)
        try:
            with self._connection:
                return insert_labeled_run(self._connection, labeled, spec_id)
        except sqlite3.IntegrityError as exc:
            raise StorageError(
                f"run {run.name!r} already stored for specification {run.specification.name!r}"
            ) from exc

    def update_run_labels(self, run_id: int, labeled: SkeletonLabeledRun) -> int:
        """Persist a repaired label set over an already stored run.

        The write path of dynamic updates (:mod:`repro.dynamic`): after an
        in-memory run graph was mutated and relabeled, the store replays
        only the **changed** rows as targeted ``UPDATE`` statements —
        subtree-local repairs touch a handful of rows, not the whole run.
        The run's edge blob and edge count are refreshed alongside, so
        a cold reopen rebuilds exactly the repaired state.  The execution
        set must be identical to the stored one (dynamic updates are
        edge-only surgery); anything else raises
        :class:`~repro.exceptions.StorageError`.  Returns the number of
        label rows rewritten.
        """
        self._require_open()
        run = labeled.run
        row = self._run_row(run_id)
        scheme = labeled.spec_index.scheme_name
        stored_scheme = row["spec_scheme"] or "tcm"
        if scheme != stored_scheme:
            raise StorageError(
                f"run {run_id} was labeled under scheme {stored_scheme!r}; "
                f"cannot update it with {scheme!r} labels"
            )
        # stored labels in canonical handle order: a key's position in
        # this dict is the vertex position the edge blob refers to
        stored = {
            (r["module"], int(r["instance"])): (
                int(r["q1"]),
                int(r["q2"]),
                int(r["q3"]),
            )
            for r in self._connection.execute(
                "SELECT module, instance, q1, q2, q3 FROM run_labels "
                "WHERE run_id = ? " + CANONICAL_VERTEX_ORDER,
                (run_id,),
            )
        }
        labels = labeled.labels()
        new_keys = {(vertex.module, vertex.instance) for vertex in labels}
        if new_keys != set(stored):
            raise StorageError(
                f"run {run_id}: updated label set names a different execution "
                "set than the stored run (dynamic updates are edge-only; "
                "re-insert the run to change its executions)"
            )
        changed = [
            (label.q1, label.q2, label.q3, run_id, vertex.module, vertex.instance)
            for vertex, label in labels.items()
            if (label.q1, label.q2, label.q3)
            != stored[(vertex.module, vertex.instance)]
        ]
        with self._connection:
            if changed:
                self._connection.executemany(
                    "UPDATE run_labels SET q1 = ?, q2 = ?, q3 = ? "
                    "WHERE run_id = ? AND module = ? AND instance = ?",
                    changed,
                )
            self._connection.execute(
                "UPDATE runs SET document = ?, n_vertices = ?, n_edges = ? "
                "WHERE run_id = ?",
                (
                    pack_run_edges(run, {key: i for i, key in enumerate(stored)}),
                    run.vertex_count,
                    run.edge_count,
                    run_id,
                ),
            )
        # the cached label view, its compiled engine and its label columns
        # describe the pre-update run; drop them so the next query reloads
        self._stored_run_cache.pop(run_id, None)
        self._engine_cache.pop(run_id, None)
        self._label_columns.discard(run_id)
        return len(changed)

    def get_run(self, run_id: int) -> WorkflowRun:
        """Load the run graph with identifier *run_id*.

        Vertices are the run's label rows in canonical handle order, edges
        the packed blob in stored order — for a run written since schema v2
        the same vertex and edge order as the in-memory run that was
        stored.  A blob whose length or positions disagree with the label
        rows raises :class:`~repro.exceptions.StorageError`.
        """
        self._require_open()
        row = self._connection.execute(
            "SELECT spec_id, name, document, n_edges FROM runs WHERE run_id = ?",
            (run_id,),
        ).fetchone()
        if row is None:
            raise StorageError(f"no run with id {run_id}")
        spec = self._load_specification(int(row["spec_id"]))
        vertices = list(
            map(
                RunVertex._make,
                self._connection.execute(
                    "SELECT module, instance FROM run_labels WHERE run_id = ? "
                    + CANONICAL_VERTEX_ORDER,
                    (run_id,),
                ),
            )
        )
        blob = row["document"]
        if not isinstance(blob, bytes) or len(blob) != 8 * int(row["n_edges"]):
            raise StorageError(
                f"run {run_id}: edge blob does not hold {row['n_edges']} packed edges"
            )
        positions = unpack_edge_positions(blob)
        if positions and not 0 <= min(positions) <= max(positions) < len(vertices):
            raise StorageError(
                f"run {run_id}: edge blob names a vertex outside its "
                f"{len(vertices)} labeled vertices"
            )
        endpoints = map(vertices.__getitem__, positions)
        graph = DiGraph(vertices, zip(endpoints, endpoints))
        return WorkflowRun(spec, graph, name=row["name"])

    def list_runs(self, specification: Optional[str] = None) -> list[dict]:
        """Return summaries of stored runs, optionally filtered by specification name."""
        self._require_open()
        if specification is None:
            rows = self._connection.execute(
                "SELECT run_id, name, n_vertices, n_edges, spec_scheme, spec_id "
                "FROM runs ORDER BY run_id"
            ).fetchall()
        else:
            rows = self._connection.execute(
                "SELECT r.run_id, r.name, r.n_vertices, r.n_edges, r.spec_scheme, r.spec_id "
                "FROM runs r JOIN specifications s ON r.spec_id = s.spec_id "
                "WHERE s.name = ? ORDER BY r.run_id",
                (specification,),
            ).fetchall()
        return [dict(row) for row in rows]

    def _run_row(self, run_id: int) -> sqlite3.Row:
        self._require_open()
        # metadata only: the edge blob is read by get_run alone
        row = self._connection.execute(
            "SELECT spec_id, n_vertices, spec_scheme FROM runs WHERE run_id = ?",
            (run_id,),
        ).fetchone()
        if row is None:
            raise StorageError(f"no run with id {run_id}")
        return row

    def _spec_index(self, run_id: int):
        row = self._run_row(run_id)
        scheme = row["spec_scheme"] or "tcm"
        key = (int(row["spec_id"]), scheme)
        if key not in self._index_cache:
            spec = self._load_specification(int(row["spec_id"]))
            self._index_cache[key] = get_scheme(scheme).build(spec.graph)
        return self._index_cache[key]

    def spec_kernel(self, run_id: int) -> SpecKernel:
        """The compiled fall-through evaluator shared by the run's specification.

        Cached per ``(spec_id, spec_scheme)``, so every run of one
        specification — the stored-run engines and the cross-run sweep —
        pays the spec-side compilation (for non-TCM schemes, ``nG²``
        predicate evaluations) exactly once per store.
        """
        row = self._run_row(run_id)
        scheme = row["spec_scheme"] or "tcm"
        key = (int(row["spec_id"]), scheme)
        kernel = self._spec_kernel_cache.get(key)
        if kernel is None:
            kernel = self._spec_kernel_cache[key] = compile_spec_kernel(
                self._spec_index(run_id)
            )
        return kernel

    def run_label_arrays(self, run_id: int) -> RunLabelArrays:
        """One run's label columns (see :meth:`run_label_arrays_many`)."""
        return self.run_label_arrays_many([run_id])[run_id]

    def run_label_arrays_many(
        self, run_ids: Sequence[int], table: Optional[ModuleTable] = None
    ) -> dict[int, RunLabelArrays]:
        """Many runs' label columns, served from the resident cache.

        The per-run payload of every cross-run query.  Each run is read
        from SQL the first time only — missing runs with one ordered
        ``run_id IN`` scan per chunk (:func:`load_label_arrays`), encoding
        module names against *table* (a spec kernel's ``module_table``) —
        and then kept, read-only, until a write invalidates it:
        ``delete_run`` and ``update_run_labels`` drop their run, and a
        commit by any other connection (seen once per call through
        ``PRAGMA data_version``) drops everything.  Unknown run ids raise
        :class:`~repro.exceptions.StorageError`.
        """
        self._require_open()
        cache = self._label_columns
        token = cache.sync(
            self._connection.execute("PRAGMA data_version").fetchone()[0]
        )
        distinct = list(dict.fromkeys(int(run_id) for run_id in run_ids))
        found, missing = cache.lookup(distinct)
        if missing:
            loaded = load_label_arrays(self._connection, missing, table)
            for run_id, run_arrays in loaded.items():
                if not len(run_arrays):
                    self._run_row(run_id)  # raise when the run does not exist
            cache.fill(token, loaded)
            found.update(loaded)
        return {run_id: found[run_id] for run_id in distinct}

    def label_columns_resident(self, run_ids: Sequence[int]) -> bool:
        """Whether every run of *run_ids* has its label columns cached.

        Syncs ``PRAGMA data_version`` first, so columns another connection's
        commit made stale never count as resident; a planner probe, so no
        hit or miss is counted.
        """
        self._require_open()
        cache = self._label_columns
        cache.sync(self._connection.execute("PRAGMA data_version").fetchone()[0])
        return cache.resident([int(run_id) for run_id in run_ids])

    def session(self):
        """The store's :class:`~repro.api.ProvenanceSession` (built lazily).

        The session is the documented query surface over stored runs: one
        ``session.run(query)`` entry point for point, batch, sweep,
        cross-run and data-dependency queries.
        """
        self._require_open()
        if self._session is None:
            from repro.api.session import ProvenanceSession

            self._session = ProvenanceSession(self)
        return self._session

    def label_of(self, run_id: int, module: str, instance: int) -> RunLabel:
        """Return the stored run label of one module execution."""
        self._require_open()
        row = self._connection.execute(
            "SELECT q1, q2, q3, skeleton FROM run_labels "
            "WHERE run_id = ? AND module = ? AND instance = ?",
            (run_id, module, instance),
        ).fetchone()
        if row is None:
            raise StorageError(
                f"run {run_id} has no label for execution {module}{instance}"
            )
        index = self._spec_index(run_id)
        return RunLabel(
            q1=int(row["q1"]),
            q2=int(row["q2"]),
            q3=int(row["q3"]),
            skeleton=index.label_of(row["skeleton"]),
        )

    def labels_of_many(
        self,
        run_id: int,
        executions: Iterable[Union[RunVertex, tuple[str, int]]],
    ) -> dict[tuple[str, int], RunLabel]:
        """Fetch the stored labels of many executions, batched over SQL.

        The distinct executions are resolved with row-value ``IN`` queries of
        up to :data:`LABEL_FETCH_CHUNK` executions each, so any query set of
        that size or less costs exactly **one** SQL round trip (versus one
        per execution through :meth:`label_of`).  Missing executions raise
        :class:`~repro.exceptions.StorageError`.
        """
        self._require_open()
        index = self._spec_index(run_id)
        spec_label_of = index.label_of
        distinct = _distinct_executions(executions)
        labels: dict[tuple[str, int], RunLabel] = {}
        for row in self._fetch_label_rows(run_id, distinct):
            labels[(row["module"], int(row["instance"]))] = RunLabel(
                q1=int(row["q1"]),
                q2=int(row["q2"]),
                q3=int(row["q3"]),
                skeleton=spec_label_of(row["skeleton"]),
            )
        _require_complete(run_id, distinct, labels)
        return labels

    def _fetch_label_rows(self, run_id: int, executions: list[tuple[str, int]]):
        """Yield the ``run_labels`` rows of *executions*, chunked over SQL.

        Chunks are sized by :func:`row_value_chunk`, so each round trip binds
        at most :data:`SQLITE_MAX_VARIABLE_NUMBER` host parameters.
        """
        for chunk, placeholders in iter_value_chunks(
            executions, columns_per_row=2, reserved=1
        ):
            parameters: list = [run_id]
            for module, instance in chunk:
                parameters.append(module)
                parameters.append(instance)
            yield from self._connection.execute(
                "SELECT module, instance, q1, q2, q3, skeleton FROM run_labels "
                f"WHERE run_id = ? AND (module, instance) IN (VALUES {placeholders})",
                parameters,
            ).fetchall()

    def all_labels_of(self, run_id: int) -> dict[tuple[str, int], RunLabel]:
        """Fetch every stored label of a run in one SQL round trip."""
        self._require_open()
        index = self._spec_index(run_id)
        spec_label_of = index.label_of
        rows = self._connection.execute(
            "SELECT module, instance, q1, q2, q3, skeleton FROM run_labels "
            "WHERE run_id = ? ORDER BY module, instance",
            (run_id,),
        ).fetchall()
        if not rows:
            self._run_row(run_id)  # raise cleanly when the run does not exist
        return {
            (row["module"], int(row["instance"])): RunLabel(
                q1=int(row["q1"]),
                q2=int(row["q2"]),
                q3=int(row["q3"]),
                skeleton=spec_label_of(row["skeleton"]),
            )
            for row in rows
        }

    def reaches(
        self,
        run_id: int,
        source: Union[RunVertex, tuple[str, int]],
        target: Union[RunVertex, tuple[str, int]],
    ) -> bool:
        """Decide reachability between two stored module executions.

        .. deprecated::
            Run a :class:`~repro.api.PointQuery` through
            ``store.session()`` instead; this shim delegates unchanged.
        """
        _deprecated_store_entry("reaches", "PointQuery")
        return self._reaches(run_id, source, target)

    def _reaches(
        self,
        run_id: int,
        source: Union[RunVertex, tuple[str, int]],
        target: Union[RunVertex, tuple[str, int]],
    ) -> bool:
        """Per-pair reachability from stored labels (the session's point plan).

        *source* and *target* may be :class:`RunVertex` instances or plain
        ``(module, instance)`` tuples.
        """
        source_module, source_instance = _coerce_vertex(source)
        target_module, target_instance = _coerce_vertex(target)
        source_label = self.label_of(run_id, source_module, source_instance)
        target_label = self.label_of(run_id, target_module, target_instance)
        return skeleton_predicate(source_label, target_label, self._spec_index(run_id))

    def _stored_index(self, run_id: int) -> "_StoredRunIndex":
        """The cached skeleton-labeled view of a stored run (no SQL on hit)."""
        self._require_open()
        index = self._stored_run_cache.get(run_id)
        if index is not None:
            self._stored_run_cache.move_to_end(run_id)
            return index
        row = self._run_row(run_id)
        scheme = row["spec_scheme"] or "tcm"
        index = _StoredRunIndex(self, run_id, scheme, self._spec_index(run_id))
        self._stored_run_cache[run_id] = index
        while len(self._stored_run_cache) > STORED_RUN_CACHE_LIMIT:
            evicted_run, _ = self._stored_run_cache.popitem(last=False)
            self._engine_cache.pop(evicted_run, None)
            self._evictions += 1
        return index

    def query_engine(self, run_id: int) -> QueryEngine:
        """The cached batch :class:`~repro.engine.QueryEngine` over a stored run.

        The first call loads the run's full label set (one SQL round trip,
        ordered by the persisted interner ids) and compiles the engine's
        skeleton kernel; every later call returns the same engine, so
        replayed workloads pay no SQL and no label resolution.  Handle-native
        callers intern their workload once
        (``engine.intern_pairs(pairs)``) and replay it through
        ``engine.reaches_many_ids``.
        """
        index = self._stored_index(run_id)
        index.ensure_all()
        cached = self._engine_cache.get(run_id)
        if cached is None or cached[1] != index.version:
            cached = (
                QueryEngine(index, spec_kernel=self.spec_kernel(run_id)),
                index.version,
            )
            self._engine_cache[run_id] = cached
        return cached[0]

    def has_compiled_engine(self, run_id: int) -> bool:
        """Whether *run_id* already has a warm compiled engine cached.

        The session's batch planner reads this (instead of poking the
        private cache) to decide whether a small workload should ride the
        already-paid handle path.
        """
        return run_id in self._engine_cache

    def reaches_batch(
        self,
        run_id: int,
        pairs: Iterable[tuple],
    ) -> list[bool]:
        """Answer many reachability queries over one stored run at once.

        .. deprecated::
            Run a :class:`~repro.api.BatchQuery` through
            ``store.session()`` instead; this shim delegates unchanged.
        """
        _deprecated_store_entry("reaches_batch", "BatchQuery")
        return self._reaches_batch(run_id, pairs)

    def _reaches_batch(
        self,
        run_id: int,
        pairs: Iterable[tuple],
    ) -> list[bool]:
        """The stored-run batch plan (used by the session's BatchQuery).

        Labels the batch needs but the run's cached view is missing are
        fetched with chunked row-value ``IN`` SELECTs (a single SQL round
        trip for up to :data:`LABEL_FETCH_CHUNK` distinct executions) and
        kept, so replaying a workload touches SQL only once; when the
        cached view is complete the batch is answered by the compiled
        :meth:`query_engine` kernel instead of re-evaluating the predicate
        from label objects.  Returns one boolean per pair, in order.
        """
        coerced = [
            (_coerce_vertex(source), _coerce_vertex(target)) for source, target in pairs
        ]
        index = self._stored_index(run_id)
        index.ensure(
            _distinct_executions(
                execution for pair in coerced for execution in pair
            )
        )
        if index.fully_loaded:
            answers = self.query_engine(run_id).reaches_batch(coerced)
            return answers if isinstance(answers, list) else list(answers)
        label_pairs = [
            (index.label_of(source), index.label_of(target))
            for source, target in coerced
        ]
        return skeleton_predicate_many(label_pairs, index.spec_index)

    def downstream_of(
        self,
        run_id: int,
        execution: Union[RunVertex, tuple[str, int]],
    ) -> list[tuple[str, int]]:
        """Every stored execution that depends on *execution* (excluding itself).

        .. deprecated::
            Run a :class:`~repro.api.DownstreamQuery` through
            ``store.session()`` instead; this shim delegates unchanged.
        """
        _deprecated_store_entry("downstream_of", "DownstreamQuery")
        return self._dependency_sweep(run_id, execution, downstream=True)

    def upstream_of(
        self,
        run_id: int,
        execution: Union[RunVertex, tuple[str, int]],
    ) -> list[tuple[str, int]]:
        """Every stored execution that *execution* depends on (excluding itself).

        .. deprecated::
            Run an :class:`~repro.api.UpstreamQuery` through
            ``store.session()`` instead; this shim delegates unchanged.
        """
        _deprecated_store_entry("upstream_of", "UpstreamQuery")
        return self._dependency_sweep(run_id, execution, downstream=False)

    def _dependency_sweep(
        self,
        run_id: int,
        execution: Union[RunVertex, tuple[str, int]],
        *,
        downstream: bool,
    ) -> list[tuple[str, int]]:
        anchor = _coerce_vertex(execution)
        index = self._stored_index(run_id)
        index.ensure_all()
        if not index.has_label(anchor):
            raise StorageError(
                f"run {run_id} has no label for execution {anchor[0]}{anchor[1]}"
            )
        engine = self.query_engine(run_id)
        self._note_sweep_path(index.scheme, pushdown=False)
        return engine.dependency_sweep(anchor, downstream=downstream)

    def _dependency_sweep_pushdown(
        self,
        run_id: int,
        execution: Union[RunVertex, tuple[str, int]],
        *,
        downstream: bool,
    ) -> list[RunVertex]:
        """The SQL form of :meth:`_dependency_sweep`: indexed range scans.

        Same contract, same answers in the same (persisted-interner) order —
        but evaluated inside SQLite over the v3 covering indexes instead of
        streaming the run's label arrays through a kernel.  Only the
        spec-level module reachability of the anchor is computed in Python
        (from the shared :meth:`spec_kernel`); everything per-vertex stays
        in the database and only matching rows cross the SQL boundary.
        """
        anchor = _coerce_vertex(execution)
        row = self._run_row(run_id)
        scheme = row["spec_scheme"] or "tcm"
        kernel = self.spec_kernel(run_id)
        modules = reachable_modules(kernel, anchor[0], downstream=downstream)
        result = None
        if modules is not None:
            result = pushdown_sweep(
                self._connection, [run_id], anchor, modules, downstream=downstream
            )[run_id]
        if result is None:
            raise StorageError(
                f"run {run_id} has no label for execution {anchor[0]}{anchor[1]}"
            )
        self._note_sweep_path(scheme, pushdown=True)
        return [RunVertex(module, instance) for module, instance in result]

    def pushdown_profile(self, run_id: int) -> tuple[str, bool, int]:
        """``(spec_scheme, pushdown-capable, n_vertices)`` of one stored run.

        The three facts the session planner weighs when choosing between
        the SQL pushdown and the streamed kernel for a sweep.
        """
        row = self._run_row(run_id)
        scheme = row["spec_scheme"] or "tcm"
        return scheme, scheme_supports_pushdown(scheme), int(row["n_vertices"])

    def read_connection_for(self, run_id: int) -> sqlite3.Connection:
        """The connection that can read *run_id*'s rows (the store's own)."""
        self._require_open()
        return self._connection

    def _note_sweep_path(
        self, scheme: str, *, pushdown: bool, run_id: Optional[int] = None
    ) -> None:
        # *run_id* identifies the run the sweep was answered for; a single
        # store keeps one counter table regardless, but the sharded store
        # overrides this to attribute the count to the owning shard.
        counts = self._sweep_paths["sql" if pushdown else "kernel"]
        counts[scheme] = counts.get(scheme, 0) + 1

    def note_degraded(self, kind: str) -> None:
        """Count one graceful-degradation event under *kind*.

        The planner and the parallel executor call this when a fast path
        failed and a slower-but-correct one served the answer instead —
        ``pushdown_fallback`` (SQL pushdown fell back to the streamed
        kernel), ``worker_retry`` (a crashed/hung chunk was resubmitted),
        ``worker_sequential`` (the retry failed too; the chunk ran
        sequentially on the submitting side).  Surfaced as
        ``cache_stats()["degraded"]``.
        """
        self._degraded[kind] = self._degraded.get(kind, 0) + 1

    # ------------------------------------------------------------------
    # data provenance
    # ------------------------------------------------------------------
    def add_dataflow(self, run_id: int, dataflow: DataFlow) -> int:
        """Store the data items of *dataflow* for run *run_id*; returns item count."""
        self._run_row(run_id)
        items = dataflow.items()
        with self._connection:
            self._connection.executemany(
                "INSERT OR REPLACE INTO data_items "
                "(run_id, item_id, producer_module, producer_instance) VALUES (?, ?, ?, ?)",
                [
                    (
                        run_id,
                        item.item_id,
                        dataflow.output_of(item).module,
                        dataflow.output_of(item).instance,
                    )
                    for item in items
                ],
            )
            consumer_rows = []
            for item in items:
                for consumer in sorted(dataflow.inputs_of(item)):
                    consumer_rows.append(
                        (run_id, item.item_id, consumer.module, consumer.instance)
                    )
            self._connection.executemany(
                "INSERT OR REPLACE INTO data_consumers "
                "(run_id, item_id, consumer_module, consumer_instance) VALUES (?, ?, ?, ?)",
                consumer_rows,
            )
        return len(items)

    def _producer_of(self, run_id: int, item_id: str) -> tuple[str, int]:
        self._require_open()
        row = self._connection.execute(
            "SELECT producer_module, producer_instance FROM data_items "
            "WHERE run_id = ? AND item_id = ?",
            (run_id, item_id),
        ).fetchone()
        if row is None:
            raise StorageError(f"run {run_id} has no data item {item_id!r}")
        return (row["producer_module"], int(row["producer_instance"]))

    def _consumers_of(self, run_id: int, item_id: str) -> list[tuple[str, int]]:
        rows = self._connection.execute(
            "SELECT consumer_module, consumer_instance FROM data_consumers "
            "WHERE run_id = ? AND item_id = ?",
            (run_id, item_id),
        ).fetchall()
        return [(row["consumer_module"], int(row["consumer_instance"])) for row in rows]

    def data_depends_on_data(self, run_id: int, item_id: str, other_id: str) -> bool:
        """Does stored data item *item_id* depend on *other_id*?

        All consumer-to-producer reachability checks are answered as one
        batch, so the labels are fetched in a single SQL round trip.
        """
        producer = self._producer_of(run_id, item_id)
        consumers = self._consumers_of(run_id, other_id)
        if not consumers:
            return False
        return any(
            self._reaches_batch(
                run_id, [(consumer, producer) for consumer in consumers]
            )
        )

    def data_depends_on_module(
        self, run_id: int, item_id: str, module: tuple[str, int]
    ) -> bool:
        """Does stored data item *item_id* depend on module execution *module*?"""
        producer = self._producer_of(run_id, item_id)
        return self._reaches(run_id, module, producer)

    def list_data_items(self, run_id: int) -> list[str]:
        """Return the identifiers of every data item stored for *run_id*."""
        rows = self._connection.execute(
            "SELECT item_id FROM data_items WHERE run_id = ? ORDER BY item_id", (run_id,)
        ).fetchall()
        return [row["item_id"] for row in rows]

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def delete_run(self, run_id: int) -> None:
        """Remove a run and all dependent rows (evicting its cached engine)."""
        self._require_open()
        with self._connection:
            deleted = self._connection.execute(
                "DELETE FROM runs WHERE run_id = ?", (run_id,)
            ).rowcount
        if not deleted:
            raise StorageError(f"no run with id {run_id}")
        self._stored_run_cache.pop(run_id, None)
        self._engine_cache.pop(run_id, None)
        self._label_columns.discard(run_id)

    def invalidate_label_columns(self) -> None:
        """Drop every cached label column (a write the store cannot scope)."""
        self._label_columns.clear()

    def cache_stats(self) -> dict:
        """Occupancy and eviction counters of the store's query caches.

        ``evictions`` counts stored-run label caches pushed out of the LRU
        (bounded at ``limit`` = :data:`STORED_RUN_CACHE_LIMIT`); each
        eviction means the next query against that run pays its SQL fetch
        and kernel compilation again.  ``label_columns`` reports the
        resident label-column cache behind cross-run queries (see
        :class:`~repro.storage.columns.LabelColumnCache`).  Surfaced through
        :meth:`ProvenanceSession.cache_stats`.
        """
        stats = {
            "stored_runs_cached": len(self._stored_run_cache),
            "engines_cached": len(self._engine_cache),
            "spec_kernels_cached": len(self._spec_kernel_cache),
            "evictions": self._evictions,
            "limit": STORED_RUN_CACHE_LIMIT,
            "pushdown": {
                "sql": dict(self._sweep_paths["sql"]),
                "kernel": dict(self._sweep_paths["kernel"]),
            },
            "degraded": dict(self._degraded),
            "label_columns": self._label_columns.stats(),
        }
        pools = self.pool_stats()
        if pools:
            stats["pools"] = pools
        return stats

    def statistics(self) -> dict:
        """Return row counts per table (for diagnostics and tests)."""
        self._require_open()
        tables = ("specifications", "runs", "run_labels", "data_items", "data_consumers")
        counts = {}
        for table in tables:
            row = self._connection.execute(f"SELECT COUNT(*) AS c FROM {table}").fetchone()
            counts[table] = int(row["c"])
        return counts


class _StoredRunIndex(VertexHandleAPI):
    """A skeleton-labeled view of one stored run, with a growing label cache.

    The store hands every batched query path through one of these (cached
    per ``(run_id, spec_scheme)``): labels already fetched from SQL are kept
    for the store's lifetime, so a replayed workload resolves each label at
    most once.  Once the full label set is loaded (:meth:`ensure_all`) the
    object exposes the complete ``(D, φ, π)`` + vertex-handle surface of a
    :class:`~repro.skeleton.skl.SkeletonLabeledRun` — including
    ``kernel_hint = "skl"`` — so :func:`repro.engine.kernels.build_kernel`
    compiles the same vectorized skeleton kernel for it.  Handle order
    follows the persisted ``vertex_id`` column (the interner of the run
    that was stored), falling back to ``(module, instance)`` order for rows
    written before schema version 2.
    """

    kernel_hint = "skl"

    def __init__(
        self, store: ProvenanceStore, run_id: int, scheme: str, spec_index
    ) -> None:
        self._store = store
        self.run_id = run_id
        self.scheme = scheme
        self.spec_index = spec_index
        self._cached: dict[RunVertex, RunLabel] = {}
        self._fully_loaded = False
        #: bumped whenever the cached label universe changes; the store's
        #: engine cache is keyed on it so a stale kernel is never reused
        self.version = 0

    # -- label cache ----------------------------------------------------
    @property
    def fully_loaded(self) -> bool:
        """Whether every label of the run is in the cache."""
        return self._fully_loaded

    def has_label(self, execution: tuple[str, int]) -> bool:
        """Whether *execution*'s label is cached (complete after ensure_all)."""
        return execution in self._cached

    def ensure(self, executions: list[tuple[str, int]]) -> None:
        """Load the labels of *executions* that are not cached yet.

        Missing labels are fetched with chunked row-value ``IN`` SELECTs;
        executions absent from the store raise
        :class:`~repro.exceptions.StorageError` (same contract as
        :meth:`ProvenanceStore.labels_of_many`).
        """
        needed = [key for key in executions if key not in self._cached]
        if not needed:
            return
        spec_label_of = self.spec_index.label_of
        fetched: dict[tuple[str, int], RunLabel] = {}
        for row in self._store._fetch_label_rows(self.run_id, needed):
            fetched[(row["module"], int(row["instance"]))] = RunLabel(
                q1=int(row["q1"]),
                q2=int(row["q2"]),
                q3=int(row["q3"]),
                skeleton=spec_label_of(row["skeleton"]),
            )
        _require_complete(self.run_id, needed, fetched)
        for (module, instance), label in fetched.items():
            self._cached[RunVertex(module, instance)] = label
        self.version += 1

    def ensure_all(self) -> None:
        """Load the run's complete label set (one SQL round trip, once).

        The cache is rebuilt in persisted-interner order, so the handles
        this index (and any engine over it) assigns match the ids the
        original :class:`~repro.skeleton.skl.SkeletonLabeledRun` interned.
        """
        if self._fully_loaded:
            return
        spec_label_of = self.spec_index.label_of
        rows = self._store._connection.execute(
            "SELECT module, instance, q1, q2, q3, skeleton FROM run_labels "
            "WHERE run_id = ? "
            "ORDER BY (vertex_id IS NULL), vertex_id, module, instance",
            (self.run_id,),
        ).fetchall()
        self._cached = {
            RunVertex(row["module"], int(row["instance"])): RunLabel(
                q1=int(row["q1"]),
                q2=int(row["q2"]),
                q3=int(row["q3"]),
                skeleton=spec_label_of(row["skeleton"]),
            )
            for row in rows
        }
        # handle tables were built over the partial universe; rebuild lazily
        self._handle_interner = None
        self._handle_label_table = None
        self._fully_loaded = True
        self.version += 1

    # -- the (D, φ, π) + handle surface over the stored run --------------
    @property
    def stable_labels(self) -> bool:
        """Inherited from the spec index, like SkeletonLabeledRun."""
        return getattr(self.spec_index, "stable_labels", True)

    def _handle_vertices(self):
        if not self._fully_loaded:  # pragma: no cover - internal misuse guard
            raise StorageError(
                "vertex handles over a stored run require the full label set; "
                "call ensure_all() first"
            )
        return self._cached

    def _handle_labels_cacheable(self) -> bool:
        # Stored labels are frozen rows; like SkeletonLabeledRun, only the
        # fall-through predicate can be live, never the labels.
        return True

    def labels(self) -> dict[RunVertex, RunLabel]:
        """A copy of the cached label assignment (complete after ensure_all)."""
        return dict(self._cached)

    def label_of(self, vertex) -> RunLabel:
        """The cached label of one execution (RunVertex or plain tuple)."""
        try:
            return self._cached[vertex]
        except KeyError:
            raise StorageError(
                f"run {self.run_id} has no cached label for execution "
                f"{vertex[0]}{vertex[1]}"
            ) from None

    def reaches_labels(self, first: RunLabel, second: RunLabel) -> bool:
        """``πr`` over two stored labels (Algorithm 3)."""
        return skeleton_predicate(first, second, self.spec_index)

    def reaches(self, source, target) -> bool:
        """Decide reachability between two cached executions."""
        return self.reaches_labels(self.label_of(source), self.label_of(target))

    def reaches_many(self, label_pairs) -> list[bool]:
        """Batch ``πr`` with a single spec-index call for all fall-throughs."""
        return skeleton_predicate_many(label_pairs, self.spec_index)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "full" if self._fully_loaded else f"{len(self._cached)} cached"
        return (
            f"_StoredRunIndex(run_id={self.run_id}, scheme={self.scheme!r}, "
            f"labels={state})"
        )


def _distinct_executions(executions) -> list[tuple[str, int]]:
    """Coerce to (module, instance) tuples, deduplicated in first-seen order."""
    distinct: list[tuple[str, int]] = []
    seen: set[tuple[str, int]] = set()
    for execution in executions:
        key = _coerce_vertex(execution)
        if key not in seen:
            seen.add(key)
            distinct.append(key)
    return distinct


def _require_complete(
    run_id: int, requested: list[tuple[str, int]], found: dict
) -> None:
    """Raise the canonical missing-execution error when a fetch came up short."""
    missing = [key for key in requested if key not in found]
    if missing:
        module, instance = missing[0]
        raise StorageError(
            f"run {run_id} has no label for execution {module}{instance} "
            f"({len(missing)} of {len(requested)} requested executions missing)"
        )


def _coerce_vertex(value: Union[RunVertex, tuple[str, int]]) -> tuple[str, int]:
    """Accept both RunVertex and plain (module, instance) tuples."""
    if isinstance(value, RunVertex):
        return (value.module, value.instance)
    return (str(value[0]), int(value[1]))
