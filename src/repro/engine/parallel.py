"""Cross-run execution: one question asked of every run of a specification.

Every cross-run query compiles one shared
:class:`~repro.engine.kernels.SpecKernel` per ``(specification, scheme)``
and evaluates each run's label columns through it.  Two operations run
through :class:`CrossRunExecutor`: the anchored dependency **sweep**
(``CrossRunQuery``) and the generalized **pair batch** (the same pairs
asked of every run, a runs x pairs matrix) behind ``CrossRunBatchQuery`` /
``CrossRunPointQuery``.

**The default (``workers=None``) runs in-process** over the store's
resident label-column cache
(:meth:`~repro.storage.store.ProvenanceStore.run_label_arrays_many`,
:mod:`repro.storage.columns`): one call per spec kernel reads the whole
specification, from SQL only for runs not read since the last write, and
each run is evaluated inline.  A warm sweep finds the anchor row with one
vectorized comparison and builds ``(module, instance)`` tuples only for
the rows it returns; a warm batch maps its pairs to rows with one
``searchsorted`` per run.  Nothing is packed or pooled.  Measured with
``perfbench/run.py --workload sweep --seconds 20`` on a 2-core host
(``nproc`` = 2, 10 alternating runs of each side), the median 12-run x
1,600-vertex tcm sweep went from 136.6 ms on the previous default (an
auto-sized 2-thread pool re-reading every run from SQL) to 5.5 ms, and
the 2,000-pair cross-run batch from 145.4 ms to 14.7 ms.

**An explicit ``workers=N`` fans out** as before: runs are chunked (per
shard file, with hot-spec replicas round-robined across chunks) and each
chunk is fetched by a worker over its **own read-only connection** with a
single ordered ``run_id IN`` scan
(:func:`~repro.storage.store.load_label_arrays`), bypassing the cache:

* the pool is the **store-owned persistent worker pool**
  (:mod:`repro.engine.pool`), lazily started and closed with the store;
  thread workers by default;
* ``REPRO_PARALLEL=process`` switches to a process pool whose tasks are
  top-level functions fed picklable payloads.  The dense spec matrix is
  pickled **once per kernel per pool**; runs whose spec kernel is not
  dense — live traversal schemes, numpy-less installs — are evaluated on
  the submitting side.  Only these results cross a process boundary, so
  only they are **packed** (module dictionary + two int64 columns for
  sweeps, a byte vector for batches) and decoded once in the parent.

An in-memory store always takes the in-process path (a ``:memory:``
database is reachable only through its one connection).  Answers are
bit-identical across every path: each evaluates the same compiled-kernel
formula over the same label columns.
"""

from __future__ import annotations

import os
import pickle
import sqlite3
from array import array
from concurrent.futures import (
    BrokenExecutor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    TimeoutError as FuturesTimeout,
)
from typing import Any, Callable, Optional, Sequence, Union
from urllib.parse import quote

from repro import faults
from repro.engine.kernels import (
    column_positions,
    dense_pair_answers,
    dense_sweep_answers,
)
from repro.engine.pool import PersistentWorkerPool
from repro.exceptions import QueryPlanError, WorkerCrashError
from repro.faults import fault_point

try:  # numpy accelerates the kernels but is strictly optional
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only on numpy-less installs
    _np = None

__all__ = [
    "CrossRunExecutor",
    "PARALLEL_MIN_RUNS",
    "PREFETCH_CHUNK_RUNS",
    "MAX_AUTO_WORKERS",
    "resolve_workers",
]

#: the run count below which the auto-sized pool used to stay sequential;
#: auto is now always in-process (see resolve_workers), and the constant
#: remains only for callers that size their own workloads by it
PARALLEL_MIN_RUNS = 4

#: the most runs one worker fetches with a single ordered SQL scan; chunks
#: shrink further when needed so every pool worker gets at least one task
#: (see CrossRunExecutor._chunks), and stay large enough otherwise to
#: amortize the per-chunk connection and query setup
PREFETCH_CHUNK_RUNS = 4

#: cap on derived pool widths (the replica-fan floor of the cross-run plans,
#: the store-owned pool size); cross-run payloads are short, so more
#: workers than this just adds scheduler churn
MAX_AUTO_WORKERS = 8

#: chunk failures the executor transparently recovers from: a retry on the
#: pool, then an inline sequential evaluation (both recorded through the
#: store's ``note_degraded``).  Covers a crashed worker process
#: (BrokenExecutor / WorkerCrashError), a dropped or refused connection
#: (OSError — InjectedConnectionError included), a transient SQL failure
#: on the task-private connection, and a hung worker when
#: ``REPRO_WORKER_TIMEOUT`` bounds the wait.  Anything else — a kernel
#: bug, a typed ReproError — propagates untouched.
_RETRYABLE = (
    WorkerCrashError,
    BrokenExecutor,
    OSError,
    sqlite3.OperationalError,
    FuturesTimeout,
)


def _worker_timeout() -> Optional[float]:
    """Seconds to wait on one chunk future (``REPRO_WORKER_TIMEOUT``).

    Unset (the default) waits forever — the pre-fault-tolerance behavior.
    A bounded wait turns a hung worker into a :data:`_RETRYABLE` timeout,
    so the chunk is retried and, failing that, evaluated inline; the stuck
    future is abandoned to finish (or not) on its own.
    """
    raw = os.environ.get("REPRO_WORKER_TIMEOUT", "").strip()
    if not raw:
        return None
    try:
        timeout = float(raw)
    except ValueError:
        raise QueryPlanError(
            f"REPRO_WORKER_TIMEOUT must be a number of seconds, got {raw!r}"
        ) from None
    return timeout if timeout > 0 else None


def resolve_workers(workers: Optional[int], run_count: int) -> int:
    """How many workers a cross-run execution actually uses.

    ``None`` (auto) always returns 1: the in-process path over the store's
    resident label-column cache, which leaves a pool nothing to overlap
    (see the module docstring for the measured gap on a 2-core host).  An
    explicit *workers* request is honored, clamped to the run count (never
    more than one task per run in flight); the cross-run plans turn an
    attached replica fan into such an explicit request.
    """
    if run_count <= 0 or workers is None:
        return 1
    workers = int(workers)
    if workers < 1:
        raise QueryPlanError(f"workers must be a positive integer, got {workers}")
    return min(workers, run_count)


def _ids_of(runs: list[dict]) -> list[int]:
    return [int(row["run_id"]) for row in runs]


def _true_positions(answers):
    """Row indices answered True (numpy fast path when the array allows)."""
    if _np is not None and isinstance(answers, _np.ndarray):
        return _np.flatnonzero(answers)
    return [i for i, answer in enumerate(answers) if answer]


def _sweep_outcome(kernel, arrays, anchor, downstream: bool):
    """One run's affected executions, or ``None`` if it never ran *anchor*.

    The anchor row is found with one vectorized comparison over the run's
    columns, and ``(module, instance)`` tuples are built only for the
    rows the kernel returns.
    """
    anchor_row = arrays.anchor_row(anchor)
    if anchor_row is None:
        return None
    answers = kernel.sweep(
        arrays.q1, arrays.q2, arrays.q3, arrays.modules, anchor_row,
        downstream=downstream,
    )
    return arrays.executions_at(_true_positions(answers))


class _PairColumns:
    """A batch's endpoints, encoded once per module table they are asked of."""

    def __init__(self, pairs: Sequence[tuple]) -> None:
        self.sources = [source for source, _ in pairs]
        self.targets = [target for _, target in pairs]
        self._encoded: dict[int, tuple] = {}

    def rows(self, arrays):
        """``(source_rows, target_rows)`` in *arrays*, or ``None`` if absent."""
        table = arrays.modules.table
        encoded = self._encoded.get(id(table))
        if encoded is None:
            # the entry holds the table, so its id cannot be recycled
            encoded = self._encoded[id(table)] = (
                table,
                table.encode(self.sources),
                table.encode(self.targets),
            )
        _, sources, targets = encoded
        source_rows = arrays.pair_rows(*sources)
        if source_rows is None:
            return None
        target_rows = arrays.pair_rows(*targets)
        if target_rows is None:
            return None
        return source_rows, target_rows


def _batch_outcome(kernel, arrays, pair_columns: _PairColumns):
    """One run's answers, in pair order, or ``None`` if an endpoint is absent."""
    rows = pair_columns.rows(arrays)
    if rows is None:
        return None
    answers = kernel.pairs(arrays.q1, arrays.q2, arrays.q3, arrays.modules, *rows)
    if _np is not None and isinstance(answers, _np.ndarray):
        return answers.tolist()
    return [bool(answer) for answer in answers]


def _readonly_connection(path):
    """A private read-only connection to the store file (one per task).

    Falls back to a plain connection when the read-only URI open fails —
    e.g. a WAL-mode shard whose ``-shm`` file an old SQLite refuses to map
    read-only; the workers only ever SELECT, so the fallback stays safe.
    """
    import sqlite3

    try:
        return sqlite3.connect(f"file:{quote(str(path))}?mode=ro", uri=True)
    except sqlite3.OperationalError:  # pragma: no cover - sqlite-build dependent
        return sqlite3.connect(str(path))


# ----------------------------------------------------------------------
# packed process-worker results (decoded once, in the parent)
# ----------------------------------------------------------------------
def _pack_affected(executions) -> tuple:
    """Pack affected sweep rows: module dictionary + two int64 columns.

    ``len(affected)`` Python tuples become one small tuple of distinct
    module names plus two byte blobs — far cheaper to pickle out of a
    process worker than the decoded ``(module, instance)`` list.  Only
    results that cross a process boundary are packed.
    """
    modules: list[str] = []
    module_index: dict[str, int] = {}
    index_column = array("q")
    instance_column = array("q")
    for module, instance in executions:
        slot = module_index.setdefault(module, len(modules))
        if slot == len(modules):
            modules.append(module)
        index_column.append(slot)
        instance_column.append(int(instance))
    return ("sweep", tuple(modules), index_column.tobytes(), instance_column.tobytes())


def _decode_affected(packed: tuple) -> list[tuple[str, int]]:
    """Rebuild the ``(module, instance)`` list from one packed sweep payload."""
    _, modules, index_bytes, instance_bytes = packed
    index_column = array("q")
    index_column.frombytes(index_bytes)
    instance_column = array("q")
    instance_column.frombytes(instance_bytes)
    return [
        (modules[slot], instance)
        for slot, instance in zip(index_column, instance_column)
    ]


def _pack_answers(answers) -> tuple:
    """Pack one run's batch answers as a byte vector (one byte per pair)."""
    if _np is not None and isinstance(answers, _np.ndarray):
        blob = _np.asarray(answers, dtype=bool).tobytes()
    else:
        blob = bytes(bytearray(1 if answer else 0 for answer in answers))
    return ("batch", blob)


def _decode_outcome(packed) -> Union[list, None]:
    """Decode one packed per-run outcome."""
    if packed[0] == "sweep":
        return _decode_affected(packed)
    return [bool(byte) for byte in packed[1]]


# ----------------------------------------------------------------------
# worker tasks (top-level so the process pool can pickle them)
# ----------------------------------------------------------------------
def _fetch_chunk_arrays(db_path, run_ids, table=None):
    """Fetch one chunk's label columns over a task-private connection."""
    # imported lazily: repro.storage imports repro.engine submodules, so a
    # module-level import here would tangle package initialization order
    from repro.storage.store import load_label_arrays

    connection = _readonly_connection(db_path)
    try:
        return load_label_arrays(connection, run_ids, table)
    finally:
        connection.close()


def _thread_chunk_task(db_path, run_ids, kernels, evaluate):
    """One thread task: private-connection fetch, then per-run evaluation."""
    fault_point("pool.task")
    arrays_of = _fetch_chunk_arrays(
        db_path, run_ids, kernels[run_ids[0]].module_table
    )
    return [
        (run_id, evaluate(kernels[run_id], arrays_of[run_id])) for run_id in run_ids
    ]


def _process_chunk_task(payload):
    """One process task: private-connection fetch + dense evaluation.

    The payload carries only picklable state: the store (or shard) file
    path, the chunk's run ids, each run's dense spec payload as a
    **pickled blob** (``pickle.dumps((matrix, position_of))`` — serialized
    once per kernel per pool and reshipped as bytes), and the operation
    descriptor (``("sweep", anchor, downstream)`` or ``("batch", pairs)``).
    Results cross the process boundary packed (see :func:`_pack_affected`
    / :func:`_pack_answers`); the parent decodes them once.
    """
    db_path, run_ids, blob_of, op = payload
    fault_point("pool.task")
    arrays_of = _fetch_chunk_arrays(db_path, run_ids)
    # runs of one spec share one kernel, hence one blob object: unpickle
    # each distinct blob once per task
    dense_cache: dict[int, tuple] = {}

    def dense_of(run_id):
        blob = blob_of[run_id]
        key = id(blob)
        if key not in dense_cache:
            dense_cache[key] = pickle.loads(blob)
        return dense_cache[key]

    results = []
    if op[0] == "sweep":
        _, anchor, downstream = op
        for run_id in run_ids:
            arrays = arrays_of[run_id]
            matrix, position_of = dense_of(run_id)
            anchor_row = arrays.anchor_row(anchor)
            if anchor_row is None:
                results.append((run_id, None))
                continue
            answers = dense_sweep_answers(
                matrix,
                arrays.q1,
                arrays.q2,
                arrays.q3,
                column_positions(position_of, arrays.modules),
                anchor_row,
                downstream,
            )
            results.append(
                (
                    run_id,
                    _pack_affected(arrays.executions_at(_np.flatnonzero(answers))),
                )
            )
    else:
        _, pairs = op
        pair_columns = _PairColumns(pairs)
        for run_id in run_ids:
            arrays = arrays_of[run_id]
            matrix, position_of = dense_of(run_id)
            rows = pair_columns.rows(arrays)
            if rows is None:
                results.append((run_id, None))
                continue
            answers = dense_pair_answers(
                matrix,
                arrays.q1,
                arrays.q2,
                arrays.q3,
                column_positions(position_of, arrays.modules),
                *rows,
            )
            results.append((run_id, _pack_answers(answers)))
    return results


def _pushdown_chunk_task(db_path, run_ids, anchor, modules, downstream, pack=False):
    """One pushdown task: indexed range scans over a task-private connection.

    Fully picklable (a path, ids, the anchor and a module-name list — no
    kernels, no numpy), so the same task serves thread pools, process pools
    and numpy-less installs alike.  Only the matching rows ever leave
    SQLite; with *pack* (a process pool) they cross the process boundary
    packed, otherwise they are returned as they are.
    """
    from repro.storage.pushdown import pushdown_sweep

    fault_point("pool.task")
    connection = _readonly_connection(db_path)
    try:
        per_run = pushdown_sweep(
            connection, run_ids, anchor, modules, downstream=downstream
        )
    finally:
        connection.close()
    if not pack:
        return list(per_run.items())
    return [
        (run_id, None if result is None else _pack_affected(result))
        for run_id, result in per_run.items()
    ]


class CrossRunExecutor:
    """Execute one cross-run operation over all runs of a specification.

    Parameters
    ----------
    store:
        The provenance store (anything with ``list_runs`` /
        ``get_specification`` / ``spec_kernel`` / ``run_label_arrays`` and
        a ``path``; a sharded store additionally exposes ``shard_path_of``,
        which makes the chunking shard-aware).
    workers:
        Worker count; ``None`` (auto) runs in-process over the store's
        resident label columns (see :func:`resolve_workers`), an explicit
        count fans chunks over a pool.
    mode:
        ``"thread"`` (default) or ``"process"``; ``None`` reads the
        ``REPRO_PARALLEL`` environment variable.  Process mode requires
        numpy and dense spec kernels; ineligible runs are evaluated on the
        submitting side.
    pool:
        Where parallel tasks run.  ``None`` (default) asks the store for
        its persistent :class:`~repro.engine.pool.PersistentWorkerPool`
        (``store.worker_pool(mode)``), so repeated executions share one
        lazily started pool that closes with the store.  ``False`` forces
        a fresh ephemeral pool per execution (the pre-PR 5 behavior, kept
        for benchmarking the difference).  An explicit pool object is used
        as given and never shut down by the executor.
    """

    def __init__(
        self,
        store: Any,
        *,
        workers: Optional[int] = None,
        mode: Optional[str] = None,
        pool: Union[PersistentWorkerPool, None, bool] = None,
    ) -> None:
        self.store = store
        self.workers = workers
        if mode is None:
            mode = os.environ.get("REPRO_PARALLEL", "thread") or "thread"
        if mode not in ("thread", "process"):
            raise QueryPlanError(
                f"REPRO_PARALLEL mode must be 'thread' or 'process', got {mode!r}"
            )
        self.mode = mode
        if pool is True:  # pragma: no cover - guard against bool misuse
            pool = None
        self._pool = pool
        # dense payload blobs when no persistent pool hosts the cache; the
        # kernel object is kept alongside so its id can never be recycled
        # while the blob is alive
        self._blob_cache: dict[int, tuple[Any, bytes]] = {}

    # ------------------------------------------------------------------
    # shared plumbing
    # ------------------------------------------------------------------
    def _runs(self, specification: str) -> list[dict]:
        runs = self.store.list_runs(specification)
        if not runs:
            # distinguish "unknown specification" from "no runs yet"
            self.store.get_specification(specification)
        return runs

    def _run_ids(self, specification: str) -> list[int]:
        return _ids_of(self._runs(specification))

    def _kernel_groups(self, runs: list[dict]) -> list[tuple[Any, list[int]]]:
        """``(spec kernel, run ids)`` per ``(spec_id, scheme)`` among *runs*.

        The store caches one kernel per ``(spec_id, scheme)``, so asking
        it once per group (instead of once per run) is the same kernel
        for one SQL lookup instead of one per run.
        """
        groups: dict[tuple, list[int]] = {}
        for row in runs:
            key = (row.get("spec_id"), row.get("spec_scheme") or "tcm")
            groups.setdefault(key, []).append(int(row["run_id"]))
        return [
            (self.store.spec_kernel(group[0]), group) for group in groups.values()
        ]

    def _kernels_of(self, runs: list[dict]) -> dict[int, Any]:
        return {
            run_id: kernel
            for kernel, group in self._kernel_groups(runs)
            for run_id in group
        }

    def _parallel_workers(self, run_count: int) -> int:
        """The pool size, or 1 whenever the sequential path must serve."""
        workers = resolve_workers(self.workers, run_count)
        if workers > 1 and str(getattr(self.store, "path", ":memory:")) == ":memory:":
            # an in-memory database is reachable only through the store's
            # own connection; there is nothing for workers to open
            return 1
        return workers

    def in_process(self, run_count: int) -> bool:
        """Whether a query over *run_count* runs reads the resident columns.

        True when the executor evaluates in-process (:meth:`_run_sequential`)
        rather than fanning out to pool workers with private connections.
        """
        return self._parallel_workers(run_count) <= 1

    def _resolve_pool(self, kind: Optional[str] = None) -> Optional[PersistentWorkerPool]:
        """The persistent pool parallel tasks run on (``None`` = ephemeral).

        *kind* is the pool flavor the submitted tasks actually need —
        numpy-less installs fall back to closure-carrying thread tasks even
        under ``REPRO_PARALLEL=process``, and closures must never be
        submitted to a process pool.
        """
        kind = kind or self.mode
        if self._pool is False:
            return None
        if isinstance(self._pool, PersistentWorkerPool):
            if kind == "thread" and self._pool.mode == "process":
                # closure-carrying thread tasks cannot ride a process pool
                # (e.g. REPRO_PARALLEL=process on a numpy-less install with
                # an explicit process pool): fall back to an ephemeral pool
                return None
            return self._pool
        pool_of = getattr(self.store, "worker_pool", None)
        if pool_of is None:
            return None
        pool = pool_of(kind)
        if self.workers is not None and int(self.workers) > pool.workers:
            # an explicit request wider than the shared pool must not be
            # silently throttled to the pool's width; an ephemeral pool
            # sized to the request (the pre-persistent behavior) serves it
            return None
        return pool

    @staticmethod
    def _dense_blob(kernel, cache: Optional[dict]) -> bytes:
        """The kernel's dense payload, pickled once per *cache* lifetime.

        *cache* is the persistent pool's ``payload_cache`` when one serves
        this executor (every plan over the same store then shares the blob
        for the pool's lifetime) or the executor's own cache otherwise.
        ``None`` disables caching entirely — the ``pool=False`` baseline
        re-pickles per execution, faithfully reproducing the pre-pool
        behavior the benchmarks compare against.
        """
        if cache is None:
            return pickle.dumps((kernel.matrix, kernel.position_of))
        key = id(kernel)
        entry = cache.get(key)
        if entry is None:
            entry = (kernel, pickle.dumps((kernel.matrix, kernel.position_of)))
            cache[key] = entry
        return entry[1]

    def _note_degraded(self, kind: str) -> None:
        """Record one graceful degradation on the store (when it counts them)."""
        note = getattr(self.store, "note_degraded", None)
        if note is not None:
            note(kind)

    def _submit_chunks(self, submit, chunk_tasks):
        """Submit every ``(fn, args)`` chunk task, tolerating submit failures.

        A failed submission (a broken pool the persistent pool could not
        revive, an injected ``pool.submit`` fault) counts as the chunk's
        first attempt: the exception is carried to :meth:`_settle`, which
        retries once and then evaluates inline.  Non-retryable submission
        errors propagate immediately.
        """
        submitted = []
        for fn, args in chunk_tasks:
            try:
                submitted.append((fn, args, submit(fn, *args)))
            except _RETRYABLE as exc:
                submitted.append((fn, args, exc))
        return submitted

    def _settle(self, submit, fn, args, outcome):
        """One chunk's results, retrying once and then evaluating inline.

        *outcome* is the submitted future, or the exception submission
        raised.  On a :data:`_RETRYABLE` failure the chunk is resubmitted
        once (``worker_retry``); if that also fails it is evaluated in the
        calling thread (``worker_sequential``) with fault injection
        suppressed, so an injected fault can never turn into a wrong or
        missing answer — only a slower path.  Non-retryable errors, and
        retryable ones the sequential evaluation reproduces, propagate.
        """
        timeout = _worker_timeout()
        if not isinstance(outcome, BaseException):
            try:
                return outcome.result(timeout)
            except _RETRYABLE:
                pass
        self._note_degraded("worker_retry")
        try:
            return submit(fn, *args).result(timeout)
        except _RETRYABLE:
            self._note_degraded("worker_sequential")
            with faults.suppressed():
                return fn(*args)

    def _path_groups(self, run_ids: Sequence[int]) -> list[tuple[str, list[int]]]:
        """Group runs by the physical database file their rows live in.

        A single-file store yields one group (its ``path``); a sharded
        store yields one group per shard actually touched, so every worker
        connection opens exactly its chunk's shard file.
        """
        shard_path_of = getattr(self.store, "shard_path_of", None)
        if shard_path_of is None:
            return [(str(self.store.path), list(run_ids))]
        groups: dict[str, list[int]] = {}
        for run_id in run_ids:
            groups.setdefault(str(shard_path_of(run_id)), []).append(run_id)
        return list(groups.items())

    def _fan_chunks(self, run_ids, workers: int, *, cap_tasks: bool = False):
        """``(db_path, chunk)`` pairs with hot-spec replica fan-out.

        When the store attaches read replicas to a shard
        (:meth:`~repro.storage.sharded.ShardedProvenanceStore.replicate`),
        its rotation — ``[primary] + fresh replicas`` — is round-robined
        across that shard's chunks, so concurrent worker connections stop
        queueing on one file (and one WAL).  A store without the hook, or
        with a stale/absent replica set, degenerates to the primary path
        for every chunk.  Replicas are consistent snapshots refreshed by
        the store's write-version handshake, so every path in a rotation
        answers bit-identically.
        """
        rotation_of = getattr(self.store, "replica_rotation", None)
        for db_path, path_runs in self._path_groups(run_ids):
            paths = [db_path]
            if rotation_of is not None:
                rotation = rotation_of(db_path)
                if rotation:
                    paths = list(rotation)
            for index, chunk in enumerate(
                self._chunks(path_runs, workers, cap_tasks=cap_tasks)
            ):
                yield paths[index % len(paths)], chunk

    @staticmethod
    def _chunks(run_ids: Sequence[int], workers: int = 1, *, cap_tasks: bool = False):
        """Chunk runs so the whole pool stays busy.

        The chunk size is :data:`PREFETCH_CHUNK_RUNS` capped at
        ``ceil(runs / workers)`` — without the cap, a small sweep would
        submit fewer tasks than workers and leave part of the pool idle.

        With *cap_tasks* the chunk size is additionally **floored** at
        ``ceil(runs / workers)``, so at most *workers* chunks are emitted.
        Ephemeral pools enforce the worker cap through ``max_workers``;
        a shared persistent pool is wider than an explicit ``workers=``
        request, so there the cap must come from the task count itself.
        """
        count = len(run_ids)
        per_worker = -(-count // max(1, workers))
        chunk_size = max(1, min(PREFETCH_CHUNK_RUNS, per_worker))
        if cap_tasks:
            chunk_size = max(chunk_size, per_worker)
        for start in range(0, count, chunk_size):
            yield list(run_ids[start : start + chunk_size])

    def _execute(
        self,
        runs: list[dict],
        workers: int,
        evaluate: Callable,
        op: tuple,
    ) -> dict[int, Any]:
        """Fan chunk tasks over the pool; returns per-run outcomes.

        *evaluate* is the shared-kernel per-run evaluation (used by thread
        workers and for runs process mode cannot ship); *op* is the
        picklable operation descriptor for process tasks, whose outcomes
        come back packed.  Tasks are submitted to the store's persistent
        pool when one is available, else to a fresh ephemeral pool that
        is torn down with the call.
        """
        kernels = self._kernels_of(runs)
        run_ids = _ids_of(runs)
        outcomes: dict[int, Any] = {}
        use_processes = self.mode == "process" and _np is not None
        pool = self._resolve_pool("process" if use_processes else "thread")
        # a shared pool is wider than an explicit workers= request; cap the
        # task count so the requested concurrency limit still holds there
        cap_tasks = pool is not None and pool.workers > workers
        if pool is not None:
            blob_cache: Optional[dict] = pool.payload_cache
        elif self._pool is False:
            blob_cache = None  # faithful pre-pool baseline: no blob reuse
        else:
            blob_cache = self._blob_cache
        if use_processes:
            shippable = []
            local = []
            for run_id in run_ids:
                if getattr(kernels[run_id], "dense", False):
                    shippable.append(run_id)
                else:
                    local.append(run_id)
            chunk_tasks = [
                (
                    _process_chunk_task,
                    (
                        (
                            db_path,
                            chunk,
                            {
                                run_id: self._dense_blob(kernels[run_id], blob_cache)
                                for run_id in chunk
                            },
                            op,
                        ),
                    ),
                )
                for db_path, chunk in self._fan_chunks(
                    shippable, workers, cap_tasks=cap_tasks
                )
            ]

            def drain(submit, submitted):
                # non-dense kernels hold live spec indexes that cannot ship
                # across processes; evaluate them here while the pool works
                for db_path, path_runs in self._path_groups(local):
                    for chunk in self._chunks(path_runs):
                        arrays_of = _fetch_chunk_arrays(
                            db_path, chunk, kernels[chunk[0]].module_table
                        )
                        for run_id in chunk:
                            outcomes[run_id] = evaluate(
                                kernels[run_id], arrays_of[run_id]
                            )
                for record in submitted:
                    outcomes.update(dict(self._settle(submit, *record)))

            if pool is not None:
                drain(pool.submit, self._submit_chunks(pool.submit, chunk_tasks))
            else:
                with ProcessPoolExecutor(max_workers=workers) as ephemeral:
                    drain(
                        ephemeral.submit,
                        self._submit_chunks(ephemeral.submit, chunk_tasks),
                    )
            return outcomes

        chunk_tasks = [
            (_thread_chunk_task, (db_path, chunk, kernels, evaluate))
            for db_path, chunk in self._fan_chunks(
                run_ids, workers, cap_tasks=cap_tasks
            )
        ]
        if pool is not None:
            for record in self._submit_chunks(pool.submit, chunk_tasks):
                outcomes.update(dict(self._settle(pool.submit, *record)))
            return outcomes
        with ThreadPoolExecutor(max_workers=workers) as ephemeral:
            for record in self._submit_chunks(ephemeral.submit, chunk_tasks):
                outcomes.update(dict(self._settle(ephemeral.submit, *record)))
        return outcomes

    # ------------------------------------------------------------------
    # the anchored dependency sweep (CrossRunQuery)
    # ------------------------------------------------------------------
    def sweep(
        self, specification: str, anchor: tuple, direction: str = "downstream"
    ) -> tuple[dict[int, list], list[int]]:
        """Sweep every run of *specification*; returns ``(per_run, skipped)``.

        ``per_run`` maps run id to the affected executions (in stored-handle
        order); runs that never executed *anchor* land in ``skipped``.
        """
        downstream = direction == "downstream"
        runs = self._runs(specification)
        workers = self._parallel_workers(len(runs))
        if runs:
            note = getattr(self.store, "_note_sweep_path", None)
            if note is not None:
                note(
                    runs[0].get("spec_scheme") or "tcm",
                    pushdown=False,
                    run_id=int(runs[0]["run_id"]),
                )

        def evaluate(kernel, arrays):
            return _sweep_outcome(kernel, arrays, anchor, downstream)

        if workers <= 1:
            return self._run_sequential(runs, evaluate)
        outcomes = self._execute(runs, workers, evaluate, ("sweep", anchor, downstream))
        return self._split_outcomes(_ids_of(runs), outcomes)

    def sweep_pushdown(
        self, specification: str, anchor: tuple, direction: str = "downstream"
    ) -> tuple[dict[int, list], list[int]]:
        """The SQL form of :meth:`sweep`: per-shard indexed range scans.

        Same contract and bit-identical answers, but each worker's private
        read-only connection evaluates the sweep *inside* SQLite
        (:mod:`repro.storage.pushdown`) instead of streaming label arrays
        out — only matching rows cross the SQL boundary.  The spec-level
        module reachability of the anchor is computed once from the shared
        spec kernel and shipped to every task.  Below the parallel
        threshold the scans run on the store's own connections (which also
        serves in-memory stores).
        """
        from repro.storage.pushdown import reachable_modules

        downstream = direction == "downstream"
        run_ids = self._run_ids(specification)
        if not run_ids:
            return {}, []
        store = self.store
        profile = getattr(store, "pushdown_profile", None)
        note = getattr(store, "_note_sweep_path", None)
        if profile is not None and note is not None:
            note(profile(run_ids[0])[0], pushdown=True, run_id=run_ids[0])
        modules = reachable_modules(
            store.spec_kernel(run_ids[0]), anchor[0], downstream=downstream
        )
        if modules is None:
            # the anchor's module is not in the specification, so no run
            # can store a label for it: every run is skipped
            return {}, list(run_ids)
        workers = self._parallel_workers(len(run_ids))
        if workers <= 1:
            groups: dict[int, tuple[Any, list[int]]] = {}
            for run_id in run_ids:
                connection = store.read_connection_for(run_id)
                groups.setdefault(id(connection), (connection, []))[1].append(run_id)
            results: dict[int, Any] = {}
            from repro.storage.pushdown import pushdown_sweep

            for connection, group_runs in groups.values():
                results.update(
                    pushdown_sweep(
                        connection, group_runs, anchor, modules, downstream=downstream
                    )
                )
            per_run: dict[int, list] = {}
            skipped: list[int] = []
            for run_id in run_ids:
                answer = results[run_id]
                if answer is None:
                    skipped.append(run_id)
                else:
                    per_run[run_id] = answer
            return per_run, skipped
        pool = self._resolve_pool(self.mode)
        cap_tasks = pool is not None and pool.workers > workers
        pack = self.mode == "process"
        chunk_tasks = [
            (_pushdown_chunk_task, (db_path, chunk, anchor, modules, downstream, pack))
            for db_path, chunk in self._fan_chunks(
                run_ids, workers, cap_tasks=cap_tasks
            )
        ]

        outcomes: dict[int, Any] = {}
        if pool is not None:
            for record in self._submit_chunks(pool.submit, chunk_tasks):
                outcomes.update(dict(self._settle(pool.submit, *record)))
        else:
            executor_cls = (
                ProcessPoolExecutor if self.mode == "process" else ThreadPoolExecutor
            )
            with executor_cls(max_workers=workers) as ephemeral:
                for record in self._submit_chunks(ephemeral.submit, chunk_tasks):
                    outcomes.update(dict(self._settle(ephemeral.submit, *record)))
        return self._split_outcomes(run_ids, outcomes)

    # ------------------------------------------------------------------
    # the generalized pair batch (CrossRunBatchQuery / CrossRunPointQuery)
    # ------------------------------------------------------------------
    def batch(
        self, specification: str, pairs: Sequence[tuple]
    ) -> tuple[dict[int, list], list[int]]:
        """Ask the same *pairs* of every run; returns ``(per_run, skipped)``.

        ``per_run`` maps run id to one boolean per pair, in pair order —
        the rows of the runs x pairs matrix.  Runs missing **any** queried
        endpoint land in ``skipped`` (the cross-run analogue of a sweep
        anchor the run never executed), so a present row is always a
        complete, trustworthy answer vector.
        """
        pairs = list(pairs)
        if not pairs:
            raise QueryPlanError("cross-run batch needs at least one pair")
        runs = self._runs(specification)
        workers = self._parallel_workers(len(runs))
        pair_columns = _PairColumns(pairs)

        def evaluate(kernel, arrays):
            return _batch_outcome(kernel, arrays, pair_columns)

        if workers <= 1:
            return self._run_sequential(runs, evaluate)
        outcomes = self._execute(runs, workers, evaluate, ("batch", pairs))
        return self._split_outcomes(_ids_of(runs), outcomes)

    def _run_sequential(self, runs, evaluate) -> tuple[dict[int, Any], list[int]]:
        """The in-process path: every run from the store's resident columns.

        One :meth:`run_label_arrays_many` call per spec kernel reads the
        whole specification — from SQL only for runs not yet cached — and
        each run is evaluated inline, with no pool and no result packing.
        """
        store = self.store
        outcomes: dict[int, Any] = {}
        for kernel, group in self._kernel_groups(runs):
            arrays_of = store.run_label_arrays_many(group, kernel.module_table)
            for run_id in group:
                outcomes[run_id] = evaluate(kernel, arrays_of[run_id])
        return self._split_outcomes(_ids_of(runs), outcomes)

    @staticmethod
    def _split_outcomes(run_ids, outcomes) -> tuple[dict[int, Any], list[int]]:
        """``(per_run, skipped)``, decoding what process workers packed."""
        per_run: dict[int, Any] = {}
        skipped: list[int] = []
        for run_id in run_ids:
            answer = outcomes[run_id]
            if isinstance(answer, tuple):
                answer = _decode_outcome(answer)
            if answer is None:
                skipped.append(run_id)
            else:
                per_run[run_id] = answer
        return per_run, skipped
