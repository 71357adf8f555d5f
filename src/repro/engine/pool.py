"""The persistent ingest/executor worker pool.

Before this module, every parallel operation span up its own
``concurrent.futures`` pool and tore it down when the operation returned:
a monitoring loop re-executing one compiled cross-run plan paid pool
startup per execution, and in process mode additionally re-pickled the
dense per-specification kernel matrices into the fresh workers every time.
The write path had no pool at all — every labeled run funneled through one
``executemany`` on a single connection.

:class:`PersistentWorkerPool` is the shared fix: a **lazily started,
explicitly closeable** pool that lives as long as its owner (a
:class:`~repro.storage.store.ProvenanceStore` or
:class:`~repro.storage.sharded.ShardedProvenanceStore` — see
:class:`WorkerPoolOwner`) wants it to:

* nothing is spawned at construction — the first :meth:`submit` creates
  the underlying ``ThreadPoolExecutor`` / ``ProcessPoolExecutor``, so
  stores that never go parallel never own a thread;
* the pool is reused across operations: the sharded ingest service
  commits per-shard run batches through it, and
  :class:`~repro.engine.parallel.CrossRunExecutor` fans read chunks over
  it, so repeated plan executions stop paying pool startup;
* :attr:`payload_cache` memoizes expensive picklable payloads (the dense
  spec matrices process-mode tasks ship) for the pool's lifetime — the
  serialization happens once per kernel, not once per execution;
* :meth:`close` shuts the workers down deterministically (idempotent);
  the owner's ``close()`` calls it, and a pool can also be used as a
  context manager.

Thread pools are the default (sqlite3 and numpy release the GIL on the
hot paths); ``mode="process"`` builds a process pool for the executor's
``REPRO_PARALLEL=process`` path.  One owner can hold one pool per mode.
Every process pool starts its workers from :func:`process_pool_context`,
never by a bare ``fork``.
"""

from __future__ import annotations

import multiprocessing
import threading
import warnings
import weakref
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from typing import Any, Callable, Optional

from repro.faults import fault_point

__all__ = [
    "PersistentWorkerPool",
    "WorkerPoolOwner",
    "DEFAULT_POOL_WORKERS",
    "process_pool_context",
]

#: pool size when the owner does not pin one; matches the executor's
#: MAX_AUTO_WORKERS cap so a store-owned pool never undersizes a
#: replica-fanned cross-run execution
DEFAULT_POOL_WORKERS = 8


def process_pool_context():
    """The start method of every ``ProcessPoolExecutor`` in the library.

    ``forkserver`` where the platform has it, else ``spawn``.  A plain
    ``fork`` copies the parent mid-flight: a worker forked while another
    thread holds a SQLite lock (a shard commit, a reader's statement)
    inherits that lock with no thread left to release it, and hangs.
    """
    if "forkserver" not in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("spawn")
    context = multiprocessing.get_context("forkserver")
    # The server imports everything a worker needs once (the task modules,
    # and the multiprocessing parts a worker loads to unpickle its process
    # object) and every worker forks from it, so a fresh pool starts about
    # as fast as with a plain fork instead of each worker re-importing
    # numpy, the engine and the store.  Takes effect when the (single,
    # process-wide) server starts; '__main__' is the stdlib default.
    context.set_forkserver_preload(
        [
            "__main__",
            "multiprocessing.popen_forkserver",
            "multiprocessing.synchronize",
            "repro.engine.parallel",
            "repro.storage.store",
        ]
    )
    return context


def _reap_leaked_executor(executor: Executor, owner: str, mode: str) -> None:
    """Finalizer for pools dropped without :meth:`PersistentWorkerPool.close`.

    Runs when the pool is garbage-collected (or at interpreter exit via the
    ``weakref.finalize`` atexit hook), so a store that goes out of scope
    without ``close()`` cannot strand non-daemon worker threads or child
    processes.  The warning names the owner so the leak is attributable.
    """
    warnings.warn(
        f"PersistentWorkerPool(mode={mode!r}) owned by {owner} was never "
        "closed; shutting its workers down at cleanup. Call close() on the "
        "owning store (or use it as a context manager).",
        ResourceWarning,
        stacklevel=2,
        source=executor,
    )
    executor.shutdown(wait=True)


class PersistentWorkerPool:
    """A lazily started, explicitly closeable worker pool.

    Parameters
    ----------
    mode:
        ``"thread"`` (default) or ``"process"``.
    workers:
        Maximum worker count; ``None`` uses :data:`DEFAULT_POOL_WORKERS`.
    owner:
        Human-readable description of whoever is responsible for closing
        the pool; named in the ``ResourceWarning`` if the pool leaks.
    """

    def __init__(
        self,
        *,
        mode: str = "thread",
        workers: Optional[int] = None,
        owner: str = "an unnamed owner",
    ) -> None:
        if mode not in ("thread", "process"):
            raise ValueError(f"pool mode must be 'thread' or 'process', got {mode!r}")
        if workers is not None and int(workers) < 1:
            raise ValueError(f"workers must be a positive integer, got {workers}")
        self.mode = mode
        self.workers = int(workers) if workers is not None else DEFAULT_POOL_WORKERS
        self.owner = str(owner)
        self._executor: Optional[Executor] = None
        self._finalizer: Optional[weakref.finalize] = None
        self._lock = threading.Lock()
        self._closed = False
        #: expensive picklable payloads cached for the pool's lifetime,
        #: keyed by the caller (CrossRunExecutor keys dense spec-kernel
        #: blobs by kernel identity) — the point is to serialize once per
        #: pool, not once per submitted task
        self.payload_cache: dict = {}
        #: how many times the underlying executor was created (0 until the
        #: first submit; stays 1 however many operations reuse the pool)
        self.starts = 0
        #: tasks submitted over the pool's lifetime
        self.tasks_submitted = 0
        #: how many broken executors were discarded and lazily replaced
        #: (a worker process dying poisons the whole ProcessPoolExecutor;
        #: submit() detects that, swaps in a fresh one and retries once)
        self.restarts = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        """Whether the underlying executor exists (first submit starts it)."""
        return self._executor is not None

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def _ensure_executor(self) -> Executor:
        executor = self._executor
        if executor is not None:
            return executor
        with self._lock:
            if self._closed:
                raise RuntimeError("cannot submit to a closed PersistentWorkerPool")
            if self._executor is None:
                if self.mode == "process":
                    self._executor = ProcessPoolExecutor(
                        max_workers=self.workers, mp_context=process_pool_context()
                    )
                else:
                    self._executor = ThreadPoolExecutor(
                        max_workers=self.workers,
                        thread_name_prefix="repro-pool",
                    )
                self.starts += 1
                # leak safety net: if the pool is dropped without close(),
                # this fires on GC or at interpreter exit and shuts the
                # workers down instead of stranding them; close() detaches
                # it so the clean path stays silent
                self._finalizer = weakref.finalize(
                    self, _reap_leaked_executor, self._executor, self.owner, self.mode
                )
            return self._executor

    def _discard_broken(self) -> None:
        """Drop a poisoned executor so the next submit builds a fresh one.

        A worker process dying (OOM kill, segfault, ``os._exit``) breaks
        the whole ``ProcessPoolExecutor``: every later submit raises
        ``BrokenProcessPool`` forever.  Swapping the executor out — rather
        than marking the pool unusable — keeps the pool's contract
        ("submit works until close()") across worker deaths.
        """
        with self._lock:
            if self._closed:
                return
            executor, self._executor = self._executor, None
            finalizer, self._finalizer = self._finalizer, None
            self.restarts += 1
        if finalizer is not None:
            finalizer.detach()
        if executor is not None:
            # the executor is broken: its workers are already gone, so a
            # non-waiting shutdown just releases the bookkeeping
            executor.shutdown(wait=False)

    def submit(self, fn: Callable, /, *args: Any, **kwargs: Any):
        """Schedule ``fn(*args, **kwargs)``; starts the pool on first use.

        A broken executor (a worker process died) is detected here,
        discarded, and lazily replaced — the resubmission below is the
        only retry; a second failure propagates.
        """
        if self._closed:
            raise RuntimeError("cannot submit to a closed PersistentWorkerPool")
        fault_point("pool.submit")
        try:
            future = self._ensure_executor().submit(fn, *args, **kwargs)
        except BrokenExecutor:
            self._discard_broken()
            future = self._ensure_executor().submit(fn, *args, **kwargs)
        self.tasks_submitted += 1
        return future

    def close(self) -> None:
        """Shut the workers down (idempotent; waits for running tasks)."""
        with self._lock:
            self._closed = True
            executor, self._executor = self._executor, None
            finalizer, self._finalizer = self._finalizer, None
            self.payload_cache.clear()
        if finalizer is not None:
            finalizer.detach()
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "PersistentWorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def stats(self) -> dict:
        """Lifetime counters (surfaced through the owners' cache_stats)."""
        return {
            "mode": self.mode,
            "workers": self.workers,
            "started": self.started,
            "starts": self.starts,
            "restarts": self.restarts,
            "tasks_submitted": self.tasks_submitted,
            "payloads_cached": len(self.payload_cache),
            "closed": self._closed,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else ("started" if self.started else "idle")
        return (
            f"PersistentWorkerPool(mode={self.mode!r}, workers={self.workers}, "
            f"{state}, tasks={self.tasks_submitted})"
        )


#: guards every owner's lazy pool creation: pools are created rarely, so
#: one shared lock is cheaper than a lock per owner instance (a mixin has
#: no __init__ of its own to build one in)
_OWNER_LOCK = threading.Lock()


class WorkerPoolOwner:
    """Mixin: lazily created, explicitly closeable worker pools per mode.

    Both provenance stores mix this in; anything holding a store can ask
    ``store.worker_pool()`` for the shared pool instead of spinning up its
    own.  ``close_pools()`` is called from the owners' ``close()``.
    """

    _pools: Optional[dict[str, PersistentWorkerPool]] = None

    def worker_pool(self, mode: str = "thread") -> PersistentWorkerPool:
        """The owner's persistent pool for *mode*, created (unstarted) lazily.

        Thread-safe: two threads racing the first request for a mode get
        the same pool (an orphaned second pool would escape
        :meth:`close_pools`).
        """
        with _OWNER_LOCK:
            if self._pools is None:
                self._pools = {}
            pool = self._pools.get(mode)
            if pool is None or pool.closed:
                pool = self._pools[mode] = PersistentWorkerPool(
                    mode=mode,
                    workers=self.pool_workers(),
                    owner=self.pool_owner_description(),
                )
            return pool

    def pool_workers(self) -> Optional[int]:
        """Pool size for newly created pools (``None`` = the default cap)."""
        return None

    def pool_owner_description(self) -> str:
        """Who to blame in the leak warning; stores override with their path."""
        return type(self).__name__

    def close_pools(self) -> None:
        """Close every pool this owner created (idempotent)."""
        with _OWNER_LOCK:
            pools, self._pools = self._pools, {}
        if pools:
            for pool in pools.values():
                pool.close()

    def pool_stats(self) -> dict:
        """Per-mode pool counters (empty until a pool was requested)."""
        if not self._pools:
            return {}
        return {mode: pool.stats() for mode, pool in self._pools.items()}
