"""In-memory span recorder and the probes that time the program's layers.

The program has no tracing of its own, so the benchmark wraps the public
entry points of each layer from the outside (:class:`Probes`) while a
traced block runs, and restores the originals afterwards.  A span records
its name, start, end, parent (the enclosing span on the same thread), the
thread it ran on, and small attributes such as row or byte counts.  Spans
stay in memory; :func:`assign_ops` ties each one to the operation whose
time window contains its start.  The benchmark keeps exactly one operation
in flight, so a span that starts on a pool or server thread inside an
operation's window belongs to that operation.
"""

from __future__ import annotations

import bisect
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

__all__ = ["Span", "SpanRecorder", "Probes", "assign_ops", "self_times", "union_length"]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    attrs: dict = field(default_factory=dict)
    op: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans from any thread; parents come from a per-thread stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        span = Span(
            name=name,
            start=time.perf_counter(),
            end=0.0,
            parent=stack[-1] if stack else None,
            thread=threading.get_ident(),
        )
        # list.append is atomic under the GIL, so pool and server threads
        # can record without a lock; the index is the span's identity
        self.spans.append(span)
        stack.append(len(self.spans) - 1)
        return span

    def end(self, span: Span, **attrs: Any) -> None:
        span.end = time.perf_counter()
        if attrs:
            span.attrs.update(attrs)
        self._stack().pop()

    def record(self, name: str, start: float, end: float, **attrs: Any) -> None:
        """A span measured by the caller (e.g. a task's wait in a queue)."""
        self.spans.append(
            Span(name, start, end, None, threading.get_ident(), dict(attrs))
        )

    def to_json(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "thread": s.thread,
                "op": s.op,
                **({"attrs": s.attrs} if s.attrs else {}),
            }
            for s in self.spans
        ]


def assign_ops(spans: list[Span], windows: list[tuple[int, float, float]]) -> None:
    """Set ``span.op`` to the id of the operation window holding its start.

    *windows* are ``(op_id, start, end)`` in start order and never overlap
    (one operation in flight).  Spans outside every window — set-up, the
    benchmark's own answer checking — keep ``op=None`` and are ignored.
    """
    starts = [start for _, start, _ in windows]
    for span in spans:
        index = bisect.bisect_right(starts, span.start) - 1
        if index >= 0:
            op_id, start, end = windows[index]
            if span.start <= end:
                span.op = op_id


def union_length(
    intervals: list[tuple[float, float]],
    clip: Optional[tuple[float, float]] = None,
) -> float:
    """Total length covered by *intervals*, optionally clipped to *clip*."""
    if clip is not None:
        lo, hi = clip
        intervals = [(max(a, lo), min(b, hi)) for a, b in intervals]
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds each span name spent outside its same-thread child spans.

    Counts the spans :func:`assign_ops` tied to an operation.  A span's
    self time is its duration minus the part of it its children (spans
    whose ``parent`` is that span) cover.  Work a span hands to another
    thread is not its child; ``engine.parallel.self_ms`` applies the
    cross-thread rule for the executor.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    totals: dict[str, float] = {}
    for index, span in enumerate(spans):
        if span.op is None or span.end <= 0:
            continue
        covered = union_length(children.get(index, []), (span.start, span.end))
        totals[span.name] = totals.get(span.name, 0.0) + span.duration - covered
    return totals


class Probes:
    """Wraps the program's layer entry points with spans, reversibly.

    :meth:`install` replaces each entry point (a class method or a module
    function looked up at call time) with a timing wrapper;
    :meth:`uninstall` puts the originals back, so untraced blocks run the
    unmodified program.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _timed(self, name: str, attrs_of: Optional[Callable] = None):
        recorder = self.recorder

        def make(original):
            def wrapper(*args, **kwargs):
                span = recorder.begin(name)
                result = None
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    recorder.end(span, **(attrs_of(result) if attrs_of and result is not None else {}))

            wrapper.__wrapped__ = original
            return wrapper

        return make

    # ------------------------------------------------------------------
    def install(self) -> None:
        if self._saved:
            return
        import repro.api.session as session_module
        import repro.engine.kernels as kernels_module
        import repro.server.client as client_module
        import repro.server.daemon as daemon_module
        import repro.storage.pushdown as pushdown_module
        import repro.storage.store as store_module
        from repro.api.session import ProvenanceSession
        from repro.engine.parallel import CrossRunExecutor
        from repro.engine.pool import PersistentWorkerPool
        from repro.engine.query import QueryEngine
        from repro.server.client import RemoteSession
        from repro.skeleton.skl import SkeletonLabeler
        from repro.storage.sharded import ShardedProvenanceStore
        from repro.storage.store import ProvenanceStore

        timed = self._timed
        # api: the whole session call (server-side service time when it
        # runs on the daemon's store thread) and the planner
        self._patch(ProvenanceSession, "run", timed("api.run"))
        self._patch(session_module, "compile_plan", timed("api.compile"))
        self._patch(RemoteSession, "run", timed("server.client"))
        # engine.parallel: the cross-run executor entry points
        for method in ("sweep", "batch", "sweep_pushdown"):
            self._patch(CrossRunExecutor, method, timed("engine.parallel"))
        self._patch(PersistentWorkerPool, "submit", self._pool_submit)
        # storage: bulk fetch (module function, looked up at call time by
        # the store and by the executor's worker tasks), pushdown scans,
        # per-pair SQL, writes, and engine compilation on a cache miss
        rows_of_arrays = lambda arrays: {"rows": sum(len(a) for a in arrays.values())}
        self._patch(store_module, "load_label_arrays", timed("storage.fetch", rows_of_arrays))
        rows_of_pushdown = lambda per_run: {
            "rows": sum(len(r) for r in per_run.values() if r is not None)
        }
        self._patch(pushdown_module, "pushdown_sweep", timed("storage.pushdown", rows_of_pushdown))
        self._patch(store_module, "pushdown_sweep", timed("storage.pushdown", rows_of_pushdown))
        self._patch(ProvenanceStore, "label_of", timed("storage.point_sql"))
        self._patch(ProvenanceStore, "labels_of_many", timed("storage.point_sql"))
        self._patch(ShardedProvenanceStore, "add_labeled_runs", timed("storage.write"))
        self._patch(ShardedProvenanceStore, "delete_run", timed("storage.write"))
        self._patch(ProvenanceStore, "query_engine", self._query_engine)
        # engine.query: hot-pair cache outcome of each point query
        self._patch(QueryEngine, "reaches", self._engine_reaches)
        # engine.kernels: the shared spec kernel and every compiled kernel
        # class's handle replay
        self._patch(kernels_module.SpecKernel, "sweep", timed("engine.kernels"))
        self._patch(kernels_module.SpecKernel, "pairs", timed("engine.kernels"))
        for value in list(vars(kernels_module).values()):
            if isinstance(value, type) and "batch_ids" in value.__dict__:
                self._patch(value, "batch_ids", timed("engine.kernels"))
        # skeleton: label construction
        self._patch(
            SkeletonLabeler,
            "label_run",
            timed("skeleton.label", lambda labeled: {"vertices": labeled.run.vertex_count}),
        )
        # server: bytes through protocol.frame on both ends of the wire
        frame_bytes = lambda framed: {"bytes": len(framed)}
        self._patch(daemon_module, "frame", timed("server.frame", frame_bytes))
        self._patch(client_module, "frame", timed("server.frame", frame_bytes))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # probes that need more than a span around the call
    # ------------------------------------------------------------------
    def _pool_submit(self, original):
        recorder = self.recorder

        def submit(pool, fn, /, *args, **kwargs):
            if pool.mode != "thread":
                # process tasks are pickled by reference; leave them alone
                return original(pool, fn, *args, **kwargs)
            submitted = time.perf_counter()

            def task(*task_args, **task_kwargs):
                started = time.perf_counter()
                recorder.record("engine.pool.queue", submitted, started)
                span = recorder.begin("engine.pool.task")
                try:
                    return fn(*task_args, **task_kwargs)
                finally:
                    recorder.end(span)

            return original(pool, task, *args, **kwargs)

        return submit

    def _query_engine(self, original):
        recorder = self.recorder

        def query_engine(store, run_id):
            if store.has_compiled_engine(run_id):
                return original(store, run_id)
            span = recorder.begin("engine.query.compile")
            try:
                return original(store, run_id)
            finally:
                recorder.end(span)

        return query_engine

    def _engine_reaches(self, original):
        recorder = self.recorder

        def reaches(engine, source, target):
            hits = engine.stats.cache_hits
            span = recorder.begin("engine.query.reaches")
            try:
                return original(engine, source, target)
            finally:
                recorder.end(span, hit=int(engine.stats.cache_hits > hits))

        return reaches
