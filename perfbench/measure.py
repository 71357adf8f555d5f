"""The closed-loop load generator and the metrics computed from what it recorded.

One client thread sends the next operation only after the previous one
returned.  Every operation is timed on its own; the benchmark's answer
check runs after the timer stops, so checking costs no operation time.
With tracing on, the timed phase alternates untraced and traced blocks of
:data:`TRACE_BLOCK_SECONDS`, so ``trace.overhead`` compares the two under
the same data and the same warm caches.
"""

from __future__ import annotations

import math
import os
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from spans import Probes, SpanRecorder, assign_ops, union_length

__all__ = [
    "Op",
    "OpRecord",
    "Run",
    "median",
    "tail",
    "drive",
    "end_to_end_metrics",
    "per_layer_metrics",
    "peak_rss_mb",
    "tree_bytes",
]

TRACE_BLOCK_SECONDS = 1.0

#: samples that must lie beyond the value reported as ``.tail``
TAIL_BEYOND = 10

#: the standard percentile a ``.tail`` uses once a run has the samples for it
TAIL_PERCENTILE = 99.0


def median(values: list[float]) -> float:
    ordered = sorted(values)
    count = len(ordered)
    if not count:
        raise ValueError("median of no samples")
    middle = count // 2
    if count % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


def tail(values: list[float]) -> tuple[float, float]:
    """``(percentile, value)`` of the highest percentile with ≥10 samples beyond.

    Below 1,000 samples that is the sample with exactly
    :data:`TAIL_BEYOND` samples above it, at percentile
    ``100 * (n - 10) / n``, which moves smoothly with the sample count: a
    run that completes a few more or fewer operations never jumps from
    p75 to p90.  From 1,000 samples on, the percentile stops at
    :data:`TAIL_PERCENTILE` (the sample of rank ``ceil(0.99 * n)``): the
    handful of slowest operations in a long run are decided by host
    scheduling stalls more than by the program, and a ladder that climbed
    to p99.9 at 10,000 samples would jump whenever a run straddled that
    count.  With fewer than 11 samples no percentile qualifies and
    ``ValueError`` is raised.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count <= TAIL_BEYOND:
        raise ValueError(f"{count} samples cannot give a tail with {TAIL_BEYOND} beyond")
    # rounded first: 0.99 * n in floats can land a hair above the integer
    rank = math.ceil(round(TAIL_PERCENTILE * count / 100.0, 6))
    if count - rank >= TAIL_BEYOND:
        return TAIL_PERCENTILE, ordered[rank - 1]
    rank = count - TAIL_BEYOND  # 1-based rank of the reported sample
    return 100.0 * rank / count, ordered[rank - 1]


@dataclass
class Op:
    """One operation: ``call`` is timed, ``check`` and ``work`` are not."""

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    work: Callable[[Any], float] = lambda result: 0.0
    before: Optional[Callable[[], dict]] = None
    after: Optional[Callable[[Any, dict], dict]] = None


@dataclass
class OpRecord:
    op_id: int
    kind: str
    start: float
    end: float
    ok: bool
    traced: bool
    work: float = 0.0
    error: Optional[str] = None
    extra: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Run:
    """Everything one invocation measured."""

    records: list[OpRecord]
    recorder: Optional[SpanRecorder]
    counters_before: dict
    counters_after: dict


def drive(
    next_op: Callable[[], Op],
    seconds: float,
    *,
    trace: bool,
    counters: Callable[[], dict],
) -> Run:
    """Run operations until *seconds* of wall time have passed."""
    recorder = SpanRecorder() if trace else None
    probes = Probes(recorder) if trace else None
    records: list[OpRecord] = []
    counters_before = counters()
    started = time.perf_counter()
    deadline = started + seconds
    traced = False
    try:
        while True:
            now = time.perf_counter()
            if now >= deadline:
                break
            if trace:
                # odd blocks traced, even blocks untraced
                want = int((now - started) / TRACE_BLOCK_SECONDS) % 2 == 1
                if want != traced:
                    probes.install() if want else probes.uninstall()
                    traced = want
            op = next_op()
            extra = op.before() if (traced and op.before) else {}
            error = None
            result = None
            begin = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
            ok = False
            if error is None:
                try:
                    ok = bool(op.check(result))
                except Exception as exc:  # noqa: BLE001 - a malformed answer is a wrong one
                    error = f"answer check raised {type(exc).__name__}: {exc}"
                else:
                    error = None if ok else "wrong answer"
            if traced and op.after and error is None:
                extra.update(op.after(result, extra))
            records.append(
                OpRecord(
                    op_id=len(records),
                    kind=op.kind,
                    start=begin,
                    end=end,
                    ok=ok,
                    traced=traced,
                    work=op.work(result) if ok else 0.0,
                    error=error,
                    extra=extra,
                )
            )
    finally:
        if probes is not None:
            probes.uninstall()
    counters_after = counters()
    if recorder is not None:
        assign_ops(
            recorder.spans,
            [(r.op_id, r.start, r.end) for r in records if r.traced],
        )
    return Run(records, recorder, counters_before, counters_after)


# ----------------------------------------------------------------------
# end-to-end metrics
# ----------------------------------------------------------------------
def _latencies_ms(records: list[OpRecord], kinds: tuple) -> list[float]:
    # wrong answers keep their latency; they are counted in ``failed``
    return [r.seconds * 1000.0 for r in records if r.kind in kinds]


def _rate(records: list[OpRecord]) -> float:
    """Operations per second of operation time (one client, closed loop)."""
    busy = sum(r.seconds for r in records)
    return len(records) / busy if busy else 0.0


def end_to_end_metrics(run: Run, roles: dict, work_kinds: tuple) -> dict:
    """The untraced metrics of one workload, with sample counts.

    *roles* maps ``primary``/``secondary``/``tertiary`` to the op kinds
    whose latencies they report; *work_kinds* are the op kinds whose
    ``work`` counts toward ``work_per_s`` (units per second of those ops'
    own time).
    """
    records = [r for r in run.records if not r.traced]
    primary, secondary, tertiary = (
        _latencies_ms(records, roles[role])
        for role in ("primary", "secondary", "tertiary")
    )
    try:
        tail_pct, tail_value = tail(primary)
    except ValueError:
        # too short a run for a tail: report the maximum as percentile 100
        tail_pct, tail_value = 100.0, max(primary)
    work_records = [r for r in records if r.kind in work_kinds]
    work_busy = sum(r.seconds for r in work_records)
    return {
        "ops_per_s": (_rate(records), len(records)),
        "primary_ms.p50": (median(primary), len(primary)),
        "primary_ms.tail": (tail_value, len(primary), tail_pct),
        "secondary_ms.p50": (median(secondary), len(secondary)),
        "tertiary_ms.p50": (median(tertiary), len(tertiary)),
        "work_per_s": (
            sum(r.work for r in work_records) / work_busy if work_busy else 0.0,
            len(work_records),
        ),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tree_bytes(path: Path) -> int:
    """Bytes of every regular file under *path* (a store file or directory)."""
    path = Path(path)
    if path.is_file():
        files = [path] + [Path(str(path) + s) for s in ("-wal", "-journal")]
        return sum(f.stat().st_size for f in files if f.exists())
    return sum(
        entry.stat().st_size
        for entry in path.rglob("*")
        if entry.is_file() and not entry.name.endswith("-shm")
    )


# ----------------------------------------------------------------------
# per-layer metrics (traced blocks only)
# ----------------------------------------------------------------------
#: spans that wrap a whole operation rather than one layer below it; they
#: are left out of the attributed time behind ``unattributed_ms``
ROOT_SPANS = ("api.run", "server.client")

#: spans nested in the executor's own time that ``engine.parallel.self_ms``
#: subtracts
PARALLEL_CHILDREN = ("storage.fetch", "engine.kernels", "storage.pushdown")


def per_layer_metrics(run: Run, main_thread: int, sweep_kinds: tuple) -> dict:
    """Every per-layer metric; a layer the workload never enters reads 0."""
    records = [r for r in run.records if r.traced]
    if not records:
        raise ValueError("no traced operations")
    untraced = [r for r in run.records if not r.traced]
    spans_by_op: dict[int, list] = {r.op_id: [] for r in records}
    for span in run.recorder.spans:
        if span.op is not None and span.end > 0:
            spans_by_op[span.op].append(span)
    n_ops = len(records)

    def per_op_ms(names: tuple) -> float:
        total = 0.0
        for record in records:
            intervals = [
                (s.start, s.end) for s in spans_by_op[record.op_id] if s.name in names
            ]
            total += union_length(intervals, (record.start, record.end))
        return 1000.0 * total / n_ops

    def spans_named(name: str) -> list:
        return [s for r in records for s in spans_by_op[r.op_id] if s.name == name]

    # engine.parallel self time: the executor's windows minus the fetch,
    # kernel and pushdown work inside them, on any thread
    parallel_self = 0.0
    for record in records:
        op_spans = spans_by_op[record.op_id]
        windows = [(s.start, s.end) for s in op_spans if s.name == "engine.parallel"]
        children = [(s.start, s.end) for s in op_spans if s.name in PARALLEL_CHILDREN]
        for window in windows:
            parallel_self += (window[1] - window[0]) - union_length(children, window)

    unattributed = 0.0
    for record in records:
        attributed = [
            (s.start, s.end)
            for s in spans_by_op[record.op_id]
            if s.name not in ROOT_SPANS
        ]
        unattributed += record.seconds - union_length(attributed, (record.start, record.end))

    fetched_rows = 0
    returned = 0
    for record in records:
        if record.kind in sweep_kinds:
            fetched_rows += sum(
                s.attrs.get("rows", 0)
                for s in spans_by_op[record.op_id]
                if s.name in ("storage.fetch", "storage.pushdown")
            )
            returned += record.extra.get("executions", 0)

    queue = spans_named("engine.pool.queue")
    tasks = spans_named("engine.pool.task")
    reaches = spans_named("engine.query.reaches")
    labels = spans_named("skeleton.label")
    label_seconds = sum(s.duration for s in labels)
    service = [s for s in spans_named("api.run") if s.thread != main_thread]
    client_seconds = sum(s.duration for s in spans_named("server.client"))
    lookups = [r for r in records if "engine_hit" in r.extra]
    written = [r for r in records if "vertices_written" in r.extra]
    written_vertices = sum(r.extra["vertices_written"] for r in written)

    before, after = run.counters_before, run.counters_after
    delta = {key: after.get(key, 0) - before.get(key, 0) for key in after}
    sweeps = delta.get("pushdown_sql", 0) + delta.get("pushdown_kernel", 0)
    untraced_rate = _rate(untraced)
    traced_rate = _rate(records)

    return {
        "api.compile_ms": per_op_ms(("api.compile",)),
        "api.promotions": float(delta.get("promotions", 0)),
        "engine.parallel.ms": per_op_ms(("engine.parallel",)),
        "engine.parallel.self_ms": 1000.0 * parallel_self / n_ops,
        "engine.pool.tasks": len(tasks) / n_ops,
        "engine.pool.queue_ms": (
            1000.0 * sum(s.duration for s in queue) / len(queue) if queue else 0.0
        ),
        "storage.fetch.ms": per_op_ms(("storage.fetch",)),
        "storage.fetch.rows_per_result": fetched_rows / returned if returned else 0.0,
        "storage.pushdown.ms": per_op_ms(("storage.pushdown",)),
        "storage.pushdown.share": delta.get("pushdown_sql", 0) / sweeps if sweeps else 0.0,
        "storage.point_sql.ms": per_op_ms(("storage.point_sql",)),
        "storage.cache.evictions": float(delta.get("evictions", 0)),
        "storage.cache.hit_rate": (
            sum(r.extra["engine_hit"] for r in lookups) / len(lookups) if lookups else 0.0
        ),
        "storage.write.ms": per_op_ms(("storage.write",)),
        "storage.write.bytes_per_vertex": (
            sum(r.extra["bytes_written"] for r in written) / written_vertices
            if written_vertices
            else 0.0
        ),
        "storage.degraded": float(delta.get("degraded", 0)),
        "engine.query.compile_ms": per_op_ms(("engine.query.compile",)),
        "engine.query.hot_pair_hit_rate": (
            sum(s.attrs.get("hit", 0) for s in reaches) / len(reaches) if reaches else 0.0
        ),
        "engine.kernels.ms": per_op_ms(("engine.kernels",)),
        "skeleton.label_ms": per_op_ms(("skeleton.label",)),
        "skeleton.vertices_per_s": (
            sum(s.attrs.get("vertices", 0) for s in labels) / label_seconds
            if label_seconds
            else 0.0
        ),
        "server.service_us": 1e6 * sum(s.duration for s in service) / n_ops,
        "server.overhead_us": (
            1e6 * (client_seconds - sum(s.duration for s in service)) / n_ops
            if client_seconds
            else 0.0
        ),
        "server.frame_bytes": sum(
            s.attrs.get("bytes", 0) for s in spans_named("server.frame")
        ) / n_ops,
        "server.retries": float(delta.get("retries", 0)),
        "unattributed_ms": 1000.0 * unattributed / n_ops,
        "trace.overhead": traced_rate / untraced_rate if untraced_rate else 0.0,
    }


#: unit of every per-layer metric, in report order
PER_LAYER_UNITS = {
    "api.compile_ms": "ms/op",
    "api.promotions": "count",
    "engine.parallel.ms": "ms/op",
    "engine.parallel.self_ms": "ms/op",
    "engine.pool.tasks": "1/op",
    "engine.pool.queue_ms": "ms/task",
    "storage.fetch.ms": "ms/op",
    "storage.fetch.rows_per_result": "rows/result",
    "storage.pushdown.ms": "ms/op",
    "storage.pushdown.share": "fraction",
    "storage.point_sql.ms": "ms/op",
    "storage.cache.evictions": "count",
    "storage.cache.hit_rate": "fraction",
    "storage.write.ms": "ms/op",
    "storage.write.bytes_per_vertex": "B/vertex",
    "storage.degraded": "count",
    "engine.query.compile_ms": "ms/op",
    "engine.query.hot_pair_hit_rate": "fraction",
    "engine.kernels.ms": "ms/op",
    "skeleton.label_ms": "ms/op",
    "skeleton.vertices_per_s": "1/s",
    "server.service_us": "us/op",
    "server.overhead_us": "us/op",
    "server.frame_bytes": "B/op",
    "server.retries": "count",
    "unattributed_ms": "ms/op",
    "trace.overhead": "ratio",
}


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1
