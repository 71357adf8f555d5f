"""The three workloads: ``sweep``, ``lookup`` and ``ingest``.

Each is a closed loop driven by one client thread in one process, over the
program's **default** path: ``open_store``, ``store.session()`` (or the
daemon's per-connection session), auto workers, auto pushdown and adaptive
promotion, with no knob forced.  A workload object has four phases:

* ``prepare`` — seeded input generation (not timed, not in ``setup_s``);
* ``setup`` — program calls before the timed phase (labeling, store build,
  initial ingest, server start, warm-up); repeated ``setup_repeats`` times
  into fresh directories, and ``setup_s`` is the median;
* ``next_op`` — the next operation of the timed phase, with its answer
  check against the :class:`~inputs.Oracle`;
* ``close`` — stops the server and closes the store.
"""

from __future__ import annotations

import bisect
import random
import time
from collections import deque
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path

from inputs import (
    Oracle,
    common_executions,
    derive,
    fingerprint,
    fresh_copy,
    make_runs,
    make_spec,
    median_reach_anchor,
    spec_names,
    stratified_walk,
    zipf_cumulative,
)
from measure import Op, median, tree_bytes

from repro.api.queries import (
    BatchQuery,
    CrossRunBatchQuery,
    CrossRunQuery,
    DownstreamQuery,
    PointQuery,
)
from repro.server.client import RemoteStore
from repro.server.daemon import ServerThread
from repro.skeleton.skl import SkeletonLabeler
from repro.storage.sharded import open_store, shard_of_spec

__all__ = ["WORKLOADS", "SweepWorkload", "LookupWorkload", "IngestWorkload"]


def _label_bits(labeled_runs) -> float:
    """``average_label_length_bits`` over runs, weighted by their vertices."""
    total = sum(l.average_label_length_bits() * l.run.vertex_count for l in labeled_runs)
    return total / sum(l.run.vertex_count for l in labeled_runs)


def _store_counters(stats: dict) -> dict:
    pushdown = stats.get("pushdown", {})
    return {
        "promotions": stats.get("promotions", 0),
        "evictions": stats.get("evictions", 0),
        "degraded": sum(stats.get("degraded", {}).values()),
        "pushdown_sql": sum(pushdown.get("sql", {}).values()),
        "pushdown_kernel": sum(pushdown.get("kernel", {}).values()),
    }


def _same_sweep(result, expected: dict) -> bool:
    """Whether a cross-run sweep matches the expected per-run fingerprints."""
    return not result.skipped_runs and {
        run_id: fingerprint(found) for run_id, found in result.per_run.items()
    } == expected


class _Workload:
    name = ""
    roles: dict = {}
    work_kinds: tuple = ()
    sweep_kinds: tuple = ()

    def __init__(self, seed: int, workdir: Path, sizes=None) -> None:
        self.workdir = Path(workdir)
        self.sizes = sizes or self.Sizes()
        self.rng = random.Random(seed)
        self.setup_seconds: list[float] = []
        self.op_index = 0

    def run_setups(self) -> None:
        """Set up ``setup_repeats`` times; keep the last one for the timed phase."""
        for repeat in range(self.sizes.setup_repeats):
            if repeat:
                self.close()
            directory = self.workdir / f"{self.name}-{repeat}"
            started = time.perf_counter()
            self.setup(directory)
            self.setup_seconds.append(time.perf_counter() - started)
            self.store_path = directory
        self.build_oracle()

    @property
    def setup_s(self) -> float:
        return median(self.setup_seconds)

    def description(self) -> dict:
        return {
            "workload": self.name,
            "loop": "closed",
            "clients": 1,
            "sizes": dict(vars(self.sizes)),
            "layout": self.layout,
            "why": self.why,
        }

    def store_bytes_per_vertex(self) -> float:
        vertices = sum(int(row["n_vertices"]) for row in self.store.list_runs())
        return tree_bytes(self.store_path) / vertices


# ----------------------------------------------------------------------
# sweep: cross-run sweeps and batches over a single-file store
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepSizes:
    schemes: tuple = ("tree-cover", "tcm")
    runs_per_spec: int = 12
    vertices: int = 1600
    batch_pairs: int = 2000
    sweeps_per_batch: int = 4
    batch_sets: int = 4
    setup_repeats: int = 3


class SweepWorkload(_Workload):
    name = "sweep"
    Sizes = SweepSizes
    # one latency population per path: kernel-only tcm sweeps, batches, and
    # the downstream sweeps of the pushdown-capable tree-cover spec (a
    # pushdown sweep costs what it returns, and upstream results are far
    # smaller, so both directions together would put the median between
    # two modes)
    roles = {
        "primary": ("sweep_tcm_downstream", "sweep_tcm_upstream"),
        "secondary": ("cross_batch",),
        "tertiary": ("sweep_tree-cover_downstream",),
    }
    work_kinds = (
        "sweep_tcm_downstream",
        "sweep_tcm_upstream",
        "sweep_tree-cover_downstream",
        "sweep_tree-cover_upstream",
    )
    sweep_kinds = work_kinds
    layout = "single-file store (ProvenanceStore), journal_mode=MEMORY"
    why = (
        "The default cross-run hot path: SQL fetch, transpose, packing, the "
        "parallel executor and pool, and the pushdown planner; never the "
        "daemon, the labeler or the run LRU."
    )

    def prepare(self) -> None:
        sizes, rng = self.sizes, self.rng
        self.specs = [make_spec(f"sweep-{scheme}") for scheme in sizes.schemes]
        self.scheme_of = dict(zip((spec.name for spec in self.specs), sizes.schemes))
        self.runs = {
            spec.name: make_runs(spec, sizes.runs_per_spec, sizes.vertices, rng, spec.name)
            for spec in self.specs
        }
        self.walks: dict = {}
        self.pair_sets: dict = {}
        for spec in self.specs:
            common = common_executions(self.runs[spec.name])
            self.walks[spec.name] = stratified_walk(self.runs[spec.name][0], common)
            self.pair_sets[spec.name] = [
                [(rng.choice(common), rng.choice(common)) for _ in range(sizes.batch_pairs)]
                for _ in range(sizes.batch_sets)
            ]
        self.step = {spec.name: 0 for spec in self.specs}

    def setup(self, directory: Path) -> None:
        directory.mkdir(parents=True)
        self.store = open_store(directory / "store.db")
        self.labeled = {}
        for spec, scheme in zip(self.specs, self.sizes.schemes):
            labeler = SkeletonLabeler(spec, scheme)
            for run in self.runs[spec.name]:
                labeled = labeler.label_run(run)
                self.labeled[self.store.add_labeled_run(labeled)] = labeled
        self.session = self.store.session()
        for spec in self.specs:
            self.session.run(CrossRunQuery(spec.name, self.walks[spec.name][0]))
            self.session.run(CrossRunBatchQuery(spec.name, self.pair_sets[spec.name][0][:16]))

    def build_oracle(self) -> None:
        self.oracle = Oracle(self.labeled)
        self.run_ids = {
            spec.name: [int(r["run_id"]) for r in self.store.list_runs(spec.name)]
            for spec in self.specs
        }

    def next_op(self) -> Op:
        index = self.op_index
        self.op_index += 1
        spec = self.specs[index % len(self.specs)].name
        run_ids = self.run_ids[spec]
        step = self.step[spec]
        if index % (self.sizes.sweeps_per_batch + 1) == self.sizes.sweeps_per_batch:
            pairs = self.pair_sets[spec][step % len(self.pair_sets[spec])]
            query = CrossRunBatchQuery(spec, pairs)
            return Op(
                kind="cross_batch",
                call=lambda: self.session.run(query),
                check=lambda result: not result.skipped_runs
                and {k: [bool(a) for a in v] for k, v in result.per_run.items()}
                == {run_id: self.oracle.batch(run_id, pairs) for run_id in run_ids},
            )
        self.step[spec] = step + 1
        walk = self.walks[spec]
        anchor = walk[(step // 2) % len(walk)]
        direction = "downstream" if step % 2 == 0 else "upstream"
        downstream = direction == "downstream"
        query = CrossRunQuery(spec, anchor, direction)
        return Op(
            kind=f"sweep_{self.scheme_of[spec]}_{direction}",
            call=lambda: self.session.run(query),
            check=lambda result: _same_sweep(
                result,
                {run_id: self.oracle.sweep_print(run_id, anchor, downstream) for run_id in run_ids},
            ),
            work=lambda result: float(result.affected_count),
            after=lambda result, _: {"executions": result.affected_count},
        )

    def counters(self) -> dict:
        return _store_counters(self.session.cache_stats())

    def label_bits(self) -> float:
        return _label_bits(self.labeled.values())

    def close(self) -> None:
        self.store.close()


# ----------------------------------------------------------------------
# lookup: point-heavy traffic through the daemon over a 2-shard store
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LookupSizes:
    specs: int = 4
    runs_per_spec: int = 12
    vertices: int = 1600
    shards: int = 2
    scheme: str = "tcm"
    batch_pairs: int = 1000
    mix: tuple = (("point", 0.90), ("batch", 0.08), ("downstream", 0.02))
    zipf_s: float = 1.1
    setup_repeats: int = 3


class LookupWorkload(_Workload):
    name = "lookup"
    Sizes = LookupSizes
    roles = {"primary": ("point",), "secondary": ("batch",), "tertiary": ("downstream",)}
    work_kinds = ("batch",)
    sweep_kinds = ("downstream",)
    layout = (
        "2-shard store (ShardedProvenanceStore), WAL with synchronous=NORMAL, "
        "behind a loopback ServerThread"
    )
    why = (
        "The wire protocol, the daemon, session planning, adaptive promotion "
        "and the stored-run LRU: 24 runs per shard against a 16-run cache, so "
        "tail runs are evicted or answered by per-pair SQL."
    )

    def prepare(self) -> None:
        sizes, rng = self.sizes, self.rng
        names = spec_names("lookup", sizes.specs, sizes.shards)
        self.specs = [make_spec(name) for name in names]
        self.runs = {}
        for spec in self.specs:
            for run in make_runs(spec, sizes.runs_per_spec, sizes.vertices, rng, spec.name):
                self.runs[run.name] = run
        # Zipf ranks alternate between shards, so each shard's run cache
        # faces the same skew whatever the seed
        by_shard: dict = {}
        for name in sorted(self.runs):
            shard = shard_of_spec(self.runs[name].specification.name, sizes.shards)
            by_shard.setdefault(shard, []).append(name)
        for names_of_shard in by_shard.values():
            rng.shuffle(names_of_shard)
        self.ranked = [
            name
            for group in zip_longest(*by_shard.values())
            for name in group
            if name is not None
        ]
        self.cumulative = zipf_cumulative(len(self.ranked), sizes.zipf_s)
        self.executions = {
            name: [(v.module, v.instance) for v in run.graph.vertices()]
            for name, run in self.runs.items()
        }
        # a run's dependency sweep asks what depends on a typical
        # (median-reach) execution, so the sweep population varies by run
        # and by cache state, not by a random anchor's reach
        self.sweep_anchor = {
            name: median_reach_anchor(run.specification, self.executions[name])
            for name, run in self.runs.items()
        }
        self.op_rng = random.Random(derive(rng))

    def setup(self, directory: Path) -> None:
        sizes = self.sizes
        labeled = []
        for spec in self.specs:
            labeler = SkeletonLabeler(spec, sizes.scheme)
            labeled.extend(labeler.label_run(run) for run in self.runs.values()
                           if run.specification is spec)
        self.store = open_store(directory, shards=sizes.shards)
        ids = self.store.add_labeled_runs(labeled)
        self.labeled = {l.run.name: l for l in labeled}
        self.run_id_of = {l.run.name: run_id for l, run_id in zip(labeled, ids)}
        self.server = ServerThread(self.store).start()
        self.client = RemoteStore(self.server.url)
        self.session = self.client.session()
        for spec in self.specs:
            name = next(n for n in self.ranked if self.runs[n].specification is spec)
            source, target = self.executions[name][:2]
            self.session.run(PointQuery(source, target, run_id=self.run_id_of[name]))

    def build_oracle(self) -> None:
        self.oracle = Oracle(self.labeled)

    def _pick_run(self) -> str:
        point = self.op_rng.random() * self.cumulative[-1]
        return self.ranked[bisect.bisect_left(self.cumulative, point)]

    def _pick_kind(self) -> str:
        draw = self.op_rng.random()
        for kind, share in self.sizes.mix:
            if draw < share:
                return kind
            draw -= share
        return self.sizes.mix[-1][0]

    def next_op(self) -> Op:
        rng = self.op_rng
        kind = self._pick_kind()
        name = self._pick_run()
        run_id = self.run_id_of[name]
        executions = self.executions[name]
        engine_hit = lambda: {"engine_hit": int(self.store.has_compiled_engine(run_id))}
        if kind == "point":
            source, target = rng.choice(executions), rng.choice(executions)
            query = PointQuery(source, target, run_id=run_id)
            return Op(
                kind=kind,
                call=lambda: self.session.run(query),
                check=lambda answer: answer == self.oracle.point(name, source, target),
                work=lambda answer: 1.0,
                before=engine_hit,
            )
        if kind == "batch":
            pairs = [
                (rng.choice(executions), rng.choice(executions))
                for _ in range(self.sizes.batch_pairs)
            ]
            query = BatchQuery(pairs=pairs, run_id=run_id)
            return Op(
                kind=kind,
                call=lambda: self.session.run(query),
                check=lambda answers: [bool(a) for a in answers] == self.oracle.batch(name, pairs),
                work=lambda answers: float(len(answers)),
                before=engine_hit,
            )
        anchor = self.sweep_anchor[name]
        query = DownstreamQuery(anchor, run_id=run_id)
        return Op(
            kind=kind,
            call=lambda: self.session.run(query),
            check=lambda found: fingerprint(found) == self.oracle.sweep_print(name, anchor, True),
            before=engine_hit,
            after=lambda found, _: {"executions": len(found)},
        )

    def counters(self) -> dict:
        counters = _store_counters(self.client.cache_stats())
        counters["retries"] = self.client.fault_stats["retries"]
        return counters

    def label_bits(self) -> float:
        return _label_bits(self.labeled.values())

    def close(self) -> None:
        try:
            self.client.close()
        finally:
            try:
                self.server.stop()
            finally:
                self.store.close()


# ----------------------------------------------------------------------
# ingest: label + commit batches, then read what was written
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class IngestSizes:
    schemes: tuple = ("tree-cover", "tcm", "chain")
    pool_runs: int = 8
    batch_runs: int = 3
    vertices: int = 1600
    window_batches: int = 3
    shards: int = 2
    setup_repeats: int = 3


class IngestWorkload(_Workload):
    """Label and commit a batch, read it back, retire the oldest batch.

    Each spec keeps a retention window of ``window_batches`` batches: the
    step that writes a batch of a spec sweeps that spec and then deletes
    its oldest batch.  The store therefore stays the same size through
    the run, so the read after each write costs the same at the end of a
    run as at the start, and its median does not track how many batches
    the run managed to write.
    """

    name = "ingest"
    Sizes = IngestSizes
    # the read after each write, split by path: the pushdown-capable specs
    # (tree-cover, chain) and the kernel-only tcm spec
    roles = {
        "primary": ("ingest",),
        "secondary": ("sweep_tree-cover", "sweep_chain"),
        "tertiary": ("sweep_tcm",),
    }
    work_kinds = ("ingest",)
    sweep_kinds = ("sweep_tree-cover", "sweep_chain", "sweep_tcm")
    layout = "2-shard store (ShardedProvenanceStore), WAL with synchronous=NORMAL"
    why = (
        "The write path a workflow engine drives: label construction, "
        "per-shard commits, WAL and cache invalidation, with a read of what "
        "was just written after every batch and a retention window that "
        "keeps the store's size steady."
    )

    def prepare(self) -> None:
        sizes, rng = self.sizes, self.rng
        names = spec_names("ingest", len(sizes.schemes), sizes.shards)
        self.specs = [make_spec(name) for name in names]
        self.scheme_of = dict(zip(names, sizes.schemes))
        self.pool = {
            spec.name: make_runs(spec, sizes.pool_runs, sizes.vertices, rng, spec.name)
            for spec in self.specs
        }
        # the read after each write re-asks one monitoring question per
        # spec: what depends on a typical (median-reach) execution
        self.anchors = {
            spec.name: median_reach_anchor(spec, common_executions(self.pool[spec.name]))
            for spec in self.specs
        }

    def _batch(self, spec_name: str) -> list:
        """The next batch of *spec_name*: fresh copies of pool runs, new names."""
        start = self.cursor[spec_name]
        self.cursor[spec_name] = start + self.sizes.batch_runs
        pool = self.pool[spec_name]
        return [
            (position % len(pool), fresh_copy(pool[position % len(pool)], f"{spec_name}-w{position:05d}"))
            for position in range(start, start + self.sizes.batch_runs)
        ]

    def _ingest(self, spec_name: str, batch: list) -> list[int]:
        labeler = self.labelers[spec_name]
        return self.store.add_labeled_runs([labeler.label_run(run) for _, run in batch])

    def _stored(self, spec_name: str, batch: list, ids: list[int]) -> bool:
        """Record a committed batch; whether its ids are new and one per run."""
        written = self.written[spec_name]
        fresh = len(set(ids)) == len(batch) and not set(ids) & set(written)
        written.update(zip(ids, (slot for slot, _ in batch)))
        self.window[spec_name].append(list(ids))
        return fresh

    def setup(self, directory: Path) -> None:
        self.cursor = {spec.name: 0 for spec in self.specs}
        self.store = open_store(directory, shards=self.sizes.shards)
        self.labelers = {
            spec.name: SkeletonLabeler(spec, scheme)
            for spec, scheme in zip(self.specs, self.sizes.schemes)
        }
        self.written: dict = {spec.name: {} for spec in self.specs}
        self.window: dict = {spec.name: deque() for spec in self.specs}
        for spec in self.specs:
            for _ in range(self.sizes.window_batches):
                batch = self._batch(spec.name)
                self._stored(spec.name, batch, self._ingest(spec.name, batch))
        self.session = self.store.session()
        for spec in self.specs:
            self.session.run(CrossRunQuery(spec.name, self.anchors[spec.name]))

    def build_oracle(self) -> None:
        pool_labeled = {}
        for spec in self.specs:
            labeler = SkeletonLabeler(spec, self.scheme_of[spec.name])
            for slot, run in enumerate(self.pool[spec.name]):
                pool_labeled[(spec.name, slot)] = labeler.label_run(run)
        self.pool_labeled = pool_labeled
        self.oracle = Oracle(pool_labeled)

    def next_op(self) -> Op:
        index = self.op_index
        self.op_index += 1
        spec = self.specs[(index // 3) % len(self.specs)].name
        phase = index % 3
        if phase == 0:
            batch = self._batch(spec)
            vertices = sum(run.vertex_count for _, run in batch)
            return Op(
                kind="ingest",
                call=lambda: self._ingest(spec, batch),
                check=lambda ids: self._stored(spec, batch, ids),
                work=lambda ids: float(vertices),
                before=lambda: {"bytes_before": tree_bytes(self.store_path)},
                after=lambda ids, extra: {
                    "bytes_written": tree_bytes(self.store_path) - extra.pop("bytes_before"),
                    "vertices_written": vertices,
                },
            )
        if phase == 1:
            anchor = self.anchors[spec]
            query = CrossRunQuery(spec, anchor)
            written = dict(self.written[spec])
            return Op(
                kind=f"sweep_{self.scheme_of[spec]}",
                call=lambda: self.session.run(query),
                check=lambda result: _same_sweep(
                    result,
                    {
                        run_id: self.oracle.sweep_print((spec, slot), anchor, True)
                        for run_id, slot in written.items()
                    },
                ),
                after=lambda result, _: {"executions": result.affected_count},
            )
        retired = self.window[spec].popleft()

        def retire() -> None:
            for run_id in retired:
                self.store.delete_run(run_id)

        def forget(_) -> bool:
            for run_id in retired:
                del self.written[spec][run_id]
            return True

        return Op(kind="retire", call=retire, check=forget)

    def counters(self) -> dict:
        return _store_counters(self.session.cache_stats())

    def label_bits(self) -> float:
        return _label_bits(self.pool_labeled.values())

    def close(self) -> None:
        self.store.close()


WORKLOADS = {cls.name: cls for cls in (SweepWorkload, LookupWorkload, IngestWorkload)}
