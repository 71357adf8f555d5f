"""Tests for the store's resident label-column cache.

Cross-run queries read every run of a specification through
``run_label_arrays_many``, which keeps each run's label columns resident
until a write makes them stale.  These tests pin the invalidation
contract: the store's own writes (delete, reinsert, ``update_run_labels``,
rebalance), commits by a second connection (``PRAGMA data_version``), and
a hypothesis property over interleaved writes and queries — every answer
must equal the one a freshly reopened store gives.
"""

from __future__ import annotations

import sqlite3
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.api import CrossRunBatchQuery, CrossRunQuery, ProvenanceSession
from repro.engine.kernels import HAS_NUMPY
from repro.exceptions import StorageError
from repro.skeleton.skl import SkeletonLabeler
from repro.storage.columns import LabelColumnCache, load_label_arrays
from repro.storage.sharded import ShardedProvenanceStore, open_store
from repro.storage.store import ProvenanceStore, insert_labeled_run
from repro.workflow.execution import generate_run_with_size
from repro.workflow.run import WorkflowRun

from conftest import make_paper_specification

#: the Figure 3 run; REWIRED swaps the two F1 branches (same executions)
PAPER_EDGES = [
    (("a", 1), ("b", 1)), (("b", 1), ("c", 1)), (("c", 1), ("b", 2)),
    (("b", 2), ("c", 2)), (("c", 2), ("h", 1)),
    (("a", 1), ("b", 3)), (("b", 3), ("c", 3)), (("c", 3), ("h", 1)),
    (("a", 1), ("d", 1)), (("d", 1), ("e", 1)), (("e", 1), ("f", 1)),
    (("f", 1), ("g", 1)), (("g", 1), ("e", 2)), (("e", 2), ("f", 2)),
    (("e", 2), ("f", 3)), (("f", 2), ("g", 2)), (("f", 3), ("g", 2)),
    (("g", 2), ("h", 1)),
]
REWIRED_EDGES = [
    edge
    for edge in PAPER_EDGES
    if edge not in ((("c", 1), ("b", 2)), (("c", 3), ("h", 1)))
] + [(("c", 3), ("b", 2)), (("c", 1), ("h", 1))]

EXECUTIONS = sorted({vertex for edge in PAPER_EDGES for vertex in edge})

SPEC = make_paper_specification()
LABELER = SkeletonLabeler(SPEC, "tcm")


def paper_run(name: str, rewired: bool = False):
    """A labeled copy of the Figure 3 run, optionally rewired."""
    edges = REWIRED_EDGES if rewired else PAPER_EDGES
    return LABELER.label_run(WorkflowRun.from_edges(SPEC, edges, name=name))


def generated_run(seed: int):
    return LABELER.label_run(
        generate_run_with_size(SPEC, 20, seed=seed, name=f"gen-{seed}").run
    )


def answers(store, queries):
    """Every query's comparable answer through the store's session."""
    session = store.session()
    results = []
    for query in queries:
        result = session.run(query)
        results.append((dict(result.per_run), list(result.skipped_runs)))
    return results


def fresh_answers(store, queries):
    """The same answers from a cold store opened on a snapshot of *store*.

    Opening a store commits schema upkeep to its files, which would reset
    the live store's cache and mask a stale entry; a snapshot does not.
    """
    with tempfile.TemporaryDirectory() as scratch:
        shard_paths = getattr(store, "_shard_paths", None)
        if shard_paths is None:
            target = Path(scratch) / "store.db"
            files = [(Path(store.path), target)]
        else:
            target = Path(scratch) / "sharded"
            target.mkdir()
            files = [(path, target / path.name) for path in shard_paths]
        for source, destination in files:
            reader = sqlite3.connect(str(source))
            writer = sqlite3.connect(str(destination))
            reader.backup(writer)
            writer.close()
            reader.close()
        with open_store(target) as reopened:
            return answers(reopened, queries)


QUERIES = [
    CrossRunQuery(SPEC.name, ("b", 1), "downstream"),
    CrossRunQuery(SPEC.name, ("h", 1), "upstream"),
    CrossRunBatchQuery(SPEC.name, [(("b", 1), ("b", 2)), (("b", 3), ("b", 2))]),
]


def assert_fresh(store):
    assert answers(store, QUERIES) == fresh_answers(store, QUERIES)


class TestSingleFileInvalidation:
    @pytest.mark.parametrize("writer", ["own", "other"])
    def test_delete_then_reinsert_reusing_the_run_id(self, tmp_path, writer):
        path = tmp_path / "store.db"
        with ProvenanceStore(path) as store:
            run_id = store.add_labeled_run(paper_run("first"))
            store.add_labeled_run(generated_run(1))
            before = answers(store, QUERIES)
            assert run_id in before[0][0]
            store.delete_run(run_id)
            assert_fresh(store)
            # the same id now names a run with different labels
            spec_id = store.list_runs()[0]["spec_id"]
            replacement = paper_run("second", rewired=True)
            if writer == "own":
                with store._connection:
                    insert_labeled_run(
                        store._connection, replacement, spec_id, run_id=run_id
                    )
            else:
                other = sqlite3.connect(path)
                with other:
                    insert_labeled_run(other, replacement, spec_id, run_id=run_id)
                other.close()
            after = answers(store, QUERIES)
            assert after == fresh_answers(store, QUERIES)
            assert after[0][0][run_id] != before[0][0][run_id]

    def test_update_run_labels_drops_the_entry(self, tmp_path):
        path = tmp_path / "store.db"
        with ProvenanceStore(path) as store:
            run_id = store.add_labeled_run(paper_run("fig3"))
            assert ("b", 2) in answers(store, QUERIES)[0][0][run_id]
            store.update_run_labels(run_id, paper_run("fig3", rewired=True))
            after = answers(store, QUERIES)
            assert ("b", 2) not in after[0][0][run_id]
            assert after == fresh_answers(store, QUERIES)
            assert store.cache_stats()["label_columns"]["invalidations"] >= 1

    def test_commit_from_a_second_connection_is_seen(self, tmp_path):
        path = tmp_path / "store.db"
        with ProvenanceStore(path) as store:
            run_id = store.add_labeled_run(paper_run("fig3"))
            store.add_labeled_run(generated_run(2))
            before = answers(store, QUERIES)
            rewired = paper_run("fig3", rewired=True)
            other = sqlite3.connect(path)
            with other:
                other.executemany(
                    "UPDATE run_labels SET q1 = ?, q2 = ?, q3 = ? "
                    "WHERE run_id = ? AND module = ? AND instance = ?",
                    [
                        (label.q1, label.q2, label.q3, run_id, vertex.module, vertex.instance)
                        for vertex, label in rewired.labels().items()
                    ],
                )
            other.close()
            after = answers(store, QUERIES)
            assert after != before
            assert after == fresh_answers(store, QUERIES)

    def test_unknown_run_raises(self, tmp_path):
        with ProvenanceStore(tmp_path / "store.db") as store:
            run_id = store.add_labeled_run(paper_run("fig3"))
            store.run_label_arrays_many([run_id])  # warm
            with pytest.raises(StorageError):
                store.run_label_arrays_many([run_id, 10_000])
            with pytest.raises(StorageError):
                store.run_label_arrays(10_000)

    @pytest.mark.skipif(not HAS_NUMPY, reason="read-only flags are numpy's")
    def test_cached_arrays_are_read_only(self, tmp_path):
        with ProvenanceStore(tmp_path / "store.db") as store:
            run_id = store.add_labeled_run(paper_run("fig3"))
            arrays = store.run_label_arrays(run_id)
            arrays.pair_rows(*arrays.modules.table.encode([("a", 1)]))
            _, _, (sorted_keys, order) = arrays._key_index()
            columns = (
                arrays.q1, arrays.q2, arrays.q3, arrays.instances,
                arrays.modules.codes, sorted_keys, order,
            )
            for column in columns:
                assert not column.flags.writeable
            with pytest.raises(ValueError):
                arrays.q1[0] = 0
            # served from the cache: the very same entry comes back
            assert store.run_label_arrays(run_id) is arrays

    def test_stats_count_hits_misses_and_rows(self, tmp_path):
        with ProvenanceStore(tmp_path / "store.db") as store:
            run_ids = [
                store.add_labeled_run(paper_run("fig3")),
                store.add_labeled_run(generated_run(3)),
            ]
            store.run_label_arrays_many(run_ids)
            store.run_label_arrays_many(run_ids)
            stats = store.cache_stats()["label_columns"]
            assert stats["runs"] == 2
            assert stats["rows"] == sum(
                len(store.run_label_arrays(run_id)) for run_id in run_ids
            )
            assert stats["misses"] == 2
            assert stats["hits"] >= 2
            assert set(stats) == {
                "runs", "rows", "hits", "misses", "evictions", "invalidations",
            }

    def test_a_fill_that_raced_a_write_is_not_published(self, tmp_path):
        with ProvenanceStore(tmp_path / "store.db") as store:
            run_id = store.add_labeled_run(paper_run("fig3"))
            cache = LabelColumnCache()
            token = cache.sync(0)
            loaded = load_label_arrays(store._connection, [run_id])
            cache.discard(run_id)  # a write landed while the rows were read
            cache.fill(token, loaded)
            assert cache.lookup([run_id]) == ({}, [run_id])
            cache.fill(cache.sync(0), loaded)
            assert run_id in cache.lookup([run_id])[0]
            cache.sync(1)  # another connection committed
            assert cache.stats()["runs"] == 0

    def test_concurrent_fills_and_invalidations_keep_the_row_count(self, tmp_path):
        with ProvenanceStore(tmp_path / "store.db") as store:
            run_ids = [store.add_labeled_run(paper_run(f"s{i}")) for i in range(6)]
            loaded = load_label_arrays(store._connection, run_ids)
        cache = LabelColumnCache()
        cache.row_budget = 4 * len(EXECUTIONS)
        errors: list[BaseException] = []

        def churn(worker: int) -> None:
            try:
                for step in range(300):
                    run_id = run_ids[(worker + step) % len(run_ids)]
                    token = cache.sync(0)
                    cache.lookup(run_ids)
                    cache.fill(token, {run_id: loaded[run_id]})
                    if step % 7 == worker % 7:
                        cache.discard(run_id)
                    if step % 50 == 49:
                        cache.clear()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        stats = cache.stats()
        resident = cache.lookup(run_ids)[0]
        assert stats["rows"] == sum(len(entry) for entry in resident.values())
        assert stats["rows"] <= cache.row_budget

    def test_row_budget_evicts_least_recently_read(self, tmp_path):
        with ProvenanceStore(tmp_path / "store.db") as store:
            run_ids = [store.add_labeled_run(paper_run(f"r{i}")) for i in range(3)]
            store._label_columns.row_budget = 2 * len(EXECUTIONS)
            store.run_label_arrays_many(run_ids)
            stats = store.cache_stats()["label_columns"]
            assert stats["runs"] == 2
            assert stats["evictions"] == 1
            assert_fresh(store)


class TestShardedInvalidation:
    def test_rebalance_away_and_back_after_a_label_update(self, tmp_path):
        path = tmp_path / "sharded"
        with ShardedProvenanceStore(path, 3) as store:
            run_id = store.add_labeled_run(paper_run("fig3"))
            store.add_labeled_run(generated_run(4))
            # shard 0 also holds the routing catalog, whose commits come
            # from another connection; shards 1 and 2 see only the moves
            home, away = 1, 2
            if store._routed_shard_of_spec(SPEC.name) != home:
                store.rebalance(SPEC.name, home)
            assert_fresh(store)
            store.rebalance(SPEC.name, away)
            assert_fresh(store)
            store.update_run_labels(run_id, paper_run("fig3", rewired=True))
            assert_fresh(store)
            store.rebalance(SPEC.name, home)
            after = answers(store, QUERIES)
            assert ("b", 2) not in after[0][0][run_id]
            assert after == fresh_answers(store, QUERIES)

    def test_stats_merge_across_shards(self, tmp_path):
        with ShardedProvenanceStore(tmp_path / "sharded", 2) as store:
            run_ids = store.add_labeled_runs(
                [paper_run("fig3"), generated_run(5)]
            )
            store.run_label_arrays_many(run_ids)
            merged = store.cache_stats()["label_columns"]
            per_shard = [shard.cache_stats()["label_columns"] for shard in store._stores]
            for key, value in merged.items():
                assert value == sum(stats[key] for stats in per_shard)
            assert merged["runs"] == 2

    def test_unknown_run_raises(self, tmp_path):
        with ShardedProvenanceStore(tmp_path / "sharded", 2) as store:
            run_id = store.add_labeled_run(paper_run("fig3"))
            with pytest.raises(StorageError):
                store.run_label_arrays_many([run_id, 10_001])


# ----------------------------------------------------------------------
# property: interleaved writes and queries equal a fresh reopen
# ----------------------------------------------------------------------
step = st.one_of(
    st.tuples(st.just("ingest"), st.booleans()),
    st.tuples(st.just("generate"), st.integers(min_value=0, max_value=50)),
    st.tuples(st.just("delete"), st.integers(min_value=0, max_value=7)),
    st.tuples(st.just("update"), st.integers(min_value=0, max_value=7)),
    st.tuples(st.just("external"), st.integers(min_value=0, max_value=7)),
    st.tuples(
        st.just("sweep"),
        st.sampled_from(EXECUTIONS),
        st.sampled_from(("downstream", "upstream")),
    ),
    st.tuples(
        st.just("batch"),
        st.lists(
            st.tuples(st.sampled_from(EXECUTIONS), st.sampled_from(EXECUTIONS)),
            min_size=1,
            max_size=6,
        ),
    ),
)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    layout=st.sampled_from(("single", "sharded")),
    steps=st.lists(step, min_size=1, max_size=14),
)
@example(
    layout="single",
    steps=[("ingest", False), ("sweep", ("a", 1), "downstream"), ("update", 0),
           ("sweep", ("a", 1), "downstream")],
)
@example(
    layout="sharded",
    steps=[("ingest", True), ("generate", 3), ("batch", [(("b", 1), ("b", 2))]),
           ("external", 0), ("batch", [(("b", 3), ("h", 1))]), ("update", 0),
           ("sweep", ("h", 1), "upstream")],
)
@example(
    layout="single",
    steps=[("ingest", False), ("ingest", True), ("sweep", ("b", 1), "downstream"),
           ("delete", 0), ("ingest", True), ("sweep", ("b", 1), "downstream")],
)
def test_interleaved_steps_match_a_fresh_reopen(layout, steps):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / ("store.db" if layout == "single" else "sharded")
        store = ProvenanceStore(path) if layout == "single" else ShardedProvenanceStore(path, 2)
        # paper-run copies: run id -> whether its stored labels are rewired
        rewired: dict[int, bool] = {}
        names = iter(range(10_000))
        try:
            for kind, *args in steps:
                if kind == "ingest":
                    run_id = store.add_labeled_run(paper_run(f"p{next(names)}", args[0]))
                    rewired[run_id] = args[0]
                elif kind == "generate":
                    try:
                        store.add_labeled_run(generated_run(args[0]))
                    except StorageError:
                        pass  # that generated run is already stored
                elif kind in ("delete", "update", "external") and rewired:
                    run_id = sorted(rewired)[args[0] % len(rewired)]
                    if kind == "delete":
                        store.delete_run(run_id)
                        del rewired[run_id]
                        continue
                    rewired[run_id] = not rewired[run_id]
                    labeled = paper_run(store.get_run(run_id).name, rewired[run_id])
                    if kind == "update":
                        store.update_run_labels(run_id, labeled)
                    else:
                        _external_update(store, run_id, labeled)
                elif kind in ("sweep", "batch"):
                    query = (
                        CrossRunQuery(SPEC.name, args[0], args[1])
                        if kind == "sweep"
                        else CrossRunBatchQuery(SPEC.name, args[0])
                    )
                    if not store.list_runs():
                        continue
                    # the fixed queries tell a rewired run from the original
                    checked = [query, *QUERIES]
                    assert answers(store, checked) == fresh_answers(store, checked)
        finally:
            store.close()


def _external_update(store, run_id: int, labeled) -> None:
    """Rewrite a run's label rows through a second, independent connection."""
    shard_path_of = getattr(store, "shard_path_of", None)
    path = shard_path_of(run_id) if shard_path_of is not None else store.path
    other = sqlite3.connect(path, timeout=30)
    with other:
        other.executemany(
            "UPDATE run_labels SET q1 = ?, q2 = ?, q3 = ? "
            "WHERE run_id = ? AND module = ? AND instance = ?",
            [
                (label.q1, label.q2, label.q3, run_id, vertex.module, vertex.instance)
                for vertex, label in labeled.labels().items()
            ],
        )
    other.close()


def test_session_answers_do_not_depend_on_the_cache(tmp_path):
    """A cold session and a warm one answer a mixed workload identically."""
    path = tmp_path / "store.db"
    with ProvenanceStore(path) as store:
        for index in range(3):
            store.add_labeled_run(paper_run(f"w{index}", rewired=bool(index % 2)))
        store.add_labeled_run(generated_run(6))
        warm = ProvenanceSession(store)
        first = [warm.run(query) for query in QUERIES]
        second = [warm.run(query) for query in QUERIES]
        assert [(r.per_run, r.skipped_runs) for r in first] == [
            (r.per_run, r.skipped_runs) for r in second
        ]
        assert store.cache_stats()["label_columns"]["hits"] > 0
