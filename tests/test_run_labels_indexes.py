"""The ``run_labels`` index set: no redundant ``run_id`` index, no table scans.

``idx_run_labels_run(run_id)`` duplicated the leading column of the table's
primary key ``(run_id, module, instance)``.  Schema upkeep no longer creates
it and drops it from files written before, on both store layouts.  These
tests pin that, and that every run-scoped statement the store issues still
``SEARCH``-es an index under ``EXPLAIN QUERY PLAN`` instead of scanning the
table.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.datasets.synthetic import generate_specification
from repro.skeleton.skl import SkeletonLabeler
from repro.storage.sharded import ShardedProvenanceStore
from repro.storage.store import ProvenanceStore
from repro.workflow.execution import generate_run_with_size

RETIRED_INDEX = "idx_run_labels_run"


@pytest.fixture(scope="module")
def labeled_runs():
    spec = generate_specification(
        n_modules=20, n_edges=30, hierarchy_size=4, hierarchy_depth=3, seed=3
    )
    labeler = SkeletonLabeler(spec, "tcm")
    return [
        labeler.label_run(generate_run_with_size(spec, 80, seed=i, name=f"r{i}").run)
        for i in range(2)
    ]


def _index_names(database) -> set[str]:
    connection = sqlite3.connect(database)
    try:
        return {row[1] for row in connection.execute("PRAGMA index_list(run_labels)")}
    finally:
        connection.close()


def _add_retired_index(database) -> None:
    """Give a store file the index earlier schema versions created."""
    connection = sqlite3.connect(database)
    try:
        with connection:
            connection.execute(f"CREATE INDEX {RETIRED_INDEX} ON run_labels(run_id)")
    finally:
        connection.close()


def _query_plan(database, sql: str, parameters: tuple) -> list[str]:
    connection = sqlite3.connect(database)
    try:
        return [
            row[3]
            for row in connection.execute("EXPLAIN QUERY PLAN " + sql, parameters)
        ]
    finally:
        connection.close()


class TestRetiredIndex:
    def test_new_single_file_store_lacks_it(self, tmp_path, labeled_runs):
        database = tmp_path / "fresh.db"
        with ProvenanceStore(database) as store:
            store.add_labeled_run(labeled_runs[0])
        names = _index_names(database)
        assert RETIRED_INDEX not in names
        assert "sqlite_autoindex_run_labels_1" in names

    def test_upkeep_drops_it_from_an_older_single_file_store(self, tmp_path, labeled_runs):
        database = tmp_path / "older.db"
        with ProvenanceStore(database) as store:
            run_id = store.add_labeled_run(labeled_runs[0])
        _add_retired_index(database)
        assert RETIRED_INDEX in _index_names(database)
        for _ in range(2):  # idempotent across a double-open
            with ProvenanceStore(database) as reopened:
                assert len(reopened.run_label_arrays_many([run_id])[run_id]) == (
                    labeled_runs[0].run.vertex_count
                )
            assert RETIRED_INDEX not in _index_names(database)

    def test_upkeep_drops_it_from_every_shard(self, tmp_path, labeled_runs):
        base = tmp_path / "older-sharded"
        with ShardedProvenanceStore(base, 2) as store:
            store.add_labeled_runs(labeled_runs)
        shard_files = sorted(base.glob("shard-*.db"))
        assert len(shard_files) == 2
        for shard in shard_files:
            _add_retired_index(shard)
        with ShardedProvenanceStore(base) as reopened:
            assert len(reopened.list_runs()) == len(labeled_runs)
        for shard in shard_files:
            assert RETIRED_INDEX not in _index_names(shard)


RUN_SCOPED_STATEMENTS = [
    pytest.param(
        "SELECT module, instance, q1, q2, q3 FROM run_labels WHERE run_id = ?",
        (1,),
        id="select-run",
    ),
    pytest.param(
        "SELECT module, instance, q1, q2, q3, skeleton FROM run_labels "
        "WHERE run_id = ? ORDER BY (vertex_id IS NULL), vertex_id, module, instance",
        (1,),
        id="select-run-ordered",
    ),
    pytest.param(
        "SELECT run_id, module, instance, q1, q2, q3 FROM run_labels "
        "WHERE run_id IN (?, ?) "
        "ORDER BY run_id, (vertex_id IS NULL), vertex_id, module, instance",
        (1, 2),
        id="select-runs-in",
    ),
    pytest.param("DELETE FROM run_labels WHERE run_id = ?", (1,), id="delete-run"),
    pytest.param(
        "DELETE FROM run_labels WHERE run_id IN "
        "(SELECT run_id FROM runs WHERE spec_id = ?)",
        (1,),
        id="delete-spec-runs",
    ),
]


class TestRunScopedStatementsSearchAnIndex:
    @pytest.fixture(scope="class")
    def database(self, tmp_path_factory, labeled_runs):
        database = tmp_path_factory.mktemp("plans") / "plans.db"
        with ProvenanceStore(database) as store:
            for item in labeled_runs:
                store.add_labeled_run(item)
        return database

    @pytest.mark.parametrize("sql,parameters", RUN_SCOPED_STATEMENTS)
    def test_statement_searches_an_index(self, database, sql, parameters):
        details = _query_plan(database, sql, parameters)
        on_labels = [detail for detail in details if "run_labels" in detail]
        assert on_labels, details
        for detail in on_labels:
            assert detail.startswith("SEARCH"), details
            assert "INDEX" in detail, details
            assert RETIRED_INDEX not in detail, details
