"""Tests for the packed run-edge blobs in ``runs.document`` (schema v5).

Covers the round trip on both store layouts (``get_run`` rebuilds exactly
what a JSON round trip of the stored run gives, also after
``update_run_labels`` and after a shard rebalance), the in-place,
idempotent conversion of JSON documents written by schema v4 and earlier
(including rows whose ``vertex_id`` is ``NULL``), and the typed errors a
damaged blob raises.
"""

from __future__ import annotations

import random
import sqlite3
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.api import BatchQuery
from repro.datasets.synthetic import SyntheticSpecConfig, generate_specification
from repro.exceptions import DatasetError, StorageError
from repro.graphs.digraph import DiGraph
from repro.skeleton.skl import SkeletonLabeler
from repro.storage.database import pack_edge_positions
from repro.storage.schema import SCHEMA_VERSION
from repro.storage.sharded import ShardedProvenanceStore
from repro.storage.store import ProvenanceStore
from repro.workflow.execution import generate_run_with_size
from repro.workflow.run import WorkflowRun
from repro.workflow.serialization import run_from_json, run_to_json

LAYOUTS = ("single", "sharded")

ROUND_TRIP = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def labeled_runs(draw):
    """A labeled generated run of a random well-nested specification."""
    hierarchy_size = draw(st.integers(min_value=2, max_value=5))
    depth = draw(st.integers(min_value=2, max_value=min(3, hierarchy_size)))
    n_modules = draw(st.integers(min_value=12, max_value=30))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    config = SyntheticSpecConfig(
        n_modules=n_modules,
        n_edges=n_modules - 1 + draw(st.integers(min_value=0, max_value=n_modules // 2)),
        hierarchy_size=hierarchy_size,
        hierarchy_depth=depth,
        fork_fraction=draw(st.sampled_from([0.0, 0.5, 1.0])),
        seed=seed,
        name=f"blob-{seed}",
    )
    try:
        spec = generate_specification(config)
    except DatasetError:
        assume(False)
    size = draw(st.integers(min_value=spec.vertex_count, max_value=4 * spec.vertex_count))
    run = generate_run_with_size(spec, size, seed=seed).run
    return SkeletonLabeler(spec, "tcm").label_run(run)


def _open(layout: str, directory: Path):
    if layout == "single":
        return ProvenanceStore(directory / "store.db")
    return ShardedProvenanceStore(directory / "sharded", 2)


def _json_round_trip(run: WorkflowRun) -> WorkflowRun:
    return run_from_json(run_to_json(run), run.specification)


def _assert_same_graph(stored: WorkflowRun, expected: WorkflowRun) -> None:
    """Same name, vertex order and edge order."""
    assert stored.name == expected.name
    assert stored.graph.vertices() == expected.graph.vertices()
    assert list(stored.graph.iter_edges()) == list(expected.graph.iter_edges())


def _reordered(run: WorkflowRun, seed: int) -> WorkflowRun:
    """*run* with the same vertex order but its edges inserted shuffled."""
    edges = list(run.graph.iter_edges())
    random.Random(seed).shuffle(edges)
    return WorkflowRun(
        run.specification, DiGraph(run.graph.vertices(), edges), name=run.name
    )


# ----------------------------------------------------------------------
# round trips
# ----------------------------------------------------------------------
class TestRoundTrip:
    @pytest.mark.parametrize("layout", LAYOUTS)
    @given(labeled=labeled_runs())
    @ROUND_TRIP
    def test_get_run_equals_the_json_round_trip(self, layout, labeled):
        with tempfile.TemporaryDirectory() as directory:
            with _open(layout, Path(directory)) as store:
                run_id = store.add_labeled_run(labeled)
                _assert_same_graph(store.get_run(run_id), _json_round_trip(labeled.run))
            with _open(layout, Path(directory)) as reopened:
                _assert_same_graph(
                    reopened.get_run(run_id), _json_round_trip(labeled.run)
                )

    @pytest.mark.parametrize("layout", LAYOUTS)
    @given(labeled=labeled_runs(), seed=st.integers(min_value=0, max_value=1_000))
    @ROUND_TRIP
    def test_round_trip_after_update_run_labels(self, layout, labeled, seed):
        run = labeled.run
        updated = _reordered(run, seed)
        labeler = SkeletonLabeler(run.specification, "tcm")
        with tempfile.TemporaryDirectory() as directory:
            with _open(layout, Path(directory)) as store:
                run_id = store.add_labeled_run(labeled)
                store.update_run_labels(run_id, labeler.label_run(updated))
                _assert_same_graph(store.get_run(run_id), _json_round_trip(updated))

    @given(labeled=labeled_runs())
    @ROUND_TRIP
    def test_round_trip_after_rebalance(self, labeled):
        with tempfile.TemporaryDirectory() as directory:
            with ShardedProvenanceStore(Path(directory) / "sharded", 2) as store:
                run_id = store.add_labeled_run(labeled)
                source = store.shard_path_of(run_id)
                store.rebalance(labeled.run.specification.name)
                assert store.shard_path_of(run_id) != source
                _assert_same_graph(store.get_run(run_id), _json_round_trip(labeled.run))

    def test_edge_change_through_update_run_labels(self, tmp_path, paper_spec):
        from tests.conftest import make_paper_run
        from repro.workflow.run import RunVertex as V

        labeler = SkeletonLabeler(paper_spec, "tcm")
        run = make_paper_run(paper_spec)
        with ProvenanceStore(tmp_path / "store.db") as store:
            run_id = store.add_labeled_run(labeler.label_run(run))
            graph = run.graph
            graph.remove_edge(V("c", 1), V("b", 2))
            graph.remove_edge(V("c", 3), V("h", 1))
            graph.add_edge(V("c", 3), V("b", 2))
            graph.add_edge(V("c", 1), V("h", 1))
            store.update_run_labels(run_id, labeler.label_run(run))
            _assert_same_graph(store.get_run(run_id), _json_round_trip(run))

    def test_documents_are_packed_pairs(self, tmp_path, paper_labeled_run):
        run = paper_labeled_run.run
        with ProvenanceStore(tmp_path / "store.db") as store:
            run_id = store.add_labeled_run(paper_labeled_run)
            kind, size = store._connection.execute(
                "SELECT typeof(document), length(document) FROM runs WHERE run_id = ?",
                (run_id,),
            ).fetchone()
        assert kind == "blob"
        assert size == 8 * run.edge_count


# ----------------------------------------------------------------------
# schema v5: JSON documents converted in place
# ----------------------------------------------------------------------
@pytest.fixture()
def legacy_batch(paper_spec, paper_labeler, paper_run):
    """The paper run plus three generated runs, labeled with tcm+skl."""
    labeled = [paper_labeler.label_run(paper_run)]
    for seed in (1, 2, 3):
        generated = generate_run_with_size(paper_spec, 24, seed=seed, name=f"legacy-{seed}")
        labeled.append(paper_labeler.label_run(generated.run))
    return labeled


def _downgrade_to_v4(database: Path, runs_by_id: dict, null_ids: int) -> None:
    """Rewind a store file to v4: JSON documents, one run with NULL ids."""
    connection = sqlite3.connect(database)
    try:
        with connection:
            for run_id, run in runs_by_id.items():
                connection.execute(
                    "UPDATE runs SET document = ? WHERE run_id = ?",
                    (run_to_json(run), run_id),
                )
            connection.execute(
                "UPDATE run_labels SET vertex_id = NULL WHERE run_id = ?", (null_ids,)
            )
            connection.execute(
                "UPDATE meta SET value = '4' WHERE key = 'schema_version'"
            )
    finally:
        connection.close()


def _documents(database: Path) -> dict:
    connection = sqlite3.connect(database)
    try:
        return {
            run_id: (kind, document)
            for run_id, kind, document in connection.execute(
                "SELECT run_id, typeof(document), document FROM runs"
            )
        }
    finally:
        connection.close()


def _schema_version(database: Path) -> str:
    connection = sqlite3.connect(database)
    try:
        return connection.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()[0]
    finally:
        connection.close()


def _assert_answers_and_graphs(store, run_ids, legacy_batch) -> None:
    session = store.session()
    for run_id, labeled in zip(run_ids, legacy_batch):
        run = labeled.run
        stored = store.get_run(run_id)
        assert set(stored.graph.vertices()) == set(run.graph.vertices())
        assert set(stored.graph.iter_edges()) == set(run.graph.iter_edges())
        vertices = run.graph.vertices()
        pairs = [(u, v) for u in vertices[:12] for v in vertices]
        answers = session.run(BatchQuery(pairs, run_id=run_id))
        assert list(map(bool, answers)) == [labeled.reaches(u, v) for u, v in pairs]


class TestSchemaV5Migration:
    def test_v4_single_file_store_converts_in_place(self, tmp_path, legacy_batch):
        database = tmp_path / "legacy.db"
        with ProvenanceStore(database) as writer:
            run_ids = [writer.add_labeled_run(item) for item in legacy_batch]
        runs_by_id = {run_id: item.run for run_id, item in zip(run_ids, legacy_batch)}
        _downgrade_to_v4(database, runs_by_id, null_ids=run_ids[1])
        assert {kind for kind, _ in _documents(database).values()} == {"text"}

        converted = None
        for _ in range(2):  # a second open is a no-op
            with ProvenanceStore(database) as reopened:
                _assert_answers_and_graphs(reopened, run_ids, legacy_batch)
            documents = _documents(database)
            assert {kind for kind, _ in documents.values()} == {"blob"}
            assert converted is None or documents == converted
            converted = documents
            assert _schema_version(database) == str(SCHEMA_VERSION)

    def test_v4_sharded_store_converts_every_shard(self, tmp_path, legacy_batch):
        base = tmp_path / "legacy-sharded"
        with ShardedProvenanceStore(base, 2) as writer:
            run_ids = writer.add_labeled_runs(legacy_batch)
            shard_files = sorted({writer.shard_path_of(run_id) for run_id in run_ids})
            owned = {
                path: {
                    run_id: item.run
                    for run_id, item in zip(run_ids, legacy_batch)
                    if writer.shard_path_of(run_id) == path
                }
                for path in shard_files
            }
        for path in sorted(base.glob("shard-*.db")):
            runs_by_id = owned.get(path, {})
            _downgrade_to_v4(path, runs_by_id, null_ids=min(runs_by_id, default=0))

        converted = None
        for _ in range(2):
            with ShardedProvenanceStore(base) as reopened:
                _assert_answers_and_graphs(reopened, run_ids, legacy_batch)
            documents = {path: _documents(path) for path in sorted(base.glob("shard-*.db"))}
            kinds = {kind for shard in documents.values() for kind, _ in shard.values()}
            assert kinds == {"blob"}
            assert converted is None or documents == converted
            converted = documents
            for path in documents:
                assert _schema_version(path) == str(SCHEMA_VERSION)

    def test_mismatched_document_fails_naming_the_run(self, tmp_path, legacy_batch):
        database = tmp_path / "legacy.db"
        with ProvenanceStore(database) as writer:
            run_ids = [writer.add_labeled_run(item) for item in legacy_batch[:2]]
        runs_by_id = {run_id: item.run for run_id, item in zip(run_ids, legacy_batch)}
        _downgrade_to_v4(database, runs_by_id, null_ids=run_ids[0])
        connection = sqlite3.connect(database)
        with connection:
            connection.execute(
                "DELETE FROM run_labels WHERE run_id = ? AND module = 'a'", (run_ids[1],)
            )
        connection.close()
        with pytest.raises(StorageError, match=f"run {run_ids[1]}"):
            ProvenanceStore(database)
        # the failed upgrade rolled back as one transaction
        assert {kind for kind, _ in _documents(database).values()} == {"text"}
        assert _schema_version(database) == "4"


# ----------------------------------------------------------------------
# damaged blobs
# ----------------------------------------------------------------------
class TestDamagedBlobs:
    @pytest.fixture()
    def stored(self, tmp_path, paper_labeled_run):
        store = ProvenanceStore(tmp_path / "store.db")
        run_id = store.add_labeled_run(paper_labeled_run)
        yield store, run_id
        store.close()

    def _write(self, store, run_id, document) -> None:
        with store._connection:
            store._connection.execute(
                "UPDATE runs SET document = ? WHERE run_id = ?", (document, run_id)
            )

    def test_truncated_blob_raises(self, stored):
        store, run_id = stored
        (blob,) = store._connection.execute(
            "SELECT document FROM runs WHERE run_id = ?", (run_id,)
        ).fetchone()
        self._write(store, run_id, blob[:-4])
        with pytest.raises(StorageError, match=f"run {run_id}"):
            store.get_run(run_id)

    @pytest.mark.parametrize("position", [-1, 10_000])
    def test_out_of_range_position_raises(self, stored, position):
        store, run_id = stored
        (n_edges,) = store._connection.execute(
            "SELECT n_edges FROM runs WHERE run_id = ?", (run_id,)
        ).fetchone()
        self._write(store, run_id, pack_edge_positions([0, position] * n_edges))
        with pytest.raises(StorageError, match=f"run {run_id}"):
            store.get_run(run_id)

    def test_unconverted_text_document_raises(self, stored, paper_labeled_run):
        store, run_id = stored
        self._write(store, run_id, run_to_json(paper_labeled_run.run))
        with pytest.raises(StorageError, match=f"run {run_id}"):
            store.get_run(run_id)
