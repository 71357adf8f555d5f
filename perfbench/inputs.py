"""Seeded inputs and the independent answer oracle.

Everything the program is asked comes from here: specifications, runs,
anchors, pairs and the Zipf-skewed run choice.  Runs, anchors, pairs and
the operation stream are drawn from one ``random.Random(seed)``, so the
same seed gives the same inputs.  Every specification has one fixed
structure, the synthetic workflow of the paper's Sections 8.2/8.3, under
its own name: how far an anchor reaches depends on the specification, so
a seed that changed the structure would move every latency with it, and
one structure under several names and schemes keeps the latency
populations of a workload comparable.

Expected answers come from each generated run's own in-memory
:class:`~repro.skeleton.skl.SkeletonLabeledRun` through a
:class:`~repro.engine.query.QueryEngine` over it; never from the store, the
session or the daemon that the benchmark measures.
"""

from __future__ import annotations

import bisect
import random
from typing import Sequence

from repro.datasets.synthetic import generate_specification
from repro.engine.query import QueryEngine
from repro.graphs.traversal import descendants, topological_sort
from repro.storage.sharded import shard_of_spec
from repro.workflow.execution import generate_run_with_size
from repro.workflow.run import RunVertex, WorkflowRun

__all__ = [
    "SPEC_SHAPE",
    "derive",
    "make_spec",
    "make_runs",
    "spec_names",
    "common_executions",
    "stratified_walk",
    "median_reach_anchor",
    "fresh_copy",
    "zipf_cumulative",
    "Oracle",
    "fingerprint",
]

#: the synthetic specification of the paper's Sections 8.2/8.3 (nG=100
#: modules, mG=200 channels), generated as the repository's experiments do
SPEC_SHAPE = dict(n_modules=100, n_edges=200, hierarchy_size=10, hierarchy_depth=4, seed=42)


def derive(rng: random.Random) -> int:
    """A sub-seed for one generator call."""
    return rng.randrange(2**31)


def make_spec(name: str):
    return generate_specification(name=name, **SPEC_SHAPE)


def make_runs(spec, count: int, vertices: int, rng: random.Random, prefix: str) -> list:
    return [
        generate_run_with_size(spec, vertices, seed=derive(rng), name=f"{prefix}-{i:03d}").run
        for i in range(count)
    ]


def spec_names(prefix: str, count: int, shards: int) -> list[str]:
    """*count* spec names whose hash placement spreads them over *shards*."""
    names: list[str] = []
    per_shard = [0] * shards
    candidate = 0
    while len(names) < count:
        name = f"{prefix}-{candidate}"
        candidate += 1
        shard = shard_of_spec(name, shards) if shards > 1 else 0
        if per_shard[shard] <= min(per_shard):
            per_shard[shard] += 1
            names.append(name)
    return names


def common_executions(runs: Sequence) -> list[tuple[str, int]]:
    """Executions present in every run, sorted."""
    common = None
    for run in runs:
        executions = {(v.module, v.instance) for v in run.graph.vertices()}
        common = executions if common is None else common & executions
    return sorted(common or ())


#: the golden-ratio step of the low-discrepancy walk
_GOLDEN = (5**0.5 - 1) / 2


def _ranked_modules(spec, executions: Sequence[tuple]) -> tuple[list, dict]:
    """Modules of *executions* ranked by how many modules they reach in *spec*."""
    by_module: dict = {}
    for execution in executions:
        by_module.setdefault(execution[0], []).append(execution)
    graph = spec.graph
    ranked = sorted(by_module, key=lambda m: (len(descendants(graph, m)), m))
    return ranked, by_module


def downstream_counts(run) -> dict[tuple, int]:
    """How many executions of *run* each execution reaches (itself excluded)."""
    graph = run.graph
    order = topological_sort(graph)
    bit = {vertex: 1 << index for index, vertex in enumerate(order)}
    reached: dict = {}
    for vertex in reversed(order):
        below = 0
        for successor in graph.successors(vertex):
            below |= bit[successor] | reached[successor]
        reached[vertex] = below
    return {(v.module, v.instance): below.bit_count() for v, below in reached.items()}


def stratified_walk(run, executions: Sequence[tuple], length: int = 200) -> list[tuple]:
    """Anchors spread evenly over how much of *run* they reach downstream.

    Step *k* targets ``frac(k * golden ratio)`` of the largest downstream
    result among *executions* and takes the execution whose result in
    *run* is closest to it.  Any prefix of the walk therefore samples
    result size (and with it pushdown cost) evenly, with no gap for a
    median to fall into, from a few executions to most of the run.
    """
    counts = downstream_counts(run)
    candidates = sorted((counts[e], e) for e in executions)
    sizes = [size for size, _ in candidates]
    walk = []
    for step in range(length):
        target = ((step * _GOLDEN) % 1.0) * sizes[-1]
        index = bisect.bisect_left(sizes, target)
        if index == len(sizes) or (index and target - sizes[index - 1] <= sizes[index] - target):
            index -= 1
        walk.append(candidates[index][1])
    return walk


def median_reach_anchor(spec, executions: Sequence[tuple]) -> tuple:
    """The first execution of the module whose reach in *spec* is the median one."""
    ranked, by_module = _ranked_modules(spec, executions)
    return min(by_module[ranked[len(ranked) // 2]])


def fresh_copy(run, name: str):
    """The same run under a new name, over its own graph object."""
    return WorkflowRun(run.specification, run.graph.copy(), name=name, validate=False)


def zipf_cumulative(count: int, exponent: float) -> list[float]:
    """Cumulative Zipf weights over ranks ``1..count``."""
    total = 0.0
    cumulative = []
    for rank in range(1, count + 1):
        total += rank ** -exponent
        cumulative.append(total)
    return cumulative


class Oracle:
    """Expected answers from in-memory labeled runs, memoized per question."""

    def __init__(self, labeled_by_key: dict) -> None:
        self._labeled = labeled_by_key
        self._engines: dict = {}
        self._sweeps: dict = {}

    def engine(self, key) -> QueryEngine:
        engine = self._engines.get(key)
        if engine is None:
            engine = self._engines[key] = QueryEngine(self._labeled[key])
        return engine

    def sweep(self, key, anchor: tuple, downstream: bool) -> list[tuple]:
        return [
            tuple(v) for v in self.engine(key).dependency_sweep(anchor, downstream=downstream)
        ]

    def sweep_print(self, key, anchor: tuple, downstream: bool) -> tuple[int, int]:
        """:func:`fingerprint` of :meth:`sweep`, memoized.

        Sweeps repeat across a run, and keeping every expected list would
        grow the benchmark's own memory with throughput, and with it
        ``peak_rss_mb``; a fingerprint per question keeps it flat.
        """
        memo = (key, anchor, downstream)
        answer = self._sweeps.get(memo)
        if answer is None:
            answer = self._sweeps[memo] = fingerprint(self.sweep(key, anchor, downstream))
        return answer

    def point(self, key, source: tuple, target: tuple) -> bool:
        return bool(self._labeled[key].reaches(_vertex(source), _vertex(target)))

    def batch(self, key, pairs: Sequence[tuple]) -> list[bool]:
        engine = self.engine(key)
        return [bool(a) for a in engine.reaches_batch([(_vertex(s), _vertex(t)) for s, t in pairs])]


def fingerprint(executions) -> tuple[int, int]:
    """``(length, hash)`` of an ordered list of ``(module, instance)`` answers."""
    answer = tuple(tuple(v) for v in executions)
    return len(answer), hash(answer)


def _vertex(execution: tuple) -> RunVertex:
    return RunVertex(execution[0], int(execution[1]))
