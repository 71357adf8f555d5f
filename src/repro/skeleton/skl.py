"""The skeleton-based labeling scheme ``SKL`` (Section 4, Algorithms 2 and 3).

:class:`SkeletonLabeler` implements the two-phase scheme that is the paper's
core contribution:

1. the *specification* is labeled once by any reachability scheme for
   directed graphs (the skeleton labels — TCM, BFS, tree cover, ...);
2. each *run* is labeled in linear time with
   ``φr(v) = (q1, q2, q3, φg(Orig(v)))`` where ``(q1, q2, q3)`` encodes the
   vertex's context in the execution plan (Algorithm 1) and ``φg`` is the
   skeleton label of its origin.

Reachability between two run vertices is decided by the constant-time
predicate ``πr`` (Algorithm 3): if the context coordinates show that the two
contexts sit under distinct copies of the same fork (unreachable) or the same
loop (reachable, direction given by ``q1``), the answer is immediate;
otherwise the query falls through to the skeleton predicate ``πg`` on the two
origins (Lemma 4.4).
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional, Type, Union

from repro.exceptions import LabelingError, VertexNotFoundError
from repro.labeling.base import ReachabilityIndex, VertexHandleAPI
from repro.labeling.registry import get_scheme
from repro.skeleton.construct import construct_plan
from repro.skeleton.labels import RunLabel, context_bits, run_label_bits
from repro.skeleton.orders import ContextEncoding, encode_contexts
from repro.workflow.plan import ExecutionPlan
from repro.workflow.run import RunVertex, WorkflowRun
from repro.workflow.specification import WorkflowSpecification

__all__ = [
    "QueryPath",
    "skeleton_predicate",
    "skeleton_predicate_many",
    "classify_query",
    "SkeletonLabeledRun",
    "SkeletonLabeler",
    "LabelingTimings",
]


class QueryPath:
    """How a query was answered: by the fork rule, loop rule or skeleton labels."""

    FORK = "fork"
    LOOP = "loop"
    SKELETON = "skeleton"


def classify_query(first: RunLabel, second: RunLabel) -> str:
    """Return which rule of Algorithm 3 applies to the two labels."""
    if (first.q2 - second.q2) * (first.q3 - second.q3) < 0:
        if (first.q1 - second.q1) * (first.q3 - second.q3) < 0:
            return QueryPath.LOOP
        return QueryPath.FORK
    return QueryPath.SKELETON


def skeleton_predicate(first: RunLabel, second: RunLabel, spec_index: ReachabilityIndex) -> bool:
    """``πr``: decide whether the first label's vertex reaches the second's.

    This is a faithful transcription of Algorithm 3: compare the context
    coordinates first and only consult the skeleton labels when the least
    common ancestor of the two contexts is a ``+`` node.
    """
    if (first.q2 - second.q2) * (first.q3 - second.q3) < 0:
        return first.q1 < second.q1 and first.q3 > second.q3
    return spec_index.reaches_labels(first.skeleton, second.skeleton)


def skeleton_predicate_many(
    label_pairs: Sequence[tuple[RunLabel, RunLabel]],
    spec_index: ReachabilityIndex,
) -> list[bool]:
    """Batch form of :func:`skeleton_predicate`, one answer per label pair.

    Algorithm 3 splits each query into a context-coordinate fast path and a
    skeleton fall-through; this function answers the fast-path queries with
    inline arithmetic and forwards *all* fall-through queries to the
    specification index's own ``reaches_many`` batch path in a single call,
    so the layering of the two schemes is preserved batch-wise.  Used by the
    query engine (via :meth:`SkeletonLabeledRun.reaches_many`) and by the
    provenance store's batched queries.
    """
    answers: list[bool] = [False] * len(label_pairs)
    fallthrough_positions: list[int] = []
    fallthrough_pairs: list[tuple] = []
    for position, (first, second) in enumerate(label_pairs):
        if (first.q2 - second.q2) * (first.q3 - second.q3) < 0:
            answers[position] = first.q1 < second.q1 and first.q3 > second.q3
        else:
            fallthrough_positions.append(position)
            fallthrough_pairs.append((first.skeleton, second.skeleton))
    if fallthrough_pairs:
        skeleton_answers = spec_index.reaches_many(fallthrough_pairs)
        for position, answer in zip(fallthrough_positions, skeleton_answers):
            answers[position] = answer
    return answers


@dataclass(frozen=True)
class LabelingTimings:
    """Wall-clock breakdown of one :meth:`SkeletonLabeler.label_run` call (seconds)."""

    plan_seconds: float
    encoding_seconds: float
    assignment_seconds: float

    @property
    def total_seconds(self) -> float:
        """Total construction time of the run labels."""
        return self.plan_seconds + self.encoding_seconds + self.assignment_seconds


class SkeletonLabeledRun(VertexHandleAPI):
    """A run labeled by the skeleton-based scheme.

    Instances behave like a reachability index over the run: they hand out
    labels, answer reachability queries in constant time and report label
    lengths for the benchmark harness.  Like every index they also expose
    the interned vertex-handle surface (:class:`~repro.labeling.base.VertexHandleAPI`):
    :meth:`intern` / :meth:`intern_pairs` map run vertices to dense integer
    handles once, and :meth:`reaches_ids` / :meth:`reaches_many_ids` answer
    queries from handles alone.  The run's label set is frozen at labeling
    time, so its handles never go stale (even over a traversal-backed
    specification index).
    """

    #: tells :func:`repro.engine.kernels.build_kernel` to compile the
    #: skeleton kernel for any object with this surface (e.g. the provenance
    #: store's cached stored-run indexes), not just this exact class
    kernel_hint = "skl"

    def __init__(
        self,
        run: WorkflowRun,
        spec_index: ReachabilityIndex,
        labels: dict[RunVertex, RunLabel],
        encoding: ContextEncoding,
        plan: ExecutionPlan,
        context: dict[RunVertex, int],
        timings: LabelingTimings,
    ) -> None:
        self.run = run
        self.spec_index = spec_index
        self._labels = labels
        self.encoding = encoding
        self.plan = plan
        self.context = context
        self.timings = timings
        spec_size = run.specification.vertex_count
        self._skeleton_reference_bits = max(1, math.ceil(math.log2(max(2, spec_size))))

    # ------------------------------------------------------------------
    # the (D, φ, π) interface over the run
    # ------------------------------------------------------------------
    @property
    def stable_labels(self) -> bool:
        """Whether answers derived from the labels stay valid over time.

        The run labels themselves are frozen at :meth:`SkeletonLabeler.label_run`
        time, but the skeleton fall-through consults the specification index,
        so stability is inherited from it: a traversal-backed spec index
        (``bfs``/``dfs``) answers from the live specification graph and must
        not be memoized or snapshotted by consumers.
        """
        return getattr(self.spec_index, "stable_labels", True)

    @property
    def update_version(self):
        """Invalidation token inherited from the specification index.

        The run labels are frozen, so the only thing that can move under a
        labeled run is its specification: a mutated spec index bumps this
        token and every derived layer (compiled skeleton kernels, hot-pair
        caches, plans) recompiles its fall-through state.  Note the frozen
        ``skeleton`` components embedded in the run labels are copies taken
        at labeling time — after a spec mutation the run must be relabeled
        for its answers to track the new specification; the token makes the
        staleness *visible* to caches, it does not repair run labels.
        """
        return getattr(self.spec_index, "update_version", None)

    def label_of(self, vertex: RunVertex) -> RunLabel:
        """Return ``φr(v)``."""
        try:
            return self._labels[vertex]
        except KeyError:
            raise LabelingError(f"vertex was not labeled: {vertex!r}") from None

    def labels(self) -> dict[RunVertex, RunLabel]:
        """Return a copy of the full label assignment."""
        return dict(self._labels)

    # -- vertex-handle template hooks (see VertexHandleAPI) -------------
    def _handle_vertices(self):
        # Handles are assigned in label order (= run-graph insertion order),
        # frozen at labeling time; the label set never changes afterwards,
        # so no staleness token is needed even for unstable spec indexes.
        return self._labels

    def _handle_labels_cacheable(self) -> bool:
        # The run labels are frozen at labeling time even when the spec
        # index is traversal-backed (stable_labels False) — only the
        # fall-through *predicate* is live, never the labels themselves.
        return True

    def vertex_at(self, identifier: int) -> RunVertex:
        """Return the run vertex a handle from :meth:`intern` refers to."""
        try:
            return self.interner.vertex_at(identifier)
        except VertexNotFoundError:
            raise LabelingError(f"unknown vertex handle: {identifier!r}") from None

    def reaches_labels(self, first: RunLabel, second: RunLabel) -> bool:
        """``πr``: constant-time reachability from two labels."""
        return skeleton_predicate(first, second, self.spec_index)

    def reaches(self, source: RunVertex, target: RunVertex) -> bool:
        """Decide whether *source* reaches *target* in the run."""
        return self.reaches_labels(self.label_of(source), self.label_of(target))

    def reaches_many(self, label_pairs: Sequence[tuple[RunLabel, RunLabel]]) -> list[bool]:
        """Batch form of :meth:`reaches_labels` (Algorithm 3, batch-wise).

        Fast-path queries are answered with inline coordinate arithmetic;
        every skeleton fall-through is forwarded to the specification
        index's ``reaches_many`` in one call.  This is the method the batch
        query engine (:mod:`repro.engine`) dispatches to.
        """
        return skeleton_predicate_many(label_pairs, self.spec_index)

    def query_path(self, source: RunVertex, target: RunVertex) -> str:
        """Return which Algorithm 3 rule answers the query (ablation hook)."""
        return classify_query(self.label_of(source), self.label_of(target))

    def downstream_of(self, vertex: RunVertex) -> list[RunVertex]:
        """Every module execution that depends on *vertex* (excluding itself).

        This is the "which downstream results were affected by a bad result"
        query of the introduction, answered purely from the labels (one
        constant-time predicate evaluation per candidate vertex).
        """
        source_label = self.label_of(vertex)
        return [
            other
            for other, label in self._labels.items()
            if other != vertex and self.reaches_labels(source_label, label)
        ]

    def upstream_of(self, vertex: RunVertex) -> list[RunVertex]:
        """Every module execution that *vertex* depends on (excluding itself).

        The "which inputs and tools produced this result" query of the
        introduction.
        """
        target_label = self.label_of(vertex)
        return [
            other
            for other, label in self._labels.items()
            if other != vertex and self.reaches_labels(label, target_label)
        ]

    # ------------------------------------------------------------------
    # metrics (Section 8 measurements)
    # ------------------------------------------------------------------
    @property
    def nonempty_plus_count(self) -> int:
        """``n+T``: number of nonempty ``+`` nodes in the execution plan."""
        return self.encoding.nonempty_count

    @property
    def skeleton_reference_bits(self) -> int:
        """Bits charged per label for referencing a skeleton label (``log nG``)."""
        return self._skeleton_reference_bits

    def label_length_bits(self, vertex: RunVertex) -> int:
        """Actual bits of the vertex's label: variable-size coordinates + reference.

        Coordinates are counted with zero-based variable-width encoding
        (position ``q`` costs ``bitlen(q - 1)`` bits, at least one), so the
        per-vertex lengths vary — as in Figure 12 — while the maximum never
        exceeds the fixed-width ``3·ceil(log2 n+T)`` of Lemma 4.7.
        """
        label = self.label_of(vertex)
        coordinate_bits = sum(max(1, (q - 1).bit_length()) for q in label.context)
        return coordinate_bits + self._skeleton_reference_bits

    def max_label_length_bits(self) -> int:
        """Largest label over all run vertices (Figure 12, 'Maximum Label Length')."""
        return max(self.label_length_bits(v) for v in self._labels)

    def average_label_length_bits(self) -> float:
        """Mean label length over all run vertices (Figure 12, 'Average Label Length')."""
        total = sum(self.label_length_bits(v) for v in self._labels)
        return total / len(self._labels)

    def worst_case_label_bits(self) -> int:
        """The Lemma 4.7 bound ``3·ceil(log2 n+T) + ceil(log2 nG)``."""
        return run_label_bits(self.nonempty_plus_count, self._skeleton_reference_bits)

    def context_bits_per_coordinate(self) -> int:
        """Bits per context coordinate, ``ceil(log2 n+T)``."""
        return context_bits(self.nonempty_plus_count)

    def fast_path_fraction(self, queries) -> float:
        """Fraction of the given (source, target) queries answered without skeleton labels."""
        pairs = list(queries)
        if not pairs:
            return 0.0
        fast = sum(
            1
            for source, target in pairs
            if self.query_path(source, target) != QueryPath.SKELETON
        )
        return fast / len(pairs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SkeletonLabeledRun(run={self.run.name!r}, nR={self.run.vertex_count}, "
            f"n_plus={self.nonempty_plus_count}, "
            f"spec_scheme={self.spec_index.scheme_name!r})"
        )


class SkeletonLabeler:
    """Label runs of a fixed specification with the skeleton-based scheme.

    Parameters
    ----------
    specification:
        The workflow specification all runs conform to.
    spec_scheme:
        The scheme used for the skeleton labels: a registry name
        (``"tcm"``, ``"bfs"``, ``"dfs"``, ``"tree-cover"``), a
        :class:`ReachabilityIndex` subclass, or an already-built index over
        the specification graph.  The index is built once and reused for
        every labeled run, which is exactly the amortization argument of
        Section 7.
    """

    def __init__(
        self,
        specification: WorkflowSpecification,
        spec_scheme: Union[str, Type[ReachabilityIndex], ReachabilityIndex] = "tcm",
    ) -> None:
        self.specification = specification
        started = time.perf_counter()
        self.spec_index = self._resolve_spec_index(specification, spec_scheme)
        self.spec_labeling_seconds = time.perf_counter() - started

    @staticmethod
    def _resolve_spec_index(
        specification: WorkflowSpecification,
        spec_scheme: Union[str, Type[ReachabilityIndex], ReachabilityIndex],
    ) -> ReachabilityIndex:
        if isinstance(spec_scheme, ReachabilityIndex):
            return spec_scheme
        if isinstance(spec_scheme, str):
            index_class = get_scheme(spec_scheme)
        elif isinstance(spec_scheme, type) and issubclass(spec_scheme, ReachabilityIndex):
            index_class = spec_scheme
        else:
            raise LabelingError(
                f"spec_scheme must be a name, index class or index instance, "
                f"got {spec_scheme!r}"
            )
        return index_class.build(specification.graph)

    # ------------------------------------------------------------------
    # Algorithm 2
    # ------------------------------------------------------------------
    def label_run(
        self,
        run: WorkflowRun,
        *,
        plan: Optional[ExecutionPlan] = None,
        context: Optional[dict[RunVertex, int]] = None,
    ) -> SkeletonLabeledRun:
        """Label *run* and return the queryable :class:`SkeletonLabeledRun`.

        ``plan`` and ``context`` may be supplied together when the workflow
        engine already recorded them (the Figure 13 "with execution plan &
        context" setting); otherwise they are reconstructed from the run
        graph by :func:`~repro.skeleton.construct.construct_plan`.
        """
        if run.specification is not self.specification and (
            run.specification.name != self.specification.name
        ):
            raise LabelingError(
                f"run {run.name!r} conforms to specification "
                f"{run.specification.name!r}, not {self.specification.name!r}"
            )
        if (plan is None) != (context is None):
            raise LabelingError("plan and context must be provided together")

        started = time.perf_counter()
        vertices = run.graph.vertices()
        if plan is None:
            result = construct_plan(self.specification, run)
            plan, context, context_ids = result.plan, result.context, result.context_ids
        else:
            try:
                context_ids = [context[vertex] for vertex in vertices]
            except KeyError as exc:
                raise LabelingError(
                    f"context assignment is missing run vertex {exc.args[0]!r}"
                ) from None
        plan_seconds = time.perf_counter() - started

        started = time.perf_counter()
        encoding = encode_contexts(plan, context)
        encoding_seconds = time.perf_counter() - started

        started = time.perf_counter()
        positions = encoding.positions
        skeleton_of = {
            module: self.spec_index.label_of(module)
            for module in {vertex.module for vertex in vertices}
        }
        labels: dict[RunVertex, RunLabel] = {
            vertex: RunLabel(*positions[plus_node], skeleton_of[vertex.module])
            for vertex, plus_node in zip(vertices, context_ids)
        }
        assignment_seconds = time.perf_counter() - started

        timings = LabelingTimings(
            plan_seconds=plan_seconds,
            encoding_seconds=encoding_seconds,
            assignment_seconds=assignment_seconds,
        )
        return SkeletonLabeledRun(
            run=run,
            spec_index=self.spec_index,
            labels=labels,
            encoding=encoding,
            plan=plan,
            context=context,
            timings=timings,
        )
