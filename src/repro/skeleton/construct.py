"""``ConstructPlan``: extracting the execution plan and context from a run.

Section 5 of the paper shows that the execution plan ``TR`` and the context
function ``C`` can be computed from the bare run graph in linear time, using
only the specification, its fork/loop hierarchy ``TG`` and the module names
on the run vertices — no per-copy bookkeeping from the workflow engine is
needed.

The implementation follows the paper's strategy:

* regions are processed bottom-up over ``TG`` (every region after all of its
  descendants);
* the copies of a region are recovered as the weakly connected components of
  the surviving run vertices whose origin lies in the region's dominating set
  (Lemma 5.1 guarantees each copy forms one component once its descendants
  have been contracted);
* fork copies sharing a source and sink are grouped into one ``F-``
  execution, loop copies are split and ordered along the serial-composition
  edges into one ``L-`` execution per chain;
* each processed group is *contracted*: its vertices are removed and replaced
  by a single special edge, which carries the pending ``-`` node until the
  enclosing ``+`` copy is discovered and adopts it.

Contexts are assigned on the way (deepest copy first), and whatever remains
uncovered at the end belongs to the ``G+`` root.  The procedure doubles as a
conformance check: runs that do not derive from the specification fail with
:class:`~repro.exceptions.PlanConstructionError`.

The builder works on integer vertex handles — the run graph's insertion
order, as :meth:`~repro.graphs.digraph.DiGraph.intern_vertices` assigns
them — over its own adjacency sets, so the run graph itself is never
copied or touched.  Run vertices are bucketed by module once, and a
region's candidates are read from the buckets of its dominating set
(dead vertices are compacted out as they are met), so the total work is
linear in the run size for a fixed hierarchy rather than one scan of every
surviving vertex per region.  Contraction marks vertices dead and unlinks
them from their neighbours; pending ``-`` nodes are indexed by the region
expected to adopt them.  Everything is visited in handle order and ``-``
nodes are adopted in creation order, so the plan — sibling order included
— and hence the run labels are a function of the specification and the
run alone, independent of ``PYTHONHASHSEED``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import PlanConstructionError
from repro.workflow.hierarchy import ROOT_NAME
from repro.workflow.plan import ExecutionPlan, PlanNodeKind
from repro.workflow.run import RunVertex, WorkflowRun
from repro.workflow.specification import WorkflowSpecification
from repro.workflow.subgraphs import ResolvedRegion

__all__ = ["PlanConstructionResult", "construct_plan"]

#: ``mark`` states of a handle while one region is processed
_OUTSIDE, _CANDIDATE, _MEMBER = 0, 1, 2


@dataclass
class PlanConstructionResult:
    """Output of :func:`construct_plan`.

    Attributes
    ----------
    plan:
        The reconstructed execution plan ``TR``.
    context:
        The context function ``C``: run vertex -> ``+`` plan node identifier,
        in run-graph insertion order.
    context_ids:
        The same function indexed by vertex handle: ``context_ids[h]`` is the
        context of the ``h``-th vertex of ``run.graph.vertices()``.
    """

    plan: ExecutionPlan
    context: dict[RunVertex, int]
    context_ids: list[int]


def construct_plan(spec: WorkflowSpecification, run: WorkflowRun) -> PlanConstructionResult:
    """Compute the execution plan and context of *run* (Algorithms 4 and 5).

    Raises :class:`PlanConstructionError` when the run graph cannot have been
    produced by fork/loop executions of *spec*.
    """
    builder = _PlanBuilder(spec, run)
    return builder.build()


class _PlanBuilder:
    """Stateful implementation of the bottom-up plan construction."""

    def __init__(self, spec: WorkflowSpecification, run: WorkflowRun) -> None:
        self.spec = spec
        self.run = run
        self.hierarchy = spec.hierarchy
        interner = run.graph.intern_vertices()
        self.vertices: list[RunVertex] = interner.vertices()
        id_of = interner.id_map.__getitem__
        count = len(self.vertices)
        self.module_of: list[str] = [vertex.module for vertex in self.vertices]
        # the working graph: adjacency sets over handles, edited in place by
        # contractions (the run graph itself is never touched)
        graph = run.graph
        self.succ: list[set[int]] = [
            set(map(id_of, graph.successors(vertex))) for vertex in self.vertices
        ]
        self.pred: list[set[int]] = [
            set(map(id_of, graph.predecessors(vertex))) for vertex in self.vertices
        ]
        self.alive = bytearray(b"\x01") * count
        self.mark = bytearray(count)
        # copy index of each member of the region being processed, else -1
        self.owner: list[int] = [-1] * count
        self.buckets: dict[str, list[int]] = {}
        for handle, module in enumerate(self.module_of):
            self.buckets.setdefault(module, []).append(handle)
        self.plan = ExecutionPlan()
        self.root_id = self.plan.add_root()
        self.context: list[int] = [-1] * count
        # not-yet-attached group nodes, by the region expected to adopt them:
        # region name -> [(minus node id, special edge tail, head)] in
        # creation order
        self.pending: dict[str, list[tuple[int, int, int]]] = {}

    # ------------------------------------------------------------------
    # top level
    # ------------------------------------------------------------------
    def build(self) -> PlanConstructionResult:
        for hnode in self.hierarchy.iter_postorder():
            if hnode.is_root:
                continue
            region = hnode.region
            candidates = self._candidates(region)
            if not candidates:
                raise PlanConstructionError(
                    f"run {self.run.name!r} contains no copy of region {region.name!r}"
                )
            components = self._components(candidates)
            if region.is_fork:
                self._process_fork(region, hnode.parent, components)
            else:
                self._process_loop(region, hnode.parent, components)
            for handle in candidates:
                self.mark[handle] = _OUTSIDE
                self.owner[handle] = -1

        self._finish_root()
        self.plan.validate()
        context = dict(zip(self.vertices, self.context))
        return PlanConstructionResult(
            plan=self.plan, context=context, context_ids=self.context
        )

    def _candidates(self, region: ResolvedRegion) -> list[int]:
        """Live vertices whose origin lies in the region's dominating set."""
        alive = self.alive
        buckets = self.buckets
        merged: list[int] = []
        for module in region.dom_set:
            bucket = buckets.get(module)
            if not bucket:
                continue
            live = [handle for handle in bucket if alive[handle]]
            if len(live) != len(bucket):
                buckets[module] = live
            merged.extend(live)
        merged.sort()
        return merged

    def _components(self, candidates: list[int]) -> list[list[int]]:
        """Weakly connected components of the candidates, in handle order.

        Leaves every candidate marked ``_MEMBER``, so later steps test
        membership in the region with one byte read.
        """
        mark, succ, pred = self.mark, self.succ, self.pred
        for handle in candidates:
            mark[handle] = _CANDIDATE
        components: list[list[int]] = []
        for start in candidates:
            if mark[start] != _CANDIDATE:
                continue
            mark[start] = _MEMBER
            component = [start]
            # breadth-first: the loop also visits the handles it appends
            for current in component:
                for neighbour in succ[current]:
                    if mark[neighbour] == _CANDIDATE:
                        mark[neighbour] = _MEMBER
                        component.append(neighbour)
                for neighbour in pred[current]:
                    if mark[neighbour] == _CANDIDATE:
                        mark[neighbour] = _MEMBER
                        component.append(neighbour)
            components.append(component)
        return components

    def _assign_context(self, copy_vertices: list[int], plus_id: int) -> None:
        context = self.context
        for handle in copy_vertices:
            if context[handle] < 0:
                context[handle] = plus_id

    def _contract(self, doomed: list[int], tail: int, head: int) -> None:
        """Remove *doomed* and stand in the special edge ``tail -> head``."""
        alive, succ, pred = self.alive, self.succ, self.pred
        for handle in doomed:
            alive[handle] = 0
            for successor in succ[handle]:
                pred[successor].discard(handle)
            for predecessor in pred[handle]:
                succ[predecessor].discard(handle)
            succ[handle].clear()
            pred[handle].clear()
        succ[tail].add(head)
        pred[head].add(tail)

    def _finish_root(self) -> None:
        """Assign remaining contexts to ``G+`` and adopt top-level groups."""
        context = self.context
        for handle in range(len(context)):
            if context[handle] < 0:
                context[handle] = self.root_id
        alive = self.alive
        for minus_id, tail, head in self.pending.pop(ROOT_NAME, ()):
            if not (alive[tail] and alive[head]):
                raise PlanConstructionError(
                    f"special edge {self._edge(tail, head)!r} for region group "
                    f"{minus_id} vanished before it could be attached to the root"
                )
            self.plan.attach(minus_id, self.root_id)
        unattached = [
            self._edge(tail, head)
            for entries in self.pending.values()
            for _, tail, head in entries
        ]
        if unattached:
            raise PlanConstructionError(
                f"some fork/loop executions could not be attached to an enclosing "
                f"copy: special edges {unattached!r}; the run does not conform to "
                f"the specification"
            )

    def _edge(self, tail: int, head: int) -> tuple[RunVertex, RunVertex]:
        return (self.vertices[tail], self.vertices[head])

    def _names(self, handles) -> list[str]:
        return sorted(str(self.vertices[handle]) for handle in handles)

    # ------------------------------------------------------------------
    # fork regions
    # ------------------------------------------------------------------
    def _process_fork(
        self,
        region: ResolvedRegion,
        parent_name: str,
        components: list[list[int]],
    ) -> None:
        groups: dict[tuple[int, int], list[list[int]]] = {}
        for component in components:
            terminals = self._fork_copy_terminals(region, component)
            groups.setdefault(terminals, []).append(component)

        copies: list[tuple[int, list[int], tuple[int, int]]] = []
        minus_ids: list[int] = []
        for terminals, group_components in groups.items():
            minus_id = self.plan.add_node(PlanNodeKind.FORK_GROUP, region.name)
            minus_ids.append(minus_id)
            for component in group_components:
                plus_id = self.plan.add_node(
                    PlanNodeKind.FORK_COPY, region.name, parent=minus_id
                )
                copies.append((plus_id, component, terminals))
                self._assign_context(component, plus_id)
        self._adopt_pending(region.name, copies)

        waiting = self.pending.setdefault(parent_name, [])
        for minus_id, ((source, sink), group_components) in zip(
            minus_ids, groups.items()
        ):
            # Contract: drop every internal vertex of the group and stand in a
            # single special edge from the shared source to the shared sink.
            for component in group_components:
                self._contract(component, source, sink)
            waiting.append((minus_id, source, sink))

    def _fork_copy_terminals(
        self, region: ResolvedRegion, component: list[int]
    ) -> tuple[int, int]:
        """Find the shared source and sink of one fork copy."""
        mark, succ, pred = self.mark, self.succ, self.pred
        outside_predecessors: set[int] = set()
        outside_successors: set[int] = set()
        for handle in component:
            for predecessor in pred[handle]:
                if mark[predecessor] == _OUTSIDE:
                    outside_predecessors.add(predecessor)
            for successor in succ[handle]:
                if mark[successor] == _OUTSIDE:
                    outside_successors.add(successor)
        if len(outside_predecessors) != 1 or len(outside_successors) != 1:
            raise PlanConstructionError(
                f"fork {region.name!r}: a copy is not self-contained in the run "
                f"(outside predecessors {self._names(outside_predecessors)}, "
                f"outside successors {self._names(outside_successors)})"
            )
        (source,) = outside_predecessors
        (sink,) = outside_successors
        if self.module_of[source] != region.source or self.module_of[sink] != region.sink:
            raise PlanConstructionError(
                f"fork {region.name!r}: copy terminals {self.vertices[source]}/"
                f"{self.vertices[sink]} do not originate from "
                f"{region.source!r}/{region.sink!r}"
            )
        return source, sink

    # ------------------------------------------------------------------
    # loop regions
    # ------------------------------------------------------------------
    def _process_loop(
        self,
        region: ResolvedRegion,
        parent_name: str,
        components: list[list[int]],
    ) -> None:
        copies: list[tuple[int, list[int], tuple[()]]] = []
        contractions: list[tuple[int, list[int], int, int]] = []
        for component in components:
            ordered = self._split_chain(region, component)
            minus_id = self.plan.add_node(PlanNodeKind.LOOP_GROUP, region.name)
            for copy_vertices in ordered:
                plus_id = self.plan.add_node(
                    PlanNodeKind.LOOP_COPY, region.name, parent=minus_id
                )
                copies.append((plus_id, copy_vertices, ()))
                self._assign_context(copy_vertices, plus_id)
            first_source = self._unique_by_module(region, ordered[0], region.source)
            last_sink = self._unique_by_module(region, ordered[-1], region.sink)
            contractions.append((minus_id, component, first_source, last_sink))
        self._adopt_pending(region.name, copies)

        waiting = self.pending.setdefault(parent_name, [])
        for minus_id, component, first_source, last_sink in contractions:
            doomed = [h for h in component if h != first_source and h != last_sink]
            self._contract(doomed, first_source, last_sink)
            waiting.append((minus_id, first_source, last_sink))

    def _split_chain(self, region: ResolvedRegion, component: list[int]) -> list[list[int]]:
        """Cut a loop chain at its serial edges and order the copies along them.

        Serial-composition edges run from a sink-origin vertex to a
        source-origin vertex inside the chain.  Uses ``owner`` for the local
        copy index of each vertex; the caller's cleanup resets it.
        """
        mark, owner, succ, pred = self.mark, self.owner, self.succ, self.pred
        module_of = self.module_of
        source, sink = region.source, region.sink
        copies: list[list[int]] = []
        for start in component:
            if owner[start] >= 0:
                continue
            index = len(copies)
            owner[start] = index
            copy_vertices = [start]
            for current in copy_vertices:
                cut_forward = module_of[current] == sink
                cut_backward = module_of[current] == source
                for successor in succ[current]:
                    if (
                        mark[successor] == _MEMBER
                        and owner[successor] < 0
                        and not (cut_forward and module_of[successor] == source)
                    ):
                        owner[successor] = index
                        copy_vertices.append(successor)
                for predecessor in pred[current]:
                    if (
                        mark[predecessor] == _MEMBER
                        and owner[predecessor] < 0
                        and not (cut_backward and module_of[predecessor] == sink)
                    ):
                        owner[predecessor] = index
                        copy_vertices.append(predecessor)
            copies.append(copy_vertices)
        if len(copies) == 1:
            return copies

        next_of = [-1] * len(copies)
        has_previous = bytearray(len(copies))
        for tail in component:
            if module_of[tail] != sink:
                continue
            for head in succ[tail]:
                if mark[head] != _MEMBER or module_of[head] != source:
                    continue
                tail_copy, head_copy = owner[tail], owner[head]
                if (
                    tail_copy == head_copy
                    or next_of[tail_copy] >= 0
                    or has_previous[head_copy]
                ):
                    raise PlanConstructionError(
                        f"loop {region.name!r}: serial edges do not form a simple chain"
                    )
                next_of[tail_copy] = head_copy
                has_previous[head_copy] = 1

        start_candidates = [i for i in range(len(copies)) if not has_previous[i]]
        if len(start_candidates) != 1:
            raise PlanConstructionError(
                f"loop {region.name!r}: could not identify the first copy of the chain"
            )
        order: list[list[int]] = []
        current = start_candidates[0]
        seen = bytearray(len(copies))
        while True:
            if seen[current]:
                raise PlanConstructionError(
                    f"loop {region.name!r}: serial edges form a cycle"
                )
            seen[current] = 1
            order.append(copies[current])
            if next_of[current] < 0:
                break
            current = next_of[current]
        if len(order) != len(copies):
            raise PlanConstructionError(
                f"loop {region.name!r}: the serial chain does not cover every copy"
            )
        return order

    def _unique_by_module(
        self, region: ResolvedRegion, copy_vertices: list[int], module: str
    ) -> int:
        module_of = self.module_of
        matches = [h for h in copy_vertices if module_of[h] == module]
        if len(matches) != 1:
            raise PlanConstructionError(
                f"loop {region.name!r}: expected exactly one {module!r} execution in a "
                f"copy, found {len(matches)}"
            )
        return matches[0]

    # ------------------------------------------------------------------
    # pending group adoption
    # ------------------------------------------------------------------
    def _adopt_pending(
        self,
        region_name: str,
        copies: list[tuple[int, list[int], tuple]],
    ) -> None:
        """Attach the child group nodes whose special edge lies inside a copy.

        *copies* lists ``(plus node id, copy vertices, terminals)`` for every
        copy of the region; fork copies pass their shared source and sink as
        terminals, loop copies none.  A pending ``-`` node waiting for this
        region is adopted by the copy owning one endpoint of its special
        edge, provided the other endpoint also lies inside that copy or is
        one of its terminals; groups are attached in creation order.  What
        stays unadopted can never be adopted later and is reported by
        :meth:`_finish_root`.
        """
        entries = self.pending.pop(region_name, None)
        if not entries:
            return
        owner = self.owner
        for index, (_, copy_vertices, _) in enumerate(copies):
            for handle in copy_vertices:
                owner[handle] = index
        unadopted: list[tuple[int, int, int]] = []
        for entry in entries:
            minus_id, tail, head = entry
            index = owner[tail] if owner[tail] >= 0 else owner[head]
            if index >= 0:
                plus_id, _, terminals = copies[index]
                if (owner[tail] == index or tail in terminals) and (
                    owner[head] == index or head in terminals
                ):
                    self.plan.attach(minus_id, plus_id)
                    continue
            unadopted.append(entry)
        if unadopted:
            self.pending[region_name] = unadopted
