"""Property tests for ``construct_plan`` against the generator's ground truth.

The run generator materializes a run from an execution plan it drew, so it
knows the true plan ``TR`` and context function ``C`` of every run.  Plan
reconstruction from the bare run graph must recover both: the plan up to
the order of unordered siblings (``ExecutionPlan.signature``) and, region by
region, the same partition of run vertices into ``+`` copies.  It must also
leave the run graph exactly as it found it, and keep rejecting runs that do
not derive from their specification.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from test_construct_plan_edge_cases import EDGE_CASE_SPECS

from repro.datasets.synthetic import SyntheticSpecConfig, generate_specification
from repro.exceptions import DatasetError, PlanConstructionError
from repro.graphs.digraph import DiGraph
from repro.skeleton.construct import construct_plan
from repro.workflow.execution import (
    PerRegionProfile,
    RangeProfile,
    generate_run,
    generate_run_with_size,
)
from repro.workflow.run import RunVertex, WorkflowRun

SETTINGS = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def specifications(draw):
    """Synthetic specifications with non-trivial fork/loop hierarchies."""
    hierarchy_size = draw(st.integers(min_value=2, max_value=8))
    depth = draw(st.integers(min_value=2, max_value=min(4, hierarchy_size)))
    n_modules = draw(st.integers(min_value=12, max_value=50))
    extra_edges = draw(st.integers(min_value=0, max_value=n_modules))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    fork_fraction = draw(st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0]))
    config = SyntheticSpecConfig(
        n_modules=n_modules,
        n_edges=n_modules - 1 + extra_edges,
        hierarchy_size=hierarchy_size,
        hierarchy_depth=depth,
        fork_fraction=fork_fraction,
        seed=seed,
        name=f"construct-{seed}",
    )
    try:
        return generate_specification(config)
    except DatasetError:
        assume(False)


@st.composite
def specification_and_run(draw):
    spec = draw(specifications())
    seed = draw(st.integers(min_value=0, max_value=10_000))
    if draw(st.booleans()):
        high = draw(st.integers(min_value=1, max_value=4))
        generated = generate_run(spec, RangeProfile(1, high), seed=seed)
    else:
        target = draw(
            st.integers(min_value=spec.vertex_count, max_value=8 * spec.vertex_count)
        )
        generated = generate_run_with_size(spec, target, seed=seed)
    return spec, generated


def _partition_by_region(plan, context) -> dict:
    """Region name -> the set of vertex groups sharing one ``+`` context."""
    members: dict[int, set] = {}
    for vertex, node_id in context.items():
        members.setdefault(node_id, set()).add(vertex)
    partition: dict = {}
    for node_id, group in members.items():
        partition.setdefault(plan.node(node_id).region, set()).add(frozenset(group))
    return partition


def _graph_state(graph: DiGraph) -> tuple:
    return (
        graph.vertex_count,
        graph.edge_count,
        graph.vertex_version,
        graph.update_version,
        graph.vertices(),
        set(graph.iter_edges()),
    )


@given(specification_and_run())
@SETTINGS
def test_reconstruction_recovers_the_ground_truth(spec_and_run):
    spec, generated = spec_and_run
    run = generated.run
    before = _graph_state(run.graph)

    result = construct_plan(spec, run)

    assert result.plan.signature() == generated.plan.signature()
    assert _partition_by_region(result.plan, result.context) == _partition_by_region(
        generated.plan, generated.context
    )
    assert list(result.context) == run.vertices()
    assert result.context_ids == [result.context[v] for v in run.vertices()]
    assert _graph_state(run.graph) == before


# ----------------------------------------------------------------------
# conformance: every hand-built edge-case specification rejects mutants
# ----------------------------------------------------------------------
def _without_fork(spec, region) -> WorkflowRun:
    """The identity run with every copy of *region* cut out.

    The fork's internal executions are removed and its source feeds its
    sink directly, which leaves a valid flow network that holds no copy of
    the fork (nor of any region nested in it).
    """
    graph = WorkflowRun.identity_run(spec).graph.copy()
    for module in region.internal:
        graph.remove_vertex(RunVertex(module, 1))
    graph.add_edge(RunVertex(region.source, 1), RunVertex(region.sink, 1))
    return WorkflowRun(spec, graph, name=f"without-{region.name}")


def _branching_loop(spec, region) -> WorkflowRun:
    """Three serial copies of *region*, with the first also feeding the third."""
    generated = generate_run(spec, PerRegionProfile({region.name: 3}, default=1), seed=0)
    graph = generated.run.graph.copy()
    serial = sorted(
        (tail, head)
        for tail, head in graph.iter_edges()
        if tail.module == region.sink and head.module == region.source
    )
    assert len(serial) == 2
    (first_sink, _), (_, third_source) = serial
    graph.add_edge(first_sink, third_source)
    return WorkflowRun(spec, graph, name=f"branching-{region.name}")


@pytest.mark.parametrize("build_spec", EDGE_CASE_SPECS, ids=lambda f: f.__name__)
def test_edge_case_specifications_reject_non_conforming_runs(build_spec):
    spec = build_spec()
    mutants = [
        _without_fork(spec, region) if region.is_fork else _branching_loop(spec, region)
        for region in spec.regions.values()
    ]
    assert mutants
    for mutant in mutants:
        with pytest.raises(PlanConstructionError):
            construct_plan(spec, mutant)
