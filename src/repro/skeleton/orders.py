"""Three-dimensional context encoding (Section 4.3, Algorithm 1).

Given an execution plan and the set of *nonempty* ``+`` nodes (those that are
the context of at least one run vertex), this module produces the three total
orders ``O1``, ``O2``, ``O3`` of Algorithm 1 and encodes every nonempty ``+``
node by its positions in them.

The three preorder traversals differ only in how the children of group nodes
are visited:

* ``O1`` visits all children left to right;
* ``O2`` reverses the children of ``F-`` nodes;
* ``O3`` reverses the children of ``L-`` nodes.

Lemma 4.5 then lets the query predicate classify the least common ancestor of
two contexts (``F-``, ``L-`` or ``+``) from the pairwise order of their
positions alone.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.exceptions import LabelingError
from repro.workflow.plan import ExecutionPlan, PlanNode, PlanNodeKind

__all__ = ["ContextEncoding", "generate_three_orders", "encode_contexts"]


@dataclass(frozen=True)
class ContextEncoding:
    """Positions of the nonempty ``+`` nodes in the three total orders.

    ``positions[node_id] == (q1, q2, q3)`` with 1-based positions.
    """

    positions: dict[int, tuple[int, int, int]]

    def __getitem__(self, node_id: int) -> tuple[int, int, int]:
        try:
            return self.positions[node_id]
        except KeyError:
            raise LabelingError(
                f"plan node {node_id} is empty or unknown and has no context encoding"
            ) from None

    def __contains__(self, node_id: object) -> bool:
        return node_id in self.positions

    def __len__(self) -> int:
        return len(self.positions)

    @property
    def nonempty_count(self) -> int:
        """``n+T``: the number of nonempty ``+`` nodes (Lemma 4.7)."""
        return len(self.positions)


def _traversal_positions(
    plan: ExecutionPlan,
    nonempty: set[int],
    reverse_kind: PlanNodeKind | None,
) -> dict[int, int]:
    """Record positions of nonempty ``+`` nodes in one preorder traversal."""

    def child_order(node: PlanNode) -> list[int]:
        if node.kind is reverse_kind:
            return node.children[::-1]
        return node.children

    positions: dict[int, int] = {}
    counter = 0
    for node in plan.iter_preorder(child_order):
        if node.node_id in nonempty and node.is_plus:
            counter += 1
            positions[node.node_id] = counter
    return positions


def generate_three_orders(
    plan: ExecutionPlan, nonempty: Iterable[int]
) -> tuple[dict[int, int], dict[int, int], dict[int, int]]:
    """Return the ``O1``, ``O2``, ``O3`` positions of the nonempty ``+`` nodes."""
    nonempty_set = set(nonempty)
    order_one = _traversal_positions(plan, nonempty_set, reverse_kind=None)
    order_two = _traversal_positions(plan, nonempty_set, reverse_kind=PlanNodeKind.FORK_GROUP)
    order_three = _traversal_positions(plan, nonempty_set, reverse_kind=PlanNodeKind.LOOP_GROUP)
    return order_one, order_two, order_three


def encode_contexts(plan: ExecutionPlan, context: dict) -> ContextEncoding:
    """Build the three-dimensional encoding for a context assignment.

    ``context`` maps run vertices to ``+`` plan node identifiers; only the
    nodes that actually appear (the nonempty ones) receive positions.
    """
    nonempty = set(context.values())
    for node_id in nonempty:
        node = plan.node(node_id)
        if not node.is_plus:
            raise LabelingError(
                f"context assignment references non-+ plan node {node_id} ({node.kind.value})"
            )
    order_one, order_two, order_three = generate_three_orders(plan, nonempty)
    positions = {
        node_id: (order_one[node_id], order_two[node_id], order_three[node_id])
        for node_id in nonempty
    }
    return ContextEncoding(positions=positions)
