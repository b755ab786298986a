"""Compiled search plans for Algorithm 1.

A pattern in the knowledge base is matched against thousands of
submission EPDGs, but the backtracking search used to re-derive the same
pattern-side facts on every call (and on every search step):
``edges_touching`` scanned the full edge list per visited node, and the
connectivity-first node ordering was recomputed from scratch at every
backtracking level.  :func:`compile_plan` extracts everything that
depends only on the pattern **once** and caches it on the pattern
object:

* **adjacency lists** — for each pattern node, the edges touching it as
  ``(edge_type, other_node, is_outgoing)`` triples, ready for the
  consistency check of Algorithm 1 line 13;
* **degree requirements** — how many out/in edges of each type the
  pattern demands of a node's image; since ι is injective, a graph node
  with a smaller degree profile can never complete an embedding, so the
  search space Φ drops it before the search starts;
* **variable sets** per node, so the matcher never unions
  ``expr``/``approx`` variables in the loop.

Two quantities still depend on the graph (they are :math:`O(|U|^2)` on
patterns with at most a handful of nodes).  The order is computed per
match call; its steps are cached on the plan by order, since a handful
of orders recur across all graphs:

* the **static node order** — the connectivity-first heuristic only
  looks at *which* nodes are already matched, never at how they are
  mapped, so the order the dynamic heuristic would pick is identical in
  every branch of the search and can be fixed up front (see
  :meth:`SearchPlan.static_order`);
* the **search steps** of that order (see :meth:`SearchPlan.steps`) —
  once the order is fixed, the pattern variables bound before node
  ``u`` is matched are exactly those of the nodes ordered before it,
  and so are the edges whose other end is already mapped.  Each step
  therefore carries the variables ``u`` binds anew, sorted, and the
  edges to check.  The number of new variables is also an **arity
  floor**: any candidate with fewer variables cannot satisfy the
  injective binding step, so Φ drops it.  This reproduces a check the
  search would make anyway, which keeps the optimized matcher's output
  byte-identical to the naive one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.patterns.model import Pattern
from repro.pdg.graph import EdgeType

#: Distinct node orders whose steps one plan keeps; a full table is
#: emptied and refilled.
_STEP_TABLES_PER_PLAN = 64


@dataclass(frozen=True)
class NodePlan:
    """Precomputed per-pattern-node facts."""

    node_id: int
    #: Edges touching this node: ``(edge_type, other_node_id, is_outgoing)``.
    adjacency: tuple[tuple[EdgeType, int, bool], ...]
    #: Ids of the nodes those edges lead to.
    neighbors: frozenset[int]
    #: Required minimum degree profile of any image:
    #: ``(out_ctrl, out_data, in_ctrl, in_data)``.
    degree_requirement: tuple[int, int, int, int]
    #: All variables of the node (exact ∪ approximate expression).
    variables: frozenset[str]


@dataclass(frozen=True)
class SearchStep:
    """What Algorithm 1 does at one depth of a fixed node order."""

    node_id: int
    #: Variables the node binds anew, sorted: the γ extension order.
    new_variables: tuple[str, ...]
    #: Edges to nodes matched at earlier depths:
    #: ``(edge_type, other_node_id, is_outgoing)``.
    checks: tuple[tuple[EdgeType, int, bool], ...]


@dataclass(frozen=True)
class SearchPlan:
    """Everything Algorithm 1 needs that depends only on the pattern."""

    node_plans: tuple[NodePlan, ...]
    _steps: dict[tuple[int, ...], tuple[SearchStep, ...]] = field(
        default_factory=dict, compare=False, repr=False
    )

    def static_order(self, space_sizes: dict[int, int]) -> tuple[int, ...]:
        """The node order the connectivity-first heuristic would follow.

        Replays the dynamic selection — prefer nodes adjacent to an
        already-matched node, break ties by smaller search space, then
        by node id — which depends only on the *set* of matched nodes,
        not on the candidate mappings, and therefore takes the same
        sequence of decisions in every search branch.  ``space_sizes``
        must be the *unpruned* (type-only) Φ sizes so the order is
        identical to the one the unoptimized matcher used.
        """
        # ``(size, id)`` tie-break keys, best first: each pick is the
        # first remaining node adjacent to a chosen one, else the first
        ranked = sorted(
            (space_sizes[plan.node_id], plan.node_id) for plan in self.node_plans
        )
        chosen: set[int] = set()
        order: list[int] = []
        while ranked:
            pick = 0
            for index, (_, node_id) in enumerate(ranked):
                if not self.node_plans[node_id].neighbors.isdisjoint(chosen):
                    pick = index
                    break
            node_id = ranked.pop(pick)[1]
            chosen.add(node_id)
            order.append(node_id)
        return tuple(order)

    def steps(self, order: tuple[int, ...]) -> tuple[SearchStep, ...]:
        """The :class:`SearchStep` of every depth of ``order``.

        When node ``u`` is matched, every variable of every earlier node
        in ``order`` is already bound, so ``u`` must newly bind exactly
        ``vars(u) - vars(earlier)`` — injectively, into the candidate's
        own variables — and only edges to earlier nodes can be checked.
        """
        cached = self._steps.get(order)
        if cached is not None:
            return cached
        steps: list[SearchStep] = []
        bound: set[str] = set()
        earlier: set[int] = set()
        for node_id in order:
            plan = self.node_plans[node_id]
            steps.append(
                SearchStep(
                    node_id=node_id,
                    new_variables=tuple(sorted(plan.variables - bound)),
                    checks=tuple(
                        entry for entry in plan.adjacency if entry[1] in earlier
                    ),
                )
            )
            bound |= plan.variables
            earlier.add(node_id)
        result = tuple(steps)
        if len(self._steps) >= _STEP_TABLES_PER_PLAN:
            self._steps.clear()
        self._steps[order] = result
        return result


def compile_plan(pattern: Pattern) -> SearchPlan:
    """Compile (and cache on the pattern) the search plan.

    Patterns are authored once in the knowledge base and never mutated
    after construction, so the plan is cached on the instance itself —
    the registry's ``lru_cache`` keeps assignments (and thus patterns)
    alive for the process lifetime, making compilation a one-time cost.
    """
    cached = pattern.__dict__.get("_search_plan")
    if cached is not None:
        return cached
    adjacency: list[list[tuple[EdgeType, int, bool]]] = [
        [] for _ in pattern.nodes
    ]
    requirements = [[0, 0, 0, 0] for _ in pattern.nodes]
    for edge in pattern.edges:
        adjacency[edge.source].append((edge.type, edge.target, True))
        adjacency[edge.target].append((edge.type, edge.source, False))
        out_slot = 0 if edge.type is EdgeType.CTRL else 1
        in_slot = 2 if edge.type is EdgeType.CTRL else 3
        requirements[edge.source][out_slot] += 1
        requirements[edge.target][in_slot] += 1
    plan = SearchPlan(
        node_plans=tuple(
            NodePlan(
                node_id=node.node_id,
                adjacency=tuple(adjacency[node.node_id]),
                neighbors=frozenset(other for _, other, _ in adjacency[node.node_id]),
                degree_requirement=tuple(requirements[node.node_id]),
                variables=node.variables,
            )
            for node in pattern.nodes
        )
    )
    pattern.__dict__["_search_plan"] = plan
    return plan
