"""Algorithm 1: subgraph pattern matching with variable mappings.

The search backtracks over pattern nodes, pruning candidates with

1. the type-based search space Φ (``Untyped`` pattern nodes admit every
   graph node), served by the EPDG's type buckets instead of a scan;
2. structural consistency — every pattern edge between the new node and
   already-matched nodes must exist in the graph (we check both edge
   directions, a correctness tightening of the paper's line 13 which only
   inspects outgoing edges);
3. variable-mapping consistency — unbound pattern variables are bound to
   unbound submission variables by trying injective assignments, after
   which the node's exact expression ``r`` (mark: correct) or approximate
   expression ``r̂`` (mark: incorrect) must match the node content.

Where the paper requires ``|X| = |Y|`` before trying combinations, we try
all injective partial assignments when ``|X| ≤ |Y|``: the relaxation is
needed to accept the paper's own worked example (node ``u5`` of pattern
``p_o``), and reduces to the paper's rule when the sizes agree.

The default ``"connectivity"`` order runs off a **compiled search plan**
(:mod:`repro.matching.plan`): pattern adjacency lists and degree
requirements are extracted once per pattern, the connectivity-first node
order is fixed up front (it never depends on *how* nodes are mapped,
only on which are matched), and Φ is additionally pruned by degree
profiles and variable-arity floors.  Both prunes are exact — they only
drop candidates the backtracking would reject in every branch — so the
embeddings, including their discovery order, are identical to the
unpruned search.  ``"naive"`` keeps the paper's literal line 11 (any
unmatched node, declaration order) with no pruning, serving as the
reference for the ablation benchmark and the differential test suite.

When an ambient :class:`~repro.matching.cache.MatchCache` is installed
(Algorithm 2 installs one per submission), results are memoized by
``(pattern, graph, order)`` so repeated method assignments and pattern
groups never re-run the search.
"""

from __future__ import annotations

from itertools import permutations

from repro.instrumentation import check_deadline, count
from repro.matching.cache import active_match_cache
from repro.matching.embeddings import Embedding
from repro.matching.plan import SearchPlan, SearchStep, compile_plan
from repro.patterns.model import Pattern
from repro.pdg.graph import Epdg, NodeType

#: Safety valve on the number of embeddings per (pattern, graph) pair.
#: Real patterns yield a handful; the cap only guards pathological inputs.
MAX_EMBEDDINGS = 512


class EmbeddingList(list):
    """A ``list[Embedding]`` that also records search truncation.

    ``truncated`` is ``True`` when the :data:`MAX_EMBEDDINGS` safety
    valve stopped the search, i.e. the result may be incomplete.  The
    subclass keeps the public ``match_pattern`` contract (callers treat
    the result as a plain list) while letting Algorithm 2 surface the
    truncation instead of silently dropping work.
    """

    truncated: bool = False


def match_pattern(
    pattern: Pattern, graph: Epdg, order: str = "connectivity"
) -> EmbeddingList:
    """Compute all embeddings of ``pattern`` in ``graph`` (Algorithm 1).

    ``order`` selects the node-ordering heuristic: ``"connectivity"``
    (default — compiled plan with static connectivity-first order and
    degree/arity pruning) or ``"naive"`` (the paper's line 11: any
    unmatched node, in declaration order, no pruning).  Both return the
    same embeddings; the ablation benchmark measures the cost
    difference.
    """
    if not pattern.nodes:
        return EmbeddingList()
    cache = active_match_cache()
    if cache is not None:
        cached = cache.get(pattern, graph, order)
        if cached is not None:
            return cached
    embeddings = _match_uncached(pattern, graph, order)
    if cache is not None:
        cache.put(pattern, graph, order, embeddings)
    return embeddings


def _match_uncached(
    pattern: Pattern, graph: Epdg, order: str
) -> EmbeddingList:
    space = _search_space(pattern, graph)
    if any(not candidates for candidates in space.values()):
        return EmbeddingList()
    plan = compile_plan(pattern)
    if order == "naive":
        steps = plan.steps(tuple(range(len(pattern.nodes))))
    else:
        sizes = {u_id: len(candidates) for u_id, candidates in space.items()}
        steps = plan.steps(plan.static_order(sizes))
        pruned = _prune_space(plan, graph, space, steps)
        count("match.candidates_pruned", pruned)
        if any(not candidates for candidates in space.values()):
            return EmbeddingList()
    state = _SearchState(pattern, graph, space, steps)
    state.search(0, {}, {}, {})
    count("match.nodes_visited", state.nodes_visited)
    result = EmbeddingList(state.embeddings)
    if len(result) >= MAX_EMBEDDINGS:
        result.truncated = True
        count("match.embeddings_truncated")
    return result


def _search_space(pattern: Pattern, graph: Epdg) -> dict[int, list[int]]:
    """Φ: the graph nodes each pattern node may map to, by node type.

    Served from the EPDG's type buckets — candidate lists stay in node
    id order, exactly as the previous full-graph scan produced them.
    """
    space: dict[int, list[int]] = {}
    for u in pattern.nodes:
        if u.type is NodeType.UNTYPED:
            space[u.node_id] = [v.node_id for v in graph.nodes]
        else:
            space[u.node_id] = [
                v.node_id for v in graph.nodes_of_type(u.type)
            ]
    return space


def _prune_space(
    plan: SearchPlan,
    graph: Epdg,
    space: dict[int, list[int]],
    steps: tuple[SearchStep, ...],
) -> int:
    """Drop Φ candidates that can never complete an embedding.

    Two exact filters (they remove only candidates the backtracking
    search would reject in every branch, so results — and their order —
    are unchanged):

    * **degree**: ι is injective, so a pattern node with ``k`` outgoing
      Data edges needs an image with at least ``k`` outgoing Data edges
      (likewise for each direction × type);
    * **arity**: with the node order fixed, the variables bound before
      node ``u`` is matched are known statically, so ``u`` must bind its
      remaining variables injectively into the candidate's variables —
      impossible when the candidate has fewer variables than that.

    Returns the number of candidates removed.
    """
    profiles = graph.degree_profiles
    nodes = graph.nodes
    pruned = 0
    for step in steps:
        out_ctrl, out_data, in_ctrl, in_data = (
            plan.node_plans[step.node_id].degree_requirement
        )
        floor = len(step.new_variables)
        if not (out_ctrl or out_data or in_ctrl or in_data or floor):
            continue
        candidates = space[step.node_id]
        kept = []
        for v_id in candidates:
            profile = profiles[v_id]
            if (
                profile[0] >= out_ctrl
                and profile[1] >= out_data
                and profile[2] >= in_ctrl
                and profile[3] >= in_data
                and len(nodes[v_id].variables) >= floor
            ):
                kept.append(v_id)
        pruned += len(candidates) - len(kept)
        space[step.node_id] = kept
    return pruned


class _SearchState:
    def __init__(
        self,
        pattern: Pattern,
        graph: Epdg,
        space: dict[int, list[int]],
        steps: tuple[SearchStep, ...],
    ):
        self._pattern_nodes = pattern.nodes
        self._graph_nodes = graph.nodes
        self._space = space
        self._steps = steps
        # each step's edge checks with the edge type resolved to the
        # graph's ``(source, target)`` set of that type
        self._checks = tuple(
            tuple(
                (graph.edge_pairs(edge_type), other, outgoing)
                for edge_type, other, outgoing in step.checks
            )
            for step in steps
        )
        self.embeddings: list[Embedding] = []
        self._seen: set[tuple] = set()
        self.nodes_visited = 0  # instrumentation for the ablation bench

    def search(
        self,
        depth: int,
        iota: dict[int, int],
        gamma: dict[str, str],
        marks: dict[int, bool],
    ) -> None:
        self.nodes_visited += 1
        # the search dominates grading time, so it is the one loop that
        # must observe the ambient deadline; every 128 expansions keeps
        # the check off the hot path while bounding overshoot
        if self.nodes_visited & 127 == 0:
            check_deadline()
        if len(self.embeddings) >= MAX_EMBEDDINGS:
            return
        if depth == len(self._steps):
            embedding = Embedding.build(iota, gamma, marks)
            # distinct (ι, γ) pairs are all kept: constraints may need a
            # specific variable mapping even when the node mapping repeats
            key = (embedding.iota, embedding.gamma)
            if key not in self._seen:
                self._seen.add(key)
                self.embeddings.append(embedding)
            return
        step = self._steps[depth]
        u_id = step.node_id
        u = self._pattern_nodes[u_id]
        expr, approx = u.expr, u.approx
        checks = self._checks[depth]
        # γ is extended in place: the node's new pattern variables are
        # bound injectively to unbound submission variables (every
        # arrangement of them, in sorted order) and each binding is
        # tested against the exact expression r, then the approximate r̂
        new_variables = step.new_variables
        width = len(new_variables)
        bound_submission = set(gamma.values())
        used_graph_nodes = set(iota.values())
        graph_nodes = self._graph_nodes
        tried = 0
        for v_id in self._space[u_id]:
            if v_id in used_graph_nodes:
                continue
            for pairs, other, outgoing in checks:
                mapped = iota[other]
                if (
                    (v_id, mapped) if outgoing else (mapped, v_id)
                ) not in pairs:
                    break
            else:
                v = graph_nodes[v_id]
                free = v.variables - bound_submission
                if len(free) < width:
                    continue
                content = v.content
                for arrangement in permutations(sorted(free), width):
                    # arrangements that never match never recurse, so
                    # this loop needs its own deadline check
                    tried += 1
                    if tried & 511 == 0:
                        check_deadline()
                    for name, value in zip(new_variables, arrangement):
                        gamma[name] = value
                    if expr.matches(content, gamma):
                        correct = True
                    elif approx is not None and approx.matches(content, gamma):
                        correct = False
                    else:
                        continue
                    iota[u_id] = v_id
                    marks[u_id] = correct
                    self.search(depth + 1, iota, gamma, marks)
                    del iota[u_id]
                    del marks[u_id]
        for name in new_variables:
            gamma.pop(name, None)
