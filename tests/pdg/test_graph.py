"""Unit tests for the EPDG data structure."""

import random

import pytest

from repro.pdg.graph import EdgeType, Epdg, GraphEdge, GraphNode, NodeType


def make_graph():
    graph = Epdg("m")
    graph.add_node(GraphNode(0, NodeType.DECL, "a",
                             defines=frozenset({"a"})))
    graph.add_node(GraphNode(1, NodeType.ASSIGN, "x = 0",
                             defines=frozenset({"x"})))
    graph.add_node(GraphNode(2, NodeType.COND, "x < a.length",
                             uses=frozenset({"x", "a"})))
    graph.add_edge(0, 2, EdgeType.DATA)
    graph.add_edge(1, 2, EdgeType.DATA)
    return graph


class TestEpdg:
    def test_len_and_nodes(self):
        graph = make_graph()
        assert len(graph) == 3
        assert [n.name for n in graph.nodes] == ["v0", "v1", "v2"]

    def test_node_lookup(self):
        graph = make_graph()
        assert graph.node(1).content == "x = 0"

    def test_dense_ids_enforced(self):
        graph = Epdg("m")
        with pytest.raises(ValueError, match="dense"):
            graph.add_node(GraphNode(5, NodeType.COND, "x"))

    def test_edge_endpoints_validated(self):
        graph = make_graph()
        with pytest.raises(ValueError, match="out of range"):
            graph.add_edge(0, 99, EdgeType.DATA)

    def test_duplicate_edge_is_idempotent(self):
        graph = make_graph()
        graph.add_edge(0, 2, EdgeType.DATA)
        assert len(graph.edges) == 2

    def test_has_edge_distinguishes_types(self):
        graph = make_graph()
        assert graph.has_edge(0, 2, EdgeType.DATA)
        assert not graph.has_edge(0, 2, EdgeType.CTRL)

    def test_successors_and_predecessors(self):
        graph = make_graph()
        assert graph.successors(0) == [2]
        assert graph.predecessors(2) == [0, 1]
        assert graph.predecessors(2, EdgeType.CTRL) == []

    def test_nodes_of_type(self):
        graph = make_graph()
        assert [n.content for n in graph.nodes_of_type(NodeType.COND)] == [
            "x < a.length"
        ]

    def test_find_by_content_exact(self):
        graph = make_graph()
        assert graph.find_by_content("x = 0")[0].node_id == 1
        assert graph.find_by_content("x = ") == []

    def test_node_variables_property(self):
        graph = make_graph()
        assert graph.node(2).variables == frozenset({"x", "a"})

    def test_in_out_edges(self):
        graph = make_graph()
        assert len(graph.out_edges(0)) == 1
        assert len(graph.in_edges(2)) == 2

    def test_node_str(self):
        assert "v1[Assign] x = 0" in str(make_graph().node(1))

    def test_edge_str_uses_arrow_convention(self):
        graph = make_graph()
        edge = next(iter(graph.edges))
        assert "->" in str(edge)  # Data edges are solid arrows


@pytest.mark.parametrize("seed", range(8))
def test_edge_indexes_agree_with_edges_on_random_graphs(seed):
    """``has_edge`` and the degree profiles read the same edges as ``edges``."""
    rng = random.Random(seed)
    size = rng.randint(1, 14)
    graph = Epdg("random")
    for node_id in range(size):
        graph.add_node(GraphNode(node_id, rng.choice(list(NodeType)), f"n{node_id}"))
    for _ in range(rng.randint(0, 3 * size)):
        # repeats are frequent on small graphs, exercising idempotence
        graph.add_edge(
            rng.randrange(size), rng.randrange(size), rng.choice(list(EdgeType))
        )
        assert graph.degree_profiles[-1] == graph.degree_profile(size - 1)
    edges = graph.edges
    for source in range(size):
        for target in range(size):
            for edge_type in EdgeType:
                assert graph.has_edge(source, target, edge_type) == (
                    GraphEdge(source, target, edge_type) in edges
                )
    for node_id in range(size):
        expected = (
            sum(1 for e in edges if e.source == node_id and e.type is EdgeType.CTRL),
            sum(1 for e in edges if e.source == node_id and e.type is EdgeType.DATA),
            sum(1 for e in edges if e.target == node_id and e.type is EdgeType.CTRL),
            sum(1 for e in edges if e.target == node_id and e.type is EdgeType.DATA),
        )
        assert graph.degree_profile(node_id) == expected
        assert graph.degree_profiles[node_id] == expected
