"""Tests for the graph algorithms of the checking substrate."""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.checking.graphs import (
    DirectedGraph,
    check_rank_certificate,
    critical_edges,
    find_cycle_dfs,
    has_cycle,
    is_acyclic,
    is_acyclic_by_networkx,
    is_acyclic_by_scc,
    is_acyclic_by_toposort,
    longest_path_length,
    shortest_cycle,
    strongly_connected_components,
    topological_sort,
)


def graph_from_edges(edges, vertices=None):
    return DirectedGraph.from_edges(edges, vertices=vertices)


@st.composite
def random_digraph(draw):
    n = draw(st.integers(1, 8))
    possible_edges = [(a, b) for a in range(n) for b in range(n)]
    edges = draw(st.lists(st.sampled_from(possible_edges), max_size=20))
    return DirectedGraph.from_edges(edges, vertices=range(n))


class TestDirectedGraph:
    def test_add_edge_adds_vertices(self):
        graph = DirectedGraph()
        graph.add_edge("a", "b")
        assert set(graph.vertices) == {"a", "b"}
        assert graph.has_edge("a", "b")
        assert not graph.has_edge("b", "a")

    def test_counts(self):
        graph = graph_from_edges([(1, 2), (2, 3), (1, 3)])
        assert graph.vertex_count == 3
        assert graph.edge_count == 3
        assert graph.out_degree(1) == 2
        assert graph.in_degrees()[3] == 2

    def test_isolated_vertices(self):
        graph = graph_from_edges([], vertices=[1, 2, 3])
        assert graph.vertex_count == 3
        assert graph.edge_count == 0

    def test_subgraph(self):
        graph = graph_from_edges([(1, 2), (2, 3), (3, 1)])
        sub = graph.subgraph([1, 2])
        assert sub.has_edge(1, 2)
        assert not sub.has_edge(2, 3)
        assert sub.vertex_count == 2

    def test_subgraph_keeps_the_insertion_order(self):
        graph = graph_from_edges([("d", "c"), ("c", "b"), ("b", "a"),
                                  ("a", "d")])
        sub = graph.subgraph({"a", "b", "c"})
        assert sub.vertices == ["c", "b", "a"]
        assert sub.edges() == [("c", "b"), ("b", "a")]

    def test_subgraph_order_does_not_depend_on_the_hash_seed(self):
        """The V-2 counterexample (a DFS over a class subgraph) used to
        change with ``PYTHONHASHSEED`` on the shared 1-VC mesh."""
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        script = (
            "from repro.core.spec import expand_matrix\n"
            "from repro.core.obligations import check_v2_escape_acyclicity\n"
            "spec, = expand_matrix('vc-mesh:3x3, vcs=[1]')\n"
            "result = check_v2_escape_acyclicity(spec.build().routing)\n"
            "assert not result.holds\n"
            "print(result.counterexamples)\n")
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONPATH=os.path.join(repo, "src"),
                       PYTHONHASHSEED=seed)
            result = subprocess.run([sys.executable, "-c", script], env=env,
                                    capture_output=True, text=True,
                                    timeout=120)
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]

    def test_from_successors_adopts_the_map(self):
        successors = {1: {2: None}, 2: {}}
        graph = DirectedGraph.from_successors(successors)
        assert graph.edges() == [(1, 2)]
        assert graph.vertices == [1, 2]

    def test_reverse(self):
        graph = graph_from_edges([(1, 2)])
        reversed_graph = graph.reverse()
        assert reversed_graph.has_edge(2, 1)
        assert not reversed_graph.has_edge(1, 2)

    def test_to_networkx(self):
        graph = graph_from_edges([(1, 2), (2, 3)])
        nx_graph = graph.to_networkx()
        assert nx_graph.number_of_nodes() == 3
        assert nx_graph.number_of_edges() == 2


class TestCycleSearch:
    def test_empty_graph_is_acyclic(self):
        assert is_acyclic(DirectedGraph())

    def test_dag_is_acyclic(self):
        graph = graph_from_edges([(1, 2), (2, 3), (1, 3)])
        result = find_cycle_dfs(graph)
        assert result.acyclic
        assert result.cycle is None
        assert result.visited == 3

    def test_triangle_cycle_found(self):
        graph = graph_from_edges([(1, 2), (2, 3), (3, 1)])
        result = find_cycle_dfs(graph)
        assert not result.acyclic
        assert sorted(result.cycle) == [1, 2, 3]

    def test_self_loop_is_a_cycle(self):
        graph = graph_from_edges([(1, 1)])
        assert has_cycle(graph)
        assert find_cycle_dfs(graph).cycle == [1]

    def test_cycle_vertices_form_a_real_cycle(self):
        graph = graph_from_edges([(1, 2), (2, 3), (3, 4), (4, 2), (4, 5)])
        cycle = find_cycle_dfs(graph).cycle
        assert cycle is not None
        for index, vertex in enumerate(cycle):
            assert graph.has_edge(vertex, cycle[(index + 1) % len(cycle)])

    def test_disconnected_components(self):
        graph = graph_from_edges([(1, 2), (3, 4), (4, 3)])
        assert has_cycle(graph)

    @given(random_digraph())
    @settings(max_examples=100, deadline=None)
    def test_all_methods_agree(self, graph):
        dfs = find_cycle_dfs(graph).acyclic
        assert dfs == is_acyclic_by_scc(graph)
        assert dfs == is_acyclic_by_toposort(graph)
        assert dfs == is_acyclic_by_networkx(graph)

    @given(random_digraph())
    @settings(max_examples=100, deadline=None)
    def test_reported_cycle_is_valid(self, graph):
        result = find_cycle_dfs(graph)
        if result.cycle is not None:
            cycle = result.cycle
            for index, vertex in enumerate(cycle):
                assert graph.has_edge(vertex, cycle[(index + 1) % len(cycle)])


class TestFailureAnalysis:
    """One shortest cycle and its critical edges, against brute force."""

    def test_shortest_cycle_of_acyclic_graph_is_none(self):
        assert shortest_cycle(graph_from_edges([(1, 2), (2, 3)])) is None

    def test_self_loop_is_the_shortest_cycle(self):
        graph = graph_from_edges([(1, 2), (2, 3), (3, 1), (3, 3)])
        assert shortest_cycle(graph) == [(3, 3)]

    def test_shortest_cycle_skips_a_longer_first_cycle(self):
        graph = graph_from_edges([(1, 2), (2, 3), (3, 4), (4, 1),
                                  (5, 6), (6, 5)])
        assert shortest_cycle(graph) == [(5, 6), (6, 5)]

    def test_critical_edges_follow_the_cycle(self):
        # Two cycles share the edge 1 -> 2; only that edge is on both.
        graph = graph_from_edges([(1, 2), (2, 3), (3, 1), (2, 4), (4, 1)])
        cycle = shortest_cycle(graph)
        assert cycle == [(1, 2), (2, 3), (3, 1)]
        assert critical_edges(graph, cycle) == [(1, 2)]

    @given(random_digraph())
    @settings(max_examples=150, deadline=None)
    def test_shortest_cycle_length_matches_brute_force(self, graph):
        import networkx as nx

        lengths = [len(cycle)
                   for cycle in nx.simple_cycles(graph.to_networkx())]
        cycle = shortest_cycle(graph)
        if not lengths:
            assert cycle is None
            return
        assert len(cycle) == min(lengths)
        for position, (source, target) in enumerate(cycle):
            assert graph.has_edge(source, target)
            assert cycle[(position + 1) % len(cycle)][0] == target

    @given(random_digraph())
    @settings(max_examples=150, deadline=None)
    def test_critical_edges_match_removing_each_edge(self, graph):
        cycle = shortest_cycle(graph)
        if cycle is None:
            return  # nothing to break
        expected = {edge for edge in graph.edges()
                    if is_acyclic_by_toposort(graph_from_edges(
                        [other for other in graph.edges() if other != edge],
                        vertices=graph.vertices))}
        assert set(critical_edges(graph, cycle)) == expected


class TestSCC:
    def test_scc_of_dag_are_singletons(self):
        graph = graph_from_edges([(1, 2), (2, 3)])
        components = strongly_connected_components(graph)
        assert sorted(len(c) for c in components) == [1, 1, 1]

    def test_scc_finds_the_cycle_component(self):
        graph = graph_from_edges([(1, 2), (2, 3), (3, 1), (3, 4)])
        components = strongly_connected_components(graph)
        sizes = sorted(len(c) for c in components)
        assert sizes == [1, 3]

    def test_scc_partition_covers_all_vertices(self):
        graph = graph_from_edges([(1, 2), (2, 1), (3, 4), (4, 5), (5, 3)])
        components = strongly_connected_components(graph)
        union = sorted(v for component in components for v in component)
        assert union == [1, 2, 3, 4, 5]

    @given(random_digraph())
    @settings(max_examples=100, deadline=None)
    def test_scc_is_a_partition(self, graph):
        components = strongly_connected_components(graph)
        flattened = [v for component in components for v in component]
        assert sorted(flattened) == sorted(graph.vertices)
        assert len(flattened) == len(set(flattened))


class TestTopologicalSort:
    def test_order_respects_edges(self):
        graph = graph_from_edges([(1, 2), (1, 3), (3, 4), (2, 4)])
        order = topological_sort(graph)
        position = {vertex: index for index, vertex in enumerate(order)}
        for source, target in graph.edges():
            assert position[source] < position[target]

    def test_cyclic_graph_has_no_order(self):
        graph = graph_from_edges([(1, 2), (2, 1)])
        assert topological_sort(graph) is None

    def test_longest_path(self):
        graph = graph_from_edges([(1, 2), (2, 3), (3, 4), (1, 4)])
        assert longest_path_length(graph) == 3

    def test_longest_path_rejects_cycles(self):
        graph = graph_from_edges([(1, 2), (2, 1)])
        with pytest.raises(ValueError):
            longest_path_length(graph)

    def test_longest_path_of_empty_graph(self):
        assert longest_path_length(DirectedGraph()) == 0


class TestRankCertificate:
    def test_valid_certificate(self):
        graph = graph_from_edges([(1, 2), (2, 3)])
        rank = {1: (2,), 2: (1,), 3: (0,)}
        assert check_rank_certificate(graph, rank) == []

    def test_violating_edge_reported(self):
        graph = graph_from_edges([(1, 2)])
        rank = {1: (0,), 2: (1,)}
        assert check_rank_certificate(graph, rank) == [(1, 2)]

    def test_sink_exemption(self):
        graph = graph_from_edges([(1, 2)])
        rank = {1: (0,), 2: (5,)}
        assert check_rank_certificate(graph, rank, sinks={2}) == []

    def test_sink_with_outgoing_edges_is_a_violation(self):
        graph = graph_from_edges([(2, 1)])
        rank = {1: (0,), 2: (5,)}
        violations = check_rank_certificate(graph, rank, sinks={2})
        assert (2, 2) in violations
