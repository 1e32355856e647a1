"""Tests for dependency graphs (generic core machinery)."""

from collections import Counter

import pytest

from repro.checking.graphs import DirectedGraph
from repro.core.cache import instance_cache, reset_instance_cache
from repro.core.dependency import (
    ExplicitDependencySpec,
    check_acyclicity,
    graph_statistics,
    routing_dependency_graph,
)
from repro.core.errors import SpecificationError
from repro.core.obligations import check_v1_escape_coverage
from repro.core.spec import expand_matrix
from repro.hermes.dependency import ExyDependencySpec
from repro.network.mesh import Mesh2D
from repro.network.port import Direction, Port, PortName
from repro.network.torus import Torus2D
from repro.network.vc import VCTopology, VirtualChannel, port_of
from repro.routing.adaptive import FullyAdaptiveMinimalRouting
from repro.routing.base import occurring_pairs
from repro.routing.escape import EscapeChannelRouting, mesh_escape_routing
from repro.routing.torus import TorusAdaptiveMinimalRouting, TorusXYRouting
from repro.routing.turn_model import WestFirstRouting
from repro.routing.xy import XYRouting


@pytest.fixture
def mesh():
    return Mesh2D(2, 2)


class TestRoutingInducedGraph:
    def test_vertices_cover_all_ports(self, mesh):
        graph = routing_dependency_graph(XYRouting(mesh))
        assert graph.vertex_count == mesh.port_count

    def test_local_out_ports_are_sinks(self, mesh):
        graph = routing_dependency_graph(XYRouting(mesh))
        for port in mesh.local_out_ports():
            assert graph.out_degree(port) == 0

    def test_every_edge_is_a_next_hop_for_some_destination(self, mesh):
        routing = XYRouting(mesh)
        graph = routing_dependency_graph(routing)
        for source, target in graph.edges():
            found = False
            for destination in routing.destinations():
                if source == destination:
                    continue
                if not routing.reachable(source, destination):
                    continue
                if target in routing.next_hops(source, destination):
                    found = True
                    break
            assert found

    def test_xy_induced_graph_is_acyclic(self, mesh):
        graph = routing_dependency_graph(XYRouting(mesh))
        assert check_acyclicity(graph).acyclic

    def test_adaptive_induced_graph_is_cyclic(self, mesh):
        graph = routing_dependency_graph(FullyAdaptiveMinimalRouting(mesh))
        report = check_acyclicity(graph)
        assert not report.acyclic
        assert report.cycle

    def test_explicit_destinations_parameter(self, mesh):
        routing = XYRouting(mesh)
        only = [mesh.node_at(0, 0).local_out]
        graph = routing_dependency_graph(routing, destinations=only)
        full = routing_dependency_graph(routing)
        assert graph.edge_count < full.edge_count


class TestDependencySpecs:
    def test_explicit_spec_roundtrip(self, mesh):
        a = Port(0, 0, PortName.LOCAL, Direction.IN)
        b = Port(0, 0, PortName.EAST, Direction.OUT)
        spec = ExplicitDependencySpec(mesh, {a: {b}})
        assert spec.has_edge(a, b)
        assert not spec.has_edge(b, a)
        assert (a, b) in spec.edges()
        assert spec.to_graph().has_edge(a, b)

    def test_explicit_spec_rejects_foreign_ports(self, mesh):
        a = Port(0, 0, PortName.LOCAL, Direction.IN)
        bogus = Port(7, 7, PortName.EAST, Direction.OUT)
        spec = ExplicitDependencySpec(mesh, {a: {bogus}})
        with pytest.raises(SpecificationError):
            spec.validate()

    def test_exy_spec_is_a_dependency_spec(self, mesh):
        spec = ExyDependencySpec(mesh)
        spec.validate()
        assert spec.topology is mesh

    def test_spec_ports_match_topology(self, mesh):
        spec = ExyDependencySpec(mesh)
        assert set(spec.ports()) == set(mesh.ports)


class TestAcyclicityReport:
    def test_methods_agree_on_acyclic_graph(self, mesh):
        graph = ExyDependencySpec(mesh).to_graph()
        report = check_acyclicity(graph, methods=("dfs", "scc", "toposort",
                                                  "networkx"))
        assert report.acyclic
        assert report.consistent
        assert report.cycle is None

    def test_methods_agree_on_cyclic_graph(self, mesh):
        graph = routing_dependency_graph(FullyAdaptiveMinimalRouting(mesh))
        report = check_acyclicity(graph, methods=("dfs", "scc", "toposort",
                                                  "networkx"))
        assert not report.acyclic
        assert report.consistent

    def test_sat_method(self, mesh):
        graph = ExyDependencySpec(mesh).to_graph()
        report = check_acyclicity(graph, methods=("dfs", "sat"))
        assert report.acyclic

    def test_unknown_method_rejected(self, mesh):
        graph = ExyDependencySpec(mesh).to_graph()
        with pytest.raises(ValueError):
            check_acyclicity(graph, methods=("magic",))

    def test_report_without_checks_raises(self, mesh):
        graph = ExyDependencySpec(mesh).to_graph()
        report = check_acyclicity(graph, methods=())
        with pytest.raises(ValueError):
            _ = report.acyclic


class TestGraphStatistics:
    def test_fig3_statistics_for_2x2(self, mesh):
        """The structure of the paper's Fig. 3 (2x2 mesh dependency graph)."""
        stats = graph_statistics(ExyDependencySpec(mesh).to_graph())
        # 4 nodes x (2 cardinal + 1 local) x 2 directions = 24 ports.
        assert stats["vertices"] == 24
        # 4 local in-ports are pure sources, 4 local out-ports pure sinks.
        assert stats["sources"] == 4
        assert stats["sinks"] == 4
        assert stats["edges"] > 0

    def test_statistics_scale_with_mesh_size(self):
        small = graph_statistics(ExyDependencySpec(Mesh2D(2, 2)).to_graph())
        large = graph_statistics(ExyDependencySpec(Mesh2D(4, 4)).to_graph())
        assert large["vertices"] > small["vertices"]
        assert large["edges"] > small["edges"]


# ---------------------------------------------------------------------------
# The routing table against the plain enumeration it replaced
# ---------------------------------------------------------------------------
# The reference functions below are the per-consumer enumerations the
# routing table replaced: an occurring-pairs exploration behind
# ``reachable``, a port x destination scan for the graph and another for
# (V-1).  They call the routing directly and never touch a table.

def reference_occurring_pairs(routing):
    pairs = set()
    for destination in routing.destinations():
        frontier = list(routing.topology.local_in_ports())
        seen = set()
        while frontier:
            port = frontier.pop()
            if port in seen:
                continue
            seen.add(port)
            pairs.add((port, destination))
            if port == destination:
                continue
            for successor in routing.next_hops(port, destination):
                if successor not in seen:
                    frontier.append(successor)
    return frozenset(pairs)


def reference_routing(factory):
    """A fresh routing whose ``reachable`` reads reference pairs."""
    routing = factory()
    if routing.explored_reachability is not None:
        pairs = reference_occurring_pairs(routing)
        routing.explored_reachability = \
            lambda source, destination: (source == destination
                                         or (source, destination) in pairs)
    return routing


def reference_graph(routing, destinations=None):
    if destinations is None:
        destinations = routing.destinations()
    graph = DirectedGraph()
    for port in routing.topology.ports:
        graph.add_vertex(port)
    for port in routing.topology.ports:
        for destination in destinations:
            if port == destination:
                continue
            if not routing.reachable(port, destination):
                continue
            for successor in routing.next_hops(port, destination):
                graph.add_edge(port, successor)
    return graph


def reference_v1(relation, max_counterexamples=10):
    separated = relation.classes_separated
    checks = 0
    counterexamples = []
    for channel in relation.topology.ports:
        port = port_of(channel)
        if not port.is_input:
            continue
        escape_channel = relation.is_escape_resource(channel)
        for destination in relation.destinations():
            if channel == destination:
                continue
            if port.node == port_of(destination).node:
                continue
            if not relation.reachable(channel, destination):
                continue
            checks += 1
            hops = relation.next_hops(channel, destination)
            escapes = [hop for hop in hops
                       if relation.is_escape_resource(hop)]
            if not escapes:
                if len(counterexamples) < max_counterexamples:
                    counterexamples.append(
                        f"{channel} has no escape-class hop towards "
                        f"{destination}")
            elif (separated and escape_channel and not port.is_local
                    and len(escapes) != len(hops)):
                if len(counterexamples) < max_counterexamples:
                    counterexamples.append(
                        f"escape channel {channel} may leave the escape "
                        f"class towards {destination}")
    return not counterexamples, checks, counterexamples


class LeakyEscapeRouting(EscapeChannelRouting):
    """Breaks (V-1) both ways: no escape hop at the centre node, and escape
    channels of node (0, 1) may also take an adaptive channel."""

    def _route_from_in_channel(self, current, destination):
        hops = super()._route_from_in_channel(current, destination)
        node = port_of(current).node
        if node == (1, 1):
            return [hop for hop in hops
                    if not self.is_escape_resource(hop)] or hops
        if node == (0, 1) and self.is_escape_resource(current):
            return hops + [VirtualChannel(port_of(hops[-1]),
                                          self.adaptive_vcs[0])]
        return hops


def _leaky():
    mesh = Mesh2D(3, 3)
    return LeakyEscapeRouting(VCTopology(mesh, 2), XYRouting(mesh),
                              FullyAdaptiveMinimalRouting(mesh))


def _spec_factories(matrix):
    return {spec.scenario_name(): (lambda spec=spec: spec.build().routing)
            for spec in expand_matrix(matrix)}


MESH_ROUTINGS = ("xy,yx,west-first,north-last,negative-first,odd-even,"
                 "adaptive,zigzag")

TABLE_CASES = {}
for _matrix in (f"mesh:3x3, routing=[{MESH_ROUTINGS}]",
                f"mesh:4x4, routing=[{MESH_ROUTINGS}]",
                "ring:6, routing=[chain,clockwise]",
                "ring:8, routing=[chain,clockwise]",
                f"mesh:3x3, routing=[{MESH_ROUTINGS}], faults=1, seed=0..2",
                "ring:6, routing=[chain,clockwise], faults=1, seed=0..2",
                "vc-mesh:3x3, vcs=[2], faults=1, seed=0..2",
                "vc-mesh:3x3, vcs=[1,2,4]",
                "vc-mesh:4x4, vcs=[1,2,4]",
                "vc-torus:3x3, vcs=[1,2]"):
    TABLE_CASES.update(_spec_factories(_matrix))
TABLE_CASES.update({
    "torus-3x3/xy": lambda: TorusXYRouting(Torus2D(3, 3)),
    "torus-4x4/xy": lambda: TorusXYRouting(Torus2D(4, 4)),
    "torus-3x3/adaptive": lambda: TorusAdaptiveMinimalRouting(Torus2D(3, 3)),
    "vc-mesh-3x3/leaky": _leaky,
})


class TestRoutingTableEquivalence:
    @pytest.mark.parametrize("case", sorted(TABLE_CASES))
    def test_table_reads_match_the_plain_enumeration(self, case):
        factory = TABLE_CASES[case]
        reference = reference_routing(factory)
        routing = factory()
        expected = reference_graph(reference)
        graph = routing_dependency_graph(routing, cache=False)
        assert graph.vertices == expected.vertices
        assert graph.edges() == expected.edges()
        assert occurring_pairs(routing) == \
            reference_occurring_pairs(reference)
        subset = routing.destinations()[::3]
        assert routing_dependency_graph(routing, destinations=subset
                                        ).edges() == \
            reference_graph(reference, subset).edges()
        if isinstance(routing, EscapeChannelRouting):
            report = check_v1_escape_coverage(routing, cache=False)
            assert (report.holds, report.checks, report.counterexamples) \
                == reference_v1(reference)

    def test_the_leaky_relation_reports_both_violations(self):
        report = check_v1_escape_coverage(_leaky(), cache=False,
                                          max_counterexamples=100)
        assert not report.holds
        assert any("has no escape-class hop" in text
                   for text in report.counterexamples)
        assert any(text.startswith("escape channel <0,1,")
                   for text in report.counterexamples)


class TestOneEvaluationPerPair:
    """Reachability, the graph and (V-1) share one evaluation per pair."""

    @staticmethod
    def _counting(routing):
        calls = Counter()
        next_hops = routing.next_hops

        def counted(current, destination):
            calls[(current, destination)] += 1
            return next_hops(current, destination)

        routing.next_hops = counted
        return calls

    @pytest.mark.parametrize("build", [
        lambda: mesh_escape_routing(Mesh2D(3, 3), num_vcs=2),
        lambda: WestFirstRouting(Mesh2D(3, 3)),
    ], ids=["vc-mesh-3x3-2vc", "west-first-3x3"])
    def test_each_pair_is_evaluated_at_most_once(self, build):
        reset_instance_cache()
        routing = build()
        calls = self._counting(routing)
        ports, destinations = routing.topology.ports, routing.destinations()
        reachable = {(port, destination) for port in ports
                     for destination in destinations
                     if routing.reachable(port, destination)}
        graph = routing_dependency_graph(routing)
        if isinstance(routing, EscapeChannelRouting):
            assert check_v1_escape_coverage(routing).checks > 0
        assert instance_cache().stats()["tables"] == 0  # dropped after use
        assert routing.reachable(ports[0], destinations[-1]) == \
            ((ports[0], destinations[-1]) in reachable)
        assert calls and max(calls.values()) == 1
        assert graph.edge_count > 0
        assert set(calls) == {(port, destination)
                              for port, destination in reachable
                              if port != destination}
