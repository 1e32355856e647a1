"""The CDCL cross-checks encode and solve only what they check.

A VC check's session holds the escape-class edges alone, the (V-2) cycle
core is computed once, and the escape fixes of a failing check come from
one shortest cycle of the query graph instead of one solve per core edge.
The test-only references below are the previous design -- a session over
the whole edge universe and the per-core-edge solver loop -- and the
narrowed checks must reproduce their verdicts and escape-fix sets.
"""

import pytest

from repro.checking.graphs import DirectedGraph
from repro.core import portfolio as portfolio_module
from repro.core.deadlock import DeadlockQuerySession
from repro.core.dependency import (
    channel_dependency_graph,
    class_edges,
    routing_dependency_graph,
)
from repro.core.obligations import check_v1_escape_coverage
from repro.core.portfolio import run_portfolio, scenarios_from_specs
from repro.core.spec import expand_matrix
from repro.core.theorems import (
    check_deadlock_freedom_incremental,
    check_deadlock_freedom_vc_incremental,
)
from repro.ringnoc import build_clockwise_ring_instance


def _per_core_edge_fixes(session, edges):
    """The single-edge removals that break every cycle, one solve each."""
    core = session.cycle_core_for(edges) or []
    edge_set = set(edges)
    return {f"{s} -> {t}" for s, t in core
            if session.is_deadlock_free_edges(edge_set - {(s, t)})}


def reference_vc(relation):
    """``(holds, fixes)`` from a session over the whole channel universe."""
    graph = channel_dependency_graph(relation)
    session = DeadlockQuerySession(graph)
    edges = class_edges(graph, relation.escape_vcs)
    acyclic = session.is_deadlock_free_edges(edges)
    fixes = set() if acyclic else _per_core_edge_fixes(session, edges)
    return check_v1_escape_coverage(relation).holds and acyclic, fixes


def reference_theorem1(instance):
    """``(holds, fixes)`` of Theorem 1 with the per-core-edge loop."""
    session = DeadlockQuerySession.for_instance(instance)
    edges = session.edges
    holds = session.is_deadlock_free_edges(edges)
    return holds, set() if holds else _per_core_edge_fixes(session, edges)


def _relations(matrix):
    return {spec.scenario_name(): spec for spec in expand_matrix(matrix)}


VC_CASES = {}
for _matrix in ("vc-mesh:3x3, vcs=[1,2,4]",
                "vc-mesh:4x4, vcs=[1,2,4]",
                "vc-torus:3x3, vcs=[1,2]",
                "vc-torus:4x3, vcs=[1,2]",
                "vc-ring:4, vcs=[1,2]",
                "vc-ring:6, vcs=[1,2]",
                "vc-mesh:3x3, vcs=[1,2], faults=1, seed=0..2"):
    VC_CASES.update(_relations(_matrix))

THEOREM1_CASES = {
    "ring-4/clockwise": lambda: build_clockwise_ring_instance(4),
    **{name: spec.build for name, spec in
       _relations("mesh:3x3, routing=[zigzag,adaptive]").items()},
}


class TestEquivalenceWithTheWholeUniverseSession:
    @pytest.mark.parametrize("case", sorted(VC_CASES))
    def test_vc_check_matches_the_reference(self, case):
        relation = VC_CASES[case].build().routing
        holds, fixes = reference_vc(relation)
        result = check_deadlock_freedom_vc_incremental(relation)
        assert result.holds == holds
        assert set(result.details.get("escape_edges_fixes", [])) == fixes

    def test_the_vc_cases_cover_both_verdicts_and_fixes(self):
        verdicts = [reference_vc(spec.build().routing)
                    for spec in VC_CASES.values()]
        assert any(holds for holds, _ in verdicts)
        assert any(fixes for _, fixes in verdicts)
        assert any(not holds and not fixes for holds, fixes in verdicts)

    @pytest.mark.parametrize("case", sorted(THEOREM1_CASES))
    def test_theorem1_matches_the_reference(self, case):
        instance = THEOREM1_CASES[case]()
        holds, fixes = reference_theorem1(instance)
        assert not holds
        result = check_deadlock_freedom_incremental(instance)
        assert result.holds == holds
        assert set(result.details["escape_edges"]) == fixes

    @pytest.mark.parametrize("case", sorted(THEOREM1_CASES))
    def test_theorem1_on_a_shared_session(self, case):
        instance = THEOREM1_CASES[case]()
        _, fixes = reference_theorem1(instance)
        graph = routing_dependency_graph(instance.routing)
        shared = DeadlockQuerySession(
            DirectedGraph.from_edges([], vertices=graph.vertices))
        result = check_deadlock_freedom_incremental(instance,
                                                    session=shared)
        assert not result.holds
        assert set(result.details["escape_edges"]) == fixes
        assert set(shared.edges) == set(graph.edges())


class TestWorkBound:
    @pytest.mark.parametrize("vcs", [1, 2])
    def test_fresh_vc_session_holds_the_escape_class_only(self, vcs):
        spec = expand_matrix(f"vc-mesh:3x3, vcs=[{vcs}]")[0]
        relation = spec.build().routing
        graph = channel_dependency_graph(relation)
        result = check_deadlock_freedom_vc_incremental(relation)
        session = result.obligations[1].details["session"]
        escape = class_edges(graph, relation.escape_vcs)
        assert session.edge_count == len(escape)
        assert set(session.edges) == set(escape)
        if vcs > 1:
            assert session.edge_count < graph.edge_count

    def test_prone_fresh_check_asks_at_most_three_queries(self):
        spec = expand_matrix("vc-mesh:3x3, vcs=[1]")[0]
        relation = spec.build().routing
        result = check_deadlock_freedom_vc_incremental(relation)
        assert not result.holds
        # More core edges than queries: the escape fixes cost no solve.
        assert result.details["cycle_core_edges"] > 3
        # Decide, one cycle core, the class-restriction self-check.
        assert result.details["incremental_queries"] <= 3
        session = result.obligations[1].details["session"]
        assert session.queries <= 3
        assert session.solver_stats["solves"] <= 3

    def test_vc_group_session_holds_the_union_of_escape_classes(
            self, monkeypatch):
        sessions = []

        class RecordingSession(DeadlockQuerySession):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                sessions.append(self)

        monkeypatch.setattr(portfolio_module, "DeadlockQuerySession",
                            RecordingSession)
        specs = expand_matrix("vc-mesh:3x3, vcs=[1,2,4]")
        report = run_portfolio(scenarios_from_specs(specs),
                               cross_check=True)
        assert [v.deadlock_free for v in report.verdicts] == \
            [False, True, True]
        assert len(sessions) == 1
        expected = set()
        for spec in specs:
            relation = spec.build().routing
            expected.update(class_edges(channel_dependency_graph(relation),
                                        relation.escape_vcs))
        assert set(sessions[0].edges) == expected
        # The reported new edges still count every dependency edge.
        assert report.verdicts[0].new_edges == \
            channel_dependency_graph(specs[0].build().routing).edge_count
