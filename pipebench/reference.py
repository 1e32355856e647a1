"""Independent verdict references for the pipeline benchmark.

Every verdict the timed calls produce is re-derived here, outside the timed
region, by code that shares nothing with the engine's deciders:

* :func:`kahn_acyclic` -- Kahn's in-degree peeling over a plain edge list
  (no CDCL, no DFS colouring, no SCC machinery of ``repro.checking``);
* :func:`escape_edge_set` -- the single-edge removals that restore
  acyclicity.  If removing edge ``e`` makes the graph acyclic, ``e`` lies on
  *every* cycle, so it suffices to find one cycle and test its edges.

Graph *construction* (``routing_dependency_graph``) and the explicit (V-1)
coverage enumeration are the engine's own: they are pinned instead by the
committed expected files (edge counts) of the fixed workloads.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

Edge = Tuple[Hashable, Hashable]


def _successors(edges: Iterable[Edge]) -> Dict[Hashable, List[Hashable]]:
    successors: Dict[Hashable, List[Hashable]] = {}
    for source, target in edges:
        successors.setdefault(source, []).append(target)
        successors.setdefault(target, [])
    return successors


def kahn_acyclic(edges: Iterable[Edge]) -> bool:
    """Whether the edge list is acyclic, by in-degree peeling."""
    successors = _successors(edges)
    indegree = {vertex: 0 for vertex in successors}
    for targets in successors.values():
        for target in targets:
            indegree[target] += 1
    ready = [vertex for vertex, degree in indegree.items() if degree == 0]
    peeled = 0
    while ready:
        vertex = ready.pop()
        peeled += 1
        for target in successors[vertex]:
            indegree[target] -= 1
            if indegree[target] == 0:
                ready.append(target)
    return peeled == len(successors)


def find_cycle(edges: Iterable[Edge]) -> Optional[List[Edge]]:
    """The edges of one directed cycle, or ``None`` when acyclic."""
    successors = _successors(edges)
    state: Dict[Hashable, int] = {}          # 1 = on the stack, 2 = done
    for root in successors:
        if root in state:
            continue
        path: List[Hashable] = [root]
        cursors = [iter(successors[root])]
        state[root] = 1
        while cursors:
            vertex = path[-1]
            following = next(cursors[-1], None)
            if following is None:
                state[vertex] = 2
                path.pop()
                cursors.pop()
            elif state.get(following) == 1:
                cycle = path[path.index(following):] + [following]
                return list(zip(cycle, cycle[1:]))
            elif following not in state:
                state[following] = 1
                path.append(following)
                cursors.append(iter(successors[following]))
    return None


def escape_edge_set(edges: Sequence[Edge]) -> Set[Edge]:
    """Every edge whose removal alone makes ``edges`` acyclic."""
    cycle = find_cycle(edges)
    if cycle is None:
        return set()
    return {edge for edge in cycle
            if kahn_acyclic(other for other in edges if other != edge)}


def format_edge(edge: Edge) -> str:
    """The report spelling of an edge (``ScenarioVerdict`` uses the same)."""
    source, target = edge
    return f"{source} -> {target}"


def decide_instance(instance) -> Dict[str, object]:
    """The reference verdict of one instance, as the portfolio reports it.

    Theorem 1 scenarios are free iff the routing-induced dependency graph
    is acyclic.  Escape-channel (VC) scenarios are free iff (V-1) coverage
    holds and the escape-class subgraph is acyclic; their escape-edge set is
    taken over the escape-class edges, like the portfolio's.
    """
    from repro.core.dependency import class_edges, routing_dependency_graph
    from repro.core.obligations import check_v1_escape_coverage
    from repro.routing.escape import EscapeChannelRouting

    relation = instance.routing
    graph = routing_dependency_graph(relation, cache=False)
    if isinstance(relation, EscapeChannelRouting):
        condition = "vc-escape"
        query = class_edges(graph, relation.escape_vcs)
        covered = check_v1_escape_coverage(relation, cache=False).holds
    else:
        condition = "theorem1"
        query = graph.edges()
        covered = True
    acyclic = kahn_acyclic(query)
    free = covered and acyclic
    escapes = set() if free else escape_edge_set(query)
    return {
        "deadlock_free": free,
        "condition": condition,
        "edges": graph.edge_count,
        "escape_edges": sorted(format_edge(edge) for edge in escapes),
        "acyclic": acyclic,
        "query_edges": query,
    }


def verdict_fields(verdict) -> Dict[str, object]:
    """The checked fields of a ``ScenarioVerdict``."""
    return {
        "deadlock_free": verdict.deadlock_free,
        "condition": verdict.condition,
        "edges": verdict.edges,
        "escape_edges": sorted(verdict._format_edge(entry)
                               for entry in verdict.escape_edges),
    }


def mismatches(expected: Dict[str, object],
               actual: Dict[str, object]) -> List[str]:
    """The checked fields on which ``actual`` differs from ``expected``."""
    return [key for key in ("deadlock_free", "condition", "edges",
                            "escape_edges")
            if key in expected and key in actual
            and expected[key] != actual[key]]
