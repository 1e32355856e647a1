"""Directed-graph algorithms used to check dependency-graph acyclicity.

The paper notes (Section VII) that for a fixed-size network "a simple search
for a cycle suffices.  This search can be performed in linear time".  This
module provides that search in three independent flavours -- iterative DFS
with an explicit stack, Tarjan's strongly-connected-components algorithm and
Kahn's topological sort -- plus a cross-check against :mod:`networkx`.
Having several independent implementations of the same decision procedure is
the library's substitute for the redundancy a theorem prover gives for free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    Generic,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

V = TypeVar("V", bound=Hashable)


class DirectedGraph(Generic[V]):
    """A simple adjacency directed graph over hashable vertices.

    Successor collections are insertion-ordered dicts rather than sets:
    iteration order (``edges()``, degrees, exports) then follows the
    deterministic construction order instead of the process's randomized
    hash order.  This is what makes solver statistics -- and therefore the
    portfolio determinism contract -- reproducible across *processes*, not
    just within one (worker pools included, whatever the start method).
    """

    def __init__(self) -> None:
        self._successors: Dict[V, Dict[V, None]] = {}
        self._frozen = False

    # -- construction ------------------------------------------------------------
    def add_vertex(self, vertex: V) -> None:
        if self._frozen:
            raise ValueError("graph is frozen (shared through a cache); "
                             "copy it before mutating")
        self._successors.setdefault(vertex, {})

    def add_edge(self, source: V, target: V) -> None:
        if self._frozen:
            raise ValueError("graph is frozen (shared through a cache); "
                             "copy it before mutating")
        self.add_vertex(source)
        self.add_vertex(target)
        self._successors[source][target] = None

    def freeze(self) -> "DirectedGraph[V]":
        """Make the graph immutable and return it.

        Frozen graphs can be shared safely -- e.g. by the construction
        caches of :mod:`repro.core.cache` -- because any later
        ``add_vertex``/``add_edge`` raises instead of silently corrupting
        every holder of the reference.  Derived graphs (:meth:`subgraph`,
        :meth:`reverse`) are fresh, mutable objects.
        """
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    @classmethod
    def from_edges(cls, edges: Iterable[Tuple[V, V]],
                   vertices: Optional[Iterable[V]] = None) -> "DirectedGraph[V]":
        graph: DirectedGraph[V] = cls()
        if vertices is not None:
            for vertex in vertices:
                graph.add_vertex(vertex)
        for source, target in edges:
            graph.add_edge(source, target)
        return graph

    @classmethod
    def from_successors(cls, successors: Dict[V, Dict[V, None]]
                        ) -> "DirectedGraph[V]":
        """Adopt a complete ``vertex -> {successor: None}`` map as is.

        Every successor must itself be a key; the map is not copied, so the
        caller hands it over.  The bulk counterpart of ``add_edge``.
        """
        graph: DirectedGraph[V] = cls()
        graph._successors = successors
        return graph

    # -- queries --------------------------------------------------------------------
    @property
    def vertices(self) -> List[V]:
        return list(self._successors)

    @property
    def vertex_count(self) -> int:
        return len(self._successors)

    @property
    def edge_count(self) -> int:
        return sum(len(targets) for targets in self._successors.values())

    def successors(self, vertex: V) -> Set[V]:
        return set(self._successors.get(vertex, ()))

    def successors_ordered(self, vertex: V) -> List[V]:
        """Successors in deterministic (insertion) order."""
        return list(self._successors.get(vertex, ()))

    def has_edge(self, source: V, target: V) -> bool:
        return target in self._successors.get(source, ())

    def edges(self) -> List[Tuple[V, V]]:
        return [(source, target)
                for source, targets in self._successors.items()
                for target in targets]

    def out_degree(self, vertex: V) -> int:
        return len(self._successors.get(vertex, ()))

    def in_degrees(self) -> Dict[V, int]:
        degrees: Dict[V, int] = {vertex: 0 for vertex in self._successors}
        for targets in self._successors.values():
            for target in targets:
                degrees[target] += 1
        return degrees

    def subgraph(self, vertices: Iterable[V]) -> "DirectedGraph[V]":
        keep = set(vertices)
        sub: DirectedGraph[V] = DirectedGraph()
        for vertex in self._successors:
            if vertex in keep:
                sub.add_vertex(vertex)
        for source, targets in self._successors.items():
            if source not in keep:
                continue
            for target in targets:
                if target in keep:
                    sub.add_edge(source, target)
        return sub

    def reverse(self) -> "DirectedGraph[V]":
        rev: DirectedGraph[V] = DirectedGraph()
        for vertex in self._successors:
            rev.add_vertex(vertex)
        for source, targets in self._successors.items():
            for target in targets:
                rev.add_edge(target, source)
        return rev

    def to_networkx(self):
        """Export to a :class:`networkx.DiGraph` (used for cross-checking)."""
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(self._successors)
        graph.add_edges_from(self.edges())
        return graph


@dataclass
class CycleSearchResult(Generic[V]):
    """Outcome of a cycle search."""

    acyclic: bool
    cycle: Optional[List[V]] = None
    #: Number of vertices visited (an effort indicator for the benchmarks).
    visited: int = 0

    def __bool__(self) -> bool:  # pragma: no cover - convenience only
        return self.acyclic


# ---------------------------------------------------------------------------
# DFS cycle search
# ---------------------------------------------------------------------------

def find_cycle_dfs(graph: DirectedGraph[V]) -> CycleSearchResult[V]:
    """Find a cycle by iterative depth-first search (white/grey/black).

    Returns the cycle as a vertex list (without repeating the first vertex)
    if one exists.
    """
    WHITE, GREY, BLACK = 0, 1, 2
    colour: Dict[V, int] = {vertex: WHITE for vertex in graph.vertices}
    parent: Dict[V, Optional[V]] = {}
    visited = 0

    for root in graph.vertices:
        if colour[root] != WHITE:
            continue
        stack: List[Tuple[V, Iterable[V]]] = [(root, iter(sorted(
            graph.successors(root), key=repr)))]
        colour[root] = GREY
        parent[root] = None
        visited += 1
        while stack:
            vertex, successors = stack[-1]
            advanced = False
            for successor in successors:
                if colour[successor] == WHITE:
                    colour[successor] = GREY
                    parent[successor] = vertex
                    visited += 1
                    stack.append((successor, iter(sorted(
                        graph.successors(successor), key=repr))))
                    advanced = True
                    break
                if colour[successor] == GREY:
                    cycle = _reconstruct_cycle(parent, vertex, successor)
                    return CycleSearchResult(acyclic=False, cycle=cycle,
                                             visited=visited)
            if not advanced:
                colour[vertex] = BLACK
                stack.pop()
    return CycleSearchResult(acyclic=True, cycle=None, visited=visited)


def _reconstruct_cycle(parent: Mapping[V, Optional[V]], vertex: V,
                       ancestor: V) -> List[V]:
    """Walk the parent chain from ``vertex`` back to ``ancestor``."""
    cycle = [ancestor]
    current: Optional[V] = vertex
    while current is not None and current != ancestor:
        cycle.append(current)
        current = parent.get(current)
    cycle.reverse()
    return cycle


def shortest_cycle(graph: DirectedGraph[V]) -> Optional[List[Tuple[V, V]]]:
    """The edges of one shortest cycle, in cycle order (``None`` if acyclic).

    Every vertex of a cyclic strongly connected component, in vertex order,
    roots a breadth-first search for the shortest way back to itself
    inside its component.  Each search is cut off at the best length found
    so far, and a finished root is left out of later searches (every cycle
    through it is already accounted for), so the witness is deterministic
    and starts at its root.
    """
    successors = graph._successors
    component: Dict[V, int] = {}
    for number, members in enumerate(strongly_connected_components(graph)):
        if len(members) > 1 or graph.has_edge(members[0], members[0]):
            for vertex in members:
                component[vertex] = number
    best: Optional[List[V]] = None
    for root in graph.vertices:
        if root not in component:
            continue
        home = component.pop(root)
        parent: Dict[V, V] = {root: root}
        frontier = [root]
        closing: Optional[V] = None
        depth = 0
        while frontier and closing is None and \
                (best is None or depth + 1 < len(best)):
            following: List[V] = []
            for vertex in frontier:
                for successor in successors[vertex]:
                    if successor == root:
                        closing = vertex
                        break
                    if successor not in parent and \
                            component.get(successor) == home:
                        parent[successor] = vertex
                        following.append(successor)
                if closing is not None:
                    break
            frontier = following
            depth += 1
        if closing is not None:
            path = [closing]
            while path[-1] != root:
                path.append(parent[path[-1]])
            path.reverse()
            best = path
    if best is None:
        return None
    return [(vertex, best[(position + 1) % len(best)])
            for position, vertex in enumerate(best)]


def critical_edges(graph: DirectedGraph[V],
                   cycle: Sequence[Tuple[V, V]]) -> List[Tuple[V, V]]:
    """The edges of ``cycle`` whose removal alone makes ``graph`` acyclic.

    Removing an edge breaks only the cycles through it, so an edge whose
    removal restores acyclicity lies on *every* cycle -- in particular on
    ``cycle``, any one cycle of the graph.  Testing that cycle's edges, one
    depth-first search each, therefore finds all of them; they are returned
    in cycle order.  Every entry must be an edge of ``graph``: a vertex that
    happens to be a pair (a virtual channel) is rejected, not unpacked.
    """
    critical = []
    for edge in cycle:
        if not graph.has_edge(*edge):
            raise ValueError(f"not an edge of the graph: {edge!r}")
        if _acyclic_without(graph, edge):
            critical.append(edge)
    return critical


def _acyclic_without(graph: DirectedGraph[V], removed: Tuple[V, V]) -> bool:
    """Whether ``graph`` minus the edge ``removed`` is acyclic (plain DFS)."""
    successors = graph._successors
    cut_source, cut_target = removed

    def pending(vertex: V) -> Iterable[V]:
        if vertex == cut_source:
            return iter([target for target in successors[vertex]
                         if target != cut_target])
        return iter(successors[vertex])

    on_stack, done = 1, 2
    state: Dict[V, int] = {}
    for root in successors:
        if root in state:
            continue
        state[root] = on_stack
        stack = [(root, pending(root))]
        while stack:
            vertex, targets = stack[-1]
            for target in targets:
                mark = state.get(target)
                if mark is None:
                    state[target] = on_stack
                    stack.append((target, pending(target)))
                    break
                if mark == on_stack:
                    return False
            else:
                state[vertex] = done
                stack.pop()
    return True


def has_cycle(graph: DirectedGraph[V]) -> bool:
    return not find_cycle_dfs(graph).acyclic


def is_acyclic(graph: DirectedGraph[V]) -> bool:
    return find_cycle_dfs(graph).acyclic


# ---------------------------------------------------------------------------
# Tarjan strongly connected components
# ---------------------------------------------------------------------------

def strongly_connected_components(graph: DirectedGraph[V]) -> List[List[V]]:
    """Tarjan's algorithm, implemented iteratively.

    A graph is acyclic iff every SCC is a singleton without a self-loop --
    the check used by the Taktak et al. deadlock-detection tool discussed in
    the paper's related work.
    """
    index_counter = 0
    index: Dict[V, int] = {}
    lowlink: Dict[V, int] = {}
    on_stack: Dict[V, bool] = {}
    stack: List[V] = []
    components: List[List[V]] = []

    for root in graph.vertices:
        if root in index:
            continue
        work: List[Tuple[V, List[V], int]] = [
            (root, sorted(graph.successors(root), key=repr), 0)]
        while work:
            vertex, successors, pointer = work.pop()
            if pointer == 0:
                index[vertex] = index_counter
                lowlink[vertex] = index_counter
                index_counter += 1
                stack.append(vertex)
                on_stack[vertex] = True
            recurse = False
            while pointer < len(successors):
                successor = successors[pointer]
                pointer += 1
                if successor not in index:
                    work.append((vertex, successors, pointer))
                    work.append((successor,
                                 sorted(graph.successors(successor), key=repr),
                                 0))
                    recurse = True
                    break
                if on_stack.get(successor, False):
                    lowlink[vertex] = min(lowlink[vertex], index[successor])
            if recurse:
                continue
            if lowlink[vertex] == index[vertex]:
                component: List[V] = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == vertex:
                        break
                components.append(component)
            if work:
                parent_vertex = work[-1][0]
                lowlink[parent_vertex] = min(lowlink[parent_vertex],
                                             lowlink[vertex])
    return components


def is_acyclic_by_scc(graph: DirectedGraph[V]) -> bool:
    """Acyclicity via SCC decomposition."""
    for component in strongly_connected_components(graph):
        if len(component) > 1:
            return False
        vertex = component[0]
        if graph.has_edge(vertex, vertex):
            return False
    return True


# ---------------------------------------------------------------------------
# Kahn topological sort
# ---------------------------------------------------------------------------

def topological_sort(graph: DirectedGraph[V]) -> Optional[List[V]]:
    """Kahn's algorithm.  Returns ``None`` when the graph has a cycle."""
    in_degree = graph.in_degrees()
    ready = [vertex for vertex, degree in in_degree.items() if degree == 0]
    order: List[V] = []
    while ready:
        vertex = ready.pop()
        order.append(vertex)
        for successor in graph.successors(vertex):
            in_degree[successor] -= 1
            if in_degree[successor] == 0:
                ready.append(successor)
    if len(order) != graph.vertex_count:
        return None
    return order


def is_acyclic_by_toposort(graph: DirectedGraph[V]) -> bool:
    return topological_sort(graph) is not None


def is_acyclic_by_networkx(graph: DirectedGraph[V]) -> bool:
    """Cross-check using networkx (an external, independent implementation)."""
    import networkx as nx

    return nx.is_directed_acyclic_graph(graph.to_networkx())


def longest_path_length(graph: DirectedGraph[V]) -> int:
    """Length (in edges) of the longest path of an *acyclic* graph.

    Used by the flow analysis: the longest dependency chain of the XY
    dependency graph grows linearly with the mesh diameter.
    Raises ``ValueError`` if the graph has a cycle.
    """
    order = topological_sort(graph)
    if order is None:
        raise ValueError("longest_path_length requires an acyclic graph")
    distance: Dict[V, int] = {vertex: 0 for vertex in graph.vertices}
    for vertex in order:
        for successor in graph.successors(vertex):
            distance[successor] = max(distance[successor],
                                      distance[vertex] + 1)
    return max(distance.values()) if distance else 0


def check_rank_certificate(graph: DirectedGraph[V],
                           rank: Mapping[V, Tuple[int, ...]],
                           sinks: Optional[Set[V]] = None) -> List[Tuple[V, V]]:
    """Check a rank certificate for acyclicity.

    A *rank certificate* assigns every vertex a tuple such that every edge
    strictly decreases the rank (edges into declared ``sinks`` are exempt
    because sinks have no outgoing edges and therefore cannot lie on a
    cycle... but note a sink *with* outgoing edges would invalidate the
    exemption, so sinks are also checked to have out-degree 0).  Returns the
    list of violating edges (empty = certificate valid).
    """
    sinks = sinks or set()
    violations: List[Tuple[V, V]] = []
    for sink in sinks:
        if graph.out_degree(sink) > 0:
            violations.append((sink, sink))
    for source, target in graph.edges():
        if target in sinks:
            continue
        if not (rank[target] < rank[source]):
            violations.append((source, target))
    return violations
