"""Process-wide construction caches for the verification engine.

Verifying a portfolio repeats the same expensive constructions many times:
the routing-induced dependency graph of one routing function is enumerated
once for the portfolio verdict, again for the cross-check, again for the
escape analysis and again inside the theorem checkers; the ``a < b``
bit-vector constraint of an edge is rebuilt for every
:class:`~repro.checking.incremental.AcyclicityOracle` that encodes it.
:class:`InstanceCache` memoises those constructions once per key so every
later consumer -- scenarios, theorems, obligations -- reuses the first
result:

* **dependency graphs** (`routing_dependency_graph` /
  `channel_dependency_graph`), keyed by routing-function identity.  Routing
  functions are immutable after construction, so identity keying is exact;
  the values are held through weak references so discarded routings do not
  pin their graphs, and the graphs themselves are *frozen*
  (:meth:`~repro.checking.graphs.DirectedGraph.freeze`) so no consumer can
  corrupt the shared copy.
* **escape-coverage reports** ((V-1) of the VC condition), keyed the same
  way -- the portfolio driver and the VC theorem both need them.
* **routing tables** (:class:`~repro.routing.base.RoutingTable`), keyed
  the same way: the one evaluation of ``next_hops`` per (resource,
  destination) pair that reachability, the dependency graph and (V-1)
  coverage all read.  Unlike the entries above, a table is transient: it
  is dropped as soon as its readers are done -- the full dependency graph
  and, for a VC relation, the (V-1) report -- so a sweep holds at most the
  tables of the scenario in progress, never one per routing.

(The numbering-constraint expression cache of earlier revisions is gone:
the oracles now emit each edge's comparison directly as clauses --
:func:`repro.checking.encodings.encode_numbering_constraint` -- so there
is no expression tree left to share.)

One cache lives per process (:func:`instance_cache`).  Portfolio worker
processes each get their own -- scenario groups are scheduled with group
affinity precisely so that a group's shared constructions stay hot inside
one worker.  :func:`reset_instance_cache` restores a cold cache (used by
benchmarks that measure construction cost honestly).
"""

from __future__ import annotations

import weakref
from typing import Dict, Optional, Tuple


class InstanceCache:
    """Keyed memoisation of the engine's pure constructions.

    The cache only stores *immutable* (or frozen) values, so a hit is
    indistinguishable from a recomputation apart from the time saved; hit
    and miss counters are exported into bench trajectories and the
    portfolio JSON report.
    """

    def __init__(self) -> None:
        # routing-function identity -> frozen DirectedGraph
        self._graphs: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        # routing-relation identity -> (V-1) coverage report
        self._coverage: "weakref.WeakKeyDictionary" = \
            weakref.WeakKeyDictionary()
        # routing-function identity -> (RoutingTable, readers still to come)
        self._tables: "weakref.WeakKeyDictionary" = \
            weakref.WeakKeyDictionary()
        # ScenarioSpec -> NoCInstance (specs are frozen and hashable)
        self._instances: Dict[object, object] = {}
        self.hits = 0
        self.misses = 0

    # -- bookkeeping --------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "graphs": len(self._graphs),
            "coverage_reports": len(self._coverage),
            "tables": len(self._tables),
            "instances": len(self._instances),
        }

    def clear(self) -> None:
        self._graphs.clear()
        self._coverage.clear()
        self._tables.clear()
        self._instances.clear()
        self.hits = 0
        self.misses = 0

    # -- spec-built instances -----------------------------------------------------
    def instance_for(self, spec):
        """The memoised :class:`~repro.core.instance.NoCInstance` of a spec.

        ``spec`` is a :class:`~repro.core.spec.ScenarioSpec` (frozen,
        hashable -- the key *is* the declarative description).  Portfolio
        workers receive cheap specs instead of pickled instances and
        resolve them here, so a scenario group scheduled onto one worker
        constructs each distinct design exactly once per process.

        Unlike the weak-keyed graph/coverage caches, this map holds its
        instances *strongly*: spec-backed scenarios deliberately keep no
        instance reference, so a weak entry would die before its first
        reuse.  Long-lived processes that sweep many large distinct
        designs should call :func:`reset_instance_cache` between sweeps
        (the bench runner does).
        """
        instance = self._instances.get(spec)
        if instance is not None:
            self.hits += 1
            return instance
        self.misses += 1
        instance = spec.build()
        self._instances[spec] = instance
        return instance

    # -- routing tables -----------------------------------------------------------
    def routing_table(self, routing):
        """The live :class:`~repro.routing.base.RoutingTable` of ``routing``.

        Created (empty -- columns fill on demand) on the first request and
        shared until :meth:`table_read` has heard from every reader.  Table
        lookups are not counted as cache hits or misses.
        """
        entry = self._tables.get(routing)
        if entry is not None:
            return entry[0]
        from repro.routing.base import RoutingTable
        from repro.routing.escape import EscapeChannelRouting

        table = RoutingTable(routing)
        readers = {"graph"}
        if isinstance(routing, EscapeChannelRouting):
            readers.add("coverage")
        try:
            self._tables[routing] = (table, readers)
        except TypeError:  # pragma: no cover - non-weakref-able routing
            pass
        return table

    def table_read(self, routing, reader: str) -> None:
        """Note that ``reader`` (``"graph"`` or ``"coverage"``) has read the
        routing's table; the table is dropped once no reader is left."""
        entry = self._tables.get(routing)
        if entry is not None:
            entry[1].discard(reader)
            if not entry[1]:
                del self._tables[routing]

    # -- dependency graphs --------------------------------------------------------
    def dependency_graph(self, routing):
        """The memoised routing-induced dependency graph of ``routing``.

        Computed on first request (from the routing table, via
        :func:`repro.core.dependency.routing_dependency_graph`), frozen, and
        returned for every later request with the same routing object.
        """
        graph = self._graphs.get(routing)
        if graph is not None:
            self.hits += 1
            return graph
        from repro.core.dependency import routing_dependency_graph

        self.misses += 1
        graph = routing_dependency_graph(routing, cache=False).freeze()
        try:
            self._graphs[routing] = graph
        except TypeError:  # pragma: no cover - non-weakref-able routing
            pass
        return graph

    # -- (V-1) coverage -----------------------------------------------------------
    def escape_coverage(self, relation):
        """The memoised (V-1) escape-coverage report of a VC relation."""
        report = self._coverage.get(relation)
        if report is not None:
            self.hits += 1
            return report
        from repro.core.obligations import check_v1_escape_coverage

        self.misses += 1
        report = check_v1_escape_coverage(relation, cache=False)
        try:
            self._coverage[relation] = report
        except TypeError:  # pragma: no cover - non-weakref-able relation
            pass
        return report


_CACHE: Optional[InstanceCache] = None


def instance_cache() -> InstanceCache:
    """The per-process construction cache (created on first use)."""
    global _CACHE
    if _CACHE is None:
        _CACHE = InstanceCache()
    return _CACHE


def reset_instance_cache() -> InstanceCache:
    """Drop every cached construction and return the fresh, cold cache."""
    cache = instance_cache()
    cache.clear()
    return cache
