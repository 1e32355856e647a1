"""Span recorder for the traced benchmark run.

:func:`install` wraps the public entry points of every pipeline layer
(spec, dependency + cache, obligations, deadlock, graphs/theorems, fuzz,
simulation, store) so that each call records a span ``(name, start, end,
parent, scenario)``.  Spans stay in memory; :meth:`SpanRecorder.write`
dumps them as JSON lines at the end.  Nothing under ``src/`` changes: the
wrappers replace module and class attributes, and the ``restore`` method
of the object :func:`install` returns puts the originals back.

A span's *self time* is its duration minus the durations of its direct
children, so the self times of all spans under a root add up to the
root's duration.  Time inside the root that no layer span covers is the
root's own self time, reported as ``other``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Name of the span around a whole traced set-up or timed call.
ROOT = "root"


class SpanRecorder:
    """In-memory span stack plus the per-layer counters of one traced run."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index, scenario_token]``
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: The scenario the next spans belong to (a ``Scenario`` or a
        #: ``ScenarioSpec``; stringified only when written).
        self.scenario: object = None
        #: Set to the current scenario once a cycle-core query ran for it:
        #: later acyclicity queries of that scenario are escape analysis.
        self.analysing: object = None
        #: ``id(routing)`` -> the scenario that resolved it.
        self.routing_owner: Dict[int, object] = {}
        self.sessions: list = []
        self.counts: Dict[str, float] = {}

    # -- recording ----------------------------------------------------------
    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           self.scenario])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def enter_scenario(self, token: object) -> None:
        self.scenario = token
        self.analysing = None

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open."""
        return any(self.spans[index][0] == name for index in self._stack)

    # -- analysis -----------------------------------------------------------
    def subtree(self, root: int) -> List[int]:
        """Indices of span ``root`` and of every span nested in it."""
        inside = {root}
        for index in range(root + 1, len(self.spans)):
            if self.spans[index][3] in inside:
                inside.add(index)
        return sorted(inside)

    def self_times(self, root: int) -> Dict[str, float]:
        """Self seconds per span name over the subtree of span ``root``."""
        tree = self.subtree(root)
        children: Dict[int, float] = {}
        for index in tree[1:]:
            _, start, end, parent, _ = self.spans[index]
            children[parent] = children.get(parent, 0.0) + end - start
        totals: Dict[str, float] = {}
        for index in tree:
            name, start, end, _, _ = self.spans[index]
            totals[name] = (totals.get(name, 0.0) + end - start
                            - children.get(index, 0.0))
        return totals

    def write(self, path: str, workload: str, seed: int) -> None:
        """Write every span as one JSON line (scenario ids stringified)."""
        names: Dict[int, Optional[str]] = {}

        def scenario_id(token) -> Optional[str]:
            if token is None:
                return None
            key = id(token)
            if key not in names:
                name = getattr(token, "name", None)
                if name is None:
                    name = token.scenario_name()
                names[key] = name
            return names[key]

        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, token) in \
                    enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "scenario": scenario_id(token),
                    "workload": workload, "seed": seed}) + "\n")


def _span(recorder: SpanRecorder, name: str, original: Callable,
          before: Optional[Callable] = None,
          after: Optional[Callable] = None) -> Callable:
    """``original`` wrapped in a span; ``before``/``after`` see the call.

    ``before(args, kwargs)`` may return a replacement span name.
    """

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        span_name = name
        if before is not None:
            span_name = before(args, kwargs) or name
        index = recorder.open(span_name)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.close(index)
        if after is not None:
            after(span_name, args, kwargs, result)
        return result

    return wrapper


class Patches:
    """The attributes :func:`install` replaced, with their originals."""

    def __init__(self) -> None:
        self.undo: List[Tuple[object, str, object]] = []

    def set(self, owner, attribute: str, value) -> None:
        self.undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def function(self, module, attribute: str, wrapper) -> None:
        """Replace a module function everywhere it was imported by name."""
        original = getattr(module, attribute)
        for name, loaded in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and \
                    loaded is not None and \
                    loaded.__dict__.get(attribute) is original:
                self.set(loaded, attribute, wrapper)

    def restore(self) -> None:
        for owner, attribute, original in reversed(self.undo):
            setattr(owner, attribute, original)
        self.undo.clear()


def install(recorder: SpanRecorder) -> Patches:
    """Wrap every layer entry point so that calls land in ``recorder``."""
    import repro.checking.graphs as graphs
    import repro.core.cache as cache
    import repro.core.deadlock as deadlock
    import repro.core.dependency as dependency
    import repro.core.fuzz as fuzz
    import repro.core.obligations as obligations
    import repro.core.portfolio as portfolio
    import repro.core.spec as spec
    import repro.core.store as store
    import repro.core.theorems as theorems
    import repro.simulation.simulator as simulator

    patches = Patches()
    rec = recorder

    def function(module, attribute, name, before=None, after=None):
        patches.function(module, attribute, _span(
            rec, name, getattr(module, attribute), before, after))

    def method(owner, attribute, name, before=None, after=None):
        patches.set(owner, attribute, _span(
            rec, name, owner.__dict__[attribute], before, after))

    # -- spec ---------------------------------------------------------------
    def built(_name, args, _kwargs, instance):
        rec.count("spec.builds")
        rec.routing_owner[id(instance.routing)] = args[0]

    def building(args, _kwargs):
        if not rec.inside("spec.resolve"):
            rec.enter_scenario(args[0])      # fuzz: one build per instance

    def resolved(_name, args, _kwargs, instance):
        rec.routing_owner[id(instance.routing)] = args[0]

    function(spec, "expand_matrix", "spec.expand")
    function(fuzz, "generate_fuzz_specs", "spec.expand")
    method(spec.ScenarioSpec, "build", "spec.build", building, built)
    method(portfolio.Scenario, "resolve", "spec.resolve", after=resolved)

    # -- dependency + cache -------------------------------------------------
    def graph_request(args, kwargs):
        routing = args[0] if args else kwargs.get("routing")
        owner = rec.routing_owner.get(id(routing))
        if owner is not None and not rec.inside("dependency.graph"):
            rec.enter_scenario(owner)        # a scenario starts its pipeline
        return None

    def graph_built(_name, args, kwargs, graph):
        if not rec.inside("dependency.graph"):
            rec.count("dependency.graph_calls")
        if kwargs.get("cache") is False or len(args) > 1 or \
                kwargs.get("destinations") is not None:
            rec.count("dependency.edges", graph.edge_count)

    function(dependency, "routing_dependency_graph", "dependency.graph",
             graph_request, graph_built)
    function(dependency, "class_edges", "dependency.class_edges")
    method(cache.InstanceCache, "dependency_graph", "cache.graph")

    # -- obligations ----------------------------------------------------------
    def coverage_done(_name, _args, _kwargs, _result):
        if not rec.inside("obligations.v1"):
            rec.count("obligations.v1_calls")

    function(obligations, "check_v1_escape_coverage", "obligations.v1",
             after=coverage_done)

    # -- deadlock -------------------------------------------------------------
    def session_made(_name, args, _kwargs, _result):
        session = args[0]
        rec.sessions.append(session)
        rec.count("deadlock.edges_added", session.edge_count)

    def edge_added(_name, _args, _kwargs, _result):
        rec.count("deadlock.edges_added")

    def decide_or_analyse(_args, _kwargs):
        if rec.analysing is not None and rec.analysing is rec.scenario:
            return "deadlock.analyse"
        return "deadlock.decide"

    def queried(name, _args, _kwargs, free):
        if name == "deadlock.analyse":
            rec.count("deadlock.analyse_queries")
            rec.count("deadlock.escape_edges", bool(free))
        else:
            rec.count("deadlock.decide_queries")

    def start_analysis(_args, _kwargs):
        rec.analysing = rec.scenario
        return None

    def analysed(_name, _args, _kwargs, _result):
        rec.count("deadlock.analyse_queries")

    def escapes_found(_name, _args, _kwargs, result):
        rec.count("deadlock.analyse_queries")
        rec.count("deadlock.escape_edges", len(result))

    session_cls = deadlock.DeadlockQuerySession
    method(session_cls, "__init__", "deadlock.add_edge", after=session_made)
    method(session_cls, "add_edge", "deadlock.add_edge", after=edge_added)
    for attribute in ("is_deadlock_free", "is_deadlock_free_edges",
                      "is_deadlock_free_for", "is_deadlock_free_for_class",
                      "is_deadlock_free_without"):
        method(session_cls, attribute, "deadlock.decide",
               decide_or_analyse, queried)
    for attribute in ("cycle_core", "cycle_core_for",
                      "cycle_core_for_class"):
        method(session_cls, attribute, "deadlock.analyse", start_analysis,
               analysed)
    method(session_cls, "escape_edges", "deadlock.analyse", start_analysis,
           escapes_found)

    # -- graphs / theorems (explicit deciders) --------------------------------
    for attribute in ("find_cycle_dfs", "has_cycle", "is_acyclic",
                      "strongly_connected_components", "is_acyclic_by_scc",
                      "topological_sort", "is_acyclic_by_toposort",
                      "check_rank_certificate"):
        function(graphs, attribute, "graphs.explicit")
    function(obligations, "check_v2_escape_acyclicity", "graphs.explicit")
    function(theorems, "check_deadlock_freedom_vc", "graphs.explicit")
    function(theorems, "check_deadlock_freedom_vc_incremental",
             "deadlock.decide")
    function(obligations, "check_v2_incremental", "deadlock.decide")

    # -- fuzz / simulation ----------------------------------------------------
    function(fuzz, "brute_force_acyclic", "fuzz.brute_force")

    def simulated(_name, _args, _kwargs, result):
        rec.count("simulation.steps", result.metrics.steps)

    method(simulator.Simulator, "run", "simulation.run", after=simulated)

    # -- store ----------------------------------------------------------------
    def looked_up(_name, _args, _kwargs, record):
        rec.count("store.hits", record is not None)

    def recorded(_name, _args, _kwargs, written):
        rec.count("store.writes", bool(written))

    method(store.VerdictStore, "lookup", "store.lookup", after=looked_up)
    method(store.VerdictStore, "record", "store.write", after=recorded)

    return patches
