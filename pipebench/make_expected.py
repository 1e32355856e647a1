"""Regenerate the expected verdict files of the fixed workloads.

Usage (from the repository root)::

    python3 pipebench/make_expected.py

Writes ``pipebench/expected/<workload>.json`` and ``<workload>.tiny.json``
for ``mesh4-sweep`` and ``vcmesh4-sweep``.  Each scenario's verdict comes
from routing theory, and the script refuses to write a file unless the
constructed dependency graph agrees with it:

* the verdict is re-derived by ``find_cycle_dfs`` and by Kahn peeling
  (:mod:`reference`) on the graph (Theorem 1) or on its escape class plus
  the (V-1) coverage check (VC scenarios);
* the escape-edge set is predicted as empty when the graph holds two
  edge-disjoint cycles (no single edge lies on every cycle), and as the
  whole cycle when the graph holds exactly one -- both re-checked on the
  graph.

Edge counts are recorded as constructed: they pin graph construction, so
a rewrite of graph construction must reproduce them.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import reference  # noqa: E402
from workloads import EXPECTED_DIR, WORKLOADS  # noqa: E402

#: Routing token -> (deadlock free?, why).
THEORY = {
    "xy": (True, "dimension-order routing (Dally & Seitz)"),
    "yx": (True, "dimension-order routing (Dally & Seitz)"),
    "west-first": (True, "turn model, two turns prohibited (Glass & Ni)"),
    "north-last": (True, "turn model, two turns prohibited (Glass & Ni)"),
    "negative-first": (True, "turn model, two turns prohibited "
                             "(Glass & Ni)"),
    "odd-even": (True, "odd-even turn model (Chiu)"),
    "adaptive": (False, "fully adaptive minimal routing allows all eight "
                        "turns, so every 2x2 block carries a cycle"),
    "zigzag": (False, "zig-zag routing alternates dimensions and turns "
                      "both ways around a block"),
    "chain": (True, "ring without its wrap-around channel is a line"),
    "clockwise": (False, "unidirectional ring: one cycle through every "
                         "node"),
}


def theory_for(spec):
    """``(free, why)`` predicted for a scenario spec."""
    if spec.kind == "vc-mesh":
        if spec.num_vcs == 1:
            return False, ("one VC: the XY escape class is the adaptive "
                           "graph itself, which has cycles")
        return True, ("Duato: escape coverage (V-1) plus an acyclic XY "
                      "escape class (V-2)")
    return THEORY[spec.normalized().routing]


def escape_prediction(query):
    """The escape-edge set routing theory predicts, checked on the graph."""
    cycle = reference.find_cycle(query)
    if cycle is None:
        return set(), "acyclic"
    rest = set(query) - set(cycle)
    if reference.find_cycle(list(rest)) is not None:
        return set(), "two edge-disjoint cycles: no edge lies on every cycle"
    return set(cycle), "a single cycle: each of its edges breaks it"


def expected_for(workload):
    from repro.checking.graphs import DirectedGraph, find_cycle_dfs

    entries = []
    for scenario in workload.prepare():
        spec = scenario.spec
        free, why = theory_for(spec)
        found = reference.decide_instance(spec.build())
        query = found.pop("query_edges")
        dfs_acyclic = find_cycle_dfs(DirectedGraph.from_edges(query)).acyclic
        predicted, escape_why = escape_prediction(query)
        problems = []
        if found["deadlock_free"] != free:
            problems.append(f"theory says free={free}, graph says "
                            f"{found['deadlock_free']}")
        if dfs_acyclic != found.pop("acyclic"):
            problems.append("find_cycle_dfs and Kahn disagree")
        if not free and sorted(map(reference.format_edge, predicted)) != \
                found["escape_edges"]:
            problems.append(f"escape edges: predicted {len(predicted)}, "
                            f"found {len(found['escape_edges'])}")
        if problems:
            raise SystemExit(f"{scenario.name}: " + "; ".join(problems))
        entries.append({"scenario": scenario.name, **found,
                        "basis": why if free else f"{why}; {escape_why}"})
    return entries


def main() -> int:
    os.makedirs(EXPECTED_DIR, exist_ok=True)
    for name in ("mesh4-sweep", "vcmesh4-sweep"):
        for tiny in (False, True):
            workload = WORKLOADS[name](tiny=tiny)
            path = workload.expected_path()
            with open(path, "w", encoding="utf-8") as handle:
                json.dump({"workload": name, "tiny": tiny,
                           "scenarios": expected_for(workload)},
                          handle, indent=1)
                handle.write("\n")
            print(f"wrote {os.path.relpath(path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
