"""The four benchmark workloads: set-up, timed call and verdict check.

Each workload has three parts, and only :meth:`run` is timed:

* :meth:`prepare` -- matrix expansion and scenario construction (the
  ``setup_s`` work, together with the import of the package);
* :meth:`run` -- the timed calls through the public entry points
  (``run_portfolio``, ``run_fuzz_campaign``), on a cold construction
  cache;
* :meth:`check` -- every verdict against an independent reference
  (:mod:`reference`), outside the timed region.

Inputs are pinned and ``--seed`` does not change them: the seeded
families (fault draws, fuzz campaigns) vary their cost by far more than
the benchmark's bounds from one seed to the next, so a run that drew its
inputs from the seed would measure the seed, not the code.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")

#: Fault seeds of the fault-family matrix start here (three consecutive).
FAULT_SEED_BASE = 0
#: The fuzz campaign seed (the library's default campaign seed).
FUZZ_CAMPAIGN_SEED = 2010
#: Graphs up to this many vertices are also re-decided by brute force.
BRUTE_FORCE_VERTICES = 200

MESH_ROUTINGS = ("xy,yx,west-first,north-last,negative-first,odd-even,"
                 "adaptive,zigzag")


@dataclass
class Check:
    """Outcome of comparing one run's verdicts against the reference."""

    checked: int = 0          #: verdicts compared against the reference
    wrong: int = 0            #: verdicts that differ from it
    attempted: int = 0        #: scenario verdicts the timed calls produced
    failed: int = 0           #: of those, status ``timeout`` or ``error``
    notes: List[str] = field(default_factory=list)

    def compare(self, label: str, expected: Dict[str, object],
                actual: Dict[str, object]) -> None:
        self.checked += 1
        differing = reference.mismatches(expected, actual)
        if differing:
            self.wrong += 1
            self.notes.append(
                f"{label}: {', '.join(differing)} differ "
                f"(expected {[expected[key] for key in differing]}, "
                f"got {[actual[key] for key in differing]})")

    def fail(self, message: str) -> None:
        self.wrong += 1
        self.notes.append(message)


@dataclass
class Outcome:
    """What one timed call returned."""

    reports: list                       #: portfolio reports, or [FuzzReport]
    #: Seconds the workers spent inside scenarios (computed, not replayed).
    busy_s: float
    cleanup: List[str] = field(default_factory=list)

    def comparable(self):
        """The deterministic image used to compare repeated iterations."""
        return [report.comparable_dict() if hasattr(report,
                                                    "comparable_dict")
                else [(v.scenario, v.deadlock_free, v.edges,
                       v.brute_free, v.sim_outcome, v.disagreements)
                      for v in report.verdicts]
                for report in self.reports]


#: Modules the timed calls would otherwise import lazily on first use.
PIPELINE_MODULES = (
    "concurrent.futures.process", "repro.checking.graphs",
    "repro.checking.incremental", "repro.core.fuzz", "repro.core.obligations",
    "repro.core.portfolio", "repro.core.store", "repro.core.theorems",
    "repro.network.faults", "repro.network.vc", "repro.routing.escape",
    "repro.simulation",
)


def import_pipeline() -> None:
    """Import every pipeline module, so that no timed call pays for it."""
    import importlib

    for module in PIPELINE_MODULES:
        importlib.import_module(module)


def _statuses(check: Check, report) -> None:
    for verdict in report.verdicts:
        check.attempted += 1
        if verdict.status != "ok":
            check.failed += 1
            check.notes.append(f"{verdict.scenario}: status "
                               f"{verdict.status} ({verdict.error})")


class Workload:
    name = ""
    #: Portfolio worker processes of the untraced run.
    jobs = 1

    def __init__(self, tiny: bool = False,
                 expected_dir: str = EXPECTED_DIR) -> None:
        self.tiny = tiny
        self.expected_dir = expected_dir

    def prepare(self):
        """Import the pipeline and build the scenarios (``setup_s``)."""
        import_pipeline()
        return self.scenarios()

    def scenarios(self):
        raise NotImplementedError

    def run(self, prepared, jobs: int, workdir: str) -> Outcome:
        raise NotImplementedError

    def check(self, prepared, outcome: Outcome) -> Check:
        raise NotImplementedError


class PortfolioSweep(Workload):
    """A scenario matrix through ``run_portfolio``: serial, and checked
    against a committed expected file unless a subclass says otherwise."""

    def terms(self) -> List[str]:
        raise NotImplementedError

    def expected_path(self) -> str:
        suffix = ".tiny.json" if self.tiny else ".json"
        return os.path.join(self.expected_dir, self.name + suffix)

    def scenarios(self):
        from repro.core.portfolio import scenarios_from_specs
        from repro.core.spec import expand_matrix

        return scenarios_from_specs(expand_matrix(self.terms()))

    def run(self, prepared, jobs: int, workdir: str) -> Outcome:
        from repro.core.cache import reset_instance_cache
        from repro.core.portfolio import run_portfolio

        reset_instance_cache()
        report = run_portfolio(prepared, jobs=jobs)
        return Outcome([report], sum(verdict.elapsed_seconds
                                     for verdict in report.verdicts))

    def check(self, prepared, outcome: Outcome) -> Check:
        check = Check()
        report = outcome.reports[0]
        _statuses(check, report)
        with open(self.expected_path(), encoding="utf-8") as handle:
            expected = json.load(handle)["scenarios"]
        if [entry["scenario"] for entry in expected] != \
                [verdict.scenario for verdict in report.verdicts]:
            check.fail("scenario list differs from the expected file")
            return check
        for entry, verdict in zip(expected, report.verdicts):
            check.compare(verdict.scenario, entry,
                          reference.verdict_fields(verdict))
        return check


class Mesh4Sweep(PortfolioSweep):
    """The standard terms on a 4x4 mesh (8 routings + XY/VCT) and ring-8."""

    name = "mesh4-sweep"

    def terms(self) -> List[str]:
        from repro.core.portfolio import standard_matrix

        size, ring = (3, 4) if self.tiny else (4, 8)
        return standard_matrix(mesh_sizes=(size,), ring_sizes=(ring,))


class VCMesh4Sweep(PortfolioSweep):
    """Adaptive routing with an XY escape class at 1, 2 and 4 VCs."""

    name = "vcmesh4-sweep"

    def terms(self) -> List[str]:
        size = 3 if self.tiny else 4
        return [f"vc-mesh:{size}x{size}, vcs=[1,2,4]"]


class FaultSweep(PortfolioSweep):
    """Seeded fault draws, ``jobs=2``, cross-checked, cold + warm store."""

    name = "fault-sweep"
    jobs = 2

    def terms(self) -> List[str]:
        seeds = f"seed={FAULT_SEED_BASE}..{FAULT_SEED_BASE + 2}"
        if self.tiny:
            return [f"mesh:3x3, routing=[xy,adaptive], faults=1, {seeds}",
                    f"ring:6, routing=[chain,clockwise], faults=1, {seeds}",
                    f"vc-mesh:3x3, vcs=[1,2], faults=1, {seeds}"]
        return [f"mesh:3x3, routing=[{MESH_ROUTINGS}], faults=1, {seeds}",
                f"ring:6, routing=[chain,clockwise], faults=1, {seeds}",
                f"vc-mesh:3x3, vcs=[1,2], faults=1, {seeds}",
                f"vc-torus:3x3, vcs=[1,2], faults=1, {seeds}"]

    def run(self, prepared, jobs: int, workdir: str) -> Outcome:
        from repro.core.cache import reset_instance_cache
        from repro.core.portfolio import run_portfolio

        reset_instance_cache()
        store = tempfile.mkdtemp(prefix="store-", dir=workdir)
        cold = run_portfolio(prepared, jobs=jobs, cross_check=True,
                             store=store)
        warm = run_portfolio(prepared, jobs=jobs, cross_check=True,
                             store=store)
        return Outcome([cold, warm], sum(verdict.elapsed_seconds
                                         for verdict in cold.verdicts),
                       cleanup=[store])

    def check(self, prepared, outcome: Outcome) -> Check:
        from repro.core.fuzz import brute_force_acyclic

        check = Check()
        cold, warm = outcome.reports
        _statuses(check, cold)
        _statuses(check, warm)
        groups = len({scenario.group_key() for scenario in prepared})
        cold_store, warm_store = cold.store_stats, warm.store_stats
        if cold_store.get("writes") != groups or \
                cold_store.get("hits") != 0:
            check.fail(f"cold run should write all {groups} groups and "
                       f"hit none: {cold_store}")
        if warm_store.get("hits") != groups or warm_store.get("misses") or \
                warm_store.get("writes"):
            check.fail(f"warm run should replay all {groups} groups with "
                       f"zero solver work: {warm_store}")
        if warm.comparable_dict() != cold.comparable_dict():
            check.fail("warm comparable_dict() differs from the cold run's")
        names = [scenario.name for scenario in prepared]
        for label, report in (("cold", cold), ("warm", warm)):
            if [verdict.scenario for verdict in report.verdicts] != names:
                check.fail(f"{label} run's scenario list differs from the "
                           f"prepared scenarios")
                return check
        for scenario, verdict in zip(prepared, cold.verdicts):
            expected = reference.decide_instance(scenario.spec.build())
            check.compare(verdict.scenario, expected,
                          reference.verdict_fields(verdict))
            query = expected["query_edges"]
            vertices = {vertex for edge in query for vertex in edge}
            if len(vertices) <= BRUTE_FORCE_VERTICES:
                check.checked += 1
                if brute_force_acyclic(query) != expected["acyclic"]:
                    check.fail(f"{verdict.scenario}: brute force and Kahn "
                               f"disagree on acyclicity")
        return check


class FuzzCrosscheck(Workload):
    """``run_fuzz_campaign`` on small irregular instances."""

    name = "fuzz-crosscheck"

    def params(self):
        if self.tiny:
            return 12, (3, 3), FUZZ_CAMPAIGN_SEED
        return 25, (4, 4), FUZZ_CAMPAIGN_SEED

    def scenarios(self):
        from repro.core.fuzz import generate_fuzz_specs

        count, max_size, campaign = self.params()
        return (self.params(),
                generate_fuzz_specs(count, max_size=max_size,
                                    campaign_seed=campaign))

    def run(self, prepared, jobs: int, workdir: str) -> Outcome:
        from repro.core.cache import reset_instance_cache
        from repro.core.fuzz import run_fuzz_campaign

        (count, max_size, campaign), _ = prepared
        reset_instance_cache()
        report = run_fuzz_campaign(count=count, max_size=max_size,
                                   campaign_seed=campaign)
        return Outcome([report], sum(verdict.elapsed_seconds
                                     for verdict in report.verdicts))

    def check(self, prepared, outcome: Outcome) -> Check:
        check = Check()
        (count, _, _), specs = prepared
        report = outcome.reports[0]
        check.attempted = len(report.verdicts)
        if len(report.verdicts) != count:
            check.fail(f"{len(report.verdicts)} verdicts for {count} specs")
            return check
        for disagreement in report.disagreements:
            check.fail(f"campaign disagreement: {disagreement}")
        for spec, verdict in zip(specs, report.verdicts):
            expected = reference.decide_instance(spec.build())
            actual = {"deadlock_free": verdict.deadlock_free,
                      "condition": verdict.condition,
                      "edges": verdict.edges}
            check.compare(verdict.scenario, expected, actual)
            if verdict.brute_free is not None:
                check.checked += 1
                if verdict.brute_free != expected["deadlock_free"]:
                    check.fail(f"{verdict.scenario}: brute force "
                               f"{verdict.brute_free} vs reference")
        return check


WORKLOADS = {cls.name: cls for cls in (Mesh4Sweep, VCMesh4Sweep, FaultSweep,
                                       FuzzCrosscheck)}


def cleanup(outcome: Outcome) -> None:
    for path in outcome.cleanup:
        shutil.rmtree(path, ignore_errors=True)
