"""Verdict benchmark of the deadlock pipeline.

Usage (from the repository root)::

    python3 pipebench/run.py --workload mesh4-sweep --seed 1 --seconds 20 --trace 0
    python3 pipebench/run.py --workload all --seed 1 --trace 1

One process runs the named workload (``all`` runs each workload in a
fresh process of its own and merges the results): it builds the
scenarios, repeats the timed call until ``--seconds`` have passed (at
least once), reports the median call scaled to a reference host speed
(see :func:`measure`), checks every verdict against an independent
reference outside the timed region, and prints every metric by name with
its unit.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A wrong verdict, or a scenario that timed out or errored,
makes the exit code 1.  See ``pipebench/README.md``.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".pipebench_work")
OUT_DIR = os.path.join(ROOT, ".pipebench_out")

#: String hashing is pinned so that set iteration order -- and with it the
#: solver's assumption order and every ``sat.*`` counter -- repeats exactly.
HASH_SEED = "0"

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 11
#: Calibration time (:func:`_calibrate`) at the reference speed: about
#: the fastest seen on the reference host (2 vCPU x86_64, Python 3.11.7).
#: End-to-end times are reported as if the host had run at this speed.
REFERENCE_KERNEL_S = 0.0090
#: Upper bound on timed iterations per run, whatever ``--seconds`` says.
MAX_ITERATIONS = 50

END_TO_END_UNITS = {
    "sweep_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "agreement_share": "share", "decided_share": "share",
}


def _run_seconds() -> float:
    """``run_seconds`` of ``BENCHMARK.json``, the default of ``--seconds``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return float(json.load(fh)["run_seconds"])


def _cpu_seconds() -> float:
    """CPU seconds of this process plus its reaped children."""
    return sum(usage.ru_utime + usage.ru_stime
               for usage in (resource.getrusage(resource.RUSAGE_SELF),
                             resource.getrusage(resource.RUSAGE_CHILDREN)))


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _timed(workload, prepared, jobs: int):
    """One timed call: ``(wall_s, cpu_s, outcome)``."""
    gc.collect()
    wall, cpu = time.perf_counter(), _cpu_seconds()
    outcome = workload.run(prepared, jobs, WORK_DIR)
    return time.perf_counter() - wall, _cpu_seconds() - cpu, outcome


def _kernel() -> float:
    """Seconds of one run of a fixed pure-Python loop (dict, set, list).

    It does not touch the program under test, so its time moves only with
    the host's speed.  Do not change it: ``REFERENCE_KERNEL_S`` and every
    recorded baseline depend on it.
    """
    gc.disable()
    started = time.perf_counter()
    table, seen, order = {}, set(), []
    for i in range(40000):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0) + i
        if key not in seen:
            seen.add(key)
            order.append(key)
    order.sort(key=table.__getitem__)
    elapsed = time.perf_counter() - started
    gc.enable()
    return elapsed


def _calibrate() -> float:
    """The host's current speed, as the fastest of three kernel runs."""
    return min(_kernel() for _ in range(3))


def _jobs(workload) -> int:
    return max(1, min(workload.jobs, os.cpu_count() or 1))


def _setup_probe(args) -> float:
    """Set-up time of one fresh interpreter (import included)."""
    command = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               "--workload", args.workload]
    command += ["--tiny"] if args.tiny else []
    done = subprocess.run(command, cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def _verify(workload, prepared, outcomes):
    """Check the first outcome against the reference, the rest against it.

    Repeated iterations must reproduce the first one's deterministic image
    (verdicts, statuses, solver counters), so they inherit its tally.
    """
    from workloads import cleanup

    check = workload.check(prepared, outcomes[0])
    first, failed = outcomes[0].comparable(), check.failed
    for outcome in outcomes[1:]:
        check.attempted += sum(len(report.verdicts)
                               for report in outcome.reports)
        check.failed += failed
        if outcome.comparable() != first:
            check.fail("a repeated iteration gave a different report")
    for outcome in outcomes:
        cleanup(outcome)
    return check


def measure(workload, args) -> dict:
    """The untraced run: end-to-end metrics.

    A calibration (:func:`_calibrate`) runs before the first timed call
    and after every call and set-up probe.  Each call's times are scaled
    to the reference speed by ``REFERENCE_KERNEL_S`` over the mean of the
    calibrations on either side of it, and the run reports the median
    scaled call: the host's speed drifts by up to 1.8x within minutes,
    and a time taken at whatever speed the host had during the run would
    measure the host, not the code.  The set-up probes are spread evenly
    over the measuring window, between timed calls, and scaled the same
    way.
    """
    prepared = workload.prepare()
    jobs = _jobs(workload)
    probes = 2 if args.tiny else SETUP_PROBES
    started = time.perf_counter()
    deadline = started + args.seconds
    speeds = [_calibrate()]
    samples = [_timed(workload, prepared, jobs)]
    speeds.append(_calibrate())
    # Read after the first call, before any probe (a child process too) or
    # kept outcome can raise it: forked pool workers start with a copy of
    # this process, which grows with every outcome kept for the check.
    peak = _peak_rss_mb()
    setups = []

    def probe():
        before = speeds[-1]
        seconds = _setup_probe(args)
        speeds.append(_calibrate())
        setups.append(seconds * REFERENCE_KERNEL_S
                      / ((before + speeds[-1]) / 2))

    while True:
        due = started + len(setups) * args.seconds / probes
        if len(setups) < probes and time.perf_counter() >= due:
            probe()
        if time.perf_counter() >= deadline or \
                len(samples) >= MAX_ITERATIONS:
            break
        before = len(speeds) - 1
        samples.append(_timed(workload, prepared, jobs))
        speeds.append(_calibrate())
        samples[-1] += (REFERENCE_KERNEL_S
                        / ((speeds[before] + speeds[-1]) / 2),)
    while len(setups) < probes:
        probe()
    samples[0] += (REFERENCE_KERNEL_S / ((speeds[0] + speeds[1]) / 2),)
    check = _verify(workload, prepared, [sample[2] for sample in samples])
    metrics = {
        "sweep_s": statistics.median(wall * scale
                                     for wall, _, _, scale in samples),
        "cpu_s": statistics.median(cpu * scale
                                   for _, cpu, _, scale in samples),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak,
        "agreement_share": ((check.checked - check.wrong) / check.checked
                            if check.checked else 0.0),
        "decided_share": ((check.attempted - check.failed) / check.attempted
                          if check.attempted else 0.0),
    }
    return {"check": check, "iterations": len(samples),
            "walls": sorted(sample[0] for sample in samples),
            "speed": REFERENCE_KERNEL_S / statistics.median(speeds),
            "metrics": {name: (value, END_TO_END_UNITS[name])
                        for name, value in metrics.items()}}


def _traced_call(workload):
    """One traced set-up plus timed call, with its own span recorder."""
    import spans
    from repro.core.cache import instance_cache

    recorder = spans.SpanRecorder()
    patches = spans.install(recorder)
    try:
        setup_root = recorder.open(spans.ROOT)
        prepared = workload.prepare()
        recorder.close(setup_root)
        gc.collect()
        started = time.perf_counter()
        root = recorder.open(spans.ROOT)
        outcome = workload.run(prepared, 1, WORK_DIR)
        recorder.close(root)
        wall = time.perf_counter() - started
    finally:
        patches.restore()
    cache = instance_cache()
    lookups = cache.hits + cache.misses
    return {"wall": wall, "recorder": recorder, "root": root,
            "setup_root": setup_root, "outcome": outcome,
            "hit_ratio": cache.hits / lookups if lookups else 0.0}


def measure_traced(workload, args) -> dict:
    """The traced run: per-layer metrics from spans.

    One untraced call at the workload's job count gives the pool numbers.
    Then untraced and traced serial calls alternate until ``--seconds``
    have passed; the fastest traced call supplies the layer breakdown and
    the tracing overhead is its time minus the fastest untraced call's.
    """
    prepared = workload.prepare()
    jobs = _jobs(workload)
    wall, _, outcome = _timed(workload, prepared, jobs)
    outcomes = [outcome]
    busy_share = outcome.busy_s / (jobs * wall)
    untraced = [wall] if jobs == 1 else []
    best = None
    deadline = time.perf_counter() + args.seconds
    while True:
        if best is not None or jobs > 1:
            wall, _, outcome = _timed(workload, prepared, 1)
            untraced.append(wall)
            outcomes.append(outcome)
        sample = _traced_call(workload)
        outcomes.append(sample["outcome"])
        if best is None or sample["wall"] < best["wall"]:
            best = sample
        if time.perf_counter() >= deadline or \
                len(outcomes) >= MAX_ITERATIONS:
            break

    check = _verify(workload, prepared, outcomes)
    os.makedirs(OUT_DIR, exist_ok=True)
    best["recorder"].write(os.path.join(OUT_DIR, f"spans-{workload.name}-"
                                                 f"seed{args.seed}.jsonl"),
                           workload.name, args.seed)
    return {"check": check, "iterations": len(outcomes),
            "metrics": layer_metrics(best, min(untraced), busy_share)}


#: Per-layer self-time shares: metric -> span names whose self time it sums.
SHARES = {
    "spec.build_share": ("spec.build", "spec.resolve", "spec.expand"),
    "dependency.graph_share": ("dependency.graph", "dependency.class_edges",
                               "cache.graph"),
    "obligations.v1_share": ("obligations.v1",),
    "deadlock.add_edge_share": ("deadlock.add_edge",),
    "deadlock.decide_share": ("deadlock.decide",),
    "deadlock.analyse_share": ("deadlock.analyse",),
    "graphs.explicit_share": ("graphs.explicit",),
    "fuzz.brute_force_share": ("fuzz.brute_force",),
    "simulation.run_share": ("simulation.run",),
    "store.lookup_share": ("store.lookup",),
    "store.write_share": ("store.write",),
    "other.self_share": ("root",),
}


def layer_metrics(sample: dict, untraced: float, busy_share: float) -> dict:
    recorder, root, traced = sample["recorder"], sample["root"], sample["wall"]
    self_times = recorder.self_times(root)
    counts = recorder.counts
    sat: dict = {}
    for session in recorder.sessions:
        for key, value in session.solver_stats.items():
            sat[key] = sat.get(key, 0) + value
    metrics = {name: (sum(self_times.get(span, 0.0) for span in names)
                      / traced, "share")
               for name, names in SHARES.items()}
    analyse = counts.get("deadlock.analyse_queries", 0)
    metrics.update({
        "spec.expand_s": (recorder.self_times(sample["setup_root"]).get(
            "spec.expand", 0.0), "s"),
        "spec.builds": (counts.get("spec.builds", 0), "count"),
        "dependency.graph_calls": (counts.get("dependency.graph_calls", 0),
                                   "count"),
        "dependency.edges": (counts.get("dependency.edges", 0), "count"),
        "cache.hit_ratio": (sample["hit_ratio"], "ratio"),
        "obligations.v1_calls": (counts.get("obligations.v1_calls", 0),
                                 "count"),
        "deadlock.edges_added": (counts.get("deadlock.edges_added", 0),
                                 "count"),
        "deadlock.decide_queries": (counts.get("deadlock.decide_queries", 0),
                                    "count"),
        "deadlock.analyse_queries": (analyse, "count"),
        "deadlock.escape_yield": (counts.get("deadlock.escape_edges", 0)
                                  / analyse if analyse else 0.0, "ratio"),
        "sat.conflicts": (sat.get("conflicts", 0), "count"),
        "sat.propagations": (sat.get("propagations", 0), "count"),
        "sat.decisions": (sat.get("decisions", 0), "count"),
        "simulation.steps": (counts.get("simulation.steps", 0), "count"),
        "store.hits": (counts.get("store.hits", 0), "count"),
        "store.writes": (counts.get("store.writes", 0), "count"),
        "portfolio.worker_busy_share": (busy_share, "share"),
        "other.self_s": (self_times.get("root", 0.0), "s"),
        "trace.sweep_s": (traced, "s"),
        "trace.overhead_s": (traced - untraced, "s"),
        "trace.reconcile_share": (sum(self_times.values()) / traced, "share"),
        "trace.spans": (len(recorder.subtree(root)), "count"),
    })
    return metrics


def run_workload(name: str, args) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[name](tiny=args.tiny, expected_dir=args.expected)
    os.makedirs(WORK_DIR, exist_ok=True)
    return (measure_traced if args.trace else measure)(workload, args)


def report(name: str, result: dict) -> None:
    """Human-readable lines: every metric by name, plus the verdict tally."""
    check = result["check"]
    failed_share = check.failed / check.attempted if check.attempted else 0.0
    print(f"[{name}] {result['iterations']} timed call(s), "
          f"{check.attempted} scenario verdicts, {check.checked} checked")
    print(f"[{name}] wrong_verdicts = {check.wrong} count")
    print(f"[{name}] failed_share = {failed_share:.6f} share")
    for note in check.notes[:20]:
        print(f"[{name}]   ! {note}")
    if "walls" in result:
        walls = result["walls"]
        print(f"[{name}] timed calls, host wall time: n = {len(walls)}, "
              f"fastest {walls[0]:.4f} s, median "
              f"{statistics.median(walls):.4f} s, slowest {walls[-1]:.4f} s; "
              f"host speed {result['speed']:.3f} x reference")
    for metric, (value, unit) in result["metrics"].items():
        print(f"[{name}] {metric} = {value} {unit}")


def setup_probe(args) -> int:
    """Child mode: time import + set-up once, print it as JSON."""
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    WORKLOADS[args.workload](tiny=args.tiny).prepare()
    print(json.dumps({"setup_s": time.perf_counter() - _STARTED}))
    return 0


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__)]
                  + (sys.argv[1:] if argv is None else list(argv)),
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="mesh4-sweep, vcmesh4-sweep, fault-sweep, "
                             "fuzz-crosscheck or all")
    parser.add_argument("--seed", type=int, default=0,
                        help="names the run's span file; the inputs are "
                             "pinned (see pipebench/README.md)")
    parser.add_argument("--seconds", type=float, default=_run_seconds(),
                        help="measuring time (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs (self-tests)")
    parser.add_argument("--expected", default=None,
                        help="directory of expected verdict files "
                             "(default: pipebench/expected)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"pipebench: no repro package under {SRC}; run from a full "
              f"checkout of the repository", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)
    sys.path.insert(0, SRC)
    from workloads import EXPECTED_DIR, WORKLOADS

    if args.workload == "all":
        return run_each(list(WORKLOADS), args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    args.expected = args.expected or EXPECTED_DIR
    result = run_workload(args.workload, args)
    report(args.workload, result)
    check = result["check"]
    correct = check.wrong == 0
    print(json.dumps({
        "correct": correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in result["metrics"].items()},
    }))
    try:
        os.rmdir(WORK_DIR)
    except OSError:
        pass
    return 0 if correct and check.failed == 0 else 1


def run_each(names, args) -> int:
    """``--workload all``: each workload in a fresh process, results merged.

    A fresh process per workload keeps ``peak_rss_mb`` and ``cpu_s`` the
    workload's own: resource usage of a process (and of its reaped
    children) only ever accumulates.  Metric names gain a ``<workload>.``
    prefix.
    """
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in names:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        command += ["--tiny"] if args.tiny else []
        command += ["--expected", args.expected] if args.expected else []
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True)
        lines = done.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print("\n".join(lines))
            print(f"pipebench: {name} printed no result", file=sys.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        code = code or done.returncode
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(merged))
    return code


if __name__ == "__main__":
    sys.exit(main())
