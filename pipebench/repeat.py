"""Run the benchmark repeatedly and summarise the spread of every metric.

Usage (from the repository root)::

    python3 pipebench/repeat.py --workload fault-sweep --runs 10 --out summary.json
    python3 pipebench/repeat.py --workload all --runs 10 --trace 1 --out traced.json

Each run is ``pipebench/run.py --workload W --seed <first-seed + i>`` in a
fresh process, with ``--seconds`` taken from ``BENCHMARK.json``.  The
workloads take turns (round ``i`` runs every workload once, then round
``i + 1``), so each workload's runs spread over the whole session and a
slow period of the host shifts one or two runs of every workload rather
than every run of one.  For every
metric the summary holds the ten values, their median, the first and
third quartile (``statistics.quantiles(values, n=4)``) and the spread:
the inter-quartile distance as a share of the median.  The spread of each
end-to-end metric is compared with a third of its bound from
``BENCHMARK.json``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def summarise(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write the summary here")
    args = parser.parse_args()

    names = ([entry["name"] for entry in bench["workloads"]]
             if args.workload == "all" else [args.workload])
    bounds = {entry["name"]: entry["bound"] for entry in bench["end_to_end"]}
    summary = {"platform": {"nproc": os.cpu_count(),
                            "python": platform.python_version(),
                            "machine": platform.machine()},
               "run_seconds": bench["run_seconds"], "trace": args.trace,
               "workloads": {}}
    values = {name: {} for name in names}
    units = {}
    for run in range(args.runs):
        seed = args.first_seed + run
        for name in names:
            done = subprocess.run(
                [sys.executable] + bench["command"][1:]
                + ["--workload", name, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode != 0 or not result["correct"]:
                print(done.stdout, done.stderr, file=sys.stderr)
                return 1
            for metric, entry in result["metrics"].items():
                values[name].setdefault(metric, []).append(entry["value"])
                units[metric] = entry["unit"]
            print(f"{name} seed {seed}: " + ", ".join(
                f"{metric}={entry['value']:.4g}"
                for metric, entry in result["metrics"].items()
                if metric in bounds or args.trace), flush=True)
    for name in names:
        table = {metric: {**summarise(series), "unit": units[metric]}
                 for metric, series in values[name].items()}
        summary["workloads"][name] = table
        for metric, stats in table.items():
            if metric in bounds:
                verdict = ("ok" if stats["spread"] < bounds[metric] / 3
                           else "WIDE")
                print(f"{name} {metric}: median {stats['median']:.4g} "
                      f"spread {stats['spread']:.4f} "
                      f"(bound/3 {bounds[metric] / 3:.4f}) {verdict}",
                      flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
