"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py [--workload NAME ...] [--seeds 1-10]

Runs ``run.py`` once per seed and workload with the settings of
``BENCHMARK.json`` and prints, per workload and metric, the median of the
runs and the spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound, then the same for the medians as measured, before
``run.py`` scales the times to the reference speed (``reference.py``).  The
last line is the table as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    table = {}
    for name in args.workload or names:
        runs, measured = [], []
        for seed in seeds:
            proc = subprocess.run(
                config["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(config["run_seconds"]),
                                     "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            line = next(x for x in proc.stderr.splitlines() if " measured over " in x)
            measured.append(json.loads(line.partition(": ")[2]))
        table[name] = {
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": {}}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            row = {"median": statistics.median(values), "spread": spread(values),
                   "bound": bound, "values": values}
            table[name]["metrics"][metric] = row
            print(f"{name:16} {metric:12} median {row['median']:10.4f} "
                  f"spread {row['spread']:.4f} bound {bound}", file=sys.stderr)
        table[name]["measured"] = {}
        for metric in measured[0]:
            values = [m[metric] for m in measured]
            row = {"median": statistics.median(values), "spread": spread(values),
                   "values": values}
            table[name]["measured"][metric] = row
            print(f"{name:16} {metric:12} as measured: median {row['median']:10.4f} "
                  f"spread {row['spread']:.4f}", file=sys.stderr)
    print(json.dumps(table))


if __name__ == "__main__":
    main()
