"""Benchmark of the resnet command line, one workload process at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Each invocation is a fresh process (``worker.py``) that imports
``resnet.cli`` from ``src/`` and calls ``main(argv)`` once, writing its
artifact to a scratch directory under ``.perfbench/``.  Invocations repeat
until the next one would end after ``--seconds`` (at least two, so the
artifact bytes of a run can be compared), and every artifact is checked
(see ``workloads.py``).  The inputs depend only on ``--seed``.

``--trace 0`` reports the medians over invocations of the end-to-end
metrics: ``setup_s`` (process start until ``resnet.cli`` is imported, numpy
and scipy included), ``wall_s`` (the ``main(argv)`` call) and
``peak_rss_mb`` (``ru_maxrss`` of the workload process).  The two times are
given at the reference speed of ``reference.py``: each median is multiplied
by ``REFERENCE_S`` over the run's median time of the reference task, timed
before every invocation; this takes out much of the drift of a shared
processor's speed between runs.  The medians as measured, and the reference
time, go to standard error.

``--trace 1`` alternates an untraced and a traced invocation (see
``spans.py``), reports the median per-layer metrics of the traced ones, as
measured, plus ``trace.overhead_s`` (traced minus untraced ``wall_s``), and
writes the spans of the last traced invocation to
``.perfbench/spans-<workload>.jsonl``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (invocations that exited non-zero or failed their
check) and ``metrics``.  ``--all`` runs every workload and prints each
end-to-end metric, and ``failed_frac``, with its unit.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from reference import REFERENCE_S, time_reference
from workloads import WORKLOADS, artifact_problems, write_grid

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().with_name("worker.py")
OUT = ROOT / ".perfbench"
# A run must end within 180 s; no invocation may run past this.
HARD_LIMIT_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def invoke(argv, spans, deadline):
    """Run one workload process; returns (result dict or None, problems)."""
    spec = {"argv": argv, "spans": spans, "t0": time.monotonic()}
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(spec)], cwd=ROOT,
            capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return None, ["timed out"]
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1]), []
    except ValueError:
        pass
    return None, [f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}"]


class Run:
    """One benchmark run of one workload: its invocations and checks."""

    def __init__(self, workload, seed, rundir):
        self.workload = workload
        self.seed = seed
        self.rundir = rundir
        self.attempted = 0
        self.failed = 0
        self.first_artifact = None

    def invocation(self, traced, deadline):
        self.attempted += 1
        out = self.rundir / f"artifact-{self.attempted}"
        argv = self.workload.argv(self.seed, str(self.rundir / "grid.json"))
        spans = str(OUT / f"spans-{self.workload.name}.jsonl") if traced else None
        result, problems = invoke(argv + ["-o", str(out)], spans, deadline)
        if result is not None:
            artifact = out.read_bytes() if out.exists() else b""
            problems = artifact_problems(self.workload, result["exit"], artifact)
            if self.first_artifact is None:
                self.first_artifact = artifact
            elif artifact != self.first_artifact:
                problems.append("artifact bytes differ from the first invocation's")
        if problems:
            self.failed += 1
            print(f"{self.workload.name} invocation {self.attempted}: "
                  + "; ".join(problems), file=sys.stderr)
        return result


def measure(workload, seed, seconds, traced):
    """Repeat invocations for ``seconds``; returns the result object."""
    OUT.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        if workload.uses_grid:
            write_grid(rundir / "grid.json", seed)
        run = Run(workload, seed, rundir)
        start = time.monotonic()
        deadline = start + HARD_LIMIT_S
        # One step is an invocation, or an untraced and traced pair.
        modes = (False, True) if traced else (False,)
        min_steps = 1 if traced else 2
        samples, durations, reference = [], [], []
        while True:
            elapsed = time.monotonic() - start
            if durations:
                next_end = elapsed + statistics.fmean(durations)
                if next_end > HARD_LIMIT_S or (
                        len(durations) >= min_steps and next_end > seconds):
                    break
            t = time.monotonic()
            reference.append(time_reference())
            results = [run.invocation(mode, deadline) for mode in modes]
            durations.append(time.monotonic() - t)
            if None not in results:
                samples.append(results)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    if not samples:
        raise RuntimeError(f"{workload.name}: no invocation produced a result")
    if traced:
        per_step = [dict(tr["layers"], **{
            "trace.overhead_s": tr["wall_s"] - plain["wall_s"]})
            for plain, tr in samples]
        metrics = {name: {"value": statistics.median(s[name] for s in per_step),
                          "unit": layer_unit(name)} for name in per_step[0]}
    else:
        measured = {name: statistics.median(s[0][name] for s in samples)
                    for name in END_TO_END_UNITS}
        measured["reference_s"] = statistics.median(reference)
        print(f"{workload.name} measured over {len(samples)} invocations: "
              + json.dumps(measured), file=sys.stderr)
        speed = REFERENCE_S / measured["reference_s"]
        metrics = {name: {"value": measured[name] * (speed if unit == "s" else 1.0),
                          "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    return {"correct": run.failed == 0, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true",
                       help="run every workload and print a summary")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "resnet" / "cli.py").is_file():
        print(f"perfbench: no resnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload:
            print(json.dumps(measure(WORKLOADS[args.workload], args.seed,
                                     args.seconds, bool(args.trace))))
            return 0
        for name, workload in WORKLOADS.items():
            result = measure(workload, args.seed, args.seconds, bool(args.trace))
            metrics = dict(result["metrics"], failed_frac={
                "value": result["failed"] / result["attempted"], "unit": "ratio"})
            for metric, m in metrics.items():
                print(f"{name:16} {metric:42} {m['value']:>14.6g} {m['unit']}")
        return 0
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
