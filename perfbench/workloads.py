"""The benchmark's workloads: one ``resnet`` CLI invocation each, the input
it is generated from, and the check its artifact must pass.

Each check takes the parsed JSON artifact and returns a list of problems;
an empty list means the output is correct.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

# Input sizes keep one invocation under 2 s on a 2-vCPU guest, so that a run
# takes the median of many invocations: timings on a shared host wander by
# a quarter from one invocation to the next.  report-grid runs 1000 walks, not
# the default 4000: the Monte Carlo criterion walks a fixed number of steps,
# and at 4000 walks it took half of a 21x21 grid's run.
GRID_SIDE = 25
REPORT_WALKS = 1000
GAUSSGREEN_RADIUS = 3 ** 10
STAGE_RESIDUAL_TOL = 1e-9


def write_grid(path, seed):
    """A GRID_SIDE x GRID_SIDE grid with lognormal(0, 1) conductances, tuple
    vertex ids and the origin (0, 0) at its centre, as explicit network JSON."""
    rng = random.Random(seed)
    h = GRID_SIDE // 2
    edges = []
    for i in range(-h, h + 1):
        for j in range(-h, h + 1):
            if i < h:
                edges.append({"u": [i, j], "v": [i + 1, j],
                              "c": rng.lognormvariate(0.0, 1.0)})
            if j < h:
                edges.append({"u": [i, j], "v": [i, j + 1],
                              "c": rng.lognormvariate(0.0, 1.0)})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"origin": [0, 0], "edges": edges}, fh)


def check_report(payload):
    """The verdict is recurrent; on some grids the Monte Carlo criterion is
    honestly inconclusive (the seed-8 grid), which the verdict allows."""
    problems = []
    verdict = payload["transience"]["verdict"]
    if verdict != "recurrent":
        problems.append(f"verdict {verdict!r}, expected 'recurrent'")
    if payload["harmonic_dimension"] != 0:
        problems.append(f"harmonic_dimension {payload['harmonic_dimension']}, "
                        "expected 0")
    return problems


def check_gaussgreen(payload):
    problems = []
    if payload["verdict"] != "exhaustion-dependent":
        problems.append(f"verdict {payload['verdict']!r}, "
                        "expected 'exhaustion-dependent'")
    for radius, _, _, _, _, residual in payload["stages"]:
        if not abs(residual) <= STAGE_RESIDUAL_TOL:
            problems.append(f"stage {radius} residual {residual} exceeds "
                            f"{STAGE_RESIDUAL_TOL:g}")
    return problems


@dataclass(frozen=True)
class Workload:
    """A workload; BENCHMARK.json records why each one was chosen."""

    name: str
    argv: Callable  # (seed, grid path) -> CLI arguments without -o
    check: Callable  # parsed artifact -> list of problems
    uses_grid: bool = False


WORKLOADS = {w.name: w for w in (
    Workload(
        "report-grid",
        lambda seed, grid: ["report", "--net", grid, "--walks", str(REPORT_WALKS),
                            "--seed", str(seed)],
        check_report, uses_grid=True),
    Workload(
        "gaussgreen-log",
        lambda seed, grid: ["gaussgreen", "--model", "log-increment-line",
                            "--radius", str(GAUSSGREEN_RADIUS),
                            "--u", "logu", "--v", "logu",
                            "--plan", "radii:3^k", "--alt-plan", "radii:2^k"],
        check_gaussgreen),
)}


def artifact_problems(workload, exit_code, artifact):
    """Problems with one invocation: its exit code, then its artifact bytes."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        return workload.check(json.loads(artifact))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"malformed artifact: {exc!r}"]
