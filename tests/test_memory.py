"""Peak memory of long traces and of the large Gauss-Green window, each run
in a fresh child process.

Each child reports its own peak resident set: one that only imports
``resnet.cli``, and one that runs a command.  The difference is what the
run itself held at its peak.  The peak is the
child's ``VmHWM``, not its ``ru_maxrss``: Linux carries a forking process's
peak into the ``ru_maxrss`` of its child, so a child of a large test
process would report that process's size.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import sys
import resnet.cli
code = resnet.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
with open("/proc/self/status") as status:
    print(code, next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


def _peak_mib(*argv, code=0):
    path = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-c", CHILD, *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    exit_code, peak = done.stdout.split()[-2:]
    assert int(exit_code) == code, done.stderr
    return int(peak) / 1024  # VmHWM is in KiB


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
def test_a_long_wired_trace_holds_no_stage_factors(tmp_path):
    # Each stage's factor is freed when its solve returns; a store of them
    # grew this run by about 55 MiB.
    base = _peak_mib()
    run = _peak_mib("transience", "--model", "unit-line", "--radius", "600",
                    "-o", str(tmp_path / "verdict.json"))
    assert run - base < 25, f"peak RSS grew {run - base:.1f} MiB over the import"


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
def test_a_harmonic_part_keeps_only_its_last_stage(tmp_path):
    # Free and wired are solved in one sweep, and only the last stage's
    # solutions are kept; two full traces of stages grew this run by about
    # 21 MiB.  Its 600 stages do not settle, so it exits 3.
    base = _peak_mib()
    run = _peak_mib("kernel", "--model", "unit-line", "--radius", "600", "--x", "1",
                    "--kind", "harm", "--plan", "balls:1..600",
                    "-o", str(tmp_path / "harm.json"), code=3)
    assert run - base < 14, f"peak RSS grew {run - base:.1f} MiB over the import"


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
def test_the_log_increment_gauss_green_run_holds_no_vertex_objects(tmp_path):
    # The benchmark's 59,050-vertex Gauss-Green command.  Its vertices are a
    # range and its stage sums reuse u's array; a tuple of ids and full
    # copies of u and of the pair terms grew this run by about 16.4 MiB; a
    # second neighbour array, a copy of u and sorts of sorted keys by about
    # 12.1 MiB; a second edge list beside the pairs and full-length
    # temporaries in the stage sums by about 1.8 MiB (median 9.8 MiB, at most
    # 10.3, over ten runs).  It grows by about 8.0 MiB (at most 8.2 over ten
    # runs).
    base = _peak_mib()
    run = _peak_mib("gaussgreen", "--model", "log-increment-line", "--radius", "59049",
                    "--u", "logu", "--v", "logu", "--plan", "radii:3^k",
                    "--alt-plan", "radii:2^k", "-o", str(tmp_path / "gaussgreen.json"))
    assert run - base < 9.0, f"peak RSS grew {run - base:.1f} MiB over the import"
