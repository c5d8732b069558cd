"""Peak memory of a long wired trace, each run in a fresh child process.

Each child reports its own peak resident set: one that only imports
``resnet.cli``, and one that runs a 600-stage unit-line classification.  The
difference is what the run itself held at its peak.  The peak is the
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
if sys.argv[1:]:
    assert resnet.cli.main(sys.argv[1:]) == 0
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


def _peak_mib(*argv):
    path = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-c", CHILD, *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return int(done.stdout.split()[-1]) / 1024  # VmHWM is in KiB


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
def test_a_long_wired_trace_holds_no_stage_factors(tmp_path):
    # Each stage's factor is freed once the next stage's is built; a store
    # of them grew this run by about 55 MiB.
    base = _peak_mib()
    run = _peak_mib("transience", "--model", "unit-line", "--radius", "600",
                    "-o", str(tmp_path / "verdict.json"))
    assert run - base < 25, f"peak RSS grew {run - base:.1f} MiB over the import"
