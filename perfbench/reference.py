"""A fixed reference task, timed beside the workload invocations.

The processor this benchmark runs on is shared with other tenants: over
minutes its speed drifts by a quarter and more, and that drift moves every
timing of a run together.  ``run.py`` therefore times this task before each
invocation and reports a run's times at one reference speed: a measured time
``t`` is reported as ``t * REFERENCE_S / r``, where ``r`` is the run's median
time of the task.

The task is what a workload process does before it reaches ``resnet``: start
a fresh interpreter and import numpy and scipy.  Of the tasks tried, pure
Python loops, dict and sort work and numpy array passes timed in the
benchmark's own process did not follow the drift of the workload times; a
fresh process did, closely enough to halve the run-to-run spread of
``wall_s`` on some workloads.  The task imports nothing from ``resnet``, so
no change to the program can move ``r``.
"""

from __future__ import annotations

import subprocess
import sys
import time

# Nominal duration of the task, a round value near its median (0.5-0.65 s)
# on a 2-vCPU KVM guest of an Intel Xeon host (Python 3.11, numpy 2.4,
# scipy 1.17).  Any fixed value would do; a value near the measured one keeps
# reported times close to the seconds measured there.
REFERENCE_S = 0.5

TASK = "import numpy, scipy.sparse, scipy.sparse.linalg"


def time_reference():
    """Seconds from starting a fresh interpreter running TASK to its exit."""
    t = time.monotonic()
    subprocess.run([sys.executable, "-c", TASK], check=True)
    return time.monotonic() - t
