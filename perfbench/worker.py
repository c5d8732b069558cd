"""One workload process: import resnet.cli, run ``main(argv)`` once, report.

Usage: worker.py SPEC_JSON, where SPEC_JSON holds ``t0`` (the parent's
``time.monotonic()`` just before it started this process), ``argv`` (CLI
arguments) and ``spans`` (a path to write a span trace to, or null for an
untraced run).  The last line of standard output is a JSON object with
``setup_s``, ``wall_s``, ``exit``, ``peak_rss_mb`` and, when traced, the
per-layer ``layers`` metrics.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import resnet.cli  # noqa: E402  (the import is what setup_s measures)

_imported = time.monotonic()


def main(spec_text):
    import json
    import resource
    from contextlib import nullcontext

    spec = json.loads(spec_text)
    result = {"setup_s": _imported - spec["t0"]}
    tracer = None
    if spec["spans"] is not None:
        from spans import Tracer
        tracer = Tracer()
    with tracer.installed() if tracer else nullcontext():
        t = time.perf_counter()
        code = resnet.cli.main(spec["argv"])
        result["wall_s"] = time.perf_counter() - t
    result["exit"] = code
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.write(spec["spans"])
        result["layers"] = tracer.layer_metrics()
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
