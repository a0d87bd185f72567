"""One benchmark round in a fresh interpreter.

Usage: python3 bench/worker.py '<json params>'

Run by bench/run.py with the repo root as working directory and src on
PYTHONPATH. A fresh process per round matters: germs.grm is a
process-wide cache keyed by whole posets, so replaying inputs inside one
process would measure cache hits. Prints one JSON object as the last line
of stdout.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    params = json.loads(sys.argv[1])
    root = Path(__file__).resolve().parent.parent
    start = time.perf_counter()
    import germclosure

    if Path(germclosure.__file__).resolve().parent != root / "src" / "germclosure":
        print(f"imported germclosure from {germclosure.__file__}, not {root}/src",
              file=sys.stderr)
        return 2
    import workloads

    workload = params["workload"]
    state = workloads.PREPARE[workload](params, root)
    setup_s = time.perf_counter() - start

    tracer = None
    if params.get("trace"):
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    outcome = workloads.EXECUTE[workload](state)
    result = {
        "setup_s": setup_s,
        "wall_s": outcome.wall_s,
        "latencies": outcome.latencies,
        "attempted": outcome.attempted,
        "failures": outcome.failures,
        "digest": outcome.digest,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = tracer.summary(outcome.wall_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
