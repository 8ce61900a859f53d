"""One pass of a benchmark workload in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED TRACE_FILE

Run with the pass directory as working directory and lowdisc's sources on
PYTHONPATH.  TRACE_FILE is "-" for an untraced pass; otherwise the pass is
traced and its spans are written there.  Prints one JSON object: the pass
time, this process's peak resident memory, every operation, and for a
traced pass the per-layer metrics.  A fresh process per pass gives every
pass the same cold start that each CLI invocation has.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import resource
import sys
import time

from workloads import WORKLOADS


def main(argv: list[str]) -> int:
    name, seed, trace_file = argv[0], int(argv[1]), argv[2]
    workload = WORKLOADS[name]
    jobs = workload.inputs(seed)
    tracer = None
    if trace_file != "-":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    gc.collect()
    start = time.perf_counter()
    try:
        ops = workload.run_pass(jobs)
    finally:
        pass_s = time.perf_counter() - start
        if tracer:
            tracer.uninstall()
    result = {
        "pass_s": pass_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": [dataclasses.asdict(op) for op in ops],
    }
    if tracer:
        result["layers"] = tracer.layer_metrics()
        with open(trace_file, "w") as fh:
            json.dump({"spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
