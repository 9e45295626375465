"""One repeat of one workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD SIZE INPUTS SCRATCH TRACED

Times set-up, and the workload's operations both in wall time and in the
process's CPU time (user + system), optionally under the tracer, and
prints one JSON object on its last line of standard output. run.py
starts it once per repeat, so each repeat has its own peak RSS and no
module-level cache survives from one repeat to the next.
"""

import time

START = time.perf_counter()
import scriptshift  # noqa: E402,F401  (set-up starts with the import)
IMPORT_S = time.perf_counter() - START

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def main(argv):
    workload, size, inputs, scratch, traced = argv
    inputs, scratch = Path(inputs), Path(scratch)
    traced = traced == "1"
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.install()
    setup_start = time.perf_counter()
    state = workloads.setup(workload, inputs, size)
    run_cpu_start = time.process_time()
    run_start = time.perf_counter()
    if tracer is not None:
        tracer.mark_run_start()
    ops, extra = workloads.run(workload, state, scratch, time.perf_counter)
    run_s = time.perf_counter() - run_start
    run_cpu_s = time.process_time() - run_cpu_start

    result = {"setup_s": IMPORT_S + run_start - setup_start,
              "run_s": run_s, "run_cpu_s": run_cpu_s}
    if tracer is not None:
        tracer.uninstall()
    extra = workloads.finish(ops, extra, scratch)
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, run_s,
                                                 extra["prepared_words"])
        result["missing"] = tracer.missing
    result.update(extra)
    result["ops"] = ops
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
