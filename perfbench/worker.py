"""One workload in one fresh process; started by run.py, prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode MODE --scratch DIR

MODE is
* setup - import nil3lab, build the inputs, report the seconds this took;
* run   - set up, then repeat untraced passes while another one fits in S
          seconds (at least one); report each pass's seconds and the peak
          RSS after the first pass;
* trace - set up, then alternate untraced and traced passes while another
          pair fits in S seconds (at least one pair); report per-layer
          metrics and the tracing overhead, and write the spans of the last
          traced pass.

Outputs of every pass are checked; the check time is not part of a pass.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def run_pass(ops, tracer=None):
    """Run every operation once; returns (seconds, outputs, failures)."""
    outputs, failed = [], 0
    start = time.perf_counter()
    for label, op in ops:
        try:
            if tracer is None:
                outputs.append(op())
            else:
                with tracer.span(f"op {label}"):
                    outputs.append(op())
        except Exception:  # a failed operation is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            print(f"operation failed: {label}", file=sys.stderr)
            outputs.append(None)
            failed += 1
    return time.perf_counter() - start, outputs, failed


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.scratch)
    setup_s = time.perf_counter() - _T0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    ops = workload.operations()
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()

    pass_s, traced_s, layers = [], [], []
    attempted = failed = 0
    problems = []
    peak_rss_kb = None
    start = time.perf_counter()
    while True:
        secs, outputs, fails = run_pass(ops)
        pass_s.append(secs)
        if peak_rss_kb is None:
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                secs_t, outputs_t, fails_t = run_pass(ops, tracer)
            finally:
                tracer.uninstall()
            traced_s.append(secs_t)
            layers.append(tracer.layer_metrics())
            problems += tracer.nesting_errors()[:5]
            attempted += len(ops)
            failed += fails_t
            if fails_t == 0:
                problems += workload.check(outputs_t)
        attempted += len(ops)
        failed += fails
        if fails == 0:
            problems += workload.check(outputs)
        # stop before a pass that would end after --seconds (the first always runs)
        elapsed = time.perf_counter() - start
        if elapsed * (len(pass_s) + 1) / len(pass_s) > args.seconds:
            break

    import numpy
    import scipy

    result = {
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
        "setup_s": setup_s,
        "pass_s": pass_s,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }
    if tracer is not None:
        per_layer = {k: statistics.median_low(d[k] for d in layers) for k in layers[0]}
        per_layer["trace.run_s"] = statistics.fmean(traced_s)
        per_layer["trace.overhead_s"] = statistics.fmean(traced_s) - statistics.fmean(pass_s)
        result["traced_pass_s"] = traced_s
        result["per_layer"] = per_layer
        result["missing_seams"] = tracer.missing
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
