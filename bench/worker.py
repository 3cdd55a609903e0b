"""One benchmark process: import rigidconn, build the seeded inputs, run
the closed loop, print the raw results.

Run by run.py, one fresh process per run, because ``radicals.TOWER`` and
the ``cyclo`` caches grow across operations.  Prints ``READY <s>`` once
the first operation can run, with the CPU time the process has used so
far, then ``RESULT <json>`` at the end.

Operations are timed on the thread's CPU clock, not the wall clock.  The
loop is single-threaded, pure computation and does no I/O, so its CPU
time is its wall time on a core of its own; on a shared virtual machine
the wall clock also counts the time the host gives the core to someone
else, which varies from run to run by as much as a fifth.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

MAX_SPANS = 3_000_000  # about 80 MB of span arrays
clock = time.thread_time


def shape_label(shape: dict) -> str:
    return json.dumps(shape, sort_keys=True, separators=(",", ":"))


def run_loop(workload, inputs, seconds: float, max_ops: int, tracer):
    """Single caller, next operation only after the previous returned.
    Stops at the first end of a block after `seconds` of wall time, or
    after `max_ops` operations when that is set.  Latencies and the timed
    total are CPU seconds."""
    ops = workload.ops(inputs)
    lat, timed = [], 0.0
    errors, checks, verdicts, per_shape = Counter(), Counter(), Counter(), {}
    error_ops = check_ops = failed_ops = 0
    n = 0
    start = time.perf_counter()
    while True:
        t0 = clock()
        if tracer is None:
            op = next(ops)
        else:
            with tracer.root("bench.feed", n):
                op = next(ops)
        if op is None:  # end of a block: a run stops only here
            timed += clock() - t0
            if not max_ops and time.perf_counter() - start >= seconds:
                break
            continue
        t1 = clock()
        err = None
        try:
            if tracer is None:
                out = op.run()
            else:
                with tracer.root("bench.op", n):
                    out = op.run()
        except Exception as e:  # an escaped exception is the op's outcome
            err = type(e).__name__
        t2 = clock()
        timed += t2 - t0
        lat.append(t2 - t1)
        stats = per_shape.setdefault(shape_label(op.shape), [0, 0, 0, 0.0])
        stats[0] += 1
        stats[3] += t2 - t1
        bad = []
        if err is not None:
            errors[err] += 1
            error_ops += 1
            stats[1] += 1
        else:
            verdicts[op.kind(out)] += 1
            bad = op.check(out)
        bad += op.close(err is None)
        if bad:
            checks.update(bad)
            check_ops += 1
            stats[2] += 1
        failed_ops += err is not None or bool(bad)
        out = None  # release the result before the next operation runs
        n += 1
        if n == max_ops or (tracer is not None and tracer.full):
            break
    return {
        "attempted": n,
        "failed_ops": failed_ops,
        "error_ops": error_ops,
        "check_fail_ops": check_ops,
        "errors": dict(errors),
        "verdicts": dict(verdicts),
        "check_failures": dict(checks),
        "per_shape": {
            k: {"ops": a, "errors": e, "check_fails": c, "op_s": t} for k, (a, e, c, t) in per_shape.items()
        },
        "latencies_s": lat,
        "timed_s": timed,
        "wall_s": time.perf_counter() - start,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--max-ops", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", default="", help="trace this run; span file prefix")
    args = ap.parse_args(argv)

    import workloads

    w = workloads.WORKLOADS[args.workload]
    inputs = w.inputs(args.seed)
    print(f"READY {time.process_time()!r}", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace_out:
        import tracing

        tracer = tracing.Tracer(MAX_SPANS)
        tracer.install()
    try:
        res = run_loop(w, inputs, args.seconds, args.max_ops, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        from rigidconn import radicals

        levels = set(tracing.PROBE_LEVELS) | {lv for _, lv in tracer.cyclo_counts}
        probe = tracing.probe_cyclo(tracer.cyclo_samples, levels, args.seed)
        header = tracer.write(args.trace_out)
        res["layers"] = tracing.layer_metrics(tracer, probe, len(radicals.TOWER.entries))
        res["trace"] = {
            "spans": header["spans"],
            "files": [args.trace_out + ".json", args.trace_out + ".bin"],
            "span_cap_hit": tracer.full,
            "cyclo_probe_source": {f"{op}.L{lv}": s for (op, lv), s in probe["source"].items()},
            "cyclo_counts": {f"{op}.L{lv}": c for (op, lv), c in sorted(tracer.cyclo_counts.items())},
        }
    print("RESULT " + json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
