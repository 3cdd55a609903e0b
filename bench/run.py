"""rigidconn benchmark: one workload, one seed, one line of metrics.

    python3 bench/run.py --workload mc_oracle --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  Every run starts fresh worker processes (worker.py): with
``--trace 0`` one timed process between two sets of set-up-only
processes, which give the end-to-end metrics; with ``--trace 1`` a
traced process and an untraced one over the same operations, which give
the per-layer metrics and the tracing overhead.  The metric names and
units are the ones listed in BENCHMARK.json.  The last line of standard output is the
result object; the line before it is a report with the counts behind
the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 4  # set-up-only processes before and again after the timed one
GRACE_S = 60.0  # time a worker may take beyond its measuring time
# latency_tail_ms percentile: fixed, so that it does not move with the
# operation count, and inside the dearest cluster of operations of every
# workload, where single stalls of the machine do not decide it
TAIL_PCT = 95


class WorkerFailed(Exception):
    pass


def run_worker(args: list[str], deadline_s: float, want_result: bool = True):
    """(CPU seconds from process start to READY, parsed RESULT) of one worker."""
    env = dict(os.environ, PYTHONHASHSEED="0")  # same set iteration order in every run
    proc = subprocess.Popen([sys.executable, WORKER, *args], stdout=subprocess.PIPE, cwd=ROOT, env=env)
    try:
        out, _ = proc.communicate(timeout=deadline_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerFailed(f"worker {args} exceeded {deadline_s:.0f} s")
    ready = result = None
    for line in out.decode().splitlines():
        if line.startswith("READY ") and ready is None:
            ready = float(line[len("READY "):])
        elif line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    if proc.returncode != 0 or ready is None or (want_result and result is None):
        raise WorkerFailed(f"worker {args} failed with exit code {proc.returncode}")
    return ready, result


def tail(lat_sorted: list[float], pct: float):
    """(value, samples beyond) of the nearest-rank percentile."""
    n = len(lat_sorted)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return lat_sorted[rank - 1], n - rank


def end_to_end(res: dict, setup: list[float]) -> tuple[dict, dict]:
    lat = sorted(res["latencies_s"])
    n = res["attempted"]
    value, beyond = tail(lat, TAIL_PCT)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": n / res["timed_s"],
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": value * 1e3,
        "verdict_ratio": 1.0 - res["error_ops"] / n,
        "check_pass_ratio": 1.0 - res["check_fail_ops"] / n,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    report = {
        "latency_tail_percentile": TAIL_PCT,
        "latency_tail_beyond": beyond,
        "latency_samples": n,
        "error_ratio": res["error_ops"] / n,
        "check_fail_ratio": res["check_fail_ops"] / n,
        "verdicts_by_kind": res["verdicts"],
        "errors_by_type": res["errors"],
        "check_failures_by_check": res["check_failures"],
        "timed_s": res["timed_s"],
        "wall_s": res["wall_s"],
        "setup_samples_s": setup,
        "per_shape": res["per_shape"],
    }
    return metrics, report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(BENCH, "manifest.json"), encoding="utf-8") as fh:
        known = json.load(fh)["known_failures"]
    if args.workload not in known:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    deadline = args.seconds + GRACE_S

    try:
        if args.trace:
            os.makedirs(OUT_DIR, exist_ok=True)
            prefix = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}")
            _, res = run_worker(base + ["--seconds", str(args.seconds), "--trace-out", prefix], deadline)
            # the same operations untraced: the difference is the overhead
            _, plain = run_worker(base + ["--max-ops", str(res["attempted"])], deadline)
            values = dict(res["layers"])
            values["trace.overhead_ratio"] = res["timed_s"] / plain["timed_s"] - 1.0
            listed = spec["per_layer"]
            report = {"trace": res["trace"], "verdicts_by_kind": res["verdicts"], "errors_by_type": res["errors"],
                      "check_failures_by_check": res["check_failures"]}
        else:
            def probes():
                return [run_worker(base + ["--setup-only"], deadline, want_result=False)[0]
                        for _ in range(SETUP_PROBES)]

            before = probes()
            ready, res = run_worker(base + ["--seconds", str(args.seconds)], deadline)
            values, report = end_to_end(res, before + [ready] + probes())
            listed = spec["end_to_end"]
    except WorkerFailed as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1

    k = known[args.workload]
    correct = set(res["errors"]) <= set(k["errors"]) and set(res["check_failures"]) <= set(k["checks"])
    if args.trace:
        correct = correct and values["trace.self_share"] <= 1.0 + 1e-9
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps({"report": {"workload": args.workload, "seed": args.seed, **report}}))
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed_ops"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
