"""The modhash benchmark: one workload, one seed, one measured window.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; modhash is imported from its src/ tree.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With --trace 0 the metrics
are the end-to-end ones, measured with tracing off; with --trace 1 they are
the per-layer ones, from a run whose first third is untraced (for the
tracing overhead) and whose rest is traced. Earlier lines give machine
facts, sample counts, server state and any failed checks. The closed loops
run in client processes (see workloads.py).
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time
from collections import defaultdict

from _paths import use_checkout_src

use_checkout_src()

import cryptography  # noqa: E402
import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "network": "loopback only (127.0.0.1)",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cryptography": cryptography.__version__,
    }


def _client_percentile_ms(windows, q: float) -> float:
    """The q-th percentile of each client's latencies, averaged over clients.
    Clients on vCPUs of different speed have latencies in different modes;
    a percentile of the pooled latencies would jump between them."""
    return statistics.fmean(float(np.percentile(w.latencies, q)) for w in windows if w.latencies) * 1000.0


def end_to_end_metrics(result, setup_times, attempted, failed) -> dict:
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (result.rss_mb, "MB"),
        "ok_share": (max(attempted - failed, 0) / attempted, "share"),
        "throughput_per_s": (sum(w.work / w.elapsed for w in result.windows), "1/s"),
        "p50_ms": (_client_percentile_ms(result.windows, 50), "ms"),
        "p90_ms": (_client_percentile_ms(result.windows, 90), "ms"),
    }


def _summed(dicts) -> dict:
    out = defaultdict(float)
    for d in dicts:
        for k, v in d.items():
            out[k] += v
    return dict(out)


def per_layer_metrics(result) -> dict:
    self_s = _summed(s for s, _ in result.layers)
    counts = _summed(c for _, c in result.layers)
    ops = counts["bench.ops"]
    values = spans.layer_values(spans.LAYER_METRICS, self_s, counts, ops)
    server = (result.server or {}).get("layers") or {"self_s": {}, "counts": {}}
    values.update(spans.layer_values(spans.SERVER_METRICS, server["self_s"], server["counts"], ops))
    units = {name: unit for name, unit, _ in spans.LAYER_METRICS + spans.SERVER_METRICS}
    metrics = {name: (values[name], units[name]) for name in values}
    op_s = sum(self_s.values()) / ops
    untraced_op_s = statistics.fmean(t for w in result.untraced for t in w.latencies)
    metrics.update({
        "trace.ops": (int(ops), "count"),
        "trace.op_s": (op_s, "s/op"),
        "trace.untraced_op_s": (untraced_op_s, "s/op"),
        "trace.overhead_s": (op_s - untraced_op_s, "s/op"),
        "trace.bench_self_s": (self_s.get("bench.op", 0.0) / ops, "s/op"),
    })
    return metrics


def write_spans(workload: str, seed: int, sample) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{workload}-{seed}.jsonl")
    with open(path, "w") as fh:
        for span in sample:
            fh.write(json.dumps(span) + "\n")
    return path


def _info(tag: str, doc):
    print(f"{tag} {json.dumps(doc)}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    _info("machine", machine_facts())

    trace = bool(args.trace)
    setup_times = []
    bench = None
    try:
        for _ in range(SETUP_REPEATS):
            if bench is not None:
                bench.close()
                bench = None
            t0 = time.perf_counter()
            bench = workloads.Bench(args.workload, args.seed, trace)
            setup_times.append(time.perf_counter() - t0)
        result = bench.run(args.seconds, trace)
    finally:
        if bench is not None:
            bench.close()

    windows = result.windows + result.untraced
    attempted = sum(w.attempted for w in windows) + len(result.failures)
    failed = sum(w.failed for w in windows) + len(result.failures)
    _info("run", {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "clients_per_process": workloads.PROCESSES.get(args.workload, workloads.DEFAULT_PROCESSES),
        "ops_ok": [w.ok for w in result.windows],
        "ops_failed": [w.failed for w in result.windows],
        "work": [w.work for w in result.windows],
        "work_unit": "rounds" if args.workload == "montecarlo" else "sessions",
        "elapsed_s": [w.elapsed for w in result.windows],
        "setup_s_each": setup_times,
    })
    if result.server is not None:
        _info("server_state", result.server["state"])
    for message in ([e for w in windows for e in w.errors] + result.failures)[: workloads.MAX_ERRORS_KEPT]:
        _info("failure", message)
    if not any(w.latencies for w in result.windows):
        print("perfbench: no operation succeeded; no metrics to report", file=sys.stderr)
        return 1

    if trace:
        metrics = per_layer_metrics(result)
        _info("spans_written", write_spans(args.workload, args.seed, result.sample))
    else:
        metrics = end_to_end_metrics(result, setup_times, attempted, failed)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
