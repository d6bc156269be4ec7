"""Bob and Charlie for the benchmark's `tcp` workload, in one child process.

Protocol on stdin/stdout, one line each:

    stdin   {"x2": [...], "trace": bool}      configuration, first line
    stdout  {"bob": [host, port], "charlie": [host, port]}   when listening
    stdin   RESET                             zero the layer totals (traced runs)
    stdin   STOP [session id hex, ...]        wait for Bob's estimates of these
                                              sessions, report and exit
    stdout  {"bob": {session id hex: [mean "p/q", estimate or null]},
             "state": {...}, "layers": {...}}

The state readings are taken from outside the library: live threads in this
process, the number of results Bob holds, this process's resident memory and
its growth since the servers started, per session Bob holds.
"""

import json
import resource
import sys
import threading
import time

from _paths import use_checkout_src

use_checkout_src()

import numpy as np  # noqa: E402

from modhash.errors import TransportClosed  # noqa: E402
from modhash.transport import BobServer, CharlieServer  # noqa: E402
from spans import Tracer, traced  # noqa: E402

AWAIT_RESULT_S = 5.0


def _rss_mb() -> float:
    """Current resident set size; the peak if /proc is unavailable."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def serve(cfg: dict, tracer: Tracer | None):
    charlie = CharlieServer().start()
    bob = BobServer(np.asarray(cfg["x2"], dtype=np.float64), charlie.address).start()
    rss_ready = _rss_mb()
    try:
        print(json.dumps({"bob": list(bob.address), "charlie": list(charlie.address)}), flush=True)
        for line in sys.stdin:
            command, _, rest = line.strip().partition(" ")
            if command == "RESET" and tracer is not None:
                tracer.reset()
            elif command == "STOP":
                # Bob records a three-party estimate on the thread that reads
                # Charlie's reply, which may finish after Alice has hers.
                deadline = time.monotonic() + AWAIT_RESULT_S
                for sid in json.loads(rest or "[]"):
                    try:
                        bob.wait_result(bytes.fromhex(sid), max(deadline - time.monotonic(), 0.0))
                    except TransportClosed:
                        pass  # reported missing; the benchmark's check fails
                results = dict(bob.results)
                rss = _rss_mb()
                report = {
                    "bob": {
                        sid.hex(): [f"{est.mean_lee.numerator}/{est.mean_lee.denominator}", est.value]
                        for sid, est in results.items()
                    },
                    "state": {
                        "threads": threading.active_count(),
                        "results_held": len(results),
                        "rss_mb": rss,
                        "rss_growth_kb_per_session": (rss - rss_ready) * 1024.0 / max(len(results), 1),
                    },
                    "layers": None,
                }
                if tracer is not None:
                    self_s, counts = tracer.totals()
                    report["layers"] = {"self_s": self_s, "counts": counts}
                print(json.dumps(report), flush=True)
                break
    finally:
        bob.stop()
        charlie.stop()


def main():
    cfg = json.loads(sys.stdin.readline())
    if cfg["trace"]:
        tracer = Tracer()
        with traced(tracer):
            serve(cfg, tracer)
    else:
        serve(cfg, None)


if __name__ == "__main__":
    main()
