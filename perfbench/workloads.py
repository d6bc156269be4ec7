"""The benchmark's workloads: inputs made from a seed, closed loops in client
processes, and the checks on what modhash returns.

A run starts two client processes, one per CPU of the reference machine.
Each client sets up its own copy of the workload, runs its own closed loop
over a disjoint share of the numbered operations, checks its outputs and
sends its figures back. One busy process on a two-vCPU virtual machine is
slowed, by up to a third and for minutes at a time, by whatever the host runs
on the idle vCPU; with both vCPUs busy the run-to-run spread is about three
times smaller.

Every workload calls modhash through module attributes (`protocol.drive_local`,
`transport.run_over_tcp`, `simulate.run_sweep`) so that the tracing wrappers
in spans.py see the calls when they are installed.
"""

import hashlib
import itertools
import json
import math
import multiprocessing.connection
import queue
import resource
import socket
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

import modhash.protocol as protocol
import modhash.simulate as simulate
import modhash.transport as transport
import spans
from modhash.analysis import EstimateMode, ProtocolParams, expected_lee, plan_parameters
from modhash.messages import THREE_PARTY_KINDS, ProtocolKind

HERE = Path(__file__).resolve().parent

# Client numbers run by each client process. Two clients, one per CPU, keep
# both vCPUs busy. On tcp, two Alices leave CPUs idle while they wait on the
# server, and the figures then follow the host's scheduling (0.10 to 0.30 of
# the median between runs); four Alices, two threads in each of two
# processes, keep the whole system CPU-bound (0.05 to 0.07).
PROCESSES = {"tcp": ((0, 1), (2, 3))}
DEFAULT_PROCESSES = ((0,), (1,))
UNTRACED_SHARE = 1.0 / 3.0  # of a traced run, measured untraced for the overhead
# A client still busy this long after the window closed is stuck: the server
# child is stopped so that its blocked reads end in TransportClosed.
DEADLINE_GRACE_S = 20.0
CLIENT_START_TIMEOUT_S = 120.0
SERVER_START_TIMEOUT_S = 60.0
SERVER_STOP_TIMEOUT_S = 20.0
MAX_ERRORS_KEPT = 10
PAIRS_PER_CLASS = 4  # inputs made per distance class, then cycled


def derive_seed(seed: int, label: str, i: int) -> bytes:
    """32-byte protocol or sweep seed for operation i of a workload."""
    return hashlib.sha256(f"modhash-bench/{seed}/{label}/{i}".encode()).digest()


def offset(rng: np.random.Generator, n: int, distance: float) -> np.ndarray:
    """A vector of length `distance` in a uniformly random direction."""
    u = rng.standard_normal(n)
    return (distance / np.linalg.norm(u)) * u


def pair_at(rng: np.random.Generator, n: int, distance: float) -> tuple[np.ndarray, np.ndarray]:
    """x1 standard normal and x2 at `distance` from it."""
    x1 = rng.standard_normal(n)
    return x1, x1 + offset(rng, n, distance)


def distance_classes(threshold: float) -> tuple[tuple[str, float], ...]:
    """Tiny (series at its slowest), below the knee (curve inverted), saturated."""
    return (("tiny", 1e-4), ("below-knee", threshold / 2.0), ("saturated", 200.0 * threshold))


@dataclass
class Window:
    """What one client's measured window produced."""

    latencies: list = field(default_factory=list)  # seconds, successful operations
    ok: int = 0
    failed: int = 0
    work: int = 0  # sessions or trials done by the successful operations
    elapsed: float = 0.0
    errors: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return self.ok + self.failed


def measure(workload, seconds: float, tracer=None) -> Window:
    """Closed loop: start the next operation when the previous one returns,
    until `seconds` have passed; the last one runs to completion."""
    win = Window()
    op = workload.op if tracer is None else tracer.operation(workload.op)
    start = t1 = time.perf_counter()
    while t1 < start + seconds:
        i = next(workload.counter)
        t0 = time.perf_counter()
        try:
            work, ok = op(i)
            error = None if ok else f"op {i}: output check failed"
        except Exception:  # a failed operation is counted, and the loop goes on
            work, ok, error = 0, False, f"op {i}: {traceback.format_exc(limit=3)}"
        t1 = time.perf_counter()
        if ok:
            win.ok += 1
            win.work += work
            win.latencies.append(t1 - t0)
        else:
            win.failed += 1
            if len(win.errors) < MAX_ERRORS_KEPT:
                win.errors.append(error)
    win.elapsed = t1 - start
    return win


class Workload:
    """Base: a seeded set-up, numbered operations, and checks after the window."""

    def setup(self, seed: int, client: int = 0, clients: int = 1):
        """Make the inputs from the seed and run one warm-up operation.
        Client c of C runs operations c, c+C, c+2C, ..."""
        self.seed = seed
        self.counter = itertools.count(client, clients)
        self.prepare()
        self.op(next(self.counter))

    def prepare(self):
        raise NotImplementedError

    def op(self, i: int) -> tuple[int, bool]:
        """Run operation i; return (work units done, output check passed)."""
        raise NotImplementedError

    def verify(self) -> list[str]:
        """Checks after the window; one message per failed check."""
        return []

    def outcome(self) -> dict:
        """What the run needs from this client to check it against others."""
        return {}


# ---------------------------------------------------------------- local


class LocalWorkload(Workload):
    """drive_local at the planned point k=28, M=2989, P=29890, N=100, with
    curve-inverted estimates. Each pair runs all four kinds with one seed.
    One operation is a round of three pairs, one of each distance class: the
    classes cost very different amounts (a tiny distance inverts the slow end
    of the series only when some component differs, for about one key in
    three), so a round has a steadier latency than a pair."""

    n = 100

    def prepare(self):
        self.params = plan_parameters(5.0, 1.0, 10)
        rng = np.random.default_rng(self.seed)
        self.classes = distance_classes(self.params.threshold)
        self.pairs = [
            (label, d, *pair_at(rng, self.n, d))
            for _ in range(PAIRS_PER_CLASS)
            for label, d in self.classes
        ]
        self.means: dict[int, Fraction] = {}

    def _pair_ok(self, p: int) -> bool:
        """Run pair p under all four kinds with one seed and check the outputs."""
        cls, d, x1, x2 = self.pairs[p % len(self.pairs)]
        seed = derive_seed(self.seed, "pair", p)
        means = set()
        ok = True
        for kind in ProtocolKind:
            run = protocol.drive_local(kind, x1, x2, self.params, seed, mode=EstimateMode.CURVE_INVERTED)
            est = run.alice_estimate
            means.add(run.mean_lee)
            ok = ok and est == run.bob_estimate and est.mean_lee == run.mean_lee
            if cls == "saturated":
                ok = ok and (est.saturated or est.value > self.params.threshold)
            else:
                ok = ok and not est.saturated and abs(est.value - d) <= self.params.epsilon
        self.means[p] = run.mean_lee
        return ok and len(means) == 1  # every kind gives the identical exact mean

    def op(self, i: int) -> tuple[int, bool]:
        pairs = range(len(self.classes) * i, len(self.classes) * (i + 1))
        ok = all([self._pair_ok(p) for p in pairs])
        return len(pairs) * len(ProtocolKind), ok


# ---------------------------------------------------------------- tcp


TCP_KINDS = (ProtocolKind.FULL_KEY_3P, ProtocolKind.TWO_PARTY_HAMMING, ProtocolKind.OBFUSCATED_3P)


def tcp_inputs(seed: int) -> tuple[ProtocolParams, np.ndarray, list]:
    """Parameters, Bob's fixed vector and a pool of (class, distance, x1) for Alice."""
    params = ProtocolParams.from_dimensions(8, 244)
    rng = np.random.default_rng(seed)
    x2 = rng.standard_normal(50)
    xs = [
        (label, d, x2 + offset(rng, 50, d))
        for _ in range(PAIRS_PER_CLASS)
        for label, d in distance_classes(params.threshold)
    ]
    return params, x2, xs


def _fraction_text(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


class ServerChild:
    """Bob and Charlie in one child process (server.py), driven over its stdin."""

    def __init__(self, x2: np.ndarray, trace: bool):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self._lines: "queue.Queue[str | None]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, name="server-stdout", daemon=True)
        self._reader.start()
        try:
            self._send(json.dumps({"x2": [float(v) for v in x2], "trace": trace}))
            ready = json.loads(self._line(SERVER_START_TIMEOUT_S))
        except BaseException:
            self.kill()
            raise
        self.bob = tuple(ready["bob"])
        self.charlie = tuple(ready["charlie"])

    def _read(self):
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _line(self, timeout: float) -> str:
        line = self._lines.get(timeout=timeout)
        if line is None:
            raise RuntimeError(f"server child exited with code {self.proc.wait()}")
        return line

    def _send(self, text: str):
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()

    def reset_trace(self):
        self._send("RESET")

    def stop(self, session_ids) -> dict:
        """Ask for the report (Bob's estimates of `session_ids`, server state,
        layer totals), then reap."""
        if self.proc.poll() is not None:
            raise RuntimeError(f"server child already exited with code {self.proc.returncode}")
        try:
            self._send("STOP " + json.dumps(list(session_ids)))
            report = json.loads(self._line(SERVER_STOP_TIMEOUT_S))
            self.proc.stdin.close()
            self.proc.wait(timeout=SERVER_STOP_TIMEOUT_S)
        finally:
            self.kill()
        return report

    def kill(self):
        """End the child now if it is still running, and reap it."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._reader.join(timeout=5.0)
        if not self.proc.stdin.closed:
            self.proc.stdin.close()


class TcpWorkload(Workload):
    """run_over_tcp from one Alice client against Bob and Charlie in the
    server child, at k=8, M=244, N=50, raw estimates. One operation is a
    round of three sessions, full-key, two-party and obfuscated, on one of
    Alice's vectors; successive rounds cycle through the distance classes."""

    def __init__(self, server: tuple):
        self.bob, self.charlie = server

    def prepare(self):
        self.params, self.x2, self.xs = tcp_inputs(self.seed)
        self.alice: dict[int, tuple] = {}

    def session(self, s: int):
        """(kind, x1, seed) of session s; round s // 3 uses one vector for all kinds."""
        kind = TCP_KINDS[s % len(TCP_KINDS)]
        _cls, _d, x1 = self.xs[(s // len(TCP_KINDS)) % len(self.xs)]
        return kind, x1, derive_seed(self.seed, "session", s)

    def op(self, i: int) -> tuple[int, bool]:
        ok = True
        for s in range(len(TCP_KINDS) * i, len(TCP_KINDS) * (i + 1)):
            kind, x1, seed = self.session(s)
            charlie = self.charlie if kind in THREE_PARTY_KINDS else None
            run = transport.run_over_tcp(kind, x1, self.params, seed, self.bob, charlie, timeout=10.0)
            self.alice[s] = (run.session_id.hex(), run.mean_lee, run.estimate)
            ok = ok and run.estimate is not None and run.estimate.mean_lee == run.mean_lee
        return len(TCP_KINDS), ok

    def verify(self) -> list[str]:
        """On the first two sessions of each kind, the mean over TCP equals
        drive_local's for the same kind, pair and seed."""
        failures = []
        sample = defaultdict(list)
        for s in sorted(self.alice):
            sample[self.session(s)[0]].append(s)
        for kind, sessions in sample.items():
            for s in sessions[:2]:
                _kind, x1, seed = self.session(s)
                local = protocol.drive_local(kind, x1, self.x2, self.params, seed)
                if local.mean_lee != self.alice[s][1]:
                    failures.append(f"session {s}: TCP mean {self.alice[s][1]} != local {local.mean_lee}")
        return failures

    def outcome(self) -> dict:
        return self.alice


def bob_matches_alice(report, alice: dict) -> list[str]:
    """Bob's estimate of every session, as reported by the server child at
    shutdown, equals Alice's (mean "p/q" and value)."""
    if report is None:
        return ["the server child gave no report of Bob's estimates"]
    failures = []
    for s, (sid, mean, est) in sorted(alice.items()):
        want = [_fraction_text(mean), est.value]
        if report["bob"].get(sid) != want:
            failures.append(f"session {s}: Bob reported {report['bob'].get(sid)}, Alice {want}")
    return failures


# ---------------------------------------------------------------- Monte-Carlo


class CurvePhase(Workload):
    """run_sweep rows of acceptance criterion 6's grid, one trial per call:
    N=5000, M=500, k in {4, 8, 16}, distances k*i/8 (i=0..8) and 100k."""

    m, n = 500, 5000

    def prepare(self):
        self.rows = [
            (k, d) for k in (4, 8, 16) for d in sorted({k * i / 8.0 for i in range(9)} | {100.0 * k})
        ]
        self.means = defaultdict(list)

    def op(self, i: int) -> tuple[int, bool]:
        k, d = self.rows[i % len(self.rows)]
        spec = simulate.SweepSpec((k,), self.m, self.n, (d,), 1, derive_seed(self.seed, "curve", i))
        (row,) = simulate.run_sweep(spec)
        self.means[(k, d)].append(row.empirical_mean)
        return 1, 0.0 <= row.empirical_mean <= k / 2.0

    def verify(self) -> list[str]:
        """Criterion 6's band per (k, distance) row over the trials of this run."""
        failures = []
        for (k, d), means in sorted(self.means.items()):
            band = 3.0 * (k / 2.0) / (2.0 * math.sqrt(self.m * len(means)))
            dev = abs(float(np.mean(means)) - expected_lee(d, k))
            if dev > band:
                failures.append(f"k={k} d={d}: deviation {dev:.4f} over band {band:.4f}")
        return failures


class BridgePhase(Workload):
    """run_sweep rows of acceptance criterion 3's shape, 100 trials per call:
    M=N=1, k=8, distances 0.5, 1, 2, 4, 8."""

    k, trials = 8, 100
    distances = (0.5, 1.0, 2.0, 4.0, 8.0)
    # 3 SE per point, as in criterion 3, fails 1.35 % of correct runs across
    # five points once every run draws fresh keys; 5 SE fails ~3e-6 of them.
    se_band = 5.0

    def prepare(self):
        self.sums = {d: [0, 0.0, 0.0] for d in self.distances}  # trials, sum, sum of squares

    def op(self, i: int) -> tuple[int, bool]:
        d = self.distances[i % len(self.distances)]
        spec = simulate.SweepSpec((self.k,), 1, 1, (d,), self.trials, derive_seed(self.seed, "bridge", i))
        (row,) = simulate.run_sweep(spec)
        acc = self.sums[d]
        acc[0] += self.trials
        acc[1] += self.trials * row.empirical_mean
        acc[2] += (self.trials - 1) * row.empirical_std**2 + self.trials * row.empirical_mean**2
        return self.trials, 0.0 <= row.empirical_mean <= self.k / 2.0

    def verify(self) -> list[str]:
        """Pooled mean per distance within se_band standard errors of expected_lee."""
        failures = []
        for d, (n, s, s2) in self.sums.items():
            mean = s / n
            se = math.sqrt(max(s2 - n * mean * mean, 0.0) / (n - 1) / n)
            theory = expected_lee(d, self.k)
            if abs(mean - theory) > self.se_band * se:
                failures.append(f"d={d}: |{mean:.4f} - {theory:.4f}| > {self.se_band} SE = {self.se_band * se:.4f}")
        return failures


class MonteCarloWorkload(Workload):
    """Criteria 6 and 3 in one closed loop. One operation is a round: one
    curve trial (bulk keygen, about 120 ms) and one bridge row of 100 trials
    (per-call overhead of tiny keys, about 15 ms). Run as a workload of its
    own, the bridge row followed the host's drift from run to run (0.14 to
    0.22 of the median between quartiles); inside a round it still shows."""

    def prepare(self):
        self.phases = (CurvePhase(), BridgePhase())
        for phase in self.phases:
            phase.seed = self.seed
            phase.prepare()

    def op(self, i: int) -> tuple[int, bool]:
        oks = [phase.op(i)[1] for phase in self.phases]
        return 1, all(oks)

    def verify(self) -> list[str]:
        return [f for phase in self.phases for f in phase.verify()]


def make(name: str, server: tuple | None = None) -> Workload:
    """The workload called `name` (the names in BENCHMARK.json); tcp needs
    the (Bob, Charlie) addresses of the server child."""
    if name == "tcp":
        return TcpWorkload(server)
    return {"local": LocalWorkload, "montecarlo": MonteCarloWorkload}[name]()


WORKLOADS = ("local", "tcp", "montecarlo")


# ---------------------------------------------------------------- a run


def _measure_all(wls, seconds: float, tracer=None) -> list[Window]:
    """One closed loop per workload copy, each on its own thread."""
    windows = [None] * len(wls)

    def loop(k):
        windows[k] = measure(wls[k], seconds, tracer)

    threads = [threading.Thread(target=loop, args=(k,), name=f"bench-client-{k}") for k in range(len(wls))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return windows


def client_main(conn, name: str, seed: int, clients: tuple, of: int, server):
    """One client process running client numbers `clients` of `of`: set up,
    say "ready", run the plan it is sent (start time, seconds, traced) and
    send back what it measured."""
    wls = [make(name, server) for _ in clients]
    for wl, c in zip(wls, clients):
        wl.setup(seed, c, of)
    conn.send("ready")
    plan = conn.recv()
    if plan is None:
        return
    start_at, seconds, trace = plan
    time.sleep(max(0.0, start_at - time.time()))
    out = {"untraced": [], "layers": None, "sample": []}
    if trace:
        out["untraced"] = _measure_all(wls, seconds * UNTRACED_SHARE)
        tracer = spans.Tracer()
        with spans.traced(tracer):
            out["windows"] = _measure_all(wls, seconds * (1 - UNTRACED_SHARE), tracer)
        out["layers"] = tracer.totals()
        out["sample"] = tracer.sample
    else:
        out["windows"] = _measure_all(wls, seconds)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["failures"] = [f for wl in wls for f in wl.verify()]
    out["outcome"] = {k: v for wl in wls for k, v in wl.outcome().items()}
    conn.send(out)


@dataclass
class RunResult:
    """The figures of every client of one run, and the checks that failed."""

    windows: list  # the measured window of each client
    untraced: list  # each client's untraced window, in a traced run
    layers: list  # each client process's (self times, counts), in a traced run
    sample: list  # spans kept verbatim by the first client process
    rss_mb: float  # the largest client process's peak
    failures: list
    server: dict | None  # the server child's report, on tcp


class Bench:
    """One set-up of a workload: its client processes, and the server child
    on tcp, ready to measure one window. Close it to stop them."""

    def __init__(self, name: str, seed: int, trace: bool):
        self.server = None
        self.procs, self.conns = [], []
        try:
            if name == "tcp":
                self.server = ServerChild(tcp_inputs(seed)[1], trace)
            addresses = (self.server.bob, self.server.charlie) if self.server else None
            layout = PROCESSES.get(name, DEFAULT_PROCESSES)
            of = sum(len(clients) for clients in layout)
            for clients in layout:
                # Plain child processes, each waited for in close(); the
                # multiprocessing start methods leave a helper process behind.
                here, there = socket.socketpair()
                with here, there:
                    args = json.dumps([name, seed, list(clients), of, addresses])
                    self.procs.append(subprocess.Popen(
                        [sys.executable, str(HERE / "client.py"), str(there.fileno()), args],
                        pass_fds=(there.fileno(),), stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                    ))
                    self.conns.append(multiprocessing.connection.Connection(here.detach()))
            for conn in self.conns:
                if not conn.poll(CLIENT_START_TIMEOUT_S) or conn.recv() != "ready":
                    raise RuntimeError("a benchmark client failed to set up")
        except BaseException:
            self.close()
            raise

    def run(self, seconds: float, trace: bool) -> RunResult:
        start_at = time.time() + 0.1
        for conn in self.conns:
            conn.send((start_at, seconds, trace))
        if trace and self.server is not None:
            time.sleep(max(0.0, start_at + seconds * UNTRACED_SHARE - time.time()))
            self.server.reset_trace()
        outs, failures = self._collect(start_at + seconds + DEADLINE_GRACE_S)
        report = None
        if self.server is not None:
            alice = {s: v for out in outs for s, v in out["outcome"].items()}
            try:
                report = self.server.stop(sid for sid, _mean, _est in alice.values())
            except (OSError, RuntimeError, ValueError, queue.Empty, subprocess.TimeoutExpired):
                pass  # killed at the deadline, or died: the check below says so
            failures += bob_matches_alice(report, alice)
        return RunResult(
            windows=[w for out in outs for w in out["windows"]],
            untraced=[w for out in outs for w in out["untraced"]],
            layers=[out["layers"] for out in outs if out["layers"] is not None],
            sample=outs[0]["sample"] if outs else [],
            rss_mb=max((out["rss_mb"] for out in outs), default=0.0),
            failures=failures + [f for out in outs for f in out["failures"]],
            server=report,
        )

    def _collect(self, deadline: float) -> tuple[list, list]:
        """Each client's result. Past the deadline the server child is killed,
        which ends blocked sessions; a client still silent 10 s later is
        terminated and reported as a failure."""
        pending = dict(zip(self.conns, range(len(self.conns))))
        outs, failures = {}, []
        killed = False
        while pending:
            ready = multiprocessing.connection.wait(list(pending), timeout=max(0.0, deadline - time.time()))
            for conn in ready:
                c = pending.pop(conn)
                try:
                    outs[c] = conn.recv()
                except EOFError:
                    failures.append(f"client process {c} exited without a result")
            if not ready and time.time() >= deadline:
                if killed or self.server is None:
                    failures += [f"client process {c} overran the deadline" for c in pending.values()]
                    break
                self.server.kill()
                killed = True
                deadline = time.time() + 10.0
        return [outs[c] for c in sorted(outs)], failures

    def close(self):
        for conn in self.conns:
            try:
                conn.send(None)  # a client still waiting for a plan exits
            except OSError:
                pass
        for proc in self.procs:
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for conn in self.conns:
            conn.close()
        if self.server is not None:
            self.server.kill()
