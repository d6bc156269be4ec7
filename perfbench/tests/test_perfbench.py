"""Tests of the benchmark itself: inputs, tracing, self time, counts, the
deadline and the output contract.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import modhash.core as core
import modhash.protocol as protocol
import spans
import workloads
from modhash.messages import ProtocolKind

ROOT = Path(__file__).resolve().parents[2]
RUN = [sys.executable, "perfbench/run.py"]


def _run_ops(wl, indices, tracer=None):
    op = wl.op if tracer is None else tracer.operation(wl.op)
    for i in indices:
        op(i)


# ---------------------------------------------------------------- inputs


def test_inputs_are_deterministic_per_seed():
    a, b, c = (workloads.LocalWorkload() for _ in range(3))
    a.setup(7)
    b.setup(7)
    c.setup(8)
    for (la, da, x1a, x2a), (lb, db, x1b, x2b) in zip(a.pairs, b.pairs):
        assert (la, da) == (lb, db)
        assert np.array_equal(x1a, x1b) and np.array_equal(x2a, x2b)
    assert not np.array_equal(a.pairs[0][2], c.pairs[0][2])
    assert [abs(np.linalg.norm(x2 - x1) - d) < 1e-9 * max(d, 1) for _, d, x1, x2 in a.pairs] == [True] * 12
    assert a.means == b.means  # the warm-up sessions already agree

    p1, x2_1, xs1 = workloads.tcp_inputs(7)
    p2, x2_2, xs2 = workloads.tcp_inputs(7)
    assert (p1.k, p1.m) == (p2.k, p2.m) == (8, 244)
    assert np.array_equal(x2_1, x2_2)
    assert all(np.array_equal(u[2], v[2]) for u, v in zip(xs1, xs2))
    assert workloads.derive_seed(7, "session", 3) == workloads.derive_seed(7, "session", 3)
    assert workloads.derive_seed(7, "session", 3) != workloads.derive_seed(8, "session", 3)


# ---------------------------------------------------------------- tracing


def test_tracing_is_removed_and_leaves_results_unchanged():
    tracer = spans.Tracer()
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in spans._patches(tracer)]
    plain = workloads.LocalWorkload()
    plain.setup(3)
    _run_ops(plain, [1])

    traced = workloads.LocalWorkload()
    traced.setup(3)
    with spans.traced(tracer):
        assert protocol.hash_vector is not core.hash_vector
        _run_ops(traced, [1], tracer)
    assert protocol.hash_vector is core.hash_vector
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, (owner, attr)
    assert traced.means == plain.means and len(plain.means) == 6
    self_s, counts = tracer.totals()
    assert counts["bench.ops"] == 1 and counts["core.keys"] == 12
    assert self_s["core.hash_vector"] > 0 and self_s["wire.encode.hamming_request"] > 0


def test_self_time_of_a_synthetic_span_tree():
    tree = [
        (1, 0, "root", 0.0, 10.0),
        (2, 1, "a", 1.0, 4.0),
        (3, 1, "b", 3.0, 6.0),  # overlaps a: covered once
        (4, 2, "leaf", 2.0, 3.0),
        (5, 1, "b", 9.5, 11.0),  # runs past its parent: clipped
        (6, 0, "root", 20.0, 21.0),
    ]
    got = spans.self_times(tree)
    assert got == pytest.approx({"root": 10.0 - 5.0 - 0.5 + 1.0, "a": 2.0, "b": 4.5, "leaf": 1.0})


def test_counts_repeat_exactly_across_traced_runs():
    runs = []
    for _ in range(2):
        wl = workloads.LocalWorkload()
        wl.setup(11)
        tracer = spans.Tracer()
        with spans.traced(tracer):
            _run_ops(wl, [1], tracer)
        runs.append(tracer.totals()[1])
    first, second = runs
    exact = [k for k in first if k.startswith("wire.") or k in (
        "rng.normals", "rng.perm_slots", "rng.keystream_bytes")]
    assert "rng.perm_slots" in exact and "wire.encode.key_share.bytes" in exact
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}
    assert first["rng.perm_slots"] == 3 * (2989 + 2989 + 29890)


# ---------------------------------------------------------------- tcp deadline


def test_public_a_over_tcp_hangs_until_the_server_is_killed():
    """The known defect: Bob cannot resolve the matrix digest of a public-a
    key share and aborts, while Alice waits on Charlie for ever."""
    params, x2, _ = workloads.tcp_inputs(5)
    server = workloads.ServerChild(x2, trace=False)
    try:
        wl = workloads.TcpWorkload((server.bob, server.charlie))
        wl.setup(5)
        normal = wl.session
        wl.session = lambda s: (ProtocolKind.PUBLIC_A_3P, *normal(s)[1:])
        errors = []

        def alice():
            try:
                wl.op(1)
            except Exception as exc:  # the op is expected to fail
                errors.append(exc)

        t = threading.Thread(target=alice, daemon=True)
        t.start()
        t.join(timeout=2.0)
        assert t.is_alive()  # hung
        server.kill()
        t.join(timeout=10.0)
        assert not t.is_alive()
        assert [type(e).__name__ for e in errors] == ["TransportClosed"]
    finally:
        server.kill()


def test_deadline_kills_the_server_and_counts_blocked_operations(monkeypatch):
    monkeypatch.setattr(workloads, "DEADLINE_GRACE_S", 1.0)
    bench = workloads.Bench("tcp", 6, trace=False)
    try:
        threading.Timer(0.5, os.kill, (bench.server.proc.pid, signal.SIGSTOP)).start()
        t0 = time.perf_counter()
        result = bench.run(1.0, trace=False)
        assert time.perf_counter() - t0 < 20.0
        assert bench.server.proc.poll() is not None
        assert len(result.windows) == 4
        assert all(w.failed >= 1 and "TransportClosed" in w.errors[-1] for w in result.windows)
        assert result.failures[0].startswith("the server child gave no report")
    finally:
        bench.close()


# ---------------------------------------------------------------- command


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_command_prints_every_declared_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {0: [m["name"] for m in bench["end_to_end"]], 1: [m["name"] for m in bench["per_layer"]]}
    for workload, trace in (("montecarlo", 0), ("tcp", 1)):
        out = subprocess.run(
            RUN + ["--workload", workload, "--seed", "4", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
        )
        doc = _last_json(out.stdout)
        assert sorted(doc) == ["attempted", "correct", "failed", "metrics"]
        assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
        assert sorted(doc["metrics"]) == sorted(names[trace])
        if trace == 0:
            assert all(m["value"] > 0 for m in doc["metrics"].values())
        else:
            assert doc["metrics"]["server.protocol.sessions"]["value"] > 0


def test_command_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        RUN + ["--workload", "montecarlo", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
