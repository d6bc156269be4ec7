import errno
import json
import logging
import os
import socket
import struct
import threading
import time

import numpy as np
import pytest

from modhash import (
    EstimateMode,
    HashVector,
    InvalidInput,
    ProtocolKind,
    ProtocolParams,
    Role,
    TransportClosed,
    drive_local,
    generate_key,
    key_from_json,
    key_to_json,
    run_over_tcp,
)
from modhash.messages import Envelope, HashSubmission
from modhash.protocol import MatrixStore
from modhash.transport import (
    BobServer,
    CharlieServer,
    TcpTransport,
    local_pair,
    matrix_from_json,
    matrix_to_json,
)
from modhash.wire import decode_frame, encode_envelope

SEED = bytes(range(32))
PARAMS = ProtocolParams.from_dimensions(8, 64, padding=64)


def _vectors(n=16, offset=0.25):
    x1 = np.linspace(-1.0, 1.0, n)
    return x1, x1 + offset


def _frame(sid=bytes(16), sender=Role.ALICE, comps=(1, 2, 3)):
    body = HashSubmission(HashVector(8, np.array(comps)))
    return encode_envelope(Envelope(sid, ProtocolKind.FULL_KEY_3P, sender, body))


def _tcp_pair():
    a, b = socket.socketpair()
    return TcpTransport(a), TcpTransport(b)


# ------------------------------------------------------------------ channels


def test_local_pipe_echo():
    a, b = local_pair()
    frame = _frame()
    a.send_frame(frame)
    assert b.recv_frame() == frame
    b.send_frame(frame)
    assert a.recv_frame() == frame


def test_local_pipe_close_surfaces():
    a, b = local_pair()
    a.close()
    with pytest.raises(TransportClosed):
        b.recv_frame()
    with pytest.raises(TransportClosed):
        a.send_frame(b"x")


def test_tcp_echo():
    a, b = _tcp_pair()
    frame = _frame()
    a.send_frame(frame)
    assert b.recv_frame() == frame
    a.close()
    with pytest.raises(TransportClosed):
        b.recv_frame()
    b.close()


def test_tcp_reassembles_split_frames():
    raw_a, raw_b = socket.socketpair()
    b = TcpTransport(raw_b)
    frame = _frame()
    for i in range(0, len(frame), 7):  # dribble the bytes
        raw_a.sendall(frame[i : i + 7])
    assert b.recv_frame() == frame
    raw_a.close()
    b.close()


def test_tcp_rejects_absurd_length_claim():
    a, b = _tcp_pair()
    a._sock.sendall(struct.pack(">I", 1 << 31))
    from modhash.errors import DecodeError

    with pytest.raises(DecodeError):
        b.recv_frame()
    a.close()
    b.close()


# ------------------------------------------------------------------ servers


def test_charlie_server_pairs_submissions():
    with CharlieServer() as srv:
        srv.start()
        conn_a = TcpTransport.connect(*srv.address)
        conn_b = TcpTransport.connect(*srv.address)
        sid = bytes(16)
        conn_a.send_frame(_frame(sid, Role.ALICE, (0, 1)))
        conn_b.send_frame(_frame(sid, Role.BOB, (3, 5)))
        res_a = decode_frame(conn_a.recv_frame())
        res_b = decode_frame(conn_b.recv_frame())
        assert res_a.body == res_b.body
        assert res_a.body.mean_lee == pytest.approx(3.5)  # (lee(0,3) + lee(1,5)) / 2 in Z_8
        conn_a.close()
        conn_b.close()


def test_charlie_server_interleaves_sessions_on_one_connection():
    with CharlieServer() as srv:
        srv.start()
        conn = TcpTransport.connect(*srv.address)
        sid1, sid2 = b"\x01" * 16, b"\x02" * 16
        conn.send_frame(_frame(sid1, Role.ALICE, (0, 1)))
        conn.send_frame(_frame(sid2, Role.ALICE, (2, 2)))
        conn.send_frame(_frame(sid1, Role.BOB, (0, 3)))
        conn.send_frame(_frame(sid2, Role.BOB, (2, 2)))
        got = {}
        for _ in range(4):
            env = decode_frame(conn.recv_frame())
            got.setdefault(env.session_id, env.body.mean_lee)
        assert got[sid1] == pytest.approx(1.0)  # (0+2)/2
        assert got[sid2] == 0
        conn.close()


def test_charlie_server_survives_garbage():
    with CharlieServer() as srv:
        srv.start()
        bad = TcpTransport.connect(*srv.address)
        bad._sock.sendall(struct.pack(">I", 20) + b"\xff" * 20)
        # server drops that connection but keeps serving new ones
        conn_a = TcpTransport.connect(*srv.address)
        conn_b = TcpTransport.connect(*srv.address)
        sid = bytes(16)
        conn_a.send_frame(_frame(sid, Role.ALICE, (0, 1)))
        conn_b.send_frame(_frame(sid, Role.BOB, (0, 1)))
        assert decode_frame(conn_a.recv_frame()).body.mean_lee == 0
        for c in (bad, conn_a, conn_b):
            c.close()


def test_charlie_server_aborts_key_share():
    with CharlieServer() as srv:
        srv.start()
        conn = TcpTransport.connect(*srv.address)
        key = generate_key(8, 4, 4, SEED)
        from modhash.messages import KeyShare

        share = KeyShare(k=8, delta=key.delta, n=4, u=key.u, a=key.a)
        conn.send_frame(encode_envelope(Envelope(bytes(16), ProtocolKind.FULL_KEY_3P, Role.ALICE, share)))
        env = decode_frame(conn.recv_frame())
        from modhash.messages import Abort

        assert isinstance(env.body, Abort)
        conn.close()


# ------------------------------------------------------------------ full runs


def _run_both_ways(kind, offset=0.25, mode=EstimateMode.RAW):
    x1, x2 = _vectors(offset=offset)
    store = MatrixStore()
    local = drive_local(kind, x1, x2, PARAMS, SEED, mode=mode, matrix_store=store)
    with CharlieServer() as charlie:
        charlie.start()
        with BobServer(x2, charlie_address=charlie.address, matrix_store=store, mode=mode) as bob:
            bob.start()
            tcp = run_over_tcp(
                kind, x1, PARAMS, SEED,
                bob_address=bob.address,
                charlie_address=charlie.address if kind != ProtocolKind.TWO_PARTY_HAMMING else None,
                mode=mode, matrix_store=store,
            )
            bob_estimate = bob.wait_result(tcp.session_id)
    return local, tcp, bob_estimate


@pytest.mark.parametrize("kind", list(ProtocolKind))
def test_tcp_matches_local_for_every_kind(kind):
    local, tcp, bob_estimate = _run_both_ways(kind)
    assert tcp.mean_lee == local.mean_lee
    assert tcp.estimate == local.alice_estimate
    assert bob_estimate == local.bob_estimate
    if kind == ProtocolKind.OBFUSCATED_3P:
        assert tcp.observed_mean == local.charlie_observed


def test_tcp_result_frames_match_local_bytes():
    local, tcp, _ = _run_both_ways(ProtocolKind.FULL_KEY_3P)
    local_results = [t.data for t in local.transcript if t.recipient == Role.ALICE]
    assert list(tcp.received_frames) == local_results


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_servers_release_connections_of_finished_sessions():
    # Before, every finished session left its accepted sockets open, so a
    # long-running server ran out of descriptors (7 per three-kind round).
    x1, x2 = _vectors()
    kinds = (ProtocolKind.FULL_KEY_3P, ProtocolKind.TWO_PARTY_HAMMING, ProtocolKind.OBFUSCATED_3P)
    open_fds = lambda: len(os.listdir("/proc/self/fd"))  # noqa: E731
    with CharlieServer() as charlie:
        charlie.start()
        with BobServer(x2, charlie_address=charlie.address) as bob:
            bob.start()
            before = open_fds()
            for i in range(10):
                for kind in kinds:
                    seed = bytes([i, kind]) * 16
                    run_over_tcp(kind, x1, PARAMS, seed, bob.address, charlie.address)
            deadline = time.monotonic() + 5.0
            while open_fds() - before >= 10 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert open_fds() - before < 10


class _FailOnceListener:
    """Listener whose first accept() fails as if descriptors ran out."""

    def __init__(self, sock):
        self._sock = sock
        self.failures = 0

    def accept(self):
        if not self.failures:
            self.failures += 1
            raise OSError(errno.EMFILE, "Too many open files")
        return self._sock.accept()

    def __getattr__(self, name):
        return getattr(self._sock, name)


def test_servers_keep_accepting_after_transient_accept_error(caplog):
    # Before, one EMFILE from accept() ended the accept loop for good.
    x1, x2 = _vectors()
    kind = ProtocolKind.FULL_KEY_3P
    charlie = CharlieServer()
    bob = BobServer(x2, charlie_address=charlie.address)
    try:
        for server in (charlie, bob):
            server._listener = _FailOnceListener(server._listener)
        with caplog.at_level(logging.WARNING, logger="modhash.transport"):
            charlie.start()
            bob.start()
            done = {}
            alice = threading.Thread(
                target=lambda: done.update(run=run_over_tcp(kind, x1, PARAMS, SEED, bob.address, charlie.address)),
                daemon=True,
            )
            alice.start()
            alice.join(timeout=20)
        assert not alice.is_alive(), "session stalled: a server stopped accepting"
        assert done["run"].mean_lee == drive_local(kind, x1, x2, PARAMS, SEED).mean_lee
        assert charlie._listener.failures == bob._listener.failures == 1
        assert sum("accept failed" in r.getMessage() for r in caplog.records) == 2
    finally:
        t0 = time.monotonic()
        bob.stop()
        charlie.stop()
        stop_s = time.monotonic() - t0
    assert stop_s < 2.0
    assert not any(t.is_alive() for t in bob._threads[:1] + charlie._threads[:1])


def test_run_over_tcp_timeout_bounds_a_silent_server():
    # Before, the timeout bounded only connect(): Alice waited forever on a
    # server that took the connection but never answered.
    x1, _ = _vectors()
    with socket.create_server(("127.0.0.1", 0)) as silent:  # never accepts, never replies
        outcome = {}

        def alice():
            t0 = time.monotonic()
            try:
                run_over_tcp(
                    ProtocolKind.TWO_PARTY_HAMMING, x1, PARAMS, SEED, silent.getsockname()[:2], timeout=0.5
                )
            except TransportClosed:
                outcome["elapsed"] = time.monotonic() - t0

        t = threading.Thread(target=alice, daemon=True)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive(), "Alice still waits on a server that never answers"
    assert 0.5 <= outcome["elapsed"] < 5.0


def test_concurrent_sessions_complete_independently():
    x1, x2 = _vectors()
    with CharlieServer() as charlie:
        charlie.start()
        with BobServer(x2, charlie_address=charlie.address) as bob:
            bob.start()
            results = {}

            def one(seed_byte):
                seed = bytes([seed_byte]) * 32
                r = run_over_tcp(
                    ProtocolKind.FULL_KEY_3P, x1, PARAMS, seed,
                    bob_address=bob.address, charlie_address=charlie.address,
                )
                results[seed_byte] = r

            threads = [threading.Thread(target=one, args=(b,)) for b in (1, 2, 3, 4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert len(results) == 4
            expected = {
                b: drive_local(ProtocolKind.FULL_KEY_3P, x1, x2, PARAMS, bytes([b]) * 32).mean_lee
                for b in (1, 2, 3, 4)
            }
            for b in (1, 2, 3, 4):
                assert results[b].mean_lee == expected[b]


# ------------------------------------------------------------------ key files


def test_key_json_roundtrip():
    key = generate_key(8, 6, 4, SEED, delta=1.25)
    back = key_from_json(key_to_json(key))
    assert back == key


def test_key_json_seed_form():
    key = generate_key(8, 6, 4, SEED)
    text = key_to_json(key, include_matrix=False, seed=SEED)
    doc = json.loads(text)
    assert doc["non_interoperable"] is True
    assert "a" not in doc
    assert key_from_json(text) == key


def test_key_json_rejects_garbage():
    with pytest.raises(InvalidInput):
        key_from_json("{not json")
    with pytest.raises(InvalidInput):
        key_from_json(json.dumps({"k": 8}))


def test_matrix_json_roundtrip():
    key = generate_key(8, 6, 4, SEED)
    assert np.array_equal(matrix_from_json(matrix_to_json(key.a)), key.a)
