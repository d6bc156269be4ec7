import errno
import json
import logging
import os
import selectors
import socket
import struct
import threading
import time
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from modhash import (
    EstimateMode,
    HashVector,
    InvalidInput,
    ProtocolKind,
    ProtocolParams,
    ProtocolViolation,
    Role,
    TransportClosed,
    drive_local,
    generate_key,
    key_from_json,
    key_to_json,
    run_over_tcp,
)
from modhash import protocol, transport
from modhash.messages import Abort, DistanceResult, Envelope, HashSubmission, KeyShare
from modhash.protocol import Phase, start_session
from modhash.transport import BobServer, CharlieServer, TcpTransport
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


@pytest.mark.parametrize("blocking", [True, False], ids=["blocking", "selector"])
def test_a_key_share_frame_arrives_whole_over_many_reads(blocking):
    # The planned point's key share: 2989 x 100 doubles of A, 2.4 MB.
    key = generate_key(28, 2989, 100, SEED)
    share = KeyShare(key)
    frame = encode_envelope(Envelope(bytes(16), ProtocolKind.FULL_KEY_3P, Role.ALICE, share))
    assert len(frame) > 2 * transport._RECV_CHUNK
    raw_a, raw_b = socket.socketpair()
    sender = threading.Thread(target=raw_a.sendall, args=(frame,))
    sender.start()
    b = TcpTransport(raw_b)
    if blocking:
        got = b.recv_frame()
    else:
        raw_b.setblocking(False)
        with selectors.DefaultSelector() as sel:
            sel.register(raw_b, selectors.EVENT_READ)
            got = None
            while got is None:
                assert sel.select(5.0), "no data within 5 s"
                got = b.recv_frame()
    sender.join(5.0)
    assert not sender.is_alive() and got == frame and not b.inbuf
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

        share = KeyShare(key)
        conn.send_frame(encode_envelope(Envelope(bytes(16), ProtocolKind.FULL_KEY_3P, Role.ALICE, share)))
        env = decode_frame(conn.recv_frame())
        from modhash.messages import Abort

        assert isinstance(env.body, Abort)
        conn.close()


def test_a_handler_fault_drops_only_its_connection(caplog):
    with CharlieServer() as srv:
        handle = srv._handle
        faulty = bytes([1]) * 16

        def _handle(conn, env):
            if env.session_id == faulty:
                raise RuntimeError("handler fault")
            handle(conn, env)

        srv._handle = _handle
        srv.start()
        bad = TcpTransport.connect(*srv.address)
        bad.send_frame(_frame(faulty, Role.ALICE, (0, 1)))
        assert _recv_until_closed(bad._sock) == b""
        # the loop lives on and serves the next connections
        conn_a = TcpTransport.connect(*srv.address)
        conn_b = TcpTransport.connect(*srv.address)
        conn_a.send_frame(_frame(bytes(16), Role.ALICE, (0, 1)))
        conn_b.send_frame(_frame(bytes(16), Role.BOB, (0, 1)))
        assert decode_frame(conn_a.recv_frame()).body.mean_lee == 0
        for c in (bad, conn_a, conn_b):
            c.close()
    assert "CHARLIE: dropping connection from" in caplog.text and "handler fault" in caplog.text


# ------------------------------------------------------------------ full runs


def _run_both_ways(kind, offset=0.25, mode=EstimateMode.RAW):
    x1, x2 = _vectors(offset=offset)
    local = drive_local(kind, x1, x2, PARAMS, SEED, mode=mode)
    with CharlieServer() as charlie:
        charlie.start()
        with BobServer(x2, charlie_address=charlie.address, mode=mode) as bob:
            bob.start()
            tcp = run_over_tcp(
                kind, x1, PARAMS, SEED,
                bob_address=bob.address,
                charlie_address=charlie.address if kind != ProtocolKind.TWO_PARTY_HAMMING else None,
                mode=mode,
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


def _on_a_new_thread(fn):
    """Run fn on a thread of its own, so that it starts with no idle
    connection and its idle connections close when it ends; re-raise what
    it raised."""
    out = {}

    def target():
        try:
            fn()
        except BaseException as exc:  # noqa: B036 - handed to the calling thread
            out["error"] = exc

    t = threading.Thread(target=target)
    t.start()
    t.join(timeout=60)
    assert not t.is_alive(), "Alice's thread did not finish"
    if "error" in out:
        raise out.pop("error")


class _CountingListener:
    """Listener that counts the connections it accepts."""

    def __init__(self, sock):
        self._sock = sock
        self.accepted = 0

    def accept(self):
        pair = self._sock.accept()
        self.accepted += 1
        return pair

    def __getattr__(self, name):
        return getattr(self._sock, name)


def _start_counting_accepts(*servers):
    for server in servers:
        server._listener = _CountingListener(server._listener)
        server.start()


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


def _eventually(condition, timeout=5.0):
    """Wait for what a server loop does after the client has its answer."""
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)


def _recv_until_closed(sock, timeout=5.0):
    """Frames the server sent before it closed this socket; fails on timeout."""
    sock.settimeout(timeout)
    data = b""
    while True:
        try:
            chunk = sock.recv(1 << 16)
        except ConnectionResetError:
            chunk = b""
        if not chunk:
            return data
        data += chunk


def _alice_frames(kind, x1, x2, params, seed):
    """Alice's key-share frame to Bob and (on three-party kinds) her
    submission frame to Charlie, byte for byte as run_over_tcp sends them."""
    local = drive_local(kind, x1, x2, params, seed)
    out = {t.recipient: t.data for t in local.transcript if t.sender == Role.ALICE}
    return local, out[Role.BOB], out.get(Role.CHARLIE)


def test_charlie_aborts_a_session_left_idle(monkeypatch):
    # Before, a session with one submission stayed in the table for ever.
    monkeypatch.setattr(transport, "_IDLE_S", 0.3)
    with CharlieServer() as srv:
        srv.start()
        conn = TcpTransport.connect(*srv.address, timeout=5.0)
        conn.send_frame(_frame(b"\x07" * 16, Role.ALICE, (0, 1)))
        env = decode_frame(conn.recv_frame())
        assert env.session_id == b"\x07" * 16
        assert isinstance(env.body, Abort) and "idle" in env.body.reason
        assert srv._sessions == {}
        conn.close()


def test_servers_close_a_connection_holding_a_partial_frame(monkeypatch):
    # Before, a half-sent frame pinned a server thread for ever.
    monkeypatch.setattr(transport, "_IDLE_S", 0.3)
    x1, x2 = _vectors()
    with CharlieServer() as charlie, BobServer(x2, charlie_address=charlie.address) as bob:
        charlie.start()
        bob.start()
        for server in (charlie, bob):
            with socket.create_connection(server.address) as sock:
                sock.sendall(_frame()[:10])
                t0 = time.monotonic()
                assert _recv_until_closed(sock) == b""
                assert time.monotonic() - t0 < 3.0


def test_bob_redials_charlie_after_losing_the_link():
    x1, x2 = _vectors()
    kind = ProtocolKind.FULL_KEY_3P
    with CharlieServer() as charlie, BobServer(x2, charlie_address=charlie.address) as bob:
        charlie.start()
        bob.start()
        first = run_over_tcp(kind, x1, PARAMS, SEED, bob.address, charlie.address)
        bob.wait_result(first.session_id, 5.0)
        _eventually(lambda: not charlie._sessions)
        # A session waiting on Charlie when the link drops: Bob has submitted,
        # Alice has not.
        _, share, _ = _alice_frames(kind, x1, x2, PARAMS, bytes([9]) * 32)
        sid = decode_frame(share).session_id
        alice = TcpTransport.connect(*bob.address, timeout=5.0)
        alice.send_frame(share)
        _eventually(lambda: sid in bob._sessions and sid in charlie._sessions)
        assert list(bob._sessions) == list(charlie._sessions) == [sid]
        bob._link._sock.shutdown(socket.SHUT_RDWR)
        env = decode_frame(alice.recv_frame())
        assert isinstance(env.body, Abort) and env.body.reason == "connection lost"
        alice.close()
        _eventually(lambda: not (bob._link or bob._sessions or charlie._sessions))
        assert bob._link is None and bob._sessions == {} and charlie._sessions == {}
        again = run_over_tcp(kind, x1, PARAMS, bytes([10]) * 32, bob.address, charlie.address)
        assert again.mean_lee == drive_local(kind, x1, x2, PARAMS, bytes([10]) * 32).mean_lee
        assert bob.wait_result(again.session_id, 5.0) is not None


def test_replayed_messages_are_refused_without_opening_a_session():
    x1, x2 = _vectors()
    kind = ProtocolKind.FULL_KEY_3P
    local, share, submission = _alice_frames(kind, x1, x2, PARAMS, SEED)
    with CharlieServer() as charlie, BobServer(x2, charlie_address=charlie.address) as bob:
        charlie.start()
        bob.start()
        run = run_over_tcp(kind, x1, PARAMS, SEED, bob.address, charlie.address)
        assert run.mean_lee == local.mean_lee
        bob.wait_result(run.session_id, 5.0)
        for server, frame in ((bob, share), (charlie, submission)):
            conn = TcpTransport.connect(*server.address, timeout=5.0)
            conn.send_frame(frame)
            env = decode_frame(conn.recv_frame())
            assert env.session_id == run.session_id
            assert env.body == Abort(reason="message after DONE")
            conn.close()
            assert server._sessions == {}


def test_charlie_tells_both_submitters_when_the_second_submission_is_refused():
    # Before, only Bob heard of it: Alice waited for her own timeout.
    with CharlieServer() as srv:
        srv.start()
        alice = TcpTransport.connect(*srv.address, timeout=1.0)
        bob = TcpTransport.connect(*srv.address, timeout=1.0)
        sid = b"\x05" * 16
        alice.send_frame(_frame(sid, Role.ALICE, (0, 1, 2, 3)))
        _eventually(lambda: sid in srv._sessions)
        bob.send_frame(_frame(sid, Role.BOB, (0, 1, 2, 3, 4)))
        for conn in (alice, bob):
            env = decode_frame(conn.recv_frame())
            assert env.session_id == sid and env.body == Abort(reason="length mismatch: 5 vs 4")
            conn.close()
        assert srv._sessions == {}


def test_a_result_with_the_wrong_count_aborts_bob_and_tells_both_peers():
    # Before, Bob ended the session silently and Alice heard nothing.
    x1, x2 = _vectors()
    kind = ProtocolKind.FULL_KEY_3P
    _, share, _ = _alice_frames(kind, x1, x2, PARAMS, SEED)
    sid = decode_frame(share).session_id
    with socket.create_server(("127.0.0.1", 0)) as fake_charlie, \
            BobServer(x2, charlie_address=fake_charlie.getsockname()[:2]) as bob:
        bob.start()
        alice = TcpTransport.connect(*bob.address, timeout=5.0)
        alice.send_frame(share)
        fake_charlie.settimeout(5.0)
        sock, _ = fake_charlie.accept()
        sock.settimeout(5.0)
        link = TcpTransport(sock)
        assert isinstance(decode_frame(link.recv_frame()).body, HashSubmission)
        wrong = DistanceResult(mean_lee=Fraction(1), count=PARAMS.m + 1)
        link.send_frame(encode_envelope(Envelope(sid, kind, Role.CHARLIE, wrong)))
        reason = f"result covers {PARAMS.m + 1} components, expected {PARAMS.m}"
        for conn in (alice, link):
            env = decode_frame(conn.recv_frame())
            assert env.session_id == sid and env.body == Abort(reason=reason)
            conn.close()
        _eventually(lambda: not bob._sessions)
        assert bob._sessions == {} and sid not in bob.results


def test_a_share_bob_refuses_also_ends_charlies_half_of_the_session():
    # Before, Charlie held the session until the connection dropped or
    # _IDLE_S passed: Bob's Abort went to Alice alone.
    x1, x2 = _vectors()
    _, share, submission = _alice_frames(ProtocolKind.FULL_KEY_3P, x1, x2, PARAMS, SEED)
    sid = decode_frame(share).session_id
    with CharlieServer() as charlie, BobServer(x2[:-1], charlie_address=charlie.address) as bob:
        charlie.start()
        bob.start()
        to_charlie = TcpTransport.connect(*charlie.address, timeout=5.0)
        to_charlie.send_frame(submission)
        _eventually(lambda: sid in charlie._sessions)
        to_bob = TcpTransport.connect(*bob.address, timeout=5.0)
        to_bob.send_frame(share)
        env = decode_frame(to_bob.recv_frame())
        assert env.body == Abort(reason="input has length 15, key expects 16")
        _eventually(lambda: not charlie._sessions, timeout=1.0)
        assert charlie._sessions == {} and bob._sessions == {}
        to_bob.close()
        to_charlie.close()


def test_alice_hears_bobs_abort_at_once():
    # Before, Alice read only Charlie's connection on three-party kinds, so
    # Bob's Abort went unread until her own timeout ran out.
    x1, x2 = _vectors()
    with CharlieServer() as charlie, BobServer(x2[:-1], charlie_address=charlie.address) as bob:
        charlie.start()
        bob.start()
        t0 = time.monotonic()
        with pytest.raises(ProtocolViolation, match="input has length 15, key expects 16"):
            run_over_tcp(ProtocolKind.FULL_KEY_3P, x1, PARAMS, SEED, bob.address, charlie.address, timeout=10)
        assert time.monotonic() - t0 < 1.0
        _eventually(lambda: not charlie._sessions, timeout=1.0)
        assert charlie._sessions == {} and bob._sessions == {}


def test_a_three_party_share_to_a_bob_with_no_charlie_address_ends_alices_run():
    x1, x2 = _vectors()
    with CharlieServer() as charlie, BobServer(x2) as bob:
        charlie.start()
        bob.start()
        with pytest.raises(ProtocolViolation, match="no third-party address configured"):
            run_over_tcp(ProtocolKind.FULL_KEY_3P, x1, PARAMS, SEED, bob.address, charlie.address, timeout=10)
        _eventually(lambda: not charlie._sessions, timeout=1.0)
        assert bob._sessions == {} and bob._link is None


def test_a_charlie_address_that_does_not_resolve_ends_alices_run_and_bob_serves_on():
    # getaddrinfo refuses port -1 ("Servname not supported") with no network
    x1, x2 = _vectors()
    with CharlieServer() as charlie, BobServer(x2, charlie_address=("127.0.0.1", -1)) as bob:
        charlie.start()
        bob.start()
        with pytest.raises(ProtocolViolation, match="cannot connect to 127.0.0.1:-1"):
            run_over_tcp(ProtocolKind.FULL_KEY_3P, x1, PARAMS, SEED, bob.address, charlie.address, timeout=10)
        assert bob._link is None
        kind, seed = ProtocolKind.TWO_PARTY_HAMMING, bytes([16]) * 32
        run = run_over_tcp(kind, x1, PARAMS, seed, bob.address, timeout=10)
        assert run.mean_lee == drive_local(kind, x1, x2, PARAMS, seed).mean_lee
        assert bob.wait_result(run.session_id, 5.0) == run.estimate


def test_charlie_refuses_a_submission_that_an_abort_overtook():
    # Before, Charlie dropped the Abort, and the submission then opened a
    # session that waited out _IDLE_S for a submission that never came.
    sid = b"\x06" * 16
    with CharlieServer() as charlie:
        charlie.start()
        bob = TcpTransport.connect(*charlie.address, timeout=5.0)
        bob.send_frame(encode_envelope(Envelope(sid, ProtocolKind.FULL_KEY_3P, Role.BOB, Abort(reason="bad share"))))
        alice = TcpTransport.connect(*charlie.address, timeout=1.0)
        _eventually(lambda: sid in charlie._finished)
        alice.send_frame(_frame(sid, Role.ALICE, (0, 1, 2)))
        env = decode_frame(alice.recv_frame())  # TransportClosed after 1 s
        assert env.session_id == sid and env.body == Abort(reason="message after ABORTED")
        assert charlie._sessions == {}
        alice.close()
        bob.close()


@pytest.mark.parametrize("ended", [True, False], ids=["ended", "unknown"])
@pytest.mark.parametrize("role", [Role.BOB, Role.CHARLIE], ids=["bob", "charlie"])
def test_an_abort_for_no_open_session_is_not_answered(role, ended):
    # Before, Bob and (for an ended session) Charlie refused it with an Abort
    # of their own, which a peer server would have refused in turn.
    x1, x2 = _vectors()
    kind = ProtocolKind.FULL_KEY_3P
    with CharlieServer() as charlie, BobServer(x2, charlie_address=charlie.address) as bob:
        charlie.start()
        bob.start()
        run = run_over_tcp(kind, x1, PARAMS, SEED, bob.address, charlie.address)
        bob.wait_result(run.session_id, 5.0)
        server = bob if role == Role.BOB else charlie
        conn = TcpTransport.connect(*server.address, timeout=5.0)
        sid = run.session_id if ended else b"\x0e" * 16
        late = Envelope(sid, kind, Role.ALICE, Abort(reason="late"))
        # A frame both servers refuse, for a fresh session: its refusal must
        # be the first reply.
        probe = Envelope(b"\x0f" * 16, kind, Role.CHARLIE, DistanceResult(mean_lee=Fraction(0), count=1))
        conn.send_frame(encode_envelope(late) + encode_envelope(probe))
        env = decode_frame(conn.recv_frame())
        assert env.session_id == probe.session_id and isinstance(env.body, Abort)
        conn.close()
        assert server._sessions == {}


class _Starved:
    """A server-side socket whose peer has stopped reading."""

    def __init__(self, sock):
        self._sock = sock

    def send(self, data):
        raise BlockingIOError

    def __getattr__(self, name):
        return getattr(self._sock, name)


def test_a_peer_that_stops_reading_is_dropped_without_stalling_others(monkeypatch, caplog):
    monkeypatch.setattr(transport, "_MAX_UNSENT", 4096)
    x1, x2 = _vectors()
    kind = ProtocolKind.FULL_KEY_3P

    def pair(i):  # both submissions of one session: two results come back
        sid = i.to_bytes(16, "big")
        return _frame(sid, Role.ALICE, (0, 1)) + _frame(sid, Role.BOB, (3, 5))

    with CharlieServer() as charlie, BobServer(x2, charlie_address=charlie.address) as bob:
        charlie.start()
        bob.start()
        staller = TcpTransport.connect(*charlie.address, timeout=5.0)
        staller._sock.sendall(pair(0))
        staller.recv_frame()
        staller.recv_frame()
        (conn,) = [
            k.data for k in charlie._selector.get_map().values()
            if k.data is not None and k.data.peer == staller._sock.getsockname()
        ]
        conn._sock = _Starved(conn._sock)
        staller._sock.sendall(b"".join(pair(i) for i in range(1, 20)))
        _eventually(lambda: conn.outbuf)
        assert 0 < len(conn.outbuf) <= 4096 and not conn.closed
        seed = bytes([11]) * 32
        run = run_over_tcp(kind, x1, PARAMS, seed, bob.address, charlie.address, timeout=5.0)
        assert run.mean_lee == drive_local(kind, x1, x2, PARAMS, seed).mean_lee
        with caplog.at_level(logging.WARNING, logger="modhash.transport"):
            try:
                staller._sock.sendall(b"".join(pair(i) for i in range(20, 200)))
            except OSError:
                pass  # the server may close it mid-write
            assert _recv_until_closed(staller._sock) == b""
        assert conn.closed
        assert any("bytes unsent" in r.getMessage() for r in caplog.records)
        staller.close()


def test_a_peer_that_reads_again_gets_every_queued_frame_whole_and_in_order():
    # Bob's link to a stand-in Charlie that reads nothing until Bob's
    # submissions have queued past the socket buffers, then reads them all.
    params = ProtocolParams.from_dimensions(8, 4096)  # 8 KB submissions
    kind, x = ProtocolKind.FULL_KEY_3P, np.ones(1)
    sids, want = [], []

    def serve_one_share():
        _, (share, submission) = start_session(
            Role.ALICE, kind, params, x=x, seed=len(sids).to_bytes(32, "big")
        )
        sids.append(share.session_id)
        # Bob hashes the same x under the same key: Alice's submission, from Bob
        want.append(encode_envelope(Envelope(share.session_id, kind, Role.BOB, submission.body)))
        alice.send_frame(encode_envelope(share))
        _eventually(lambda: sids[-1] in bob._sessions)
        assert sids[-1] in bob._sessions

    with socket.create_server(("127.0.0.1", 0)) as stand_in, \
            BobServer(x, charlie_address=stand_in.getsockname()[:2]) as bob:
        stand_in.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        bob.start()
        alice = TcpTransport.connect(*bob.address, timeout=5.0)
        stand_in.settimeout(5.0)
        serve_one_share()
        sock, _ = stand_in.accept()
        # a small fixed send buffer: the kernel would otherwise grow it to
        # megabytes before anything queued
        bob._link._sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        while not bob._link.outbuf and len(sids) < 100:
            serve_one_share()
        for _ in range(3):  # whole frames queued behind a partly sent one
            serve_one_share()
        link = bob._link
        assert len(link.outbuf) > 3 * len(want[0])
        assert bob._selector.get_key(link._sock).events == selectors.EVENT_READ | selectors.EVENT_WRITE
        sock.settimeout(5.0)
        charlie = TcpTransport(sock)
        assert [charlie.recv_frame() for _ in sids] == want
        _eventually(lambda: not link.outbuf and bob._selector.get_key(link._sock).events == selectors.EVENT_READ)
        assert not link.outbuf and not link.closed
        assert bob._selector.get_key(link._sock).events == selectors.EVENT_READ
        assert list(bob._sessions) == sids  # every session still waits for Charlie
        alice.close()
        charlie.close()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_tables_threads_and_descriptors_stay_flat():
    # Before, every session stayed in Bob's and Charlie's tables for ever,
    # and Alice dialled both servers again for every session.
    params = ProtocolParams.from_dimensions(8, 244)
    rng = np.random.default_rng(5)
    x2 = rng.standard_normal(50)
    x1 = x2 + 0.01 * rng.standard_normal(50)
    kinds = (ProtocolKind.FULL_KEY_3P, ProtocolKind.TWO_PARTY_HAMMING, ProtocolKind.OBFUSCATED_3P)
    open_fds = lambda: len(os.listdir("/proc/self/fd"))  # noqa: E731
    with CharlieServer() as charlie, BobServer(x2, charlie_address=charlie.address) as bob:
        _start_counting_accepts(charlie, bob)
        before = open_fds()

        def alice():  # on a thread of its own, which starts with no idle connection
            # From the first session on: both ends of the Bob-Charlie link and
            # of Alice's idle connections to Bob and to Charlie.
            fds = before + 6
            run_over_tcp(kinds[0], x1, params, bytes(32), bob.address, charlie.address)
            _eventually(lambda: open_fds() == fds)
            threads = threading.active_count()
            for i in range(1, 300):
                kind = kinds[i % 3]
                charlie_address = charlie.address if kind != ProtocolKind.TWO_PARTY_HAMMING else None
                run_over_tcp(kind, x1, params, i.to_bytes(32, "big"), bob.address, charlie_address)
            _eventually(lambda: not (bob._sessions or charlie._sessions) and open_fds() == fds)
            assert bob._sessions == {} and charlie._sessions == {}
            assert threading.active_count() == threads
            assert open_fds() == fds
            mine = {conn._sock.getsockname() for conn in transport._alice.idle.values()}
            for server in (bob, charlie):
                conns = [k.data for k in server._selector.get_map().values() if k.data is not None]
                assert len(conns) == 2  # Alice's and Bob's link to Charlie
                assert sum(conn.peer in mine for conn in conns) == 1

        _on_a_new_thread(alice)
        assert len(bob.results) == 300
        assert bob._listener.accepted == 1
        assert charlie._listener.accepted == 2  # Alice and Bob's link
        _eventually(lambda: open_fds() == before + 2)  # Alice's thread has closed hers
        assert open_fds() == before + 2


def test_bob_keeps_the_results_of_the_last_window_of_sessions(monkeypatch):
    # Before, BobServer.results kept one estimate per session for ever.
    monkeypatch.setattr(transport, "_FINISHED_WINDOW", 2)
    x1, x2 = _vectors()
    with CharlieServer() as charlie, BobServer(x2, charlie_address=charlie.address) as bob:
        charlie.start()
        bob.start()
        sids = []

        def alice():
            for i in range(4):
                run = run_over_tcp(
                    ProtocolKind.FULL_KEY_3P, x1, PARAMS, i.to_bytes(32, "big"), bob.address, charlie.address
                )
                sids.append(run.session_id)

        _on_a_new_thread(alice)
        bob.wait_result(sids[-1], timeout=5.0)
        assert list(bob.results) == sids[-2:]  # oldest out first
        with pytest.raises(TransportClosed, match="no result"):
            bob.wait_result(sids[0], timeout=0.1)


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


# ------------------------------------------------------------------ Alice's idle connections


def test_alice_dials_again_after_the_servers_restart_on_the_same_ports():
    x1, x2 = _vectors()
    kind = ProtocolKind.FULL_KEY_3P
    with CharlieServer() as charlie, BobServer(x2, charlie_address=charlie.address) as bob:
        charlie.start()
        bob.start()
        run_over_tcp(kind, x1, PARAMS, SEED, bob.address, charlie.address)
        kept = dict(transport._alice.idle)
    assert set(kept) == {Role.BOB, Role.CHARLIE}
    with CharlieServer(port=charlie.address[1]) as charlie2, \
            BobServer(x2, charlie_address=charlie2.address, port=bob.address[1]) as bob2:
        _start_counting_accepts(charlie2, bob2)
        seed = bytes([12]) * 32
        run = run_over_tcp(kind, x1, PARAMS, seed, bob2.address, charlie2.address)
        assert run.mean_lee == drive_local(kind, x1, x2, PARAMS, seed).mean_lee
        assert bob2.wait_result(run.session_id, 5.0) is not None
        assert all(conn.closed for conn in kept.values())
        assert bob2._listener.accepted == 1 and charlie2._listener.accepted == 2


def test_a_kept_connection_serves_only_the_address_it_was_dialled_to():
    x1, x2 = _vectors()
    kind = ProtocolKind.TWO_PARTY_HAMMING
    with BobServer(x2) as bob, BobServer(x2 + 1.0) as other:
        _start_counting_accepts(bob, other)
        run_over_tcp(kind, x1, PARAMS, SEED, bob.address)
        kept = transport._alice.idle[Role.BOB]
        seed = bytes([15]) * 32
        run = run_over_tcp(kind, x1, PARAMS, seed, other.address)
        assert run.mean_lee == drive_local(kind, x1, x2 + 1.0, PARAMS, seed).mean_lee
        assert other.wait_result(run.session_id, 5.0) is not None
        assert kept.closed and transport._alice.idle[Role.BOB].peer == other.address
        assert bob._listener.accepted == other._listener.accepted == 1


@pytest.mark.parametrize("failure", ["abort", "timeout"])
def test_a_failed_session_closes_the_connections_it_reused(failure):
    x1, x2 = _vectors()
    with CharlieServer() as charlie, BobServer(x2, charlie_address=charlie.address) as bob:
        charlie.start()
        bob.start()
        run_over_tcp(ProtocolKind.FULL_KEY_3P, x1, PARAMS, SEED, bob.address, charlie.address)
        kept = dict(transport._alice.idle)
        assert set(kept) == {Role.BOB, Role.CHARLIE}
        if failure == "abort":  # a key share for vectors of another length: Bob aborts it
            x1, error = x1[:-1], ProtocolViolation
        else:  # Bob takes the key share and never answers it
            handle = bob._handle
            bob._handle = lambda conn, env: None if isinstance(env.body, KeyShare) else handle(conn, env)
            error = TransportClosed
        with pytest.raises(error):
            run_over_tcp(ProtocolKind.FULL_KEY_3P, x1, PARAMS, bytes([13]) * 32, bob.address, charlie.address, timeout=0.3)
        assert transport._alice.idle == {}
        assert all(conn.closed for conn in kept.values())


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_concurrent_alices_keep_their_own_connections_until_they_exit():
    x1, x2 = _vectors()
    kind = ProtocolKind.FULL_KEY_3P
    open_fds = lambda: len(os.listdir("/proc/self/fd"))  # noqa: E731
    with CharlieServer() as charlie, BobServer(x2, charlie_address=charlie.address) as bob:
        _start_counting_accepts(charlie, bob)
        before = open_fds()
        both_connected = threading.Barrier(2)
        seen = {}

        def alice(t):
            conns = set()
            for i in range(20):
                run_over_tcp(kind, x1, PARAMS, bytes([t, i]) * 16, bob.address, charlie.address)
                conns.add(tuple(transport._alice.idle[role] for role in (Role.BOB, Role.CHARLIE)))
                if i == 0:
                    both_connected.wait(timeout=10)
            seen[t] = conns

        threads = [threading.Thread(target=alice, args=(t,)) for t in (1, 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert len(seen[1]) == len(seen[2]) == 1  # one connection per peer for all 20 sessions
        ((bob1, charlie1),), ((bob2, charlie2),) = seen[1], seen[2]
        assert bob1 is not bob2 and charlie1 is not charlie2
        assert bob._listener.accepted == 2 and charlie._listener.accepted == 3  # and Bob's link
        # Closed as each thread exited; the servers then close their ends.
        assert all(conn._sock.fileno() == -1 for conn in (bob1, charlie1, bob2, charlie2))
        _eventually(lambda: open_fds() == before + 2)
        assert open_fds() == before + 2  # both ends of Bob's link to Charlie


@pytest.mark.parametrize("body", [Abort(reason="late"), DistanceResult(mean_lee=Fraction(0), count=1)],
                         ids=["abort", "result"])
def test_a_frame_for_an_earlier_session_on_a_kept_connection(body, caplog):
    # A late Abort is dropped and the session goes on; any other frame for
    # another session is still refused.
    x1, x2 = _vectors()
    kind = ProtocolKind.TWO_PARTY_HAMMING  # Bob answers Alice: the stray frame comes first
    with BobServer(x2) as bob:
        _start_counting_accepts(bob)
        first = run_over_tcp(kind, x1, PARAMS, SEED, bob.address)
        stray, handle = Envelope(first.session_id, kind, Role.BOB, body), bob._handle

        def stray_first(conn, env):  # before Bob serves a key share
            if isinstance(env.body, KeyShare):
                bob._send(conn, stray)
            handle(conn, env)

        bob._handle = stray_first
        seed = bytes([14]) * 32
        with caplog.at_level(logging.WARNING, logger="modhash.transport"):
            if isinstance(body, Abort):
                run = run_over_tcp(kind, x1, PARAMS, seed, bob.address, timeout=7.0)
                assert run.mean_lee == drive_local(kind, x1, x2, PARAMS, seed).mean_lee
                assert len(run.received_frames) == len(first.received_frames)
                kept = transport._alice.idle[Role.BOB]
                assert kept.peer == bob.address and kept._sock.gettimeout() == 7.0  # the call's, on reuse
            else:
                with pytest.raises(ProtocolViolation, match="message for a different session"):
                    run_over_tcp(kind, x1, PARAMS, seed, bob.address)
                assert Role.BOB not in transport._alice.idle
        assert bob._listener.accepted == 1
        warned = [r.getMessage() for r in caplog.records if r.name == "modhash.transport"]
        late = f"session {first.session_id.hex()[:8]}: Abort for no open session"
        assert (late in warned) == isinstance(body, Abort)


# ------------------------------------------------------------------ memory


def test_bob_sessions_waiting_for_charlie_hold_no_key_matrix():
    # Before, each of Bob's sessions kept its key, so an A of 1.6 MB here,
    # until Charlie answered.
    params = ProtocolParams.from_dimensions(8, 500)
    n, sessions = 400, 6
    x1, x2 = np.random.default_rng(4).standard_normal((2, n))
    shares = []  # Alice's key shares alone: Charlie never gets her submission
    for i in range(sessions):
        _, outgoing = start_session(
            Role.ALICE, ProtocolKind.FULL_KEY_3P, params, x=x1, seed=i.to_bytes(32, "big")
        )
        shares.append(encode_envelope(outgoing[0]))
    del outgoing
    with CharlieServer() as charlie, BobServer(x2, charlie_address=charlie.address) as bob:
        charlie.start()
        bob.start()
        conn = TcpTransport.connect(*bob.address, timeout=5.0)
        try:
            conn.send_frame(shares.pop())  # dials Charlie and loads scipy outside the trace
            _eventually(lambda: len(charlie._sessions) == 1)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                while shares:
                    conn.send_frame(shares.pop())
                _eventually(lambda: len(charlie._sessions) == sessions)
                # Bob may still be inside the last share's handler, holding its
                # frame and A. His loop serves one frame at a time, so once he
                # has refused a probe sent after it, he has let the share go.
                probe = Envelope(b"\x0f" * 16, ProtocolKind.FULL_KEY_3P, Role.CHARLIE,
                                 DistanceResult(mean_lee=Fraction(0), count=1))
                conn.send_frame(encode_envelope(probe))
                assert decode_frame(conn.recv_frame()).session_id == probe.session_id
                grown = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            waiting = [live.session.phase for live in list(bob._sessions.values())]
        finally:
            conn.close()
    assert waiting == [Phase.AWAIT_RESULT] * sessions
    assert grown < params.m * n * 8  # all five sessions together, less than one A


def test_alice_holds_no_key_matrix_while_she_waits(monkeypatch):
    # Before, Alice's session kept its key and run_over_tcp the key share it
    # had sent, until the session ended.
    x1, _ = _vectors()
    matrices = []
    generate = protocol.generate_key

    def generate_key(*args, **kwargs):
        key = generate(*args, **kwargs)
        matrices.append(weakref.ref(key.a))
        return key

    monkeypatch.setattr(protocol, "generate_key", generate_key)
    got_share, release, outcome = threading.Event(), threading.Event(), {}
    with socket.create_server(("127.0.0.1", 0)) as listener:

        def bob():  # takes the key share and never answers
            sock, _ = listener.accept()
            conn = TcpTransport(sock)
            conn.recv_frame()
            got_share.set()
            release.wait(10)
            conn.close()

        def alice():
            try:
                run_over_tcp(ProtocolKind.TWO_PARTY_HAMMING, x1, PARAMS, SEED, listener.getsockname()[:2])
            except TransportClosed as exc:
                outcome["error"] = exc

        threads = [threading.Thread(target=bob), threading.Thread(target=alice)]
        for t in threads:
            t.start()
        assert got_share.wait(10)
        _eventually(lambda: matrices[0]() is None)
        freed, waiting = matrices[0]() is None, threads[1].is_alive()
        release.set()
        for t in threads:
            t.join(timeout=10)
    assert waiting and freed
    assert "peer closed" in str(outcome["error"])


# ------------------------------------------------------------------ key files


def test_key_json_roundtrip():
    key = generate_key(8, 6, 4, SEED, delta=1.25)
    back = key_from_json(key_to_json(key))
    assert back == key


def test_key_json_seed_form():
    key = generate_key(8, 6, 4, SEED)
    text = key_to_json(key, seed=SEED)
    doc = json.loads(text)
    assert doc["non_interoperable"] is True
    assert doc["sampler"] == "ziggurat256"
    assert "a" not in doc
    assert key_from_json(text) == key


@pytest.mark.parametrize("sampler", [None, "probit", ""], ids=["unnamed", "probit", "empty"])
def test_key_json_seed_form_must_name_this_sampler(sampler):
    # a seed form written before the sampler was named made its normals by
    # the probit: loaded here, it would silently be another key
    doc = json.loads(key_to_json(generate_key(8, 6, 4, SEED), seed=SEED))
    if sampler is None:
        del doc["sampler"]
    else:
        doc["sampler"] = sampler
    with pytest.raises(InvalidInput, match="not a valid key file.*sampler"):
        key_from_json(json.dumps(doc))


def test_key_json_rejects_garbage():
    with pytest.raises(InvalidInput):
        key_from_json("{not json")
    with pytest.raises(InvalidInput):
        key_from_json(json.dumps({"k": 8}))


_KEY_DOC = {"k": 8, "delta": 1, "M": 1, "N": 1, "a": [0.1], "u": [0.5]}


@pytest.mark.parametrize(
    "field, value",
    [("k", 8.9), ("k", 8.0), ("k", True), ("k", "8"), ("M", True), ("M", 1.9), ("N", 1.5), ("N", "1"),
     ("delta", "1"), ("delta", True)],
)
def test_key_files_refuse_sizes_they_would_have_to_coerce(field, value):
    # Before, int() and float() took whatever the file held: k = 8.9 loaded
    # as k = 8, M = true as one row.
    key_from_json(json.dumps(_KEY_DOC))
    with pytest.raises(InvalidInput, match="not a valid key file"):
        key_from_json(json.dumps({**_KEY_DOC, field: value}))


def test_key_files_refuse_coerced_sizes_in_every_form():
    with pytest.raises(InvalidInput):
        key_from_json(json.dumps({"k": 8.9, "delta": 1, "M": True, "N": 1.5, "a": [0.1], "u": [0.5]}))
    with pytest.raises(InvalidInput):
        key_from_json(json.dumps({"k": 8.9, "delta": 1, "M": 6, "N": 4, "seed": SEED.hex(), "sampler": "ziggurat256"}))
