"""Framed transports and networked role endpoints.

TcpTransport carries the frames produced by the wire module over one
connected socket with three calls -- send_frame / recv_frame / close -- and is
the one connection class of all three roles. In process, drive_local needs no
transport: it hands each frame straight to the recipient's session. A single
connection may interleave frames of many sessions; receivers demultiplex by
session id.

Networked deployment mirrors the protocol roles:

    CharlieServer   pure listener; pairs hash submissions by session id and
                    returns the distance result over the submitting connections.
    BobServer       listener for Alice's key share, which carries all the key
                    material Bob needs; submits Bob's hash to Charlie over
                    one shared connection, or sends his ring code back to
                    Alice as a Hamming request.
    run_over_tcp    Alice's side: drives one session over her connections to
                    Bob (and Charlie).

Each server runs one selector loop on one thread. The loop accepts, reads and
writes every connection through a non-blocking TcpTransport, and is the only
owner of every Session the server drives. Bob dials Charlie when a
three-party session first needs him, keeps that connection for every later
session, and routes Charlie's replies by session id. A session leaves its
table as soon as it ends, or after _IDLE_S without a message; the ids of
ended sessions stay in a bounded window, so a replayed message is refused
rather than opening a new session.

Alice waits on both of her blocking connections (one for two-party) with a
selector, so an Abort from either peer ends her run at once. Like Bob's link,
her connections outlive a session: each thread keeps at most one idle
connection per peer role, and reuses it while it goes to the same address
and its peer has neither closed it nor sent anything since. A session that
fails closes its connections; the thread's exit closes its idle ones. An
Abort that names an earlier session of a kept connection is dropped.

A session that fails -- a session error, the idle sweep or a lost
connection -- ends in _RoleServer._abort, which sends the Aborts that
Session.abort builds to every peer the session has a route to. A message
that names no open session and cannot open one is refused with an Abort on
the connection it came on. An Abort is never answered, and Bob drops
Charlie's replies for no open session, so two servers cannot trade Aborts.
Charlie keeps the id of an Abort for a session he has not opened in the
window of ended sessions, so the submission it overtook is refused at once.

Serialization of hash keys to the documented JSON interchange format also
lives here.
"""

import errno
import json
import logging
import os
import selectors
import socket
import threading
import time
from collections import OrderedDict

import numpy as np

from . import wire
from .analysis import EstimateMode
from .core import HashKey, _check_even_k, _check_real, _check_size, generate_key
from .errors import (
    DecodeError,
    InvalidInput,
    InvalidParameter,
    ModHashError,
    ProtocolViolation,
    TransportClosed,
)
from .messages import (
    Abort,
    Envelope,
    HashSubmission,
    KeyShare,
    ProtocolKind,
    Role,
    THREE_PARTY_KINDS,
)
from .protocol import Phase, Session, start_session
from .rng import NORMAL_SAMPLER

log = logging.getLogger("modhash.transport")

_ACCEPT_BACKOFF_S = 0.1
_TICK_S = 0.25  # longest a server loop sleeps: how soon stop() and deadlines act
_IDLE_S = 30.0  # a session without a message, or a partial frame, is dropped after this
_FINISHED_WINDOW = 1 << 16  # ids of ended sessions kept to refuse replays
_MAX_UNSENT = 64 << 20  # bytes queued to a peer that does not read before it is dropped
_RECV_CHUNK = 1 << 16  # a larger request costs each read a fresh mapping


class TcpTransport:
    """Frames over one connected socket, for every role: the bytes read that
    do not yet make a whole frame, and the bytes queued that the peer has not
    taken.

    On a blocking socket (Alice's) each call sends or reads one whole frame.
    On a non-blocking one (a server's) send_frame queues what the peer does
    not take at once, for flush; recv_frame returns None when no frame is
    whole, and reads at most once between two Nones, so reading until None
    is one read per readiness event. A lost connection raises
    TransportClosed. A transport belongs to one thread.
    """

    def __init__(self, sock: socket.socket, peer=None):
        self._sock = sock
        self.peer = peer
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        self.partial_since: float | None = None
        self.closed = False
        self._has_read = False  # since recv_frame last returned None

    @classmethod
    def connect(cls, host: str, port: int, timeout: float | None = None) -> "TcpTransport":
        """Dial host:port. timeout (None = block) bounds the connect and each
        later send and receive; one that expires raises TransportClosed."""
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError as exc:
            raise TransportClosed(f"cannot connect to {host}:{port}: {exc}") from exc
        return cls(sock, (host, port))

    def send_frame(self, data: bytes):
        try:
            if self._sock.getblocking():
                self._sock.sendall(data)
                return
            sent = 0 if self.outbuf else self._sock.send(data)
        except BlockingIOError:
            sent = 0
        except OSError as exc:
            raise TransportClosed(f"send failed: {exc}") from exc
        self.outbuf += memoryview(data)[sent:]

    def flush(self):
        """Send what the socket takes now of the queued bytes."""
        try:
            sent = self._sock.send(self.outbuf)
        except BlockingIOError:
            return
        except OSError as exc:
            raise TransportClosed(f"send failed: {exc}") from exc
        del self.outbuf[:sent]

    def _frame_end(self) -> int:
        """Where the whole frame at the head of inbuf ends, or 0 if none is whole."""
        buf = self.inbuf
        if len(buf) < 4:
            return 0
        end = 4 + wire.frame_length(bytes(buf[:4]))  # DecodeError on absurd lengths
        return end if len(buf) >= end else 0

    def recv_frame(self) -> bytes | None:
        while not (end := self._frame_end()):
            if self._has_read and not self._sock.getblocking():
                self._has_read = False
                return None
            try:
                data = self._sock.recv(_RECV_CHUNK)
            except BlockingIOError:
                return None
            except OSError as exc:
                raise TransportClosed(f"connection lost: {exc}") from exc
            if not data:
                raise TransportClosed("peer closed the connection")
            if not self.inbuf:
                self.partial_since = time.monotonic()
            self.inbuf += data
            self._has_read = True
        with memoryview(self.inbuf) as view:  # one copy; released before the resize
            frame = bytes(view[:end])
        del self.inbuf[:end]
        self.partial_since = time.monotonic() if self.inbuf else None
        return frame

    def close(self):
        self.closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


# ------------------------------------------------------------------ servers


class _Live:
    """A session in a server's table: its state machine, the connection that
    reaches each peer, and when it last received a message."""

    __slots__ = ("session", "routes", "touched")

    def __init__(self, session: Session):
        self.session = session
        self.routes: dict[Role, TcpTransport] = {}
        self.touched = time.monotonic()


class _RoleServer:
    """One selector loop, on one thread, that accepts, reads and writes every
    connection and is the only owner of every Session the server drives."""

    role: Role

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            self._listener.bind((host, port))
        except OSError as exc:
            self._listener.close()
            raise TransportClosed(f"cannot bind {host}:{port}: {exc}") from exc
        self._listener.listen()
        self._listener.setblocking(False)
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._selector = selectors.DefaultSelector()
        self._threads: list[threading.Thread] = []
        self._stopping = threading.Event()
        self._result_cv = threading.Condition()
        self.results: OrderedDict[bytes, object] = OrderedDict()  # session_id -> DistanceEstimate
        self._sessions: dict[bytes, _Live] = {}
        self._finished: OrderedDict[bytes, Phase] = OrderedDict()  # replay window

    def start(self) -> "_RoleServer":
        t = threading.Thread(target=self._loop, name=f"{self.role.name}-loop", daemon=True)
        t.start()
        self._threads.append(t)
        return self

    # -------------------------------------------------------------- the loop

    def _loop(self):
        self._selector.register(self._listener, selectors.EVENT_READ)
        accept_paused_until = None
        next_sweep = time.monotonic() + _TICK_S
        try:
            while not self._stopping.is_set():
                for key, events in self._selector.select(_TICK_S):
                    conn = key.data
                    if conn is None:
                        if not self._accept():
                            self._selector.unregister(self._listener)
                            accept_paused_until = time.monotonic() + _ACCEPT_BACKOFF_S
                        continue
                    if conn.closed:  # dropped earlier in this batch
                        continue
                    try:
                        if events & selectors.EVENT_WRITE:
                            self._flush(conn)
                        if events & selectors.EVENT_READ and not conn.closed:
                            self._read(conn)
                    except Exception:  # a fault in one exchange must not end the server
                        log.exception("%s: dropping connection from %s", self.role.name, conn.peer)
                        self._drop(conn)
                now = time.monotonic()
                if accept_paused_until is not None and now >= accept_paused_until:
                    self._selector.register(self._listener, selectors.EVENT_READ)
                    accept_paused_until = None
                if now >= next_sweep:
                    self._sweep(now)
                    next_sweep = now + _TICK_S
        finally:
            for key in list(self._selector.get_map().values()):
                if key.data is not None:
                    key.data.close()

    def _accept(self) -> bool:
        """Accept one connection; False if accepting should pause a while."""
        try:
            sock, peer = self._listener.accept()
        except BlockingIOError:
            return True
        except OSError as exc:
            # EMFILE, ENFILE, ENOBUFS, ENOMEM, ECONNABORTED: the listener
            # still works, so wait for the shortage to pass and go on.
            log.warning("%s: accept failed, retrying: %s", self.role.name, exc)
            return False
        try:
            self._register(sock, peer)
        except OSError:  # reset by the peer before it could be set up
            sock.close()
        return True

    def _register(self, sock: socket.socket, peer) -> TcpTransport:
        sock.setblocking(False)
        # Frames of many sessions share a connection; Nagle would hold each
        # small one until the previous was acknowledged.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = TcpTransport(sock, peer)
        self._selector.register(sock, selectors.EVENT_READ, conn)
        return conn

    def _read(self, conn: TcpTransport):
        try:
            while not conn.closed and (frame := conn.recv_frame()) is not None:
                self._serve(conn, wire.decode_frame(frame))
        except TransportClosed:
            self._drop(conn)
        except DecodeError as exc:
            # Bad frame: this connection is unusable, but the server lives on.
            log.warning("%s: dropping connection from %s: %s", self.role.name, conn.peer, exc)
            self._drop(conn)

    def _send(self, conn: TcpTransport, env: Envelope):
        """Queue one frame; the loop never waits for a peer to read."""
        if conn.closed:
            return
        queued = bool(conn.outbuf)
        try:
            conn.send_frame(wire.encode_envelope(env))
        except TransportClosed:
            self._drop(conn)
            return
        if len(conn.outbuf) > _MAX_UNSENT:
            log.warning("%s: dropping connection from %s: %d bytes unsent", self.role.name, conn.peer, len(conn.outbuf))
            self._drop(conn)
        elif conn.outbuf and not queued:
            self._selector.modify(conn._sock, selectors.EVENT_READ | selectors.EVENT_WRITE, conn)

    def _flush(self, conn: TcpTransport):
        try:
            conn.flush()
        except TransportClosed:
            self._drop(conn)
            return
        if not conn.outbuf:
            self._selector.modify(conn._sock, selectors.EVENT_READ, conn)

    def _drop(self, conn: TcpTransport):
        """Close a connection and abort the sessions that were waiting on it."""
        if conn.closed:
            return
        self._selector.unregister(conn._sock)
        conn.close()
        for live in [live for live in self._sessions.values() if conn in self._awaited(live)]:
            self._abort(live, "connection lost")

    def _sweep(self, now: float):
        for live in [live for live in self._sessions.values() if now - live.touched > _IDLE_S]:
            self._abort(live, f"idle for more than {_IDLE_S:g} s")
        for key in list(self._selector.get_map().values()):
            conn = key.data
            if conn is not None and conn.partial_since is not None and now - conn.partial_since > _IDLE_S:
                log.warning(
                    "%s: dropping connection from %s: partial frame held for more than %g s",
                    self.role.name, conn.peer, _IDLE_S,
                )
                self._drop(conn)

    # -------------------------------------------------------------- sessions

    def _serve(self, conn: TcpTransport, env: Envelope):
        """Handle one envelope. An error ends the open session it names through
        _abort; with no open session, only the sender is told, unless what it
        sent was itself an Abort."""
        try:
            self._handle(conn, env)
        except ModHashError as exc:
            live = self._sessions.get(env.session_id)
            if live is not None:
                self._abort(live, str(exc))
                return
            log.warning("%s: session %s refused: %s", self.role.name, env.session_id.hex()[:8], exc)
            if not isinstance(env.body, Abort):
                self._send(conn, Envelope(env.session_id, env.kind, self.role, Abort(reason=str(exc))))

    def _handle(self, conn: TcpTransport, env: Envelope):
        raise NotImplementedError

    def _awaited(self, live: _Live):
        """The connections whose loss leaves this session unable to finish."""
        return live.routes.values()

    def _live(self, session_id: bytes) -> _Live | None:
        """The open session, or None; a replay of an ended one is refused as
        the ended session itself would refuse it."""
        live = self._sessions.get(session_id)
        if live is None and session_id in self._finished:
            raise ProtocolViolation(f"message after {self._finished[session_id].name}")
        return live

    def _open(self, session: Session) -> _Live:
        live = self._sessions[session.session_id] = _Live(session)
        return live

    def _drive(self, live: _Live, env: Envelope):
        """Hand one envelope to the session, send what it answers, and take
        it out of the table once it has ended."""
        live.touched = time.monotonic()
        for out in live.session.on_message(env.addressed_to(self.role)):
            self._send(live.routes[out.recipient], out)
        if live.session.done or live.session.aborted:
            self._end(live.session.session_id)

    def _end(self, session_id: bytes):
        live = self._sessions.pop(session_id, None)
        if live is not None:
            self._finish(session_id, Phase.DONE if live.session.done else Phase.ABORTED)

    def _finish(self, session_id: bytes, phase: Phase):
        """Keep an ended session's id in the replay window, which holds the
        last _FINISHED_WINDOW of them."""
        self._finished[session_id] = phase
        if len(self._finished) > _FINISHED_WINDOW:
            self._finished.popitem(last=False)

    def _abort(self, live: _Live, reason: str):
        """The one exit of a failed session: take it out of the table and send
        its Aborts to every peer it has a route to."""
        session = live.session
        if self._sessions.get(session.session_id) is not live:
            return  # ended while an earlier abort was being sent
        log.warning("%s: session %s aborted: %s", self.role.name, session.session_id.hex()[:8], reason)
        aborts = session.abort(reason)
        self._end(session.session_id)
        for env in aborts:
            if env.recipient in live.routes:
                self._send(live.routes[env.recipient], env)

    # -------------------------------------------------------------- callers

    def _record_result(self, session_id: bytes, result):
        """Keep an estimate for wait_result; like the replay window, results
        holds the last _FINISHED_WINDOW of them."""
        with self._result_cv:
            self.results[session_id] = result
            if len(self.results) > _FINISHED_WINDOW:
                self.results.popitem(last=False)
            self._result_cv.notify_all()

    def wait_result(self, session_id: bytes, timeout: float = 30.0):
        """Block until this session's estimate exists (or raise on timeout,
        as for an estimate that has left the window)."""
        with self._result_cv:
            if self._result_cv.wait_for(lambda: session_id in self.results, timeout):
                return self.results[session_id]
        raise TransportClosed(f"no result for session {session_id.hex()[:8]} within {timeout}s")

    def stop(self):
        self._stopping.set()
        if self._threads:
            try:  # wake the loop now rather than at its next tick
                socket.create_connection(self.address, timeout=0.5).close()
            except OSError:
                pass
        for t in self._threads:
            t.join(timeout=5)
        self._listener.close()
        self._selector.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.stop()


class CharlieServer(_RoleServer):
    """The averaging party: accepts hash submissions from any number of
    concurrent sessions and answers both submitters with the exact mean."""

    role = Role.CHARLIE

    def _handle(self, conn: TcpTransport, env: Envelope):
        live = self._live(env.session_id)
        if live is None:
            if isinstance(env.body, Abort):
                # A peer's Abort overtook the submission that would have opened
                # the session: the submission, when it comes, is refused at once.
                self._finish(env.session_id, Phase.ABORTED)
                return
            if not isinstance(env.body, HashSubmission):
                raise ProtocolViolation("session must open with a hash submission")
            live = self._open(start_session(Role.CHARLIE, env.kind, session_id=env.session_id)[0])
        live.routes[env.sender] = conn
        self._drive(live, env)
        if live.session.done:  # only a submission completes Charlie's session
            log.info("session %s: served mean over %d components", env.session_id.hex()[:8], env.body.vector.m)


class BobServer(_RoleServer):
    """Bob's listening endpoint: one fixed input vector, any number of
    sessions initiated by Alice key shares. Hash submissions to Charlie share
    one connection, dialed when first needed and again after it is lost."""

    role = Role.BOB

    def __init__(
        self,
        x2,
        charlie_address: tuple[str, int] | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        mode: EstimateMode = EstimateMode.RAW,
    ):
        super().__init__(host, port)
        self._x2 = np.asarray(x2, dtype=np.float64)
        self._charlie_address = charlie_address
        self._mode = mode
        self._link: TcpTransport | None = None

    def _handle(self, conn: TcpTransport, env: Envelope):
        if conn is self._link:  # Charlie's replies never open a session
            live = self._sessions.get(env.session_id)
            if live is None:
                log.warning("session %s: reply for no open session", env.session_id.hex()[:8])
                return
        elif (live := self._live(env.session_id)) is None:
            if not isinstance(env.body, KeyShare):
                raise ProtocolViolation("session must open with a key share")
            session, _ = start_session(
                Role.BOB, env.kind, x=self._x2, session_id=env.session_id, mode=self._mode,
            )
            live = self._open(session)
            live.routes[Role.ALICE] = conn
            if env.kind in THREE_PARTY_KINDS:
                live.routes[Role.CHARLIE] = self._charlie_link()
        self._drive(live, env)
        session = live.session
        if session.done:
            self._record_result(session.session_id, session.result)
            log.info("session %s: estimate %s", session.session_id.hex()[:8], session.result)

    def _awaited(self, live: _Live):
        waits_on = Role.CHARLIE if live.session.kind in THREE_PARTY_KINDS else Role.ALICE
        return (live.routes.get(waits_on),)

    def _drop(self, conn: TcpTransport):
        if conn is self._link:
            self._link = None  # the next three-party session dials again
        super()._drop(conn)

    def _charlie_link(self) -> TcpTransport:
        if self._link is None:
            if self._charlie_address is None:
                raise ProtocolViolation("no third-party address configured")
            host, port = self._charlie_address
            try:
                family, type_, proto, _, addr = socket.getaddrinfo(host, port, type=socket.SOCK_STREAM)[0]
                sock = socket.socket(family, type_, proto)
            except OSError as exc:
                raise TransportClosed(f"cannot connect to {host}:{port}: {exc}") from exc
            sock.setblocking(False)
            err = sock.connect_ex(addr)
            if err not in (0, errno.EINPROGRESS):
                sock.close()
                raise TransportClosed(f"cannot connect to {host}:{port}: {os.strerror(err)}")
            self._link = self._register(sock, self._charlie_address)
        return self._link


class RunResult:
    """What Alice's side of a networked run learned."""

    def __init__(self, session: Session, received_frames: list[bytes]):
        self.estimate = session.result
        self.mean_lee = session.true_mean
        self.observed_mean = session.observed_mean
        self.session_id = session.session_id
        self.received_frames = tuple(received_frames)


class _Idle(dict):
    """Alice's idle connections on one thread, at most one per peer role.
    Freed, and so closed, when the thread exits."""

    def __del__(self):
        for conn in self.values():
            conn._sock.close()  # socket.close alone still works at interpreter exit


class _PerThread(threading.local):
    def __init__(self):  # runs once in each thread that touches _alice
        self.idle = _Idle()


_alice = _PerThread()


def _take(role: Role, address, timeout: float | None) -> TcpTransport:
    """This thread's idle connection to role, if it goes to address and its
    peer has neither closed it nor sent anything since; else a new one."""
    conn = _alice.idle.pop(role, None)
    if conn is not None:
        conn._sock.settimeout(0)
        try:
            conn._sock.recv(1, socket.MSG_PEEK)  # a byte, or b"" for a close
        except BlockingIOError:
            if conn.peer == tuple(address):
                conn._sock.settimeout(timeout)
                return conn
        except OSError:
            pass
        conn.close()
    return TcpTransport.connect(*address, timeout=timeout)


def run_over_tcp(
    kind: ProtocolKind,
    x1,
    params,
    seed: bytes,
    bob_address: tuple[str, int],
    charlie_address: tuple[str, int] | None = None,
    *,
    mode: EstimateMode = EstimateMode.RAW,
    timeout: float | None = 30.0,
) -> RunResult:
    """Drive one session as Alice against live Bob/Charlie endpoints.

    The connections come from this thread's idle ones when they still go to
    the same addresses and their peers have neither closed them nor sent
    anything since; otherwise they are dialled. A session that ends DONE
    leaves its connections idle for this thread's next session; any other
    end closes them. timeout (None = block) bounds the connect and each
    wait, to send or for a frame; expiry raises TransportClosed.
    """
    kind = ProtocolKind(kind)
    if kind in THREE_PARTY_KINDS and charlie_address is None:
        raise InvalidParameter(f"{kind.name} requires a third-party address")
    session, outgoing = start_session(Role.ALICE, kind, params, x=x1, seed=seed, mode=mode)
    links = {}
    received: list[bytes] = []
    ended = False
    try:
        links[Role.BOB] = _take(Role.BOB, bob_address, timeout)
        if charlie_address is not None:
            links[Role.CHARLIE] = _take(Role.CHARLIE, charlie_address, timeout)
        with selectors.DefaultSelector() as selector:
            for conn in links.values():
                selector.register(conn._sock, selectors.EVENT_READ, conn)
            while True:
                for env in outgoing:
                    links[env.recipient].send_frame(wire.encode_envelope(env))
                outgoing, env = (), None  # no envelope sent, a key share least of all, outlives its send
                if session.done or session.aborted:
                    break
                # Frames already buffered first: the selector sees only unread bytes.
                conn = next((c for c in links.values() if c._frame_end()), None)
                if conn is None:
                    ready = selector.select(timeout)
                    if not ready:
                        raise TransportClosed(f"no frame within {timeout:g} s")
                    conn = ready[0][0].data
                frame = conn.recv_frame()
                env = wire.decode_frame(frame)
                if isinstance(env.body, Abort) and env.session_id != session.session_id:
                    # A peer ended an earlier session of this connection after Alice had.
                    log.warning("session %s: Abort for no open session", env.session_id.hex()[:8])
                    continue
                received.append(frame)
                outgoing = session.on_message(env.addressed_to(Role.ALICE))
        ended = session.done
    finally:
        for role, conn in links.items():
            if ended and not conn.inbuf:
                _alice.idle[role] = conn
            else:
                conn.close()
    if session.aborted:
        raise ProtocolViolation(f"session aborted: {session.abort_reason}")
    return RunResult(session, received)


# ------------------------------------------------------------------ key files


def key_to_json(key: HashKey, seed: bytes | None = None) -> str:
    """Serialize a key to the documented JSON interchange format.

    The explicit-matrix form {k, delta, M, N, a, u} is the interoperable one.
    Given the seed that generated the key, a {seed} form is written instead;
    it is marked non-interoperable because it only reproduces the key under
    this package's own deterministic generator, and it names the normal
    sampler (rng.NORMAL_SAMPLER) that generator uses.
    """
    doc = {"k": key.k, "delta": key.delta, "M": key.m, "N": key.n}
    if seed is None:
        doc["a"] = [float(v) for v in key.a.reshape(-1)]
        doc["u"] = [float(v) for v in key.u]
    else:
        doc["seed"] = seed.hex()
        doc["sampler"] = NORMAL_SAMPLER
        doc["non_interoperable"] = True
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def key_from_json(text: str) -> HashKey:
    """Load a key from either JSON form. k, M and N must be JSON integers and
    delta a JSON number, checked as generate_key checks them: nothing is
    rounded or parsed from a string. A seed form must name this package's
    normal sampler: one written for another (or before the sampler was
    named) would load as a different key."""
    try:
        doc = json.loads(text)
        k, delta = _check_even_k(doc["k"]), _check_real(doc["delta"], "delta")
        m, n = _check_size(doc["M"], "M"), _check_size(doc["N"], "N")
        if "seed" in doc:
            if doc.get("sampler") != NORMAL_SAMPLER:
                raise InvalidParameter(
                    f"the seed form's normals come from sampler {doc.get('sampler')!r}, "
                    f"not this package's {NORMAL_SAMPLER!r}"
                )
            return generate_key(k, m, n, bytes.fromhex(doc["seed"]), delta)
        a = np.asarray(doc["a"], dtype=np.float64).reshape(m, n)
        u = np.asarray(doc["u"], dtype=np.float64)
        return HashKey(k=k, delta=delta, a=a, u=u)
    except (KeyError, TypeError, ValueError, InvalidParameter) as exc:
        raise InvalidInput(f"not a valid key file: {exc}") from exc
