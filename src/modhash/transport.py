"""Framed transports and networked role endpoints.

Two interchangeable transports carry the frames produced by the wire module:
in-process pipes (queue-backed, for tests and local orchestration) and TCP.
Both expose the same three calls -- send_frame / recv_frame / close -- so
protocol code runs unchanged over either. A single connection may interleave
frames of many sessions; receivers demultiplex by session id.

Networked deployment mirrors the protocol roles:

    CharlieServer   pure listener; pairs hash submissions by session id and
                    returns the distance result over the submitting connections.
    BobServer       listener for Alice's key share; submits Bob's hash to
                    Charlie (dialing per session) or answers the oracle flow.
    run_over_tcp    Alice's side: dials Bob (and Charlie), drives one session.

Serialization of hash keys to the documented JSON interchange format also
lives here.
"""

import json
import logging
import socket
import threading

import numpy as np

from . import wire
from .analysis import EstimateMode
from .core import HashKey, generate_key
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
from .protocol import MatrixStore, SecureHammingOracle, Session, start_session

log = logging.getLogger("modhash.transport")

_CLOSED = object()
_ACCEPT_BACKOFF_S = 0.1


class LocalPipe:
    """One endpoint of an in-process duplex frame channel."""

    def __init__(self, inbox, outbox):
        self._inbox = inbox
        self._outbox = outbox
        self._closed = False

    def send_frame(self, data: bytes):
        if self._closed:
            raise TransportClosed("endpoint closed")
        self._outbox.put(data)

    def recv_frame(self) -> bytes:
        item = self._inbox.get()
        if item is _CLOSED:
            self._inbox.put(_CLOSED)  # keep later readers failing too
            raise TransportClosed("peer closed the channel")
        return item

    def close(self):
        if not self._closed:
            self._closed = True
            self._outbox.put(_CLOSED)


def local_pair() -> tuple[LocalPipe, LocalPipe]:
    import queue

    a_to_b: "queue.SimpleQueue" = queue.SimpleQueue()
    b_to_a: "queue.SimpleQueue" = queue.SimpleQueue()
    return LocalPipe(b_to_a, a_to_b), LocalPipe(a_to_b, b_to_a)


class TcpTransport:
    """Frame-oriented wrapper over a connected TCP socket.

    Writes are atomic per frame (serialized by a lock); reads return one
    complete frame, raising TransportClosed on EOF or connection loss.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._wlock = threading.Lock()

    @classmethod
    def connect(cls, host: str, port: int, timeout: float | None = None) -> "TcpTransport":
        """Dial host:port. timeout (None = block) bounds the connect and each
        later send and receive; one that expires raises TransportClosed."""
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise TransportClosed(f"cannot connect to {host}:{port}: {exc}") from exc
        return cls(sock)

    def _recv_exact(self, n: int) -> bytes:
        chunks = []
        while n:
            try:
                chunk = self._sock.recv(min(n, 1 << 20))
            except OSError as exc:
                raise TransportClosed(f"connection lost: {exc}") from exc
            if not chunk:
                raise TransportClosed("peer closed the connection")
            chunks.append(chunk)
            n -= len(chunk)
        return b"".join(chunks)

    def send_frame(self, data: bytes):
        with self._wlock:
            try:
                self._sock.sendall(data)
            except OSError as exc:
                raise TransportClosed(f"send failed: {exc}") from exc

    def recv_frame(self) -> bytes:
        header = self._recv_exact(4)
        length = wire.frame_length(header)  # DecodeError on absurd lengths
        return header + self._recv_exact(length)

    def close(self):
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def _send_envelope(transport, env: Envelope):
    transport.send_frame(wire.encode_envelope(env))


def _recv_envelope(transport) -> Envelope:
    return wire.decode_frame(transport.recv_frame())


# ------------------------------------------------------------------ servers


class _RoleServer:
    """Shared accept-loop machinery for the listening roles."""

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
        self._listener.settimeout(0.25)  # lets stop() interrupt accept()
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._threads: list[threading.Thread] = []
        self._stopping = threading.Event()
        self._lock = threading.Lock()
        self._result_cv = threading.Condition()
        self.results: dict[bytes, object] = {}  # session_id -> DistanceEstimate

    def start(self) -> "_RoleServer":
        t = threading.Thread(target=self._accept_loop, name=f"{self.role.name}-accept", daemon=True)
        t.start()
        self._threads.append(t)
        return self

    def _accept_loop(self):
        while not self._stopping.is_set():
            try:
                sock, peer = self._listener.accept()
            except socket.timeout:
                continue
            except OSError as exc:
                if self._stopping.is_set() or self._listener.fileno() < 0:
                    break
                # EMFILE, ENFILE, ENOBUFS, ENOMEM, ECONNABORTED: the listener
                # still works, so wait for the shortage to pass and go on.
                log.warning("%s: accept failed, retrying: %s", self.role.name, exc)
                self._stopping.wait(_ACCEPT_BACKOFF_S)
                continue
            if self._stopping.is_set():
                sock.close()
                break
            conn = TcpTransport(sock)
            t = threading.Thread(
                target=self._serve_connection, args=(conn, peer),
                name=f"{self.role.name}-conn", daemon=True,
            )
            t.start()
            self._threads.append(t)

    def _serve_connection(self, conn: TcpTransport, peer):
        # The session tables keep their routes after the peer leaves, so the
        # socket is closed here or its descriptor would never be released.
        try:
            while True:
                try:
                    env = _recv_envelope(conn)
                except TransportClosed:
                    return
                except DecodeError as exc:
                    # Bad frame: this connection is unusable, but the server lives on.
                    log.warning("%s: dropping connection from %s: %s", self.role.name, peer, exc)
                    return
                try:
                    self._handle(conn, env)
                except TransportClosed:
                    return
                except ModHashError as exc:
                    log.warning("%s: session %s aborted: %s", self.role.name, env.session_id.hex()[:8], exc)
                    self._abort_session(conn, env, str(exc))
        finally:
            conn.close()

    def _abort_session(self, conn: TcpTransport, env: Envelope, reason: str):
        try:
            _send_envelope(conn, Envelope(env.session_id, env.kind, self.role, Abort(reason=reason)))
        except TransportClosed:
            pass

    def _handle(self, conn: TcpTransport, env: Envelope):
        raise NotImplementedError

    def _record_result(self, session_id: bytes, result):
        with self._result_cv:
            self.results[session_id] = result
            self._result_cv.notify_all()

    def wait_result(self, session_id: bytes, timeout: float = 30.0):
        """Block until this session's estimate exists (or raise on timeout)."""
        with self._result_cv:
            if self._result_cv.wait_for(lambda: session_id in self.results, timeout):
                return self.results[session_id]
        raise TransportClosed(f"no result for session {session_id.hex()[:8]} within {timeout}s")

    def stop(self):
        self._stopping.set()
        try:  # wake a blocked accept() immediately
            socket.create_connection(self.address, timeout=0.5).close()
        except OSError:
            pass
        self._listener.close()
        for t in self._threads:
            t.join(timeout=5)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.stop()


class CharlieServer(_RoleServer):
    """The averaging party: accepts hash submissions from any number of
    concurrent sessions and answers both submitters with the exact mean."""

    role = Role.CHARLIE

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        super().__init__(host, port)
        self._sessions: dict[bytes, Session] = {}
        self._routes: dict[bytes, dict[Role, TcpTransport]] = {}

    def _handle(self, conn: TcpTransport, env: Envelope):
        if not isinstance(env.body, (HashSubmission, Abort)):
            raise ProtocolViolation(f"third party cannot accept {type(env.body).__name__}")
        with self._lock:
            session = self._sessions.get(env.session_id)
            if session is None:
                if env.kind not in THREE_PARTY_KINDS:
                    raise ProtocolViolation(f"{env.kind.name} does not involve a third party")
                session, _ = start_session(Role.CHARLIE, env.kind, session_id=env.session_id)
                self._sessions[env.session_id] = session
                self._routes[env.session_id] = {}
            self._routes[env.session_id][env.sender] = conn
            outgoing = session.on_message(env.addressed_to(Role.CHARLIE))
            routes = self._routes[env.session_id]
        for out in outgoing:
            _send_envelope(routes[out.recipient], out)
        if session.done:
            log.info(
                "session %s: served mean over %d components",
                env.session_id.hex()[:8], env.body.vector.m if isinstance(env.body, HashSubmission) else -1,
            )


class BobServer(_RoleServer):
    """Bob's listening endpoint: one fixed input vector, any number of
    sessions initiated by Alice key shares."""

    role = Role.BOB

    def __init__(
        self,
        x2,
        charlie_address: tuple[str, int] | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        matrix_store: MatrixStore | None = None,
        mode: EstimateMode = EstimateMode.RAW,
        saturation_margin: float | None = None,
    ):
        super().__init__(host, port)
        self._x2 = np.asarray(x2, dtype=np.float64)
        self._charlie_address = charlie_address
        self._matrix_store = matrix_store
        self._mode = mode
        self._margin = saturation_margin
        self._sessions: dict[bytes, Session] = {}
        self._charlie_conns: dict[bytes, TcpTransport] = {}
        self._alice_conns: dict[bytes, TcpTransport] = {}

    def _handle(self, conn: TcpTransport, env: Envelope):
        with self._lock:
            session = self._sessions.get(env.session_id)
            if session is None:
                if not isinstance(env.body, KeyShare):
                    raise ProtocolViolation("session must open with a key share")
                session, _ = start_session(
                    Role.BOB, env.kind, x=self._x2, session_id=env.session_id,
                    matrix_store=self._matrix_store, mode=self._mode,
                    saturation_margin=self._margin,
                )
                self._sessions[env.session_id] = session
                self._alice_conns[env.session_id] = conn
        outgoing = session.on_message(env.addressed_to(Role.BOB))
        for out in outgoing:
            if out.recipient == Role.CHARLIE:
                self._send_to_charlie(env.session_id, out)
            else:
                _send_envelope(self._alice_conns[env.session_id], out)
        if session.done:
            self._record_result(env.session_id, session.result)
            log.info("session %s: estimate %s", env.session_id.hex()[:8], session.result)

    def _send_to_charlie(self, session_id: bytes, env: Envelope):
        if self._charlie_address is None:
            raise ProtocolViolation("no third-party address configured")
        charlie = TcpTransport.connect(*self._charlie_address)
        self._charlie_conns[session_id] = charlie
        _send_envelope(charlie, env)
        t = threading.Thread(
            target=self._await_charlie, args=(session_id, charlie),
            name="BOB-charlie", daemon=True,
        )
        t.start()
        self._threads.append(t)

    def _await_charlie(self, session_id: bytes, charlie: TcpTransport):
        session = self._sessions[session_id]
        try:
            env = _recv_envelope(charlie)
            session.on_message(env.addressed_to(Role.BOB))
        except (TransportClosed, DecodeError, ProtocolViolation) as exc:
            log.warning("session %s: %s", session_id.hex()[:8], exc)
        finally:
            charlie.close()
        if session.done:
            self._record_result(session_id, session.result)
            log.info("session %s: estimate %s", session_id.hex()[:8], session.result)


class RunResult:
    """What Alice's side of a networked run learned."""

    def __init__(self, session: Session, received_frames: list[bytes]):
        self.estimate = session.result
        self.mean_lee = session.true_mean
        self.observed_mean = session.observed_mean
        self.session_id = session.session_id
        self.received_frames = tuple(received_frames)


def run_over_tcp(
    kind: ProtocolKind,
    x1,
    params,
    seed: bytes,
    bob_address: tuple[str, int],
    charlie_address: tuple[str, int] | None = None,
    *,
    mode: EstimateMode = EstimateMode.RAW,
    oracle: SecureHammingOracle | None = None,
    matrix_store: MatrixStore | None = None,
    saturation_margin: float | None = None,
    timeout: float | None = 30.0,
) -> RunResult:
    """Drive one session as Alice against live Bob/Charlie endpoints."""
    kind = ProtocolKind(kind)
    if kind in THREE_PARTY_KINDS and charlie_address is None:
        raise InvalidParameter(f"{kind.name} requires a third-party address")
    from .protocol import HonestBrokerOracle

    if kind == ProtocolKind.TWO_PARTY_HAMMING and oracle is None:
        oracle = HonestBrokerOracle()
    if kind == ProtocolKind.PUBLIC_A_3P and matrix_store is None:
        matrix_store = MatrixStore()
    session, outgoing = start_session(
        Role.ALICE, kind, params, x=x1, seed=seed, matrix_store=matrix_store,
        oracle=oracle, mode=mode, saturation_margin=saturation_margin,
    )
    bob = TcpTransport.connect(*bob_address, timeout=timeout)
    charlie = None
    received: list[bytes] = []
    try:
        if charlie_address is not None:
            charlie = TcpTransport.connect(*charlie_address, timeout=timeout)
        for env in outgoing:
            _send_envelope(bob if env.recipient == Role.BOB else charlie, env)
        # Alice awaits exactly one inbound flow per kind: the distance result
        # from Charlie, or the oracle request from Bob.
        inbound = charlie if kind in THREE_PARTY_KINDS else bob
        while not (session.done or session.aborted):
            frame = inbound.recv_frame()
            received.append(frame)
            env = wire.decode_frame(frame).addressed_to(Role.ALICE)
            for out in session.on_message(env):
                _send_envelope(bob if out.recipient == Role.BOB else charlie, out)
    finally:
        bob.close()
        if charlie is not None:
            charlie.close()
    if session.aborted:
        raise ProtocolViolation(f"session aborted: {session.abort_reason}")
    return RunResult(session, received)


# ------------------------------------------------------------------ key files


def key_to_json(key: HashKey, include_matrix: bool = True, seed: bytes | None = None) -> str:
    """Serialize a key to the documented JSON interchange format.

    The explicit-matrix form {k, delta, M, N, a, u} is the interoperable one.
    With include_matrix=False a {seed} form is written instead; it is marked
    non-interoperable because it only reproduces the key under this package's
    own deterministic generator.
    """
    doc = {"k": key.k, "delta": key.delta, "M": key.m, "N": key.n}
    if include_matrix:
        doc["a"] = [float(v) for v in key.a.reshape(-1)]
        doc["u"] = [float(v) for v in key.u]
    else:
        if seed is None:
            raise InvalidParameter("the seed form requires the generating seed")
        doc["seed"] = seed.hex()
        doc["non_interoperable"] = True
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def key_from_json(text: str) -> HashKey:
    """Load a key from either JSON form."""
    try:
        doc = json.loads(text)
        k, delta, m, n = int(doc["k"]), float(doc["delta"]), int(doc["M"]), int(doc["N"])
        if "seed" in doc:
            return generate_key(k, m, n, bytes.fromhex(doc["seed"]), delta)
        a = np.asarray(doc["a"], dtype=np.float64).reshape(m, n)
        u = np.asarray(doc["u"], dtype=np.float64)
        return HashKey(k=k, delta=delta, a=a, u=u)
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise InvalidInput(f"not a valid key file: {exc}") from exc


def matrix_to_json(a: np.ndarray) -> str:
    """Serialize just a public projection matrix {M, N, a}."""
    a = np.asarray(a, dtype=np.float64)
    doc = {"M": a.shape[0], "N": a.shape[1], "a": [float(v) for v in a.reshape(-1)]}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def matrix_from_json(text: str) -> np.ndarray:
    try:
        doc = json.loads(text)
        return np.asarray(doc["a"], dtype=np.float64).reshape(int(doc["M"]), int(doc["N"]))
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise InvalidInput(f"not a valid matrix file: {exc}") from exc
