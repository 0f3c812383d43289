"""Commitment-oracle service: framing, the TCP server and the client.

This module carries the bytes that ``hases.cco`` reads and writes: the
store, its request table and every request and response encoding are
there.  Only ``hases serve``, ``hases request`` and ``hases verify
--cco`` import it, and with it ``socket`` and ``selectors``.

Framing (stream transport): each frame is a 4-byte big-endian length
followed by the payload, a request or a response of ``hases.cco``.

A connection carries any number of requests, and a client may send
several before reading the replies: the server answers them one at a
time, in order.  ``CcoClient.ok_bodies`` keeps ``PIPELINE_WINDOW``
requests of any mix of types in flight this way; ``hases verify``
sends one pq opening per run of consecutive epochs, so a window holds
up to 16 runs.  Both ends turn Nagle's algorithm off (TCP_NODELAY): the
frames are small, and holding each one until the previous is
acknowledged would stall the pipeline.
The server reads requests of at most ``MAX_REQUEST_FRAME`` bytes: a
longer length prefix is answered as malformed and the connection is
closed, its body unread.

The server is one ``selectors`` loop on one thread: more threads would
buy no parallelism, as ``hashlib`` holds the interpreter lock for
inputs this short.  Each turn of the loop builds at most one part of
one reply per connection, a whole reply or one epoch of an export, so
a request that comes during an export waits about one build.
``MAX_CONNECTIONS``, ``IDLE_TIMEOUT_S`` and ``OUTPUT_CAP`` bound what
clients can hold of it.  Connections are logged at DEBUG on the
``hases.cco`` logger, the service's, as they open and close, with the
peer and the number of requests served; dropped and refused
connections and malformed frames at WARNING.

``hases serve`` on two or more CPUs forks one ``HashHelper``: each full
pq commitment build (``0x01``, the pq part of ``0x03``, every epoch of
``0x04``) first hands the helper the upper half of its t entries, then
hashes the lower half while the helper hashes the upper, which a
second thread could not do.  A hy
build derives its la part between the two, so that too overlaps the
helper's half, and the helper's reply is taken whole into the entry
body.  With one build at a time, every full build splits: none finds
the helper busy.  Openings (``0x05``) and combined commitments
(``0x08``) are built inline: they hash 2k entries, not 2t, and the
verifiers that send them keep the other CPU busy.
"""

from __future__ import annotations

import os
import selectors
import socket
import struct
import time
from collections import deque
from itertools import islice
from typing import BinaryIO, Iterable, Iterator

from . import hashing
from .cco import (
    MAX_FRAME,
    RESPONSE_BIT,
    STATUS_MALFORMED,
    STATUS_OK,
    CcoStore,
    commitment_payload,
    export_from_bytes,
    export_payload,
)
from .errors import CcoRequestError, MalformedFrame

# The largest request frame the server reads: an opening request is at
# most 1 + 24 + 4 * 256 = 1,049 bytes, k indices per epoch of its run and
# at most ``cco.MAX_OPENING_INDICES`` in all, a combined request
# 1 + 80 + 8 * 64 = 593.  A longer length prefix is answered as malformed
# before its body is read.
MAX_REQUEST_FRAME = 2048

# Requests a client keeps in flight on one connection.  This cannot
# deadlock: the client writes at most this many frames beyond what it
# has read, the largest being an opening request of at most
# 4 + 1 + 24 + 4 * 256 = 1,053 bytes, whatever run of epochs it opens,
# so a full window (under 17 KB) always fits the socket buffers and its
# writes never block, even while the server holds responses it has not
# read yet (up to 8 KB per run of 256 indices).
PIPELINE_WINDOW = 16


def _log(level: str, message: str, *args) -> None:
    # imported on first use: logging adds about 7 ms to every CLI start
    import logging

    getattr(logging.getLogger("hases.cco"), level)(message, *args)


def write_frame(stream: BinaryIO, payload: bytes) -> None:
    if len(payload) > MAX_FRAME:
        raise MalformedFrame("frame exceeds maximum size")
    stream.write(struct.pack(">I", len(payload)) + payload)
    stream.flush()


def read_frame(stream: BinaryIO) -> bytes | None:
    """Read one frame of at most ``MAX_FRAME`` bytes; None on clean EOF
    before a length prefix.  A longer length prefix raises
    ``MalformedFrame`` before the body is read."""
    header = stream.read(4)
    if not header:
        return None
    if len(header) < 4:
        raise MalformedFrame("truncated frame length")
    (length,) = struct.unpack(">I", header)
    if length > MAX_FRAME:
        raise MalformedFrame("frame exceeds maximum size")
    # a buffered reader returns fewer than ``length`` bytes only at EOF
    payload = stream.read(length)
    if len(payload) < length:
        raise MalformedFrame("truncated frame body")
    return payload


# --- the hashing helper --------------------------------------------------

# what a build sends the helper: seed(32) t(4) lo(4) hi(4)
_HELPER_REQUEST = struct.Struct(">32sIII")


def can_split_builds() -> bool:
    """Whether this process may fork and run on two or more CPUs."""
    if not hasattr(os, "fork"):
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


class HashHelper:
    """A forked process that hashes half of each full pq commitment build.

    ``fork`` starts it and installs it as ``hashing.helper``.
    ``hashing.commitment_images`` then sends it ``_HELPER_REQUEST`` over
    one pipe and reads back H2(H1(seed || label)) for the labels
    lo+1..hi, 32 bytes each, over another, while the calling thread
    runs what the build does meanwhile and hashes the labels below; the
    reply is read even when that raises, so the pipe stays in step.  It
    takes one build at a time, as the service's one loop runs them, so
    no build finds it busy.
    A write that fails or a read that meets EOF drops the helper, with
    one WARNING on ``hases.cco``, and leaves the half to the caller.
    ``close`` uninstalls it, closes its request pipe, on which the
    helper reads EOF and exits, and reaps it.
    """

    def __init__(self, pid: int, requests: int, replies: int):
        self.pid = pid
        self._requests = requests
        self._replies = os.fdopen(replies, "rb")
        self._open = True

    @classmethod
    def fork(cls, listener: socket.socket) -> "HashHelper":
        """Fork the helper, which first closes ``listener``, and install it.
        Fork before any thread starts: the child runs only the helper's loop."""
        requests_r, requests_w = os.pipe()
        replies_r, replies_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            _helper_main(listener, requests_r, replies_w, (requests_w, replies_r))
        os.close(requests_r)
        os.close(replies_w)
        helper = cls(pid, requests_w, replies_r)
        hashing.helper = helper
        return helper

    def send(self, seed: bytes, t: int, lo: int) -> bool:
        """Ask for the images of the labels lo+1..t.  False, sending
        nothing, only if the helper is gone; on True the caller reads the
        reply with ``receive``."""
        try:
            if self._open:
                os.write(self._requests, _HELPER_REQUEST.pack(seed, t, lo, t))
                return True
        except OSError as exc:
            self._drop(exc)
        return False

    def receive(self, count: int) -> bytes | None:
        """The ``count`` images asked for by ``send``, joined as read, or
        None if the helper is lost."""
        try:
            body = self._replies.read(count * hashing.DIGEST_LEN)
            if len(body) == count * hashing.DIGEST_LEN:
                return body
            self._drop(f"EOF after {len(body)} of {count * hashing.DIGEST_LEN} bytes")
        except OSError as exc:
            self._drop(exc)
        return None

    def _drop(self, reason) -> None:
        _log("warning", "hashing helper %d lost (%s): commitments are built inline", self.pid, reason)
        self.close()

    def close(self) -> None:
        if hashing.helper is self:
            hashing.helper = None
        if self._open:
            self._open = False
            os.close(self._requests)
            self._replies.close()
            os.waitpid(self.pid, 0)


def _helper_main(listener: socket.socket, requests: int, replies: int, parent_ends) -> None:
    """The helper process: answer each request until EOF, then exit.  Never returns."""
    import signal

    code = 1
    try:
        # Ctrl-C reaches the whole process group: the service unwinds and
        # closes the request pipe, and the helper leaves on that EOF
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        listener.close()
        for fd in parent_ends:
            os.close(fd)
        size = _HELPER_REQUEST.size
        with os.fdopen(requests, "rb") as reader, os.fdopen(replies, "wb") as writer:
            while len(head := reader.read(size)) == size:
                seed, t, lo, hi = _HELPER_REQUEST.unpack(head)
                writer.write(hashing.opened_images((seed,), range(lo, hi), t))
                writer.flush()
        code = 0
    finally:
        os._exit(code)


# --- TCP server / client -------------------------------------------------

_LENGTH = struct.Struct(">I")  # a frame's length prefix
_READ_SIZE = 1 << 16  # the most one read takes; none while this much is unanswered

# The loop's bounds, constants rather than options: a client of this
# protocol comes nowhere near them.
# Connections open at once; one more is accepted, logged and closed.
# Each holds at most about OUTPUT_CAP of replies, so this bounds those
# at about 128 MiB, and the descriptors well below the usual 1,024.  A
# `hases verify` opens one connection, the benchmark at most four.
MAX_CONNECTIONS = 128
# Seconds without a request or a reply byte taken, after which a
# connection is closed.  A verifier's requests are one check loop apart,
# well under a second; the benchmark's probes keep theirs for a 50 s run.
IDLE_TIMEOUT_S = 300.0
# Unsent reply bytes past which the loop reads no more of a connection's
# requests and builds no more of its export.  A window of the largest
# cached replies, PIPELINE_WINDOW t=1024 commitments (32,799 bytes
# framed), stays below it, so a client that reads never meets it.
OUTPUT_CAP = 1 << 20


class _Connection:
    """A client connection of the loop: requests not yet answered, reply
    bytes its socket has not taken, and the reply being built."""

    __slots__ = ("sock", "peer", "received", "unsent", "parts", "left", "served", "eof",
                 "closing", "events", "active")

    def __init__(self, sock: socket.socket, peer):
        self.sock, self.peer = sock, peer
        self.received, self.unsent = bytearray(), bytearray()
        self.parts, self.left = None, 0  # the reply being built: its parts, its bytes to come
        self.served = 0
        self.eof = False  # the peer sends no more
        self.closing = False  # answer nothing more: close once ``unsent`` is sent
        self.events = selectors.EVENT_READ  # what the selector watches its socket for
        self.active = time.monotonic()  # the last request, or reply bytes taken

    def build(self, store: CcoStore) -> bool:
        """Add one part of one reply to ``unsent``: of the reply being
        built, else of a reply to the next whole request, unless ``unsent``
        is past ``OUTPUT_CAP``.  True if it added one."""
        if self.closing or len(self.unsent) > OUTPUT_CAP:
            return False
        if self.parts is None:
            try:
                payload = self.request()
            except MalformedFrame as exc:
                _log("warning", "malformed frame from %s:%s (%s): answered and closed", *self.peer, exc)
                self.unsent += _LENGTH.pack(2) + bytes((RESPONSE_BIT, STATUS_MALFORMED))
                self.closing = True
                return False
            if payload is None:
                self.closing = self.eof
                return False
            self.active = time.monotonic()
            self.left, self.parts = store.reply(payload)
            self.unsent += _LENGTH.pack(self.left)
        part = next(self.parts)
        self.unsent += part
        self.left -= len(part)
        if not self.left:  # else a reply off its length ends the connection at its next part
            self.parts = None
            self.served += 1
        return True

    def request(self) -> bytes | None:
        """The next whole request's payload, taken off ``received``, or None.
        ``MalformedFrame`` for a length prefix over ``MAX_REQUEST_FRAME``,
        before its body comes, and for a frame cut short by the peer's EOF."""
        if len(self.received) >= 4:
            (length,) = _LENGTH.unpack_from(self.received)
            if length > MAX_REQUEST_FRAME:
                raise MalformedFrame("frame exceeds maximum size")
            if len(self.received) >= 4 + length:
                payload = bytes(self.received[4 : 4 + length])
                del self.received[: 4 + length]
                return payload
        if self.eof and self.received:
            raise MalformedFrame("truncated frame " + ("body" if len(self.received) >= 4 else "length"))
        return None

    def send(self) -> None:
        try:
            sent = self.sock.send(self.unsent) if self.unsent else 0
        except BlockingIOError:
            return
        if sent:
            del self.unsent[:sent]
            self.active = time.monotonic()


class CcoServer:
    """Serves one store over TCP from one thread; use as a context manager in tests.

    The server listens once it is made.  ``serve_forever`` runs its
    loop in the calling thread, ``start`` in a thread of its own.  Each
    turn of the loop builds one part of one reply for each connection
    with a request, a whole reply or one epoch of an export, and hands
    it to the socket at once.  ``stop`` ends the loop once its turn is
    done and closes the listener and every connection: once it returns,
    no request is being built any more.
    """

    def __init__(self, store: CcoStore, host: str = "127.0.0.1", port: int = 0):
        self.store = store
        self.helper: HashHelper | None = None
        # a backlog of 5, socketserver's, drops the SYNs of a burst of
        # connects (every `hases verify --cco` opens one), and a dropped SYN
        # costs its client a one-second retransmit
        self._listener = socket.create_server((host, port), backlog=socket.SOMAXCONN)
        self._listener.setblocking(False)
        self._wake, self._waker = socket.socketpair()  # closing the listener wakes no select
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._selector.register(self._wake, selectors.EVENT_READ)
        self._connections: dict[_Connection, None] = {}  # open, in the order they came
        self._serving = True
        self._thread = None

    @property
    def port(self) -> int:
        return self._listener.getsockname()[1]

    def start(self) -> None:
        import threading  # the one thread there is: `hases serve` loops on its main thread

        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        if self._serving:  # a second call finds everything closed
            self._serving = False
            self._waker.send(b"\0")
            if self._thread is not None:
                self._thread.join()
            self.server_close()

    def start_hash_helper(self) -> None:
        """Fork a ``HashHelper`` for this process's builds; ``server_close``
        reaps it.  Call it before ``start`` or ``serve_forever``."""
        self.helper = HashHelper.fork(self._listener)

    def serve_forever(self) -> None:
        """Run the loop until ``stop``."""
        busy = False
        while self._serving:
            wait = 0
            if not busy:  # until the first idle timeout
                oldest = min((conn.active for conn in self._connections), default=None)
                wait = None if oldest is None else max(0, oldest + IDLE_TIMEOUT_S - time.monotonic())
            for key, events in self._selector.select(wait):
                if key.fileobj is self._listener:
                    self._accept()
                elif key.data:
                    self._io(key.data, events)
            busy = False
            now = time.monotonic()
            for conn in list(self._connections):
                if now - conn.active > IDLE_TIMEOUT_S:
                    _log("debug", "connection from %s:%s idle for %g s", *conn.peer, IDLE_TIMEOUT_S)
                    self._close(conn)
                    continue
                try:
                    busy |= self._turn(conn)
                except OSError as exc:
                    self._close(conn, exc)
                except Exception:
                    _log("exception", "request from %s:%s failed", *conn.peer)
                    self._close(conn)

    def _accept(self) -> None:
        while True:
            try:
                sock, address = self._listener.accept()
            except OSError:  # none left
                return
            if len(self._connections) >= MAX_CONNECTIONS:
                _log("warning", "connection from %s:%s refused: %d connections open",
                     *address[:2], len(self._connections))
                sock.close()
                continue
            conn = _Connection(sock, address[:2])
            self._connections[conn] = None
            self._selector.register(sock, conn.events, conn)
            _log("debug", "connection from %s:%s opened", *conn.peer)
            try:
                sock.setblocking(False)
                # replies and pipelined requests are small frames: Nagle's algorithm
                # would hold each one back until the previous one is acknowledged
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError as exc:
                self._close(conn, exc)

    def _io(self, conn: _Connection, events: int) -> None:
        try:
            if events & selectors.EVENT_READ and len(conn.received) < _READ_SIZE:
                data = conn.sock.recv(_READ_SIZE)
                conn.received += data
                conn.eof = not data
            if events & selectors.EVENT_WRITE:
                conn.send()
        except BlockingIOError:
            pass
        except OSError as exc:
            self._close(conn, exc)

    def _turn(self, conn: _Connection) -> bool:
        """Build one part of one reply on ``conn`` and send what its socket
        takes; close it once it has nothing more to answer or send.  True
        if a part was built."""
        built = conn.build(self.store)
        conn.send()
        if conn.closing and not conn.unsent:
            self._close(conn)
            return False
        # requests while unsent replies are within bounds, room in the socket
        # while replies wait: never neither, as a closing connection is sending
        events = ((selectors.EVENT_READ if not conn.closing and len(conn.unsent) <= OUTPUT_CAP else 0)
                  | (selectors.EVENT_WRITE if conn.unsent else 0))
        if events != conn.events:
            self._selector.modify(conn.sock, events, conn)
            conn.events = events
        return built

    def _close(self, conn: _Connection, dropped: OSError | None = None) -> None:
        if dropped is not None:
            _log("warning", "connection from %s:%s dropped: %s", *conn.peer, dropped)
        self._selector.unregister(conn.sock)
        del self._connections[conn]
        conn.sock.close()
        _log("debug", "connection from %s:%s closed after %d requests", *conn.peer, conn.served)

    def server_close(self) -> None:
        """Close the listener and every connection, and reap the helper;
        once the loop has stopped."""
        for conn in list(self._connections):
            self._close(conn)
        self._selector.close()
        for sock in (self._listener, self._wake, self._waker):
            sock.close()
        if self.helper is not None:
            self.helper.close()
            self.helper = None

    def __enter__(self) -> "CcoServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


class CcoClient:
    """Blocking client for the commitment service."""

    def __init__(self, host: str, port: int, timeout: float = 10.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        # pipelined requests are small frames that Nagle's algorithm would hold back
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._stream = self._sock.makefile("rwb")

    def close(self) -> None:
        try:
            self._stream.close()
        except OSError:
            pass  # the peer is gone: requests still buffered cannot be sent
        finally:
            self._sock.close()

    def __enter__(self) -> "CcoClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def request_raw(self, payload: bytes) -> bytes:
        (response,) = self._exchange([payload])
        return response

    def _exchange(self, payloads: Iterable[bytes]) -> Iterator[bytes]:
        """Send each payload and yield its response, in order, keeping
        up to ``PIPELINE_WINDOW`` requests in flight."""
        payloads = iter(payloads)
        in_flight = 0
        try:
            while True:
                for payload in islice(payloads, PIPELINE_WINDOW - in_flight):
                    write_frame(self._stream, payload)
                    in_flight += 1
                if not in_flight:
                    return
                response = read_frame(self._stream)
                if response is None:
                    raise MalformedFrame("connection closed mid-request")
                in_flight -= 1
                yield response
        except GeneratorExit:
            # abandoned early: read the replies still owed, so the next
            # request on this connection gets its own
            if not self._stream.closed:
                for _ in range(in_flight):
                    read_frame(self._stream)
            raise

    def _request_ok(self, payload: bytes) -> bytes:
        status, rest = _split_response(payload[0], self.request_raw(payload))
        if status != STATUS_OK:
            raise CcoRequestError(status)
        return rest

    def commitment_bytes(self, msg_type: int, signer_id: bytes, epoch: int) -> bytes:
        """Serialized commitment for one epoch, left unparsed.  A non-OK
        status raises ``CcoRequestError``."""
        return self._request_ok(commitment_payload(msg_type, signer_id, epoch))

    def ok_bodies(self, payloads: Iterable[bytes]) -> Iterator[bytes | None]:
        """The body after the OK status of each payload's response, in
        order, or None for any other status; payloads of any mix of
        types, up to ``PIPELINE_WINDOW`` in flight at a time."""
        sent: deque[int] = deque()

        def typed():
            for payload in payloads:
                sent.append(payload[0])
                yield payload

        for response in self._exchange(typed()):
            status, rest = _split_response(sent.popleft(), response)
            yield rest if status == STATUS_OK else None

    def batch_export(self, scheme: int, signer_id: bytes, epoch_from: int, epoch_to: int) -> list[bytes]:
        payload = export_payload(scheme, signer_id, epoch_from, epoch_to)
        return export_from_bytes(self._request_ok(payload))


def _split_response(msg_type: int, response: bytes) -> tuple[int, bytes]:
    """(status, rest) of a response to a request of ``msg_type``."""
    if len(response) < 2 or response[0] != (msg_type | RESPONSE_BIT):
        raise MalformedFrame("unexpected response type")
    return response[1], response[2:]

