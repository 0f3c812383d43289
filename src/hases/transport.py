"""Commitment-oracle service: framing, the TCP server and the client.

This module carries the bytes that ``hases.cco`` reads and writes: the
store, its request table and every request and response encoding are
there.  Only ``hases serve``, ``hases request`` and ``hases verify
--cco`` import it, and with it ``socket`` and ``socketserver``.

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

The server runs one thread per connection; closing it shuts every open
connection down and joins their threads.  They build one request at a
time, under the store's one lock (``cco.CcoStore``), and an export lets
other connections in between its epochs.  Connections are logged at
DEBUG on the ``hases.cco`` logger, the service's, as they open and
close, with the peer and the number of requests served; dropped
connections and malformed frames at WARNING.

``hases serve`` on two or more CPUs forks one ``HashHelper``: each full
pq commitment build (``0x01``, the pq part of ``0x03``, every epoch of
``0x04``) first hands the helper the upper half of its t entries, then
hashes the lower half in the handler thread while the helper hashes
the upper, which ``hashlib`` cannot do in a second thread of one
process: it holds the interpreter lock for inputs this short.  A hy
build derives its la part between the two, so that too overlaps the
helper's half, and the helper's reply is taken whole into the entry
body.  With one build at a time, every full build splits: none finds
the helper busy.  Openings (``0x05``) and combined commitments
(``0x08``) are built inline: they hash 2k entries, not 2t, and the
verifiers that send them keep the other CPU busy.
"""

from __future__ import annotations

import os
import socket
import socketserver
import struct
import threading
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
# writes never block, even while the server is blocked sending it
# responses it has not read yet (up to 8 KB per run of 256 indices).
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


def read_frame(stream: BinaryIO, limit: int = MAX_FRAME) -> bytes | None:
    """Read one frame of at most ``limit`` bytes; None on clean EOF
    before a length prefix.  A longer length prefix raises
    ``MalformedFrame`` before the body is read."""
    header = stream.read(4)
    if not header:
        return None
    if len(header) < 4:
        raise MalformedFrame("truncated frame length")
    (length,) = struct.unpack(">I", header)
    if length > limit:
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
    takes one build at a time, as the store's lock runs them
    (``cco.CcoStore``), so no build finds it busy.
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


class _Handler(socketserver.StreamRequestHandler):
    # replies and pipelined requests are small frames: Nagle's algorithm
    # would hold each one back until the previous one is acknowledged
    disable_nagle_algorithm = True

    def handle(self):
        peer = self.client_address[:2]
        served = 0
        _log("debug", "connection from %s:%s opened", *peer)
        try:
            while True:
                try:
                    payload = read_frame(self.rfile, MAX_REQUEST_FRAME)
                except MalformedFrame as exc:
                    _log("warning", "malformed frame from %s:%s (%s): answered and closed", *peer, exc)
                    write_frame(self.wfile, bytes((RESPONSE_BIT, STATUS_MALFORMED)))
                    return
                if payload is None:
                    return
                write_frame(self.wfile, self.server.store.handle_request(payload))
                served += 1
        except OSError as exc:
            _log("warning", "connection from %s:%s dropped: %s", *peer, exc)
        finally:
            _log("debug", "connection from %s:%s closed after %d requests", *peer, served)


class CcoServer(socketserver.ThreadingTCPServer):
    """Serves one store over TCP; use as a context manager in tests.

    Each connection gets its own handler thread.  ``server_close`` (and
    so ``stop``) shuts every open connection down, which ends the reads
    of idle ones, then joins the handler threads: once it returns, no
    request is being built any more.
    """

    allow_reuse_address = True
    # socketserver's default backlog of 5 drops the SYNs of a burst of
    # connects (every `hases verify --cco` opens one), and a dropped SYN
    # costs its client a one-second retransmit
    request_queue_size = socket.SOMAXCONN

    def __init__(self, store: CcoStore, host: str = "127.0.0.1", port: int = 0):
        # set before the bind: a failed bind calls server_close, which reads them
        self.store = store
        self._thread: threading.Thread | None = None
        self._live_lock = threading.Lock()
        self._live: dict[socket.socket, threading.Thread] = {}  # open connections
        self.helper: HashHelper | None = None
        super().__init__((host, port), _Handler)

    @property
    def port(self) -> int:
        return self.server_address[1]

    def start(self) -> None:
        # a short poll keeps stop() from waiting out serve_forever's 0.5 s default
        self._thread = threading.Thread(
            target=self.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join()

    def process_request(self, request, client_address) -> None:
        thread = threading.Thread(
            target=self.process_request_thread, args=(request, client_address), daemon=True
        )
        with self._live_lock:
            self._live[request] = thread
        thread.start()

    def shutdown_request(self, request) -> None:
        # deregister before the socket is closed, so server_close never
        # shuts down a closed (or reused) descriptor
        with self._live_lock:
            self._live.pop(request, None)
        super().shutdown_request(request)

    def start_hash_helper(self) -> None:
        """Fork a ``HashHelper`` for this process's builds; ``server_close``
        reaps it.  Call it before ``start`` or ``serve_forever``."""
        self.helper = HashHelper.fork(self.socket)

    def server_close(self) -> None:
        super().server_close()
        with self._live_lock:
            live = list(self._live.items())
            for request, _ in live:
                try:
                    request.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # the peer already reset it
        for _, thread in live:
            thread.join()
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

