"""Commitment-oracle service: store, wire protocol, server, client.

The store is the only holder of master secrets.  It answers per-epoch
commitment requests for all three schemes and never exposes key bytes:
every response carries only public commitment material.  The trust
boundary is the process boundary; hosting the same store inside a
hardware enclave is a deployment substitution, not a code change.

Wire protocol (stream transport): each frame is a 4-byte big-endian
length followed by a 1-byte message type and the body.  The scheme
types are the tags in ``hases.schemes``; ``_REQUESTS`` takes each type.
Request types:

    0x01  commitment, forward-secure     body: id(16) epoch(8)
    0x02  commitment, aggregate          body: id(16) epoch(8)
    0x03  commitment, hybrid             body: id(16) epoch(8)
    0x04  batch export                   body: scheme(1) id(16) from(8) to(8)
    0x05  opening, forward-secure        body: id(16) epoch(8) k x index(4)
    0x08  combined nonce commitment      body: id(16) seed(32) n x epoch(8), 1 <= n <= 64

Any other type, 0x06 and 0x07 included, is answered as malformed
before any work.

Responses mirror the request type with bit 0x80 set; the body starts
with a status byte (0x00 OK, 0x01 unknown id, 0x02 epoch out of range,
0x03 malformed) followed by the serialized commitment, or for exports
the container of ``export_bytes``: an 8-byte entry count and one or
more equal-sized commitments, the same bytes as an offline export file.
A request names only what the store cannot derive.  Aggregate commitments
use the batch size registered at provisioning time and carry it back
(``la.LaCommitment.batch_size``) for the verifier to check.  An export
whose response would exceed ``MAX_FRAME`` is refused with the
epoch-range status before anything is built.

An opening is what a verifier needs of one epoch's commitment: a pq
signature reveals only k of its t entries.  The OK body of 0x05 is a
``pq.PqOpening``: tag, id, epoch and the entries at the requested
indices, in request order, duplicates included (537 bytes at k=16,
where the t=1024 commitment takes 32,793).  A hybrid verifier asks for
the opening of its pq part the same way, and checks the aggregate part
through 0x08 or 0x02.  The service hashes the chain walk and 2k entries
instead of 2t; a request with other than k indices, or an index of t or
more, is malformed and costs nothing.

Every pq seed is walked to from the nearest seed the store knows: the
anchor of the epoch's segment, or the signer's chain cursor, the seed
of the epoch the store last derived for that signer.  A verifier's run
of consecutive epochs so costs one step per further epoch, and no walk
is ever more than j2 - 1 steps.

A combined nonce commitment (0x08) lets a verifier check all of one
aggregate or hybrid signer's batches in a chunk with one group
operation (see ``hases.la``).  The OK body is the 32-byte encoding of
alpha^(sum z_i * r_i): z_i is the first 16 bytes of
H2(seed || encode_index(i)) for the epoch's position i = 1..n in the
request, and r_i the nonce sum of epoch i at the registered batch size.
Epochs may repeat; at most ``MAX_COMBINED_EPOCHS`` (64) keep the
request at 561 bytes, inside the request frame.  An unknown id or any
epoch outside [1, J] is refused before any work.  The store derives
each distinct epoch's nonce sum (L + 1 hashes), the weights (n hashes)
and one fixed-base exponentiation.  The reply reveals nothing new:
alpha^r_i is the R that 0x02 serves for the same (id, epoch) to anyone,
and the reply is a public product of those R's powers, which anyone
could compute from them.  It goes through the response cache, so two
verifiers of one chunk, who derive the same seed, share one build.

A connection carries any number of requests, and a client may send
several before reading the replies: the server answers them one at a
time, in order.  ``CcoClient.ok_bodies`` keeps ``PIPELINE_WINDOW``
requests of any mix of types in flight this way.  Both ends turn
Nagle's algorithm off (TCP_NODELAY): the frames are small, and holding
each one until the previous is acknowledged would stall the pipeline.
The server reads requests of at most ``MAX_REQUEST_FRAME`` bytes: a
longer length prefix is answered as malformed and the connection is
closed, its body unread.

Responses to the single-epoch request types (0x01-0x03, 0x05) and to
0x08 go through a response cache keyed by the whole request payload: a
least-recently-used map of response bytes, ``RESPONSE_CACHE_BYTES`` in
all, in front of a single-flight build, so a payload asked for again is
answered without hashing, and one asked for by several connections at
once is built once while the others wait for it.  Only OK responses are
kept; exports and every other status bypass the cache.  Entries are
never invalidated, because the OK response to a payload cannot change
(see the constant).

The protocol is binary so commitments travel bit-exactly, and it is
deliberately small: there is no verification entry point (the store
only supplies commitments) and no provisioning entry point (secrets
are installed at process start, they never cross this interface).
Responses are unauthenticated; deployments that do not co-locate the
service with the verifier should wrap the transport accordingly.

Concurrency: key material objects are immutable; readers grab the
current reference under a short lock and hash outside it, writers
(provision, storage policy changes) swap in replacement objects.  The
server runs one thread per connection; closing it shuts every open
connection down and joins their threads.  Connections are logged at
DEBUG on the ``hases.cco`` logger as they open and close, with the peer
and the number of requests served; dropped connections and malformed
frames at WARNING.
"""

from __future__ import annotations

import socket
import socketserver
import struct
import threading
from collections import OrderedDict, deque
from functools import partial
from itertools import islice
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple, Sequence, Union

from . import hy, la, pq, schemes
from .errors import CcoRequestError, EpochOutOfRange, MalformedFrame, UnknownSigner

MSG_PQ = schemes.PQ.tag
MSG_LA = schemes.LA.tag
MSG_HY = schemes.HY.tag
MSG_EXPORT = 0x04
MSG_PQ_OPENING = 0x05
# 0x06 is unassigned; 0x07 is kept free for a stats request
MSG_LA_COMBINED = 0x08
RESPONSE_BIT = 0x80

STATUS_OK = 0x00
STATUS_UNKNOWN_ID = 0x01
STATUS_EPOCH_RANGE = 0x02
STATUS_MALFORMED = 0x03

MAX_FRAME = 1 << 27  # generous: a full toy-scale batch export stays far below

_EXPORT_HEAD_LEN = 2 + 8  # response type, status, entry count
_EXPORT_RULE = "an export holds one or more entries, all of one nonzero size"
# the most indices an opening request may carry: k <= 256 for any t >= 2,
# since k * log2(t) bits must fit one digest
MAX_OPENING_INDICES = 256
# the most epochs a combined nonce commitment request may name
MAX_COMBINED_EPOCHS = 64
SEED_LEN = 32  # of a combined request's seed

# The largest request frame the server reads: an opening request is at
# most 1 + 24 + 4k = 1,049 bytes with k <= 256, a combined request
# 1 + 48 + 8 * 64 = 561.  A longer length prefix is answered as malformed
# before its body is read.
MAX_REQUEST_FRAME = 2048

# Requests a client keeps in flight on one connection.  This cannot
# deadlock: the client writes at most this many frames beyond what it
# has read, the largest being an opening request of 4 + 1 + 24 + 4k
# bytes, at most 1,053 with k <= 256, so a full window (under 17 KB)
# always fits the socket buffers and its writes never block, even while
# the server is blocked sending it responses it has not read yet.
PIPELINE_WINDOW = 16

# Byte budget of the response cache: about 15 pq or hy commitments at
# t=1024 (roughly one PIPELINE_WINDOW, so two verifiers of one stream
# running up to a window apart are both served from one build), or
# about 900 openings at k=16.  No entry is ever invalidated, and none
# needs to be: only OK responses are kept, ``provision`` refuses
# overlapping ids and any change of master key or parameters, and
# ``set_storage_policy`` moves only the anchors a chain walk starts
# from, not its result.  So the OK response to a given payload never
# changes.
RESPONSE_CACHE_BYTES = 512 * 1024


def _log(level: str, message: str, *args) -> None:
    # imported on first use: logging adds about 7 ms to every CLI start
    import logging

    getattr(logging.getLogger(__name__), level)(message, *args)


class CacheStats(NamedTuple):
    """Requests answered by ``CcoStore.handle_request``, by how."""

    hits: int  # served from the cache
    coalesced: int  # waited for another thread's build of the same payload
    misses: int  # built; kept only if OK
    bypassed: int  # exports and malformed payloads, never cached
    entries: int
    size: int  # bytes of the cached responses


class _Flight:
    """A build in progress.  Its builder holds ``lock`` until the build is
    done, so the waiters for the same payload block on acquiring it (a
    lock costs a fraction of an ``Event``, which every miss would make)."""

    __slots__ = ("lock", "response")

    def __init__(self):
        self.lock = threading.Lock()
        self.lock.acquire()
        self.response: bytes | None = None


class _ResponseCache:
    """Bounded LRU of OK response bytes, with single-flight builds."""

    def __init__(self, budget: int):
        self._budget = budget
        self._lock = threading.Lock()
        self._entries: OrderedDict[bytes, bytes] = OrderedDict()
        self._size = 0
        self._flights: dict[bytes, _Flight] = {}
        self._hits = self._coalesced = self._misses = self._bypassed = 0

    def get(self, key: bytes, build: Callable[[], bytes]) -> bytes:
        with self._lock:
            response = self._entries.get(key)
            if response is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return response
            flight = self._flights.get(key)
            if flight is None:
                flight = self._flights[key] = _Flight()
                self._misses += 1
                leader = True
            else:
                self._coalesced += 1
                leader = False
        if not leader:
            with flight.lock:
                pass
            # None only if the leader's build raised
            return flight.response if flight.response is not None else build()
        try:
            flight.response = response = build()
        finally:
            with self._lock:
                del self._flights[key]
                if flight.response is not None and flight.response[1] == STATUS_OK:
                    self._insert(key, flight.response)
            flight.lock.release()
        return response

    def _insert(self, key: bytes, response: bytes) -> None:
        if len(response) > self._budget:
            return
        self._entries[key] = response
        self._size += len(response)
        while self._size > self._budget:
            _, evicted = self._entries.popitem(last=False)
            self._size -= len(evicted)

    def bypass(self, build: Callable[[], bytes]) -> bytes:
        with self._lock:
            self._bypassed += 1
        return build()

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(self._hits, self._coalesced, self._misses, self._bypassed,
                              len(self._entries), self._size)


def _merged(current, incoming, what: str, merge: Callable):
    """``merge(current, incoming)`` of two key materials of one scheme, or
    whichever is not None; ValueError if their master keys or parameters
    differ or their ids overlap."""
    if current is None or incoming is None:
        return incoming or current
    if current.msk != incoming.msk or current.params != incoming.params:
        raise ValueError(f"incompatible {what} master key or parameters")
    overlap = set(current.signer_ids) & set(incoming.signer_ids)
    if overlap:
        raise ValueError(f"signer already provisioned: {sorted(overlap)[0].hex()}")
    return merge(current, incoming)


class CcoStore:
    """Thread-safe holder of per-scheme master secrets and anchors."""

    def __init__(self):
        self._lock = threading.Lock()
        self._pq: pq.PqKeyMaterial | None = None
        self._la: la.LaKeyMaterial | None = None
        self._cache = _ResponseCache(RESPONSE_CACHE_BYTES)
        # The pq chain cursor: (epoch, seed) per provisioned signer, the
        # seed last derived for it (``pq.Cursor``).  Entries are replaced
        # whole without a lock; a racing write of an older epoch only
        # lengthens a later walk, since every entry is a true seed.  None
        # is ever invalidated, and none needs to be: a seed depends only
        # on the master key and the id, ``provision`` refuses any change
        # of master key or parameters, and ``set_storage_policy`` moves
        # only the anchors.  Unknown ids are refused before any walk, so
        # there is one entry at most per provisioned signer.
        self._cursor: pq.Cursor = {}

    # -- provisioning (exclusive writers) --------------------------------

    def provision(self, material: Union[pq.PqKeyMaterial, la.LaKeyMaterial, hy.HyKeyMaterial]) -> None:
        """Install keygen output.  Rejects id collisions and incompatible
        master keys/parameters; a rejected call changes nothing."""
        pq_part, la_part = schemes.of(material).parts(material)
        with self._lock:
            new_pq = _merged(self._pq, pq_part, "forward-secure", lambda a, b: pq.PqKeyMaterial(
                a.msk, a.params, {**a.anchors, **b.anchors}))
            new_la = _merged(self._la, la_part, "aggregate", lambda a, b: la.LaKeyMaterial(
                a.msk, a.params, a.signer_ids | b.signer_ids))
            self._pq, self._la = new_pq, new_la

    def set_storage_policy(self, j1: int) -> None:
        """Rebuild the anchor tables for a new epoch factorization.

        The new j1 must divide the configured epoch count; commitments
        are unaffected (chain splitting), only the worst-case on-demand
        chain walk changes, to j2 - 1 = J/j1 - 1 hashes.
        """
        with self._lock:
            if self._pq is None:
                raise ValueError("no forward-secure material provisioned")
            old = self._pq.params
            if j1 < 1 or old.epochs % j1:
                raise ValueError(f"{j1} does not divide the epoch count {old.epochs}")
            params = pq.PqParams(t=old.t, k=old.k, l=old.l, j1=j1, j2=old.epochs // j1)
            anchors = {
                sid: pq.derive_anchors(self._pq.msk, sid, params)
                for sid in self._pq.anchors
            }
            self._pq = pq.PqKeyMaterial(self._pq.msk, params, anchors)

    # -- snapshots for readers -------------------------------------------

    def pq_material(self) -> pq.PqKeyMaterial:
        with self._lock:
            if self._pq is None:
                raise UnknownSigner("no forward-secure material provisioned")
            return self._pq

    def la_material(self) -> la.LaKeyMaterial:
        with self._lock:
            if self._la is None:
                raise UnknownSigner("no aggregate material provisioned")
            return self._la

    def materials(self) -> tuple[pq.PqKeyMaterial | None, la.LaKeyMaterial | None]:
        """Both schemes' key material, None where none is provisioned."""
        with self._lock:
            return self._pq, self._la

    # -- commitment construction -----------------------------------------

    def pq_commitment(self, signer_id: bytes, epoch: int) -> pq.PqCommitment:
        return pq.construct_commitment(self.pq_material(), signer_id, epoch, self._cursor)

    def la_commitment(self, signer_id: bytes, epoch: int) -> la.LaCommitment:
        return la.construct_commitment(self.la_material(), signer_id, epoch)

    def hy_commitment(self, signer_id: bytes, epoch: int) -> hy.HyCommitment:
        return hy.HyCommitment(
            self.la_commitment(signer_id, epoch),
            self.pq_commitment(signer_id, epoch),
        )

    def pq_opening(self, signer_id: bytes, epoch: int, indices) -> pq.PqOpening:
        return pq.open_commitment(self.pq_material(), signer_id, epoch, indices, self._cursor)

    def la_combined(self, signer_id: bytes, seed: bytes, epochs: Sequence[int]) -> bytes:
        return la.combined_commitment(self.la_material(), signer_id, seed, epochs)

    def batch_export(self, scheme_tag: int, signer_id: bytes, epoch_from: int, epoch_to: int) -> list:
        """Commitments of the scheme with this tag for every epoch in
        [epoch_from, epoch_to], in order.

        A range whose export response would exceed ``MAX_FRAME`` raises
        ``EpochOutOfRange`` before any commitment is built.
        """
        scheme = schemes.BY_TAG.get(scheme_tag)
        if scheme is None:
            raise MalformedFrame(f"unknown export scheme {scheme_tag:#04x}")
        if epoch_from < 1 or epoch_from > epoch_to:
            raise EpochOutOfRange(f"bad export range [{epoch_from}, {epoch_to}]")
        size = _EXPORT_HEAD_LEN + (epoch_to - epoch_from + 1) * self._entry_len(scheme)
        if size > MAX_FRAME:
            raise EpochOutOfRange(f"export of [{epoch_from}, {epoch_to}] exceeds the frame limit")
        span = (signer_id, epoch_from, epoch_to)
        pq_part = la_part = None
        if scheme.has_pq:
            pq_part = pq.construct_commitments(self.pq_material(), *span, self._cursor)
        if scheme.has_la:
            la_part = la.construct_commitments(self.la_material(), *span)
        return scheme.join(la_part, pq_part)

    def _entry_len(self, scheme: schemes.Scheme) -> int:
        """Serialized size of one commitment of ``scheme``: the la
        commitment, or the pq header, then t pq entries (a hybrid nests
        the two, see ``hases.hy``)."""
        size = la.COMMITMENT_LEN if scheme.has_la else pq.HEADER_LEN
        return size + (self.pq_material().params.t * pq.DIGEST_LEN if scheme.has_pq else 0)

    # -- request dispatch --------------------------------------------------

    def handle_request(self, payload: bytes) -> bytes:
        """Map one request frame payload (type byte + body) to a response
        payload.  Never raises: protocol errors become status bytes.
        Well-formed single-epoch requests go through the response cache."""
        request = _REQUESTS.get(payload[0]) if payload else None
        if request is None or not request.well_formed(len(payload) - 1):
            return self._cache.bypass(partial(_response_head, payload, STATUS_MALFORMED))
        build = partial(self._build_response, request, payload)
        if request.cached:
            return self._cache.get(payload, build)
        return self._cache.bypass(build)

    def cache_stats(self) -> CacheStats:
        """Snapshot of the response cache's counts and size."""
        return self._cache.stats()

    def _build_response(self, request: _Request, payload: bytes) -> bytes:
        try:
            return _response_head(payload, STATUS_OK) + request.build(self, payload[1:])
        except UnknownSigner:
            return _response_head(payload, STATUS_UNKNOWN_ID)
        except EpochOutOfRange:
            return _response_head(payload, STATUS_EPOCH_RANGE)
        except (MalformedFrame, ValueError):
            return _response_head(payload, STATUS_MALFORMED)


def _response_head(payload: bytes, status: int) -> bytes:
    """The response head to ``payload``: its type with ``RESPONSE_BIT``, and ``status``."""
    return bytes(((payload[:1] or b"\x00")[0] | RESPONSE_BIT, status))


# --- request types -------------------------------------------------------------


class _Request(NamedTuple):
    """How the service takes one request type."""

    well_formed: Callable[[int], bool]  # whether a body can have this length
    cached: bool  # its OK responses go through the response cache
    build: Callable[[CcoStore, bytes], bytes]  # body -> what follows OK; raises for the rest


def _key(body: bytes) -> tuple[bytes, int]:
    """The (id, epoch) every single-epoch request body starts with."""
    return body[:16], int.from_bytes(body[16:24], "big")


def _opening_len(body_len: int) -> bool:
    count, rest = divmod(body_len - 24, 4)
    return not rest and 1 <= count <= MAX_OPENING_INDICES


def _opening_indices(body: bytes) -> tuple[int, ...]:
    return struct.unpack(f">{(len(body) - 24) // 4}I", body[24:])


def _combined_len(body_len: int) -> bool:
    count, rest = divmod(body_len - 16 - SEED_LEN, 8)
    return not rest and 1 <= count <= MAX_COMBINED_EPOCHS


def _combined_response(store: CcoStore, body: bytes) -> bytes:
    head = 16 + SEED_LEN
    epochs = struct.unpack(f">{(len(body) - head) // 8}Q", body[head:])
    return store.la_combined(body[:16], body[16:head], epochs)


def _commitment(method: str) -> _Request:
    """A commitment request, answered with the store's ``method`` of its key."""
    return _Request(lambda n: n == 24, True,
                    lambda store, body: getattr(store, method)(*_key(body)).to_bytes())


def _export_response(store: CcoStore, body: bytes) -> bytes:
    epoch_from, epoch_to = struct.unpack(">QQ", body[17:33])
    commitments = store.batch_export(body[0], body[1:17], epoch_from, epoch_to)
    return export_bytes([c.to_bytes() for c in commitments])


def export_bytes(blobs: Sequence[bytes]) -> bytes:
    """The export container, of the ``0x04`` reply and the offline file
    alike: an 8-byte big-endian entry count, then the entries.  ValueError
    for anything ``_EXPORT_RULE`` refuses."""
    sizes = {len(blob) for blob in blobs}
    if len(sizes) != 1 or 0 in sizes:
        raise ValueError(_EXPORT_RULE)
    return len(blobs).to_bytes(8, "big") + b"".join(blobs)


def export_from_bytes(data: bytes) -> list[bytes]:
    """The entries of an ``export_bytes`` container; ValueError for
    anything ``_EXPORT_RULE`` refuses."""
    count = int.from_bytes(data[:8], "big")
    body_len = len(data) - 8
    if body_len <= 0 or not count or body_len % count:
        raise ValueError(_EXPORT_RULE)
    size = body_len // count
    return [data[i : i + size] for i in range(8, len(data), size)]


# request type -> how it is taken; each `build` looks the store's method
# up when it runs, so a wrapper installed on it sees the call
_REQUESTS = {
    MSG_PQ: _commitment("pq_commitment"),
    MSG_LA: _commitment("la_commitment"),
    MSG_HY: _commitment("hy_commitment"),
    MSG_EXPORT: _Request(lambda n: n == 33, False, _export_response),
    MSG_PQ_OPENING: _Request(_opening_len, True, lambda store, body: store.pq_opening(
        *_key(body), _opening_indices(body)).to_bytes()),
    MSG_LA_COMBINED: _Request(_combined_len, True, _combined_response),
}


# --- framing -----------------------------------------------------------------


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
    payload = b""
    while len(payload) < length:
        chunk = stream.read(length - len(payload))
        if not chunk:
            raise MalformedFrame("truncated frame body")
        payload += chunk
    return payload


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

    def __init__(self, store: CcoStore, host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), _Handler)
        self.store = store
        self._thread: threading.Thread | None = None
        self._live_lock = threading.Lock()
        self._live: dict[socket.socket, threading.Thread] = {}  # open connections

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

    def _request_ok(self, msg_type: int, body: bytes) -> bytes:
        status, rest = _split_response(msg_type, self.request_raw(bytes((msg_type,)) + body))
        if status != STATUS_OK:
            raise CcoRequestError(status)
        return rest

    def commitment_bytes(self, msg_type: int, signer_id: bytes, epoch: int) -> bytes:
        """Serialized commitment for one epoch, left unparsed.  A non-OK
        status raises ``CcoRequestError``."""
        return self._request_ok(msg_type, _key_bytes(signer_id, epoch))

    def commitments(self, msg_type: int, keys: Iterable[tuple[bytes, int]]) -> Iterator[bytes | None]:
        """Serialized commitment for each (id, epoch) key, in order, or
        None where the service answers with a non-OK status; pipelined
        as ``ok_bodies``."""
        return self.ok_bodies(commitment_payload(msg_type, *key) for key in keys)

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
        body = (
            bytes((scheme,))
            + signer_id
            + epoch_from.to_bytes(8, "big")
            + epoch_to.to_bytes(8, "big")
        )
        return export_from_bytes(self._request_ok(MSG_EXPORT, body))


def _key_bytes(signer_id: bytes, epoch: int) -> bytes:
    """The id(16) epoch(8) that ``_key`` reads back."""
    return signer_id + epoch.to_bytes(8, "big")


def commitment_payload(msg_type: int, signer_id: bytes, epoch: int) -> bytes:
    """A single-epoch commitment request (0x01-0x03)."""
    return bytes((msg_type,)) + _key_bytes(signer_id, epoch)


def opening_payload(msg_type: int, signer_id: bytes, epoch: int, indices: Sequence[int]) -> bytes:
    """An opening request (``MSG_PQ_OPENING``)."""
    return commitment_payload(msg_type, signer_id, epoch) + struct.pack(f">{len(indices)}I", *indices)


def combined_payload(signer_id: bytes, seed: bytes, epochs: Sequence[int]) -> bytes:
    """A combined nonce commitment request (``MSG_LA_COMBINED``)."""
    return bytes((MSG_LA_COMBINED,)) + signer_id + seed + struct.pack(f">{len(epochs)}Q", *epochs)


def _split_response(msg_type: int, response: bytes) -> tuple[int, bytes]:
    """(status, rest) of a response to a request of ``msg_type``."""
    if len(response) < 2 or response[0] != (msg_type | RESPONSE_BIT):
        raise MalformedFrame("unexpected response type")
    return response[1], response[2:]
