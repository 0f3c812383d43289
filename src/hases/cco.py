"""Commitment-oracle service: the store and its request table.

The store is the only holder of master secrets.  It answers per-epoch
commitment requests for all three schemes and never exposes key bytes:
every response carries only public commitment material.  The trust
boundary is the one ``hases serve`` process, which builds every reply
on its one thread and forks nothing; hosting the same store inside a
hardware enclave is a deployment substitution, not a code change.

The service is two modules.  This one is bytes in, bytes out: the store,
the request table (``_REQUESTS``), and the request and response
encodings.
``hases.transport`` carries those bytes: the framing, the one-thread
TCP server and the pipelining client.
Key generation and signing need the store alone, so they never import a
socket.  The client is also reachable from here, as ``cco.CcoClient``;
the first lookup of it imports the transport.

Wire protocol: each request is a 1-byte message type followed by the
body, sent in one frame of ``hases.transport``.  The scheme types are
the tags in ``hases.schemes``.  Request types:

    0x01  commitment, forward-secure     body: id(16) epoch(8)
    0x02  commitment, aggregate          body: id(16) epoch(8)
    0x03  commitment, hybrid             body: id(16) epoch(8)
    0x05  opening, forward-secure        body: id(16) epoch(8) n*k x index(4), 1 <= n*k <= 256
    0x08  combined nonce commitment      body: id(16) seed(32) sum(32) n x epoch(8), 1 <= n <= 64

Any other type, 0x04, 0x06 and 0x07 included, is answered as malformed
before any work.

Responses mirror the request type with bit 0x80 set; the body starts
with a status byte (0x00 OK, 0x01 unknown id, 0x02 epoch out of range,
0x03 malformed) followed by the serialized commitment.
A request names only what the store cannot derive.  Aggregate commitments
use the batch size fixed at key generation and carry it back
(``la.LaCommitment.batch_size``) for the verifier to check.  Every reply
is built whole, by at most one build.  A refusal of any type maps to its
status byte in one place, and comes before any hashing: a store without
a part the request needs answers as for an unknown id.

An offline export, the file ``hases verify --commits`` reads, is the
container of ``export_bytes``: an 8-byte entry count and one or more
equal-sized commitments.  The service has no request for it: the client
asks for its epochs as pipelined single requests of the scheme's type,
in order (``CcoClient.batch_export``), and ``CcoStore.batch_export``
builds the same entries in process.

An opening is what a verifier needs of one epoch's commitment: a pq
signature reveals only k of its t entries.  One 0x05 opens a run of n
consecutive epochs of one signer: its first k indices are epoch e's,
the next k epoch e + 1's, and so on up to e + n - 1.  The OK body is
a ``pq.PqOpening``: tag, id, the first epoch e and the entries at the
requested indices, in request order, duplicates included: the first
single opening's header followed by every single opening's entries
(537 bytes at n = 1 and k=16, where the t=1024 commitment takes 32,793;
8,217 for a run of 16).  A hybrid verifier asks for the openings of its
pq parts the same way, and checks the aggregate parts through 0x08 or
0x02.  The service hashes the chain walk, one step per further epoch
and 2k entries per epoch instead of 2t: what the run's single openings
would cost one by one on a fresh store.  A request whose index count is
not a multiple of k, with an index of t or more, or whose run ends past
J is refused and costs nothing.  At most ``MAX_OPENING_INDICES`` (256)
indices keep the request at 1,049 bytes, inside the request frame.

Every pq seed is walked to from the nearest seed the store knows: the
anchor of the epoch's segment, or the signer's chain cursor, the seed
of the epoch the store last derived for that signer.  A run of
consecutive epochs, asked for in one request or in several, opened
or built, so costs one step per further epoch (none at an
anchor), and no walk is ever more than j2 - 1 steps.

A combined nonce commitment (0x08) lets a verifier check all of one
aggregate or hybrid signer's batches in a chunk with one group
operation (see ``hases.la``).  The request carries the verifier's
weighted response sum S = sum z_i * s_i mod q, 32 bytes big-endian
after the seed, and the OK body is the 32-byte encoding of
alpha^(sum z_i * r_i - S): z_i is the first 16 bytes of
H2(seed || encode_index(i)) for the epoch's position i = 1..n in the
request, and r_i the nonce sum of epoch i at the registered batch size.
Epochs may repeat; at most ``MAX_COMBINED_EPOCHS`` (64) keep the
request at 593 bytes, inside the request frame.  An S of q or more, an
unknown id or any epoch outside [1, J] is refused before any work.  The
store derives each distinct epoch's nonce sum (L + 1 hashes), the
weights (n hashes) and one fixed-base exponentiation, which takes the
generator's half of the check off the verifier.  The reply reveals
nothing new: alpha^r_i is the R that 0x02 serves for the same (id,
epoch) to anyone, and the reply is the public product of those R's
powers times alpha^(-S), which anyone could compute from them and the
request.  It goes through the response cache, so two verifiers of one
chunk, who derive the same seed and sum, share one build.

Responses to the commitment types (0x01-0x03), to openings (0x05) and
to 0x08 go through a response cache keyed by the whole request payload:
a least-recently-used map of response bytes, ``RESPONSE_CACHE_BYTES``
in all, so a payload asked for again is answered without hashing.  The
service answers one request at a time, so a payload asked for by
several connections at once is built once: the others find it cached.
Only OK responses are kept; every other status is built each time, and
a malformed payload bypasses the cache.  Entries are never
invalidated, because the OK response to a payload cannot change (see
the constant).

The protocol is binary so commitments travel bit-exactly, and it is
deliberately small: there is no verification entry point (the store
only supplies commitments) and no provisioning entry point (secrets
are installed at process start, they never cross this interface).
Responses are unauthenticated; deployments that do not co-locate the
service with the verifier should wrap the transport accordingly.

Concurrency: material is fixed when the store is made; requests change
only the cache and the chain cursor.  The store takes no lock: its one
caller, the service's loop (``hases.transport``), builds one request at
a time.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from typing import Callable, NamedTuple, Sequence, Union

from . import hashing, hy, la, pq, schemes
from .errors import EpochOutOfRange, MalformedFrame, UnknownSigner

MSG_PQ = schemes.PQ.tag
MSG_LA = schemes.LA.tag
MSG_HY = schemes.HY.tag
MSG_PQ_OPENING = 0x05
# 0x04 and 0x06 are unassigned; 0x07 is kept free for a stats request
MSG_LA_COMBINED = 0x08
RESPONSE_BIT = 0x80

STATUS_OK = 0x00
STATUS_UNKNOWN_ID = 0x01
STATUS_EPOCH_RANGE = 0x02
STATUS_MALFORMED = 0x03

MAX_FRAME = 1 << 27  # of a frame and of an export file; a toy-scale export stays far below

_EXPORT_RULE = "an export holds one or more entries, all of one nonzero size"
# the most indices an opening request may carry, k per epoch of its run:
# k <= 256 for any t >= 2, since k * log2(t) bits must fit one digest, so
# one epoch always fits, and a run of up to 256 // k epochs
MAX_OPENING_INDICES = 256
# the most epochs a combined nonce commitment request may name
MAX_COMBINED_EPOCHS = 64
SEED_LEN = 32  # of a combined request's seed
SUM_LEN = 32  # of a combined request's weighted response sum

# Byte budget of the response cache: about 15 pq or hy commitments at
# t=1024 (roughly one ``transport.PIPELINE_WINDOW``, so two verifiers of
# one stream running up to a window apart are both served from one
# build), about 60 runs of 16 openings (one 0x05 each) or 970 single
# openings at k=16.  No entry is ever invalidated, and none needs to be:
# only OK responses are kept, and the store's material never changes.
RESPONSE_CACHE_BYTES = 512 * 1024

def __getattr__(name: str):
    # ``cco.CcoClient``, as the benchmark reaches the client: the transport is
    # imported on that lookup, not with this module, as most commands open no socket
    if name == "CcoClient":
        from .transport import CcoClient

        return CcoClient
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class CacheStats(NamedTuple):
    """Requests answered by ``CcoStore.handle_request``, by how."""

    hits: int  # served from the cache
    misses: int  # built; kept only if OK
    bypassed: int  # malformed payloads, never cached
    entries: int
    size: int  # bytes of the cached responses


class CcoStore:
    """Holder of one key ceremony's master secrets and anchors: keygen's
    ``material``, as its pq and la parts (None where the scheme has no
    such part), unchanged for the store's lifetime.

    Requests change the response cache and the chain cursor, so the
    store is not thread-safe: it has one caller, the service's loop
    (``transport.CcoServer``), which answers one request at a time."""

    def __init__(self, material: Union[pq.PqKeyMaterial, la.LaKeyMaterial, hy.HyKeyMaterial]):
        self.pq_part, self.la_part = schemes.of(material).parts(material)
        # the response cache: OK replies by payload, least recently used first
        self._cache: OrderedDict[bytes, bytes] = OrderedDict()
        self._cache_size = 0
        self._hits = self._misses = self._bypassed = 0
        # The pq chain cursor: (epoch, seed) per signer of the store, the
        # seed last derived for it (``pq.Cursor``).  None is ever
        # invalidated, since every entry is a true seed.  Unknown ids are
        # refused before any walk, so there is one entry at most per signer.
        self._cursor: pq.Cursor = {}

    def pq_material(self) -> pq.PqKeyMaterial:
        if self.pq_part is None:
            raise UnknownSigner("the store holds no forward-secure material")
        return self.pq_part

    def la_material(self) -> la.LaKeyMaterial:
        if self.la_part is None:
            raise UnknownSigner("the store holds no aggregate material")
        return self.la_part

    # -- commitment construction -----------------------------------------

    def pq_commitment(self, signer_id: bytes, epoch: int) -> pq.PqCommitment:
        return pq.construct_commitment(self.pq_material(), signer_id, epoch, self._cursor)

    def la_commitment(self, signer_id: bytes, epoch: int) -> la.LaCommitment:
        return la.construct_commitment(self.la_material(), signer_id, epoch)

    def hy_commitment(self, signer_id: bytes, epoch: int) -> hy.HyCommitment:
        """Both parts, refused before any hashing: a missing part, then
        the la id and range, then the pq id and range."""
        la_part, pq_part = self.la_material(), self.pq_material()
        hashing.check_epochs(la_part.signer_ids, signer_id, epoch, epoch, la_part.params.max_batches)
        hashing.check_epochs(pq_part.anchors, signer_id, epoch, epoch, pq_part.params.epochs)
        return hy.HyCommitment(self.la_commitment(signer_id, epoch),
                               self.pq_commitment(signer_id, epoch))

    def pq_opening(self, signer_id: bytes, epoch: int, indices) -> pq.PqOpening:
        return pq.open_commitment(self.pq_material(), signer_id, epoch, indices, self._cursor)

    def la_combined(self, signer_id: bytes, seed: bytes, agg: int, epochs: Sequence[int]) -> bytes:
        return la.combined_commitment(self.la_material(), signer_id, seed, agg, epochs)

    def batch_export(self, scheme_tag: int, signer_id: bytes, epoch_from: int, epoch_to: int) -> list:
        """The serialized commitments of the scheme's epochs in [epoch_from,
        epoch_to], in order, each built by the store's single builder
        (``_BUILDERS``) as the epoch's single request builds or refuses it:
        what ``CcoClient.batch_export`` fetches, at the same cost."""
        build = getattr(self, _BUILDERS[scheme_tag])
        return [build(signer_id, epoch).to_bytes() for epoch in range(epoch_from, epoch_to + 1)]

    # -- request dispatch --------------------------------------------------

    def handle_request(self, payload: bytes) -> bytes:
        """Map one request frame payload (type byte + body) to a response
        payload.  Never raises for what the payload holds: protocol errors
        become status bytes.  Well-formed requests of ``_REQUESTS`` go
        through the response cache; the rest are only counted."""
        request = _REQUESTS.get(payload[0]) if payload else None
        if request is None or not request.well_formed(len(payload) - 1):
            self._bypassed += 1
            return _response_head(payload, STATUS_MALFORMED)
        response = self._cache.get(payload)
        if response is not None:
            self._cache.move_to_end(payload)
            self._hits += 1
            return response
        # built now; kept if OK and within the budget, evicting the least recently used
        self._misses += 1
        status, body = _attempt(request.build, self, payload[1:])
        response = _response_head(payload, status) + body
        if status == STATUS_OK and len(response) <= RESPONSE_CACHE_BYTES:
            self._cache[payload] = response
            self._cache_size += len(response)
            while self._cache_size > RESPONSE_CACHE_BYTES:
                self._cache_size -= len(self._cache.popitem(last=False)[1])
        return response

    def cache_stats(self) -> CacheStats:
        """Snapshot of the response cache's counts and size."""
        return CacheStats(self._hits, self._misses, self._bypassed, len(self._cache),
                          self._cache_size)


def _response_head(payload: bytes, status: int) -> bytes:
    """The response head to ``payload``: its type with ``RESPONSE_BIT``, and ``status``."""
    return bytes(((payload[:1] or b"\x00")[0] | RESPONSE_BIT, status))


def _attempt(build: Callable, *args) -> tuple[int, object]:
    """(STATUS_OK, what ``build(*args)`` returns), or the status byte of
    the refusal it raises and no body: the one mapping of refusals to
    status bytes, for every request type."""
    try:
        return STATUS_OK, build(*args)
    except UnknownSigner:
        return STATUS_UNKNOWN_ID, b""
    except EpochOutOfRange:
        return STATUS_EPOCH_RANGE, b""
    except (MalformedFrame, ValueError):
        return STATUS_MALFORMED, b""


# --- request types -------------------------------------------------------------


class _Request(NamedTuple):
    """How the service takes one request type."""

    well_formed: Callable[[int], bool]  # whether a body can have this length
    build: Callable[[CcoStore, bytes], bytes]  # body -> what follows OK; raises for the rest


def _key(body: bytes) -> tuple[bytes, int]:
    """The (id, epoch) a commitment or opening request body starts with."""
    return body[:16], int.from_bytes(body[16:24], "big")


def _opening_len(body_len: int) -> bool:
    count, rest = divmod(body_len - 24, 4)
    return not rest and 1 <= count <= MAX_OPENING_INDICES


def _opening_indices(body: bytes) -> tuple[int, ...]:
    return struct.unpack(f">{(len(body) - 24) // 4}I", body[24:])


_COMBINED_HEAD = 16 + SEED_LEN + SUM_LEN  # id, seed, weighted response sum


def _combined_len(body_len: int) -> bool:
    count, rest = divmod(body_len - _COMBINED_HEAD, 8)
    return not rest and 1 <= count <= MAX_COMBINED_EPOCHS


def _combined_response(store: CcoStore, body: bytes) -> bytes:
    seed_end = 16 + SEED_LEN
    agg = int.from_bytes(body[seed_end:_COMBINED_HEAD], "big")
    epochs = struct.unpack(f">{(len(body) - _COMBINED_HEAD) // 8}Q", body[_COMBINED_HEAD:])
    return store.la_combined(body[:16], body[16:seed_end], agg, epochs)


def _commitment(method: str) -> _Request:
    """A commitment request, answered with the store's ``method`` of its key."""
    return _Request(lambda n: n == 24,
                    lambda store, body: getattr(store, method)(*_key(body)).to_bytes())


def export_bytes(blobs: Sequence[bytes]) -> bytes:
    """The export container of the offline file: an 8-byte big-endian
    entry count, then the entries.
    ValueError for anything ``_EXPORT_RULE`` refuses."""
    sizes = {len(blob) for blob in blobs}
    if len(sizes) != 1 or 0 in sizes:
        raise ValueError(_EXPORT_RULE)
    return b"".join([len(blobs).to_bytes(8, "big"), *blobs])


def export_from_bytes(data: bytes) -> list[bytes]:
    """The entries of an ``export_bytes`` container; ValueError for
    anything ``_EXPORT_RULE`` refuses."""
    count = int.from_bytes(data[:8], "big")
    body_len = len(data) - 8
    if body_len <= 0 or not count or body_len % count:
        raise ValueError(_EXPORT_RULE)
    size = body_len // count
    return [data[i : i + size] for i in range(8, len(data), size)]


# scheme tag -> the store's builder of one commitment of it, for the
# commitment request of that type and for every epoch of ``batch_export``
_BUILDERS = {MSG_PQ: "pq_commitment", MSG_LA: "la_commitment", MSG_HY: "hy_commitment"}

# request type -> how it is taken; each `build` looks the store's method
# up when it runs, so a wrapper installed on it sees the call
_REQUESTS = {
    **{tag: _commitment(method) for tag, method in _BUILDERS.items()},
    MSG_PQ_OPENING: _Request(_opening_len, lambda store, body: store.pq_opening(
        *_key(body), _opening_indices(body)).to_bytes()),
    MSG_LA_COMBINED: _Request(_combined_len, _combined_response),
}


# --- request encodings: what ``_REQUESTS`` reads back -------------------------


def commitment_payload(msg_type: int, signer_id: bytes, epoch: int) -> bytes:
    """A single-epoch commitment request (0x01-0x03): id(16) epoch(8)."""
    return bytes((msg_type,)) + signer_id + epoch.to_bytes(8, "big")


def opening_payload(signer_id: bytes, epoch: int, indices: Sequence[int]) -> bytes:
    """An opening request (``MSG_PQ_OPENING``): k ``indices`` per epoch
    of the run that starts at ``epoch``."""
    return (commitment_payload(MSG_PQ_OPENING, signer_id, epoch)
            + struct.pack(f">{len(indices)}I", *indices))


def combined_payload(signer_id: bytes, seed: bytes, agg: int, epochs: Sequence[int]) -> bytes:
    """A combined nonce commitment request (``MSG_LA_COMBINED``) with the
    weighted response sum ``agg``."""
    return (bytes((MSG_LA_COMBINED,)) + signer_id + seed + agg.to_bytes(SUM_LEN, "big")
            + struct.pack(f">{len(epochs)}Q", *epochs))


