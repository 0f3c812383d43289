"""Domain-separated hashing primitives.

All signing, key-evolution, and commitment material in this package is
derived from three hash functions obtained from SHA-256 by prefixing a
single domain byte:

    H_k(x) = SHA-256( byte(k) || x ),  k in {0, 1, 2}

The prefix byte is our convention; any collision-free split of SHA-256
into three independent functions would do.  Domain 0 covers message
digests and key derivation, domain 1 covers one-way chains and secret
expansion, domain 2 covers public commitment images and challenge
scalars.

Integers are encoded into hash inputs as fixed-width big-endian strings
(8 bytes for epochs and indices) so that concatenations parse uniquely.
Signer identities are exactly 16 bytes everywhere.

Batched kernels.  Most per-record hashing shares a prefix: a pq
signature reveals H1(seed || label) for k labels, an la batch derives
H0(public_seed || l) and H1(nonce_seed || l) for its L items, and the
key store images H2(H1(seed || label)) for up to t labels.
``prefixed_hashes`` and ``prefixed_scalars`` hash ``byte(domain) ||
head`` once and copy that state for each tail; ``images_match`` checks
each preimage sliced from a body of preimages against the image sliced
from the same offset of a body of images, and stops at the first
mismatch; ``combination_weights`` cuts the 128-bit weights of a
combined check from H2(seed || i), one position i at a time.
``revealed_strings`` is the whole of a pq signature: H0 of the message
picks k indices, ``byte(1) || seed`` is hashed once, each selected
label is hashed on a copy of that state, and the state's own digest,
H1(seed), is the next seed.  ``nested_digests`` is a hy batch's 2L - 1
chained H0 calls in one loop, and ``iter_hash`` a chain walk, each call
on a copy of the hashed domain byte.  ``commitment_images`` and
``opened_images`` (a full build, or a pq opening of a run of epochs, a
``0x05`` request) share one loop:
``byte(2)`` is hashed once per call and ``byte(1) || seed`` once per
seed, and each label is hashed H1 then H2 on copies of those states.
Each returns exactly what the ``domain_hash``/``hash_to_scalar``
composition returns, and adds the calls that composition would make to
its domain's counter in one step per call (a retried scalar and a
check that stops early count the calls actually made).  The only
module-level caches are ``label_table``, the public 8-byte encodings
of the labels 1..n, and ``signing_table``, those of 1..t with the
index shifts and mask of a (t, k).  A hash state that has absorbed a
seed is a local of one kernel call, so it never outlives the ``sign``
that asked for it.

The constructor.  Every kernel hashes through ``_sha256``: CPython's
own SHA-256 (``_sha2`` from 3.12, ``_sha256`` before), or
``hashlib.sha256`` where the interpreter was built without it; the
bytes are the same.  Each input is a block or two, where a call through
OpenSSL's EVP layer, which copies a context for each ``copy()`` and
each ``digest()``, costs more than the hashing.  OpenSSL's time over
CPython's, same code, 30 in-process pairs (2 vCPU, Python 3.11.7,
OpenSSL 3.0.19): ``revealed_strings`` x1.15, ``_images`` x1.18,
``opened_images`` x1.18, ``images_match`` x1.17, ``iter_hash`` x1.21,
``nested_digests`` x1.22, ``prefixed_hashes`` x1.18,
``prefixed_scalars`` x1.12, ``combination_weights`` x1.13.

A module-level call counter backs the benchmark harness.  Increments are
plain integer adds: safe under the GIL, but reset/read is only
meaningful while a single benchmark runs at a time.
"""

from __future__ import annotations

import functools
from typing import Container, Iterable, NamedTuple, Sequence

from .errors import EpochOutOfRange, UnknownSigner
from .records import SlotRecord

DIGEST_LEN = 32
ID_LEN = 16
HEADER_LEN = 1 + ID_LEN + 8  # tag || id || epoch
WEIGHT_LEN = 16  # bytes of a combined check's weight: 128 bits

#: hash domains
DOM_MESSAGE = 0
DOM_CHAIN = 1
DOM_COMMIT = 2


class HashCounters(SlotRecord):
    """Tally of primitive hash invocations, one slot per domain."""

    __slots__ = ("calls_h0", "calls_h1", "calls_h2")

    def __init__(self, calls_h0: int = 0, calls_h1: int = 0, calls_h2: int = 0):
        self.calls_h0 = calls_h0
        self.calls_h1 = calls_h1
        self.calls_h2 = calls_h2

    def reset(self) -> None:
        self.calls_h0 = self.calls_h1 = self.calls_h2 = 0

    def snapshot(self) -> tuple[int, int, int]:
        return (self.calls_h0, self.calls_h1, self.calls_h2)

    def total(self) -> int:
        return self.calls_h0 + self.calls_h1 + self.calls_h2


counters = HashCounters()

_PREFIX = (b"\x00", b"\x01", b"\x02")
_COUNTER_SLOTS = HashCounters.__slots__
try:  # CPython's own SHA-256, or hashlib's where it was left out: see the module docstring
    from _sha2 import sha256 as _sha256  # 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # 3.10 and 3.11
    except ImportError:
        from hashlib import sha256 as _sha256


def domain_hash(domain: int, data: bytes) -> bytes:
    """Return the 32-byte digest of ``data`` under hash domain 0, 1 or 2."""
    if domain == 0:
        counters.calls_h0 += 1
    elif domain == 1:
        counters.calls_h1 += 1
    elif domain == 2:
        counters.calls_h2 += 1
    else:
        raise ValueError(f"hash domain must be 0, 1 or 2, got {domain}")
    return _sha256(_PREFIX[domain] + data).digest()


def iter_hash(domain: int, seed: bytes, steps: int) -> bytes:
    """Apply ``domain_hash(domain, .)`` to ``seed`` ``steps`` times.

    ``steps == 0`` returns the seed unchanged.  Splitting holds by
    construction: iterating a+b steps equals iterating b steps on the
    result of iterating a steps, which is what lets mid-chain anchors
    stand in for the chain head.  The ``steps`` calls are counted at once.
    """
    if steps < 0:
        raise ValueError("step count must be non-negative")
    copy = _prefix_state(domain, b"").copy
    value = seed
    for _ in range(steps):
        state = copy()
        state.update(value)
        value = state.digest()
    _count(domain, steps)
    return value


@functools.lru_cache(maxsize=8)
def label_table(n: int) -> tuple[bytes, ...]:
    """``encode_index(label)`` for the labels 1..n: entry x is label x + 1.

    Public encodings only, cached per ``n``."""
    return tuple(encode_index(label) for label in range(1, n + 1))


class SigningTable(NamedTuple):
    """What ``revealed_strings`` needs of a pq (t, k), all public."""

    labels: tuple[bytes, ...]  # label_table(t): index x selects label x + 1
    shifts: tuple[int, ...]  # right shift of each index's log2(t)-bit window, most significant first
    mask: int  # t - 1


@functools.lru_cache(maxsize=8)
def signing_table(t: int, k: int) -> SigningTable:
    """The signing table of t entries (a power of two), k revealed; cached."""
    bits = (t - 1).bit_length()
    shifts = tuple(8 * DIGEST_LEN - bits * (n + 1) for n in range(k))
    return SigningTable(label_table(t), shifts, t - 1)


def revealed_strings(message: bytes, seed, table: SigningTable) -> tuple[bytes, bytes]:
    """The body of a pq signature of ``message`` under ``seed``, and the
    next seed.

    The body is H1(seed || label) for the label of each index that
    H0(message) selects (``table.shifts`` and ``table.mask`` cut them),
    joined in index order; the next seed is H1(seed).  ``byte(1) ||
    seed`` is hashed once: each label is hashed on a copy of that state,
    and the state's own digest is the next seed.  Counted as 1 H0 call
    and k + 1 H1 calls, each domain in one step.
    """
    labels, shifts, mask = table
    value = int.from_bytes(_sha256(b"\x00" + message).digest(), "big")
    state = _sha256(b"\x01")
    state.update(seed)
    copy = state.copy
    parts = []
    for shift in shifts:
        label_state = copy()
        label_state.update(labels[value >> shift & mask])
        parts.append(label_state.digest())
    counters.calls_h0 += 1
    counters.calls_h1 += len(parts) + 1
    return b"".join(parts), state.digest()


def nested_digests(messages: Sequence[bytes]) -> list[bytes]:
    """n_1 = H0(m_1), then n_l = H0(m_l || H0(n_(l-1))) for each later
    message: a hy batch's nested vector, counted as its 2L - 1 H0 calls
    in one step.  At least one message."""
    copy = _sha256(b"\x00").copy
    state = copy()
    state.update(messages[0])
    digests = [state.digest()]
    for message in messages[1:]:
        state = copy()
        state.update(digests[-1])
        link = state.digest()
        state = copy()
        state.update(message)
        state.update(link)
        digests.append(state.digest())
    counters.calls_h0 += 2 * len(digests) - 1
    return digests


def _prefix_state(domain: int, head: bytes):
    if domain not in (0, 1, 2):
        raise ValueError(f"hash domain must be 0, 1 or 2, got {domain}")
    return _sha256(_PREFIX[domain] + head)


def _count(domain: int, calls: int) -> None:
    slot = _COUNTER_SLOTS[domain]
    setattr(counters, slot, getattr(counters, slot) + calls)


def prefixed_hashes(domain: int, head: bytes, tails: Iterable[bytes]) -> list[bytes]:
    """``domain_hash(domain, head + tail)`` for each tail, in order.

    ``byte(domain) || head`` is hashed once and its state copied for
    each tail; the calls are counted at once, one per tail.
    """
    copy = _prefix_state(domain, head).copy
    digests = []
    for tail in tails:
        state = copy()
        state.update(tail)
        digests.append(state.digest())
    _count(domain, len(digests))
    return digests


def prefixed_scalars(domain: int, head: bytes, tails: Iterable[bytes], order: int) -> list[int]:
    """``hash_to_scalar(domain, head + tail, order)`` for each tail, in
    order, from one hashed prefix as ``prefixed_hashes``; each retry is
    one more counted call, as in ``hash_to_scalar``."""
    if order <= 2:
        raise ValueError("group order must exceed 2")
    copy = _prefix_state(domain, head).copy
    scalars = []
    calls = 0
    for tail in tails:
        state = copy()
        state.update(tail)
        value = int.from_bytes(state.digest(), "big") % order
        calls += 1
        retry = 0
        while value == 0:  # for any order > 2, ends long before retry reaches 256
            again = state.copy()
            again.update(bytes((retry,)))
            value = int.from_bytes(again.digest(), "big") % order
            calls += 1
            retry += 1
        scalars.append(value)
    _count(domain, calls)
    return scalars


def hash_to_scalar(domain: int, data: bytes, order: int) -> int:
    """Hash ``data`` into a nonzero scalar modulo ``order``.

    The digest is read as a big-endian integer and reduced.  A zero
    result is retried with a one-byte counter appended, which keeps the
    map well defined for the tiny test groups; for ~252-bit orders the
    retry never fires and the reduction bias is negligible.
    """
    return prefixed_scalars(domain, data, (b"",), order)[0]


def images_match(preimages: bytes, images: bytes) -> bool:
    """Whether ``domain_hash(2, preimage)`` is the n-th ``DIGEST_LEN``
    bytes of ``images`` for the n-th ``DIGEST_LEN`` bytes of
    ``preimages``, each pair sliced from its body, in order, stopping at
    the first mismatch as ``all()`` would; only the calls made are
    counted."""
    copy = _prefix_state(DOM_COMMIT, b"").copy
    calls = 0
    matched = True
    for at in range(0, len(preimages), DIGEST_LEN):
        state = copy()
        state.update(preimages[at : at + DIGEST_LEN])
        calls += 1
        if state.digest() != images[at : at + DIGEST_LEN]:
            matched = False
            break
    _count(DOM_COMMIT, calls)
    return matched


def commitment_images(seed: bytes, t: int) -> bytes:
    """The entry body: ``H2(H1(seed || label))`` for the labels 1..t, in
    label order, joined; counted as the 2t calls of that composition."""
    return _images((seed,), label_table(t))


def opened_images(seeds: Sequence[bytes], indices: Sequence[int], t: int) -> bytes:
    """For each seed in turn, the images of ``commitment_images(seed, t)``
    at its len(indices) / len(seeds) of ``indices`` (label x + 1 for
    index x), in the given order, joined; 2 calls per index.  There is
    at least one seed, the index count is a multiple of theirs and every
    index lies in [0, t): the caller checks that, before any hashing."""
    labels = label_table(t)
    return _images(seeds, [labels[x] for x in indices])


def _images(seeds: Sequence[bytes], labels: Sequence[bytes]) -> bytes:
    """H2(H1(seed || label)) for each seed in turn at its equal share of
    ``labels``, in order, joined; counted in one step per domain."""
    image_state = _sha256(b"\x02").copy
    share = len(labels) // len(seeds)
    images = []
    append = images.append
    at = 0
    for seed in seeds:
        label_state = _sha256(b"\x01" + seed).copy
        for label in labels[at : at + share]:
            preimage = label_state()
            preimage.update(label)
            image = image_state()
            image.update(preimage.digest())
            append(image.digest())
        at += share
    counters.calls_h1 += len(images)
    counters.calls_h2 += len(images)
    return b"".join(images)


def combination_weights(seed: bytes, count: int) -> list[int]:
    """The weights z_1..z_count of a combined check (``hases.la``): z_i is
    the first ``WEIGHT_LEN`` bytes of H2(seed || encode_index(i)), read
    big-endian.  One counted call per weight, from one hashed prefix."""
    return [int.from_bytes(digest[:WEIGHT_LEN], "big")
            for digest in prefixed_hashes(DOM_COMMIT, seed, label_table(count))]


def encode_index(value: int) -> bytes:
    """8-byte big-endian encoding used for epochs and per-item indices."""
    if value < 0:
        raise ValueError("indices are non-negative")
    return value.to_bytes(8, "big")


def encode_header(tag: int, signer_id: bytes, epoch: int) -> bytes:
    """Tag, id, epoch: how every serialized signature, commitment and key file begins."""
    return bytes((tag,)) + signer_id + encode_index(epoch)


def read_header(data: bytes, tag: int, what: str) -> tuple[bytes, int]:
    """(id, epoch) of a ``what`` that ``encode_header(tag, ...)`` begins;
    ValueError if it does not.  Copies nothing after the header."""
    if len(data) < HEADER_LEN or data[0] != tag:
        raise ValueError(f"not a serialized {what}")
    return data[1:17], int.from_bytes(data[17:25], "big")


def split_header(data: bytes, tag: int, what: str, size: int = 0) -> tuple[bytes, int, bytes]:
    """(id, epoch, rest) of a ``what`` that ``encode_header(tag, ...)``
    begins; ValueError if it does not, or if ``size`` is given and the
    blob is not exactly ``size`` bytes."""
    if size and len(data) != size:
        raise ValueError(f"not a serialized {what}")
    return (*read_header(data, tag, what), data[25:])


def check_signer_ids(ids: Iterable[bytes]) -> list[bytes]:
    """The ids as a list; ValueError unless each is ``ID_LEN`` bytes,
    there is at least one, and none repeats."""
    id_list = list(ids)
    for signer_id in id_list:
        if len(signer_id) != ID_LEN:
            raise ValueError(f"signer id must be exactly {ID_LEN} bytes, got {len(signer_id)}")
    if not id_list:
        raise ValueError("at least one signer id required")
    if len(set(id_list)) != len(id_list):
        raise ValueError("duplicate signer ids")
    return id_list


def check_epochs(known_ids: Container[bytes], signer_id: bytes, first: int, last: int,
                 epochs: int) -> None:
    """``UnknownSigner`` for an id not in ``known_ids``, then
    ``EpochOutOfRange`` unless 1 <= first <= last <= ``epochs``."""
    if signer_id not in known_ids:
        raise UnknownSigner(f"signer {signer_id.hex()} not provisioned")
    if not 1 <= first <= last <= epochs:
        raise EpochOutOfRange(f"epochs [{first}, {last}] outside [1, {epochs}]")
