"""Forward-secure hash-based signatures with oracle-built commitments.

The signer holds a single 32-byte seed key that evolves through a
one-way chain: seed(j+1) = H1(seed(j)), with the old seed erased after
every signature.  Epoch j's signature reveals k chain-derived secret
strings selected by hashing the message into k indices over a t-entry
one-time commitment (the classic hash-to-obtain-random-subset shape).
Commitments are never sent by the signer; the key store rebuilds any
epoch's commitment from the master key, optionally accelerated by
precomputed mid-chain anchors.

Epoch factorization: with J = j1 * j2 total epochs, the store keeps
j1 - 1 anchors (the seeds at epochs j2+1, 2*j2+1, ...).  A request
walks the chain from the nearest seed the store knows: an anchor, or
the seed a chain cursor kept from the signer's previous request, so a
run of consecutive epochs takes one step per further epoch (none where
an epoch starts its segment: its anchor is its seed), whether it is
asked for epoch by epoch or opened in one request: one walk,
``_seeds``, serves them all.  The walk is never more than j2 - 1 hash
steps.
j1 = 1 means no anchors and a worst case of J - 1 steps: a pure
storage/latency trade-off, the commitments themselves are
policy-invariant.

Commitment entries carry labels 1..t; a message index x in [0, t-1]
selects the entry at position x, whose label is x + 1.  Both the signer
and the store derive entry preimages as H1(seed || label), and both the
construction and verification sides map preimages to entries with H2.
"""

from __future__ import annotations

import os
import struct
from typing import Callable, Iterable, Mapping, MutableMapping, NamedTuple, Sequence

from .errors import EpochExhausted
from .hashing import (
    DIGEST_LEN,
    DOM_CHAIN,
    DOM_MESSAGE,
    HEADER_LEN,
    check_epochs,
    check_signer_ids,
    commitment_images,
    domain_hash,
    encode_header,
    images_match,
    iter_hash,
    opened_images,
    revealed_strings,
    signing_table,
    split_header,
)
from .records import CheckedTuple, SlotRecord

SIGNATURE_TAG = 0x01
COMMITMENT_TAG = 0x11
OPENING_TAG = 0x21
_PARAMS = struct.Struct(">IIIQQ")  # t, k, l, j1, j2
PARAMS_LEN = _PARAMS.size
KEY_FILE_LEN = HEADER_LEN + DIGEST_LEN + PARAMS_LEN

MASTER_KEY_LEN = 32

#: A chain cursor: for each signer, the (epoch, seed) of a seed already
#: derived, from which a later walk may start instead of an anchor.
Cursor = MutableMapping[bytes, tuple[int, bytes]]


class _PqParams(NamedTuple):
    t: int = 1024
    k: int = 16
    l: int = 256
    j1: int = 1
    j2: int = 1024


class PqParams(CheckedTuple, _PqParams):
    """System parameters for the forward-secure scheme.

    t: commitment entries per epoch (power of two)
    k: entries revealed per signature
    l: bit length of each secret string (the digest width)
    j1, j2: epoch factorization, J = j1 * j2
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "PqParams":
        self = super().__new__(cls, *args, **kwargs)
        if self.t < 2 or self.t & (self.t - 1) or self.t >> 32:
            raise ValueError("t must be a power of two, 2 <= t < 2^32, as the key files hold it")
        if self.k < 1 or self.k * self.index_bits > 256:
            raise ValueError("k * log2(t) must fit in one 256-bit digest")
        if self.l != 8 * DIGEST_LEN:
            raise ValueError("secret string length is fixed at the digest width")
        if self.j1 < 1 or self.j2 < 1:
            raise ValueError("epoch factors must be >= 1")
        if self.epochs >> 64:  # and so j1 and j2, each within it
            raise ValueError("J = j1 * j2 must be below 2^64, as the key files and the wire hold it")
        return self

    def to_bytes(self) -> bytes:
        return _PARAMS.pack(self.t, self.k, self.l, self.j1, self.j2)

    @classmethod
    def from_bytes(cls, data: bytes) -> "PqParams":
        if len(data) != PARAMS_LEN:
            raise ValueError("truncated forward-secure parameters")
        return cls(*_PARAMS.unpack(data))

    @property
    def index_bits(self) -> int:
        return (self.t - 1).bit_length()

    @property
    def epochs(self) -> int:
        """Total number of signing epochs J."""
        return self.j1 * self.j2


class PqSignerState(SlotRecord):
    """Mutable signer side: current seed key and epoch counter.

    Single-writer: sign/advance must be externally serialized.  The
    seed is held in a bytearray so the previous key bytes can be
    overwritten (best-effort) on every update.
    """

    __slots__ = ("signer_id", "seed", "epoch", "params")

    def __init__(self, signer_id: bytes, seed: bytearray, epoch: int, params: PqParams):
        self.signer_id = signer_id
        self.seed = seed
        self.epoch = epoch
        self.params = params

    @property
    def exhausted(self) -> bool:
        return self.epoch > self.params.epochs

    def to_bytes(self) -> bytes:
        """The key file: header, seed, parameters."""
        head = encode_header(SIGNATURE_TAG, self.signer_id, self.epoch)
        return head + bytes(self.seed) + self.params.to_bytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "PqSignerState":
        signer_id, epoch, rest = split_header(
            data, SIGNATURE_TAG, "forward-secure key file", KEY_FILE_LEN)
        params = PqParams.from_bytes(rest[DIGEST_LEN:])
        if not 1 <= epoch <= params.epochs + 1:  # J + 1: every epoch signed
            raise ValueError(f"key epoch {epoch} is outside 1..{params.epochs + 1}")
        return cls(signer_id, bytearray(rest[:DIGEST_LEN]), epoch, params)


class PqSignature(NamedTuple):
    """The k revealed strings of one epoch, kept as the bytes they are
    sent as, as ``PqOpening`` keeps its entries: ``verify`` hashes each
    string where it lies in ``body``."""

    signer_id: bytes
    epoch: int
    body: bytes  # the revealed strings, DIGEST_LEN bytes each, in index order

    def to_bytes(self) -> bytes:
        return encode_header(SIGNATURE_TAG, self.signer_id, self.epoch) + self.body

    @classmethod
    def from_bytes(cls, data: bytes) -> "PqSignature":
        return cls(*_split_digests(data, SIGNATURE_TAG, "signature"))


class PqCommitment(NamedTuple):
    """One epoch's commitment, its t entries kept as the bytes they are
    sent as: a verifier slices out only the k it opens."""

    signer_id: bytes
    epoch: int
    body: bytes  # the entries for labels 1..t, DIGEST_LEN bytes each

    def to_bytes(self) -> bytes:
        return encode_header(COMMITMENT_TAG, self.signer_id, self.epoch) + self.body

    @classmethod
    def from_bytes(cls, data: bytes) -> "PqCommitment":
        return cls(*_split_digests(data, COMMITMENT_TAG, "commitment"))

    def open(self, indices: Sequence[int], params: PqParams) -> "PqOpening":
        """The entries at ``indices``, in that order; ValueError unless
        this commitment has t entries and every index is below t."""
        if len(self.body) != params.t * DIGEST_LEN:
            raise ValueError(f"commitment has {len(self.body) // DIGEST_LEN} entries, not {params.t}")
        if not all(0 <= x < params.t for x in indices):
            raise ValueError(f"an index is outside [0, {params.t})")
        body = self.body
        return PqOpening(self.signer_id, self.epoch,
                         b"".join([body[x * DIGEST_LEN : (x + 1) * DIGEST_LEN] for x in indices]))


class PqOpening(NamedTuple):
    """The entries of one epoch's commitment at the indices a signature's
    message selects, in that order, duplicates included, kept as the
    bytes they are sent as: all that the signature is checked against.
    A run's opening (``open_commitment``) holds k entries for each of its
    epochs from ``epoch`` on.  The indices are not in it: the reader knows
    the ones it asked for."""

    signer_id: bytes
    epoch: int
    body: bytes  # the opened entries, DIGEST_LEN bytes each

    def to_bytes(self) -> bytes:
        return encode_header(OPENING_TAG, self.signer_id, self.epoch) + self.body

    @classmethod
    def from_bytes(cls, data: bytes) -> "PqOpening":
        return cls(*_split_digests(data, OPENING_TAG, "opening"))

    def open(self, indices: Sequence[int], params: PqParams) -> "PqOpening":
        """This opening, if it holds one entry per index; ValueError if not.
        That it was made at ``indices`` is for the caller to know."""
        if len(self.body) != len(indices) * DIGEST_LEN:
            raise ValueError("opening does not hold one entry per index")
        return self

    def per_epoch(self, k: int) -> list["PqOpening"]:
        """A run's opening as the opening of each of its epochs: the n-th
        k entries, at ``epoch`` + n."""
        size = k * DIGEST_LEN
        return [PqOpening(self.signer_id, self.epoch + n, self.body[i : i + size])
                for n, i in enumerate(range(0, len(self.body), size))]


def _split_digests(data: bytes, tag: int, what: str) -> tuple[bytes, int, bytes]:
    """``split_header``, then ValueError unless the rest is one or more digests."""
    signer_id, epoch, rest = split_header(data, tag, what)
    if not rest or len(rest) % DIGEST_LEN:
        raise ValueError(f"{what} body is not a whole number of digests")
    return signer_id, epoch, rest


class PqKeyMaterial(NamedTuple):
    """Store side: master key plus per-signer anchor tables.

    anchors[id][i] is the seed at epoch (i+1)*j2 + 1; the epoch-1 seed
    is never stored, it is re-derived from the master key on demand.
    """

    msk: bytes
    params: PqParams
    anchors: Mapping[bytes, tuple[bytes, ...]]

    @property
    def signer_ids(self) -> Iterable[bytes]:
        return self.anchors.keys()


def initial_seed(msk: bytes, signer_id: bytes) -> bytes:
    """Epoch-1 seed key of a signer, derived from the master key."""
    return domain_hash(DOM_MESSAGE, msk + signer_id)


def derive_anchors(msk: bytes, signer_id: bytes, params: PqParams) -> tuple[bytes, ...]:
    """Walk the chain once and collect the j1 - 1 anchor seeds."""
    anchors = []
    seed = initial_seed(msk, signer_id)
    for _ in range(params.j1 - 1):
        seed = iter_hash(DOM_CHAIN, seed, params.j2)
        anchors.append(seed)
    return tuple(anchors)


def keygen(
    ids: Iterable[bytes],
    params: PqParams,
    rng: Callable[[int], bytes] = os.urandom,  # what secrets.token_bytes returns
) -> tuple[dict[bytes, PqSignerState], PqKeyMaterial]:
    """Generate the master key, per-signer initial states, and store material.

    The signer states receive only their own epoch-1 seed; the master
    key and anchors go to the key store alone.
    """
    id_list = check_signer_ids(ids)
    msk = rng(MASTER_KEY_LEN)
    states = {
        sid: PqSignerState(sid, bytearray(initial_seed(msk, sid)), 1, params)
        for sid in id_list
    }
    anchors = {sid: derive_anchors(msk, sid, params) for sid in id_list}
    return states, PqKeyMaterial(msk, params, anchors)


def advance_key(state: PqSignerState) -> None:
    """One-way key update: replace the seed by H1(seed), erase the old
    bytes.  ``sign`` makes the same update without this call: H1(seed)
    is the digest of the hash state its labels are copied from."""
    if state.exhausted:
        raise EpochExhausted(f"all {state.params.epochs} epochs used")
    new_seed = domain_hash(DOM_CHAIN, bytes(state.seed))
    state.seed[:] = new_seed
    state.epoch += 1


def message_indices(message: bytes, params: PqParams) -> tuple[int, ...]:
    """Hash the message and slice the digest into k commitment indices.

    The first k*log2(t) bits are consumed most-significant-first; each
    log2(t)-bit window is one big-endian index in [0, t-1].
    """
    digest = domain_hash(DOM_MESSAGE, message)
    return indices_from_digest(digest, params)


def indices_from_digest(digest: bytes, params: PqParams) -> tuple[int, ...]:
    _, shifts, mask = signing_table(params.t, params.k)
    value = int.from_bytes(digest, "big")
    return tuple([value >> shift & mask for shift in shifts])


def sign(state: PqSignerState, message: bytes) -> PqSignature:
    """Sign at the current epoch, then advance the key.

    Costs exactly 1 + k + 1 primitive hash calls, made by one
    ``revealed_strings`` call: the k revealed strings are hashed on
    copies of the H1 state of the seed, and that state's own digest,
    H1(seed), is the key update ``advance_key`` would make, written over
    the old seed in place.  The returned signature carries the epoch it
    was produced at (the pre-update value), which is the epoch whose
    commitment verifies it.
    """
    params = state.params
    if state.exhausted:
        raise EpochExhausted(f"all {params.epochs} epochs used")
    # the seed's hash state lives in the kernel call only
    body, next_seed = revealed_strings(message, state.seed, signing_table(params.t, params.k))
    state.seed[:] = next_seed
    signature = PqSignature(state.signer_id, state.epoch, body)
    state.epoch += 1
    return signature


def construct_commitment(
    material: PqKeyMaterial, signer_id: bytes, epoch: int, cursor: Cursor | None = None,
) -> PqCommitment:
    """Rebuild the one-time commitment for (signer, epoch) at the store.

    Entry x is H2(H1(seed || x)) for the labels x = 1..t, as ``sign``
    reveals them.  Costs 2t hashes plus the chain walk of ``_seeds``.
    """
    (seed,) = _seeds(material, signer_id, epoch, epoch, cursor)
    return PqCommitment(signer_id, epoch, commitment_images(seed, material.params.t))


def open_commitment(
    material: PqKeyMaterial,
    signer_id: bytes,
    epoch: int,
    indices: Sequence[int],
    cursor: Cursor | None = None,
) -> PqOpening:
    """The entries of (signer, epoch)'s commitment at the first k
    ``indices``, then of (signer, epoch + 1)'s at the next k, and so on:
    one opening of the run of n epochs that n * k indices name, in
    order, duplicates included, without building the other t - k
    entries of any epoch.  At n = 1 it is the epoch's plain opening.

    The index count must be a nonzero multiple of k and every index
    below t (``ValueError``); they are checked before any hashing, as
    ``_seeds`` checks the id and the run.  Costs the walk of ``_seeds``
    and 2k hashes per epoch, all of them in one ``opened_images``: what
    the same openings cost one by one on a store that has answered
    nothing before.
    """
    params = material.params
    k = params.k
    count, rest = divmod(len(indices), k)
    if rest or not count or min(indices) < 0 or max(indices) >= params.t:
        raise ValueError(f"an opening takes a nonzero multiple of {k} indices below {params.t}")
    seeds = _seeds(material, signer_id, epoch, epoch + count - 1, cursor)
    return PqOpening(signer_id, epoch, opened_images(seeds, indices, params.t))


def _seeds(
    material: PqKeyMaterial,
    signer_id: bytes,
    first: int,
    last: int,
    cursor: Cursor | None = None,
) -> list[bytes]:
    """The seed of each epoch in [first, last], in order, once
    ``check_epochs`` passes, before any hashing.

    The first seed is walked to from the nearest anchor at or below it
    (the master key itself when it falls in the first segment, one more
    hash), at most j2 - 1 steps.  With a ``cursor`` the walk starts from
    the signer's entry instead when that lies between the anchor and the
    epoch, so it is never longer.  Each later epoch takes one chain step,
    or its anchor where it starts a segment.  A ``cursor`` is left at
    ``last``.
    """
    check_epochs(material.anchors, signer_id, first, last, material.params.epochs)
    params, anchors = material.params, material.anchors[signer_id]
    segment, offset = divmod(first - 1, params.j2)
    known = cursor.get(signer_id) if cursor is not None else None
    if known is not None and first - offset <= known[0] <= first:
        seed = iter_hash(DOM_CHAIN, known[1], first - known[0])
    else:
        base = anchors[segment - 1] if segment else initial_seed(material.msk, signer_id)
        seed = iter_hash(DOM_CHAIN, base, offset)
    seeds = [seed]
    for epoch in range(first + 1, last + 1):
        segment, offset = divmod(epoch - 1, params.j2)
        seed = domain_hash(DOM_CHAIN, seed) if offset else anchors[segment - 1]
        seeds.append(seed)
    if cursor is not None:
        cursor[signer_id] = (last, seed)
    return seeds


def verify(
    commitment: PqCommitment | PqOpening,
    message: bytes,
    signature: PqSignature,
    params: PqParams,
    indices: Sequence[int] | None = None,
) -> bool:
    """Check the k revealed strings against the commitment entries at
    the message's indices.

    ``commitment`` is the epoch's full commitment, whose k entries at
    the indices are joined here, or an opening of k entries, trusted to
    have been made at exactly those indices (it holds none, so it binds
    the message only through them): either way one check compares each
    part's image with its entry, both sliced from their bodies
    (``images_match``).
    ``indices`` are ``message_indices(message, params)`` when the caller
    has derived them already, as ``hases verify`` does to get the
    opening; they are trusted to be.
    Structural mismatches (identity/epoch disagreement, wrong part or
    entry counts, epoch outside [1, J]) reject without hashing the parts.
    """
    if signature.signer_id != commitment.signer_id or signature.epoch != commitment.epoch:
        return False
    if not 1 <= signature.epoch <= params.epochs:
        return False
    if len(signature.body) != params.k * DIGEST_LEN:
        return False
    if indices is None:
        indices = message_indices(message, params)
    try:
        opening = commitment.open(indices, params)
    except ValueError:
        return False
    return images_match(signature.body, opening.body)
