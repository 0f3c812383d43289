"""Single-signer aggregate signatures over a prime-order group.

One batch of L messages yields one constant-size tag.  The signer never
performs a group exponentiation: all nonces are derived from the
private scalar by hashing, so the matching aggregate nonce commitment
R = alpha^(sum of nonces) can be rebuilt by the key store from the
master key and handed to verifiers out of band.  A commitment holds R
as its 32-byte canonical encoding, and a verifier compares encodings
instead of decoding R; public keys likewise stay encoded until a
verifier builds a table for one.

Per batch j the signer derives a public seed x_j = H0(y || j) and a
nonce seed r_j = H1(y || j) (y encoded as 32 bytes big-endian, j as 8
bytes).  For each item l in 1..L:

    x_j_l = H0(x_j || l)                      per-item public seed
    r_j_l = H1(r_j || l) reduced into Z_q*    per-item nonce
    e_j_l = H2(m_l || x_j_l) reduced          per-item challenge
    s_j_l = r_j_l - e_j_l * y  (mod q)        per-item response

The tag is (sum of s_j_l, x_j, id, j); verification recomputes the
challenge sum from the messages and checks

    R  ==  Y^(sum e)  *  alpha^(sum s).

The nonce seed stays a full 32-byte digest during derivation and only
the per-item leaves are reduced to scalars, keeping every derivation
step domain-uniform.  Signing is fully deterministic: the same key,
counter, and batch always produce byte-identical tags.

Truncation resistance is structural: verification is defined only over
the full batch, and any proper prefix changes the challenge sum.

Combined check.  An online verifier checks all of one signer's batches
in a chunk with one group operation (small-exponent batch verification:
Bellare, Garay and Rabin, EUROCRYPT 1998; 128-bit weights as in
Bernstein et al., CHES 2011).  It hashes the id and each batch's
(epoch, challenge sum e_i, response sum s_i) into a seed c, and the
weights are z_i = ``hashing.combination_weights(c, n)``, one per
position i, not per epoch.  It sends the seed, the epochs and the
weighted response sum S = sum z_i * s_i (``weighted_sums``).  The key
store answers with the encoding of alpha^(sum z_i * r_i - S), r_i the
nonce sum of batch i's epoch (``combined_commitment``): the
generator's half of the check rides on the one fixed-base
exponentiation the store makes anyway.  The verifier compares the
reply with the encoding of Y^(sum z_i * e_i), walked from the key's
table alone (``combined_value``).  With eps_i = s_i + y * e_i - r_i,
the two agree iff sum z_i * eps_i = 0 mod q: every batch valid, or a
seed whose weights cancel the errors, about 2^-128 per seed tried when
q exceeds the weights (``combinable``).  Both sides stay in the
prime-order subgroup, so no R is ever decoded.  A mismatch says only
that some batch is bad; the verifier then checks each one against its
own commitment.
"""

from __future__ import annotations

import os
import struct
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import EpochExhausted, EpochOutOfRange, UnknownSigner
from .group import PrimeOrderGroup, encode_scalar, group_by_tag
from .hashing import (
    DOM_CHAIN,
    DOM_COMMIT,
    DOM_MESSAGE,
    HEADER_LEN,
    WEIGHT_LEN,
    check_signer_ids,
    combination_weights,
    domain_hash,
    encode_header,
    encode_index,
    hash_to_scalar,
    label_table,
    prefixed_hashes,
    prefixed_scalars,
    split_header,
)
from .records import CheckedTuple, SlotRecord

SIGNATURE_TAG = 0x02
COMMITMENT_TAG = 0x12
SIGNATURE_LEN = HEADER_LEN + 32 + 32
COMMITMENT_LEN = HEADER_LEN + 4 + 32
_PARAMS = struct.Struct(">BQI")  # group backend tag, J, L
PARAMS_LEN = _PARAMS.size
KEY_FILE_LEN = HEADER_LEN + 32 + PARAMS_LEN

MASTER_KEY_LEN = 32


class _LaParams(NamedTuple):
    group: PrimeOrderGroup
    max_batches: int  # J
    batch_size: int  # L


class LaParams(CheckedTuple, _LaParams):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "LaParams":
        self = super().__new__(cls, *args, **kwargs)
        if self.max_batches < 1 or self.batch_size < 1:
            raise ValueError("batch count and batch size must be >= 1")
        if self.max_batches >> 64 or self.batch_size >> 32:
            raise ValueError("batch count must be below 2^64 and batch size below 2^32")
        return self

    def to_bytes(self) -> bytes:
        return _PARAMS.pack(self.group.backend_tag, self.max_batches, self.batch_size)

    @classmethod
    def from_bytes(cls, data: bytes) -> "LaParams":
        if len(data) != PARAMS_LEN:
            raise ValueError("truncated aggregate parameters")
        backend_tag, max_batches, batch_size = _PARAMS.unpack(data)
        return cls(group_by_tag(backend_tag), max_batches, batch_size)


class LaSignerState(SlotRecord):
    """Private scalar plus the batch counter.  Single-writer."""

    __slots__ = ("signer_id", "key", "epoch", "params")

    def __init__(self, signer_id: bytes, key: int, epoch: int, params: LaParams):
        self.signer_id = signer_id
        self.key = key
        self.epoch = epoch
        self.params = params

    @property
    def exhausted(self) -> bool:
        return self.epoch > self.params.max_batches

    def to_bytes(self) -> bytes:
        """The key file: header, private scalar, parameters."""
        head = encode_header(SIGNATURE_TAG, self.signer_id, self.epoch)
        return head + encode_scalar(self.key) + self.params.to_bytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "LaSignerState":
        signer_id, epoch, rest = split_header(
            data, SIGNATURE_TAG, "aggregate key file", KEY_FILE_LEN)
        params = LaParams.from_bytes(rest[32:])
        key = int.from_bytes(rest[:32], "big")
        if not 0 < key < params.group.q:
            raise ValueError("aggregate private key out of range")
        return cls(signer_id, key, epoch, params)


class LaSignature(NamedTuple):
    """Aggregate tag: response sum plus the per-batch public seed."""

    signer_id: bytes
    epoch: int
    agg: int
    seed: bytes

    def to_bytes(self) -> bytes:
        head = encode_header(SIGNATURE_TAG, self.signer_id, self.epoch)
        return head + encode_scalar(self.agg) + self.seed

    @classmethod
    def from_bytes(cls, data: bytes, group: PrimeOrderGroup) -> "LaSignature":
        signer_id, epoch, rest = split_header(
            data, SIGNATURE_TAG, "aggregate signature", SIGNATURE_LEN)
        return cls(signer_id, epoch, group.decode_scalar(rest[:32]), rest[32:])


class LaCommitment(NamedTuple):
    """Aggregate nonce commitment R for one (signer, batch) pair.

    R is held as its 32-byte canonical encoding, exactly as it travels:
    ``verify_batch`` compares encodings and never decodes R.  Whoever
    needs R as an element decodes ``r_bytes`` with ``decode_element``.
    """

    signer_id: bytes
    epoch: int
    batch_size: int
    r_bytes: bytes  # encode_element(R)

    def to_bytes(self) -> bytes:
        head = encode_header(COMMITMENT_TAG, self.signer_id, self.epoch)
        return head + self.batch_size.to_bytes(4, "big") + self.r_bytes

    @classmethod
    def from_bytes(cls, data: bytes) -> "LaCommitment":
        signer_id, epoch, rest = split_header(
            data, COMMITMENT_TAG, "aggregate commitment", COMMITMENT_LEN)
        return cls(signer_id, epoch, int.from_bytes(rest[:4], "big"), rest[4:])


class LaKeyMaterial(NamedTuple):
    """Store side: the master key and the registered identities."""

    msk: bytes
    params: LaParams
    signer_ids: frozenset[bytes]


def private_scalar(msk: bytes, signer_id: bytes, group: PrimeOrderGroup) -> int:
    return hash_to_scalar(DOM_MESSAGE, msk + signer_id, group.q)


def keygen(
    ids: Iterable[bytes],
    group: PrimeOrderGroup,
    max_batches: int,
    batch_size: int,
    rng: Callable[[int], bytes] = os.urandom,  # what secrets.token_bytes returns
) -> tuple[dict[bytes, LaSignerState], dict[bytes, bytes], LaKeyMaterial]:
    """Derive per-signer keys from a fresh master key.

    Returns (signer states, encoded public keys, store material); the
    master key goes to the store only, each private scalar to its
    signer only.
    """
    id_list = check_signer_ids(ids)
    params = LaParams(group, max_batches, batch_size)
    msk = rng(MASTER_KEY_LEN)
    states = {}
    public = {}
    for sid in id_list:
        y = private_scalar(msk, sid, group)
        states[sid] = LaSignerState(sid, y, 1, params)
        public[sid] = group.encode_element(group.exp(group.generator, y))
    return states, public, LaKeyMaterial(msk, params, frozenset(id_list))


def aggregate(parts: Sequence[int], q: int) -> int:
    """Sum of response scalars mod q; order-independent.  ``sign_batch``
    reaches the same value as (sum of nonces - y * sum of challenges)
    mod q, without forming the responses."""
    total = 0
    for part in parts:
        if not 0 <= part < q:
            raise ValueError("aggregate parts must be canonical scalars")
        total = (total + part) % q
    return total


def _epoch_seed(domain: int, key: int, epoch: int) -> bytes:
    """The public seed (``DOM_MESSAGE``) or nonce seed (``DOM_CHAIN``) of an epoch."""
    return domain_hash(domain, encode_scalar(key) + encode_index(epoch))


def _nonce_sum(key: int, epoch: int, batch_size: int, q: int) -> int:
    """r_j, the sum of an epoch's item nonces: L + 1 hashes."""
    return sum(_item_nonces(_epoch_seed(DOM_CHAIN, key, epoch), batch_size, q)) % q


def _item_seeds(public_seed: bytes, count: int) -> list[bytes]:
    return prefixed_hashes(DOM_MESSAGE, public_seed, label_table(count))


def _item_nonces(nonce_seed: bytes, count: int, q: int) -> list[int]:
    return prefixed_scalars(DOM_CHAIN, nonce_seed, label_table(count), q)


def _item_challenges(messages: Sequence[bytes], item_seeds: Sequence[bytes], q: int) -> list[int]:
    tails = (message + item_seed for message, item_seed in zip(messages, item_seeds))
    return prefixed_scalars(DOM_COMMIT, b"", tails, q)


def sign_batch(state: LaSignerState, messages: Sequence[bytes]) -> LaSignature:
    """Produce the aggregate tag for one full batch and bump the counter."""
    params = state.params
    if state.exhausted:
        raise EpochExhausted(f"all {params.max_batches} batches signed")
    if len(messages) != params.batch_size:
        raise ValueError(f"batch must contain exactly {params.batch_size} messages")
    q, key = params.group.q, state.key
    # the hash states of the nonce seed live in this call only
    public_seed = _epoch_seed(DOM_MESSAGE, key, state.epoch)
    nonces = _item_nonces(_epoch_seed(DOM_CHAIN, key, state.epoch), len(messages), q)
    challenges = _item_challenges(messages, _item_seeds(public_seed, len(messages)), q)
    # the sum of the responses s_l = r_l - e_l * y, without forming them
    agg = (sum(nonces) - key * sum(challenges)) % q
    signature = LaSignature(state.signer_id, state.epoch, agg, public_seed)
    state.epoch += 1
    return signature


def commitment_from_key(
    key: int,
    signer_id: bytes,
    epoch: int,
    batch_size: int,
    group: PrimeOrderGroup,
) -> LaCommitment:
    """Aggregate nonce commitment derived straight from the private scalar:
    L + 1 hashes (the nonce seed, then one per item) and one fixed-base
    exponentiation."""
    if batch_size < 1:
        raise ValueError("batch size must be >= 1")
    total = _nonce_sum(key, epoch, batch_size, group.q)
    r_bytes = group.encode_element(group.exp(group.generator, total))
    return LaCommitment(signer_id, epoch, batch_size, r_bytes)


def construct_commitment(material: LaKeyMaterial, signer_id: bytes, epoch: int) -> LaCommitment:
    """Rebuild the aggregate nonce commitment exactly as the signer would,
    at the registered batch size: the private scalar, then what
    ``commitment_from_key`` costs."""
    params = material.params
    key = _checked_key(material, signer_id, epoch, epoch)
    return commitment_from_key(key, signer_id, epoch, params.batch_size, params.group)


def check_epochs(material: LaKeyMaterial, signer_id: bytes, low: int, high: int) -> None:
    """``UnknownSigner`` for an id the material does not hold, then
    ``EpochOutOfRange`` unless 1 <= low <= high <= the batch count."""
    if signer_id not in material.signer_ids:
        raise UnknownSigner(f"signer {signer_id.hex()} not provisioned")
    if not 1 <= low <= high <= material.params.max_batches:
        raise EpochOutOfRange(f"epochs [{low}, {high}] outside [1, {material.params.max_batches}]")


def _checked_key(material: LaKeyMaterial, signer_id: bytes, low: int, high: int) -> int:
    """The signer's private scalar, once ``check_epochs`` passes: no work before."""
    check_epochs(material, signer_id, low, high)
    return private_scalar(material.msk, signer_id, material.params.group)


def combined_commitment(
    material: LaKeyMaterial, signer_id: bytes, seed: bytes, agg: int, epochs: Sequence[int]
) -> bytes:
    """The encoding of alpha^(sum z_i * r_i - agg) for the weights z_i of
    ``seed``, r_i the nonce sum of ``epochs[i]`` at the registered batch
    size, and ``agg`` the verifier's weighted response sum.  Epochs may
    repeat; each distinct one costs L + 1 hashes, the weights one each,
    the private scalar one, and the whole one fixed-base
    exponentiation.  ``agg`` (ValueError unless below q), the id and
    every epoch are checked first."""
    if not epochs:
        raise ValueError("a combination needs at least one epoch")
    params = material.params
    group, q = params.group, params.group.q
    if not 0 <= agg < q:
        raise ValueError("weighted response sum not canonical (>= group order)")
    key = _checked_key(material, signer_id, min(epochs), max(epochs))
    sums = {epoch: _nonce_sum(key, epoch, params.batch_size, q) for epoch in dict.fromkeys(epochs)}
    weights = combination_weights(seed, len(epochs))
    total = sum(z * sums[epoch] for z, epoch in zip(weights, epochs)) - agg
    return group.encode_element(group.exp(group.generator, total % q))


def combinable(group: PrimeOrderGroup) -> bool:
    """Whether a combined check is sound in ``group``: only when q exceeds
    every weight, so that no weight vanishes mod q and a bad batch slips
    through with probability about 2^-128, not about 1/q."""
    return group.q >> (8 * WEIGHT_LEN) > 0


def combination_seed(signer_id: bytes, batches: Sequence[tuple[int, int, int]]) -> bytes:
    """The seed c of a combined check: one hash of the id and each
    batch's (epoch, challenge sum, response sum), in order."""
    parts = [signer_id]
    for epoch, challenge, agg in batches:
        parts += (encode_index(epoch), encode_scalar(challenge), encode_scalar(agg))
    return domain_hash(DOM_COMMIT, b"".join(parts))


def weighted_sums(seed: bytes, batches: Sequence[tuple[int, int, int]], q: int) -> tuple[int, int]:
    """(sum z_i * e_i, sum z_i * s_i) mod q for the (epoch, challenge sum
    e_i, response sum s_i) of each batch and the weights z_i of
    ``seed``: one hash per batch."""
    weights = combination_weights(seed, len(batches))
    challenge = sum(z * e for z, (_, e, _) in zip(weights, batches)) % q
    agg = sum(z * s for z, (_, _, s) in zip(weights, batches)) % q
    return challenge, agg


def combined_value(key_table, challenge: int, group: PrimeOrderGroup) -> bytes:
    """The encoding of Y^challenge for the weighted challenge sum of
    ``weighted_sums``: one walk of Y's table, no generator comb.  It
    equals ``combined_commitment`` of the same seed, epochs and weighted
    response sum when every batch is valid."""
    return group.encode_element(group.exp_table(key_table, challenge))


class KeyTables(dict):
    """Signer id -> the table of its public key, for one verification run.

    The tables read from the bundle's key table file
    (``keyfiles.load_key_tables``, built once at keygen or by ``hases
    tables``) are stored with ``update``; a signer's lookup returns its
    stored table as it stands.
    Any other key stays encoded until its signer's first lookup, which
    decodes it, checks that it lies in the prime-order subgroup and
    builds its table (``group.precompute``).  A key that fails raises
    ValueError on that lookup and on every later one, without being
    checked again.  Hold one instance per verification run and drop it
    with the run.
    """

    def __init__(self, public_keys: dict[bytes, bytes], group: PrimeOrderGroup):
        super().__init__()
        self._public_keys = public_keys
        self._group = group
        self._rejected: dict[bytes, str] = {}

    def __missing__(self, signer_id: bytes):
        # a rejected key is remembered, so it costs one precompute per run
        reason = self._rejected.get(signer_id)
        if reason is None:
            try:
                table = self[signer_id] = self._group.precompute(self._public_keys[signer_id])
                return table
            except ValueError as exc:
                reason = self._rejected[signer_id] = str(exc)
        raise ValueError(reason)


def challenge_sum(messages: Sequence[bytes], signature: LaSignature, q: int) -> int:
    """The sum of the batch's challenges under the tag's public seed: 2L hashes."""
    return sum(_item_challenges(messages, _item_seeds(signature.seed, len(messages)), q)) % q


def verify_batch(
    key_table,
    commitment: LaCommitment,
    messages: Sequence[bytes],
    signature: LaSignature,
    group: PrimeOrderGroup,
    challenge: int | None = None,
) -> bool:
    """Check R == Y^(sum e) * alpha^(sum s) over the full batch.

    ``key_table`` is ``group.precompute`` of the signer's encoded public
    key Y (see ``KeyTables``).  ``challenge`` is ``challenge_sum(messages,
    signature, group.q)`` when the caller has it already; it is trusted to
    be.  Structural mismatches (identity/epoch disagreement, wrong batch
    length) reject before any group work.

    The check compares R's encoding with that of Y^(sum e) * alpha^(sum s),
    so R is never decoded.  Canonical encodings are equal only for equal
    elements, and the right side always lies in the prime-order
    subgroup, so a non-canonical, off-curve or torsion-shifted R fails.
    """
    if signature.signer_id != commitment.signer_id or signature.epoch != commitment.epoch:
        return False
    if len(messages) != commitment.batch_size:
        return False
    if not 0 <= signature.agg < group.q:
        return False
    if challenge is None:
        challenge = challenge_sum(messages, signature, group.q)
    expected = group.exp2(key_table, challenge, signature.agg)
    return commitment.r_bytes == group.encode_element(expected)
