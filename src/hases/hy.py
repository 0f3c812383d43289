"""Hybrid signing: aggregate tag wrapped by a forward-secure signature.

Each batch is first folded into an order-binding nested digest vector

    n_1 = H0(m_1)
    n_l = H0(m_l || H0(n_(l-1)))   for l >= 2

whose last element is a holistic digest of the whole batch.  The
aggregate layer signs the digest vector (not the raw messages); the
forward-secure layer then signs the 64-byte string

    s_agg (32 bytes big-endian) || n_last

binding the aggregate response to the batch content.  A hybrid tag
verifies only if both component checks pass, so it stays unforgeable
while either layer does.  Permuting the batch changes the nested
vector, so item order is enforced even though scalar aggregation
itself is commutative.

The two signer states live in one wrapper and advance in lockstep;
an epoch mismatch fails hard before any signing.

The byte formats nest the same way.  A hybrid signature, commitment or
key file is its own tag, then the aggregate blob without its tag, then
the forward-secure blob after the id and epoch the two share (a key
file shares only the id: each layer keeps its own epoch).
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, NamedTuple, Sequence

from . import la, pq
from .errors import EpochDesync
from .group import PrimeOrderGroup, encode_scalar
from .hashing import nested_digests
from .records import CheckedTuple, SlotRecord

SIGNATURE_TAG = 0x03
COMMITMENT_TAG = 0x13
KEY_FILE_SHARED = 1 + 16  # tag || shared id: each layer keeps its own epoch


def _join(tag: int, la_blob: bytes, pq_blob: bytes, shared: int = pq.HEADER_LEN) -> bytes:
    """``tag``, the la blob after its tag, the pq blob after its first
    ``shared`` bytes (its tag, and the id and epoch the la blob holds)."""
    return bytes((tag,)) + la_blob[1:] + pq_blob[shared:]


def _split(
    data: bytes, tag: int, what: str, la_tag: int, la_len: int, pq_tag: int,
    shared: int = pq.HEADER_LEN,
) -> tuple[bytes, bytes]:
    """The la blob (``la_len`` bytes) and the pq blob that ``_join`` nested."""
    if not data or data[0] != tag:
        raise ValueError(f"not a serialized hybrid {what}")
    return bytes((la_tag,)) + data[1:la_len], bytes((pq_tag,)) + data[1:shared] + data[la_len:]


def nest(messages: Sequence[bytes]) -> list[bytes]:
    """Nested digest vector of a batch; the last entry binds the whole.
    2L - 1 H0 calls, made by one ``nested_digests`` call."""
    if not messages:
        raise ValueError("cannot nest an empty batch")
    return nested_digests(messages)


def inner_message(agg: int, last_digest: bytes) -> bytes:
    """The 64-byte string the forward-secure layer signs."""
    return encode_scalar(agg) + last_digest


class HySignerState(SlotRecord):
    """Lockstep pair of component signer states."""

    __slots__ = ("la", "pq")

    def __init__(self, la: la.LaSignerState, pq: pq.PqSignerState):
        if la.signer_id != pq.signer_id:
            raise ValueError("component states belong to different signers")
        self.la = la
        self.pq = pq

    def check_lockstep(self) -> None:
        if self.la.epoch != self.pq.epoch:
            raise EpochDesync(
                f"component epochs diverged: {self.la.epoch} vs {self.pq.epoch}"
            )

    @property
    def epoch(self) -> int:
        self.check_lockstep()
        return self.la.epoch

    def to_bytes(self) -> bytes:
        """The key file, nested from the la and pq key files."""
        return _join(SIGNATURE_TAG, self.la.to_bytes(), self.pq.to_bytes(), KEY_FILE_SHARED)

    @classmethod
    def from_bytes(cls, data: bytes) -> "HySignerState":
        la_blob, pq_blob = _split(data, SIGNATURE_TAG, "key file", la.SIGNATURE_TAG,
                                  la.KEY_FILE_LEN, pq.SIGNATURE_TAG, KEY_FILE_SHARED)
        return cls(la.LaSignerState.from_bytes(la_blob), pq.PqSignerState.from_bytes(pq_blob))


def _check_pair(pair, what: str) -> None:
    if pair.la.signer_id != pair.pq.signer_id or pair.la.epoch != pair.pq.epoch:
        raise ValueError(f"component {what} disagree on signer or epoch")


class _HySignature(NamedTuple):
    la: la.LaSignature
    pq: pq.PqSignature


class HySignature(CheckedTuple, _HySignature):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "HySignature":
        self = super().__new__(cls, *args, **kwargs)
        _check_pair(self, "signatures")
        return self

    @property
    def signer_id(self) -> bytes:
        return self.la.signer_id

    def to_bytes(self) -> bytes:
        return _join(SIGNATURE_TAG, self.la.to_bytes(), self.pq.to_bytes())

    @classmethod
    def from_bytes(cls, data: bytes, group: PrimeOrderGroup) -> "HySignature":
        la_blob, pq_blob = _split(data, SIGNATURE_TAG, "signature", la.SIGNATURE_TAG,
                                  la.SIGNATURE_LEN, pq.SIGNATURE_TAG)
        return cls(la.LaSignature.from_bytes(la_blob, group), pq.PqSignature.from_bytes(pq_blob))


class _HyCommitment(NamedTuple):
    la: la.LaCommitment
    pq: pq.PqCommitment


class HyCommitment(CheckedTuple, _HyCommitment):
    """The aggregate commitment (R as its 32-byte encoding, never decoded
    by a verifier; see ``la.LaCommitment``) beside the pq commitment."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "HyCommitment":
        self = super().__new__(cls, *args, **kwargs)
        _check_pair(self, "commitments")
        return self

    def to_bytes(self) -> bytes:
        return _join(COMMITMENT_TAG, self.la.to_bytes(), self.pq.to_bytes())

    @classmethod
    def from_bytes(cls, data: bytes) -> "HyCommitment":
        la_blob, pq_blob = _split(data, COMMITMENT_TAG, "commitment", la.COMMITMENT_TAG,
                                  la.COMMITMENT_LEN, pq.COMMITMENT_TAG)
        return cls(la.LaCommitment.from_bytes(la_blob), pq.PqCommitment.from_bytes(pq_blob))


class HyKeyMaterial(NamedTuple):
    la: la.LaKeyMaterial
    pq: pq.PqKeyMaterial


def keygen(
    ids: Iterable[bytes],
    group: PrimeOrderGroup,
    batch_size: int,
    pq_params: pq.PqParams,
    rng: Callable[[int], bytes] = os.urandom,  # what secrets.token_bytes returns
) -> tuple[dict[bytes, HySignerState], dict[bytes, bytes], HyKeyMaterial]:
    """Run both component key ceremonies over the same identity list.

    The aggregate layer is sized for the same number of epochs as the
    forward-secure chain, so the pair can advance in lockstep for the
    whole key lifetime.
    """
    id_list = list(ids)
    la_states, public, la_material = la.keygen(
        id_list, group, pq_params.epochs, batch_size, rng
    )
    pq_states, pq_material = pq.keygen(id_list, pq_params, rng)
    states = {
        sid: HySignerState(la_states[sid], pq_states[sid]) for sid in la_states
    }
    return states, public, HyKeyMaterial(la_material, pq_material)


def sign_batch(state: HySignerState, messages: Sequence[bytes]) -> HySignature:
    """Aggregate-sign the nested digests, then wrap with the FS layer."""
    state.check_lockstep()  # hard failure before any signing
    digests = nest(messages)
    la_sig = la.sign_batch(state.la, digests)
    pq_sig = pq.sign(state.pq, inner_message(la_sig.agg, digests[-1]))
    return HySignature(la_sig, pq_sig)


class Opened(NamedTuple):
    """What checking a batch derives before its commitment is needed."""

    nested: list[bytes]  # ``nest`` of the batch
    indices: tuple[int, ...]  # the pq commitment entries the signature opens


def opened(messages: Sequence[bytes], signature: HySignature, pq_params: pq.PqParams) -> Opened:
    """The nested vector of ``messages`` and the pq indices ``signature``
    opens over it."""
    nested = nest(messages)
    inner = inner_message(signature.la.agg, nested[-1])
    return Opened(nested, pq.message_indices(inner, pq_params))


def verify_batch(
    key_table,
    commitment: HyCommitment,
    messages: Sequence[bytes],
    signature: HySignature,
    group: PrimeOrderGroup,
    pq_params: pq.PqParams,
) -> bool:
    """Both component checks must pass on the recomputed nested vector.

    ``key_table`` is ``group.precompute`` of the signer's public key, as
    for ``la.verify_batch``.  This is the reference check: ``hases
    verify`` runs its two layers apart (``hases.schemes.Layers``).
    """
    if (
        signature.la.signer_id != commitment.la.signer_id
        or signature.la.epoch != commitment.la.epoch
    ):
        return False
    if not messages:
        return False
    digests, indices = opened(messages, signature, pq_params)
    ok_la = la.verify_batch(key_table, commitment.la, digests, signature.la, group)
    ok_pq = pq.verify(
        commitment.pq,
        inner_message(signature.la.agg, digests[-1]),
        signature.pq,
        pq_params,
        indices,
    )
    return ok_la and ok_pq
