"""The bytes of every file and wire format are pinned.

Each test builds deterministic blobs of every serialized type (seeded
key ceremonies on one group backend) and compares a SHA-256 over all of
them with a digest recorded in this file.  A refactor must leave the
digest alone; a change of format on purpose updates it and says so.
The blobs are also parsed and serialized again, so the readers are
pinned along with the writers.
"""

import hashlib
import random
import struct

import pytest

from hases import cco, hy, keyfiles, la, pq
from hases.group import production_group, small_test_group

IDS = (bytes([0x11]) * 16, bytes([0x22]) * 16)
UNKNOWN_ID = bytes([0x33]) * 16
PQ_PARAMS = pq.PqParams(t=64, k=8, j1=2, j2=4)  # J = 8 epochs
BATCH = 3
MESSAGES = [b"first record", b"second record", b"third record"]
# the request type of the hybrid opening that the service once served; now
# unassigned, so its requests stay below with malformed replies
HY_OPENING = 0x06
# the request type of the batch export, likewise once served and now
# unassigned; one of its requests stays below with its malformed reply
EXPORT = 0x04

DIGESTS = {
    "production": "7f68ee9acd651dad7a9cf58e442c002adb5a064238df3eb295c158e5d756a15b",
    "tiny": "cb5018ea8a7ff93f5632d99f6f2852675b97f9ea79d799e17b710b857892e2c3",
}


# the combined nonce commitment request (0x08) and its replies, pinned apart
# so that adding it, and later adding the weighted response sum to its
# request, left the digests above as they were
COMBINED_DIGESTS = {
    "production": "d55541fbdd6e2e010f32af35d2275809f3ac632d0be1d1da64c53131280d0b2a",
    "tiny": "6ff639679ee26235d8e2836bae81fc56381a439f7296db4c8478727005cf55fb",
}


# 0x05 requests over runs of several epochs and their replies, pinned apart
# so that adding them left the digests above as they were; the two are
# equal, as no pq byte depends on the group
RUN_DIGESTS = {
    "production": "5374dcf92237cd7729a12e216fbb6b4b63bd3f7644beb348b5bb0eba5332599b",
    "tiny": "5374dcf92237cd7729a12e216fbb6b4b63bd3f7644beb348b5bb0eba5332599b",
}


def fixed_rng(seed: int):
    rng = random.Random(seed)
    return lambda n: rng.randbytes(n)


def commitment_request(msg_type, signer_id, epoch, tail=b""):
    return bytes((msg_type,)) + signer_id + epoch.to_bytes(8, "big") + tail


def opening_request(msg_type, signer_id, epoch, indices):
    return commitment_request(msg_type, signer_id, epoch, struct.pack(f">{len(indices)}I", *indices))


def key_blobs(label, states, sign):
    """Each signer's key file before and after signing one unit, read back."""
    for n, signer_id in enumerate(IDS):
        state = states[signer_id]
        for step in ("fresh", "signed"):
            blob = keyfiles.signer_key_bytes(state)
            yield f"{label}.key.{n}.{step}", blob
            yield f"{label}.key.{n}.{step}.read", keyfiles.signer_key_bytes(
                keyfiles.signer_key_from_bytes(blob)
            )
            yield f"{label}.signature.{n}.{step}", sign(state)


def request_blobs(label, store, payloads):
    """Each payload's response, cold and then repeated (from the cache)."""
    for n, payload in enumerate(payloads):
        yield f"{label}.request.{n}", payload
        yield f"{label}.response.{n}.cold", store.handle_request(payload)
        yield f"{label}.response.{n}.repeated", store.handle_request(payload)


def store_blobs(label, store):
    blob = keyfiles.store_bytes(store)
    yield f"{label}.store", blob
    yield f"{label}.store.read", keyfiles.store_bytes(keyfiles.store_from_bytes(blob))


def bundle_blobs(label, bundle):
    blob = bundle.to_bytes()
    yield f"{label}.bundle", blob
    yield f"{label}.bundle.read", keyfiles.VerifierBundle.from_bytes(blob).to_bytes()


def malformed_requests(signer_id, indices):
    return [
        b"",
        bytes((0x07,)) + signer_id + bytes(8),
        commitment_request(cco.MSG_PQ, signer_id, 1, b"\x00"),
        # an aggregate request with the L(4) field it once carried, registered or not
        commitment_request(cco.MSG_LA, signer_id, 1, BATCH.to_bytes(4, "big")),
        commitment_request(cco.MSG_LA, signer_id, 1, (BATCH + 1).to_bytes(4, "big")),
        opening_request(cco.MSG_PQ_OPENING, signer_id, 1, indices[:-1]),
        opening_request(HY_OPENING, signer_id, 1, list(indices[:-1]) + [PQ_PARAMS.t]),
    ]


def pq_blobs():
    states, material = pq.keygen(IDS, PQ_PARAMS, fixed_rng(1))
    yield from key_blobs("pq", states, lambda state: pq.sign(state, MESSAGES[0]).to_bytes())
    yield from bundle_blobs(
        "pq", keyfiles.VerifierBundle(pq.SIGNATURE_TAG, PQ_PARAMS, None, dict.fromkeys(IDS))
    )
    store = cco.CcoStore(material)
    yield from store_blobs("pq", store)
    indices = pq.message_indices(MESSAGES[0], PQ_PARAMS)
    commitment = store.pq_commitment(IDS[0], 2)
    yield "pq.commitment", commitment.to_bytes()
    yield "pq.commitment.read", pq.PqCommitment.from_bytes(commitment.to_bytes()).to_bytes()
    opening = commitment.open(indices, PQ_PARAMS)
    yield "pq.opening.read", pq.PqOpening.from_bytes(opening.to_bytes()).to_bytes()
    signature = pq.sign(states[IDS[1]], MESSAGES[1])
    yield "pq.signature.read", pq.PqSignature.from_bytes(signature.to_bytes()).to_bytes()
    yield from request_blobs("pq", store, [
        commitment_request(cco.MSG_PQ, IDS[0], 1),
        commitment_request(cco.MSG_PQ, IDS[1], 8),
        opening_request(cco.MSG_PQ_OPENING, IDS[0], 3, indices),
        bytes((EXPORT, cco.MSG_PQ)) + IDS[1] + struct.pack(">QQ", 2, 5),
        # no aggregate material: unknown id
        commitment_request(cco.MSG_LA, IDS[0], 1),
        commitment_request(cco.MSG_HY, IDS[0], 1),
        # unknown id and epochs out of range
        commitment_request(cco.MSG_PQ, UNKNOWN_ID, 1),
        opening_request(cco.MSG_PQ_OPENING, UNKNOWN_ID, 1, indices),
        commitment_request(cco.MSG_PQ, IDS[0], 0),
        commitment_request(cco.MSG_PQ, IDS[0], 9),
        *malformed_requests(IDS[0], indices),
    ])


def la_blobs(group):
    states, public, material = la.keygen(IDS, group, 8, BATCH, fixed_rng(2))
    yield from key_blobs("la", states, lambda state: la.sign_batch(state, MESSAGES).to_bytes())
    yield from bundle_blobs(
        "la", keyfiles.VerifierBundle(la.SIGNATURE_TAG, None, material.params, public)
    )
    store = cco.CcoStore(material)
    yield from store_blobs("la", store)
    commitment = store.la_commitment(IDS[1], 4)
    yield "la.commitment", commitment.to_bytes()
    yield "la.commitment.read", la.LaCommitment.from_bytes(commitment.to_bytes()).to_bytes()
    signature = la.sign_batch(states[IDS[0]], MESSAGES[::-1])
    yield "la.signature.read", la.LaSignature.from_bytes(signature.to_bytes(), group).to_bytes()
    yield from request_blobs("la", store, [
        commitment_request(cco.MSG_LA, IDS[0], 1),
        commitment_request(cco.MSG_LA, IDS[1], 8),
        # no forward-secure material: unknown id
        commitment_request(cco.MSG_PQ, IDS[0], 1),
        commitment_request(cco.MSG_HY, IDS[0], 1),
        commitment_request(cco.MSG_LA, UNKNOWN_ID, 1),
        commitment_request(cco.MSG_LA, IDS[0], 0),
        commitment_request(cco.MSG_LA, IDS[0], 9),
    ])


def hy_blobs(group):
    states, public, material = hy.keygen(IDS, group, BATCH, PQ_PARAMS, fixed_rng(3))
    yield from key_blobs("hy", states, lambda state: hy.sign_batch(state, MESSAGES).to_bytes())
    yield from bundle_blobs(
        "hy", keyfiles.VerifierBundle(hy.SIGNATURE_TAG, PQ_PARAMS, material.la.params, public)
    )
    store = cco.CcoStore(material)
    yield from store_blobs("hy", store)
    signature = hy.sign_batch(states[IDS[1]], MESSAGES[1:] + MESSAGES[:1])
    yield "hy.signature.read", hy.HySignature.from_bytes(signature.to_bytes(), group).to_bytes()
    indices = hy.opened(MESSAGES[1:] + MESSAGES[:1], signature, PQ_PARAMS).indices
    commitment = store.hy_commitment(IDS[1], 3)
    yield "hy.commitment", commitment.to_bytes()
    yield "hy.commitment.read", hy.HyCommitment.from_bytes(commitment.to_bytes()).to_bytes()
    # what a verifier checks a hy unit against: the aggregate commitment and
    # the opening of the pq commitment
    la_part, pq_part = commitment.la.to_bytes(), commitment.pq.open(indices, PQ_PARAMS).to_bytes()
    yield "hy.opening", la_part + pq_part
    yield "hy.opening.read", (la.LaCommitment.from_bytes(la_part).to_bytes()
                              + pq.PqOpening.from_bytes(pq_part).to_bytes())
    yield from request_blobs("hy", store, [
        commitment_request(cco.MSG_PQ, IDS[0], 2),
        commitment_request(cco.MSG_LA, IDS[0], 2),
        commitment_request(cco.MSG_HY, IDS[0], 2),
        commitment_request(cco.MSG_HY, IDS[1], 8),
        opening_request(cco.MSG_PQ_OPENING, IDS[1], 3, indices),
        opening_request(HY_OPENING, IDS[1], 3, indices),
        opening_request(HY_OPENING, IDS[0], 5, indices[::-1]),
        commitment_request(cco.MSG_HY, UNKNOWN_ID, 1),
        opening_request(HY_OPENING, UNKNOWN_ID, 1, indices),
        commitment_request(cco.MSG_HY, IDS[0], 0),
        opening_request(HY_OPENING, IDS[0], 9, indices),
        *malformed_requests(IDS[1], indices),
    ])


def digest(group) -> str:
    hasher = hashlib.sha256()
    for label, blob in [*pq_blobs(), *la_blobs(group), *hy_blobs(group)]:
        for part in (label.encode(), blob):
            hasher.update(len(part).to_bytes(4, "big") + part)
    return hasher.hexdigest()


@pytest.mark.parametrize("backend", sorted(DIGESTS))
def test_serialized_bytes_are_pinned(backend):
    group = production_group() if backend == "production" else small_test_group()
    assert digest(group) == DIGESTS[backend]


def combined_request(signer_id, seed, agg, epochs):
    return (bytes((0x08,)) + signer_id + seed + agg.to_bytes(32, "big")
            + struct.pack(f">{len(epochs)}Q", *epochs))


def combined_blobs(group):
    """0x08 requests and replies on the la, hy and pq stores of the key
    ceremonies above."""
    seed = hashlib.sha256(b"combination seed").digest()
    agg = int.from_bytes(hashlib.sha256(b"weighted response sum").digest(), "big") % group.q
    _, _, la_material = la.keygen(IDS, group, 8, BATCH, fixed_rng(2))
    _, _, hy_material = hy.keygen(IDS, group, BATCH, PQ_PARAMS, fixed_rng(3))
    _, pq_material = pq.keygen(IDS, PQ_PARAMS, fixed_rng(1))
    for label, material in (("la", la_material), ("hy", hy_material), ("pq", pq_material)):
        store = cco.CcoStore(material)
        yield from request_blobs(f"{label}.combined", store, [
            combined_request(IDS[0], seed, agg, [1]),
            combined_request(IDS[1], seed, agg, [2, 8, 2, 5]),
            combined_request(IDS[0], seed, agg, [8] * 64),
            combined_request(IDS[0], seed, 0, [3]),
            combined_request(IDS[0], seed, group.q - 1, [3]),
            combined_request(UNKNOWN_ID, seed, agg, [1]),
            combined_request(IDS[0], seed, agg, [1, 9]),
            combined_request(IDS[0], seed, agg, [0]),
            combined_request(IDS[0], seed, group.q, [1]),
            combined_request(IDS[0], seed, agg, []),
            combined_request(IDS[0], seed, agg, [1] * 65),
            combined_request(IDS[0], seed[:31], agg, [1]),
        ])


@pytest.mark.parametrize("backend", sorted(COMBINED_DIGESTS))
def test_combined_request_bytes_are_pinned(backend):
    group = production_group() if backend == "production" else small_test_group()
    hasher = hashlib.sha256()
    for label, blob in combined_blobs(group):
        for part in (label.encode(), blob):
            hasher.update(len(part).to_bytes(4, "big") + part)
    assert hasher.hexdigest() == COMBINED_DIGESTS[backend]


def run_indices(epochs):
    """k indices for each of ``epochs`` consecutive epochs, those of a
    fixed message per epoch."""
    return [x for n in range(epochs) for x in pq.message_indices(b"run %d" % n, PQ_PARAMS)]


def run_blobs(group):
    """0x05 requests over runs of epochs and their replies on the pq and hy
    stores of the key ceremonies above."""
    _, pq_material = pq.keygen(IDS, PQ_PARAMS, fixed_rng(1))
    _, _, hy_material = hy.keygen(IDS, group, BATCH, PQ_PARAMS, fixed_rng(3))
    for label, material in (("pq", pq_material), ("hy", hy_material)):
        store = cco.CcoStore(material)
        yield from request_blobs(f"{label}.run", store, [
            # epochs 3-6, across the anchor at epoch 5
            opening_request(cco.MSG_PQ_OPENING, IDS[0], 3, run_indices(4)),
            # every epoch: 64 indices
            opening_request(cco.MSG_PQ_OPENING, IDS[1], 1, run_indices(PQ_PARAMS.epochs)),
            opening_request(cco.MSG_PQ_OPENING, IDS[0], 5, run_indices(2)[::-1]),
            # refused: a run that ends past J, an index count that is not a
            # multiple of k, an unknown id, an index of t in a later epoch
            opening_request(cco.MSG_PQ_OPENING, IDS[0], 6, run_indices(4)),
            opening_request(cco.MSG_PQ_OPENING, IDS[0], 2, run_indices(2)[:-3]),
            opening_request(cco.MSG_PQ_OPENING, UNKNOWN_ID, 1, run_indices(3)),
            opening_request(cco.MSG_PQ_OPENING, IDS[1], 2,
                            run_indices(2)[:-1] + [PQ_PARAMS.t]),
        ])


@pytest.mark.parametrize("backend", sorted(RUN_DIGESTS))
def test_run_request_bytes_are_pinned(backend):
    group = production_group() if backend == "production" else small_test_group()
    hasher = hashlib.sha256()
    for label, blob in run_blobs(group):
        for part in (label.encode(), blob):
            hasher.update(len(part).to_bytes(4, "big") + part)
    assert hasher.hexdigest() == RUN_DIGESTS[backend]
