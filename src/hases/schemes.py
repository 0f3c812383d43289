"""The three schemes, each defined once.

A ``Scheme`` descriptor holds what the CLI, the key files and the
commitment service need to tell the schemes apart: tags, the signer
state type (whose ``to_bytes``/``from_bytes`` are the key file), the key
material type, and the steps that sign a record stream and check one
signed unit.  ``PQ``, ``LA`` and ``HY`` are the only instances; HY nests
the other two, as in the paper, and so do its byte formats (``hases.hy``).

Each step calls into ``pq``, ``la``, ``hy`` and ``stream`` through the
module when it runs, never through a function object taken at import,
so a wrapper installed on a module later (as a tracer does) sees every
call.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, NamedTuple

from . import hy, la, pq, stream


class Layers(NamedTuple):
    """One signed unit's checks, layer by layer, as a verifier runs them
    against either commitment source: each is None where the scheme has
    no such layer."""

    la: tuple | None  # (messages, la.LaSignature, challenge sum) of the aggregate layer
    pq: tuple | None  # (message, pq.PqSignature, indices) of the forward-secure layer


class Scheme(NamedTuple):
    tag: int  # of signatures, key files and bundles; its commitment request type
    commitment_tag: int  # first byte of its serialized commitments
    has_pq: bool  # a forward-secure layer: its bundle holds ``pq.PqParams``
    has_la: bool  # an aggregate layer: its bundle holds ``la.LaParams`` and public keys
    state: type  # the signer state, serialized as the key file
    material: type  # the key store's share of the key ceremony
    parts: Callable  # material -> (its pq material or None, its la material or None)
    commitment_parts: Callable  # commitment blob -> (its la part or None, its pq part or None)
    keygen: Callable  # (ids, pq params, la params) -> (states, public keys, material)
    sign: Callable  # (state, records) -> one serialized signature per signed unit
    # The verifier's steps; ``bundle`` is the ``keyfiles.VerifierBundle``.
    units: Callable  # (records, bundle) -> the message of each signed unit, as it is asked for
    parse_signature: Callable  # (blob, bundle) -> signature; ValueError if malformed
    layers: Callable  # (message, signature, bundle) -> Layers


def _la_layer(messages, signature, bundle) -> tuple:
    """``Layers.la`` of an aggregate tag over ``messages``."""
    return messages, signature, la.challenge_sum(messages, signature, bundle.la_params.group.q)


def _hy_layers(messages, signature, bundle) -> Layers:
    """The two layers of ``hy.verify_batch``, each on its own."""
    nested, indices = hy.opened(messages, signature, bundle.pq_params)
    return Layers(_la_layer(nested, signature.la, bundle),
                  (hy.inner_message(signature.la.agg, nested[-1]), signature.pq, indices))


def _pq_keygen(ids, pq_params, la_params):
    states, material = pq.keygen(ids, pq_params)
    return states, dict.fromkeys(states), material


PQ = Scheme(
    tag=pq.SIGNATURE_TAG,
    commitment_tag=pq.COMMITMENT_TAG,
    has_pq=True,
    has_la=False,
    state=pq.PqSignerState,
    material=pq.PqKeyMaterial,
    parts=lambda material: (material, None),
    commitment_parts=lambda blob: (None, pq.PqCommitment.from_bytes(blob)),
    keygen=_pq_keygen,
    sign=lambda state, records: [pq.sign(state, r.payload).to_bytes() for r in records],
    units=lambda records, bundle: (r.payload for r in records),
    parse_signature=lambda blob, bundle: pq.PqSignature.from_bytes(blob),
    layers=lambda message, signature, bundle: Layers(
        None, (message, signature, pq.message_indices(message, bundle.pq_params))),
)

LA = Scheme(
    tag=la.SIGNATURE_TAG,
    commitment_tag=la.COMMITMENT_TAG,
    has_pq=False,
    has_la=True,
    state=la.LaSignerState,
    material=la.LaKeyMaterial,
    parts=lambda material: (None, material),
    commitment_parts=lambda blob: (la.LaCommitment.from_bytes(blob), None),
    keygen=lambda ids, pq_params, la_params: la.keygen(
        ids, la_params.group, la_params.max_batches, la_params.batch_size),
    sign=lambda state, records: [
        la.sign_batch(state, batch).to_bytes()
        for batch in stream.into_batches(records, state.params.batch_size)],
    units=lambda records, bundle: stream.batches(records, bundle.la_params.batch_size),
    parse_signature=lambda blob, bundle: la.LaSignature.from_bytes(blob, bundle.la_params.group),
    layers=lambda message, signature, bundle: Layers(_la_layer(message, signature, bundle), None),
)

HY = Scheme(
    tag=hy.SIGNATURE_TAG,
    commitment_tag=hy.COMMITMENT_TAG,
    has_pq=True,
    has_la=True,
    state=hy.HySignerState,
    material=hy.HyKeyMaterial,
    parts=lambda material: (material.pq, material.la),
    commitment_parts=lambda blob: attrgetter("la", "pq")(hy.HyCommitment.from_bytes(blob)),
    keygen=lambda ids, pq_params, la_params: hy.keygen(
        ids, la_params.group, la_params.batch_size, pq_params),
    sign=lambda state, records: [
        hy.sign_batch(state, batch).to_bytes()
        for batch in stream.into_batches(records, state.la.params.batch_size)],
    units=lambda records, bundle: stream.batches(records, bundle.la_params.batch_size),
    parse_signature=lambda blob, bundle: hy.HySignature.from_bytes(blob, bundle.la_params.group),
    layers=_hy_layers,
)

BY_TAG = {scheme.tag: scheme for scheme in (PQ, LA, HY)}
BY_NAME = {"pq": PQ, "la": LA, "hy": HY}  # as ``--scheme`` takes them


def by_tag(tag: int) -> Scheme:
    if tag not in BY_TAG:
        raise ValueError(f"unknown scheme tag {tag:#04x}")
    return BY_TAG[tag]


def of(obj) -> Scheme:
    """The scheme of a signer state or of key material."""
    for scheme in BY_TAG.values():
        if type(obj) in (scheme.state, scheme.material):
            return scheme
    raise TypeError(f"{type(obj).__name__} belongs to no scheme")
