"""The check loop of ``hases verify``, one path for both commitment sources.

``verify_all`` parses every signature and derives what each check needs
before the first commitment is asked for, then checks each unit layer
by layer as ``CommitmentSource.layer_parts`` yields its parts: from a
pipelined connection to the service (``--cco``), or from an offline
export (``--commits``).  Only ``hases verify`` imports this module.
"""

from __future__ import annotations

from typing import Iterator

from . import cco, keyfiles, la, pq, schemes
from .hashing import read_header


class CommitmentSource:
    """Where each unit's commitment parts come from: a pipelined
    connection to the service at ``address`` (host, port), or the
    offline export file ``commits``."""

    def __init__(self, bundle: keyfiles.VerifierBundle, address: tuple[str, int] | None = None,
                 commits: str | None = None):
        self.scheme = scheme = schemes.by_tag(bundle.scheme)
        self.bundle = bundle
        self.client = None
        self.offline: dict[tuple[bytes, int], bytes] = {}
        if address:
            from .transport import CcoClient  # the one verify path that opens a socket

            self.client = CcoClient(*address)
        elif commits:
            for blob in keyfiles.load_commitments(commits):
                # another scheme's entry for the same (id, epoch) must not
                # replace the one this bundle verifies against
                try:
                    self.offline[read_header(blob, scheme.commitment_tag, "commitment")] = blob
                except ValueError:
                    continue
        else:
            raise ValueError("either --cco or --commits is required")

    def close(self):
        if self.client:
            self.client.close()

    def layer_parts(self, layers: list[schemes.Layers], tables) -> Iterator[tuple]:
        """(position, aggregate commitment, pq opening) for each unit's
        ``Layers``: None for a layer the unit lacks, or whose part the
        service refused or the export lacks or holds malformed, and
        ``_PROVEN`` for an aggregate layer a combined check passed."""
        if self.client is None:
            return self._offline_parts(layers)
        return self._online_parts(layers, tables)

    def _offline_parts(self, layers: list[schemes.Layers]) -> Iterator[tuple]:
        """Each unit's parts, in order, from the export entry at its (id,
        epoch); the pq part is opened at the unit's indices."""
        commitment_parts, pq_params = self.scheme.commitment_parts, self.bundle.pq_params
        for n, unit in enumerate(layers):
            signature = (unit.la or unit.pq)[1]  # either layer's: both carry its id and epoch
            blob = self.offline.get((signature.signer_id, signature.epoch))
            la_part, pq_part = _parsed(commitment_parts, blob) or (None, None)
            opening = _parsed(pq.PqCommitment.open, pq_part, unit.pq[2], pq_params) if unit.pq else None
            yield n, la_part, opening

    def _online_parts(self, layers: list[schemes.Layers], tables) -> Iterator[tuple]:
        """Each unit's parts, as they arrive.

        One pipelined stream first asks for a combined nonce commitment
        per signer (per ``cco.MAX_COMBINED_EPOCHS`` of its units), then
        for the pq openings, one ``0x05`` per run of units (``_runs``); a
        unit is yielded as its run's opening arrives, so its check
        overlaps the service's next builds.  Only the aggregate layers no
        combined check passed are asked for again, each on its own
        (``0x02``), and yielded last."""
        client, group = self.client, self.bundle.la_params and self.bundle.la_params.group
        pq_params = self.bundle.pq_params
        combined = _combinations(layers, self.bundle) if group and la.combinable(group) else []
        runs = _runs(layers, pq_params) if pq_params else []
        payloads = [cco.combined_payload(sid, seed, [b[0] for b in batches])
                    for sid, seed, _, batches in combined]
        payloads += [cco.opening_payload(*_key(layers[run[0]].pq),
                                         [x for n in run for x in layers[n].pq[2]])
                     for run in runs]
        replies = client.ok_bodies(payloads)
        proven = set()
        for (sid, seed, positions, batches), reply in zip(combined, replies):
            try:
                if reply == la.combined_value(tables[sid], seed, batches, group):
                    proven.update(positions)
            except ValueError:
                pass  # a key outside the subgroup: each unit is rejected alone
        run_at = {run[0]: run for run in runs}
        openings = {}  # position -> opening, from the reply to its run
        alone = []
        for n, unit in enumerate(layers):
            if n in run_at:
                run = run_at[n]
                openings.update(zip(run, _run_openings(next(replies), len(run), pq_params.k)))
            opening = openings.pop(n, None)
            if unit.la and n not in proven:
                alone.append((n, opening))
            else:
                yield n, _PROVEN if unit.la else None, opening
        replies = client.ok_bodies([cco.commitment_payload(cco.MSG_LA, *_key(layers[n].la))
                                    for n, _ in alone])
        for (n, opening), blob in zip(alone, replies):
            yield n, _parsed(la.LaCommitment.from_bytes, blob), opening


# an aggregate layer that a combined check has passed
_PROVEN = object()


def _key(layer: tuple) -> tuple[bytes, int]:
    """The (id, epoch) of a unit's layer: its signature's."""
    signature = layer[1]
    return signature.signer_id, signature.epoch


def _parsed(parse, blob, *args):
    """``parse(blob, *args)``, or None if blob is None or ``parse`` raises
    ValueError (a malformed commitment is a cryptographic reject)."""
    try:
        return None if blob is None else parse(blob, *args)
    except ValueError:
        return None


def _runs(layers: list[schemes.Layers], params) -> list[list[int]]:
    """The positions of the units with a pq layer, cut into the runs one
    ``0x05`` each opens: units in order, of one signer, at consecutive
    epochs in [1, J], each with k indices, at most
    ``cco.MAX_OPENING_INDICES // k`` of them.  Any other unit, such as
    one whose epoch repeats the one before or lies outside [1, J], starts
    a run of its own."""
    longest = cco.MAX_OPENING_INDICES // params.k
    runs: list[list[int]] = []
    previous = None  # (id, epoch) of the last unit, if a run may go on from it
    for n, unit in enumerate(layers):
        if not unit.pq:
            continue
        signer_id, epoch = key = _key(unit.pq)
        fits = len(unit.pq[2]) == params.k and 1 <= epoch <= params.epochs
        if fits and previous == (signer_id, epoch - 1) and len(runs[-1]) < longest:
            runs[-1].append(n)
        else:
            runs.append([n])
        previous = key if fits else None
    return runs


def _run_openings(reply, units: int, k: int) -> list:
    """The opening of each of a run's ``units`` from the reply to its
    request, k indices per unit; None for each unit of a run the service
    refused or answered with a malformed reply, or one that does not
    hold one entry per index.  The store refuses a run only where it
    would refuse each of its single openings (an unknown id: ``_runs``
    sends no other run it refuses), so no unit is asked for again."""
    opening = _parsed(pq.PqOpening.from_bytes, reply)
    if opening is None or len(opening.body) != units * k * pq.DIGEST_LEN:
        return [None] * units
    return opening.per_epoch(k)


def _combinations(layers: list[schemes.Layers], bundle) -> list[tuple]:
    """(id, seed, unit positions, (epoch, challenge sum, response sum) per
    unit) of each combined check: a signer's units in order, at most
    ``cco.MAX_COMBINED_EPOCHS`` per check.  A unit of the wrong length or
    outside [1, J] is left out, to be checked alone."""
    params = bundle.la_params
    by_signer: dict[bytes, list[int]] = {}
    for n, unit in enumerate(layers):
        messages, signature, _ = unit.la
        if len(messages) == params.batch_size and 1 <= signature.epoch <= params.max_batches:
            by_signer.setdefault(signature.signer_id, []).append(n)
    combined = []
    for signer_id, units in by_signer.items():
        for start in range(0, len(units), cco.MAX_COMBINED_EPOCHS):
            positions = units[start : start + cco.MAX_COMBINED_EPOCHS]
            batches = [(layers[n].la[1].epoch, layers[n].la[2], layers[n].la[1].agg)
                       for n in positions]
            combined.append((signer_id, la.combination_seed(signer_id, batches), positions,
                             batches))
    return combined


def verify_all(bundle, records, blobs, source: CommitmentSource, tables_file=None) -> list[bool]:
    """Whether each signature in ``blobs`` is valid over ``records``,
    against the parts ``source`` supplies.  ``tables_file`` is the
    bundle's key table file, if it has one: the tables of the signers
    the run checks are read from it, and no key is checked again."""
    scheme = schemes.by_tag(bundle.scheme)
    messages = scheme.units(records, bundle)
    if len(messages) != len(blobs):
        raise ValueError(f"{len(blobs)} signatures for {len(messages)} signing units")

    # every signature is parsed before the first request, so the service
    # sees one pipelined stream; a unit that fails to parse or names a
    # signer outside the bundle is rejected without a request
    signatures = [_parse_signature(scheme, bundle, blob) for blob in blobs]
    units = [n for n, signature in enumerate(signatures) if signature is not None]
    # what each check derives before its commitment is needed, computed once
    layers = [scheme.layers(messages[n], signatures[n], bundle) for n in units]
    tables = None
    if bundle.la_params:
        signers = {unit.la[1].signer_id for unit in layers}
        loaded = keyfiles.load_key_tables(tables_file, bundle, signers) if tables_file else None
        tables = la.KeyTables(bundle.public_keys, bundle.la_params.group, loaded)
    results = [False] * len(blobs)
    for i, la_part, opening in source.layer_parts(layers, tables):
        try:
            results[units[i]] = _layers_valid(layers[i], la_part, opening, bundle, tables)
        except ValueError:
            pass  # a key outside the subgroup is a cryptographic reject
    return results


def _layers_valid(unit: schemes.Layers, la_commitment, opening, bundle, tables) -> bool:
    """Whether each layer of ``unit`` checks out against its part from
    ``CommitmentSource.layer_parts``, online or offline."""
    if unit.la and la_commitment is not _PROVEN:
        messages, signature, challenge = unit.la
        if la_commitment is None or not la.verify_batch(
            tables[signature.signer_id], la_commitment, messages, signature,
            bundle.la_params.group, challenge,
        ):
            return False
    if unit.pq:
        message, signature, indices = unit.pq
        return opening is not None and pq.verify(
            opening, message, signature, bundle.pq_params, indices)
    return True


def _parse_signature(scheme, bundle, blob):
    """The parsed signature, or None if it is malformed or its signer
    is not in the bundle (a cryptographic reject)."""
    try:
        signature = scheme.parse_signature(blob, bundle)
    except ValueError:
        return None
    return signature if signature.signer_id in bundle.public_keys else None
