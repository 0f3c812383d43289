"""The check loop of ``hases verify``: one windowed stream, for both
commitment sources and all three schemes.

``verify_all`` reads the records and the signatures as iterators and
derives each unit (its signature parsed, then what each layer's check
needs, ``schemes.Layers``) as the stream reaches it.  A unit whose
signature fails to parse or names a signer outside the bundle is
rejected without a request.  ``CommitmentSource.layer_parts`` then
supplies each unit's commitment parts, and one loop checks each unit,
of any scheme, layer by layer, and drops it.  What the stream holds
stays bounded whatever its length; only the per-unit results grow, one
list slot per unit.

The pq layers, of ``pq`` and ``hy`` units alike, are checked a run at a
time: a run is the units one ``0x05`` opens (``_runs``), at most
``cco.MAX_OPENING_INDICES // k`` of one signer at consecutive epochs.
When a run closes, its messages are hashed by one ``prefixed_hashes``
call and every unit's k indices cut with one look-up of the signing
table (``pq.run_indices``); the indices, joined, are the run's request.
Its reply is parsed once, cut into each unit's opening
(``pq.PqOpening.per_epoch``), and each unit is checked by its own
``pq.verify`` call against its opening and its k indices: 1 + k hashes
a unit, as one ``pq.verify`` from the message makes.

The stream is cut into windows of ``WINDOW_UNITS`` positions.

* An ``la`` or ``hy`` window is derived whole.  Online (``--cco``) it
  then sends, on one pipelined connection, one ``0x08`` per signer of
  the window (per ``cco.MAX_COMBINED_EPOCHS`` of its units), then one
  ``0x05`` per run of its pq layers.  Each ``0x08`` carries the
  weighted response sum, and a reply that is not a refusal is compared
  with one walk of the signer's key table (``la.combined_value``); the
  service's fixed-base exponentiation has done the generator's half.
  Each unit is checked as its run's opening arrives.  The ``0x02``
  fallback for each aggregate layer that no combined check passed goes
  at the end of its window, after the window's last reply and before
  the next window is derived.
* A ``pq`` stream is never derived a window at a time.  Each run's
  ``0x05`` leaves as soon as its last unit is derived, and the run is
  checked when its reply arrives, so the service builds one run while
  the next is derived.  The stream holds the units of at most
  ``transport.PIPELINE_WINDOW`` runs in flight and of the run being
  filled.

A window edge cuts a signer's combined check in two when its units lie
on both sides: one more ``0x08``, one more walk of the signer's key
table and one more hash (the second seed).  It cuts an ``hy`` run
likewise: one more ``0x05``, which costs the service no longer walk, as
its chain cursor resumes where the first part ended.  ``WINDOW_UNITS``
is a multiple of both ``cco.MAX_COMBINED_EPOCHS`` and 256/k at k = 16,
so the edges cost nothing only in a stream of one signer, at
consecutive epochs from its first position, with no unit rejected
unparsed: there every edge falls where a check and a run end anyway.
Windows count positions, not a signer's units.  A skipped unit or an
epoch gap moves the later ends of its signer's checks and runs off the
edges.  With S signers evenly interleaved, a window holds 256/S units
of each, so each window sends S ``0x08``s for S >= 4 (6 for S = 3)
where grouping the whole stream by signer sends 4, one per 64 units:
S/4 times the ``0x08``s and table walks.  Interleaving costs runs
nothing, as each signer's runs are a unit long there already.  No
benchmark workload verifies an ``la`` or ``hy`` stream longer than one
window, so this traffic is counted (``tests/test_verify_stream.py``),
not timed.

Offline (``--commits``) each unit is checked as it is derived, against
the export entry at its (id, epoch), its indices cut alone.

When an input error is reported, with either source:

* the bundle, then the service (``--cco``: exit 2 if it cannot be
  reached) or the export (``--commits``), come before any input is read;
* a missing record or signature file exits 2, and a signature file
  shorter than its 8-byte count exits 1, before the first request;
* a malformed record, a partial final batch or a key table file that
  does not fit the bundle exits 2 when the stream reaches it; a
  truncated signature entry, or bytes after the last, exits 1 there;
* a signature count that differs from the unit count exits 2 once the
  shorter input has run out and the rest of the longer one is counted.

None prints the ``N/M signatures valid`` line.  Of the commands, only
``hases verify`` imports this module.
"""

from __future__ import annotations

from collections import deque
from itertools import chain, groupby, repeat
from typing import Iterable, Iterator

from . import cco, keyfiles, la, pq, schemes
from .hashing import read_header

# Unit positions per window.  256 is a multiple of MAX_COMBINED_EPOCHS
# (64) and of 256/k for every k that divides 256, 16 at k = 16.
WINDOW_UNITS = 256

# One window: (position, layers) of each unit of the window that was derived.
Window = Iterable[tuple[int, schemes.Layers]]


class CommitmentSource:
    """Where each unit's commitment parts come from: a pipelined
    connection to the service at ``address`` (host, port) or, without
    one, the offline export file ``commits``."""

    def __init__(self, bundle: keyfiles.VerifierBundle, address: tuple[str, int] | None = None,
                 commits: str | None = None):
        self.scheme = scheme = schemes.by_tag(bundle.scheme)
        self.bundle = bundle
        self.client = None
        self.offline: dict[tuple[bytes, int], bytes] = {}
        if address:
            from .transport import CcoClient  # the one verify path that opens a socket

            self.client = CcoClient(*address)
        else:
            for blob in keyfiles.load_commitments(commits):
                # another scheme's entry for the same (id, epoch) must not
                # replace the one this bundle verifies against
                try:
                    self.offline[read_header(blob, scheme.commitment_tag, "commitment")] = blob
                except ValueError:
                    continue

    def close(self):
        if self.client:
            self.client.close()

    def layer_parts(self, windows: Iterable[Window], tables) -> Iterator[tuple]:
        """(position, layers, aggregate commitment, pq opening, pq indices)
        for each unit of ``windows``: None for a layer the unit lacks, or
        whose part the service refused or the export lacks or holds
        malformed, and ``_PROVEN`` for an aggregate layer a combined check
        passed."""
        if self.client is None:
            return self._offline_parts(chain.from_iterable(windows))
        return chain.from_iterable(self._online_window(window, tables) for window in windows)

    def _offline_parts(self, units: Window) -> Iterator[tuple]:
        """Each unit's parts, in order, from the export entry at its (id,
        epoch); the pq part is opened at the unit's indices."""
        commitment_parts, pq_params = self.scheme.commitment_parts, self.bundle.pq_params
        for n, unit in units:
            blob = self.offline.get(_key(unit.la or unit.pq))  # either layer's: both carry them
            la_part, pq_part = _parsed(commitment_parts, blob) or (None, None)
            opening = indices = None
            if unit.pq:
                indices = pq.run_indices((unit.pq[0],), pq_params)
                opening = _parsed(pq.PqCommitment.open, pq_part, indices, pq_params)
            yield n, unit, la_part, opening, indices

    def _online_window(self, window: Window, tables) -> Iterator[tuple]:
        """The parts of each unit of one window, as they arrive: one
        pipelined stream of the window's ``0x08``s, then of its runs'
        ``0x05``s, each sent as ``_runs`` closes it; then, each on its
        own (``0x02``), the aggregate layers no combined check passed."""
        client, bundle = self.client, self.bundle
        pq_params, group = bundle.pq_params, bundle.la_params and bundle.la_params.group
        combined = _combinations(window, bundle) if group and la.combinable(group) else []
        runs: deque[tuple] = deque()  # the runs sent and not yet answered, oldest first

        def requests():
            for *_, payload in combined:
                yield payload
            for run in _runs(window, pq_params) if pq_params else ():
                indices = pq.run_indices([unit.pq[0] for _, unit in run], pq_params)
                runs.append((run, indices))
                yield cco.opening_payload(*_key(run[0][1].pq), indices)

        replies = client.ok_bodies(requests())
        proven = set()
        for (signer_id, positions, challenge, _), reply in zip(combined, replies):
            if reply is None:
                continue  # refused: no value can match it
            try:
                if reply == la.combined_value(tables[signer_id], challenge, group):
                    proven.update(positions)
            except ValueError:
                pass  # a key outside the subgroup: each unit is rejected alone
        alone = []

        def parts(units, openings):
            for (n, unit), (opening, indices) in zip(units, openings):
                if unit.la and n not in proven:
                    alone.append((n, unit, opening, indices))
                else:
                    yield n, unit, _PROVEN if unit.la else None, opening, indices

        for reply in replies:  # each run's, in the order sent
            units, indices = runs.popleft()
            yield from parts(units, _run_openings(reply, indices, pq_params.k))
        if not pq_params:
            yield from parts(window, repeat((None, None)))
        replies = client.ok_bodies([cco.commitment_payload(cco.MSG_LA, *_key(unit.la))
                                    for _, unit, _, _ in alone])
        for (n, unit, opening, indices), blob in zip(alone, replies):
            yield n, unit, _parsed(la.LaCommitment.from_bytes, blob), opening, indices


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


def _runs(units: Window, params) -> Iterator[list]:
    """The units of a bundle with pq params, each with a pq layer, cut
    into the runs one ``0x05`` each opens, each run yielded as soon as
    its last unit is known: units in order, of one signer, at
    consecutive epochs in [1, J], at most ``cco.MAX_OPENING_INDICES //
    k`` of them.  Any other unit, such as one whose epoch repeats the one
    before or lies outside [1, J], starts a run of its own."""
    longest, epochs = cco.MAX_OPENING_INDICES // params.k, params.epochs
    run: list = []
    following = None  # the (id, epoch) that may go on the run, if any may
    for item in units:
        signer_id, epoch = key = _key(item[1].pq)
        if run and key != following:
            yield run
            run = []
        run.append(item)
        following = (signer_id, epoch + 1) if 1 <= epoch < epochs else None
        if len(run) == longest:
            yield run
            run = []
    if run:
        yield run


def _run_openings(reply, indices: list[int], k: int) -> Iterable[tuple]:
    """(opening, indices) of each unit of a run, from the reply to its
    request and the k indices of each unit, joined: the opening is None
    for each unit of a run the service refused or answered with a
    malformed reply, or one that does not hold one entry per index.  The
    store refuses a run only where it would refuse each of its single
    openings (an unknown id: ``_runs`` sends no other run it refuses), so
    no unit is asked for again."""
    opening = _parsed(pq.PqOpening.from_bytes, reply)
    each = [indices[at : at + k] for at in range(0, len(indices), k)]
    if opening is None or len(opening.body) != len(indices) * pq.DIGEST_LEN:
        return zip(repeat(None), each)
    return zip(opening.per_epoch(k), each)


def _combinations(window: Window, bundle) -> list[tuple]:
    """(id, unit positions, weighted challenge sum, ``0x08`` payload) of
    each combined check of a window: a signer's units in order, at most
    ``cco.MAX_COMBINED_EPOCHS`` per check, hashed into a seed whose
    weights make both sums (``la.weighted_sums``); the payload carries
    the response sum.  A unit of the wrong length or outside [1, J] is
    left out, to be checked alone."""
    params = bundle.la_params
    q = params.group.q
    by_signer: dict[bytes, list] = {}
    for n, unit in window:
        messages, signature, challenge = unit.la
        if len(messages) == params.batch_size and 1 <= signature.epoch <= params.max_batches:
            by_signer.setdefault(signature.signer_id, []).append(
                (n, (signature.epoch, challenge, signature.agg)))
    combined = []
    for signer_id, units in by_signer.items():
        for start in range(0, len(units), cco.MAX_COMBINED_EPOCHS):
            positions, batches = zip(*units[start : start + cco.MAX_COMBINED_EPOCHS])
            seed = la.combination_seed(signer_id, batches)
            challenge, agg = la.weighted_sums(seed, batches, q)
            combined.append((signer_id, positions, challenge, cco.combined_payload(
                signer_id, seed, agg, [epoch for epoch, _, _ in batches])))
    return combined


def verify_all(bundle, records: Iterable, blobs: Iterable[bytes], source: CommitmentSource,
               tables_file=None) -> list[bool]:
    """Whether each signature in ``blobs`` is valid over ``records``,
    against the parts ``source`` supplies, both read as the stream
    reaches them.  ``tables_file`` is the bundle's key table file, if it
    has one: the tables of the signers each window brings in are read
    from it, and no key is checked again."""
    scheme = schemes.by_tag(bundle.scheme)
    results: list[bool] = []
    units = _derived(scheme, bundle, records, blobs, results)
    tables = None
    if bundle.la_params:
        tables = la.KeyTables(bundle.public_keys, bundle.la_params.group)
        windows = _windows(units, bundle, tables, tables_file)
    else:
        windows = (units,)
    for n, unit, la_part, opening, indices in source.layer_parts(windows, tables):
        try:
            results[n] = _layers_valid(unit, la_part, opening, indices, bundle, tables)
        except ValueError:
            pass  # a key outside the subgroup is a cryptographic reject
    return results


def _derived(scheme, bundle, records, blobs, results: list) -> Window:
    """(position, layers) of each unit whose signature parses and names a
    bundle signer, derived as the stream reaches it; ``results`` gets a
    False for every unit.  ValueError, once both inputs are read, if
    they do not hold one signature per unit."""
    messages, blobs = scheme.units(records, bundle), iter(blobs)
    parse, layers, signers = scheme.parse_signature, scheme.layers, bundle.public_keys
    for n, message in enumerate(messages):
        blob = next(blobs, None)
        if blob is None:
            units = n + 1 + sum(1 for _ in messages)
            raise ValueError(f"{n} signatures for {units} signing units")
        results.append(False)
        try:
            signature = parse(blob, bundle)
        except ValueError:
            continue  # malformed: a cryptographic reject
        if signature.signer_id in signers:  # one outside the bundle is rejected too
            yield n, layers(message, signature, bundle)
    signatures = len(results) + sum(1 for _ in blobs)
    if signatures != len(results):
        raise ValueError(f"{signatures} signatures for {len(results)} signing units")


def _windows(units: Window, bundle, tables: la.KeyTables, tables_file) -> Iterator[list]:
    """``units`` in windows of ``WINDOW_UNITS`` positions, each derived
    whole; the tables of the signers a window brings in are read from
    ``tables_file``, if there is one, before the window is checked."""
    for _, window in groupby(units, key=lambda unit: unit[0] // WINDOW_UNITS):
        window = list(window)
        if tables_file:
            new = {unit.la[1].signer_id for _, unit in window}.difference(tables)
            if new:
                tables.update(keyfiles.load_key_tables(tables_file, bundle, new))
        yield window


def _layers_valid(unit: schemes.Layers, la_commitment, opening, indices, bundle, tables) -> bool:
    """Whether each layer of ``unit`` checks out against its parts from
    ``CommitmentSource.layer_parts``, online or offline."""
    if unit.la and la_commitment is not _PROVEN:
        messages, signature, challenge = unit.la
        if la_commitment is None or not la.verify_batch(
            tables[signature.signer_id], la_commitment, messages, signature,
            bundle.la_params.group, challenge,
        ):
            return False
    if unit.pq:
        message, signature = unit.pq
        return opening is not None and pq.verify(
            opening, message, signature, bundle.pq_params, indices)
    return True
