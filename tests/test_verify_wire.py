"""What ``hases verify --cco`` puts on the wire, pinned.

Each stream below is built from fixed key material (a counting ``rng``
in place of ``os.urandom``), so its signatures, and so every request
the verifier sends, are the same on every run.  The payloads that
``verifier.verify_all`` sends to an in-process ``CcoServer`` are
recorded through a wrapper on the store's ``handle_request`` and
compared with a digest of the whole sequence, with the per-unit
results beside it.  A change to how the verifier derives, groups or
checks its units must leave every request (type, bytes and order) as it
is.
"""

import hashlib
import itertools

import pytest

from hases import cco, hy, keyfiles, la, pq, schemes, transport, verifier
from hases.group import production_group
from hases.stream import Record

A, B, STRANGER = bytes([0xA1]) * 16, bytes([0xB1]) * 16, bytes([0xE1]) * 16
PQ_PARAMS = pq.PqParams(t=64, k=16, j1=4, j2=16)


def counting_rng():
    """A stand-in for ``os.urandom``: bytes of a counter, the same on every run."""
    counter = itertools.count()
    return lambda size: bytes(next(counter) % 256 for _ in range(size))


def pq_ceremony():
    states, material = pq.keygen([A, B], PQ_PARAMS, counting_rng())
    bundle = keyfiles.VerifierBundle(schemes.PQ.tag, PQ_PARAMS, None, dict.fromkeys(states))
    return states, material, bundle


def signed(state, scheme, payloads):
    """(records, signature blobs) of ``payloads`` signed by ``state``."""
    records = [Record(str(n), payload) for n, payload in enumerate(payloads)]
    return records, scheme.sign(state, records)


def pq_stream(case):
    states, material, bundle = pq_ceremony()
    if case == "interleaved":
        units = []
        for n in range(32):
            for signer_id in (A, B):
                units.append(signed(states[signer_id], schemes.PQ,
                                    [b"%s %d" % (signer_id[:1].hex().encode(), n)]))
        records = [r for rs, _ in units for r in rs]
        blobs = [b for _, bs in units for b in bs]
        return material, bundle, records, blobs
    records, blobs = signed(states[A], schemes.PQ, [b"reading %d" % n for n in range(41)])
    if case == "malformed":
        blobs[20] = blobs[20][:-1]  # mid-run: the run of epochs 17-32
    elif case == "unknown-signer":
        blobs[5] = blobs[5][:1] + STRANGER + blobs[5][17:]  # mid-run: the run of epochs 1-16
    elif case == "epoch-gap":
        del records[10], blobs[10]  # epochs 1-10, then 12-41
    elif case == "repeated-epoch":
        records.insert(10, Record("9", b"replayed"))
        blobs.insert(10, blobs[9])  # epoch 10 twice in a row, over another record the second time
    return material, bundle, records, blobs


def hy_stream():
    """270 units of two records each, of one signer: a window edge at
    256; unit 100's aggregate response moved, so its combined check
    fails and the 64 units of that check are asked for alone, and unit 200's
    last revealed pq string flipped."""
    group = production_group()
    states, public, material = hy.keygen([A], group, 2, PQ_PARAMS._replace(j2=80),
                                         counting_rng())
    bundle = keyfiles.VerifierBundle(schemes.HY.tag, PQ_PARAMS._replace(j2=80),
                                     la.LaParams(group, 320, 2), public)
    records, blobs = signed(states[A], schemes.HY, [b"hy %d" % n for n in range(540)])
    signature = hy.HySignature.from_bytes(blobs[100], group)
    moved = signature.la._replace(agg=(signature.la.agg + 1) % group.q)
    blobs[100] = hy.HySignature(moved, signature.pq).to_bytes()
    blobs[200] = blobs[200][:-1] + bytes([blobs[200][-1] ^ 1])
    return material, bundle, records, blobs


def recorded(material, bundle, records, blobs):
    """The per-unit results of ``verify_all`` over the stream, online,
    and the payloads it sent, in order."""
    store = cco.CcoStore(material)
    payloads = []
    handle = store.handle_request
    store.handle_request = lambda payload: payloads.append(payload) or handle(payload)
    with transport.CcoServer(store) as server:
        source = verifier.CommitmentSource(bundle, ("127.0.0.1", server.port))
        try:
            results = verifier.verify_all(bundle, iter(records), iter(blobs), source)
        finally:
            source.close()
    return results, payloads


def digest(payloads):
    return hashlib.sha256(b"".join(len(p).to_bytes(4, "big") + p for p in payloads)).hexdigest()


# stream -> (requests sent, their digest, positions rejected)
PINNED = {
    "malformed": (4, "048d029ae9e35385993114bd32eeeeb730b6e4e48446adfe58e7d92ba8854731", [20]),
    "unknown-signer": (4, "2250fca00f0eaf2d051a0b68205a8f501026e3a3cccb443b7b1464bde208bd25", [5]),
    "epoch-gap": (3, "db5f4d0f90cb8bb46c24ef1b5d4aa30443813abf7d979f2d879dfc7957fe8224", []),
    "repeated-epoch": (3, "39e3770f8883f3da69cbb8635d3ce45f1f2beee91295adeff8a83a8eaddb7e54", [10]),
    "interleaved": (64, "b293dcf967b58625762898b06b87ccd9fe74f8a4a2100a2b5513a714aca8d724", []),
    # 5 0x08s, 17 0x05s and the 64 0x02s of the failed check
    "hy-two-windows": (86, "c968cf22aa8adcf02a9c877b332bc893e110c7a1b72ba02f238069c496263ea0",
                       [100, 200]),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_the_requests_of_each_stream_are_pinned(case):
    stream = hy_stream() if case == "hy-two-windows" else pq_stream(case)
    results, payloads = recorded(*stream)
    count, expected, rejected = PINNED[case]
    assert [n for n, ok in enumerate(results) if not ok] == rejected
    assert (len(payloads), digest(payloads)) == (count, expected)
