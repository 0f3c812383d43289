"""Hostile bytes are data: every parser raises only ValueError or MalformedFrame."""

import functools
import io
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from hases import cco, hy, keyfiles, la, pq, schemes, transport
from hases.errors import MalformedFrame
from hases.group import production_group, small_test_group

ID_A = bytes([0x5A]) * 16
PQ_TOY = pq.PqParams(t=8, k=4, j1=2, j2=4)
GROUPS = {"production": production_group(), "tiny": small_test_group()}


def fixed_rng(seed: int):
    rng = random.Random(seed)
    return lambda n: rng.randbytes(n)


@functools.cache
def samples(group_name: str) -> dict[str, bytes]:
    """One valid blob of every serialized type, to mutate."""
    group = GROUPS[group_name]
    states, public, material = hy.keygen([ID_A], group, 2, PQ_TOY, fixed_rng(1))
    signature = hy.sign_batch(states[ID_A], [b"x", b"y"])
    indices = hy.opened([b"x", b"y"], signature, PQ_TOY).indices
    commitment = hy.HyCommitment(
        la.construct_commitment(material.la, ID_A, 1),
        pq.construct_commitment(material.pq, ID_A, 1),
    )
    store = cco.CcoStore(material)
    bundle = keyfiles.VerifierBundle(schemes.HY.tag, PQ_TOY, material.la.params, public)
    return {
        "pq_signature": signature.pq.to_bytes(),
        "pq_commitment": commitment.pq.to_bytes(),
        "pq_opening": commitment.pq.open(indices, PQ_TOY).to_bytes(),
        "la_signature": signature.la.to_bytes(),
        "la_commitment": commitment.la.to_bytes(),
        "hy_signature": signature.to_bytes(),
        "hy_commitment": commitment.to_bytes(),
        "signer_key": keyfiles.signer_key_bytes(states[ID_A]),
        "bundle": bundle.to_bytes(),
        "store": keyfiles.store_bytes(store),
        "export": cco.export_bytes(store.batch_export(schemes.HY.tag, ID_A, 1, 2)),
    }


def parsers(group):
    return {
        "pq_signature": pq.PqSignature.from_bytes,
        "pq_commitment": pq.PqCommitment.from_bytes,
        "pq_opening": pq.PqOpening.from_bytes,
        "la_signature": lambda data: la.LaSignature.from_bytes(data, group),
        "la_commitment": lambda data: la.LaCommitment.from_bytes(data),
        "hy_signature": lambda data: hy.HySignature.from_bytes(data, group),
        "hy_commitment": lambda data: hy.HyCommitment.from_bytes(data),
        "signer_key": keyfiles.signer_key_from_bytes,
        "bundle": keyfiles.VerifierBundle.from_bytes,
        "store": keyfiles.store_from_bytes,
        "export": cco.export_from_bytes,
    }


@st.composite
def hostile(draw, kind: str, group_name: str):
    """Raw bytes, or a valid blob of ``kind`` truncated, extended or with bytes changed."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=200))
    blob = bytearray(samples(group_name)[kind])
    for _ in range(draw(st.integers(0, 3))):
        position = draw(st.integers(0, len(blob) - 1))
        blob[position] = draw(st.integers(0, 255))
    edit = draw(st.sampled_from(["keep", "truncate", "extend"]))
    if edit == "truncate":
        del blob[draw(st.integers(0, len(blob))):]
    elif edit == "extend":
        blob += draw(st.binary(min_size=1, max_size=64))
    return bytes(blob)


@st.composite
def parser_inputs(draw):
    group_name = draw(st.sampled_from(sorted(GROUPS)))
    kind = draw(st.sampled_from(sorted(samples(group_name))))
    return group_name, kind, draw(hostile(kind, group_name))


@settings(max_examples=600, deadline=None)
@given(parser_inputs())
def test_fuzz_every_from_bytes(case):
    group_name, kind, data = case
    try:
        parsers(GROUPS[group_name])[kind](data)
    except (ValueError, MalformedFrame):
        pass


def test_samples_parse():
    for group_name, group in GROUPS.items():
        for kind, parse in parsers(group).items():
            parse(samples(group_name)[kind])


_frames = st.binary(max_size=64) | st.builds(
    lambda length, body: length.to_bytes(4, "big") + body,
    st.integers(0, 80) | st.sampled_from([cco.MAX_FRAME, cco.MAX_FRAME + 1, 2**32 - 1]),
    st.binary(max_size=80),
)


@settings(max_examples=400, deadline=None)
@given(_frames)
def test_fuzz_read_frame(data):
    stream = io.BytesIO(data)
    try:
        while (payload := transport.read_frame(stream)) is not None:
            assert len(payload) <= cco.MAX_FRAME
    except MalformedFrame:
        pass


def _loop_requests(data: bytes, eof: bool) -> list[bytes]:
    """What the service loop's parser takes off a connection that has
    received ``data`` (and then EOF, if ``eof``), in order."""
    conn = transport._Connection(None, ("fuzz", 0))
    conn.received += data
    conn.eof = eof
    payloads = []
    while (payload := conn.request()) is not None:
        assert len(payload) <= transport.MAX_REQUEST_FRAME
        payloads.append(payload)
    return payloads


_request_frames = st.lists(st.binary(max_size=64) | st.builds(
    lambda length, body: length.to_bytes(4, "big") + body,
    st.integers(0, 80) | st.sampled_from([transport.MAX_REQUEST_FRAME,
                                          transport.MAX_REQUEST_FRAME + 1, 2**32 - 1]),
    st.binary(max_size=80),
), max_size=4).map(b"".join)


@settings(max_examples=400, deadline=None)
@given(_request_frames, st.booleans())
def test_fuzz_the_loops_request_parser(data, eof):
    try:
        _loop_requests(data, eof)
    except MalformedFrame:
        pass


@settings(max_examples=100, deadline=None)
@given(st.lists(st.binary(max_size=64) | st.binary(min_size=transport.MAX_REQUEST_FRAME,
                                                   max_size=transport.MAX_REQUEST_FRAME),
                max_size=6),
       st.booleans())
def test_the_loops_request_parser_gives_back_well_formed_frames_in_order(payloads, eof):
    data = b"".join(len(payload).to_bytes(4, "big") + payload for payload in payloads)
    assert _loop_requests(data, eof) == payloads
