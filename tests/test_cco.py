import functools
import random
import socket
import struct
import sys
import threading
import time
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hases import cco, hy, keyfiles, la, pq, transport
from hases.errors import CcoRequestError, MalformedFrame
from hases.group import production_group, small_test_group
from hases.hashing import counters

from conftest import anchored_for

ID_A = bytes([0xA1]) * 16
ID_B = bytes([0xB2]) * 16
ID_C = bytes([0xC3]) * 16
PQ_TOY = pq.PqParams(t=8, k=4, j1=4, j2=4)
PQ_T1024 = pq.PqParams(t=1024, k=16, j1=4, j2=4)


def fixed_rng(seed: int):
    rng = random.Random(seed)
    return lambda n: rng.randbytes(n)


def fetch_pq(client, signer_id, epoch):
    return pq.PqCommitment.from_bytes(client.commitment_bytes(cco.MSG_PQ, signer_id, epoch))


def provisioned_store(seed=1):
    group = small_test_group()
    states, public, material = hy.keygen([ID_A, ID_B], group, 3, PQ_TOY, fixed_rng(seed))
    store = cco.CcoStore(material)
    return store, states, public, material, group


class TestProvisioning:
    def test_two_signers_both_served(self):
        store, *_ = provisioned_store()
        for sid in (ID_A, ID_B):
            assert len(store.pq_commitment(sid, 1).body) == PQ_TOY.t * 32
            assert store.la_commitment(sid, 1).batch_size == 3

    def test_unknown_id(self):
        store, *_ = provisioned_store()
        from hases.errors import UnknownSigner

        with pytest.raises(UnknownSigner):
            store.pq_commitment(ID_C, 1)


class TestStoragePolicy:
    """One store per j1, each of the same master key: what the store files
    of ``hases keygen --J1 j1`` hold."""

    def test_policy_invariance_and_chain_bound(self):
        _, material = pq.keygen([ID_A], pq.PqParams(t=8, k=4, j1=1, j2=16), fixed_rng(6))
        baseline = [cco.CcoStore(material).pq_commitment(ID_A, j).to_bytes() for j in range(1, 17)]
        for j1 in (1, 2, 4, 8, 16):
            j2 = 16 // j1
            store = cco.CcoStore(anchored_for(material, j1))
            for epoch in range(1, 17):
                counters.reset()
                blob = store.pq_commitment(ID_A, epoch).to_bytes()
                chain_steps = counters.calls_h1 - 8
                assert blob == baseline[epoch - 1]
                assert chain_steps <= j2 - 1

    def test_anchor_count_follows_policy(self):
        _, material = pq.keygen([ID_A], pq.PqParams(t=8, k=4, j1=1, j2=16), fixed_rng(7))
        for j1 in (1, 4, 16):
            anchors = cco.CcoStore(anchored_for(material, j1)).pq_material().anchors[ID_A]
            assert len(anchors) == j1 - 1


class TestRequestHandling:
    def setup_method(self):
        self.store, self.states, self.public, self.material, self.group = provisioned_store()

    def request(self, msg_type, body):
        return self.store.handle_request(bytes((msg_type,)) + body)

    def test_pq_request_ok(self):
        response = self.request(cco.MSG_PQ, ID_A + (1).to_bytes(8, "big"))
        assert response[0] == 0x81 and response[1] == cco.STATUS_OK
        commitment = pq.PqCommitment.from_bytes(response[2:])
        assert len(commitment.body) == PQ_TOY.t * 32

    def test_la_request_ok(self):
        response = self.request(cco.MSG_LA, ID_A + (2).to_bytes(8, "big"))
        assert response[:2] == bytes((0x82, cco.STATUS_OK))
        commitment = la.LaCommitment.from_bytes(response[2:])
        # the registered batch size comes back in the commitment
        assert (commitment.epoch, commitment.batch_size) == (2, 3)

    def test_hy_request_ok(self):
        response = self.request(cco.MSG_HY, ID_A + (1).to_bytes(8, "big"))
        assert response[:2] == bytes((0x83, cco.STATUS_OK))
        hy.HyCommitment.from_bytes(response[2:])

    def test_unknown_id_status(self):
        response = self.request(cco.MSG_PQ, ID_C + (1).to_bytes(8, "big"))
        assert response == bytes((0x81, cco.STATUS_UNKNOWN_ID))

    def test_epoch_range_status(self):
        for bad_epoch in (0, PQ_TOY.epochs + 1):
            response = self.request(cco.MSG_PQ, ID_A + bad_epoch.to_bytes(8, "big"))
            assert response == bytes((0x81, cco.STATUS_EPOCH_RANGE))

    def test_malformed_lengths(self):
        assert self.request(cco.MSG_PQ, b"short")[1] == cco.STATUS_MALFORMED
        assert self.request(cco.MSG_LA, ID_A + (1).to_bytes(8, "big") + b"\x00")[1] == cco.STATUS_MALFORMED
        assert self.store.handle_request(b"")[1] == cco.STATUS_MALFORMED

    def test_unknown_type(self):
        response = self.store.handle_request(bytes((0x6E,)) + bytes(24))
        assert response == bytes((0xEE, cco.STATUS_MALFORMED))

    def test_export_matches_single_requests(self):
        body = bytes((cco.MSG_PQ,)) + ID_A + (1).to_bytes(8, "big") + (4).to_bytes(8, "big")
        response = self.request(cco.MSG_EXPORT, body)
        assert response[:2] == bytes((0x84, cco.STATUS_OK))
        count = int.from_bytes(response[2:10], "big")
        assert count == 4
        blob = response[10:]
        size = len(blob) // count
        for offset, epoch in zip(range(0, len(blob), size), range(1, 5)):
            single = self.store.pq_commitment(ID_A, epoch).to_bytes()
            assert blob[offset : offset + size] == single

    def test_export_range_validation(self):
        for lo, hi in ((0, 4), (3, 2), (1, PQ_TOY.epochs + 1)):
            body = bytes((cco.MSG_PQ,)) + ID_A + lo.to_bytes(8, "big") + hi.to_bytes(8, "big")
            assert self.request(cco.MSG_EXPORT, body)[1] == cco.STATUS_EPOCH_RANGE

    def test_la_request_with_a_batch_size_is_malformed(self):
        # the old id16 epoch8 L4 layout, whatever its L, registered (3) or not
        counters.reset()
        for size in (3, 2, 4, 0, 2**32 - 1):
            body = ID_A + (1).to_bytes(8, "big") + size.to_bytes(4, "big")
            assert self.request(cco.MSG_LA, body) == bytes((0x82, cco.STATUS_MALFORMED))
        assert counters.total() == 0

    def export(self, scheme, lo, hi):
        body = bytes((scheme,)) + ID_A + lo.to_bytes(8, "big") + hi.to_bytes(8, "big")
        return self.request(cco.MSG_EXPORT, body)

    def test_export_walks_the_chain_once(self):
        lo, hi = 3, 10  # crosses the anchors at epochs 5 and 9
        singles = [self.request(cco.MSG_PQ, ID_A + e.to_bytes(8, "big"))[2:] for e in range(lo, hi + 1)]
        counters.reset()
        response = self.export(cco.MSG_PQ, lo, hi)
        n = hi - lo + 1
        assert response == bytes((0x84, cco.STATUS_OK)) + n.to_bytes(8, "big") + b"".join(singles)
        # H0 for the segment-0 seed, 2 chain steps to epoch 3, one per later
        # epoch but the anchors at 5 and 9: what its single requests cost
        assert counters.snapshot() == (1, 2 + (n - 1) - 2 + n * PQ_TOY.t, n * PQ_TOY.t)

    def test_export_matches_single_requests_for_every_scheme(self):
        lo, hi = 4, 9
        for scheme in (cco.MSG_LA, cco.MSG_HY):
            singles = [self.request(scheme, ID_A + e.to_bytes(8, "big"))[2:] for e in range(lo, hi + 1)]
            response = self.export(scheme, lo, hi)
            assert response[2:10] == (hi - lo + 1).to_bytes(8, "big")
            assert response[10:] == b"".join(singles)

    def test_oversized_export_refused_before_any_work(self, monkeypatch):
        entry = 25 + 32 * PQ_TOY.t
        monkeypatch.setattr(cco, "MAX_FRAME", 2 + 8 + 3 * entry)
        assert self.export(cco.MSG_PQ, 2, 4)[1] == cco.STATUS_OK
        counters.reset()
        assert self.export(cco.MSG_PQ, 2, 5) == bytes((0x84, cco.STATUS_EPOCH_RANGE))
        assert self.export(cco.MSG_HY, 2, 4) == bytes((0x84, cco.STATUS_EPOCH_RANGE))
        assert counters.total() == 0

    def test_no_secret_bytes_in_any_response(self):
        # production group: tiny-backend encodings are zero-padded, so a
        # small private scalar would collide with unrelated public bytes
        group = production_group()
        _, _, material = hy.keygen([ID_A, ID_B], group, 3, PQ_TOY, fixed_rng(77))
        store = cco.CcoStore(material)
        secrets_to_scan = [material.pq.msk, material.la.msk]
        secrets_to_scan += [a for sid in (ID_A, ID_B) for a in material.pq.anchors[sid]]
        secrets_to_scan += [pq.initial_seed(material.pq.msk, sid) for sid in (ID_A, ID_B)]
        secrets_to_scan += [
            la.private_scalar(material.la.msk, sid, group).to_bytes(32, "big")
            for sid in (ID_A, ID_B)
        ]
        frames = []
        for epoch in range(1, PQ_TOY.epochs + 1):
            frames.append(store.handle_request(bytes((cco.MSG_PQ,)) + ID_A + epoch.to_bytes(8, "big")))
            frames.append(store.handle_request(bytes((cco.MSG_HY,)) + ID_A + epoch.to_bytes(8, "big")))
        body = bytes((cco.MSG_PQ,)) + ID_A + (1).to_bytes(8, "big") + (16).to_bytes(8, "big")
        frames.append(store.handle_request(bytes((cco.MSG_EXPORT,)) + body))
        for frame in frames:
            assert len(frame) > 2
            for secret in secrets_to_scan:
                assert secret not in frame

# the parts of a store each request needs: (request type, scheme of an export) -> parts
NEEDED_PARTS = {
    (cco.MSG_PQ, None): {"pq"},
    (cco.MSG_LA, None): {"la"},
    (cco.MSG_HY, None): {"pq", "la"},
    (cco.MSG_EXPORT, cco.MSG_PQ): {"pq"},
    (cco.MSG_EXPORT, cco.MSG_LA): {"la"},
    (cco.MSG_EXPORT, cco.MSG_HY): {"pq", "la"},
    (cco.MSG_PQ_OPENING, None): {"pq"},
    (cco.MSG_LA_COMBINED, None): {"la"},
}


def refusable_payload(msg_type, scheme, signer_id, epoch):
    """A request of ``msg_type`` (an export of ``scheme``) for ``signer_id``
    that reaches ``epoch``, otherwise well formed."""
    if msg_type == cco.MSG_EXPORT:
        return cco.export_payload(scheme, signer_id, 1, epoch)
    if msg_type == cco.MSG_PQ_OPENING:
        return cco.opening_payload(signer_id, epoch, range(PQ_TOY.k))
    if msg_type == cco.MSG_LA_COMBINED:
        return cco.combined_payload(signer_id, bytes(cco.SEED_LEN), 0, (1, epoch))
    return cco.commitment_payload(msg_type, signer_id, epoch)


def test_every_refusal_is_answered_before_any_hashing():
    _, _, material = hy.keygen([ID_A], small_test_group(), 3, PQ_TOY, fixed_rng(97))
    stores = {frozenset({"pq"}): material.pq, frozenset({"la"}): material.la,
              frozenset({"pq", "la"}): material}
    wrong = []
    for parts, store_material in stores.items():
        store = cco.CcoStore(store_material)
        for (msg_type, scheme), needed in NEEDED_PARTS.items():
            # a store without a needed part answers as for an unknown id, whatever the epoch
            missing = bool(needed - parts)
            cases = [("unknown id", ID_C, 2, cco.STATUS_UNKNOWN_ID),
                     ("epoch out of range", ID_A, PQ_TOY.epochs + 1,
                      cco.STATUS_UNKNOWN_ID if missing else cco.STATUS_EPOCH_RANGE)]
            if missing:
                cases.append(("missing part", ID_A, 2, cco.STATUS_UNKNOWN_ID))
            for refusal, signer_id, epoch, status in cases:
                counters.reset()
                reply = store.handle_request(refusable_payload(msg_type, scheme, signer_id, epoch))
                if reply != bytes((msg_type | cco.RESPONSE_BIT, status)) or counters.total():
                    wrong.append((sorted(parts), msg_type, scheme, refusal, reply.hex(),
                                  counters.total()))
    assert not wrong


def test_an_export_reply_peaks_at_about_twice_its_size():
    # each epoch is serialized as it is built, and the head and the entries
    # are joined once: the entries and the reply are alive together, no more
    import tracemalloc

    params = pq.PqParams(t=1024, k=16, j1=4, j2=16)
    _, material = pq.keygen([ID_A], params, fixed_rng(98))
    store = cco.CcoStore(material)
    payload = cco.export_payload(cco.MSG_PQ, ID_A, 1, params.epochs)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        reply = store.handle_request(payload)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert reply[:2] == bytes((0x84, cco.STATUS_OK))
    assert len(reply) == 2 + 8 + params.epochs * (25 + 32 * params.t)
    assert peak <= 2.2 * len(reply)


class TestWireProtocol:
    def test_a_burst_of_connects_fits_the_listen_backlog(self):
        # bound and listening but not serving, so nothing accepts: every
        # connect must complete in the kernel's queue, as a burst of
        # verifiers' connects does while the server is busy.  A backlog of
        # 5 completes 6 and times the 7th out.
        store, *_ = provisioned_store(seed=7)
        server = transport.CcoServer(store)
        connections = []
        try:
            for _ in range(16):
                connections.append(socket.create_connection(("127.0.0.1", server.port),
                                                            timeout=0.5))
        finally:
            for connection in connections:
                connection.close()
            server.server_close()
        assert len(connections) == 16

    def test_round_trip_over_tcp(self):
        store, states, public, material, group = provisioned_store(seed=8)
        batch = [b"a", b"b", b"c"]
        signature = hy.sign_batch(states[ID_A], batch)
        with transport.CcoServer(store) as server:
            with transport.CcoClient("127.0.0.1", server.port) as client:
                commitment = hy.HyCommitment.from_bytes(client.commitment_bytes(cco.MSG_HY, ID_A, 1))
                assert hy.verify_batch(
                    group.precompute(public[ID_A]), commitment, batch, signature, group, PQ_TOY
                )

    def test_error_statuses_over_tcp(self):
        store, *_ = provisioned_store(seed=9)
        with transport.CcoServer(store) as server:
            with transport.CcoClient("127.0.0.1", server.port) as client:
                with pytest.raises(CcoRequestError) as info:
                    fetch_pq(client, ID_C, 1)
                assert info.value.status == cco.STATUS_UNKNOWN_ID
                with pytest.raises(CcoRequestError) as info:
                    fetch_pq(client, ID_A, 99)
                assert info.value.status == cco.STATUS_EPOCH_RANGE

    def test_batch_export_over_tcp(self):
        store, *_ = provisioned_store(seed=10)
        with transport.CcoServer(store) as server:
            with transport.CcoClient("127.0.0.1", server.port) as client:
                blobs = client.batch_export(cco.MSG_PQ, ID_A, 2, 5)
                assert len(blobs) == 4
                for blob, epoch in zip(blobs, range(2, 6)):
                    assert pq.PqCommitment.from_bytes(blob).epoch == epoch

    def test_multiple_requests_per_connection(self):
        store, *_ = provisioned_store(seed=11)
        with transport.CcoServer(store) as server:
            with transport.CcoClient("127.0.0.1", server.port) as client:
                first = fetch_pq(client, ID_A, 1)
                second = fetch_pq(client, ID_A, 2)
                assert first.epoch == 1 and second.epoch == 2

    def test_malformed_frame_answered(self):
        store, *_ = provisioned_store(seed=12)
        with transport.CcoServer(store) as server:
            with transport.CcoClient("127.0.0.1", server.port) as client:
                response = client.request_raw(bytes((cco.MSG_PQ,)) + b"nonsense")
                assert response == bytes((0x81, cco.STATUS_MALFORMED))

    def test_export_beyond_the_frame_limit_gets_a_status(self):
        # 8192 epochs of t=1024 would be a 268 MB response
        params = pq.PqParams(t=1024, k=16, j1=1, j2=8192)
        _, material = pq.keygen([ID_A], params, fixed_rng(19))
        store = cco.CcoStore(material)
        with transport.CcoServer(store) as server:
            with transport.CcoClient("127.0.0.1", server.port) as client:
                with pytest.raises(CcoRequestError) as info:
                    client.batch_export(cco.MSG_PQ, ID_A, 1, 8192)
                assert info.value.status == cco.STATUS_EPOCH_RANGE
                assert fetch_pq(client, ID_A, 8192).epoch == 8192

    def test_oversized_request_answered_without_reading_its_body(self):
        store, *_ = provisioned_store(seed=17)
        with transport.CcoServer(store) as server:
            with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
                # a 1 MiB request that never comes: the reply cannot wait for it
                sock.sendall(struct.pack(">I", 1 << 20) + bytes((cco.MSG_PQ,)))
                assert sock.recv(16) == struct.pack(">I", 2) + bytes((0x80, cco.STATUS_MALFORMED))
                assert sock.recv(16) == b""  # and the connection is closed
            with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
                sock.sendall(struct.pack(">I", transport.MAX_REQUEST_FRAME + 1))
                assert sock.recv(16) == struct.pack(">I", 2) + bytes((0x80, cco.STATUS_MALFORMED))

    def test_the_largest_request_is_served(self):
        # k = 256 (t = 2): 1 + 24 + 4k = 1,049 bytes, the longest a valid request gets
        params = pq.PqParams(t=2, k=256, j1=2, j2=8)
        _, material = pq.keygen([ID_A], params, fixed_rng(18))
        store = cco.CcoStore(material)
        indices = [n % 2 for n in range(params.k)]
        payload = opening_payload(cco.MSG_PQ_OPENING, ID_A, 3, indices)
        assert len(payload) == 1049 <= transport.MAX_REQUEST_FRAME
        with transport.CcoServer(store) as server:
            with transport.CcoClient("127.0.0.1", server.port) as client:
                (blob,) = client.ok_bodies([payload])
        assert blob == pq.open_commitment(material, ID_A, 3, indices).to_bytes()

    def test_oversized_frame_rejected_client_side(self):
        store, *_ = provisioned_store(seed=13)
        with transport.CcoServer(store) as server:
            with transport.CcoClient("127.0.0.1", server.port) as client:
                with pytest.raises(MalformedFrame):
                    transport.write_frame(client._stream, bytes(cco.MAX_FRAME + 1))


def serve_once(answer, requests=transport.PIPELINE_WINDOW):
    """One-connection server: reads ``requests`` requests (a full window)
    before replying with ``answer(payloads)``, then closes."""
    listener = socket.create_server(("127.0.0.1", 0))

    def run():
        with listener:
            conn, _ = listener.accept()
            with conn, conn.makefile("rwb") as stream:
                payloads = [transport.read_frame(stream) for _ in range(requests)]
                for response in answer(payloads):
                    transport.write_frame(stream, response)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return listener.getsockname()[1], thread


@pytest.mark.parametrize("blob", [
    bytes(8), (3).to_bytes(8, "big") + bytes(10), bytes(7), (1).to_bytes(8, "big"),
], ids=["count 0", "ragged", "shorter than the count", "no entries"])
def test_export_file_and_export_reply_refuse_the_same_blobs(tmp_path, blob):
    path = tmp_path / "commits.bin"
    path.write_bytes(blob)
    with pytest.raises(ValueError):
        keyfiles.load_commitments(path)
    reply = bytes((cco.MSG_EXPORT | cco.RESPONSE_BIT, cco.STATUS_OK)) + blob
    port, thread = serve_once(lambda payloads: [reply], requests=1)
    with transport.CcoClient("127.0.0.1", port) as client:
        with pytest.raises(ValueError):
            client.batch_export(cco.MSG_PQ, ID_A, 1, 3)
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_transport_names_are_reachable_through_cco():
    for name in ("CcoClient", "CcoServer", "read_frame", "write_frame", "MAX_REQUEST_FRAME",
                 "PIPELINE_WINDOW"):
        assert getattr(cco, name) is getattr(transport, name), name
    with pytest.raises(AttributeError, match="no attribute 'CcoProxy'"):
        cco.CcoProxy


def test_request_encodings_are_what_the_store_reads():
    store, *_ = provisioned_store()
    payloads = {
        cco.MSG_PQ: cco.commitment_payload(cco.MSG_PQ, ID_A, 2),
        cco.MSG_PQ_OPENING: cco.opening_payload(ID_A, 2, [0, 7, 7, 3]),
        cco.MSG_EXPORT: cco.export_payload(cco.MSG_HY, ID_A, 1, 3),
        cco.MSG_LA_COMBINED: cco.combined_payload(ID_A, bytes(32), 7, [1, 3, 1]),
    }
    for msg_type, payload in payloads.items():
        assert store.handle_request(payload)[:2] == bytes((msg_type | cco.RESPONSE_BIT,
                                                           cco.STATUS_OK))


def commitments(client, msg_type, keys):
    """The pipelined replies to a commitment request of ``msg_type`` per (id, epoch) key."""
    return client.ok_bodies(cco.commitment_payload(msg_type, *key) for key in keys)


class TestPipelinedClient:
    def keys(self):
        # longer than the window, with an unknown id and out-of-range epochs
        keys = [(sid, epoch) for epoch in range(1, PQ_TOY.epochs + 1) for sid in (ID_A, ID_B)]
        keys += [(ID_A, epoch) for epoch in range(1, 9)]
        keys[5] = (ID_C, 3)
        keys[20] = (ID_A, 0)
        keys[33] = (ID_B, PQ_TOY.epochs + 1)
        return keys

    def test_responses_in_request_order(self):
        store, *_ = provisioned_store(seed=20)
        keys = self.keys()
        assert len(keys) > 2 * transport.PIPELINE_WINDOW
        expected = []
        for sid, epoch in keys:
            response = store.handle_request(bytes((cco.MSG_PQ,)) + sid + epoch.to_bytes(8, "big"))
            expected.append(response[2:] if response[1] == cco.STATUS_OK else None)
        assert [e is None for e in expected].count(True) == 3
        with transport.CcoServer(store) as server:
            with transport.CcoClient("127.0.0.1", server.port) as client:
                assert list(commitments(client, cco.MSG_PQ, keys)) == expected
                la_keys = [(ID_A, e) for e in range(1, 17)]
                la_blobs = list(commitments(client, cco.MSG_LA, la_keys))
                assert la_blobs == [store.la_commitment(ID_A, e).to_bytes()
                                    for e in range(1, 17)]

    def test_a_full_window_is_in_flight(self):
        # the server answers only after reading PIPELINE_WINDOW requests,
        # so a client that waited for each reply would time out
        store, *_ = provisioned_store(seed=21)
        port, thread = serve_once(lambda payloads: [store.handle_request(p) for p in payloads])
        keys = [(ID_A, epoch) for epoch in range(1, transport.PIPELINE_WINDOW + 1)]
        with transport.CcoClient("127.0.0.1", port, timeout=5) as client:
            blobs = list(commitments(client, cco.MSG_PQ, keys))
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert blobs == [store.pq_commitment(*key).to_bytes() for key in keys]

    def test_server_closing_mid_pipeline_raises(self):
        store, *_ = provisioned_store(seed=22)
        port, thread = serve_once(lambda payloads: [store.handle_request(p) for p in payloads[:3]])
        keys = [(ID_A, 1 + n % PQ_TOY.epochs) for n in range(40)]
        received = []
        with transport.CcoClient("127.0.0.1", port, timeout=5) as client:
            # EOF, or a reset once the client writes to the closed socket
            with pytest.raises((MalformedFrame, OSError)):
                for blob in commitments(client, cco.MSG_PQ, keys):
                    received.append(blob)
        thread.join(timeout=5)
        # a reset may discard replies that were already on their way
        assert len(received) <= 3
        assert received == [store.pq_commitment(*key).to_bytes() for key in keys[: len(received)]]
        assert not thread.is_alive()

    def test_abandoned_stream_leaves_the_connection_in_step(self):
        store, *_ = provisioned_store(seed=23)
        with transport.CcoServer(store) as server:
            with transport.CcoClient("127.0.0.1", server.port) as client:
                stream = commitments(client, cco.MSG_PQ, self.keys())
                assert len(list(islice(stream, 3))) == 3
                stream.close()
                assert fetch_pq(client, ID_B, 7).epoch == 7


class TestStorePersistence:
    def test_store_file_round_trip(self):
        store, states, public, material, group = provisioned_store(seed=14)
        restored = keyfiles.store_from_bytes(keyfiles.store_bytes(store))
        for epoch in (1, 7, 16):
            assert (
                restored.pq_commitment(ID_A, epoch).to_bytes()
                == store.pq_commitment(ID_A, epoch).to_bytes()
            )
        assert (
            restored.la_commitment(ID_B, 2).to_bytes()
            == store.la_commitment(ID_B, 2).to_bytes()
        )

    def test_partial_store_round_trip(self):
        _, material = pq.keygen([ID_A], PQ_TOY, fixed_rng(15))
        store = cco.CcoStore(material)
        restored = keyfiles.store_from_bytes(keyfiles.store_bytes(store))
        assert restored.pq_commitment(ID_A, 3).to_bytes() == store.pq_commitment(ID_A, 3).to_bytes()

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            keyfiles.store_from_bytes(b"not a store")

    def test_truncated_store_rejected(self):
        store, *_ = provisioned_store(seed=16)
        blob = keyfiles.store_bytes(store)
        for cut in range(len(b"HASES-STORE\x01"), len(blob)):  # from just after the magic
            with pytest.raises(ValueError):
                keyfiles.store_from_bytes(blob[:cut])


def pq_payload(signer_id, epoch):
    return bytes((cco.MSG_PQ,)) + signer_id + epoch.to_bytes(8, "big")


def cold_cost(material, payloads):
    """Hash calls of answering each payload once on a store with an empty cache."""
    store = cco.CcoStore(material)
    counters.reset()
    for payload in payloads:
        store.handle_request(payload)
    return counters.total()


def run_threads(targets, timeout=10.0):
    threads = [threading.Thread(target=target, daemon=True) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout)
    assert not any(thread.is_alive() for thread in threads)


def wait_until(condition, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.001)


class TestResponseCache:
    def test_repeat_costs_no_hashes(self):
        store, *_ = provisioned_store(seed=40)
        for payload in (pq_payload(ID_A, 6), bytes((cco.MSG_HY,)) + ID_B + (9).to_bytes(8, "big"),
                        bytes((cco.MSG_LA,)) + ID_A + (2).to_bytes(8, "big")):
            first = store.handle_request(payload)
            assert first[1] == cco.STATUS_OK
            counters.reset()
            assert store.handle_request(payload) == first
            assert counters.total() == 0
        assert store.cache_stats()[:3] == (3, 3, 0)

    def test_evicted_response_rebuilt_identically(self):
        _, material = pq.keygen([ID_A, ID_B], PQ_T1024, fixed_rng(43))
        store = cco.CcoStore(material)
        payloads = [pq_payload(sid, e) for sid in (ID_A, ID_B) for e in range(1, PQ_T1024.epochs + 1)]
        responses = []
        for payload in payloads:
            responses.append(store.handle_request(payload))
            counters.reset()
            store.handle_request(payloads[0])  # keeps the first payload recently used
            assert counters.total() == 0
            stats = store.cache_stats()
            assert stats.size == stats.entries * len(responses[0]) <= cco.RESPONSE_CACHE_BYTES
        assert stats.entries < len(payloads)
        counters.reset()
        assert store.handle_request(payloads[0]) == responses[0]
        assert counters.total() == 0
        # the least recently used one was evicted: asking again rebuilds it, bit for bit
        assert store.handle_request(payloads[1]) == responses[1]
        assert counters.total() == cold_cost(material, payloads[1:2]) > 0

    def test_a_response_beyond_the_budget_is_not_kept(self, monkeypatch):
        store, *_ = provisioned_store(seed=49)
        la_payload = bytes((cco.MSG_LA,)) + ID_A + (1).to_bytes(8, "big")
        la_len = len(store.handle_request(la_payload))
        monkeypatch.setattr(cco, "RESPONSE_CACHE_BYTES", 2 * la_len)
        store, *_ = provisioned_store(seed=49)
        store.handle_request(la_payload)
        assert len(store.handle_request(pq_payload(ID_A, 1))) > 2 * la_len
        assert store.cache_stats()[-2:] == (1, la_len)  # the la entry was not evicted for it
        counters.reset()
        store.handle_request(la_payload)
        assert counters.total() == 0
        store.handle_request(pq_payload(ID_A, 1))
        assert counters.total() > 0

    def test_refusals_are_not_cached(self):
        _, material = pq.keygen([ID_A], PQ_TOY, fixed_rng(44))
        store = cco.CcoStore(material)
        payload = pq_payload(ID_C, 2)
        for _ in range(2):
            assert store.handle_request(payload) == bytes((0x81, cco.STATUS_UNKNOWN_ID))
        # the second refusal was built again, not served from the cache
        stats = store.cache_stats()
        assert (stats.hits, stats.misses, stats.entries, stats.size) == (0, 2, 0, 0)
        response = store.handle_request(pq_payload(ID_A, 2))
        assert response[:2] == bytes((0x81, cco.STATUS_OK))
        assert store.cache_stats().entries == 1

    def test_malformed_and_range_refusals_are_not_cached(self):
        store, *_ = provisioned_store(seed=45)
        # k indices, so well formed by length, but one is not below t
        bad_index = opening_payload(cco.MSG_PQ_OPENING, ID_A, 1, [PQ_TOY.t] * PQ_TOY.k)
        out_of_range = pq_payload(ID_A, PQ_TOY.epochs + 1)
        for _ in range(2):
            assert store.handle_request(bad_index) == bytes((0x85, cco.STATUS_MALFORMED))
            assert store.handle_request(out_of_range) == bytes((0x81, cco.STATUS_EPOCH_RANGE))
        stats = store.cache_stats()
        assert (stats.hits, stats.misses, stats.entries, stats.size) == (0, 4, 0, 0)

    def test_exports_bypass_the_cache(self):
        store, *_ = provisioned_store(seed=46)
        body = bytes((cco.MSG_EXPORT, cco.MSG_PQ)) + ID_A + (2).to_bytes(8, "big") + (3).to_bytes(8, "big")
        first = store.handle_request(body)
        counters.reset()
        assert store.handle_request(body) == first
        assert counters.total() > 0
        assert store.cache_stats() == cco.CacheStats(0, 0, 2, 0, 0)

    def test_counts_account_for_every_request(self):
        store, *_ = provisioned_store(seed=47)
        sent = [pq_payload(ID_A, e) for e in (1, 2, 1, 3, 2, 1)]  # 3 misses, 3 hits
        sent += [pq_payload(ID_C, 1)] * 2  # unknown id: built each time
        sent += [b"", bytes((cco.MSG_PQ,)) + b"short", bytes((0x6E,)) + bytes(24)]
        sent += [bytes((cco.MSG_EXPORT, cco.MSG_LA)) + ID_B + (1).to_bytes(8, "big") * 2]
        for payload in sent:
            store.handle_request(payload)
        stats = store.cache_stats()
        assert stats[:3] == (3, 5, 4)
        assert sum(stats[:3]) == len(sent)
        assert stats.entries == 3

    def test_two_clients_over_loopback_build_each_payload_once(self):
        store, _, _, material, _ = provisioned_store(seed=48)
        rng = random.Random(48)
        sequence = [pq_payload(rng.choice((ID_A, ID_B)), rng.randint(1, PQ_TOY.epochs))
                    for _ in range(32)]
        distinct = list(dict.fromkeys(sequence))
        assert len(distinct) < len(sequence)
        expected_hashes = cold_cost(material, distinct)
        results = [None, None]
        with transport.CcoServer(store) as server:
            clients = [transport.CcoClient("127.0.0.1", server.port) for _ in range(2)]
            barrier = threading.Barrier(2)

            def run(n):
                barrier.wait()
                results[n] = [clients[n].request_raw(p) for p in sequence]

            counters.reset()
            run_threads([functools.partial(run, n) for n in range(2)])
            for client in clients:
                client.close()
        # both clients send the same sequence, so payloads are built in the
        # order they first occur, one build after another, each starting
        # from the chain cursor the previous one left: the same walks as
        # one client asking for them once
        assert counters.total() == expected_hashes
        assert counters.calls_h2 == len(distinct) * PQ_TOY.t
        reference = cco.CcoStore(material)
        assert results[0] == results[1] == [reference.handle_request(p) for p in sequence]
        stats = store.cache_stats()
        assert stats.misses == len(distinct)
        assert sum(stats[:3]) == 2 * len(sequence)


    def test_stress_with_evictions(self, monkeypatch):
        # random repeats over a budget of 4 responses: a wrong eviction
        # would break the replies, the counts or the size
        _, _, _, material, _ = provisioned_store(seed=54)
        payloads = [pq_payload(sid, e) for sid in (ID_A, ID_B) for e in range(1, 7)]
        reference = cco.CcoStore(material)
        expected = {p: reference.handle_request(p) for p in payloads}
        size = len(expected[payloads[0]])
        monkeypatch.setattr(cco, "RESPONSE_CACHE_BYTES", 4 * size)
        store = cco.CcoStore(material)
        rng = random.Random(54)
        sent = [rng.choice(payloads) for _ in range(1600)]
        assert [store.handle_request(p) for p in sent] == [expected[p] for p in sent]
        stats = store.cache_stats()
        assert stats.hits and stats.hits + stats.misses == len(sent)
        assert stats.size == stats.entries * size <= 4 * size


def stop_within(server, seconds):
    """Stop ``server``; fail instead of hanging if that takes longer than ``seconds``."""
    stopper = threading.Thread(target=server.stop, daemon=True)
    start = time.monotonic()
    stopper.start()
    stopper.join(timeout=seconds)
    assert not stopper.is_alive(), "stop() did not return"
    return time.monotonic() - start


class TestServerLifecycle:
    def test_stop_joins_the_handler_mid_build(self):
        store, *_ = provisioned_store(seed=53)
        build = store.pq_commitment
        started, finished = threading.Event(), []

        def slow_build(signer_id, epoch):
            started.set()
            time.sleep(0.2)
            commitment = build(signer_id, epoch)
            finished.append(epoch)
            return commitment

        store.pq_commitment = slow_build
        with transport.CcoServer(store) as server:
            with socket.create_connection(("127.0.0.1", server.port)) as sock:
                sock.sendall(struct.pack(">I", 25) + pq_payload(ID_A, 4))
                assert started.wait(5)
                stop_within(server, 5)
                assert finished == [4]

    def test_an_export_lets_other_requests_in_between_its_epochs(self):
        params = pq.PqParams(t=1024, k=16, j1=4, j2=16)
        _, material = pq.keygen([ID_A], params, fixed_rng(55))
        store = cco.CcoStore(material)
        build, pq_opening = store.pq_commitment, store.pq_opening
        built, answered, sent = [], [], threading.Event()

        def counted_build(signer_id, epoch):
            built.append(epoch)
            if epoch == 3:  # held until the opening has been sent
                assert sent.wait(10)
            return build(signer_id, epoch)

        store.pq_commitment = counted_build
        store.pq_opening = lambda *args: answered.append(len(built)) or pq_opening(*args)
        opening = opening_payload(cco.MSG_PQ_OPENING, ID_A, 2, range(16))
        exported = []
        with transport.CcoServer(store) as server:
            with transport.CcoClient("127.0.0.1", server.port) as exporter, \
                    socket.create_connection(("127.0.0.1", server.port)) as other:
                export = threading.Thread(target=lambda: exported.append(
                    exporter.batch_export(cco.MSG_PQ, ID_A, 1, params.epochs)))
                export.start()
                wait_until(lambda: len(built) == 3)
                sent_after = len(built)
                other.sendall(struct.pack(">I", len(opening)) + opening)
                sent.set()
                with other.makefile("rb") as stream:
                    assert transport.read_frame(stream)[:2] == bytes((0x85, cco.STATUS_OK))
                export.join(10)
                assert not export.is_alive()
        assert len(exported[0]) == params.epochs
        # The opening came during the export's third build: the loop's next
        # turn builds one more epoch of the export, then answers it.
        assert answered[0] - sent_after <= 2

    def test_stop_waits_for_builds_in_progress(self):
        params = pq.PqParams(t=1024, k=16, j1=4, j2=64)
        _, material = pq.keygen([ID_A], params, fixed_rng(50))
        store = cco.CcoStore(material)
        frames = b"".join(
            struct.pack(">I", 25) + pq_payload(ID_A, e) for e in range(1, params.epochs + 1)
        )
        with transport.CcoServer(store) as server:
            with socket.create_connection(("127.0.0.1", server.port)) as sock:
                # 256 distinct t=1024 builds (about 0.5 s), never read
                counters.reset()
                sock.sendall(frames)
                wait_until(lambda: counters.total() > 0)
                stop_within(server, 5)
                settled = counters.total()
                time.sleep(0.2)
                assert counters.total() == settled
                assert settled < params.epochs * 2 * params.t  # stop cut the work short

    def test_stop_is_prompt_with_an_idle_client_connected(self):
        store, *_ = provisioned_store(seed=51)
        server = transport.CcoServer(store)
        server.start()
        with transport.CcoClient("127.0.0.1", server.port, timeout=5) as client:
            assert fetch_pq(client, ID_A, 1).epoch == 1
            assert stop_within(server, 5) < 1.0
            # the service hung up: the idle connection sees the end of the stream
            with pytest.raises((MalformedFrame, OSError)):
                fetch_pq(client, ID_A, 2)

    def test_connection_errors_are_logged_with_the_peer(self, caplog):
        store, *_ = provisioned_store(seed=52)
        with caplog.at_level("WARNING", logger="hases.cco"):
            with transport.CcoServer(store) as server:
                with socket.create_connection(("127.0.0.1", server.port)) as sock:
                    malformed_peer = sock.getsockname()
                    sock.sendall(b"\xff\xff\xff\xff")  # beyond MAX_FRAME
                    assert sock.recv(16) == struct.pack(">I", 2) + bytes((0x80, cco.STATUS_MALFORMED))
                reset = socket.create_connection(("127.0.0.1", server.port))
                reset_peer = reset.getsockname()
                # close with a reset while the request is being answered
                reset.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
                reset.sendall(struct.pack(">I", 25) + pq_payload(ID_A, 1))
                reset.close()
                wait_until(lambda: len(caplog.records) >= 2)
        messages = [record.getMessage() for record in caplog.records]
        assert any("malformed frame from %s:%d" % malformed_peer in m for m in messages)
        assert any("connection from %s:%d dropped" % reset_peer in m for m in messages)


def settled(values, quiet=0.3):
    """len(values) once it has not grown for ``quiet`` seconds."""
    while True:
        count = len(values)
        time.sleep(quiet)
        if len(values) == count:
            return count


class TestBounds:
    """The loop's three bounds, each proved with its constant set low."""

    def test_a_connection_beyond_the_cap_is_closed_and_logged(self, monkeypatch, caplog):
        monkeypatch.setattr(transport, "MAX_CONNECTIONS", 2)
        store, *_ = provisioned_store(seed=56)
        closed = lambda: sum("closed after" in r.getMessage() for r in caplog.records)
        with caplog.at_level("DEBUG", logger="hases.cco"):
            with transport.CcoServer(store) as server:
                with transport.CcoClient("127.0.0.1", server.port, timeout=5) as first, \
                        transport.CcoClient("127.0.0.1", server.port, timeout=5) as second:
                    assert fetch_pq(first, ID_A, 1).epoch == 1
                    assert fetch_pq(second, ID_A, 2).epoch == 2
                    with socket.create_connection(("127.0.0.1", server.port), timeout=5) as third:
                        refused = third.getsockname()
                        assert third.recv(16) == b""  # closed before any request
                    assert fetch_pq(first, ID_A, 3).epoch == 3
                wait_until(lambda: closed() == 2)
                with transport.CcoClient("127.0.0.1", server.port, timeout=5) as fourth:
                    assert fetch_pq(fourth, ID_A, 4).epoch == 4
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == ["connection from %s:%d refused: 2 connections open" % refused]

    def test_an_idle_connection_is_closed_after_the_timeout(self, monkeypatch, caplog):
        monkeypatch.setattr(transport, "IDLE_TIMEOUT_S", 0.3)
        store, *_ = provisioned_store(seed=57)
        with caplog.at_level("DEBUG", logger="hases.cco"):
            with transport.CcoServer(store) as server:
                opened = time.time()
                with socket.create_connection(("127.0.0.1", server.port), timeout=5) as idle, \
                        transport.CcoClient("127.0.0.1", server.port, timeout=5) as busy:
                    peer = idle.getsockname()
                    # a connection that asks every 0.1 s outlives three timeouts
                    while time.time() - opened < 1.0:
                        assert fetch_pq(busy, ID_A, 1).epoch == 1
                        time.sleep(0.1)
                    assert idle.recv(16) == b""
        message = "connection from %s:%d idle for 0.3 s" % peer
        (record,) = [r for r in caplog.records if r.getMessage() == message]
        assert 0.3 <= record.created - opened < 1.0

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads socket queues")
    def test_a_client_that_does_not_read_stops_its_connection_at_the_output_cap(
            self, monkeypatch):
        import fcntl
        import termios

        def queued(sock, request):
            return struct.unpack("i", fcntl.ioctl(sock, request, bytes(4)))[0]

        params = pq.PqParams(t=1024, k=16, j1=4, j2=16)
        _, material = pq.keygen([ID_A], params, fixed_rng(58))
        store = cco.CcoStore(material)
        frame = 4 + 2 + pq.HEADER_LEN + 32 * params.t  # one framed reply
        monkeypatch.setattr(transport, "OUTPUT_CAP", 4 * frame)
        build, built = store.pq_commitment, []
        store.pq_commitment = lambda *args: built.append(args) or build(*args)
        payloads = [pq_payload(ID_A, epoch) for epoch in range(1, params.epochs + 1)]
        with transport.CcoServer(store) as server:
            # small socket buffers, which accepted sockets take from the
            # listener: else 64 replies fit in them
            server._listener.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 1 << 16)
            with socket.socket() as sock:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 16)
                sock.settimeout(5)
                sock.connect(("127.0.0.1", server.port))
                sock.sendall(b"".join(struct.pack(">I", 25) + p for p in payloads))
                answered = settled(built)
                (conn,) = server._connections
                # what the sockets hold: the client's unread bytes, the server's unsent ones
                held = queued(sock, termios.FIONREAD) + queued(conn.sock, termios.TIOCOUTQ)
                assert answered < len(payloads)
                assert transport.OUTPUT_CAP < answered * frame - held <= transport.OUTPUT_CAP + frame
                # a further request stays unread in the server's socket
                sock.sendall(struct.pack(">I", 25) + payloads[0])
                assert settled(built) == answered
                assert queued(conn.sock, termios.FIONREAD) == 29
                with sock.makefile("rb") as stream:
                    replies = [transport.read_frame(stream) for _ in range(len(payloads) + 1)]
        reference = cco.CcoStore(material)
        assert replies == [reference.handle_request(p) for p in payloads + payloads[:1]]


# --- openings: the k entries a signature opens ------------------------------------


def opening_payload(msg_type, signer_id, epoch, indices):
    return (bytes((msg_type,)) + signer_id + epoch.to_bytes(8, "big")
            + b"".join(x.to_bytes(4, "big") for x in indices))


@functools.cache
def t1024_store():
    """A hy store at t=1024, k=16 on the production group."""
    group = production_group()
    states, public, material = hy.keygen([ID_A, ID_B], group, 4, PQ_T1024, fixed_rng(70))
    store = cco.CcoStore(material)
    return store, states, public, material, group


class TestOpeningRequests:
    INDICES = (5, 1023, 0, 5, 512, 1, 2, 3, 4, 700, 5, 6, 7, 8, 9, 10)  # duplicates included

    def test_pq_opening_is_the_slice_of_the_commitment(self):
        store, *_ = t1024_store()
        for epoch in (1, 4, 5, 16):  # both sides of the anchor boundary at epoch 5
            full = pq.PqCommitment.from_bytes(store.handle_request(pq_payload(ID_A, epoch))[2:])
            response = store.handle_request(
                opening_payload(cco.MSG_PQ_OPENING, ID_A, epoch, self.INDICES))
            assert response[:2] == bytes((0x85, cco.STATUS_OK))
            assert len(response) == 539 and len(full.to_bytes()) + 2 == 32795
            assert response[2:] == full.open(self.INDICES, PQ_T1024).to_bytes()

    def test_a_hy_opening_request_is_malformed_at_no_cost(self):
        # 0x06 is unassigned: a hy verifier opens the pq part with 0x05
        store, *_ = t1024_store()
        before = store.cache_stats()
        counters.reset()
        for payload in (opening_payload(0x06, ID_B, 6, self.INDICES), bytes((0x06,))):
            assert store.handle_request(payload) == bytes((0x86, cco.STATUS_MALFORMED))
        assert counters.total() == 0
        assert store.cache_stats().bypassed - before.bypassed == 2
        pq_part = store.handle_request(opening_payload(cco.MSG_PQ_OPENING, ID_B, 6, self.INDICES))
        full = hy.HyCommitment.from_bytes(store.handle_request(
            bytes((cco.MSG_HY,)) + ID_B + (6).to_bytes(8, "big"))[2:])
        assert pq_part[2:] == full.pq.open(self.INDICES, PQ_T1024).to_bytes()

    def test_statuses_and_no_hashing_for_refusals(self):
        store, *_ = t1024_store()
        good = self.INDICES
        cases = {
            cco.STATUS_MALFORMED: [
                good[:-1], good + (0,), good[:-1] + (1024,), good[:-1] + (2**32 - 1,),
            ],
        }
        msg_type = cco.MSG_PQ_OPENING
        counters.reset()
        for indices in cases[cco.STATUS_MALFORMED]:
            response = store.handle_request(opening_payload(msg_type, ID_A, 2, indices))
            assert response == bytes((msg_type | 0x80, cco.STATUS_MALFORMED))
        payload = opening_payload(msg_type, ID_A, 2, good)
        for truncated in (payload[:-1], payload[:-4], payload[:25], payload[:24],
                          payload + bytes(4 * 241)):  # over MAX_OPENING_INDICES
            assert store.handle_request(truncated)[1] == cco.STATUS_MALFORMED
        assert store.handle_request(opening_payload(msg_type, ID_C, 2, good)) == bytes(
            (msg_type | 0x80, cco.STATUS_UNKNOWN_ID))
        for epoch in (0, PQ_T1024.epochs + 1):
            assert store.handle_request(opening_payload(msg_type, ID_A, epoch, good)) == bytes(
                (msg_type | 0x80, cco.STATUS_EPOCH_RANGE))
        assert counters.total() == 0

    def test_an_opening_costs_the_walk_and_2k_hashes(self):
        # a store of its own: what the shared one walked before would move its chain cursor
        store = cco.CcoStore(t1024_store()[3])
        for epoch, walk in ((3, 2 + 1), (8, 3)):  # segment 0 also derives the first seed
            payload = opening_payload(cco.MSG_PQ_OPENING, ID_B, epoch, self.INDICES)
            counters.reset()
            assert store.handle_request(payload)[1] == cco.STATUS_OK
            assert counters.total() == walk + 2 * PQ_T1024.k
            counters.reset()
            store.handle_request(payload)  # cached
            assert counters.total() == 0

    def test_two_verifiers_of_a_hy_unit_share_one_build(self):
        store, *_ = provisioned_store(seed=71)
        payload = opening_payload(cco.MSG_PQ_OPENING, ID_A, 3, (1, 7, 7, 0))
        before = store.cache_stats()
        responses = []
        with transport.CcoServer(store) as server:
            clients = [transport.CcoClient("127.0.0.1", server.port) for _ in range(4)]
            barrier = threading.Barrier(4)

            def ask(client):
                barrier.wait()
                responses.append(client.request_raw(payload))

            run_threads([functools.partial(ask, client) for client in clients])
            for client in clients:
                client.close()
        after = store.cache_stats()
        assert len(set(responses)) == 1 and responses[0][1] == cco.STATUS_OK
        assert after.misses - before.misses == 1
        assert after.hits - before.hits == 3


class TestOpeningsOverTcp:
    def test_openings_in_request_order(self):
        store, *_ = provisioned_store(seed=72)
        rng = random.Random(73)
        keys = [(sid, epoch) for epoch in range(1, PQ_TOY.epochs + 1) for sid in (ID_A, ID_B)]
        keys += [(ID_C, 2), (ID_A, 0), (ID_B, PQ_TOY.epochs + 1)]
        indices = [tuple(rng.randrange(PQ_TOY.t) for _ in range(PQ_TOY.k)) for _ in keys]
        indices[3] = (0, 1, 2)  # malformed: not k indices
        expected = []
        for key, opened in zip(keys, indices):
            response = store.handle_request(opening_payload(cco.MSG_PQ_OPENING, *key, opened))
            expected.append(response[2:] if response[1] == cco.STATUS_OK else None)
        assert expected.count(None) == 4
        with transport.CcoServer(store) as server:
            with transport.CcoClient("127.0.0.1", server.port) as client:
                assert list(client.ok_bodies(
                    opening_payload(cco.MSG_PQ_OPENING, *key, opened)
                    for key, opened in zip(keys, indices))) == expected

    def test_a_full_window_of_the_largest_openings_is_in_flight(self):
        # k = 256 (t = 2) makes the largest request a client sends:
        # 4 + 1 + 24 + 4k = 1053 bytes; the server reads a whole window
        # of them before it answers any
        params = pq.PqParams(t=2, k=256, j1=2, j2=8)
        _, material = pq.keygen([ID_A], params, fixed_rng(74))
        store = cco.CcoStore(material)
        rng = random.Random(75)
        keys = [(ID_A, epoch) for epoch in range(1, transport.PIPELINE_WINDOW + 1)]
        indices = [tuple(rng.randrange(2) for _ in range(params.k)) for _ in keys]
        assert len(opening_payload(cco.MSG_PQ_OPENING, ID_A, 1, indices[0])) + 4 == 1053
        port, thread = serve_once(lambda payloads: [store.handle_request(p) for p in payloads])
        with transport.CcoClient("127.0.0.1", port, timeout=5) as client:
            blobs = list(client.ok_bodies(opening_payload(cco.MSG_PQ_OPENING, *key, opened)
                                          for key, opened in zip(keys, indices)))
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert blobs == [store.pq_opening(*key, opened).to_bytes()
                         for key, opened in zip(keys, indices)]

    def test_both_ends_disable_nagle(self):
        store, *_ = provisioned_store(seed=76)
        with transport.CcoServer(store) as server:
            with transport.CcoClient("127.0.0.1", server.port) as client:
                assert client._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
                assert fetch_pq(client, ID_A, 1).epoch == 1
                # the server sets the option as it accepts, before the first reply
                (accepted,) = server._connections
                assert accepted.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    def test_connections_logged_with_the_peer_and_the_requests_served(self, caplog):
        store, *_ = provisioned_store(seed=77)
        with caplog.at_level("DEBUG", logger="hases.cco"):
            with transport.CcoServer(store) as server:
                with transport.CcoClient("127.0.0.1", server.port) as client:
                    peer = client._sock.getsockname()
                    list(commitments(client, cco.MSG_PQ, [(ID_A, 1), (ID_A, 2), (ID_C, 1)]))
                wait_until(lambda: any("closed" in r.getMessage() for r in caplog.records))
        messages = [(r.levelname, r.getMessage()) for r in caplog.records if r.name == "hases.cco"]
        assert ("DEBUG", "connection from %s:%d opened" % peer) in messages
        assert ("DEBUG", "connection from %s:%d closed after 3 requests" % peer) in messages


# --- the chain cursor: consecutive epochs walk one step each ---------------------------

PQ_RUNS = pq.PqParams(t=8, k=4, j1=4, j2=8)  # 32 epochs


def runs_store(seed):
    group = small_test_group()
    _, _, material = hy.keygen([ID_A, ID_B], group, 3, PQ_RUNS, fixed_rng(seed))
    store = cco.CcoStore(material)
    return store, material


def fresh_store(material):
    """A store of ``material`` that has answered nothing before."""
    store = cco.CcoStore(material)
    return store


def fresh_response(material, payload):
    """The response of a store that has answered nothing before."""
    return fresh_store(material).handle_request(payload)


def anchor_walk(params, epoch):
    segment, offset = divmod(epoch - 1, params.j2)
    return offset + (segment == 0)


class TestChainCursor:
    def payloads(self, rng, epochs, signer_id=ID_A):
        """One request of a random single-epoch type per epoch, openings
        at random indices."""
        out = []
        for epoch in epochs:
            msg_type = rng.choice((cco.MSG_PQ, cco.MSG_HY, cco.MSG_PQ_OPENING))
            if msg_type in (cco.MSG_PQ, cco.MSG_HY):
                out.append(bytes((msg_type,)) + signer_id + epoch.to_bytes(8, "big"))
            else:
                indices = [rng.randrange(PQ_RUNS.t) for _ in range(PQ_RUNS.k)]
                out.append(opening_payload(msg_type, signer_id, epoch, indices))
        return out

    def test_responses_match_a_fresh_store_byte_for_byte(self, monkeypatch):
        monkeypatch.setattr(cco, "RESPONSE_CACHE_BYTES", 0)  # every request is built
        store, material = runs_store(80)
        rng = random.Random(81)
        shuffled = list(range(1, PQ_RUNS.epochs + 1))
        rng.shuffle(shuffled)
        orders = [
            shuffled,
            range(PQ_RUNS.epochs, 0, -1),  # backward
            range(5, 14),  # across the boundary at epoch 9
            range(1, PQ_RUNS.epochs + 1),
        ]
        sent = []
        for order in orders:
            for signer_id in (ID_A, ID_B):
                sent += self.payloads(rng, order, signer_id)
        sent += [bytes((cco.MSG_EXPORT, scheme)) + ID_B + (3).to_bytes(8, "big")
                 + (20).to_bytes(8, "big") for scheme in (cco.MSG_PQ, cco.MSG_HY)]
        sent += self.payloads(rng, range(21, 25), ID_B)  # on from where the export stopped
        for payload in sent:
            response = store.handle_request(payload)
            assert response[1] == cco.STATUS_OK
            assert response == fresh_response(material, payload)
        assert store.cache_stats().hits == 0

    def test_responses_match_after_a_storage_policy_change(self, monkeypatch):
        monkeypatch.setattr(cco, "RESPONSE_CACHE_BYTES", 0)
        _, material = runs_store(82)
        rng = random.Random(83)
        for j1 in (4, 2, 8, 1, 32):
            store = cco.CcoStore(material._replace(pq=anchored_for(material.pq, j1)))
            for start in rng.sample(range(1, PQ_RUNS.epochs - 5), 2):
                for payload in self.payloads(rng, range(start, start + 6)):
                    assert store.handle_request(payload) == fresh_response(material, payload)

    @pytest.mark.parametrize("msg_type", [cco.MSG_PQ_OPENING])
    @pytest.mark.parametrize("first", [1, 4, 9, 12])  # segment 0, then segment 1
    def test_consecutive_cold_openings_cost_one_walk_then_one_step_each(self, msg_type, first):
        store, _ = runs_store(85)
        n = PQ_RUNS.j2 - (first - 1) % PQ_RUNS.j2  # to the end of the segment
        payloads = [opening_payload(msg_type, ID_A, e, (1, 2, 3, 4)) for e in range(first, first + n)]
        counters.reset()
        for payload in payloads:
            assert store.handle_request(payload)[1] == cco.STATUS_OK
        walk = anchor_walk(PQ_RUNS, first)
        assert counters.total() == walk + (n - 1) + 2 * PQ_RUNS.k * n

    def test_no_request_costs_more_than_its_anchor_walk(self, monkeypatch):
        monkeypatch.setattr(cco, "RESPONSE_CACHE_BYTES", 0)
        store, material = runs_store(86)
        rng = random.Random(87)
        epochs = [rng.randint(1, PQ_RUNS.epochs) for _ in range(40)]
        epochs += list(range(3, 20)) + list(range(30, 10, -1))
        for epoch in epochs:
            signer_id = rng.choice((ID_A, ID_B))
            indices = [rng.randrange(PQ_RUNS.t) for _ in range(PQ_RUNS.k)]
            for payload, entries in (
                (pq_payload(signer_id, epoch), 2 * PQ_RUNS.t),
                (opening_payload(cco.MSG_PQ_OPENING, signer_id, epoch, indices), 2 * PQ_RUNS.k),
            ):
                counters.reset()
                store.handle_request(payload)
                cost = counters.total()
                assert cost <= anchor_walk(PQ_RUNS, epoch) + entries
            # the opening repeats the commitment's epoch: no walk at all
            assert cost == entries

    def test_an_export_leaves_the_cursor_at_its_last_epoch(self):
        store, _ = runs_store(88)
        body = bytes((cco.MSG_PQ,)) + ID_A + (2).to_bytes(8, "big") + (6).to_bytes(8, "big")
        assert store.handle_request(bytes((cco.MSG_EXPORT,)) + body)[1] == cco.STATUS_OK
        counters.reset()
        store.handle_request(opening_payload(cco.MSG_PQ_OPENING, ID_A, 7, (0, 1, 2, 3)))
        assert counters.total() == 1 + 2 * PQ_RUNS.k

    def test_an_export_costs_its_single_requests_on_a_fresh_store(self):
        _, material = runs_store(95)
        # from the anchor at 9, up to the one at 17, across 9, 17 and 25,
        # the whole chain, inside segment 0
        for lo, hi in ((9, 12), (13, 17), (5, 28), (1, PQ_RUNS.epochs), (2, 7)):
            for scheme in (cco.MSG_PQ, cco.MSG_LA, cco.MSG_HY):
                counters.reset()
                store = fresh_store(material)
                for epoch in range(lo, hi + 1):
                    payload = cco.commitment_payload(scheme, ID_A, epoch)
                    assert store.handle_request(payload)[1] == cco.STATUS_OK
                one_by_one = counters.total()
                counters.reset()
                export = cco.export_payload(scheme, ID_A, lo, hi)
                assert fresh_store(material).handle_request(export)[1] == cco.STATUS_OK
                assert counters.total() == one_by_one, (scheme, lo, hi)

    def test_unknown_ids_get_no_entry(self):
        store, _ = runs_store(89)
        for payload in (pq_payload(ID_C, 3), opening_payload(cco.MSG_PQ_OPENING, ID_C, 3, (0,) * 4),
                        pq_payload(ID_A, PQ_RUNS.epochs + 1), pq_payload(ID_B, 2)):
            store.handle_request(payload)
        assert set(store._cursor) == {ID_B}


# --- runs: one opening request over consecutive epochs ------------------------------


class TestOpeningRuns:
    # (first epoch, epochs): inside segment 0, across the anchors at epochs
    # 9, 17 and 25, the whole chain, the last epochs
    RUNS = [(1, 5), (6, 4), (8, 2), (9, 3), (3, PQ_RUNS.epochs - 2), (1, PQ_RUNS.epochs),
            (30, 3)]

    def singles(self, rng, first, count):
        """One opening payload per epoch of the run, at random indices."""
        return [opening_payload(cco.MSG_PQ_OPENING, ID_A, epoch,
                                [rng.randrange(PQ_RUNS.t) for _ in range(PQ_RUNS.k)])
                for epoch in range(first, first + count)]

    @staticmethod
    def run(singles):
        """The payload of one request over the epochs of ``singles``."""
        return singles[0] + b"".join(single[25:] for single in singles[1:])

    def test_a_runs_reply_is_its_single_openings_joined(self):
        _, material = runs_store(90)
        rng = random.Random(91)
        for first, count in self.RUNS:
            singles = self.singles(rng, first, count)
            replies = [fresh_response(material, single) for single in singles]
            reply = fresh_response(material, self.run(singles))
            # the first single's head and header, then every single's entries
            assert reply == replies[0] + b"".join(r[2 + pq.HEADER_LEN :] for r in replies[1:])
            opening = pq.PqOpening.from_bytes(reply[2:])
            assert opening.per_epoch(PQ_RUNS.k) == [pq.PqOpening.from_bytes(r[2:]) for r in replies]

    def test_a_run_costs_its_single_openings_on_a_fresh_store(self):
        _, material = runs_store(92)
        rng = random.Random(93)
        for first, count in self.RUNS:
            singles = self.singles(rng, first, count)
            store = cco.CcoStore(material)
            counters.reset()
            for single in singles:
                assert store.handle_request(single)[1] == cco.STATUS_OK
            one_by_one = counters.total()
            store = cco.CcoStore(material)
            counters.reset()
            assert store.handle_request(self.run(singles))[1] == cco.STATUS_OK
            assert counters.total() == one_by_one
            # the anchor walk, one step per further epoch but at an anchor, 2k per epoch
            anchors = sum(1 for e in range(first + 1, first + count) if (e - 1) % PQ_RUNS.j2 == 0)
            assert one_by_one == (anchor_walk(PQ_RUNS, first) + count - 1 - anchors
                                  + 2 * PQ_RUNS.k * count)
            # the cursor is left at the run's last epoch
            last = first + count - 1
            if last < PQ_RUNS.epochs and last % PQ_RUNS.j2:
                counters.reset()
                store.handle_request(self.singles(rng, last + 1, 1)[0])
                assert counters.total() == 1 + 2 * PQ_RUNS.k

    def test_refusals_cost_nothing(self):
        store, _ = runs_store(94)
        good = list(range(PQ_RUNS.k)) * 2
        cases = {
            cco.STATUS_MALFORMED: [
                (ID_A, 2, good + [0]),  # not a multiple of k
                (ID_A, 2, good[:-1]),
                (ID_A, 2, good[:-1] + [PQ_RUNS.t]),  # an index of the second epoch
                (ID_A, 2, [0] * (cco.MAX_OPENING_INDICES + PQ_RUNS.k)),  # over the bound
            ],
            cco.STATUS_EPOCH_RANGE: [(ID_A, PQ_RUNS.epochs, good), (ID_A, 0, good),
                                     (ID_A, PQ_RUNS.epochs - 1, good * 2)],
            cco.STATUS_UNKNOWN_ID: [(ID_C, 2, good)],
        }
        counters.reset()
        for status, requests in cases.items():
            for request in requests:
                response = store.handle_request(opening_payload(cco.MSG_PQ_OPENING, *request))
                assert response == bytes((cco.MSG_PQ_OPENING | 0x80, status)), request
        assert counters.total() == 0
        # the whole chain in one request, at the bound's 256 / k epochs or less
        payload = opening_payload(cco.MSG_PQ_OPENING, ID_A, 1, [0] * cco.MAX_OPENING_INDICES)
        assert len(payload) == 1049 and store.handle_request(payload)[1] == cco.STATUS_EPOCH_RANGE
        whole = opening_payload(cco.MSG_PQ_OPENING, ID_A, 1, [0] * PQ_RUNS.k * PQ_RUNS.epochs)
        assert store.handle_request(whole)[1] == cco.STATUS_OK


# --- fuzz: handle_request through the cache ------------------------------------


@functools.cache
def fuzz_material():
    return provisioned_store(seed=60)[3]


@functools.cache
def fuzz_store():
    """One store for every example, so the cache fills as the fuzz runs."""
    store = cco.CcoStore(fuzz_material())
    return store


_ids = st.sampled_from([ID_A, ID_B, ID_C]) | st.binary(min_size=16, max_size=16)
_epochs = st.integers(1, PQ_TOY.epochs) | st.sampled_from([0, PQ_TOY.epochs + 1, 2**64 - 1])


@st.composite
def request_payloads(draw):
    kind = draw(st.sampled_from(["raw", "single", "export", "opening", "combined"]))
    if kind == "raw":
        return draw(st.binary(max_size=40))
    signer_id = draw(_ids)
    if kind == "combined":
        # id, seed, a response sum mostly below q = 11, then the epochs:
        # 1 to 64 of them, now and then none or 65; now and then cut short
        seed = draw(st.sampled_from([bytes(32), b"s" * 32]))
        # a draw of 3 in 0..4 picks each rarer case (hypothesis favours 0)
        agg = draw(st.sampled_from([11, 2**256 - 1]) if draw(st.integers(0, 4)) == 3
                   else st.integers(0, 10))
        count = draw(st.sampled_from([0, cco.MAX_COMBINED_EPOCHS, cco.MAX_COMBINED_EPOCHS + 1])
                     if draw(st.integers(0, 4)) == 3 else st.integers(1, 4))
        epochs = draw(st.lists(st.integers(1, PQ_TOY.epochs), min_size=count, max_size=count))
        if epochs and draw(st.integers(0, 4)) == 3:
            epochs[-1] = draw(_epochs)
        payload = cco.combined_payload(signer_id, seed, agg, epochs)
        return payload[: draw(st.integers(1, len(payload)))] if draw(st.integers(0, 4)) == 3 else payload
    if kind == "opening":
        # k = 4 indices per epoch of a run, below t = 8, or a wrong count,
        # a large index, duplicates
        count = draw(st.sampled_from([PQ_TOY.k] * 3 + [2 * PQ_TOY.k, 5 * PQ_TOY.k]
                                     + [0, 1, PQ_TOY.k + 1, 300]))
        index = st.integers(0, PQ_TOY.t - 1) | st.sampled_from([PQ_TOY.t, 2**32 - 1])
        indices = draw(st.lists(index, min_size=count, max_size=count))
        if indices and draw(st.booleans()):
            indices[-1] = indices[0]
        payload = opening_payload(cco.MSG_PQ_OPENING, signer_id, draw(_epochs), indices)
        return payload[: draw(st.integers(1, len(payload)))] if draw(st.booleans()) else payload
    if kind == "single":
        msg_type = draw(st.sampled_from([cco.MSG_PQ, cco.MSG_LA, cco.MSG_HY]))
        body = signer_id + draw(_epochs).to_bytes(8, "big")
        # now and then the L(4) field an aggregate request once carried: malformed
        if draw(st.integers(0, 3)) == 0:
            body += draw(st.sampled_from([3, 0]) | st.integers(0, 2**32 - 1)).to_bytes(4, "big")
        return bytes((msg_type,)) + body
    scheme = draw(st.sampled_from([cco.MSG_PQ, cco.MSG_LA, cco.MSG_HY]) | st.integers(0, 255))
    lo, hi = draw(_epochs), draw(_epochs)
    return bytes((cco.MSG_EXPORT, scheme)) + signer_id + lo.to_bytes(8, "big") + hi.to_bytes(8, "big")


@settings(max_examples=500, deadline=None)
@given(request_payloads())
def test_fuzz_cached_responses_match_a_fresh_store(payload):
    store = fuzz_store()
    response = store.handle_request(payload)
    fresh = cco.CcoStore(fuzz_material())
    assert response == fresh.handle_request(payload)
    assert store.handle_request(payload) == response
    assert response[1] in (cco.STATUS_OK, cco.STATUS_UNKNOWN_ID, cco.STATUS_EPOCH_RANGE,
                           cco.STATUS_MALFORMED)
