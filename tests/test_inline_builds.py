"""The service builds every reply inline, on the one thread of its loop:
each reply a ``CcoServer`` sends, and the hash calls it makes for it, are
those of the same request to an in-process store, for every request type,
for full pq builds at either end of the epoch range, and for two builds
asked for at once."""

import functools
import random
import threading

import pytest

from hases import cco, hy, la, pq, transport
from hases.group import production_group, small_test_group
from hases.hashing import counters

ID_A = bytes([0xA1]) * 16
ID_B = bytes([0xB2]) * 16
GROUPS = {"production": production_group, "tiny": small_test_group}
PARAMS = {
    "production": pq.PqParams(t=1024, k=16, j1=4, j2=4),
    "tiny": pq.PqParams(t=16, k=4, j1=2, j2=4),
}


@functools.cache
def material(backend):
    rng = random.Random(backend)
    return hy.keygen([ID_A, ID_B], GROUPS[backend](), 4, PARAMS[backend], rng.randbytes)[2]


def counted(ask, request):
    """(reply, hash calls made while ``ask`` answered ``request``)."""
    before = counters.total()
    reply = ask(request)
    return reply, counters.total() - before


# each request as (kind, its arguments for params p, the status it gets);
# kind "request" is one frame payload, "export" the arguments of batch_export
REQUESTS = {
    "pq-first-epoch": ("request", lambda p: cco.commitment_payload(cco.MSG_PQ, ID_A, 1), cco.STATUS_OK),
    "pq-middle-epoch": ("request", lambda p: cco.commitment_payload(cco.MSG_PQ, ID_B, p.epochs // 2),
                        cco.STATUS_OK),
    "pq-last-epoch": ("request", lambda p: cco.commitment_payload(cco.MSG_PQ, ID_A, p.epochs),
                      cco.STATUS_OK),
    "la": ("request", lambda p: cco.commitment_payload(cco.MSG_LA, ID_B, 2), cco.STATUS_OK),
    "hy-first-epoch": ("request", lambda p: cco.commitment_payload(cco.MSG_HY, ID_B, 1), cco.STATUS_OK),
    "hy-middle-epoch": ("request", lambda p: cco.commitment_payload(cco.MSG_HY, ID_A, p.epochs // 2),
                        cco.STATUS_OK),
    "hy-last-epoch": ("request", lambda p: cco.commitment_payload(cco.MSG_HY, ID_B, p.epochs),
                      cco.STATUS_OK),
    "hy-past-the-range": ("request", lambda p: cco.commitment_payload(cco.MSG_HY, ID_A, p.epochs + 1),
                          cco.STATUS_EPOCH_RANGE),
    "opening": ("request", lambda p: cco.opening_payload(ID_A, 1, list(range(p.k)) * 2),
                cco.STATUS_OK),
    "combined": ("request", lambda p: cco.combined_payload(ID_B, b"s" * 32, 5, [1, 2, 3]),
                 cco.STATUS_OK),
    "pq-export": ("export", lambda p: (cco.MSG_PQ, ID_A, 1, 6), None),
    "hy-export": ("export", lambda p: (cco.MSG_HY, ID_B, 4, 8), None),
}


@pytest.mark.parametrize("name", sorted(REQUESTS))
@pytest.mark.parametrize("backend", sorted(PARAMS))
def test_a_served_reply_and_its_hash_calls_are_the_in_process_stores(backend, name):
    kind, arguments, status = REQUESTS[name]
    request = arguments(PARAMS[backend])
    store = cco.CcoStore(material(backend))
    if kind == "request":
        expected = counted(store.handle_request, request)
        assert expected[0][1] == status
        if status != cco.STATUS_OK:
            assert expected[1] == 0  # refused before any hashing
    else:
        expected = counted(lambda args: store.batch_export(*args), request)
        assert len(expected[0]) == request[3] - request[2] + 1
    with transport.CcoServer(cco.CcoStore(material(backend))) as server:
        with transport.CcoClient("127.0.0.1", server.port) as client:
            ask = client.request_raw if kind == "request" else lambda args: client.batch_export(*args)
            got = counted(ask, request)
    assert got == expected  # byte for byte, and the same hash calls


@pytest.mark.parametrize("scheme", (cco.MSG_PQ, cco.MSG_HY))
def test_a_two_label_store_serves_every_epoch_as_in_process(scheme):
    params = pq.PqParams(t=2, k=1, j1=2, j2=4)
    hy_material = hy.keygen([ID_A], small_test_group(), 4, params, random.Random(2).randbytes)[2]
    payloads = [cco.commitment_payload(scheme, ID_A, epoch) for epoch in range(1, params.epochs + 2)]
    store = cco.CcoStore(hy_material)
    expected = [counted(store.handle_request, payload) for payload in payloads]
    assert [reply[1] for reply, _ in expected] == [cco.STATUS_OK] * params.epochs + [cco.STATUS_EPOCH_RANGE]
    with transport.CcoServer(cco.CcoStore(hy_material)) as server:
        with transport.CcoClient("127.0.0.1", server.port) as client:
            got = [counted(client.request_raw, payload) for payload in payloads]
    assert got == expected


@pytest.mark.parametrize("backend", sorted(PARAMS))
def test_two_builds_asked_for_at_once_are_both_answered_in_full(backend):
    # two connections ask for full builds at the same time: the loop
    # builds one, then the other, each as the in-process store builds it
    first = cco.commitment_payload(cco.MSG_PQ, ID_A, 7)
    second = cco.commitment_payload(cco.MSG_HY, ID_B, 3)
    store = cco.CcoStore(material(backend))
    expected = [counted(store.handle_request, payload) for payload in (first, second)]
    with transport.CcoServer(cco.CcoStore(material(backend))) as server:
        clients = [transport.CcoClient("127.0.0.1", server.port) for _ in range(2)]
        barrier, got = threading.Barrier(2), {}

        def ask(client, payload):
            barrier.wait()
            got[payload] = client.request_raw(payload)

        before = counters.total()
        threads = [threading.Thread(target=ask, args=pair) for pair in zip(clients, (first, second))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert not any(thread.is_alive() for thread in threads)
        hashes = counters.total() - before
        for client in clients:
            client.close()
    assert [got[first], got[second]] == [reply for reply, _ in expected]  # byte for byte
    assert hashes == sum(count for _, count in expected)


def test_a_hy_build_hashes_its_la_part_then_its_pq_part(monkeypatch):
    events = []
    construct_la, construct_pq = la.construct_commitment, pq.construct_commitment
    monkeypatch.setattr(la, "construct_commitment",
                        lambda *args: events.append("la") or construct_la(*args))
    monkeypatch.setattr(pq, "construct_commitment",
                        lambda *args: events.append("pq") or construct_pq(*args))
    store = cco.CcoStore(material("production"))
    reply = store.handle_request(cco.commitment_payload(cco.MSG_HY, ID_B, 3))
    assert reply[1] == cco.STATUS_OK
    assert events == ["la", "pq"]


def test_a_raise_in_the_la_part_leaves_later_replies_whole(monkeypatch):
    construct = la.construct_commitment
    raised = []

    def raise_once(*args):
        if not raised:
            raised.append(args)
            raise RuntimeError("la part failed")
        return construct(*args)

    hy_payload = cco.commitment_payload(cco.MSG_HY, ID_A, 5)
    payloads = (cco.commitment_payload(cco.MSG_PQ, ID_A, 7), cco.commitment_payload(cco.MSG_HY, ID_B, 3))
    monkeypatch.setattr(la, "construct_commitment", raise_once)
    # the same requests, to a store whose la part raised the same way
    reference = cco.CcoStore(material("production"))
    with pytest.raises(RuntimeError):
        reference.handle_request(hy_payload)
    expected = [counted(reference.handle_request, payload) for payload in payloads]
    raised.clear()
    with transport.CcoServer(cco.CcoStore(material("production"))) as server:
        with pytest.raises(RuntimeError):
            server.store.handle_request(hy_payload)
        assert raised
        with transport.CcoClient("127.0.0.1", server.port) as client:
            got = [counted(client.request_raw, payload) for payload in payloads]
    assert got == expected  # byte for byte, and the same hash calls per request
