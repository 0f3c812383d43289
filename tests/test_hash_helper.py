"""The service's hashing helper: a forked process that hashes the upper
half of each full pq commitment build, with replies and hash counts
identical to the inline build."""

import functools
import logging
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from hases import cco, cli, hashing, hy, keyfiles, la, pq, transport
from hases.hashing import counters

ID_A = bytes([0xA1]) * 16
ID_B = bytes([0xB2]) * 16
PARAMS = {
    "production": pq.PqParams(t=1024, k=16, j1=4, j2=4),
    "tiny": pq.PqParams(t=16, k=4, j1=2, j2=4),
}
# every request type that builds full pq commitments: 14 builds in all
PAYLOADS = (
    cco.commitment_payload(cco.MSG_PQ, ID_A, 7),
    cco.commitment_payload(cco.MSG_HY, ID_B, 3),
    cco.export_payload(cco.MSG_PQ, ID_A, 1, 8),
    cco.export_payload(cco.MSG_HY, ID_B, 2, 5),
)
BUILDS = 1 + 1 + 8 + 4

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the helper is forked")


def material(backend, monkeypatch):
    monkeypatch.setenv("HASES_BACKEND", backend)
    rng = random.Random(backend)
    _, _, hy_material = hy.keygen([ID_A, ID_B], cli.backend_group(), 4, PARAMS[backend],
                                  rng.randbytes)
    return hy_material


def fresh_store(hy_material):
    store = cco.CcoStore(hy_material)
    return store


def counted(handle, payload):
    """(reply, hash calls made while ``handle`` answered ``payload``)."""
    before = counters.total()
    reply = handle(payload)
    return reply, counters.total() - before


def inline_replies(hy_material, payloads=PAYLOADS):
    assert hashing.helper is None
    store = fresh_store(hy_material)
    return [counted(store.handle_request, payload) for payload in payloads]


@contextmanager
def served_with_helper(store):
    server = transport.CcoServer(store)
    server.start_hash_helper()
    server.start()
    try:
        assert hashing.helper is server.helper
        yield server
    finally:
        server.stop()
    assert hashing.helper is None


def spy_sends(helper):
    """The result of each ``helper.send``, in order, as they happen."""
    sends = []
    send = helper.send

    def spy(*args):
        sends.append(send(*args))
        return sends[-1]

    helper.send = spy
    return sends


@needs_fork
@pytest.mark.parametrize("backend", sorted(PARAMS))
def test_split_builds_reply_and_count_as_inline_builds(backend, monkeypatch):
    hy_material = material(backend, monkeypatch)
    expected = inline_replies(hy_material)
    with served_with_helper(fresh_store(hy_material)) as server:
        sends = spy_sends(server.helper)
        with transport.CcoClient("127.0.0.1", server.port) as client:
            got = [counted(client.request_raw, payload) for payload in PAYLOADS]
    assert [reply[1] for reply, _ in got] == [cco.STATUS_OK] * len(PAYLOADS)
    assert got == expected  # byte for byte, and the same hash calls per request
    assert sends == [True] * BUILDS


@needs_fork
def test_openings_and_combined_builds_stay_inline(monkeypatch):
    hy_material = material("tiny", monkeypatch)
    payloads = (cco.opening_payload(ID_A, 1, [0, 5, 9, 15] * 2),
                cco.combined_payload(ID_B, b"s" * 32, 5, [1, 2, 3]))
    expected = inline_replies(hy_material, payloads)
    with served_with_helper(fresh_store(hy_material)) as server:
        sends = spy_sends(server.helper)
        assert [counted(server.store.handle_request, p) for p in payloads] == expected
    assert sends == []


@needs_fork
def test_two_builds_at_once_both_split(monkeypatch):
    # one build holds the helper until it reads its half; another, asked
    # for meanwhile on a second thread, waits for the store and then
    # splits too, instead of hashing all t entries in this process
    hy_material = material("production", monkeypatch)
    first, second = PAYLOADS[:2]
    expected = inline_replies(hy_material, (first, second))
    with served_with_helper(fresh_store(hy_material)) as server:
        store, helper = server.store, server.helper
        sends = spy_sends(helper)
        receive = helper.receive
        taken, release = threading.Event(), threading.Event()

        def held_receive(count):
            helper.receive = receive  # only the first build is held
            taken.set()
            assert release.wait(10)
            return receive(count)

        helper.receive = held_receive
        build = store._build_response
        got = {}  # payload -> (reply, hash calls), counted inside the build
        store._build_response = lambda request, payload: got.setdefault(
            payload, counted(functools.partial(build, request), payload))[0]
        threads = [threading.Thread(target=store.handle_request, args=(payload,))
                   for payload in (first, second)]
        threads[0].start()
        assert taken.wait(10)
        threads[1].start()
        threads[1].join(0.2)
        waited = threads[1].is_alive()
        release.set()
        for thread in threads:
            thread.join(10)
        assert not any(thread.is_alive() for thread in threads)
    assert sends == [True, True]
    assert [got[first], got[second]] == expected  # byte for byte, and the same hash calls
    assert waited  # for the store's lock, not for the helper


@needs_fork
def test_a_lost_helper_leaves_its_half_inline_and_warns_once(monkeypatch, caplog):
    hy_material = material("production", monkeypatch)
    expected = inline_replies(hy_material)
    with served_with_helper(fresh_store(hy_material)) as server:
        helper = server.helper
        sends = spy_sends(helper)
        with transport.CcoClient("127.0.0.1", server.port) as client:
            got = [counted(client.request_raw, PAYLOADS[0])]
            os.kill(helper.pid, signal.SIGKILL)
            with caplog.at_level(logging.WARNING, logger="hases.cco"):
                got += [counted(client.request_raw, payload) for payload in PAYLOADS[1:]]
        assert hashing.helper is None
    assert got == expected
    # the second build finds the helper gone or loses it; no later build asks it
    assert sends[0] and len(sends) == 2
    warnings = [r for r in caplog.records if r.name == "hases.cco"]
    assert [r.levelno for r in warnings] == [logging.WARNING]
    assert f"hashing helper {helper.pid} lost" in warnings[0].getMessage()
    assert warnings[0].exc_info is None
    with pytest.raises(ChildProcessError):  # reaped
        os.waitpid(helper.pid, os.WNOHANG)


@needs_fork
def test_a_hy_build_hands_the_helper_its_half_before_the_la_part_hashes(monkeypatch):
    hy_material = material("production", monkeypatch)
    events = []
    private_scalar = la.private_scalar
    monkeypatch.setattr(la, "private_scalar",
                        lambda *args: events.append("la") or private_scalar(*args))
    expected = inline_replies(hy_material, PAYLOADS[1:2])
    assert events == ["la"]
    events.clear()
    with served_with_helper(fresh_store(hy_material)) as server:
        send = server.helper.send
        server.helper.send = lambda *args: events.append("send") or send(*args)
        assert [counted(server.store.handle_request, PAYLOADS[1])] == expected
    assert events == ["send", "la"]


@needs_fork
def test_a_raise_after_the_hand_off_still_reads_the_helpers_reply(monkeypatch, caplog):
    hy_material = material("production", monkeypatch)
    construct = la.construct_commitment
    raised = []

    def raise_once(*args):
        if not raised:
            raised.append(args)
            raise RuntimeError("la part failed")
        return construct(*args)

    hy_payload = cco.commitment_payload(cco.MSG_HY, ID_A, 5)
    monkeypatch.setattr(la, "construct_commitment", raise_once)
    # the same requests, to a store with no helper
    reference = fresh_store(hy_material)
    with pytest.raises(RuntimeError):
        reference.handle_request(hy_payload)
    expected = [counted(reference.handle_request, payload) for payload in PAYLOADS[:2]]
    raised.clear()
    with served_with_helper(fresh_store(hy_material)) as server:
        helper = server.helper
        sends = spy_sends(helper)
        with pytest.raises(RuntimeError):
            server.store.handle_request(hy_payload)
        assert raised
        with caplog.at_level(logging.WARNING, logger="hases.cco"):
            with transport.CcoClient("127.0.0.1", server.port) as client:
                got = [counted(client.request_raw, payload) for payload in PAYLOADS[:2]]
        assert hashing.helper is helper
    assert got == expected  # byte for byte, and the same hash calls per request
    assert sends == [True] * 3
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


# --- `hases serve` in its own process -----------------------------------------------


def child_pids(pid):
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            pids.append(int(stat.parent.name))
    return pids


def exited(pid):
    """Whether ``pid`` runs no more: gone, or a zombie left for init to reap."""
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except OSError:
        return True
    return state in ("Z", "X")


def wait_for(condition, timeout):
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


@contextmanager
def serve(tmp_path):
    """A ``hases serve`` process on a pq store, and its helper's pid (None
    where the service does not fork one)."""
    _, material = pq.keygen([ID_A], PARAMS["production"], random.Random(3).randbytes)
    store = cco.CcoStore(material)
    path = tmp_path / "cco.store"
    keyfiles.save_store(path, store)
    proc = subprocess.Popen(
        [sys.executable, "-m", "hases.cli", "serve", "--store", str(path), "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    with proc:
        try:
            port = int(re.search(r"listening on .*:(\d+)", proc.stdout.readline()).group(1))
            helper = None
            if transport.can_split_builds():
                assert wait_for(lambda: child_pids(proc.pid), 5)
                (helper,) = child_pids(proc.pid)
            with transport.CcoClient("127.0.0.1", port) as client:
                reply = client.request_raw(PAYLOADS[0])
            assert reply == fresh_store(material).handle_request(PAYLOADS[0])
            yield proc, helper
        finally:
            proc.kill()


linux_only = pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")


@linux_only
def test_sigterm_stops_the_service_with_exit_0_and_reaps_its_helper(tmp_path):
    with serve(tmp_path) as (proc, helper):
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=10) == 0
        assert "Traceback" not in proc.stderr.read()
        if helper is not None:
            assert wait_for(lambda: exited(helper), 2)


@linux_only
@pytest.mark.skipif(not transport.can_split_builds(), reason="the service forks no helper")
def test_a_killed_service_leaves_no_helper_behind(tmp_path):
    with serve(tmp_path) as (proc, helper):
        proc.kill()
        proc.wait(timeout=10)
        # the helper reads EOF on its request pipe and exits
        assert wait_for(lambda: exited(helper), 2)
