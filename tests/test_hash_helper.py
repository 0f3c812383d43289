"""The service's hashing helper: a forked process that hashes the upper
labels of each full pq commitment build, with replies and hash counts
identical to the inline build wherever the split falls, and the rule
that moves the split from build to build so that the service and the
helper finish together."""

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
# every request type that builds full pq commitments
PAYLOADS = (
    cco.commitment_payload(cco.MSG_PQ, ID_A, 7),
    cco.commitment_payload(cco.MSG_HY, ID_B, 3),
)
# exports of both, of epochs no payload above asks for: 11 builds
EXPORTS = ((cco.MSG_PQ, ID_A, 1, 6), (cco.MSG_HY, ID_B, 4, 8))
BUILDS = 1 + 1 + 6 + 5

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


def inline_replies(hy_material, payloads=PAYLOADS, exports=()):
    """(reply, hash calls) of each payload, then of each export, on one
    fresh store without a helper."""
    assert hashing.helper is None
    store = fresh_store(hy_material)
    return ([counted(store.handle_request, payload) for payload in payloads]
            + [counted(lambda args: store.batch_export(*args), export) for export in exports])


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
    expected = inline_replies(hy_material, PAYLOADS, EXPORTS)
    with served_with_helper(fresh_store(hy_material)) as server:
        sends = spy_sends(server.helper)
        with transport.CcoClient("127.0.0.1", server.port) as client:
            got = [counted(client.request_raw, payload) for payload in PAYLOADS]
            got += [counted(lambda args: client.batch_export(*args), export) for export in EXPORTS]
    assert [reply[1] for reply, _ in got[:len(PAYLOADS)]] == [cco.STATUS_OK] * len(PAYLOADS)
    # byte for byte, and the same hash calls per request and per export
    assert got == expected
    assert sends == [True] * BUILDS


def spy_splits(helper):
    """The labels the service kept of each build it handed ``helper``, in order."""
    splits = []
    send = helper.send
    helper.send = lambda seed, t, lo: splits.append(lo) or send(seed, t, lo)
    return splits


@needs_fork
@pytest.mark.parametrize("at", ("1", "t/4", "t/2", "3t/4", "t-1"))
@pytest.mark.parametrize("backend", sorted(PARAMS))
def test_any_split_replies_and_counts_as_inline_builds(backend, at, monkeypatch):
    hy_material = material(backend, monkeypatch)
    t = PARAMS[backend].t
    split = {"1": 1, "t/4": t // 4, "t/2": t // 2, "3t/4": 3 * t // 4, "t-1": t - 1}[at]
    expected = inline_replies(hy_material)
    monkeypatch.setattr(transport, "next_split", lambda split, *_: split)  # hold it there
    with served_with_helper(fresh_store(hy_material)) as server:
        server.helper.share = split / t
        splits = spy_splits(server.helper)
        with transport.CcoClient("127.0.0.1", server.port) as client:
            got = [counted(client.request_raw, payload) for payload in PAYLOADS]
        assert server.helper.builds == len(PAYLOADS)
    assert splits == [split] * len(PAYLOADS)
    assert got == expected  # byte for byte, and the same hash calls per request


@needs_fork
def test_a_two_label_build_splits_one_and_one(monkeypatch):
    _, material = pq.keygen([ID_A], pq.PqParams(t=2, k=1, j1=2, j2=4), random.Random(2).randbytes)
    payloads = tuple(cco.commitment_payload(cco.MSG_PQ, ID_A, epoch) for epoch in (1, 2, 7))
    expected = inline_replies(material, payloads)
    with served_with_helper(fresh_store(material)) as server:
        splits = spy_splits(server.helper)
        with transport.CcoClient("127.0.0.1", server.port) as client:
            got = [counted(client.request_raw, payload) for payload in payloads]
        assert server.helper.builds == len(payloads)
    assert splits == [1] * len(payloads)
    assert got == expected


# --- the split rule, alone -------------------------------------------------


def test_the_split_moves_toward_the_side_that_finished_later():
    # 10 us late at 1 us per label: 5 labels move to the other side
    assert transport.next_split(512, 1024, 10_000, 1_000.0) == 517
    assert transport.next_split(512, 1024, -10_000, 1_000.0) == 507
    assert transport.next_split(300, 1024, 0, 1_000.0) == 300


@pytest.mark.parametrize("t", (2, 16, 1024))
def test_the_split_stays_within_its_bounds_for_any_input(t):
    for split in {1, t // 2, t - 1}:
        for late_ns in (-10**9, -1, 0, 1, 10**9):
            for label_ns in (-1_000.0, -1e-9, 0, 0.0, 1e-3, 1_000.0):
                got = transport.next_split(split, t, late_ns, label_ns)
                assert type(got) is int and 1 <= got <= t - 1, (split, late_ns, label_ns)
                if label_ns <= 0:
                    assert got == split
    # a helper stamp from before the build began: far behind this thread's end
    start, end = 5_000_000, 5_400_000
    assert transport.next_split(t // 2, t, 0 - end, (end - start) / (t // 2)) == 1


@pytest.mark.parametrize("helper_speed", (0.5, 1.0, 2.0))
def test_the_split_balances_a_build_whose_service_part_is_40_percent_within_10_builds(helper_speed):
    # the service does la work of 40% of a build before its labels, the
    # helper wakes 30 us late and hashes at ``helper_speed`` times the
    # service's time per label
    t, label_ns, wake_ns = 1024, 1_000.0, 30_000
    build_ns = t * label_ns
    split, gaps = t // 2, []
    for _ in range(10):
        service_end = 0.4 * build_ns + split * label_ns
        helper_end = wake_ns + (t - split) * label_ns * helper_speed
        gaps.append(abs(helper_end - service_end))
        split = transport.next_split(split, t, helper_end - service_end, label_ns)
    assert gaps[-1] <= 0.02 * build_ns
    assert gaps[0] > 0.02 * build_ns  # it did not start balanced


@needs_fork
def test_a_slow_la_part_leaves_the_helper_more_than_half_of_a_hy_build(monkeypatch):
    # 25 ms of sleep in each la part is over 10 times the whole build's
    # hashing: the service keeps one label after the first build, and
    # back above t/2 only if the helper finished the last one 25 ms late
    hy_material = material("production", monkeypatch)
    t = PARAMS["production"].t
    export = (cco.MSG_HY, ID_B, 1, 10)
    expected = inline_replies(hy_material, (), (export,))
    construct = la.construct_commitment
    monkeypatch.setattr(la, "construct_commitment",
                        lambda *args: time.sleep(0.025) or construct(*args))
    with served_with_helper(fresh_store(hy_material)) as server:
        splits = spy_splits(server.helper)
        with transport.CcoClient("127.0.0.1", server.port) as client:
            got = [counted(lambda args: client.batch_export(*args), export)]
        assert server.helper.builds == 10
        assert server.helper.share < 0.5
    assert splits[0] == t // 2 and len(splits) == 10
    assert got == expected


@needs_fork
def test_the_reaped_helper_logs_its_builds_and_last_share(monkeypatch, caplog):
    hy_material = material("tiny", monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="hases.cco"):
        with served_with_helper(fresh_store(hy_material)) as server:
            helper = server.helper
            with transport.CcoClient("127.0.0.1", server.port) as client:
                for payload in PAYLOADS:
                    client.request_raw(payload)
    lines = [r.getMessage() for r in caplog.records
             if r.name == "hases.cco" and r.getMessage().startswith("hashing helper")]
    assert lines == [f"hashing helper {helper.pid} reaped: 2 builds split, "
                     f"the service's last share {helper.share:.3f} of t"]
    assert caplog.records[-1].getMessage() == lines[0]  # after the connection lines
    assert 1 / 16 <= helper.share <= 15 / 16


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
    # two connections ask for full builds at the same time: the service
    # builds one, then the other, and both hand the helper its share
    # instead of hashing all t entries in this process
    hy_material = material("production", monkeypatch)
    first, second = PAYLOADS[:2]
    expected = inline_replies(hy_material, (first, second))
    with served_with_helper(fresh_store(hy_material)) as server:
        sends = spy_sends(server.helper)
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
    assert sends == [True, True]
    assert [got[first], got[second]] == [reply for reply, _ in expected]  # byte for byte
    assert hashes == sum(count for _, count in expected)


@needs_fork
def test_a_lost_helper_leaves_its_half_inline_and_warns_once(monkeypatch, caplog):
    hy_material = material("production", monkeypatch)
    expected = inline_replies(hy_material, PAYLOADS, EXPORTS)
    with served_with_helper(fresh_store(hy_material)) as server:
        helper = server.helper
        sends = spy_sends(helper)
        with transport.CcoClient("127.0.0.1", server.port) as client:
            got = [counted(client.request_raw, PAYLOADS[0])]
            os.kill(helper.pid, signal.SIGKILL)
            with caplog.at_level(logging.WARNING, logger="hases.cco"):
                got += [counted(client.request_raw, payload) for payload in PAYLOADS[1:]]
                got += [counted(lambda args: client.batch_export(*args), export)
                        for export in EXPORTS]
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
    """A ``hases serve`` process on a pq store, its helper's pid (None
    where the service does not fork one) and its port."""
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
            yield proc, helper, port
        finally:
            proc.kill()


linux_only = pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")


@linux_only
def test_sigterm_stops_the_service_with_exit_0_and_reaps_its_helper(tmp_path):
    with serve(tmp_path) as (proc, helper, _):
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=10) == 0
        assert "Traceback" not in proc.stderr.read()
        if helper is not None:
            assert wait_for(lambda: exited(helper), 2)


@linux_only
@pytest.mark.skipif(not transport.can_split_builds(), reason="the service forks no helper")
def test_a_killed_service_leaves_no_helper_behind(tmp_path):
    with serve(tmp_path) as (proc, helper, _):
        proc.kill()
        proc.wait(timeout=10)
        # the helper reads EOF on its request pipe and exits
        assert wait_for(lambda: exited(helper), 2)


@linux_only
def test_three_open_connections_are_served_by_one_thread(tmp_path):
    with serve(tmp_path) as (proc, _, port):
        clients = [transport.CcoClient("127.0.0.1", port) for _ in range(3)]
        try:
            for client in clients:
                assert client.request_raw(PAYLOADS[0])[1] == cco.STATUS_OK
            assert len(os.listdir(f"/proc/{proc.pid}/task")) == 1
        finally:
            for client in clients:
                client.close()
