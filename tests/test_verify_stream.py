"""``hases verify`` as a stream: the edges of its inputs, with ``--cco``
and with ``--commits``, inputs read from pipes, when its first pq
opening leaves, and the edges of its windows."""

import os
import subprocess
import sys
import threading
import tracemalloc

import pytest

from hases import cco, cli, hy, keyfiles, pq, schemes, transport, verifier
from hases import stream as hases_stream

from conftest import write_binary_stream

ID_HEX = "aa" * 16
UNITS = 64


def write_csv(path, rows):
    path.write_text("".join(f"{n},record {n}\n" for n in range(rows)))
    return path


class Flow:
    """One signer's chunk of ``UNITS`` units, signed, with a service on
    loopback that records every request and an export of its commitments."""

    def __init__(self, tmp_path, scheme):
        self.tmp = tmp_path
        tmp_path.mkdir(exist_ok=True)
        self.batch = 1 if scheme == "pq" else 2
        (tmp_path / "ids.txt").write_text(ID_HEX + "\n")
        keys = tmp_path / "keys"
        argv = ["keygen", "--scheme", scheme, "--ids", str(tmp_path / "ids.txt"), "--J", "64",
                "--J1", "4", "--t", "64", "--k", "16", "--out", str(keys)]
        if scheme != "pq":
            argv += ["--L", str(self.batch)]
        assert cli.main(argv) == 0
        self.pub = keys / "verifier.pub"
        self.msgs = write_csv(tmp_path / "msgs.csv", UNITS * self.batch)
        self.sigs = tmp_path / "sigs.bin"
        assert cli.main(["sign", "--key", str(keys / f"signer_{ID_HEX}.key"), "--in",
                         str(self.msgs), "--out", str(self.sigs)]) == 0
        self.requests = []
        self.store = keyfiles.load_store(keys / "cco.store")
        handle = self.store.handle_request
        self.store.handle_request = lambda payload: self.requests.append(payload) or handle(payload)
        self.commits = tmp_path / "commits.bin"
        self.scheme = scheme

    def export(self, address):
        assert cli.main(["request", "--cco", address, "--scheme", self.scheme, "--id", ID_HEX,
                         "--export", f"1:{UNITS}", "--out", str(self.commits)]) == 0
        self.requests.clear()

    def verify(self, capsys, source, msgs=None, sigs=None, extra=()):
        capsys.readouterr()
        code = cli.main(["verify", "--pub", str(self.pub), "--in", str(msgs or self.msgs),
                         "--sigs", str(sigs or self.sigs), *source, *extra])
        return code, capsys.readouterr()


@pytest.fixture(params=["cco", "commits"])
def run(request, tmp_path, capsys):
    """``run(scheme)``: a ``Flow`` of that scheme with its service up, and
    ``verify(msgs=..., sigs=..., extra=...)``, which runs ``hases verify``
    on its chunk, or on the files given, with ``--cco`` or ``--commits``
    as the parameter says and any ``extra`` arguments."""
    flows = {}

    def start(scheme):
        flow = flows[scheme] = Flow(tmp_path / scheme, scheme)
        server = transport.CcoServer(flow.store)
        server.start()
        flow.server = server
        address = f"127.0.0.1:{server.port}"
        flow.export(address)
        source = ["--cco", address] if request.param == "cco" else ["--commits", str(flow.commits)]
        return flow, lambda **files: flow.verify(capsys, source, **files)

    yield start
    for flow in flows.values():
        flow.server.stop()


def test_the_whole_chunk_is_valid(run):
    flow, verify = run("pq")
    code, output = verify()
    assert (code, output.out) == (0, f"{UNITS}/{UNITS} signatures valid\n")


def test_a_signature_file_cut_after_its_first_run_is_rejected(run):
    flow, verify = run("pq")
    data = flow.sigs.read_bytes()
    entry = 4 + len(keyfiles.load_signatures(flow.sigs)[0])
    cut = flow.tmp / "cut.bin"
    cut.write_bytes(data[: 8 + 16 * entry + entry // 2])  # 16 entries and half the next
    code, output = verify(sigs=cut)
    assert code == 1
    assert output.out == ""
    assert f"rejected: {cut} is not a signature file: truncated signature file" in output.err


@pytest.mark.parametrize("records, signatures", [(UNITS + 3, UNITS), (UNITS, UNITS + 3)],
                         ids=["more-records", "more-signatures"])
def test_a_count_mismatch_exits_2_after_the_last_unit(run, records, signatures):
    flow, verify = run("pq")
    blobs = keyfiles.load_signatures(flow.sigs)
    sigs = flow.tmp / "counted.bin"
    keyfiles.save_signatures(sigs, (blobs * 2)[:signatures])
    msgs = write_csv(flow.tmp / "counted.csv", records)
    code, output = verify(msgs=msgs, sigs=sigs)
    assert code == 2
    assert output.out == ""
    # both counts are whole: each input was read to its end
    assert f"error: {signatures} signatures for {records} signing units" in output.err


def test_a_malformed_row_after_the_first_run_exits_2(run):
    flow, verify = run("pq")
    lines = flow.msgs.read_text().splitlines(keepends=True)
    lines[20] = "lonely\n"
    msgs = flow.tmp / "malformed.csv"
    msgs.write_text("".join(lines))
    code, output = verify(msgs=msgs)
    assert code == 2
    assert output.out == ""
    assert "error: row 21: expected timestamp,payload" in output.err


def test_a_bad_hex_payload_names_its_row(run):
    # the rows as hex of the bytes signed, so every row before the bad one verifies
    flow, verify = run("pq")
    lines = [f"{n},{f'record {n}'.encode().hex()}\n" for n in range(UNITS)]
    lines[20] = "20,zz\n"
    msgs = flow.tmp / "hex.csv"
    msgs.write_text("".join(lines))
    code, output = verify(msgs=msgs, extra=["--hex"])
    assert code == 2
    assert output.out == ""
    assert "error: row 21: non-hexadecimal number found" in output.err


@pytest.mark.parametrize("scheme", ["la", "hy"])
def test_a_partial_final_batch_exits_2(run, scheme):
    flow, verify = run(scheme)
    msgs = write_csv(flow.tmp / "partial.csv", UNITS * flow.batch - 1)
    code, output = verify(msgs=msgs)
    assert code == 2
    assert output.out == ""
    assert f"error: {UNITS * flow.batch - 1} records do not divide into batches" in output.err


def test_the_first_opening_leaves_before_the_second_run_is_parsed(tmp_path, capsys, monkeypatch):
    """A service that notes how many signatures the verifier had parsed
    when the first ``0x05`` reached it.  The verifier waits (up to 2 s)
    before parsing a 17th signature until the service has one, so a
    verifier that parses all 64 first is seen doing so."""
    flow = Flow(tmp_path, "pq")
    parsed, seen, first = [0], [], threading.Event()
    from_bytes = pq.PqSignature.from_bytes

    def counted(data):
        if parsed[0] == 16:
            first.wait(timeout=2)
        parsed[0] += 1
        return from_bytes(data)

    monkeypatch.setattr(pq.PqSignature, "from_bytes", staticmethod(counted))
    handle = flow.store.handle_request

    def noting(payload):
        if payload[0] == cco.MSG_PQ_OPENING and not seen:
            seen.append(parsed[0])
            first.set()
        return handle(payload)

    flow.store.handle_request = noting
    with transport.CcoServer(flow.store) as server:
        code, output = flow.verify(capsys, ["--cco", f"127.0.0.1:{server.port}"])
    assert (code, output.out) == (0, f"{UNITS}/{UNITS} signatures valid\n")
    assert parsed[0] == UNITS
    assert seen[0] <= 16, f"the first opening arrived after {seen[0]} of {UNITS} were parsed"


# (scheme, the request type whose OK body is spoiled, the epoch it names,
# the units that lose their part): a run's opening one byte short of a
# whole number of digests, and an aggregate commitment one byte short on
# the tiny group, where every la unit is checked alone through 0x02
SPOILED_BODIES = {
    "0x05-not-whole-digests": ("pq", cco.MSG_PQ_OPENING, 1, range(16)),  # the run of epochs 1-16
    "0x02-truncated": ("la", cco.MSG_LA, 5, [4]),
}


@pytest.mark.parametrize("scheme, msg_type, epoch, rejected", SPOILED_BODIES.values(),
                         ids=SPOILED_BODIES.keys())
def test_a_malformed_ok_body_rejects_its_units_alone(tmp_path, capsys, monkeypatch, scheme,
                                                     msg_type, epoch, rejected):
    monkeypatch.setenv("HASES_BACKEND", "tiny")
    flow = Flow(tmp_path, scheme)
    handle = flow.store.handle_request

    def spoiled(payload):
        reply = handle(payload)
        if payload[0] == msg_type and payload[17:25] == epoch.to_bytes(8, "big"):
            assert reply[1] == cco.STATUS_OK
            return reply[:-1]
        return reply

    flow.store.handle_request = spoiled
    with transport.CcoServer(flow.store) as server:
        address = f"127.0.0.1:{server.port}"
        bundle = keyfiles.load_verifier_bundle(flow.pub)
        source = verifier.CommitmentSource(bundle, ("127.0.0.1", server.port))
        try:
            results = verifier.verify_all(bundle, hases_stream.iter_stream(flow.msgs, "csv"),
                                          keyfiles.iter_signatures(flow.sigs), source)
        finally:
            source.close()
        assert results == [n not in rejected for n in range(UNITS)]
        code, output = flow.verify(capsys, ["--cco", address])
    valid = UNITS - len(rejected)
    assert (code, output.out, output.err) == (1, f"{valid}/{UNITS} signatures valid\n", "")


def test_an_export_entry_that_does_not_parse_rejects_its_units_alone(tmp_path, capsys):
    flow = Flow(tmp_path, "pq")
    with transport.CcoServer(flow.store) as server:
        flow.export(f"127.0.0.1:{server.port}")
    blobs = keyfiles.load_commitments(flow.commits)
    bundle = keyfiles.load_verifier_bundle(flow.pub)
    source = verifier.CommitmentSource(bundle, commits=str(flow.commits))
    # the entry of epoch 5 cut by a byte: its tag, id and epoch are the
    # bundle's, its body is not a whole number of digests
    key = (bytes.fromhex(ID_HEX), 5)
    assert source.offline[key] == blobs[4]
    source.offline[key] = blobs[4][:-1]
    results = verifier.verify_all(bundle, hases_stream.iter_stream(flow.msgs, "csv"),
                                  keyfiles.iter_signatures(flow.sigs), source)
    assert results == [n != 4 for n in range(UNITS)]
    # an export holds entries of one size, so in a file every entry is cut
    cut = flow.tmp / "cut.bin"
    keyfiles.save_commitments(cut, [blob[:-1] for blob in blobs])
    code, output = flow.verify(capsys, ["--commits", str(cut)])
    assert (code, output.out, output.err) == (1, f"0/{UNITS} signatures valid\n", "")


def test_memory_stays_bounded_as_the_stream_grows(tmp_path):
    """The ``tracemalloc`` peak of an in-process ``verify --cco`` over 4,096
    pq units is at most twice that over 512, results list included (8
    bytes a unit), against a service in another process."""
    (tmp_path / "ids.txt").write_text(ID_HEX + "\n")
    keys = tmp_path / "keys"
    assert cli.main(["keygen", "--scheme", "pq", "--ids", str(tmp_path / "ids.txt"),
                     "--J", "4096", "--J1", "16", "--out", str(keys)]) == 0
    msgs = write_csv(tmp_path / "all.csv", 4096)
    sigs = tmp_path / "all.sigs"
    assert cli.main(["sign", "--key", str(keys / f"signer_{ID_HEX}.key"), "--in", str(msgs),
                     "--out", str(sigs)]) == 0
    write_csv(tmp_path / "head.csv", 512)
    keyfiles.save_signatures(tmp_path / "head.sigs", keyfiles.load_signatures(sigs)[:512])
    proc = subprocess.Popen(
        [sys.executable, "-m", "hases.cli", "serve", "--store", str(keys / "cco.store"),
         "--port", "0"], stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONUNBUFFERED": "1"})
    try:
        address = proc.stdout.readline().strip().removeprefix("listening on ")
        peaks = []
        # the first run, untraced, pays for the imports and the caches
        for name, traced in (("head", False), ("head", True), ("all", True)):
            argv = ["verify", "--pub", str(keys / "verifier.pub"), "--in",
                    str(tmp_path / f"{name}.csv"), "--sigs", str(tmp_path / f"{name}.sigs"),
                    "--cco", address]
            if not traced:
                assert cli.main(argv) == 0
                continue
            tracemalloc.start()
            try:
                assert cli.main(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    finally:
        proc.terminate()
        proc.wait()
    assert peaks[1] <= 2 * peaks[0], f"peaks of {peaks[0]} and {peaks[1]} bytes"



def piped(path, data):
    """A FIFO at ``path`` that a thread fills with ``data`` once it is
    opened: a stream whose length its reader cannot ask for."""
    os.mkfifo(path)

    def feed():
        try:
            with open(path, "wb") as handle:
                handle.write(data)
        except BrokenPipeError:
            pass  # the reader stopped early

    threading.Thread(target=feed, daemon=True).start()
    return path


def test_sign_and_verify_read_records_and_signatures_from_pipes(tmp_path, capsys):
    (tmp_path / "ids.txt").write_text(ID_HEX + "\n")
    keys = tmp_path / "keys"
    assert cli.main(["keygen", "--scheme", "pq", "--ids", str(tmp_path / "ids.txt"), "--J", "64",
                     "--J1", "4", "--t", "64", "--k", "16", "--out", str(keys)]) == 0
    records = tmp_path / "records.bin"
    write_binary_stream(
        records, [hases_stream.Record(str(n), b"reading %d" % n) for n in range(40)])
    sigs = tmp_path / "sigs.bin"
    capsys.readouterr()
    assert cli.main(["sign", "--key", str(keys / f"signer_{ID_HEX}.key"), "--format", "bin",
                     "--in", str(piped(tmp_path / "sign.pipe", records.read_bytes())),
                     "--out", str(sigs)]) == 0
    assert capsys.readouterr().out.startswith("signed 40 records into 40 signatures")
    container = sigs.read_bytes()
    entry = len(container) // 40  # the count's 8 bytes and 40 equal entries of 4 + n bytes
    flipped = bytearray(container)
    flipped[-1] ^= 1
    with transport.CcoServer(keyfiles.load_store(keys / "cco.store")) as server:
        for name, data, code, out in (
            ("whole", container, 0, "40/40 signatures valid\n"),
            ("flipped", bytes(flipped), 1, "39/40 signatures valid\n"),
            ("cut", container[: 8 + 20 * entry], 1, ""),
        ):
            capsys.readouterr()
            assert cli.main([
                "verify", "--pub", str(keys / "verifier.pub"), "--format", "bin",
                "--in", str(piped(tmp_path / f"{name}.records", records.read_bytes())),
                "--sigs", str(piped(tmp_path / f"{name}.sigs", data)),
                "--cco", f"127.0.0.1:{server.port}"]) == code, name
            output = capsys.readouterr()
            assert output.out == out, name
            if name == "cut":
                assert "is not a signature file: truncated signature file" in output.err


# --- streams longer than one window -------------------------------------------------

SIGNERS = [bytes([0xB1]) * 16, bytes([0xA1]) * 16, bytes([0xC1]) * 16]  # in stream order
UNITS_OF = [8, 256, 8]  # B's at 0-7, A's at 8-263, C's at 264-271: an edge at 256
TAMPERED = (250, 258)  # A's epochs 243 and 251, one on each side of the edge
MALFORMED = 103  # A's epoch 96: a position that holds no unit


class LongStream:
    """272 signing units (batches of one record) of three signers, so that
    the first window edge (``verifier.WINDOW_UNITS`` = 256) cuts A's last
    combined check and A's last run in two, and C first appears after
    it; a service on loopback records every request."""

    def __init__(self, tmp_path, scheme):
        assert verifier.WINDOW_UNITS == 256
        self.tmp, self.scheme_name = tmp_path, scheme
        (tmp_path / "ids.txt").write_text("".join(f"{sid.hex()}\n" for sid in SIGNERS))
        keys = tmp_path / "keys"
        assert cli.main(["keygen", "--scheme", scheme, "--ids", str(tmp_path / "ids.txt"),
                         "--J", "256", "--J1", "16", "--L", "1", "--t", "64", "--k", "16",
                         "--out", str(keys)]) == 0
        self.pub = keys / "verifier.pub"
        self.bundle = keyfiles.load_verifier_bundle(self.pub)
        self.scheme = schemes.by_tag(self.bundle.scheme)
        rows, self.blobs = [], []
        for signer_id, units in zip(SIGNERS, UNITS_OF):
            part = tmp_path / f"{signer_id.hex()}.csv"
            part.write_text("".join(f"{n},{signer_id.hex()[:2]} {n}\n" for n in range(units)))
            sigs = tmp_path / f"{signer_id.hex()}.sigs"
            assert cli.main(["sign", "--key", str(keys / f"signer_{signer_id.hex()}.key"),
                             "--in", str(part), "--out", str(sigs)]) == 0
            rows.append(part.read_text())
            self.blobs += keyfiles.load_signatures(sigs)
        self.msgs = tmp_path / "stream.csv"
        self.msgs.write_text("".join(rows))
        self.sigs = tmp_path / "stream.sigs"
        self.requests = []
        self.store = keyfiles.load_store(keys / "cco.store")
        handle = self.store.handle_request
        self.store.handle_request = lambda payload: self.requests.append(payload) or handle(payload)

    def tamper(self):
        """Unit 250 with its aggregate response moved (A's check before the
        edge fails); unit 258 with its last revealed pq string flipped in
        ``hy`` (only its pq layer fails) or its aggregate response moved
        in ``la`` (A's check after the edge fails); unit 103 cut short, so
        that it is rejected unparsed, its position still counted in its
        window, and A's epochs jump from 95 to 97."""
        q = self.bundle.la_params.group.q
        for n in TAMPERED:
            signature = self.scheme.parse_signature(self.blobs[n], self.bundle)
            if self.scheme is schemes.LA:
                self.blobs[n] = signature._replace(agg=(signature.agg + 1) % q).to_bytes()
            elif n == TAMPERED[0]:
                moved = signature.la._replace(agg=(signature.la.agg + 1) % q)
                self.blobs[n] = hy.HySignature(moved, signature.pq).to_bytes()
            else:
                self.blobs[n] = self.blobs[n][:-1] + bytes([self.blobs[n][-1] ^ 1])
        self.blobs[MALFORMED] = self.blobs[MALFORMED][:-1]
        keyfiles.save_signatures(self.sigs, self.blobs)

    def export(self, address):
        blobs = []
        for signer_id, units in zip(SIGNERS, UNITS_OF):
            path = self.tmp / f"export_{signer_id.hex()}.bin"
            assert cli.main(["request", "--cco", address, "--scheme", self.scheme_name,
                             "--id", signer_id.hex(), "--export", f"1:{units}",
                             "--out", str(path)]) == 0
            blobs += keyfiles.load_commitments(path)
        commits = self.tmp / "commits.bin"
        keyfiles.save_commitments(commits, blobs)
        self.requests.clear()
        return commits


@pytest.mark.parametrize("scheme", ["la", "hy"])
def test_a_stream_longer_than_a_window(tmp_path, capsys, monkeypatch, scheme):
    stream = LongStream(tmp_path, scheme)
    stream.tamper()
    group = stream.bundle.la_params.group
    checked = []
    precompute = type(group).precompute
    monkeypatch.setattr(type(group), "precompute",
                        lambda self, key: checked.append(key) or precompute(self, key))
    tables_file = keyfiles.tables_path(stream.pub)
    expected = [n not in (*TAMPERED, MALFORMED) for n in range(sum(UNITS_OF))]
    with transport.CcoServer(stream.store) as server:
        address = f"127.0.0.1:{server.port}"
        commits = stream.export(address)
        for with_file in (True, False):
            if not with_file:
                tables_file.rename(tmp_path / "tables.aside")
            for online in (True, False):
                checked.clear()
                stream.requests.clear()
                source = verifier.CommitmentSource(
                    stream.bundle, *((("127.0.0.1", server.port),) if online else (None, commits)))
                try:
                    results = verifier.verify_all(
                        stream.bundle, hases_stream.iter_stream(stream.msgs, "csv"), stream.blobs,
                        source, tables_file if with_file else None)
                finally:
                    source.close()
                case = (with_file, online)
                assert results == expected, case
                # with the file C's table is read as its window brings C in;
                # without it, each of the three keys is checked once
                assert len(checked) == (0 if with_file else 3), case
                assert requests_of(stream.requests) == (edge_requests(scheme) if online else []), case
                capsys.readouterr()
                code = cli.main(["verify", "--pub", str(stream.pub), "--in", str(stream.msgs),
                                 "--sigs", str(stream.sigs),
                                 *(["--cco", address] if online else ["--commits", str(commits)])])
                assert (code, capsys.readouterr().out) == (1, "269/272 signatures valid\n"), case


def requests_of(payloads):
    """The type of each request, runs of one type collapsed to (type, count)."""
    out = []
    for payload in payloads:
        if out and out[-1][0] == payload[0]:
            out[-1] = (payload[0], out[-1][1] + 1)
        else:
            out.append((payload[0], 1))
    return out


def edge_requests(scheme):
    """The requests of the long stream, per window.  Before the edge: B's
    check and A's four (64, 64, 64 and 55 of its 247 units there); in
    ``hy``, B's run and A's 16 (95 units at epochs 1-95 in runs of 16,
    the last of 15; 152 at epochs 97-248, the last of 8); then the
    fallback for A's failed last check, 55 ``0x02``s.  After it: A's and
    C's checks and runs, 8 units each.  Grouping the whole stream by
    signer would send one ``0x08`` and one ``0x05`` fewer: A's last 8
    units would join its check of 55 and its run of 8."""
    combined, opening, single = cco.MSG_LA_COMBINED, cco.MSG_PQ_OPENING, cco.MSG_LA
    if scheme == "la":
        # A's check after the edge fails too: its 8 units are asked for alone
        return [(combined, 5), (single, 55), (combined, 2), (single, 8)]
    return [(combined, 5), (opening, 17), (single, 55), (combined, 2), (opening, 2)]
