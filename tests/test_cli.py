import argparse
import fcntl
import gc
import hashlib
import os
import re
import selectors
import signal
import socket
import subprocess
import sys
import threading
import time
import warnings
from contextlib import contextmanager
from pathlib import Path

import pytest

from hases import cco, cli, hy, keyfiles, la, pq, schemes, stream, transport, verifier
from hases import group as group_module
from hases.hashing import counters

ID_HEX_1 = "aa" * 16
ID_HEX_2 = "bb" * 16


def write_ids(tmp_path, ids=(ID_HEX_1,)):
    path = tmp_path / "ids.txt"
    path.write_text("\n".join(ids) + "\n")
    return str(path)


def write_csv(tmp_path, count, name="msgs.csv"):
    path = tmp_path / name
    rows = [f"{i},payload number {i}" for i in range(count)]
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def opened_runs(payloads, k):
    """(first epoch, epoch count) of each opening request in ``payloads``,
    at k indices per epoch."""
    return [(int.from_bytes(p[17:25], "big"), (len(p) - 25) // (4 * k))
            for p in payloads if p[0] == cco.MSG_PQ_OPENING]


def keygen(tmp_path, scheme, extra=()):
    out = tmp_path / f"keys_{scheme}"
    argv = [
        "keygen", "--scheme", scheme, "--ids", write_ids(tmp_path),
        "--J", "16", "--out", str(out), "--t", "1024", "--k", "16",
    ] + list(extra)
    assert cli.main(argv) == 0
    return out


class TestParseIds:
    def test_hex_and_text_forms(self):
        assert cli.parse_signer_id(ID_HEX_1) == b"\xaa" * 16
        assert cli.parse_signer_id("sensor-7") == b"sensor-7" + b"\x00" * 8

    def test_oversized_rejected(self):
        with pytest.raises(ValueError):
            cli.parse_signer_id("this text is way past sixteen bytes")

    def test_duplicates_rejected(self, tmp_path):
        path = tmp_path / "ids.txt"
        path.write_text(f"{ID_HEX_1}\n{ID_HEX_1}\n")
        with pytest.raises(ValueError):
            cli.read_ids_file(str(path))


class TestKeygen:
    def test_pq_minimal_policy_stores_32_byte_secret(self, tmp_path):
        out = keygen(tmp_path, "pq", ["--J1", "1"])
        store = keyfiles.load_store(out / "cco.store")
        material = store.pq_material()
        assert len(material.msk) == 32
        assert material.anchors[bytes.fromhex(ID_HEX_1)] == ()
        assert (out / f"signer_{ID_HEX_1}.key").exists()
        assert (out / "verifier.pub").exists()

    def test_secret_files_are_written_atomically_and_owner_only(self, tmp_path):
        old_umask = os.umask(0)  # a umask that would leave every file world-readable
        try:
            out = keygen(tmp_path, "hy", ["--J1", "4", "--L", "2"])
        finally:
            os.umask(old_umask)
        names = sorted(p.name for p in out.iterdir())
        # no .tmp left; the bundle and its key tables are public
        assert names == ["cco.store", f"signer_{ID_HEX_1}.key", "verifier.pub", "verifier.pub.tables"]
        for name in ("cco.store", f"signer_{ID_HEX_1}.key"):
            assert (out / name).stat().st_mode & 0o777 == 0o600, name
        assert keyfiles.load_store(out / "cco.store").la_material()
        assert keyfiles.load_signer_key(out / f"signer_{ID_HEX_1}.key").epoch == 1

    def test_hy_keys_are_lockstep_compatible(self, tmp_path):
        out = keygen(tmp_path, "hy", ["--J1", "4", "--L", "2"])
        state = keyfiles.load_signer_key(out / f"signer_{ID_HEX_1}.key")
        assert state.la.epoch == state.pq.epoch == 1
        assert state.la.params.max_batches == state.pq.params.epochs == 16

    def test_duplicate_ids_no_partial_output(self, tmp_path):
        ids = tmp_path / "dup.txt"
        ids.write_text(f"{ID_HEX_1}\n{ID_HEX_1}\n")
        out = tmp_path / "keys"
        code = cli.main(
            ["keygen", "--scheme", "pq", "--ids", str(ids), "--J", "16", "--out", str(out)]
        )
        assert code == 2
        assert not out.exists()

    def test_indivisible_policy_rejected(self, tmp_path):
        code = cli.main(
            ["keygen", "--scheme", "pq", "--ids", write_ids(tmp_path),
             "--J", "16", "--J1", "3", "--out", str(tmp_path / "x")]
        )
        assert code == 2


class TestSignVerifyOffline:
    def run_flow(self, tmp_path, scheme, extra, records):
        out = keygen(tmp_path, scheme, extra)
        key = out / f"signer_{ID_HEX_1}.key"
        msgs = write_csv(tmp_path, records)
        sigs = str(tmp_path / "sigs.bin")
        assert cli.main(["sign", "--key", str(key), "--in", msgs, "--out", sigs]) == 0

        store = keyfiles.load_store(out / "cco.store")
        with transport.CcoServer(store) as server:
            commits = str(tmp_path / "commits.bin")
            assert cli.main(
                ["request", "--cco", f"127.0.0.1:{server.port}", "--scheme", scheme,
                 "--id", ID_HEX_1, "--export", "1:8", "--out", commits]
            ) == 0
        return out, msgs, sigs, commits

    def test_pq_offline_round_trip(self, tmp_path):
        out, msgs, sigs, commits = self.run_flow(tmp_path, "pq", ["--J1", "4"], 5)
        code = cli.main(
            ["verify", "--pub", str(out / "verifier.pub"), "--in", msgs,
             "--sigs", sigs, "--commits", commits]
        )
        assert code == 0

    def test_hy_offline_round_trip(self, tmp_path):
        out, msgs, sigs, commits = self.run_flow(
            tmp_path, "hy", ["--J1", "4", "--L", "3"], 6
        )
        code = cli.main(
            ["verify", "--pub", str(out / "verifier.pub"), "--in", msgs,
             "--sigs", sigs, "--commits", commits]
        )
        assert code == 0

    def test_la_offline_round_trip(self, tmp_path):
        out, msgs, sigs, commits = self.run_flow(tmp_path, "la", ["--L", "4"], 8)
        code = cli.main(
            ["verify", "--pub", str(out / "verifier.pub"), "--in", msgs,
             "--sigs", sigs, "--commits", commits]
        )
        assert code == 0

    @pytest.mark.parametrize("scheme, extra, records, budget", [
        ("pq", ["--J1", "4"], 8, 1 + 16),  # the indices, then k = 16 images
        ("la", ["--L", "8"], 64, 2 * 8),  # L item seeds and L challenges
        # nest (2L - 1), the indices of the inner message, then the la and pq layers
        ("hy", ["--J1", "4", "--L", "8"], 64, (2 * 8 - 1) + 1 + 2 * 8 + 16),
    ], ids=["pq", "la", "hy"])
    def test_offline_verify_costs_its_hash_budget_per_unit(
        self, tmp_path, scheme, extra, records, budget,
    ):
        out, msgs, sigs, commits = self.run_flow(tmp_path, scheme, extra, records)
        counters.reset()
        assert cli.main(["verify", "--pub", str(out / "verifier.pub"), "--in", msgs,
                         "--sigs", sigs, "--commits", commits]) == 0
        assert counters.total() == 8 * budget  # 8 units, nothing hashed twice

    def test_offline_commits_skip_other_scheme_entries(self, tmp_path):
        out, msgs, sigs, commits = self.run_flow(
            tmp_path, "hy", ["--J1", "4", "--L", "3"], 6
        )
        hy_blobs = keyfiles.load_commitments(commits)
        store = keyfiles.load_store(out / "cco.store")
        signer = bytes.fromhex(ID_HEX_1)
        # a pq-tagged entry for each (id, epoch), after the hy one; padded
        # to the hy size, since an export file holds equal-sized entries
        pq_blobs = [
            store.pq_commitment(signer, epoch).to_bytes().ljust(len(hy_blobs[0]), b"\x00")
            for epoch in range(1, 9)
        ]
        keyfiles.save_commitments(commits, hy_blobs + pq_blobs)
        code = cli.main(
            ["verify", "--pub", str(out / "verifier.pub"), "--in", msgs,
             "--sigs", sigs, "--commits", commits]
        )
        assert code == 0

    def test_small_order_public_key_exits_1(self, tmp_path, capsys, monkeypatch):
        # the bundle's key moved by the order-2 point (0, p-1): without a
        # subgroup check, every batch whose challenge sum is even verifies
        out, msgs, sigs, commits = self.run_flow(tmp_path, "la", ["--L", "1"], 8)
        pub = out / "verifier.pub"
        bundle = keyfiles.load_verifier_bundle(pub)
        group = bundle.la_params.group
        signer = bytes.fromhex(ID_HEX_1)
        moved = group.mul(group.decode_element(bundle.public_keys[signer]), (0, group.p - 1))
        keyfiles.save_verifier_bundle(
            pub, bundle._replace(public_keys={signer: group.encode_element(moved)})
        )
        # keygen's table file was bound to the bundle before the edit (see
        # TestKeyTableFiles); without it the run checks the key itself
        keyfiles.tables_path(pub).unlink()
        capsys.readouterr()
        checked = []
        precompute = type(group).precompute
        monkeypatch.setattr(
            type(group), "precompute", lambda self, key: checked.append(key) or precompute(self, key)
        )
        code = cli.main(
            ["verify", "--pub", str(pub), "--in", msgs, "--sigs", sigs, "--commits", commits]
        )
        assert code == 1
        assert "0/8 signatures valid" in capsys.readouterr().out
        assert len(checked) == 1  # rejected once for the run, not once per batch

    @pytest.mark.parametrize("keep", [0, 5, 8 + 4 + 100])
    def test_truncated_signature_file_named_and_exits_1(self, tmp_path, capsys, keep):
        out, msgs, sigs, commits = self.run_flow(tmp_path, "pq", ["--J1", "4"], 3)
        with open(sigs, "r+b") as handle:
            handle.truncate(keep)
        capsys.readouterr()
        code = cli.main(
            ["verify", "--pub", str(out / "verifier.pub"), "--in", msgs,
             "--sigs", sigs, "--commits", commits]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"{sigs} is not a signature file: truncated signature file" in err

    @pytest.mark.parametrize("keep", [0, 5])
    def test_a_signature_file_rejected_before_any_record_leaves_no_file_open(self, tmp_path, keep):
        out, msgs, sigs, commits = self.run_flow(tmp_path, "pq", ["--J1", "4"], 3)
        with open(sigs, "r+b") as handle:
            handle.truncate(keep)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            code = cli.main(["verify", "--pub", str(out / "verifier.pub"), "--in", msgs,
                             "--sigs", sigs, "--commits", commits])
            gc.collect()
        assert code == 1
        assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_empty_export_file_exits_2(self, tmp_path, capsys):
        out, msgs, sigs, commits = self.run_flow(tmp_path, "pq", ["--J1", "4"], 3)
        with open(commits, "wb") as handle:
            handle.write(bytes(8))  # an entry count of 0 and no entries
        code = cli.main(
            ["verify", "--pub", str(out / "verifier.pub"), "--in", msgs,
             "--sigs", sigs, "--commits", commits]
        )
        assert code == 2
        assert f"error: {commits} is not a commitment export: " in capsys.readouterr().err

    @pytest.mark.parametrize("scheme, extra", [
        ("pq", ["--J1", "4"]), ("la", ["--L", "3"]), ("hy", ["--J1", "4", "--L", "3"])])
    def test_export_file_is_the_export_reply_body(self, tmp_path, scheme, extra):
        # the replies of the export's single requests, in the export container
        out = keygen(tmp_path, scheme, extra)
        store = keyfiles.load_store(out / "cco.store")
        commits = tmp_path / "commits.bin"
        with transport.CcoServer(store) as server:
            assert cli.main(
                ["request", "--cco", f"127.0.0.1:{server.port}", "--scheme", scheme,
                 "--id", ID_HEX_1, "--export", "2:6", "--out", str(commits)]
            ) == 0
        singles = keyfiles.load_store(out / "cco.store").batch_export(
            schemes.BY_NAME[scheme].tag, bytes.fromhex(ID_HEX_1), 2, 6)
        assert commits.read_bytes() == cco.export_bytes(singles)

    def test_la_request_takes_no_batch_size(self, tmp_path, capsys):
        out = keygen(tmp_path, "la", ["--L", "3"])
        store = keyfiles.load_store(out / "cco.store")
        capsys.readouterr()  # drop keygen chatter
        argv = ["request", "--scheme", "la", "--id", ID_HEX_1, "--epoch", "1"]
        with transport.CcoServer(store) as server:
            argv += ["--cco", f"127.0.0.1:{server.port}"]
            assert cli.main(argv) == 0
            blob = bytes.fromhex(capsys.readouterr().out.strip())
            with pytest.raises(SystemExit):  # the service knows L: there is no --L to give
                cli.main(argv + ["--L", "3"])
        assert len(blob) == la.COMMITMENT_LEN == 61
        assert la.LaCommitment.from_bytes(blob).batch_size == 3

    def test_corrupted_signature_file_exits_1(self, tmp_path):
        out, msgs, sigs, commits = self.run_flow(tmp_path, "pq", ["--J1", "4"], 3)
        blob = bytearray(open(sigs, "rb").read())
        blob[len(blob) // 2] ^= 0x40
        open(sigs, "wb").write(bytes(blob))
        code = cli.main(
            ["verify", "--pub", str(out / "verifier.pub"), "--in", msgs,
             "--sigs", sigs, "--commits", commits]
        )
        assert code == 1

    def test_tampered_message_exits_1(self, tmp_path):
        out, msgs, sigs, commits = self.run_flow(tmp_path, "pq", ["--J1", "4"], 3)
        text = open(msgs).read().replace("payload number 1", "payload number X")
        open(msgs, "w").write(text)
        code = cli.main(
            ["verify", "--pub", str(out / "verifier.pub"), "--in", msgs,
             "--sigs", sigs, "--commits", commits]
        )
        assert code == 1

    def test_missing_stream_file_exits_2(self, tmp_path):
        out, msgs, sigs, commits = self.run_flow(tmp_path, "pq", ["--J1", "4"], 3)
        code = cli.main(
            ["verify", "--pub", str(out / "verifier.pub"), "--in", str(tmp_path / "nope.csv"),
             "--sigs", sigs, "--commits", commits]
        )
        assert code == 2

    def test_epoch_state_survives_key_file(self, tmp_path):
        out = keygen(tmp_path, "pq", ["--J1", "4"])
        key = out / f"signer_{ID_HEX_1}.key"
        first = write_csv(tmp_path, 2, "a.csv")
        second = write_csv(tmp_path, 2, "b.csv")
        assert cli.main(["sign", "--key", str(key), "--in", first, "--out", str(tmp_path / "s1")]) == 0
        assert cli.main(["sign", "--key", str(key), "--in", second, "--out", str(tmp_path / "s2")]) == 0
        state = keyfiles.load_signer_key(key)
        assert state.epoch == 5  # four messages signed across two runs

    def test_a_locked_key_file_is_not_signed_with(self, tmp_path, capsys):
        out = keygen(tmp_path, "pq", ["--J1", "4"])
        key = out / f"signer_{ID_HEX_1}.key"
        before = key.read_bytes()
        argv = ["sign", "--key", str(key), "--in", write_csv(tmp_path, 2),
                "--out", str(tmp_path / "sigs.bin")]
        with open(f"{key}.lock", "ab") as held:  # another signer of this key
            fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
            assert cli.main(argv) == 2
        assert f"error: {key} is in use by another signer" in capsys.readouterr().err
        assert key.read_bytes() == before
        assert not (tmp_path / "sigs.bin").exists()
        assert cli.main(argv) == 0  # released: the key signs again
        assert keyfiles.load_signer_key(key).epoch == 3

    def test_a_bad_hex_payload_names_its_row_and_signs_nothing(self, tmp_path, capsys):
        out = keygen(tmp_path, "pq", ["--J1", "4"])
        key = out / f"signer_{ID_HEX_1}.key"
        before = key.read_bytes()
        msgs = tmp_path / "hex.csv"
        msgs.write_text("1,00ff\n2,zz\n3,0102\n")
        code = cli.main(["sign", "--key", str(key), "--in", str(msgs), "--hex",
                         "--out", str(tmp_path / "sigs.bin")])
        assert code == 2
        assert "error: row 2: non-hexadecimal number found" in capsys.readouterr().err
        assert key.read_bytes() == before
        assert not (tmp_path / "sigs.bin").exists()

    def test_a_field_over_the_csv_limit_exits_2_and_signs_nothing(self, tmp_path, capsys):
        out = keygen(tmp_path, "pq", ["--J1", "4"])
        key = out / f"signer_{ID_HEX_1}.key"
        before = key.read_bytes()
        msgs = tmp_path / "long.csv"
        msgs.write_text(f"1,short\n2,{'x' * 140_000}\n3,short\n")
        code = cli.main(["sign", "--key", str(key), "--in", str(msgs),
                         "--out", str(tmp_path / "sigs.bin")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: row 2: field larger than field limit (131072)"]
        assert key.read_bytes() == before
        assert not (tmp_path / "sigs.bin").exists()

    @pytest.mark.parametrize("source", ["cco", "commits"])
    def test_a_field_over_the_csv_limit_exits_2_in_verify(self, tmp_path, capsys, source):
        out, msgs, sigs, commits = self.run_flow(tmp_path, "pq", ["--J1", "4"], 3)
        long = tmp_path / "long.csv"
        rows = Path(msgs).read_text().splitlines()
        rows[1] = f"1,{'x' * 140_000}"
        long.write_text("\n".join(rows) + "\n")
        argv = ["verify", "--pub", str(out / "verifier.pub"), "--in", str(long), "--sigs", sigs]
        store = keyfiles.load_store(out / "cco.store")
        capsys.readouterr()
        with transport.CcoServer(store) as server:
            sources = {"cco": ["--cco", f"127.0.0.1:{server.port}"], "commits": ["--commits", commits]}
            code = cli.main(argv + sources[source])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # no N/M line
        assert captured.err.splitlines() == ["error: row 2: field larger than field limit (131072)"]

    def test_an_out_in_a_missing_directory_burns_no_epoch(self, tmp_path, capsys):
        out = keygen(tmp_path, "pq", ["--J1", "4"])
        key = out / f"signer_{ID_HEX_1}.key"
        before = key.read_bytes()
        sigs = tmp_path / "missing" / "sigs.bin"
        capsys.readouterr()
        code = cli.main(["sign", "--key", str(key), "--in", write_csv(tmp_path, 3),
                         "--out", str(sigs)])
        assert code == 2
        assert f"No such file or directory: '{sigs}'" in capsys.readouterr().err
        assert key.read_bytes() == before
        assert not sigs.parent.exists()

    def test_an_out_equal_to_the_in_is_replaced_by_the_signatures(self, tmp_path):
        out = keygen(tmp_path, "pq", ["--J1", "4"])
        key = out / f"signer_{ID_HEX_1}.key"
        msgs = write_csv(tmp_path, 3)
        assert cli.main(["sign", "--key", str(key), "--in", msgs, "--out", msgs]) == 0
        assert [pq.PqSignature.from_bytes(blob).epoch
                for blob in keyfiles.load_signatures(msgs)] == [1, 2, 3]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ids.txt", "keys_pq", "msgs.csv"]

    def test_partial_batch_exits_2(self, tmp_path):
        out = keygen(tmp_path, "la", ["--L", "4"])
        key = out / f"signer_{ID_HEX_1}.key"
        msgs = write_csv(tmp_path, 6)  # not a multiple of 4
        code = cli.main(["sign", "--key", str(key), "--in", msgs, "--out", str(tmp_path / "s")])
        assert code == 2


class TestKeyEpochRange:
    """A signer key file holds the next epoch to sign, 1 to J + 1 (J + 1:
    every epoch signed); a key at any other epoch is refused when it
    loads, before anything is signed or saved."""

    EXTRA = {"pq": ["--J1", "4"], "la": ["--L", "2"], "hy": ["--J1", "4", "--L", "2"]}

    def key_at(self, tmp_path, scheme, epoch):
        key = keygen(tmp_path, scheme, self.EXTRA[scheme]) / f"signer_{ID_HEX_1}.key"
        state = keyfiles.load_signer_key(key)
        for part in (state.la, state.pq) if scheme == "hy" else (state,):
            part.epoch = epoch
        key.write_bytes(keyfiles.signer_key_bytes(state))
        return key

    def sign(self, tmp_path, key):
        """The exit code of ``hases sign`` of 4 records with ``key``; the
        key file must be left as it was, and no signature file written."""
        before, sigs = key.read_bytes(), tmp_path / "sigs.bin"
        code = cli.main(["sign", "--key", str(key), "--in", write_csv(tmp_path, 4),
                         "--out", str(sigs)])
        assert key.read_bytes() == before
        assert not sigs.exists()
        return code

    @pytest.mark.parametrize("epoch", [0, 16 + 2], ids=["zero", "J+2"])
    @pytest.mark.parametrize("scheme", ["pq", "la", "hy"])
    def test_an_epoch_outside_1_to_J_plus_1_exits_2(self, tmp_path, capsys, scheme, epoch):
        key = self.key_at(tmp_path, scheme, epoch)
        capsys.readouterr()
        assert self.sign(tmp_path, key) == 2
        err = capsys.readouterr().err
        assert f"error: {key} is not a signer key file: key epoch {epoch} is outside 1..17" in err

    @pytest.mark.parametrize("scheme", ["pq", "la", "hy"])
    def test_an_exhausted_key_loads_and_signs_nothing(self, tmp_path, capsys, scheme):
        key = self.key_at(tmp_path, scheme, 16 + 1)
        assert keyfiles.load_signer_key(key).epoch == 17
        capsys.readouterr()
        assert self.sign(tmp_path, key) == 2
        assert capsys.readouterr().err.startswith("error: all 16 ")


class TestPipelinedVerify:
    """``verify --cco`` over a chunk longer than the request window."""

    UNITS = 40

    def signed_chunk(self, tmp_path):
        out = tmp_path / "keys"
        assert cli.main(
            ["keygen", "--scheme", "pq", "--ids", write_ids(tmp_path), "--J", "64",
             "--J1", "4", "--t", "8", "--k", "4", "--out", str(out)]
        ) == 0
        msgs = write_csv(tmp_path, self.UNITS)
        sigs = tmp_path / "sigs.bin"
        key = out / f"signer_{ID_HEX_1}.key"
        assert cli.main(["sign", "--key", str(key), "--in", msgs, "--out", str(sigs)]) == 0
        return out, msgs, sigs

    def test_exact_per_unit_results(self, tmp_path, capsys):
        out, msgs, sigs = self.signed_chunk(tmp_path)
        pub = out / "verifier.pub"
        bundle = keyfiles.load_verifier_bundle(pub)
        in_store = bytes.fromhex(ID_HEX_1)
        not_in_store = bytes.fromhex(ID_HEX_2)
        # the bundle knows a signer the service does not
        keyfiles.save_verifier_bundle(
            pub, bundle._replace(public_keys={in_store: None, not_in_store: None})
        )
        blobs = keyfiles.load_signatures(sigs)

        def moved(blob, signer_id=in_store, epoch=None):
            signature = pq.PqSignature.from_bytes(blob)
            epoch = signature.epoch if epoch is None else epoch
            return pq.PqSignature(signer_id, epoch, signature.body).to_bytes()

        blobs[3] = moved(blobs[3], epoch=65)  # past J: epoch-range status
        blobs[17] = moved(blobs[17], signer_id=not_in_store)  # unknown-id status
        blobs[18] = moved(blobs[18], signer_id=b"\xcc" * 16)  # not in the bundle: no request
        blobs[26] = blobs[26][:-1]  # malformed: no request
        blobs[30] = moved(blobs[30], epoch=32)  # served, but the wrong epoch's commitment
        keyfiles.save_signatures(sigs, blobs)
        rejected = {3, 17, 18, 26, 30}

        store = keyfiles.load_store(out / "cco.store")
        requests = []
        handle = store.handle_request
        store.handle_request = lambda payload: requests.append(payload) or handle(payload)
        with transport.CcoServer(store) as server:
            address = f"127.0.0.1:{server.port}"
            bundle = keyfiles.load_verifier_bundle(pub)
            records = stream.read_stream(msgs, "csv", False)
            source = verifier.CommitmentSource(bundle, ("127.0.0.1", server.port))
            try:
                results = verifier.verify_all(bundle, records, blobs, source)
            finally:
                source.close()
            assert results == [n not in rejected for n in range(self.UNITS)]
            # one opening per run of consecutive epochs; a unit past J, of
            # another signer, after a gap or at a repeated epoch starts a
            # run of its own, and the units without a request (18, 26)
            # end none
            assert {p[0] for p in requests} == {cco.MSG_PQ_OPENING}
            assert opened_runs(requests, 4) == [(1, 3), (65, 1), (5, 13), (18, 1), (20, 7),
                                                (28, 3), (32, 1), (32, 9)]

            capsys.readouterr()
            code = cli.main(
                ["verify", "--pub", str(pub), "--in", msgs, "--sigs", str(sigs), "--cco", address]
            )
        assert code == 1
        assert f"{self.UNITS - 5}/{self.UNITS} signatures valid" in capsys.readouterr().out

    def test_a_refused_run_rejects_each_of_its_units(self, tmp_path, capsys):
        out, msgs, sigs = self.signed_chunk(tmp_path)
        pub = out / "verifier.pub"
        not_in_store = bytes.fromhex(ID_HEX_2)
        # every unit names a bundle signer the service does not know
        bundle = keyfiles.load_verifier_bundle(pub)
        keyfiles.save_verifier_bundle(pub, bundle._replace(public_keys={not_in_store: None}))
        blobs = [pq.PqSignature.from_bytes(blob)._replace(signer_id=not_in_store).to_bytes()
                 for blob in keyfiles.load_signatures(sigs)]
        keyfiles.save_signatures(sigs, blobs)
        store = keyfiles.load_store(out / "cco.store")
        requests = []
        handle = store.handle_request
        store.handle_request = lambda payload: requests.append(payload) or handle(payload)
        with transport.CcoServer(store) as server:
            capsys.readouterr()
            assert cli.main(["verify", "--pub", str(pub), "--in", msgs, "--sigs", str(sigs),
                             "--cco", f"127.0.0.1:{server.port}"]) == 1
        assert capsys.readouterr().out == f"0/{self.UNITS} signatures valid\n"
        # the one run is refused, as each of its single openings would be,
        # and no unit is asked for again
        assert opened_runs(requests, 4) == [(1, self.UNITS)]

    @pytest.mark.parametrize("resized", [lambda body: body + bytes(32), lambda body: body[:-32]],
                             ids=["one-entry-more", "one-entry-less"])
    def test_a_run_reply_of_the_wrong_size_rejects_each_of_its_units(self, tmp_path, capsys,
                                                                     resized):
        out, msgs, sigs = self.signed_chunk(tmp_path)
        store = keyfiles.load_store(out / "cco.store")
        handle = store.handle_request
        store.handle_request = lambda payload: resized(handle(payload))
        with transport.CcoServer(store) as server:
            capsys.readouterr()
            assert cli.main(["verify", "--pub", str(out / "verifier.pub"), "--in", msgs,
                             "--sigs", str(sigs), "--cco", f"127.0.0.1:{server.port}"]) == 1
        assert capsys.readouterr().out == f"0/{self.UNITS} signatures valid\n"

    def test_a_run_holds_at_most_256_over_k_units(self, tmp_path, capsys):
        # k = 64: four units per run; the run of epochs 5-8 crosses the
        # anchor at epoch 7
        out = tmp_path / "keys"
        assert cli.main(["keygen", "--scheme", "pq", "--ids", write_ids(tmp_path), "--J", "12",
                         "--J1", "2", "--t", "16", "--k", "64", "--out", str(out)]) == 0
        msgs = write_csv(tmp_path, 12)
        sigs = str(tmp_path / "sigs.bin")
        assert cli.main(["sign", "--key", str(out / f"signer_{ID_HEX_1}.key"), "--in", msgs,
                         "--out", sigs]) == 0
        store = keyfiles.load_store(out / "cco.store")
        requests = []
        handle = store.handle_request
        store.handle_request = lambda payload: requests.append(payload) or handle(payload)
        with transport.CcoServer(store) as server:
            capsys.readouterr()
            assert cli.main(["verify", "--pub", str(out / "verifier.pub"), "--in", msgs,
                             "--sigs", sigs, "--cco", f"127.0.0.1:{server.port}"]) == 0
        assert capsys.readouterr().out == "12/12 signatures valid\n"
        assert cco.MAX_OPENING_INDICES // 64 == 4
        assert opened_runs(requests, 64) == [(1, 4), (5, 4), (9, 4)]

    def test_service_closing_mid_pipeline_exits_2(self, tmp_path):
        out, msgs, sigs = self.signed_chunk(tmp_path)
        listener = socket.create_server(("127.0.0.1", 0))

        def hang_up_after_the_run():
            # reads the chunk's one run of 40 openings, then hangs up
            with listener:
                conn, _ = listener.accept()
                with conn, conn.makefile("rwb") as stream:
                    assert opened_runs([transport.read_frame(stream)], 4) == [(1, self.UNITS)]

        thread = threading.Thread(target=hang_up_after_the_run, daemon=True)
        thread.start()
        code = cli.main(
            ["verify", "--pub", str(out / "verifier.pub"), "--in", msgs,
             "--sigs", str(sigs), "--cco", f"127.0.0.1:{listener.getsockname()[1]}"]
        )
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert code == 2


class TestOnlineMatchesOffline:
    """``verify --cco`` (openings) and ``verify --commits`` (full commitments
    sliced locally) give the same per-unit results."""

    UNITS = 14

    def signed_chunk(self, tmp_path, scheme):
        batch = 2 if scheme == "hy" else 1
        extra = ["--J1", "4"] + (["--L", str(batch)] if scheme == "hy" else [])
        out = keygen(tmp_path, scheme, extra)
        msgs = write_csv(tmp_path, self.UNITS * batch)
        sigs = tmp_path / "sigs.bin"
        key = out / f"signer_{ID_HEX_1}.key"
        assert cli.main(["sign", "--key", str(key), "--in", msgs, "--out", str(sigs)]) == 0
        return out, msgs, sigs

    @staticmethod
    def moved(bundle, blob, signer_id=None, epoch=None):
        if bundle.scheme == schemes.PQ.tag:
            old = pq.PqSignature.from_bytes(blob)
            return pq.PqSignature(signer_id or old.signer_id, epoch or old.epoch,
                                  old.body).to_bytes()
        old = hy.HySignature.from_bytes(blob, bundle.la_params.group)
        signer_id, epoch = signer_id or old.la.signer_id, epoch or old.la.epoch
        return hy.HySignature(la.LaSignature(signer_id, epoch, old.la.agg, old.la.seed),
                              pq.PqSignature(signer_id, epoch, old.pq.body)).to_bytes()

    @pytest.mark.parametrize("scheme", ["pq", "hy"])
    def test_same_results_and_exit_codes(self, tmp_path, capsys, scheme):
        out, msgs, sigs = self.signed_chunk(tmp_path, scheme)
        pub = out / "verifier.pub"
        bundle = keyfiles.load_verifier_bundle(pub)
        in_store, not_in_store = bytes.fromhex(ID_HEX_1), bytes.fromhex(ID_HEX_2)
        # the bundle knows a signer the service does not
        keys = dict(bundle.public_keys)
        keys[not_in_store] = keys[in_store]
        bundle = bundle._replace(public_keys=keys)
        keyfiles.save_verifier_bundle(pub, bundle)
        if bundle.la_params:  # the table file follows the edited bundle
            assert cli.main(["tables", "--pub", str(pub)]) == 0
        clean = keyfiles.load_signatures(sigs)
        blobs = list(clean)
        tampered = bytearray(blobs[2])
        tampered[-1] ^= 1  # the last revealed pq string
        blobs[2] = bytes(tampered)
        blobs[4] = blobs[4][:-1]  # malformed
        blobs[6] = self.moved(bundle, blobs[6], signer_id=not_in_store)  # unknown id
        blobs[8] = self.moved(bundle, blobs[8], epoch=17)  # past J
        blobs[10] = self.moved(bundle, blobs[10], epoch=12)  # another epoch's commitment
        blobs[11] = self.moved(bundle, blobs[11], signer_id=b"\xcc" * 16)  # not in the bundle
        rejected = {2, 4, 6, 8, 10, 11}
        mixed = tmp_path / "mixed.bin"
        keyfiles.save_signatures(mixed, blobs)

        store = keyfiles.load_store(out / "cco.store")
        requests = []
        handle = store.handle_request  # what the service asks of the store for every request
        store.handle_request = lambda payload: requests.append(payload) or handle(payload)
        commits = str(tmp_path / "commits.bin")
        records = stream.read_stream(msgs, "csv", False)
        with transport.CcoServer(store) as server:
            address = f"127.0.0.1:{server.port}"
            assert cli.main(["request", "--cco", address, "--scheme", scheme, "--id", ID_HEX_1,
                             "--export", "1:16", "--out", commits]) == 0
            results = {}
            for name, args in (("online", (("127.0.0.1", server.port), None)),
                               ("offline", (None, commits))):
                source = verifier.CommitmentSource(bundle, *args)
                try:
                    results[name] = verifier.verify_all(bundle, records, blobs, source)
                finally:
                    source.close()
            assert results["online"] == results["offline"] == [
                n not in rejected for n in range(self.UNITS)]
            # the export's 16 single requests, then one pq opening request
            # per run of consecutive epochs among the units that name a
            # bundle signer (unit 10, moved to epoch 12, opens a run with
            # units 12 and 13); hy first asks for one combined check per
            # signer (the unit past J is left out), and as unit 10 fails
            # it, asks for each aggregate commitment alone
            runs = [(1, 4), (6, 1), (7, 1), (8, 1), (17, 1), (10, 1), (12, 3)]
            expected = [schemes.BY_NAME[scheme].tag] * 16 + [cco.MSG_PQ_OPENING] * len(runs)
            if scheme == "hy":
                expected[16:16] = [cco.MSG_LA_COMBINED] * 2
                expected += [cco.MSG_LA] * (self.UNITS - 2)
            assert [p[0] for p in requests] == expected
            assert opened_runs(requests, 16) == runs

            def verify(sig_file, *source):
                capsys.readouterr()
                code = cli.main(["verify", "--pub", str(pub), "--in", msgs,
                                 "--sigs", str(sig_file), *source])
                return code, capsys.readouterr().out

            for source in (["--cco", address], ["--commits", commits]):
                assert verify(mixed, *source) == (
                    1, f"{self.UNITS - len(rejected)}/{self.UNITS} signatures valid\n")
                assert verify(sigs, *source) == (0, f"{self.UNITS}/{self.UNITS} signatures valid\n")
            assert verify(sigs, "--commits", str(tmp_path / "missing.bin"))[0] == 2
        # the service is gone
        assert verify(sigs, "--cco", address)[0] == 2


class TestKeysDecodedOnUse:
    def test_one_key_decoded_per_signer_checked_and_r_never(
        self, tmp_path, capsys, monkeypatch, small_order_points
    ):
        out = tmp_path / "keys"
        ids = write_ids(tmp_path, (ID_HEX_1, ID_HEX_2))
        assert cli.main(["keygen", "--scheme", "hy", "--ids", ids, "--J", "8", "--J1", "2",
                         "--L", "2", "--t", "64", "--k", "8", "--out", str(out)]) == 0
        msgs = write_csv(tmp_path, 8)
        sigs = str(tmp_path / "sigs.bin")
        key = out / f"signer_{ID_HEX_1}.key"
        assert cli.main(["sign", "--key", str(key), "--in", msgs, "--out", sigs]) == 0
        pub = str(out / "verifier.pub")
        bundle = keyfiles.load_verifier_bundle(pub)
        group = bundle.la_params.group
        commits = str(tmp_path / "commits.bin")
        shifted = str(tmp_path / "shifted.bin")
        decoded = []
        decode = group_module._decode_point
        monkeypatch.setattr(
            group_module, "_decode_point", lambda data: decoded.append(data) or decode(data)
        )
        with transport.CcoServer(keyfiles.load_store(out / "cco.store")) as server:
            address = f"127.0.0.1:{server.port}"
            assert cli.main(["request", "--cco", address, "--scheme", "hy", "--id", ID_HEX_1,
                             "--export", "1:4", "--out", commits]) == 0
            # epoch 2's R plus a point of order 8
            blobs = keyfiles.load_commitments(commits)
            full = hy.HyCommitment.from_bytes(blobs[1])
            R = group.decode_element(full.la.r_bytes)
            moved = group.encode_element(group.mul(R, small_order_points[1]))
            blobs[1] = hy.HyCommitment(full.la._replace(r_bytes=moved), full.pq).to_bytes()
            keyfiles.save_commitments(shifted, blobs)
            # with keygen's table file, no key is decoded; without it, the
            # one signer's key, once, and not the other key; never an R
            for keys_decoded in ([], [bundle.public_keys[bytes.fromhex(ID_HEX_1)]]):
                for source, valid in ((["--cco", address], 4), (["--commits", commits], 4),
                                      (["--commits", shifted], 3)):
                    decoded.clear()
                    capsys.readouterr()
                    code = cli.main(["verify", "--pub", pub, "--in", msgs, "--sigs", sigs,
                                     *source])
                    assert (code, capsys.readouterr().out) == (
                        0 if valid == 4 else 1, f"{valid}/4 signatures valid\n")
                    assert decoded == keys_decoded
                keyfiles.tables_path(pub).unlink(missing_ok=True)  # the next pass runs without


class TestKeyTableFiles:
    """``verifier.pub.tables``: each key's table, built once at keygen."""

    def flow(self, tmp_path, scheme="hy", ids=(ID_HEX_1, ID_HEX_2)):
        out = tmp_path / f"keys_{scheme}"
        assert cli.main(["keygen", "--scheme", scheme, "--ids", write_ids(tmp_path, ids),
                         "--J", "8", "--J1", "2", "--L", "2", "--t", "64", "--k", "8",
                         "--out", str(out)]) == 0
        msgs = write_csv(tmp_path, 8)
        sigs = str(tmp_path / "sigs.bin")
        key = out / f"signer_{ID_HEX_1}.key"
        assert cli.main(["sign", "--key", str(key), "--in", msgs, "--out", sigs]) == 0
        commits = str(tmp_path / "commits.bin")
        with transport.CcoServer(keyfiles.load_store(out / "cco.store")) as server:
            assert cli.main(["request", "--cco", f"127.0.0.1:{server.port}", "--scheme", scheme,
                             "--id", ID_HEX_1, "--export", "1:8", "--out", commits]) == 0
        return out / "verifier.pub", msgs, sigs, commits

    def verify(self, capsys, pub, msgs, sigs, *source):
        capsys.readouterr()
        code = cli.main(["verify", "--pub", str(pub), "--in", msgs, "--sigs", sigs, *source])
        return code, capsys.readouterr()

    def counted_precompute(self, monkeypatch, group):
        calls = []
        precompute = type(group).precompute
        monkeypatch.setattr(type(group), "precompute",
                            lambda self, key: calls.append(key) or precompute(self, key))
        return calls

    @pytest.mark.parametrize("backend", ["production", "tiny"])
    @pytest.mark.parametrize("scheme", ["la", "hy"])
    def test_keygen_writes_what_tables_rebuilds(self, tmp_path, monkeypatch, scheme, backend):
        monkeypatch.setenv("HASES_BACKEND", backend)
        pub, _, _, _ = self.flow(tmp_path, scheme)
        bundle = keyfiles.load_verifier_bundle(pub)
        group = bundle.la_params.group
        tables = keyfiles.tables_path(pub)
        written = tables.read_bytes()
        # magic, group tag, the SHA-256 of the bundle's bytes, the sorted ids
        assert written[:14] == b"HASES-TABLES\x01" + bytes((group.backend_tag,))
        assert written[14:46] == hashlib.sha256(pub.read_bytes()).digest()
        assert written[46:54] == (2).to_bytes(8, "big")
        assert written[54:86] == bytes.fromhex(ID_HEX_1 + ID_HEX_2)
        assert len(written) == 86 + 2 * group.table_len
        assert group.table_len == (16384 if backend == "production" else 32)
        # the bundle is unchanged beside it
        assert pub.read_bytes() == bundle.to_bytes()
        tables.unlink()
        assert cli.main(["tables", "--pub", str(pub)]) == 0
        assert tables.read_bytes() == written

    @pytest.mark.parametrize("backend", ["production", "tiny"])
    @pytest.mark.parametrize("scheme", ["la", "hy"])
    def test_keygen_checks_each_key_it_builds_a_table_of(self, tmp_path, monkeypatch, scheme,
                                                          backend):
        # keygen's tables come from group.precompute, as `hases tables`' do:
        # each key decoded and checked once, its own keys no exception
        monkeypatch.setenv("HASES_BACKEND", backend)
        checked = self.counted_precompute(monkeypatch, cli.backend_group())
        ids = (ID_HEX_1, ID_HEX_2, "c" * 32)
        assert cli.main(["keygen", "--scheme", scheme, "--ids", write_ids(tmp_path, ids),
                         "--J", "4", "--J1", "2", "--L", "2", "--t", "64", "--k", "8",
                         "--out", str(tmp_path / "keys")]) == 0
        public = keyfiles.load_verifier_bundle(tmp_path / "keys" / "verifier.pub").public_keys
        assert len(public) == 3 and sorted(checked) == sorted(public.values())

    def test_pq_keygen_writes_no_table_file(self, tmp_path, capsys):
        out = keygen(tmp_path, "pq", ["--J1", "4"])
        assert not keyfiles.tables_path(out / "verifier.pub").exists()
        assert cli.main(["tables", "--pub", str(out / "verifier.pub")]) == 2
        assert "holds no aggregate keys" in capsys.readouterr().err

    @pytest.mark.parametrize("scheme", ["la", "hy"])
    def test_a_verify_with_the_file_checks_no_key(self, tmp_path, capsys, monkeypatch, scheme):
        pub, msgs, sigs, commits = self.flow(tmp_path, scheme)
        group = keyfiles.load_verifier_bundle(pub).la_params.group
        checked = self.counted_precompute(monkeypatch, group)
        store = keyfiles.load_store(pub.parent / "cco.store")
        with transport.CcoServer(store) as server:
            for source in (["--cco", f"127.0.0.1:{server.port}"], ["--commits", commits]):
                code, output = self.verify(capsys, pub, msgs, sigs, *source)
                assert (code, output.out) == (0, "4/4 signatures valid\n")
        assert checked == []
        keyfiles.tables_path(pub).unlink()
        code, output = self.verify(capsys, pub, msgs, sigs, "--commits", commits)
        assert (code, output.out) == (0, "4/4 signatures valid\n")
        assert len(checked) == 1  # without the file: the one signer's key, once

    def spoiled(self, pub, kind):
        """The table file of ``pub`` spoiled in the way ``kind`` names."""
        path = keyfiles.tables_path(pub)
        data = bytearray(path.read_bytes())
        if kind == "another-bundle":
            data[14] ^= 1  # the digest of some other bundle
        elif kind == "wrong-tag":
            data[13] ^= 1
        elif kind == "truncated":
            del data[-1]
        elif kind == "extra-bytes":
            data += b"\x00"
        elif kind == "other-ids":
            data[54 + 31] ^= 1  # the digest holds; the second id does not
        elif kind == "not-a-table-file":
            data[:4] = b"ABCD"
        path.write_bytes(bytes(data))
        return path

    @pytest.mark.parametrize("kind", ["another-bundle", "wrong-tag", "truncated", "extra-bytes",
                                      "other-ids", "not-a-table-file"])
    def test_a_mismatched_table_file_exits_2_and_is_named(self, tmp_path, capsys, kind):
        pub, msgs, sigs, commits = self.flow(tmp_path)
        path = self.spoiled(pub, kind)
        store = keyfiles.load_store(pub.parent / "cco.store")
        with transport.CcoServer(store) as server:
            for source in (["--cco", f"127.0.0.1:{server.port}"], ["--commits", commits]):
                code, output = self.verify(capsys, pub, msgs, sigs, *source)
                assert code == 2
                assert output.out == ""
                assert f"error: {path} is not the key table file of this bundle: " in output.err

    def test_a_table_file_of_another_ceremony_exits_2(self, tmp_path, capsys):
        pub, msgs, sigs, commits = self.flow(tmp_path)
        (tmp_path / "other").mkdir()
        other, _, _, _ = self.flow(tmp_path / "other")
        path = keyfiles.tables_path(pub)
        path.write_bytes(keyfiles.tables_path(other).read_bytes())
        code, output = self.verify(capsys, pub, msgs, sigs, "--commits", commits)
        assert code == 2
        assert f"{path} is not the key table file of this bundle: written for another" in output.err

    def test_an_edited_bundle_needs_its_tables_rebuilt(self, tmp_path, capsys, small_order_points):
        pub, msgs, sigs, commits = self.flow(tmp_path)
        bundle = keyfiles.load_verifier_bundle(pub)
        group = bundle.la_params.group
        keys = dict(bundle.public_keys)
        second = bytes.fromhex(ID_HEX_2)
        keys[second] = group.encode_element(group.mul(group.decode_element(keys[second]),
                                                      small_order_points[1]))
        keyfiles.save_verifier_bundle(pub, bundle._replace(public_keys=keys))
        code, output = self.verify(capsys, pub, msgs, sigs, "--commits", commits)
        assert code == 2
        assert f"{keyfiles.tables_path(pub)} is not the key table file" in output.err
        # the rebuild checks every key: the torsion-shifted one is refused
        assert cli.main(["tables", "--pub", str(pub)]) == 2
        assert f"the key of signer {ID_HEX_2}: " in capsys.readouterr().err
        keys[second] = bundle.public_keys[second]
        keyfiles.save_verifier_bundle(pub, bundle._replace(public_keys=keys))
        assert cli.main(["tables", "--pub", str(pub)]) == 0
        assert self.verify(capsys, pub, msgs, sigs, "--commits", commits)[0] == 0

    @pytest.mark.parametrize("order", ["repeated", "unsorted"])
    def test_a_bundle_out_of_order_exits_2_and_is_named(self, tmp_path, capsys, order):
        pub, msgs, sigs, commits = self.flow(tmp_path, "la")
        data = pub.read_bytes()
        count_at = len(data) - 2 * 48 - 8
        first, second = data[count_at + 8 : count_at + 56], data[count_at + 56 :]
        entries = [first, second, first] if order == "repeated" else [second, first]
        pub.write_bytes(data[:count_at] + len(entries).to_bytes(8, "big") + b"".join(entries))
        code, output = self.verify(capsys, pub, msgs, sigs, "--commits", commits)
        assert code == 2
        assert f"error: {pub} is not a verifier bundle: signer ids not in strictly" in output.err


def wakeup_fd() -> int:
    """The process's signal wakeup fd, set back as it was."""
    fd = signal.set_wakeup_fd(-1)
    signal.set_wakeup_fd(fd)
    return fd


def test_a_stop_signalled_while_the_loop_waits_exits_at_once(tmp_path, monkeypatch):
    # SIGTERM reaches another thread while the idle loop waits in select with
    # no timeout: its handler runs only once the main thread runs bytecode
    # again, so the signal must wake the loop itself (its wakeup fd).  Else the
    # signalling thread wakes the loop with a connection after 3 s, and the
    # test fails on the time, not by hanging
    out = keygen(tmp_path, "pq", ["--J1", "4"])
    registered, sent = [], []
    waiting, returned = threading.Event(), threading.Event()

    class Selector(selectors.DefaultSelector):
        def register(self, fileobj, events, data=None):
            registered.append(fileobj)  # the listener first
            return super().register(fileobj, events, data)

        def select(self, timeout=None):
            if timeout is None:  # idle: no connection to time out
                waiting.set()
            return super().select(timeout)

    def signaller():
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
        assert waiting.wait(10)
        time.sleep(0.2)  # into the select call
        sent.append(time.monotonic())
        signal.pthread_kill(threading.get_ident(), signal.SIGTERM)  # to this thread
        if not returned.wait(3):
            socket.create_connection(registered[0].getsockname()[:2], timeout=10).close()

    monkeypatch.setattr(transport.selectors, "DefaultSelector", Selector)
    handlers = {signum: signal.getsignal(signum) for signum in (signal.SIGTERM, signal.SIGINT)}
    fd = wakeup_fd()
    thread = threading.Thread(target=signaller, daemon=True)
    thread.start()
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})  # never on the main thread
    try:
        code = cli.main(["serve", "--store", str(out / "cco.store"), "--port", "0"])
        stopped = time.monotonic()
    finally:
        returned.set()
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for signum, handler in handlers.items():
            signal.signal(signum, handler)
        signal.set_wakeup_fd(fd)
        thread.join(10)
    assert code == 0 and not thread.is_alive()
    assert stopped - sent[0] < 2.0  # 0.01 s where the signal wakes the loop, 3 s where not
    assert [sock for sock in registered if sock.fileno() != -1] == []


def test_a_stop_signalled_while_a_connection_closes_exits_0(tmp_path, monkeypatch):
    # SIGTERM lands while the loop closes a client's connection, between the
    # selector's unregister and the rest of the close: `hases serve` must
    # still close every socket and return 0
    out = keygen(tmp_path, "pq", ["--J1", "4"])
    registered, signalled, replies = [], [], []
    listening = threading.Event()

    class Selector(selectors.DefaultSelector):
        def register(self, fileobj, events, data=None):
            key = super().register(fileobj, events, data)
            registered.append(fileobj)  # the listener first
            listening.set()
            return key

        def unregister(self, fileobj):
            key = super().unregister(fileobj)
            if key.data is not None and not signalled:  # a client's connection
                signalled.append(fileobj)
                signal.raise_signal(signal.SIGTERM)  # its handler runs before this returns
            return key

    def client():
        assert listening.wait(10)
        with transport.CcoClient(*registered[0].getsockname()[:2], timeout=10) as connection:
            replies.append(connection.request_raw(
                cco.commitment_payload(cco.MSG_PQ, bytes.fromhex(ID_HEX_1), 1)))

    monkeypatch.setattr(transport.selectors, "DefaultSelector", Selector)
    handlers = {signum: signal.getsignal(signum) for signum in (signal.SIGTERM, signal.SIGINT)}
    fd = wakeup_fd()
    thread = threading.Thread(target=client, daemon=True)
    thread.start()
    try:
        code = cli.main(["serve", "--store", str(out / "cco.store"), "--port", "0"])
        # the handlers and the wakeup fd from before the call, not the service's, are set again
        assert {signum: signal.getsignal(signum) for signum in handlers} == handlers
        assert wakeup_fd() == fd
    finally:
        for signum, handler in handlers.items():
            signal.signal(signum, handler)
        signal.set_wakeup_fd(fd)
        thread.join(10)
    assert code == 0 and not thread.is_alive()
    assert len(signalled) == 1 and replies[0][:2] == bytes((0x81, cco.STATUS_OK))
    assert [sock for sock in registered if sock.fileno() != -1] == []


linux_only = pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")


def child_pids(pid):
    """The pids of the processes whose parent is ``pid``, read from /proc."""
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            pids.append(int(stat.parent.name))
    return pids


class TestServeSubprocess:
    """True process boundary: the store lives in a separate process."""

    def start_server(self, tmp_path, store_path):
        argv = [sys.executable, "-m", "hases.cli", "serve", "--store", str(store_path), "--port", "0"]
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONUNBUFFERED": "1"},
        )
        line = proc.stdout.readline()
        match = re.search(r"listening on .*:(\d+)", line)
        assert match, f"no listen line, got {line!r}"
        return proc, int(match.group(1))

    def test_three_batch_stream_via_live_service(self, tmp_path):
        out = keygen(tmp_path, "hy", ["--J1", "4", "--L", "2"])
        key = out / f"signer_{ID_HEX_1}.key"
        msgs = write_csv(tmp_path, 6)  # three batches of two
        sigs = str(tmp_path / "sigs.bin")
        assert cli.main(["sign", "--key", str(key), "--in", msgs, "--out", sigs]) == 0
        proc, port = self.start_server(tmp_path, out / "cco.store")
        try:
            code = cli.main(
                ["verify", "--pub", str(out / "verifier.pub"), "--in", msgs,
                 "--sigs", sigs, "--cco", f"127.0.0.1:{port}"]
            )
            assert code == 0
        finally:
            proc.terminate()
            proc.wait(timeout=10)

    def test_truncated_store_exits_2(self, tmp_path):
        out = keygen(tmp_path, "hy", ["--J1", "4", "--L", "2"])
        store = out / "cco.store"
        store.write_bytes(store.read_bytes()[:12])  # the magic alone
        proc = subprocess.run(
            [sys.executable, "-m", "hases.cli", "serve", "--store", str(store), "--port", "0"],
            capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 2
        assert f"error: {store} is not a key store file: truncated key store file" in proc.stderr

    def test_a_store_with_an_unknown_section_flag_exits_2(self, tmp_path):
        store = tmp_path / "cco.store"
        store.write_bytes(keyfiles._STORE_MAGIC + b"\x07\x07")
        proc = subprocess.run(
            [sys.executable, "-m", "hases.cli", "serve", "--store", str(store), "--port", "0"],
            capture_output=True, text=True, timeout=30,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (f"error: {store} is not a key store file: "
                               "forward-secure section flag 0x07, not 0 or 1\n")

    def test_a_store_with_no_material_exits_2(self, tmp_path):
        store = tmp_path / "cco.store"
        store.write_bytes(keyfiles._STORE_MAGIC + b"\x00\x00")
        proc = subprocess.run(
            [sys.executable, "-m", "hases.cli", "serve", "--store", str(store), "--port", "0"],
            capture_output=True, text=True, timeout=30,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (f"error: {store} is not a key store file: "
                               "key store file holds no key material\n")

    def test_a_stop_signalled_as_the_line_is_read_exits_0(self, tmp_path):
        # the handlers are installed before the line: a SIGTERM sent the
        # moment the line is read stops the service, not the default action (-15)
        out = keygen(tmp_path, "pq", ["--J1", "4"])
        for _ in range(5):
            proc, _ = self.start_server(tmp_path, out / "cco.store")
            proc.terminate()
            assert proc.wait(timeout=10) == 0, proc.stderr.read()
            proc.stdout.close()
            proc.stderr.close()

    @contextmanager
    def served_once(self, tmp_path):
        """A ``hases serve`` process of a t=1024 pq store, and its port, once
        it has answered a full ``0x01`` build as the store does in process;
        killed on exit."""
        out = keygen(tmp_path, "pq", ["--J1", "4"])
        proc, port = self.start_server(tmp_path, out / "cco.store")
        payload = cco.commitment_payload(cco.MSG_PQ, bytes.fromhex(ID_HEX_1), 1)
        with proc:
            try:
                with transport.CcoClient("127.0.0.1", port) as client:
                    reply = client.request_raw(payload)
                assert reply == keyfiles.load_store(out / "cco.store").handle_request(payload)
                yield proc, port
            finally:
                proc.kill()

    def test_sigterm_after_a_build_exits_0_with_no_traceback(self, tmp_path):
        with self.served_once(tmp_path) as (proc, _):
            proc.terminate()
            assert proc.wait(timeout=10) == 0
            assert "Traceback" not in proc.stderr.read()

    @linux_only
    def test_the_service_forks_nothing(self, tmp_path):
        with self.served_once(tmp_path) as (proc, _):
            assert child_pids(proc.pid) == []

    @linux_only
    def test_three_open_connections_are_served_by_one_thread(self, tmp_path):
        payload = cco.commitment_payload(cco.MSG_PQ, bytes.fromhex(ID_HEX_1), 2)
        with self.served_once(tmp_path) as (proc, port):
            clients = [transport.CcoClient("127.0.0.1", port) for _ in range(3)]
            try:
                for client in clients:
                    assert client.request_raw(payload)[1] == cco.STATUS_OK
                assert len(os.listdir(f"/proc/{proc.pid}/task")) == 1
            finally:
                for client in clients:
                    client.close()

    def test_request_error_status_exits_2(self, tmp_path):
        out = keygen(tmp_path, "pq", ["--J1", "4"])
        proc, port = self.start_server(tmp_path, out / "cco.store")
        try:
            code = cli.main(
                ["request", "--cco", f"127.0.0.1:{port}", "--scheme", "pq",
                 "--id", ID_HEX_1, "--epoch", "99"]  # past the final epoch
            )
            assert code == 2
        finally:
            proc.terminate()
            proc.wait(timeout=10)

    def test_request_single_commitment(self, tmp_path, capsys):
        out = keygen(tmp_path, "pq", ["--J1", "4"])
        proc, port = self.start_server(tmp_path, out / "cco.store")
        capsys.readouterr()  # drop keygen chatter
        try:
            code = cli.main(
                ["request", "--cco", f"127.0.0.1:{port}", "--scheme", "pq",
                 "--id", ID_HEX_1, "--epoch", "3"]
            )
            assert code == 0
            printed = capsys.readouterr().out.strip()
            assert len(bytes.fromhex(printed)) == 25 + 1024 * 32
        finally:
            proc.terminate()
            proc.wait(timeout=10)

    def test_interrupt_with_an_idle_client_connected_exits_0(self, tmp_path):
        out = keygen(tmp_path, "pq", ["--J1", "4"])
        proc, port = self.start_server(tmp_path, out / "cco.store")
        with proc:  # closes the pipes and waits on exit
            try:
                with transport.CcoClient("127.0.0.1", port) as client:
                    blob = client.batch_export(cco.MSG_PQ, bytes.fromhex(ID_HEX_1), 1, 1)[0]
                    assert pq.PqCommitment.from_bytes(blob).epoch == 1
                    # the client stays connected and idle while the service stops
                    proc.send_signal(signal.SIGINT)
                    assert proc.wait(timeout=10) == 0
            finally:
                proc.kill()


class TestNumbersTheWireCannotCarry:
    """A port outside 0..65535, an epoch outside [0, 2^64), an export the
    client or the service refuses, a port in use or a key size the files
    cannot hold is an operational error: exit 2 and one ``error:`` line,
    no traceback."""

    @pytest.fixture
    def served(self, tmp_path):
        out = keygen(tmp_path, "pq", ["--J1", "4"])
        with transport.CcoServer(keyfiles.load_store(out / "cco.store")) as server:
            yield out, server.port

    def error(self, capsys, argv) -> str:
        capsys.readouterr()  # drop keygen chatter
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        return err

    def test_serve_on_a_port_in_use_exits_2(self, served, capsys):
        out, port = served
        err = self.error(capsys, ["serve", "--store", str(out / "cco.store"), "--port", str(port)])
        assert "Address already in use" in err

    @pytest.mark.parametrize("port", ["70000", "-1"])
    def test_serve_on_a_port_outside_the_range_exits_2(self, served, capsys, port):
        out, _ = served
        err = self.error(capsys, ["serve", "--store", str(out / "cco.store"), "--port", port])
        assert err == f"error: --port {port} is outside 0..65535\n"

    def test_verify_with_a_cco_port_outside_the_range_exits_2(self, served, capsys):
        out, _ = served
        err = self.error(capsys, ["verify", "--pub", str(out / "verifier.pub"), "--in", "msgs.csv",
                                  "--sigs", "sigs.bin", "--cco", "127.0.0.1:99999"])
        assert err == "error: port 99999 is outside 0..65535\n"

    def test_request_with_a_cco_port_outside_the_range_exits_2(self, capsys):
        err = self.error(capsys, ["request", "--cco", "127.0.0.1:99999", "--scheme", "pq",
                                  "--id", ID_HEX_1, "--epoch", "1"])
        assert err == "error: port 99999 is outside 0..65535\n"

    @pytest.mark.parametrize("option, value", [
        ("--epoch", "-1"), ("--epoch", str(1 << 64)), ("--export", "-1:4")])
    def test_request_of_an_epoch_outside_the_range_exits_2(self, served, tmp_path, capsys,
                                                            option, value):
        _, port = served
        err = self.error(capsys, ["request", "--cco", f"127.0.0.1:{port}", "--scheme", "pq",
                                  "--id", ID_HEX_1, f"{option}={value}",
                                  "--out", str(tmp_path / "commits.bin")])
        number = value.partition(":")[0]
        assert err == f"error: {option} {number} is outside 0..{(1 << 64) - 1}\n"

    def test_an_export_without_out_exits_2_before_any_request(self, tmp_path, capsys):
        out = keygen(tmp_path, "pq", ["--J1", "4"])
        store = keyfiles.load_store(out / "cco.store")
        requests = []
        handle = store.handle_request
        store.handle_request = lambda payload: requests.append(payload) or handle(payload)
        with transport.CcoServer(store) as server:
            err = self.error(capsys, ["request", "--cco", f"127.0.0.1:{server.port}",
                                      "--scheme", "pq", "--id", ID_HEX_1, "--export", "1:4"])
        assert (err, requests) == ("error: --export needs --out\n", [])

    @pytest.mark.parametrize("span", ["3", "a:b", "1:2:3", ""])
    def test_an_export_not_from_to_exits_2_before_any_connection(
            self, monkeypatch, tmp_path, capsys, span):
        connections = []
        monkeypatch.setattr(transport, "CcoClient", lambda *address: connections.append(address))
        err = self.error(capsys, ["request", "--cco", "127.0.0.1:1", "--scheme", "pq",
                                  "--id", ID_HEX_1, "--export", span,
                                  "--out", str(tmp_path / "commits.bin")])
        assert (err, connections) == (f"error: --export expected FROM:TO, got {span!r}\n", [])

    def test_an_epoch_with_an_export_exits_2_before_any_connection(self, monkeypatch, capsys):
        connections = []
        monkeypatch.setattr(transport, "CcoClient", lambda *address: connections.append(address))
        with pytest.raises(SystemExit) as info:  # argparse: the two options exclude each other
            cli.main(["request", "--cco", "127.0.0.1:1", "--scheme", "pq", "--id", ID_HEX_1,
                      "--epoch", "2", "--export", "3:4"])
        assert (info.value.code, connections) == (2, [])
        assert "argument --export: not allowed with argument --epoch" in capsys.readouterr().err

    @pytest.mark.parametrize("scheme, signer, option, error, sent, builds", [
        ("pq", ID_HEX_1, "--export=0:4", "export of [0, 4] is no range of epochs from 1", 0, 0),
        ("pq", ID_HEX_1, "--export=5:4", "export of [5, 4] is no range of epochs from 1", 0, 0),
        ("pq", ID_HEX_2, "--export=1:4", "service returned status 0x01", 4, 0),
        ("la", ID_HEX_1, "--export=1:4", "service returned status 0x01", 4, 0),
        ("pq", ID_HEX_1, "--export=1:8192", "export of [1, 8192] exceeds the frame limit",
         transport.PIPELINE_WINDOW, transport.PIPELINE_WINDOW),
        ("pq", ID_HEX_1, "--export=8190:8193", "service returned status 0x02", 4, 3),
        ("pq", ID_HEX_1, "--epoch=0", "export of [0, 0] is no range of epochs from 1", 0, 0),
        ("pq", ID_HEX_1, "--epoch=8193", "service returned status 0x02", 1, 0),
    ], ids=["from 0", "from above to", "unknown id", "scheme the store lacks",
            "over the frame limit", "past J", "epoch 0", "epoch past J"])
    def test_an_export_refusal_exits_2_writes_nothing_and_costs_its_builds(
            self, tmp_path, capsys, scheme, signer, option, error, sent, builds):
        # J = 8192 at t = 1024: the whole range would be a 268 MB file
        out = keygen(tmp_path, "pq", ["--J1", "4", "--J", "8192"])
        store = keyfiles.load_store(out / "cco.store")
        requests = []
        handle = store.handle_request
        store.handle_request = lambda payload: requests.append(payload) or handle(payload)
        commits = tmp_path / "commits.bin"
        with transport.CcoServer(store) as server:
            counters.reset()
            err = self.error(capsys, ["request", "--cco", f"127.0.0.1:{server.port}",
                                      "--scheme", scheme, "--id", signer, option,
                                      "--out", str(commits)])
        assert (err, len(requests)) == (f"error: {error}\n", sent)
        assert counters.calls_h2 == builds * 1024  # t H2 calls per build
        assert not commits.exists()

    @pytest.mark.parametrize("scheme, extra", [
        ("pq", ["--J1", "4"]), ("la", ["--L", "3"]), ("hy", ["--J1", "4", "--L", "3"])])
    def test_an_epoch_writes_the_export_of_its_one_epoch_range(self, tmp_path, capsys, scheme, extra):
        out = keygen(tmp_path, scheme, extra)
        files = tmp_path / "epoch.bin", tmp_path / "export.bin"
        with transport.CcoServer(keyfiles.load_store(out / "cco.store")) as server:
            for option, path in zip(("--epoch=2", "--export=2:2"), files):
                assert cli.main(["request", "--cco", f"127.0.0.1:{server.port}", "--scheme", scheme,
                                 "--id", ID_HEX_1, option, "--out", str(path)]) == 0
        assert files[0].read_bytes() == files[1].read_bytes()
        assert capsys.readouterr().out.endswith(f"wrote 1 commitment(s) to {files[1]}\n")

    @pytest.mark.parametrize("scheme, sizes", [
        ("pq", ["--J", str(1 << 70)]),
        ("pq", ["--J", "4", "--t", str(1 << 32), "--k", "1"]),
        ("la", ["--J", "4", "--L", str(1 << 32)]),
        ("hy", ["--J", str(1 << 64), "--J1", "1", "--L", "2"]),  # J is the la batch count
    ], ids=["pq J", "pq t", "la L", "hy J"])
    def test_keygen_of_sizes_the_files_cannot_hold_exits_2(self, tmp_path, capsys, scheme, sizes):
        out = tmp_path / "keys"
        self.error(capsys, ["keygen", "--scheme", scheme, "--ids", write_ids(tmp_path),
                            "--out", str(out), *sizes])
        assert not out.exists()


class TestFileKinds:
    def test_a_key_file_for_a_bundle_or_a_bundle_for_a_key_exits_2(self, tmp_path, capsys):
        # both start with the scheme tag; the error names the file and what it is not
        out = keygen(tmp_path, "pq", ["--J1", "4"])
        key, pub = out / f"signer_{ID_HEX_1}.key", out / "verifier.pub"
        msgs, sigs = write_csv(tmp_path, 2), str(tmp_path / "sigs.bin")
        capsys.readouterr()
        code = cli.main(["verify", "--pub", str(key), "--in", msgs, "--sigs", sigs,
                         "--commits", sigs])
        assert code == 2
        assert f"error: {key} is not a verifier bundle: " in capsys.readouterr().err
        assert cli.main(["sign", "--key", str(pub), "--in", msgs, "--out", sigs]) == 2
        assert f"error: {pub} is not a signer key file: " in capsys.readouterr().err


def _loaded_in_fresh_interpreter(code: str, modules) -> list[str]:
    """Which of ``modules`` a fresh interpreter has loaded after ``code``."""
    check = f"import sys\n{code}\nprint('loaded:', *(m for m in {tuple(modules)!r} if m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.rpartition("loaded:")[2].split()


def test_importing_the_cli_leaves_bench_unloaded():
    # nor dataclasses, whose inspect import every process start would pay,
    # nor the transport and its sockets
    modules = ("hases.bench", "hases.verifier", "dataclasses", "inspect", "hases.transport",
               "socket", "socketserver")
    assert _loaded_in_fresh_interpreter("import hases.cli", modules) == []


def test_keygen_and_sign_leave_the_sockets_unloaded(tmp_path):
    ids, msgs = write_ids(tmp_path), write_csv(tmp_path, 4)
    keys, sigs = tmp_path / "keys", tmp_path / "sigs.bin"
    key = keys / f"signer_{ID_HEX_1}.key"
    code = f"""
from hases import cli
assert cli.main(["keygen", "--scheme", "hy", "--ids", {ids!r},
                 "--J", "4", "--J1", "2", "--L", "2", "--t", "64", "--k", "8",
                 "--out", {str(keys)!r}]) == 0
assert cli.main(["sign", "--key", {str(key)!r}, "--in", {msgs!r}, "--out", {str(sigs)!r}]) == 0
"""
    modules = ("socket", "socketserver", "hases.transport", "hases.verifier", "dataclasses",
               "inspect")
    assert _loaded_in_fresh_interpreter(code, modules) == []
    assert keyfiles.load_signer_key(key).epoch == 3  # both commands ran


@pytest.mark.parametrize("scheme", ["pq", "hy"])
def test_serve_and_sign_leave_openssl_unloaded(tmp_path, scheme):
    # hashlib loads OpenSSL's libcrypto (about 3.7 MB of RSS); only the
    # digest that binds a key table file to its bundle needs it, and
    # neither the service nor the signer reads that file
    msgs = write_csv(tmp_path, 4)
    extra = ("--L", "2") if scheme == "hy" else ()
    keys = keygen(tmp_path, scheme, extra)
    key, sigs = keys / f"signer_{ID_HEX_1}.key", tmp_path / "sigs.bin"
    code = f"""
import signal
from hases import cli, keyfiles, transport
store = keyfiles.load_store({str(keys / "cco.store")!r})
assert cli.main(["sign", "--key", {str(key)!r}, "--in", {msgs!r}, "--out", {str(sigs)!r}]) == 0
"""
    assert _loaded_in_fresh_interpreter(code, ("hashlib", "_hashlib")) == []
    assert keyfiles.load_signer_key(key).epoch > 1  # the sign run signed


class TestParser:
    """Each call builds only its command's parser; the contract stays."""

    def run(self, *argv):
        return subprocess.run([sys.executable, "-m", "hases.cli", *argv], capture_output=True,
                              text=True, timeout=60)

    def test_top_level_help_lists_every_command(self):
        proc = self.run("--help")
        assert proc.returncode == 0, proc.stderr
        for name, help_text in (("keygen", "run a key ceremony"),
                                ("sign", "sign a message stream"),
                                ("verify", "verify a signed message stream"),
                                ("tables", "rebuild the key table file of a verifier bundle"),
                                ("serve", "serve a provisioned key store"),
                                ("request", "fetch commitments from a service")):
            assert re.search(rf"^\s+{name}\s+{help_text}$", proc.stdout, re.M), name
        assert "bench" not in proc.stdout  # the layer benchmark is bench/layers.py

    def test_verify_help_lists_its_flags(self):
        proc = self.run("verify", "--help")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: hases verify ")
        for flag in ("--pub", "--in", "--format", "--hex", "--sigs", "--cco", "--commits"):
            assert re.search(rf"^\s+{flag}\b", proc.stdout, re.M), flag

    @pytest.mark.parametrize("argv", [(), ("frobnicate",), ("bench", "--scheme", "pq")],
                             ids=["none", "unknown", "bench"])
    def test_no_command_or_an_unknown_one_exits_2(self, argv):
        proc = self.run(*argv)
        assert proc.returncode == 2
        assert "{keygen,sign,verify,tables,serve,request}" in proc.stderr

    @pytest.mark.parametrize("command", list(cli._SUBPARSERS))
    def test_a_bad_flag_exits_2_through_argparse(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--no-such-flag"])
        assert exc.value.code == 2
        assert f"usage: hases {command} " in capsys.readouterr().err

    def test_verify_takes_exactly_one_commitment_source(self, tmp_path, capsys):
        out = keygen(tmp_path, "pq", ["--J1", "4"])
        msgs = write_csv(tmp_path, 2)
        sigs = str(tmp_path / "sigs.bin")
        assert cli.main(["sign", "--key", str(out / f"signer_{ID_HEX_1}.key"), "--in", msgs,
                         "--out", sigs]) == 0
        store = keyfiles.load_store(out / "cco.store")
        requests = []
        handle = store.handle_request
        store.handle_request = lambda payload: requests.append(payload) or handle(payload)
        argv = ["verify", "--pub", str(out / "verifier.pub"), "--in", msgs, "--sigs", sigs]
        with transport.CcoServer(store) as server:
            address = f"127.0.0.1:{server.port}"
            # both sources, or none: argparse exits 2 before any request
            for sources in (["--cco", address, "--commits", str(tmp_path / "commits.bin")], []):
                with pytest.raises(SystemExit) as exc:
                    cli.main(argv + sources)
                assert exc.value.code == 2
                assert "usage: hases verify " in capsys.readouterr().err
            assert requests == []
            assert cli.main(argv + ["--cco", address]) == 0
        assert len(requests) == 1

    def test_one_subparser_per_call_and_all_without_one(self):
        def commands(parser):
            (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
            return list(action.choices)

        assert commands(cli.build_parser()) == list(cli._SUBPARSERS)
        assert commands(cli.build_parser("sign")) == ["sign"]

    def test_main_builds_the_parser_of_its_command_alone(self, monkeypatch, capsys):
        built, build = [], cli.build_parser
        monkeypatch.setattr(cli, "build_parser",
                            lambda command=None: built.append(command) or build(command))
        for argv in (["sign", "--help"], ["--help"], ["frobnicate"]):
            with pytest.raises(SystemExit):
                cli.main(argv)
        assert built == ["sign", None, None]

    def test_a_wrapper_set_after_a_first_call_is_the_one_that_runs(self, tmp_path, monkeypatch,
                                                                    capsys):
        argv = ["verify", "--pub", str(tmp_path / "missing.pub"), "--in", "in.csv",
                "--sigs", "sigs.bin", "--commits", "commits.bin"]
        assert cli.main(argv) == 2  # the parser is built, and cmd_verify runs
        calls, verify = [], cli.cmd_verify
        monkeypatch.setattr(cli, "cmd_verify", lambda args: calls.append(args.pub) or verify(args))
        assert cli.main(argv) == 2
        assert calls == [str(tmp_path / "missing.pub")]
        assert "missing.pub" in capsys.readouterr().err
