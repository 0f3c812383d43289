import random

import pytest

from hases import cco, cli, hy, keyfiles, la, pq, schemes
from hases.errors import BadSignatureFile
from hases.group import production_group, small_test_group

ID_A = bytes([0x3C]) * 16
PQ_TOY = pq.PqParams(t=8, k=4, j1=2, j2=4)


def fixed_rng(seed: int):
    rng = random.Random(seed)
    return lambda n: rng.randbytes(n)


def test_pq_signer_key_round_trip(tmp_path):
    states, _ = pq.keygen([ID_A], PQ_TOY, fixed_rng(1))
    state = states[ID_A]
    pq.sign(state, b"advance the epoch")
    path = tmp_path / "pq.key"
    keyfiles.save_signer_key(path, state)
    loaded = keyfiles.load_signer_key(path)
    assert isinstance(loaded, pq.PqSignerState)
    assert bytes(loaded.seed) == bytes(state.seed)
    assert loaded.epoch == 2
    assert loaded.params == PQ_TOY


def test_signer_key_save_is_atomic(tmp_path, monkeypatch):
    states, _ = pq.keygen([ID_A], PQ_TOY, fixed_rng(3))
    path = tmp_path / "signer.key"
    keyfiles.save_signer_key(path, states[ID_A])
    before = path.read_bytes()
    pq.advance_key(states[ID_A])

    def failing_fsync(fd):
        raise OSError("disk full")

    monkeypatch.setattr(keyfiles.os, "fsync", failing_fsync)
    with pytest.raises(OSError, match="disk full"):
        keyfiles.save_signer_key(path, states[ID_A])
    # the old key stays whole, and no temporary file is left beside it
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["signer.key"]
    monkeypatch.undo()
    keyfiles.save_signer_key(path, states[ID_A])
    assert keyfiles.load_signer_key(path).epoch == 2
    assert [p.name for p in tmp_path.iterdir()] == ["signer.key"]


def test_la_signer_key_round_trip(tmp_path):
    group = small_test_group()
    states, _, _ = la.keygen([ID_A], group, 4, 2, fixed_rng(2))
    path = tmp_path / "la.key"
    keyfiles.save_signer_key(path, states[ID_A])
    loaded = keyfiles.load_signer_key(path)
    assert isinstance(loaded, la.LaSignerState)
    assert loaded.key == states[ID_A].key
    assert loaded.params.group is group


def test_hy_signer_key_round_trip_continues_signing(tmp_path):
    group = production_group()
    states, public, material = hy.keygen([ID_A], group, 2, PQ_TOY, fixed_rng(3))
    state = states[ID_A]
    hy.sign_batch(state, [b"a", b"b"])
    path = tmp_path / "hy.key"
    keyfiles.save_signer_key(path, state)
    loaded = keyfiles.load_signer_key(path)
    signature = hy.sign_batch(loaded, [b"c", b"d"])
    assert signature.la.epoch == 2
    commitment = hy.HyCommitment(
        la.construct_commitment(material.la, ID_A, 2),
        pq.construct_commitment(material.pq, ID_A, 2),
    )
    key_table = group.precompute(public[ID_A])
    assert hy.verify_batch(key_table, commitment, [b"c", b"d"], signature, group, PQ_TOY)


@pytest.mark.parametrize("group", [production_group(), small_test_group()], ids=["production", "tiny"])
@pytest.mark.parametrize("scheme", ["la", "hy"])
def test_private_scalar_out_of_range_rejected(group, scheme):
    """A key file whose aggregate scalar is 0 or at least q is refused,
    whether it is a plain aggregate key or the aggregate half of a hybrid one."""
    if scheme == "la":
        states, _, _ = la.keygen([ID_A], group, 4, 2, fixed_rng(6))
        la_state = states[ID_A]
    else:
        states, _, _ = hy.keygen([ID_A], group, 2, PQ_TOY, fixed_rng(6))
        la_state = states[ID_A].la
    for key in (0, group.q):
        la_state.key = key
        with pytest.raises(ValueError):
            keyfiles.signer_key_from_bytes(keyfiles.signer_key_bytes(states[ID_A]))


def test_signer_key_garbage_rejected():
    with pytest.raises(ValueError):
        keyfiles.signer_key_from_bytes(b"")
    with pytest.raises(ValueError):
        keyfiles.signer_key_from_bytes(bytes((0x01,)) + bytes(10))


def test_verifier_bundle_round_trip_la():
    group = small_test_group()
    _, public, material = la.keygen([ID_A], group, 4, 2, fixed_rng(4))
    bundle = keyfiles.VerifierBundle(schemes.LA.tag, None, material.params, public)
    restored = keyfiles.VerifierBundle.from_bytes(bundle.to_bytes())
    assert restored.la_params == material.params
    assert restored.public_keys == public


def test_verifier_bundle_round_trip_hy():
    group = production_group()
    _, public, material = hy.keygen([ID_A], group, 2, PQ_TOY, fixed_rng(5))
    bundle = keyfiles.VerifierBundle(
        schemes.HY.tag, material.pq.params, material.la.params, public
    )
    blob = bundle.to_bytes()
    restored = keyfiles.VerifierBundle.from_bytes(blob)
    assert restored.pq_params == PQ_TOY
    assert restored.public_keys == public
    # cut anywhere, the aggregate parameters included: a ValueError, never an IndexError
    for cut in range(len(blob)):
        with pytest.raises(ValueError):
            keyfiles.VerifierBundle.from_bytes(blob[:cut])


def test_verifier_bundle_round_trip_pq():
    bundle = keyfiles.VerifierBundle(schemes.PQ.tag, PQ_TOY, None, {ID_A: None})
    restored = keyfiles.VerifierBundle.from_bytes(bundle.to_bytes())
    assert restored.pq_params == PQ_TOY
    assert set(restored.public_keys) == {ID_A}


def test_signature_file_round_trip(tmp_path):
    path = tmp_path / "sigs.bin"
    blobs = [b"first", b"second longer blob", b""]
    keyfiles.save_signatures(path, blobs)
    assert keyfiles.load_signatures(path) == blobs


@pytest.mark.parametrize("blobs, container", [
    ([], bytes(8)),
    ([b"one"], bytes.fromhex("0000000000000001" "00000003") + b"one"),
    ([b"first", b"", b"third!"], bytes.fromhex("0000000000000003" "00000005") + b"first"
     + bytes.fromhex("00000000" "00000006") + b"third!"),
], ids=["0", "1", "3"])
def test_signature_container_bytes(tmp_path, blobs, container):
    assert keyfiles.signatures_bytes(blobs) == container
    path = tmp_path / "sigs.bin"
    keyfiles.save_signatures(path, blobs)
    assert path.read_bytes() == container
    assert list(keyfiles.iter_signatures(path)) == keyfiles.load_signatures(path) == blobs


def test_signature_reader_reads_on_demand_and_names_the_file(tmp_path):
    path = tmp_path / "sigs.bin"
    keyfiles.save_signatures(path, [b"first", b"second"])
    path.write_bytes(path.read_bytes()[:-1])
    entries = keyfiles.iter_signatures(path)
    assert next(entries) == b"first"  # the cut is not reached yet
    with pytest.raises(BadSignatureFile, match=f"{path} is not a signature file: truncated"):
        next(entries)
    # a length past the end is refused, having read no more than the file holds
    path.write_bytes(bytes.fromhex("0000000000000001" "ffffffff"))
    with pytest.raises(BadSignatureFile, match="truncated signature file"):
        list(keyfiles.iter_signatures(path))
    path.write_bytes(keyfiles.signatures_bytes([b"x"]) + b"!")
    with pytest.raises(BadSignatureFile, match="trailing bytes in signature file"):
        keyfiles.load_signatures(path)
    path.write_bytes(bytes(7))
    with pytest.raises(BadSignatureFile, match="truncated signature file"):
        keyfiles.iter_signatures(path)  # the count is read at once


def test_commitment_file_round_trip(tmp_path):
    path = tmp_path / "commits.bin"
    blobs = [bytes([i]) * 40 for i in range(5)]
    keyfiles.save_commitments(path, blobs)
    assert keyfiles.load_commitments(path) == blobs
    # 8-byte big-endian entry count header
    assert path.read_bytes()[:8] == (5).to_bytes(8, "big")


def test_commitment_file_requires_homogeneous_sizes(tmp_path):
    # ragged, no entries, empty entries
    for blobs in ([b"ab", b"abc"], [], [b""], [b"", b""]):
        with pytest.raises(ValueError):
            keyfiles.save_commitments(tmp_path / "x.bin", blobs)
    assert not (tmp_path / "x.bin").exists()


def test_commitment_file_ragged_rejected(tmp_path):
    path = tmp_path / "commits.bin"
    # ragged, a count of 0, shorter than the count, a count and no entries
    for blob in ((3).to_bytes(8, "big") + bytes(10), bytes(8), bytes(7), (1).to_bytes(8, "big")):
        path.write_bytes(blob)
        with pytest.raises(ValueError):
            keyfiles.load_commitments(path)


@pytest.mark.parametrize("count", [0, 2])
def test_store_with_the_wrong_anchor_count_rejected(tmp_path, count):
    # PQ_TOY has j1 = 2, so one anchor per signer; with none, an epoch of
    # the second segment would have no seed to walk from
    _, material = pq.keygen([ID_A], PQ_TOY, fixed_rng(9))
    store = cco.CcoStore(pq.PqKeyMaterial(material.msk, PQ_TOY, {ID_A: material.anchors[ID_A] * count}))
    path = tmp_path / "cco.store"
    keyfiles.save_store(path, store)
    with pytest.raises(ValueError) as error:
        keyfiles.load_store(path)
    assert str(error.value).startswith(f"{path} is not a key store file: ")
    assert f"{count} anchors" in str(error.value)


@pytest.mark.parametrize("section", ["forward-secure", "aggregate"])
def test_store_with_a_section_flag_other_than_0_or_1_rejected(tmp_path, section):
    # a flag of neither value would load a store with no material, whose
    # service answers every request "unknown id"
    if section == "forward-secure":
        blob = keyfiles._STORE_MAGIC + b"\x07\x07"
    else:
        store = cco.CcoStore(pq.keygen([ID_A], PQ_TOY, fixed_rng(9))[1])
        blob = keyfiles.store_bytes(store)[:-1] + b"\x07"  # the aggregate flag, last
    path = tmp_path / "cco.store"
    path.write_bytes(blob)
    with pytest.raises(ValueError) as error:
        keyfiles.load_store(path)
    assert str(error.value) == (
        f"{path} is not a key store file: {section} section flag 0x07, not 0 or 1")


def store_without(part: str) -> bytes:
    """A store file with no material at all, or a section that lists no signers."""
    if part == "material":
        return keyfiles._STORE_MAGIC + b"\x00\x00"
    _, _, material = hy.keygen([ID_A], small_test_group(), 2, PQ_TOY, fixed_rng(10))
    if part == "forward-secure signers":
        material = material._replace(pq=material.pq._replace(anchors={}))
    else:
        material = material._replace(la=material.la._replace(signer_ids=frozenset()))
    store = cco.CcoStore(material)
    return keyfiles.store_bytes(store)


@pytest.mark.parametrize("part, message", [
    ("material", "key store file holds no key material"),
    ("forward-secure signers", "forward-secure section lists no signers"),
    ("aggregate signers", "aggregate section lists no signers"),
])
def test_a_store_with_no_material_or_no_signers_rejected(tmp_path, part, message):
    # such a store would load, and its service would answer every request "unknown id"
    path = tmp_path / "cco.store"
    path.write_bytes(store_without(part))
    with pytest.raises(ValueError) as error:
        keyfiles.load_store(path)
    assert str(error.value) == f"{path} is not a key store file: {message}"


def store_with_sections_apart(part: str) -> bytes:
    """A hy store file whose la section has another batch count than the
    pq part's J, or lists another signer id."""
    _, _, material = hy.keygen([ID_A], small_test_group(), 2, PQ_TOY, fixed_rng(11))
    if part == "batch count":
        params = material.la.params._replace(max_batches=2 * PQ_TOY.epochs)
        material = material._replace(la=material.la._replace(params=params))
    else:
        ids = frozenset({bytes([0x4D]) * 16})
        material = material._replace(la=material.la._replace(signer_ids=ids))
    return keyfiles.store_bytes(cco.CcoStore(material))


@pytest.mark.parametrize("part, message", [
    ("batch count", "aggregate section has 16 batches, not the forward-secure J = 8"),
    ("signer ids", "the two sections list different signer ids"),
])
def test_a_store_whose_sections_disagree_is_refused(tmp_path, part, message, capsys):
    # hy.keygen never writes one; served, a 0x03 inside the la range but
    # past the pq J would hash the la part before the pq part refused it
    path = tmp_path / "cco.store"
    path.write_bytes(store_with_sections_apart(part))
    with pytest.raises(ValueError) as error:
        keyfiles.load_store(path)
    assert str(error.value) == f"{path} is not a key store file: {message}"
    assert cli.main(["serve", "--store", str(path), "--port", "0"]) == 2
    assert capsys.readouterr().err == f"error: {path} is not a key store file: {message}\n"


@pytest.mark.parametrize("ids", [[ID_A, ID_A], [bytes([0x4D]) * 16, ID_A]],
                         ids=["repeated", "unsorted"])
def test_verifier_bundle_ids_must_strictly_increase(ids):
    # a repeated id used to load as one key, the last one winning, and the
    # bytes did not round-trip
    group = small_test_group()
    _, public, material = la.keygen([ID_A], group, 4, 2, fixed_rng(6))
    blob = keyfiles.VerifierBundle(schemes.LA.tag, None, material.params, public).to_bytes()
    head, entry = blob[:-48], blob[-48:]
    entries = b"".join(signer_id + entry[16:] for signer_id in ids)
    forged = head[:-8] + len(ids).to_bytes(8, "big") + entries
    with pytest.raises(ValueError, match="strictly increasing"):
        keyfiles.VerifierBundle.from_bytes(forged)


@pytest.mark.parametrize("make", [production_group, small_test_group])
def test_key_table_file_round_trip(tmp_path, make):
    group = make()
    ids = [bytes([n]) * 16 for n in (9, 3, 5)]
    _, public, material = hy.keygen(ids, group, 2, PQ_TOY, fixed_rng(7))
    bundle = keyfiles.VerifierBundle(schemes.HY.tag, PQ_TOY, material.la.params, public)
    tables = {sid: group.precompute(key) for sid, key in public.items()}
    blob = keyfiles.key_tables_bytes(bundle)
    assert len(blob) == 13 + 1 + 32 + 8 + 3 * (16 + group.table_len)
    path = keyfiles.tables_path(tmp_path / "verifier.pub")
    assert path.name == "verifier.pub.tables"
    path.write_bytes(blob)
    # only the tables asked for, each equal to the one written
    loaded = keyfiles.load_key_tables(path, bundle, [ids[0], ids[1]])
    assert sorted(loaded) == sorted(ids[:2])
    for sid, table in loaded.items():
        assert group.table_bytes(table) == group.table_bytes(tables[sid])
        assert group.exp2(table, 5, 7) == group.exp2(tables[sid], 5, 7)
    assert keyfiles.load_key_tables(path, bundle, []) == {}
