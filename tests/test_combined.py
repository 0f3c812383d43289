"""Combined nonce commitments: one group check per signer per verify run.

The verifier sends the weighted response sum S = sum z_i * s_i, the
store answers a ``0x08`` request with alpha^(sum z_i * r_i - S), the
verifier compares it with Y^(sum z_i * e_i), walked from the key's
table alone, and falls back to one check per batch when the two
differ.  These tests pin the algebra against an independent product of
the per-epoch R, the wire request, the forgeries a plain sum check lets
through, and the per-unit agreement of ``verify --cco`` with ``verify
--commits``.
"""

import os
import random
import shutil
import subprocess
import sys

import pytest

from hases import cco, cli, hy, keyfiles, la, pq, schemes, stream, transport, verifier
from hases.errors import EpochOutOfRange, UnknownSigner
from hases.group import Edwards25519Group, production_group, small_test_group
from hases.hashing import combination_weights, counters

ID_A = bytes([0xA1]) * 16
ID_B = bytes([0xB2]) * 16
ID_C = bytes([0xC3]) * 16
SEED = bytes(range(32))
PQ_TOY = pq.PqParams(t=8, k=4, j1=2, j2=4)


def fixed_rng(seed: int):
    rng = random.Random(seed)
    return lambda n: rng.randbytes(n)


def signed(group, batches=4, batch_size=3, seed=1):
    """(signer state, public keys, material, [(messages, signature)]) of one
    signer who signed ``batches`` batches at epochs 1, 2, ..."""
    states, public, material = la.keygen([ID_A, ID_B], group, 16, batch_size, fixed_rng(seed))
    state = states[ID_A]
    tags = []
    for n in range(batches):
        messages = [b"batch %d item %d" % (n, item) for item in range(batch_size)]
        tags.append((messages, la.sign_batch(state, messages)))
    return state, public, material, tags


def combination(tags, group):
    """The (epoch, challenge sum, response sum) of each tag."""
    return [(sig.epoch, la.challenge_sum(messages, sig, group.q), sig.agg) for messages, sig in tags]


def product_of_r(material, epochs, weights, group, agg=0):
    """prod R_i^(z_i) * alpha^(-agg) from the single-epoch commitments: the
    combined commitment computed without ``la.combined_commitment``."""
    value = group.exp(group.generator, -agg)
    for epoch, weight in zip(epochs, weights):
        r = group.decode_element(la.construct_commitment(material, ID_A, epoch).r_bytes)
        value = group.mul(value, group.exp(r, weight))
    return group.encode_element(value)


def forged(batches, first, second, delta, q):
    """``batches`` with the response sums of two of them moved by +delta and -delta."""
    out = list(batches)
    epoch, e, s = out[first]
    out[first] = (epoch, e, (s + delta) % q)
    epoch, e, s = out[second]
    out[second] = (epoch, e, (s - delta) % q)
    return out


# --- the algebra -----------------------------------------------------------------


@pytest.mark.parametrize("group", [production_group(), small_test_group()], ids=["production", "tiny"])
def test_store_and_verifier_agree_on_valid_batches(group):
    _, public, material, tags = signed(group)
    batches = combination(tags, group)
    epochs = [epoch for epoch, _, _ in batches]
    seed = la.combination_seed(ID_A, batches)
    weights = combination_weights(seed, len(epochs))
    challenge, agg = la.weighted_sums(seed, batches, group.q)
    assert challenge == sum(z * e for z, (_, e, _) in zip(weights, batches)) % group.q
    assert agg == sum(z * s for z, (_, _, s) in zip(weights, batches)) % group.q
    reply = la.combined_commitment(material, ID_A, seed, agg, epochs)
    assert reply == product_of_r(material, epochs, weights, group, agg)
    assert la.combined_value(group.precompute(public[ID_A]), challenge, group) == reply
    # with no response sum folded in, the reply is the product of the R's powers
    assert la.combined_commitment(material, ID_A, seed, 0, epochs) == product_of_r(
        material, epochs, weights, group)


def test_weights_are_per_position_and_repeated_epochs_are_allowed():
    group = small_test_group()
    _, _, material, _ = signed(group, batches=0)
    epochs = [3, 1, 3, 3]
    weights = combination_weights(SEED, 4)
    reply = la.combined_commitment(material, ID_A, SEED, 7, epochs)
    assert reply == product_of_r(material, epochs, weights, group, 7)


def test_combined_build_hash_count():
    group = production_group()
    _, _, material, _ = signed(group, batches=0, batch_size=8)
    counters.reset()
    la.combined_commitment(material, ID_A, SEED, group.q - 1, [1, 2, 2, 5])
    # the private scalar, L + 1 per distinct epoch, one weight per position
    assert counters.total() == 1 + 3 * (8 + 1) + 4


def test_combined_build_refuses_before_any_work():
    for group in (production_group(), small_test_group()):
        _, _, material, _ = signed(group, batches=0)
        for signer_id, agg, epochs, error in ((ID_C, 0, [1], UnknownSigner),
                                              (ID_A, 0, [1, 0], EpochOutOfRange),
                                              (ID_A, 0, [17, 2], EpochOutOfRange),
                                              (ID_A, group.q, [1], ValueError),
                                              (ID_C, group.q, [1], ValueError),
                                              (ID_A, -1, [1], ValueError)):
            counters.reset()
            with pytest.raises(error):
                la.combined_commitment(material, signer_id, SEED, agg, epochs)
            assert counters.total() == 0
        with pytest.raises(ValueError):
            la.combined_commitment(material, ID_A, SEED, 0, [])


def test_the_verifier_walks_the_key_table_alone():
    group = production_group()
    _, public, _, tags = signed(group)
    table = group.precompute(public[ID_A])
    y = group.decode_element(public[ID_A])
    for challenge in (0, 1, 8, 9, group.q - 1, combination(tags, group)[0][1]):
        assert la.combined_value(table, challenge, group) == group.encode_element(
            group.exp(y, challenge))


def test_combined_checks_are_sound_only_where_weights_do_not_wrap():
    assert la.combinable(production_group())
    assert not la.combinable(small_test_group())  # a weight is 0 mod 11 one time in 11


def test_seed_binds_every_batch():
    batches = [(1, 5, 7), (2, 6, 8)]
    seeds = {la.combination_seed(ID_A, batches), la.combination_seed(ID_B, batches),
             la.combination_seed(ID_A, batches[::-1]), la.combination_seed(ID_A, batches[:1]),
             la.combination_seed(ID_A, [(1, 5, 7), (2, 6, 9)]),
             la.combination_seed(ID_A, [(1, 5, 7), (3, 6, 8)])}
    assert len(seeds) == 6


# --- the +delta / -delta forgery --------------------------------------------------


class TestSplitDeltaForgery:
    """Two response sums moved by +delta and -delta keep the plain sum
    check, which weights every batch by 1, satisfied; position-indexed
    weights do not cancel, so the combined check fails.  Each case runs
    in both groups."""

    def plain_sum_passes(self, g, public, material, batches):
        product = g.identity
        for epoch, _, _ in batches:
            product = g.mul(product, g.decode_element(
                la.construct_commitment(material, ID_A, epoch).r_bytes))
        e = sum(e for _, e, _ in batches) % g.q
        s = sum(s for _, _, s in batches) % g.q
        return g.encode_element(g.exp2(g.precompute(public[ID_A]), e, s)) == g.encode_element(product)

    def combined_passes(self, g, public, material, batches):
        seed = la.combination_seed(ID_A, batches)
        challenge, agg = la.weighted_sums(seed, batches, g.q)
        reply = la.combined_commitment(material, ID_A, seed, agg,
                                       [epoch for epoch, _, _ in batches])
        return la.combined_value(g.precompute(public[ID_A]), challenge, g) == reply

    def test_across_two_epochs(self):
        for g in (production_group(), small_test_group()):
            _, public, material, tags = signed(g)
            batches = combination(tags, g)
            assert self.combined_passes(g, public, material, batches)
            bad = forged(batches, 0, 2, delta=12345, q=g.q)
            assert self.plain_sum_passes(g, public, material, bad)
            assert not self.combined_passes(g, public, material, bad)

    def test_at_one_repeated_epoch(self):
        for g in (production_group(), small_test_group()):
            # two copies of one key sign two batches at epoch 1: a forked signer
            state, public, material, tags = signed(g, batches=1)
            fork = la.LaSignerState(state.signer_id, state.key, 1, state.params)
            other = [b"forked item %d" % item for item in range(3)]
            tags.append((other, la.sign_batch(fork, other)))
            batches = combination(tags, g)
            assert [epoch for epoch, _, _ in batches] == [1, 1]
            assert self.combined_passes(g, public, material, batches)
            bad = forged(batches, 0, 1, delta=98765, q=g.q)
            assert self.plain_sum_passes(g, public, material, bad)
            assert not self.combined_passes(g, public, material, bad)
            # weights indexed by the epoch instead would cancel the two errors
            (z,) = combination_weights(la.combination_seed(ID_A, bad), 1)
            e = z * (bad[0][1] + bad[1][1]) % g.q
            s = z * (bad[0][2] + bad[1][2]) % g.q
            r = g.decode_element(la.construct_commitment(material, ID_A, 1).r_bytes)
            assert g.exp2(g.precompute(public[ID_A]), e, s) == g.exp(r, 2 * z)


# --- the wire request ----------------------------------------------------------------


def hy_store(group=None):
    group = group or small_test_group()
    states, public, material = hy.keygen([ID_A, ID_B], group, 3, PQ_TOY, fixed_rng(4))
    store = cco.CcoStore(material)
    return store, material


class TestCombinedRequest:
    def test_ok_reply_is_the_combined_commitment_and_is_cached(self):
        store, material = hy_store()
        payload = cco.combined_payload(ID_B, SEED, 5, [2, 8, 2])
        assert len(payload) == 1 + 16 + 32 + 32 + 3 * 8
        reply = store.handle_request(payload)
        assert reply[:2] == bytes((cco.MSG_LA_COMBINED | cco.RESPONSE_BIT, cco.STATUS_OK))
        assert reply[2:] == la.combined_commitment(material.la, ID_B, SEED, 5, [2, 8, 2])
        counters.reset()
        assert store.handle_request(payload) == reply
        assert counters.total() == 0
        assert store.cache_stats()[:3] == (1, 1, 0)

    def test_refusals(self):
        for group in (production_group(), small_test_group()):
            self.refused_before_any_work(group)

    def refused_before_any_work(self, group):
        store, _ = hy_store(group)
        q = group.q
        head = bytes((cco.MSG_LA_COMBINED,)) + ID_A + SEED + (q - 1).to_bytes(32, "big")
        cases = {
            head: cco.STATUS_MALFORMED,  # n = 0
            head + bytes(8) * 65: cco.STATUS_MALFORMED,  # n = 65, over the bound
            head + bytes(12): cco.STATUS_MALFORMED,  # half an epoch
            (head + (1).to_bytes(8, "big"))[:-1]: cco.STATUS_MALFORMED,  # a byte short
            head[:-1] + (1).to_bytes(8, "big"): cco.STATUS_MALFORMED,  # short sum
            cco.combined_payload(ID_A, SEED, q, [1]): cco.STATUS_MALFORMED,  # sum >= q
            cco.combined_payload(ID_A, SEED, 2**256 - 1, [1, 2]): cco.STATUS_MALFORMED,
            cco.combined_payload(ID_C, SEED, q, [1]): cco.STATUS_MALFORMED,
            cco.combined_payload(ID_C, SEED, 0, [1]): cco.STATUS_UNKNOWN_ID,
            cco.combined_payload(ID_A, SEED, 0, [1, 9]): cco.STATUS_EPOCH_RANGE,
            cco.combined_payload(ID_A, SEED, 0, [0, 1]): cco.STATUS_EPOCH_RANGE,
        }
        counters.reset()
        for payload, status in cases.items():
            assert store.handle_request(payload)[1] == status, payload.hex()
        assert counters.total() == 0
        assert store.cache_stats().entries == 0
        assert cco.STATUS_OK == store.handle_request(
            cco.combined_payload(ID_A, SEED, q - 1, [8] * cco.MAX_COMBINED_EPOCHS))[1]

    def test_the_largest_request_fits_the_request_frame(self):
        store, material = hy_store(production_group())
        agg = production_group().q - 1
        epochs = [1, 2, 3, 2] * (cco.MAX_COMBINED_EPOCHS // 4)
        payload = cco.combined_payload(ID_A, SEED, agg, epochs)
        assert len(payload) == 593 <= transport.MAX_REQUEST_FRAME
        with transport.CcoServer(store) as server:
            with transport.CcoClient("127.0.0.1", server.port) as client:
                (blob,) = client.ok_bodies([payload])
        assert blob == la.combined_commitment(material.la, ID_A, SEED, agg, epochs)

    def test_pq_only_store_knows_no_aggregate_signer(self):
        _, material = pq.keygen([ID_A], PQ_TOY, fixed_rng(5))
        store = cco.CcoStore(material)
        for agg in (0, 2**256 - 1):
            payload = cco.combined_payload(ID_A, SEED, agg, [1])
            assert store.handle_request(payload)[1] == cco.STATUS_UNKNOWN_ID

    def test_one_pipelined_stream_of_mixed_types(self):
        store, material = hy_store()
        indices = (0, 7, 7, 3)
        payloads = [cco.combined_payload(ID_A, SEED, 4, [1, 2]),
                    cco.opening_payload(ID_A, 1, indices),
                    cco.commitment_payload(cco.MSG_LA, ID_A, 2),
                    cco.combined_payload(ID_C, SEED, 4, [1]),
                    cco.commitment_payload(cco.MSG_LA, ID_A, 9)]
        with transport.CcoServer(store) as server, transport.CcoClient("127.0.0.1", server.port) as client:
            bodies = list(client.ok_bodies(payloads))
        assert bodies == [
            la.combined_commitment(material.la, ID_A, SEED, 4, [1, 2]),
            pq.open_commitment(material.pq, ID_A, 1, indices).to_bytes(),
            la.construct_commitment(material.la, ID_A, 2).to_bytes(),
            None, None]


# --- verify --cco against verify --commits -------------------------------------------


def write_records(path, payloads):
    path.write_text("".join(f"{n},{payload}\n" for n, payload in enumerate(payloads)))
    return stream.read_stream(path, "csv")


class Deployment:
    """Two signers of one key ceremony (plus a bundle signer the service
    does not know), a forked copy of the first signer's key, and a store
    on loopback that records the type of every request."""

    def __init__(self, tmp_path, scheme, batch=2):
        self.tmp, self.batch, self.scheme_name = tmp_path, batch, scheme
        ids = tmp_path / "ids.txt"
        ids.write_text(f"{ID_A.hex()}\n{ID_B.hex()}\n")
        self.keys = tmp_path / "keys"
        assert cli.main(["keygen", "--scheme", scheme, "--ids", str(ids), "--J", "16",
                         "--J1", "2", "--L", str(batch), "--t", "64", "--k", "8",
                         "--out", str(self.keys)]) == 0
        bundle = keyfiles.load_verifier_bundle(self.keys / "verifier.pub")
        keys = dict(bundle.public_keys)
        keys[ID_C] = keys[ID_A]  # in the bundle, unknown to the service
        self.bundle = bundle._replace(public_keys=keys)
        self.pub = tmp_path / "verifier.pub"
        keyfiles.save_verifier_bundle(self.pub, self.bundle)
        self.scheme = schemes.by_tag(bundle.scheme)
        key_a = self.keys / f"signer_{ID_A.hex()}.key"
        shutil.copy(key_a, tmp_path / "fork.key")  # restored from a copy: reuses epochs
        self.requests = []
        store = keyfiles.load_store(self.keys / "cco.store")
        handle = store.handle_request
        store.handle_request = lambda payload: self.requests.append(payload) or handle(payload)
        self.store = store

    @property
    def types(self):
        return [payload[0] for payload in self.requests]

    def sign(self, key, name, units):
        """(records, blobs) of ``units`` units signed with the key file ``key``."""
        records = write_records(self.tmp / f"{name}.csv",
                                [f"{name} record {n}" for n in range(units * self.batch)])
        state = keyfiles.load_signer_key(key)
        blobs = self.scheme.sign(state, records)
        keyfiles.save_signer_key(key, state)
        return records, blobs

    def chunk(self):
        """16 units: 8 of signer A, 6 of signer B, then 2 of A's fork that
        repeat A's (id, epoch) pairs 1 and 2; all valid."""
        parts = [self.sign(self.keys / f"signer_{ID_A.hex()}.key", "a", 8),
                 self.sign(self.keys / f"signer_{ID_B.hex()}.key", "b", 6),
                 self.sign(self.tmp / "fork.key", "fork", 2)]
        return [r for records, _ in parts for r in records], [b for _, blobs in parts for b in blobs]

    def export(self, address):
        blobs = []
        for signer_id in (ID_A, ID_B):
            path = self.tmp / f"export_{signer_id.hex()}.bin"
            assert cli.main(["request", "--cco", address, "--scheme", self.scheme_name,
                             "--id", signer_id.hex(), "--export", "1:16", "--out", str(path)]) == 0
            blobs += keyfiles.load_commitments(path)
        commits = self.tmp / "commits.bin"
        keyfiles.save_commitments(commits, blobs)
        return commits

    def results(self, records, blobs, cco_address=None, commits=None, tables_file=None):
        address = None
        if cco_address:
            host, _, port = cco_address.rpartition(":")
            address = (host, int(port))
        source = verifier.CommitmentSource(self.bundle, address, commits)
        try:
            return verifier.verify_all(self.bundle, records, blobs, source, tables_file)
        finally:
            source.close()

    def signature(self, blob):
        return self.scheme.parse_signature(blob, self.bundle)

    def rebuilt(self, blob, signer_id=None, epoch=None, agg=None):
        """The signature ``blob`` with its id, epoch or response sum replaced."""
        old = self.signature(blob)
        old_la = old.la if self.scheme is schemes.HY else old
        new_la = la.LaSignature(signer_id or old_la.signer_id, epoch or old_la.epoch,
                                old_la.agg if agg is None else agg, old_la.seed)
        if self.scheme is schemes.LA:
            return new_la.to_bytes()
        return hy.HySignature(new_la, pq.PqSignature(new_la.signer_id, new_la.epoch,
                                                     old.pq.body)).to_bytes()

    def exit_and_output(self, capsys, records, blobs, *source):
        sigs, msgs = self.tmp / "chunk.sigs", self.tmp / "chunk.csv"
        keyfiles.save_signatures(sigs, blobs)
        msgs.write_text("".join(f"{r.timestamp},{r.payload.decode()}\n" for r in records))
        capsys.readouterr()
        code = cli.main(["verify", "--pub", str(self.pub), "--in", str(msgs),
                         "--sigs", str(sigs), *source])
        output = capsys.readouterr()
        self.err = output.err
        return code, output.out


@pytest.mark.parametrize("scheme", ["la", "hy"])
def test_clean_chunk_costs_one_combined_request_per_signer(tmp_path, scheme):
    deployment = Deployment(tmp_path, scheme)
    records, blobs = deployment.chunk()
    with transport.CcoServer(deployment.store) as server:
        assert deployment.results(records, blobs, f"127.0.0.1:{server.port}") == [True] * 16
    expected = [cco.MSG_LA_COMBINED] * 2
    if scheme == "hy":
        # one opening per run of consecutive epochs: A's 1-8, B's 1-6, the fork's 1-2
        expected += [cco.MSG_PQ_OPENING] * 3
    assert deployment.types == expected


def mixed_chunk(deployment):
    """(records, blobs, rejected units) of ``Deployment.chunk`` with seven
    units spoiled, each in another way."""
    records, blobs = deployment.chunk()
    group = deployment.bundle.la_params.group
    tampered = bytearray(blobs[9])
    tampered[-1] ^= 1  # la: the public seed; hy: the last revealed pq string
    blobs[9] = bytes(tampered)
    agg = deployment.signature(blobs[10])
    agg = (agg.la if deployment.scheme is schemes.HY else agg).agg
    blobs[10] = deployment.rebuilt(blobs[10], agg=(agg + 1) % group.q)
    blobs[3] = blobs[3][:-1]  # malformed
    blobs[5] = deployment.rebuilt(blobs[5], signer_id=ID_C)  # unknown to the service
    blobs[6] = deployment.rebuilt(blobs[6], epoch=3)  # another epoch's commitment
    blobs[7] = deployment.rebuilt(blobs[7], epoch=17)  # past J
    blobs[12] = deployment.rebuilt(blobs[12], signer_id=b"\xcc" * 16)  # not in the bundle
    return records, blobs, {3, 5, 6, 7, 9, 10, 12}


@pytest.mark.parametrize("scheme", ["la", "hy"])
def test_online_and_offline_agree_on_a_mixed_chunk(tmp_path, capsys, scheme):
    deployment = Deployment(tmp_path, scheme)
    records, blobs, rejected = mixed_chunk(deployment)
    with transport.CcoServer(deployment.store) as server:
        address = f"127.0.0.1:{server.port}"
        commits = deployment.export(address)
        deployment.requests.clear()
        online = deployment.results(records, blobs, address)
        offline = deployment.results(records, blobs, commits=commits)
        assert online == offline == [n not in rejected for n in range(16)]
        # A's check fails (unit 6) and B's (units 9, 10); C's is refused;
        # unit 7 is past J, so it is checked alone.  The openings go by
        # runs of consecutive epochs: A's 1-3, then 5, C's 6, A's 3, 17,
        # B's 1-4, 6 and the fork's 1-2
        named = 16 - 2
        expected = [cco.MSG_LA_COMBINED] * 3
        if scheme == "hy":
            expected += [cco.MSG_PQ_OPENING] * 8
        assert deployment.types == expected + [cco.MSG_LA] * named
        for source in (["--cco", address], ["--commits", str(commits)]):
            assert deployment.exit_and_output(capsys, records, blobs, *source) == (
                1, f"{16 - len(rejected)}/16 signatures valid\n")
            assert deployment.exit_and_output(capsys, *kept_units(records, blobs, rejected),
                                              *source) == (0, "9/9 signatures valid\n")


def test_a_refused_combined_check_costs_no_group_work(tmp_path, monkeypatch):
    """The service does not know signer C: its ``0x08`` is refused, and no
    value can match a refusal, so C's combined value is never computed."""
    deployment = Deployment(tmp_path, "la")
    records, blobs, rejected = mixed_chunk(deployment)
    signer_of, of_challenge, computed = {}, {}, []  # seed -> signer, challenge sum -> signer
    seed_of, sums_of, value_of = la.combination_seed, la.weighted_sums, la.combined_value

    def seed(signer_id, batches):
        result = seed_of(signer_id, batches)
        signer_of[result] = signer_id
        return result

    def sums(seed, batches, q):
        challenge, agg = sums_of(seed, batches, q)
        of_challenge[challenge] = signer_of[seed]
        return challenge, agg

    def value(table, challenge, group):
        computed.append(of_challenge[challenge])
        return value_of(table, challenge, group)

    monkeypatch.setattr(la, "combination_seed", seed)
    monkeypatch.setattr(la, "weighted_sums", sums)
    monkeypatch.setattr(la, "combined_value", value)
    with transport.CcoServer(deployment.store) as server:
        results = deployment.results(records, blobs, f"127.0.0.1:{server.port}")
    assert results == [n not in rejected for n in range(16)]
    assert sorted(signer_of.values()) == [ID_A, ID_B, ID_C]  # three checks asked for
    assert sorted(computed) == [ID_A, ID_B]
    assert deployment.types[:3] == [cco.MSG_LA_COMBINED] * 3


@pytest.mark.parametrize("scheme", ["la", "hy"])
def test_a_response_sum_off_by_one_sends_its_signer_to_single_checks(tmp_path, capsys,
                                                                      monkeypatch, scheme):
    """A's ``0x08`` carries S + 1: its reply is the true one times
    alpha^(-1), which matches no value, so each of A's ten units (the
    fork's two included) is checked alone, with the results and exit
    code of the offline check."""
    deployment = Deployment(tmp_path, scheme)
    records, blobs = deployment.chunk()
    group = deployment.bundle.la_params.group
    payload_of = cco.combined_payload
    sent = []  # (sent, true) payloads of A's combined checks

    def off_by_one(signer_id, seed, agg, epochs):
        if signer_id != ID_A:
            return payload_of(signer_id, seed, agg, epochs)
        sent.append((payload_of(signer_id, seed, (agg + 1) % group.q, epochs),
                     payload_of(signer_id, seed, agg, epochs)))
        return sent[-1][0]

    monkeypatch.setattr(cco, "combined_payload", off_by_one)
    with transport.CcoServer(deployment.store) as server:
        address = f"127.0.0.1:{server.port}"
        commits = deployment.export(address)
        deployment.requests.clear()
        assert deployment.results(records, blobs, address) == [True] * 16
        assert deployment.results(records, blobs, commits=commits) == [True] * 16
        openings = [cco.MSG_PQ_OPENING] * 3 if scheme == "hy" else []
        assert deployment.types == [cco.MSG_LA_COMBINED] * 2 + openings + [cco.MSG_LA] * 10
        assert {payload[1:17] for payload in deployment.requests[-10:]} == {ID_A}
        for source in (["--cco", address], ["--commits", str(commits)]):
            assert deployment.exit_and_output(capsys, records, blobs, *source) == (
                0, "16/16 signatures valid\n")
    # A's reply is the one the true sum gets, times alpha^(-1)
    off, true = (group.decode_element(deployment.store.handle_request(payload)[2:])
                 for payload in sent[-1])
    assert off == group.mul(true, group.exp(group.generator, group.q - 1)) != true


@pytest.mark.parametrize("scheme", ["la", "hy"])
def test_online_verification_builds_no_generator_comb(tmp_path, capsys, monkeypatch, scheme):
    """With the service in its own process, an online ``verify --cco`` of
    a clean chunk on production keys completes while the generator's
    comb cannot be built in the verifier's process."""
    deployment = Deployment(tmp_path, scheme)
    records, blobs = deployment.chunk()
    assert isinstance(deployment.bundle.la_params.group, Edwards25519Group)

    def no_comb(self):
        raise AssertionError("the generator's comb was asked for")

    monkeypatch.setattr(Edwards25519Group, "_generator_table", no_comb)
    argv = [sys.executable, "-m", "hases.cli", "serve", "--store",
            str(deployment.keys / "cco.store"), "--port", "0"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                          env={**os.environ, "PYTHONUNBUFFERED": "1"}) as proc:
        try:
            address = proc.stdout.readline().strip().removeprefix("listening on ")
            assert deployment.exit_and_output(capsys, records, blobs, "--cco", address) == (
                0, "16/16 signatures valid\n")
        finally:
            proc.terminate()
            proc.wait()


@pytest.mark.parametrize("scheme", ["la", "hy"])
def test_a_table_file_changes_no_result_and_no_exit_code(tmp_path, capsys, monkeypatch, scheme):
    deployment = Deployment(tmp_path, scheme)
    records, blobs, rejected = mixed_chunk(deployment)
    checked = []
    group = deployment.bundle.la_params.group
    precompute = type(group).precompute
    monkeypatch.setattr(type(group), "precompute",
                        lambda self, key: checked.append(key) or precompute(self, key))
    tables_file = keyfiles.tables_path(deployment.pub)
    with transport.CcoServer(deployment.store) as server:
        address = f"127.0.0.1:{server.port}"
        commits = deployment.export(address)
        outcomes = {}
        for with_file in (False, True):
            if with_file:  # the bundle beside the keys has C's key too: rebuild its tables
                assert cli.main(["tables", "--pub", str(deployment.pub)]) == 0
            checked.clear()
            for name, source in (("cco", ["--cco", address]), ("commits", ["--commits", str(commits)])):
                per_unit = deployment.results(
                    records, blobs, *((address,) if name == "cco" else (None, commits)),
                    tables_file=tables_file if with_file else None)
                outcomes[with_file, name] = per_unit, [
                    deployment.exit_and_output(capsys, records, blobs, *source),
                    deployment.exit_and_output(capsys, *kept_units(records, blobs, rejected),
                                               *source)]
            # with the file no key is checked; without it, each run checks
            # the keys it meets
            assert (checked == []) == with_file
    expected = ([n not in rejected for n in range(16)],
                [(1, f"{16 - len(rejected)}/16 signatures valid\n"), (0, "9/9 signatures valid\n")])
    assert all(outcome == expected for outcome in outcomes.values()), outcomes


@pytest.mark.parametrize("scheme", ["la", "hy"])
def test_a_bundle_key_outside_the_subgroup_rejects_its_signer_alone(tmp_path, capsys, scheme,
                                                                    small_order_points):
    """B's key in the bundle shifted by a point of order 8, with no key
    table file: B's combined check fails on the key, each of B's units
    is rejected alone, and A's units (the fork's included) stay valid."""
    deployment = Deployment(tmp_path, scheme)
    records, blobs = deployment.chunk()
    group = deployment.bundle.la_params.group
    keys = dict(deployment.bundle.public_keys)
    keys[ID_B] = group.encode_element(group.mul(group.decode_element(keys[ID_B]),
                                                small_order_points[1]))
    deployment.bundle = deployment.bundle._replace(public_keys=keys)
    keyfiles.save_verifier_bundle(deployment.pub, deployment.bundle)
    assert not keyfiles.tables_path(deployment.pub).exists()
    rejected = range(8, 14)  # B's six units
    with transport.CcoServer(deployment.store) as server:
        address = f"127.0.0.1:{server.port}"
        commits = deployment.export(address)
        deployment.requests.clear()
        expected = [n not in rejected for n in range(16)]
        assert deployment.results(records, blobs, address) == expected
        assert deployment.results(records, blobs, commits=commits) == expected
        # A's and B's combined checks are both asked for; B's fails on its key
        assert deployment.types.count(cco.MSG_LA_COMBINED) == 2
        assert deployment.types.count(cco.MSG_LA) == len(rejected)
        for source in (["--cco", address], ["--commits", str(commits)]):
            assert deployment.exit_and_output(capsys, records, blobs, *source) == (
                1, "10/16 signatures valid\n")
            assert deployment.err == ""


def kept_units(records, blobs, rejected):
    """The units of a chunk outside ``rejected``, records and blobs alike."""
    batch = len(records) // len(blobs)
    keep = [n for n in range(len(blobs)) if n not in rejected]
    return ([r for n in keep for r in records[n * batch : (n + 1) * batch]],
            [blobs[n] for n in keep])


@pytest.mark.parametrize("pair", [(2, 5), (0, 14)], ids=["two-epochs", "one-repeated-epoch"])
def test_split_delta_forgery_is_rejected_unit_by_unit(tmp_path, capsys, pair):
    """Units 0 and 14 share (id, epoch): 14 is the forked key's first tag."""
    deployment = Deployment(tmp_path, "la")
    records, blobs = deployment.chunk()
    q = deployment.bundle.la_params.group.q
    delta = 0x5EED
    for n, sign in zip(pair, (1, -1)):
        agg = deployment.signature(blobs[n]).agg
        blobs[n] = deployment.rebuilt(blobs[n], agg=(agg + sign * delta) % q)
    with transport.CcoServer(deployment.store) as server:
        address = f"127.0.0.1:{server.port}"
        commits = deployment.export(address)
        deployment.requests.clear()
        expected = [n not in pair for n in range(16)]
        assert deployment.results(records, blobs, address) == expected
        assert deployment.results(records, blobs, commits=commits) == expected
        # A's combined check fails and each of its 10 units is checked alone
        assert deployment.types == [cco.MSG_LA_COMBINED] * 2 + [cco.MSG_LA] * 10
        for source in (["--cco", address], ["--commits", str(commits)]):
            assert deployment.exit_and_output(capsys, records, blobs, *source) == (
                1, "14/16 signatures valid\n")


def test_tiny_group_checks_each_batch_alone(tmp_path, monkeypatch):
    monkeypatch.setenv("HASES_BACKEND", "tiny")
    deployment = Deployment(tmp_path, "la")
    records, blobs = deployment.chunk()
    with transport.CcoServer(deployment.store) as server:
        assert deployment.results(records, blobs, f"127.0.0.1:{server.port}") == [True] * 16
    assert deployment.types == [cco.MSG_LA] * 16
