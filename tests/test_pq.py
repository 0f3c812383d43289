import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hases import cco, cli, hy, keyfiles, pq
from hases.errors import EpochExhausted, EpochOutOfRange, UnknownSigner
from hases.group import production_group, small_test_group
from hases.hashing import (commitment_images, counters, domain_hash, encode_index, iter_hash,
                           opened_images)

ID_A = bytes([0xAA]) * 16
ID_B = bytes([0xBB]) * 16
TOY = pq.PqParams(t=8, k=4, j1=4, j2=4)  # 16 epochs, exhaustively testable
PROD = pq.PqParams(t=1024, k=16, j1=4, j2=4)


def fixed_rng(seed: int):
    rng = random.Random(seed)
    return lambda n: rng.randbytes(n)


def entry(commitment: pq.PqCommitment, x: int) -> bytes:
    """The entry at index x, sliced out of the commitment's body."""
    return commitment.body[x * pq.DIGEST_LEN : (x + 1) * pq.DIGEST_LEN]


def chain_seed(material: pq.PqKeyMaterial, signer_id: bytes, epoch: int) -> bytes:
    """The seed of ``epoch``, walked from the epoch-1 seed without anchors."""
    return iter_hash(1, pq.initial_seed(material.msk, signer_id), epoch - 1)


def signer_commitment(state: pq.PqSignerState) -> pq.PqCommitment:
    """Commitment from the signer's own current key (test-side path)."""
    return pq.PqCommitment(state.signer_id, state.epoch,
                           commitment_images(bytes(state.seed), state.params.t))


class TestParams:
    def test_index_bits(self):
        assert pq.PqParams(t=1024, k=16).index_bits == 10
        assert TOY.index_bits == 3

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            pq.PqParams(t=1000, k=16)

    def test_rejects_oversized_index_consumption(self):
        with pytest.raises(ValueError):
            pq.PqParams(t=1024, k=26)  # 260 bits > digest

    def test_epoch_count(self):
        assert TOY.epochs == 16


class TestKeygen:
    def test_initial_key_derivation(self):
        states, material = pq.keygen([ID_A], TOY, fixed_rng(1))
        expected = domain_hash(0, material.msk + ID_A)
        assert bytes(states[ID_A].seed) == expected
        assert states[ID_A].epoch == 1

    def test_no_anchors_with_single_segment(self):
        _, material = pq.keygen([ID_A], pq.PqParams(t=8, k=4, j1=1, j2=16), fixed_rng(2))
        assert material.anchors[ID_A] == ()
        assert len(material.msk) == 32

    def test_anchor_chain_positions(self):
        states, material = pq.keygen([ID_A], TOY, fixed_rng(3))
        sk1 = bytes(states[ID_A].seed)
        anchors = material.anchors[ID_A]
        assert len(anchors) == TOY.j1 - 1
        for i, anchor in enumerate(anchors, start=1):
            assert anchor == iter_hash(1, sk1, i * TOY.j2)

    def test_distinct_ids_distinct_keys(self):
        states, _ = pq.keygen([ID_A, ID_B], TOY, fixed_rng(4))
        assert bytes(states[ID_A].seed) != bytes(states[ID_B].seed)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            pq.keygen([ID_A, ID_A], TOY)

    def test_bad_id_length_rejected(self):
        with pytest.raises(ValueError):
            pq.keygen([b"short"], TOY)


class TestKeyUpdate:
    def test_update_matches_chain(self):
        states, _ = pq.keygen([ID_A], TOY, fixed_rng(5))
        state = states[ID_A]
        sk1 = bytes(state.seed)
        for step in range(1, 6):
            pq.advance_key(state)
            assert bytes(state.seed) == iter_hash(1, sk1, step)
            assert state.epoch == step + 1

    def test_old_key_bytes_overwritten(self):
        states, _ = pq.keygen([ID_A], TOY, fixed_rng(6))
        state = states[ID_A]
        before = state.seed  # same bytearray object
        snapshot = bytes(before)
        pq.advance_key(state)
        assert before is state.seed
        assert bytes(before) != snapshot

    def test_exhaustion(self):
        states, _ = pq.keygen([ID_A], TOY, fixed_rng(7))
        state = states[ID_A]
        for _ in range(TOY.epochs):
            pq.sign(state, b"m")
        assert state.exhausted
        with pytest.raises(EpochExhausted):
            pq.sign(state, b"one too many")
        with pytest.raises(EpochExhausted):
            pq.advance_key(state)


class TestStreamEnd:
    """``hases sign`` over a stream that reaches the last epoch, and one
    record past it."""

    J = 16

    def key(self, tmp_path):
        (tmp_path / "ids.txt").write_text("aa" * 16 + "\n")
        assert cli.main(["keygen", "--scheme", "pq", "--ids", str(tmp_path / "ids.txt"),
                         "--J", str(self.J), "--J1", "4", "--t", "64", "--k", "8",
                         "--out", str(tmp_path / "keys")]) == 0
        return tmp_path / "keys" / f"signer_{'aa' * 16}.key"

    def sign(self, tmp_path, key, records):
        msgs = tmp_path / f"{records}.csv"
        msgs.write_text("".join(f"{n},record {n}\n" for n in range(records)))
        return cli.main(["sign", "--key", str(key), "--in", str(msgs),
                         "--out", str(tmp_path / f"{records}.sigs")])

    def test_a_stream_of_J_records_leaves_the_key_at_epoch_J_plus_1(self, tmp_path):
        key = self.key(tmp_path)
        assert self.sign(tmp_path, key, self.J) == 0
        state = keyfiles.load_signer_key(key)
        assert state.epoch == self.J + 1 and state.exhausted
        signatures = keyfiles.load_signatures(tmp_path / f"{self.J}.sigs")
        assert [pq.PqSignature.from_bytes(blob).epoch for blob in signatures] == list(
            range(1, self.J + 1))

    def test_one_record_past_the_last_epoch_changes_nothing(self, tmp_path, capsys):
        key = self.key(tmp_path)
        before = key.read_bytes()
        assert self.sign(tmp_path, key, self.J + 1) == 2
        assert f"all {self.J} epochs used" in capsys.readouterr().err
        assert key.read_bytes() == before
        assert not (tmp_path / f"{self.J + 1}.sigs").exists()


class TestMessageIndices:
    def test_consumes_first_160_bits(self):
        params = pq.PqParams(t=1024, k=16)
        assert params.k * params.index_bits == 160

    def test_zero_prefix_digest(self):
        digest = bytes(3) + b"\xff" * 29  # 24 leading zero bits
        indices = pq.indices_from_digests([digest], pq.PqParams(t=1024, k=16))
        assert indices[0] == 0 and indices[1] == 0
        assert indices[2] != 0

    def test_against_bit_slicing_oracle(self):
        params = pq.PqParams(t=1024, k=16)
        message = b"abc"
        digest = hashlib.sha256(b"\x00" + message).digest()
        bits = "".join(f"{byte:08b}" for byte in digest)
        oracle = tuple(int(bits[i * 10 : (i + 1) * 10], 2) for i in range(16))
        assert pq.message_indices(message, params) == oracle
        # frozen from the oracle above
        assert oracle[:4] == (386, 502, 909, 722)

    def test_range(self):
        rng = random.Random(8)
        for _ in range(100):
            for x in pq.message_indices(rng.randbytes(20), TOY):
                assert 0 <= x < TOY.t


class TestSign:
    def test_payload_size(self):
        states, _ = pq.keygen([ID_A], PROD, fixed_rng(9))
        sig = pq.sign(states[ID_A], b"message")
        assert len(sig.body) == 16 * 32 == 512
        assert len(sig.to_bytes()) == 1 + 16 + 8 + 512

    def test_hash_budget_exactly_k_plus_two(self):
        states, _ = pq.keygen([ID_A], PROD, fixed_rng(10))
        state = states[ID_A]
        counters.reset()
        pq.sign(state, b"count me")
        assert counters.total() == 1 + PROD.k + 1 == 18

    # found by search: each message selects index 0, index t - 1 and one
    # index twice, (0, 4, 7, 7) at t=8 and 59 twice at t=1024
    @pytest.mark.parametrize("params,message", [(TOY, b"kernel 3"), (PROD, b"kernel 26749")])
    def test_parts_equal_the_domain_hash_composition(self, params, message):
        states, _ = pq.keygen([ID_A], params, fixed_rng(13))
        state = states[ID_A]
        seed = bytes(state.seed)
        indices = pq.message_indices(message, params)
        assert {0, params.t - 1} <= set(indices) and len(set(indices)) < params.k
        counters.reset()
        signature = pq.sign(state, message)
        # one H0 for the indices, k H1 for the parts and one for the key update
        assert counters.snapshot() == (1, params.k + 1, 0)
        assert signature.body == b"".join(domain_hash(1, seed + encode_index(x + 1)) for x in indices)

    @settings(max_examples=100, deadline=None)
    @given(message=st.binary(max_size=80), seed=st.binary(min_size=32, max_size=32),
           params=st.sampled_from([TOY, PROD]))
    def test_sign_is_the_composition_then_advance_key(self, message, seed, params):
        reference = pq.PqSignerState(ID_A, bytearray(seed), 3, params)
        body = b"".join(domain_hash(1, seed + encode_index(x + 1))
                        for x in pq.message_indices(message, params))
        pq.advance_key(reference)
        state = pq.PqSignerState(ID_A, bytearray(seed), 3, params)
        held = state.seed
        counters.reset()
        assert pq.sign(state, message) == pq.PqSignature(ID_A, 3, body)
        assert counters.snapshot() == (1, params.k + 1, 0)
        # the key update, written over the old seed in place
        assert state.seed is held
        assert (bytes(state.seed), state.epoch) == (bytes(reference.seed), reference.epoch) == (
            domain_hash(1, seed), 4)

    def test_epoch_recorded_before_update(self):
        states, _ = pq.keygen([ID_A], TOY, fixed_rng(11))
        state = states[ID_A]
        first = pq.sign(state, b"m1")
        second = pq.sign(state, b"m2")
        assert (first.epoch, second.epoch) == (1, 2)
        assert state.epoch == 3

    def test_sequential_signatures_use_disjoint_keys(self):
        states, _ = pq.keygen([ID_A], TOY, fixed_rng(12))
        state = states[ID_A]
        a = pq.sign(state, b"m")
        b = pq.sign(state, b"m")
        a_parts, b_parts = ({s.body[i : i + 32] for i in range(0, len(s.body), 32)} for s in (a, b))
        assert a_parts.isdisjoint(b_parts)


class TestCommitmentConstruction:
    def test_brute_force_oracle_toy_size(self):
        states, material = pq.keygen([ID_A], TOY, fixed_rng(13))
        seed = bytes(states[ID_A].seed)
        commitment = pq.construct_commitment(material, ID_A, 1)
        assert len(commitment.body) == 8 * 32
        for position in range(8):
            label = (position + 1).to_bytes(8, "big")
            inner = hashlib.sha256(b"\x01" + seed + label).digest()
            assert entry(commitment, position) == hashlib.sha256(b"\x02" + inner).digest()

    def test_matches_signer_chain_walk_every_epoch(self):
        states, material = pq.keygen([ID_A], TOY, fixed_rng(14))
        state = states[ID_A]
        for epoch in range(1, TOY.epochs + 1):
            from_store = pq.construct_commitment(material, ID_A, epoch)
            assert from_store == signer_commitment(state)
            if epoch < TOY.epochs:
                pq.advance_key(state)

    def test_anchors_bound_chain_work(self):
        _, material = pq.keygen([ID_A], TOY, fixed_rng(15))
        for epoch in range(1, TOY.epochs + 1):
            counters.reset()
            pq.construct_commitment(material, ID_A, epoch)
            chain_steps = counters.calls_h1 - TOY.t
            assert chain_steps == (epoch - 1) % TOY.j2 <= TOY.j2 - 1

    @pytest.mark.parametrize("params", [TOY, PROD], ids=["t8", "t1024"])
    def test_kernel_matches_composition_across_anchor_boundaries(self, params):
        states, material = pq.keygen([ID_A], params, fixed_rng(19))
        sk1 = bytes(states[ID_A].seed)
        # the last epoch of each segment and the first of the next one
        boundaries = range(params.j2 + 1, params.epochs + 1, params.j2)
        epochs = sorted({1, params.epochs} | {e - d for e in boundaries for d in (0, 1)})
        for epoch in epochs:
            seed = iter_hash(1, sk1, epoch - 1)
            reference = b"".join(
                domain_hash(2, domain_hash(1, seed + label.to_bytes(8, "big")))
                for label in range(1, params.t + 1)
            )
            assert pq.construct_commitment(material, ID_A, epoch).body == reference

    @pytest.mark.parametrize("params", [TOY, PROD], ids=["t8", "t1024"])
    def test_exact_hash_count(self, params):
        _, material = pq.keygen([ID_A], params, fixed_rng(20))
        for epoch in range(1, params.epochs + 1):
            segment, offset = divmod(epoch - 1, params.j2)
            counters.reset()
            pq.construct_commitment(material, ID_A, epoch)
            # 2t for the entries, the chain walk, and H0 for the initial seed in segment 0
            assert counters.snapshot() == (int(segment == 0), params.t + offset, params.t)
            assert counters.total() == 2 * params.t + offset + (segment == 0)

    def test_range_walks_the_chain_once(self):
        _, material = pq.keygen([ID_A], TOY, fixed_rng(21))
        for lo, hi in ((1, 16), (3, 10), (5, 5), (8, 9)):
            singles = [pq.construct_commitment(material, ID_A, e) for e in range(lo, hi + 1)]
            counters.reset()
            assert cco.CcoStore(material).batch_export(cco.MSG_PQ, ID_A, lo, hi) == [
                single.to_bytes() for single in singles]
            segment, offset = divmod(lo - 1, TOY.j2)
            n = hi - lo + 1
            # one chain step per further epoch, none where an anchor starts a segment
            anchors = sum(1 for e in range(lo + 1, hi + 1) if (e - 1) % TOY.j2 == 0)
            steps = offset + n - 1 - anchors
            assert counters.snapshot() == (int(segment == 0), steps + n * TOY.t, n * TOY.t)

    def test_range_checked_before_any_hashing(self):
        _, material = pq.keygen([ID_A], TOY, fixed_rng(22))
        store = cco.CcoStore(material)
        # each epoch is refused as its single request is: a range from epoch
        # 0 or of an unknown signer before any hashing, and an empty range
        # builds nothing; a range past J is refused at its first epoch past J
        counters.reset()
        with pytest.raises(EpochOutOfRange):
            store.batch_export(cco.MSG_PQ, ID_A, 0, 3)
        with pytest.raises(UnknownSigner):
            store.batch_export(cco.MSG_PQ, ID_B, 1, 2)
        assert store.batch_export(cco.MSG_PQ, ID_A, 4, 3) == []
        assert counters.total() == 0
        with pytest.raises(EpochOutOfRange):
            store.batch_export(cco.MSG_PQ, ID_A, 10, TOY.epochs + 1)
        assert counters.calls_h2 == (TOY.epochs - 9) * TOY.t

    def test_unknown_signer(self):
        _, material = pq.keygen([ID_A], TOY, fixed_rng(16))
        with pytest.raises(UnknownSigner):
            pq.construct_commitment(material, ID_B, 1)

    def test_epoch_bounds(self):
        _, material = pq.keygen([ID_A], TOY, fixed_rng(17))
        for epoch in (0, TOY.epochs + 1):
            with pytest.raises(EpochOutOfRange):
                pq.construct_commitment(material, ID_A, epoch)


class TestVerify:
    def setup_method(self):
        self.states, self.material = pq.keygen([ID_A], TOY, fixed_rng(18))
        self.state = self.states[ID_A]

    def test_honest_roundtrip_all_epochs(self):
        for epoch in range(1, TOY.epochs + 1):
            message = b"epoch message %d" % epoch
            commitment = pq.construct_commitment(self.material, ID_A, epoch)
            signature = pq.sign(self.state, message)
            assert signature.epoch == epoch
            assert pq.verify(commitment, message, signature, TOY)

    def test_cross_epoch_rejected(self):
        signature = pq.sign(self.state, b"m")
        later = pq.construct_commitment(self.material, ID_A, 2)
        assert not pq.verify(later, b"m", signature, TOY)

    def test_wrong_id_rejected(self):
        signature = pq.sign(self.state, b"m")
        commitment = pq.construct_commitment(self.material, ID_A, 1)
        forged = pq.PqSignature(ID_B, signature.epoch, signature.body)
        assert not pq.verify(commitment, b"m", forged, TOY)

    def test_wrong_part_count_rejected(self):
        signature = pq.sign(self.state, b"m")
        commitment = pq.construct_commitment(self.material, ID_A, 1)
        short = pq.PqSignature(ID_A, 1, signature.body[:-32])
        assert not pq.verify(commitment, b"m", short, TOY)

    def test_bit_flip_fuzz_production_params(self):
        states, material = pq.keygen([ID_A], PROD, fixed_rng(19))
        message = bytearray(b"the quick brown fox jumps over the lazy dog")
        commitment = pq.construct_commitment(material, ID_A, 1)
        signature = pq.sign(states[ID_A], bytes(message))
        rng = random.Random(20)
        for _ in range(150):
            mutated = bytearray(message)
            mutated[rng.randrange(len(mutated))] ^= 1 << rng.randrange(8)
            assert not pq.verify(commitment, bytes(mutated), signature, PROD)

    @pytest.mark.parametrize("tampered", [0, 1, 7, 15])
    def test_a_reject_stops_at_the_first_bad_part(self, tampered):
        # part i tampered costs exactly i + 1 H2 calls: the checks before it
        # pass, its own fails, and none after it is made
        states, material = pq.keygen([ID_A], PROD, fixed_rng(36))
        message = b"stop early"
        signature = pq.sign(states[ID_A], message)
        indices = pq.message_indices(message, PROD)
        opening = pq.open_commitment(material, ID_A, 1, indices)
        body = bytearray(signature.body)
        body[32 * tampered : 32 * (tampered + 1)] = bytes(a ^ 1 for a in body[32 * tampered : 32 * (tampered + 1)])
        forged = pq.PqSignature(ID_A, 1, bytes(body))
        counters.reset()
        assert not pq.verify(opening, message, forged, PROD, indices)
        assert counters.snapshot() == (0, 0, tampered + 1)
        counters.reset()
        assert pq.verify(opening, message, signature, PROD, indices)
        assert counters.snapshot() == (0, 0, PROD.k)

    def test_forward_security_surrogate(self):
        # signing with any descendant key never verifies against an
        # ancestor epoch's commitment
        breach_epoch = 5
        while self.state.epoch < breach_epoch:
            pq.advance_key(self.state)
        for ancestor in range(1, breach_epoch):
            old_commitment = pq.construct_commitment(self.material, ID_A, ancestor)
            leaked = pq.PqSignerState(
                ID_A, bytearray(self.state.seed), self.state.epoch, TOY
            )
            forged = pq.sign(leaked, b"forgery attempt")
            aligned = pq.PqSignature(ID_A, ancestor, forged.body)
            assert not pq.verify(old_commitment, b"forgery attempt", aligned, TOY)


class TestSerialization:
    def test_signature_round_trip(self):
        states, _ = pq.keygen([ID_A], TOY, fixed_rng(21))
        signature = pq.sign(states[ID_A], b"m")
        assert pq.PqSignature.from_bytes(signature.to_bytes()) == signature

    def test_commitment_round_trip(self):
        _, material = pq.keygen([ID_A], TOY, fixed_rng(22))
        commitment = pq.construct_commitment(material, ID_A, 3)
        assert pq.PqCommitment.from_bytes(commitment.to_bytes()) == commitment

    def test_wrong_tag_rejected(self):
        _, material = pq.keygen([ID_A], TOY, fixed_rng(23))
        blob = bytearray(pq.construct_commitment(material, ID_A, 1).to_bytes())
        blob[0] = 0x7F
        with pytest.raises(ValueError):
            pq.PqCommitment.from_bytes(bytes(blob))

    def test_ragged_body_rejected(self):
        with pytest.raises(ValueError):
            pq.PqSignature.from_bytes(bytes((pq.SIGNATURE_TAG,)) + bytes(24) + b"ragged")


class TestOpening:
    @staticmethod
    def boundary_epochs(params):
        # the first and last epochs, and both sides of every anchor boundary
        boundaries = range(params.j2 + 1, params.epochs + 1, params.j2)
        return sorted({1, params.epochs} | {e - d for e in boundaries for d in (0, 1)})

    @pytest.mark.parametrize("params", [TOY, PROD], ids=["t8", "t1024"])
    def test_entries_equal_the_full_commitment_at_every_index(self, params):
        _, material = pq.keygen([ID_A], params, fixed_rng(30))
        rng = random.Random(31)
        for epoch in self.boundary_epochs(params):
            full = pq.construct_commitment(material, ID_A, epoch)
            # every index once across the groups of k, then duplicates
            positions = list(range(params.t)) + [rng.randrange(params.t) for _ in range(params.k)]
            positions += [positions[-1]] * (-len(positions) % params.k)
            for start in range(0, len(positions), params.k):
                indices = tuple(positions[start : start + params.k])
                opening = pq.open_commitment(material, ID_A, epoch, indices)
                assert opening == full.open(indices, params)
                assert opening.body == b"".join(entry(full, x) for x in indices)
                assert (opening.signer_id, opening.epoch) == (ID_A, epoch)
            repeated = (rng.randrange(params.t),) * params.k
            assert pq.open_commitment(material, ID_A, epoch, repeated).body == (
                entry(full, repeated[0]) * params.k)

    @pytest.mark.parametrize("params", [TOY, PROD], ids=["t8", "t1024"])
    def test_exact_hash_count(self, params):
        _, material = pq.keygen([ID_A], params, fixed_rng(32))
        indices = tuple(range(params.k))
        for epoch in range(1, params.epochs + 1):
            segment, offset = divmod(epoch - 1, params.j2)
            counters.reset()
            pq.open_commitment(material, ID_A, epoch, indices)
            # the chain walk, 2k for the entries, H0 for the initial seed in segment 0
            assert counters.snapshot() == (int(segment == 0), offset + params.k, params.k)

    def test_malformed_requests_cost_no_hashes(self):
        _, material = pq.keygen([ID_A], TOY, fixed_rng(33))
        good = tuple(range(TOY.k))
        counters.reset()
        for indices in ((), good[:-1], good + (0,), (0, 1, 2, TOY.t), (0, 1, 2, -1)):
            with pytest.raises(ValueError):
                pq.open_commitment(material, ID_A, 1, indices)
        with pytest.raises(UnknownSigner):
            pq.open_commitment(material, ID_B, 1, good)
        for epoch in (0, TOY.epochs + 1):
            with pytest.raises(EpochOutOfRange):
                pq.open_commitment(material, ID_A, epoch, good)
        assert counters.total() == 0

    def test_verify_runs_one_check_on_commitment_or_opening(self):
        states, material = pq.keygen([ID_A], PROD, fixed_rng(34))
        message = b"opened message"
        signature = pq.sign(states[ID_A], message)
        indices = pq.message_indices(message, PROD)
        full = pq.construct_commitment(material, ID_A, 1)
        opening = pq.open_commitment(material, ID_A, 1, indices)
        assert pq.verify(full, message, signature, PROD)
        assert pq.verify(opening, message, signature, PROD)
        # given the indices, the check does not derive them again
        counters.reset()
        assert pq.verify(opening, message, signature, PROD, indices)
        assert counters.total() == PROD.k
        # an opening made at other indices, another message's opening, or a
        # tampered part is rejected; an opening holds no indices, so the
        # message is bound through the indices it was made at
        other = pq.open_commitment(material, ID_A, 1, indices[1:] + indices[:1])
        assert not pq.verify(other, message, signature, PROD)
        forged = b"another message"
        opened = pq.open_commitment(material, ID_A, 1, pq.message_indices(forged, PROD))
        assert not pq.verify(opened, forged, signature, PROD)
        assert not pq.verify(full, forged, signature, PROD)
        tampered = pq.PqSignature(ID_A, 1, signature.body[:-32] + bytes(32))
        assert not pq.verify(opening, message, tampered, PROD)
        # a commitment with the wrong entry count cannot be opened
        short = pq.PqCommitment(ID_A, 1, full.body[: -pq.DIGEST_LEN])
        with pytest.raises(ValueError):
            short.open(indices, PROD)
        assert not pq.verify(short, message, signature, PROD)

    def test_round_trip_and_size(self):
        _, material = pq.keygen([ID_A], PROD, fixed_rng(35))
        indices = tuple(range(0, 1024, 64))
        opening = pq.open_commitment(material, ID_A, 7, indices)
        blob = opening.to_bytes()
        assert len(blob) == pq.HEADER_LEN + PROD.k * 32 == 537
        assert blob[0] == pq.OPENING_TAG
        assert pq.PqOpening.from_bytes(blob) == opening
        for bad in (blob[:-1], blob[: pq.HEADER_LEN], bytes((pq.COMMITMENT_TAG,)) + blob[1:]):
            with pytest.raises(ValueError):
                pq.PqOpening.from_bytes(bad)
        # one entry too many parses, but does not open the k indices
        with pytest.raises(ValueError):
            pq.PqOpening.from_bytes(blob + bytes(32)).open(indices, PROD)


class TestChainCursor:
    """A cursor keeps the last seed derived per signer; a later walk starts
    from it when it lies between the epoch's anchor and the epoch."""

    PARAMS = pq.PqParams(t=64, k=8, j1=4, j2=16)

    @staticmethod
    def anchor_walk(params, epoch):
        """Hashes to reach ``epoch``'s seed without a cursor: the walk from
        its anchor, plus H0 for the initial seed in segment 0."""
        segment, offset = divmod(epoch - 1, params.j2)
        return offset + (segment == 0)

    def test_every_request_costs_the_nearer_walk_exactly(self):
        params = self.PARAMS
        _, material = pq.keygen([ID_A, ID_B], params, fixed_rng(40))
        rng = random.Random(41)
        epochs = []
        while len(epochs) < 200:
            start = rng.randint(1, params.epochs)
            # runs forward and backward, jumps, repeats, across boundaries
            step = rng.choice((1, 1, 1, -1, 0, 3))
            epochs += [min(max(start + step * n, 1), params.epochs) for n in range(rng.randint(1, 20))]
        cursor, last = {}, {}
        for n, epoch in enumerate(epochs):
            sid = (ID_A, ID_B)[n % 7 == 0]
            indices = tuple(rng.randrange(params.t) for _ in range(params.k))
            anchor = epoch - (epoch - 1) % params.j2
            if anchor <= last.get(sid, 0) <= epoch:
                h0, steps = 0, epoch - last[sid]
            else:
                h0 = int(epoch <= params.j2)
                steps = self.anchor_walk(params, epoch) - h0
            counters.reset()
            opening = pq.open_commitment(material, sid, epoch, indices, cursor)
            assert counters.snapshot() == (h0, steps + params.k, params.k)
            assert h0 + steps <= self.anchor_walk(params, epoch)
            assert opening == pq.open_commitment(material, sid, epoch, indices)
            assert cursor[sid] == (epoch, chain_seed(material, sid, epoch))
            last[sid] = epoch

    @pytest.mark.parametrize("first", [1, 5, 17, 20])  # segment 0, then segment 1
    def test_consecutive_openings_cost_one_walk_then_one_step_each(self, first):
        params = self.PARAMS
        _, material = pq.keygen([ID_A], params, fixed_rng(42))
        n = params.j2 - (first - 1) % params.j2  # to the end of the segment
        cursor = {}
        counters.reset()
        for epoch in range(first, first + n):
            pq.open_commitment(material, ID_A, epoch, tuple(range(params.k)), cursor)
        walk = self.anchor_walk(params, first)
        assert counters.total() == walk + (n - 1) + 2 * params.k * n

    def test_commitments_walk_from_the_cursor_and_leave_it_at_the_last_epoch(self):
        params = self.PARAMS
        _, material = pq.keygen([ID_A], params, fixed_rng(43))
        store = cco.CcoStore(material)
        cursor = store._cursor
        singles = [pq.construct_commitment(material, ID_A, e) for e in range(3, 11)]
        assert store.batch_export(cco.MSG_PQ, ID_A, 3, 10) == [single.to_bytes() for single in singles]
        assert cursor[ID_A] == (10, chain_seed(material, ID_A, 10))
        reference = pq.construct_commitment(material, ID_A, 12)
        counters.reset()
        assert pq.construct_commitment(material, ID_A, 12, cursor) == reference
        assert counters.snapshot() == (0, 2 + params.t, params.t)
        assert cursor[ID_A][0] == 12

    def test_refused_requests_leave_the_cursor_alone(self):
        params = self.PARAMS
        _, material = pq.keygen([ID_A], params, fixed_rng(44))
        cursor = {}
        pq.open_commitment(material, ID_A, 7, tuple(range(params.k)), cursor)
        before = dict(cursor)
        counters.reset()
        with pytest.raises(UnknownSigner):
            pq.open_commitment(material, ID_B, 8, tuple(range(params.k)), cursor)
        with pytest.raises(EpochOutOfRange):
            pq.construct_commitment(material, ID_A, params.epochs + 1, cursor)
        with pytest.raises(ValueError):
            pq.open_commitment(material, ID_A, 8, (params.t,) * params.k, cursor)
        assert cursor == before and counters.total() == 0


class TestRunKernel:
    """``open_commitment`` hashes a whole run in one ``hashing.opened_images``:
    the bytes of the per-epoch openings, at the walk plus 2 calls per index."""

    PARAMS = pq.PqParams(t=1024, k=16, j1=4, j2=16)  # 64 epochs, a segment edge every 16

    def material(self, source):
        if source == "pq":
            return pq.keygen([ID_A], self.PARAMS, fixed_rng(60))[1]
        group = production_group() if source == "hy-production" else small_test_group()
        return hy.keygen([ID_A], group, 2, self.PARAMS, fixed_rng(61))[2].pq

    def walk(self, first, last, known):
        """(H0, H1) calls of the seed walk over [first, last] from the
        cursor's epoch ``known`` (None: no cursor entry)."""
        segment, offset = divmod(first - 1, self.PARAMS.j2)
        if known is not None and first - offset <= known <= first:
            h0, h1 = 0, first - known
        else:
            h0, h1 = int(segment == 0), offset
        # a later epoch takes one step, or its anchor where it starts a segment
        return h0, h1 + sum(1 for e in range(first + 1, last + 1) if (e - 1) % self.PARAMS.j2)

    @pytest.mark.parametrize("source", ["pq", "hy-production", "hy-tiny"])
    @pytest.mark.parametrize("with_cursor", [False, True], ids=["anchors", "cursor"])
    def test_a_run_is_its_epochs_openings_at_the_walk_plus_2_per_index(self, source,
                                                                       with_cursor):
        params = self.PARAMS
        t, k = params.t, params.k
        material = self.material(source)
        rng = random.Random(62)
        # one epoch, 16 from the start, 16 across the edge at 17, 16 from an
        # edge, the last epoch, then random runs
        runs = [(1, 1), (1, 16), (10, 16), (17, 16), (64, 1)]
        while len(runs) < 12:
            n = rng.randint(1, 16)
            runs.append((rng.randint(1, params.epochs - n + 1), n))
        cursor = {} if with_cursor else None
        for first, n in runs:
            indices = [rng.randrange(t) for _ in range(n * k)]
            indices[0], indices[1], indices[-1] = 0, t - 1, t - 1  # both ends, a duplicate
            expected = b"".join(
                opened_images((chain_seed(material, ID_A, first + m),),
                              indices[m * k : (m + 1) * k], t)
                for m in range(n))
            known = cursor[ID_A][0] if cursor else None
            h0, h1 = self.walk(first, first + n - 1, known)
            before = counters.snapshot()
            opening = pq.open_commitment(material, ID_A, first, tuple(indices), cursor)
            after = counters.snapshot()
            assert opening == pq.PqOpening(ID_A, first, expected)
            assert [b - a for a, b in zip(before, after)] == [h0, h1 + n * k, n * k]

    @pytest.mark.parametrize("with_cursor", [False, True], ids=["anchors", "cursor"])
    def test_bad_indices_are_refused_before_any_hashing(self, with_cursor):
        params = self.PARAMS
        material = self.material("pq")
        cursor = {} if with_cursor else None
        if with_cursor:
            pq.open_commitment(material, ID_A, 5, tuple(range(params.k)), cursor)
        kept = dict(cursor or {})
        good = tuple(range(16 * params.k))  # a run of 16 epochs
        before = counters.snapshot()
        # the bad index is in the last epoch of the run
        for indices in (good[:-1] + (-1,), good[:-1] + (params.t,), good[:-1], good + (0,)):
            with pytest.raises(ValueError):
                pq.open_commitment(material, ID_A, 6, indices, cursor)
        assert counters.snapshot() == before
        assert (cursor or {}) == kept

