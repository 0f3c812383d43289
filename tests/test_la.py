import hashlib
import random

import pytest

from hases import cco, la
from hases.errors import EpochExhausted, EpochOutOfRange, UnknownSigner
from conftest import curve_point
from hases.group import production_group, small_test_group
from hases.hashing import counters, domain_hash, encode_index, hash_to_scalar

ID_A = bytes([0x0A]) * 16
ID_B = bytes([0x0B]) * 16

# found by search: H0(msk || b'A'*16) mod 11 == 3  ->  Y = 2^3 mod 23 = 8
TRACE_MSK = bytes.fromhex("fe5c7783c5ec0143c4d33289801ba4c5d312988ec49e7d8486a18d0557facef4")
TRACE_ID = b"A" * 16


def fixed_rng(seed: int):
    rng = random.Random(seed)
    return lambda n: rng.randbytes(n)


def tiny_setup(max_batches=8, batch_size=3, seed=1):
    group = small_test_group()
    states, public, material = la.keygen([ID_A], group, max_batches, batch_size, fixed_rng(seed))
    return group, states[ID_A], public[ID_A], material


def dlog(group, element):
    candidate = group.identity
    for exponent in range(group.q):
        if candidate == element:
            return exponent
        candidate = group.mul(candidate, group.generator)
    raise AssertionError("not in subgroup")


def brute_force_check(group, public_key, commitment, messages, signature):
    """Independent verification oracle: compare discrete logarithms.

    Recovers dlog(R) and dlog(Y) by exhaustive search and checks the
    exponent identity  dlog(R) == dlog(Y)*sum(e) + sum(s)  (mod q).
    """
    if signature.signer_id != commitment.signer_id:
        return False
    if signature.epoch != commitment.epoch or len(messages) != commitment.batch_size:
        return False
    e = challenge_sum(group, messages, signature.seed)
    lhs = dlog(group, group.decode_element(commitment.r_bytes))
    rhs = (dlog(group, group.decode_element(public_key)) * e + signature.agg) % group.q
    return lhs == rhs


def challenge_sum(group, messages, seed):
    """The batch's challenge sum, recomputed from the hash domains."""
    total = 0
    for item, message in enumerate(messages, start=1):
        item_seed = domain_hash(0, seed + encode_index(item))
        total = (total + hash_to_scalar(2, message + item_seed, group.q)) % group.q
    return total


class TestHandTrace:
    """Tiny-group numbers small enough to check on paper."""

    def test_response_and_verification_identity(self):
        # y=3, nonce r=5, challenge e=4: s = 5 - 4*3 mod 11 = 4
        group = small_test_group()
        y, r, e = 3, 5, 4
        s = (r - e * y) % group.q
        assert s == 4
        Y = group.exp(group.generator, y)
        assert Y == 8
        R = group.exp(group.generator, r)
        assert R == 9  # 2^5 = 32 mod 23
        # Y^e * alpha^s = 8^4 * 2^4 = 2 * 16 = 32 mod 23 = 9 = R
        assert group.mul(group.exp(Y, e), group.exp(group.generator, s)) == R

    def test_keygen_frozen_master_key(self):
        group = small_test_group()
        states, public, _ = la.keygen(
            [TRACE_ID], group, 4, 1, lambda n: TRACE_MSK[:n]
        )
        assert states[TRACE_ID].key == 3
        assert public[TRACE_ID] == group.encode_element(8)

    def test_identity_holds_per_message_and_aggregated(self):
        # alpha^r == Y^e * alpha^s whenever s = r - e*y, itemwise and summed
        group = small_test_group()
        rng = random.Random(42)
        for _ in range(20):
            y = rng.randrange(1, 11)
            Y = group.exp(group.generator, y)
            nonces = [rng.randrange(1, 11) for _ in range(4)]
            challenges = [rng.randrange(1, 11) for _ in range(4)]
            responses = [
                (r - e * y) % group.q
                for r, e in zip(nonces, challenges)
            ]
            for r, e, s in zip(nonces, challenges, responses):
                assert group.exp(group.generator, r) == group.mul(
                    group.exp(Y, e), group.exp(group.generator, s)
                )
            r_sum = sum(nonces) % group.q
            e_sum = sum(challenges) % group.q
            s_sum = la.aggregate(responses, group.q)
            assert group.exp(group.generator, r_sum) == group.mul(
                group.exp(Y, e_sum), group.exp(group.generator, s_sum)
            )


class TestKeygen:
    def test_same_master_key_distinct_ids_independent(self):
        # production order: distinct ids collide only with ~2^-252 probability
        group = production_group()
        states, public, _ = la.keygen([ID_A, ID_B], group, 4, 2, fixed_rng(40))
        assert states[ID_A].key != states[ID_B].key

    def test_public_key_in_subgroup(self):
        group = production_group()
        states, public, _ = la.keygen([ID_A], group, 4, 2, fixed_rng(41))
        # decode_element accepts only subgroup elements
        Y = group.decode_element(public[ID_A])
        assert Y == group.exp(group.generator, states[ID_A].key)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            la.keygen([ID_A, ID_A], small_test_group(), 4, 2)


class TestAggregate:
    def test_hand_sum(self):
        assert la.aggregate([4, 9, 5], 11) == 7

    def test_singleton(self):
        assert la.aggregate([6], 11) == 6

    def test_order_independence(self):
        parts = [3, 7, 10, 2]
        rng = random.Random(2)
        for _ in range(5):
            rng.shuffle(parts)
            assert la.aggregate(parts, 11) == 22 % 11

    def test_rejects_non_canonical(self):
        with pytest.raises(ValueError):
            la.aggregate([11], 11)


def oracle_scalar(domain, data, q):
    """(scalar, hash calls) of ``hash_to_scalar``'s rule, from hashlib alone."""
    prefix = bytes((domain,))
    value, calls = int.from_bytes(hashlib.sha256(prefix + data).digest(), "big") % q, 1
    while value == 0:
        value = int.from_bytes(hashlib.sha256(prefix + data + bytes((calls - 1,))).digest(), "big") % q
        calls += 1
    return value, calls


def oracle_sign(q, key, epoch, batch, retried):
    """(aggregate, public seed, per-domain hash calls) of ``sign_batch``,
    from hashlib alone; ``retried`` counts the retried nonces and challenges."""
    head = key.to_bytes(32, "big") + encode_index(epoch)
    public_seed = hashlib.sha256(b"\x00" + head).digest()
    nonce_seed = hashlib.sha256(b"\x01" + head).digest()
    calls = [1 + len(batch), 1, 0]
    total = 0
    for item, message in enumerate(batch, start=1):
        item_seed = hashlib.sha256(b"\x00" + public_seed + encode_index(item)).digest()
        nonce, nonce_calls = oracle_scalar(1, nonce_seed + encode_index(item), q)
        challenge, challenge_calls = oracle_scalar(2, message + item_seed, q)
        retried["nonce"] += nonce_calls > 1
        retried["challenge"] += challenge_calls > 1
        calls[1] += nonce_calls
        calls[2] += challenge_calls
        total = (total + nonce - challenge * key) % q
    return total, public_seed, tuple(calls)


class TestSign:
    def test_deterministic(self):
        _, state_a, _, _ = tiny_setup(seed=3)
        _, state_b, _, _ = tiny_setup(seed=3)
        batch = [b"one", b"two", b"three"]
        assert la.sign_batch(state_a, batch).to_bytes() == la.sign_batch(state_b, batch).to_bytes()

    def test_aggregate_equals_sum_of_parts(self):
        group, state, _, _ = tiny_setup(seed=4)
        batch = [b"m1", b"m2", b"m3"]
        y, epoch = state.key, state.epoch
        signature = la.sign_batch(state, batch)
        # recompute the per-item responses independently
        key_bytes = y.to_bytes(32, "big")
        public_seed = domain_hash(0, key_bytes + encode_index(epoch))
        nonce_seed = domain_hash(1, key_bytes + encode_index(epoch))
        parts = []
        for item, message in enumerate(batch, start=1):
            item_seed = domain_hash(0, public_seed + encode_index(item))
            nonce = hash_to_scalar(1, nonce_seed + encode_index(item), group.q)
            challenge = hash_to_scalar(2, message + item_seed, group.q)
            parts.append((nonce - challenge * y) % group.q)
        assert signature.agg == la.aggregate(parts, group.q)
        assert signature.seed == public_seed

    def test_retried_nonces_and_challenges_match_the_composition(self):
        # over q = 11 about one nonce or challenge in eleven reduces to zero
        # and is retried with one more counted call, as hash_to_scalar does
        group, state, public, material = tiny_setup(max_batches=40, batch_size=4, seed=14)
        tables = group.precompute(public)
        retried = {"nonce": 0, "challenge": 0}
        for epoch in range(1, 41):
            batch = [b"retry %d.%d" % (epoch, item) for item in range(4)]
            oracle_agg, oracle_seed, calls = oracle_sign(group.q, state.key, epoch, batch, retried)
            counters.reset()
            signature = la.sign_batch(state, batch)
            assert (signature.agg, signature.seed) == (oracle_agg, oracle_seed)
            assert counters.snapshot() == calls
            commitment = la.construct_commitment(material, ID_A, epoch)
            counters.reset()
            assert la.verify_batch(tables, commitment, batch, signature, group)
            # the verifier repeats the item seeds and the challenges
            assert counters.snapshot() == (4, 0, calls[2])
        assert retried["nonce"] and retried["challenge"]

    def test_epoch_recorded_before_increment(self):
        _, state, _, _ = tiny_setup(seed=5)
        signature = la.sign_batch(state, [b"a", b"b", b"c"])
        assert signature.epoch == 1
        assert state.epoch == 2

    def test_wrong_batch_length(self):
        _, state, _, _ = tiny_setup(seed=6)
        with pytest.raises(ValueError):
            la.sign_batch(state, [b"only", b"two"])

    def test_counter_exhaustion(self):
        _, state, _, _ = tiny_setup(max_batches=2, seed=7)
        la.sign_batch(state, [b"a", b"b", b"c"])
        la.sign_batch(state, [b"a", b"b", b"c"])
        with pytest.raises(EpochExhausted):
            la.sign_batch(state, [b"a", b"b", b"c"])


class TestCommitmentConstruction:
    def test_matches_product_of_item_commitments(self):
        group, state, _, material = tiny_setup(seed=8)
        commitment = la.construct_commitment(material, ID_A, 1)
        key_bytes = state.key.to_bytes(32, "big")
        nonce_seed = domain_hash(1, key_bytes + encode_index(1))
        product = group.identity
        for item in range(1, 4):
            nonce = hash_to_scalar(1, nonce_seed + encode_index(item), group.q)
            product = group.mul(product, group.exp(group.generator, nonce))
        assert commitment.r_bytes == group.encode_element(product)

    def test_store_and_signer_derive_same_nonces(self):
        group, state, public, material = tiny_setup(seed=9)
        for epoch in range(1, 5):
            batch = [b"x%d" % epoch, b"y", b"z"]
            commitment = la.construct_commitment(material, ID_A, epoch)
            signature = la.sign_batch(state, batch)
            assert la.verify_batch(group.precompute(public), commitment, batch, signature, group)

    @pytest.mark.parametrize("batch_size", [1, 8])
    def test_commitment_from_key_costs_l_plus_1_hashes(self, batch_size):
        group = production_group()
        y = hash_to_scalar(0, b"commitment hash count", group.q)
        counters.reset()
        commitment = la.commitment_from_key(y, ID_A, 3, batch_size, group)
        # the nonce seed, then one nonce per item; the public seed is not derived
        assert counters.snapshot() == (0, batch_size + 1, 0)
        nonce_seed = domain_hash(1, y.to_bytes(32, "big") + encode_index(3))
        total = sum(hash_to_scalar(1, nonce_seed + encode_index(item), group.q)
                    for item in range(1, batch_size + 1))
        assert commitment.r_bytes == group.encode_element(group.exp(group.generator, total))

    def test_unknown_id(self):
        _, _, _, material = tiny_setup(seed=10)
        with pytest.raises(UnknownSigner):
            la.construct_commitment(material, ID_B, 1)

    def test_epoch_range(self):
        _, _, _, material = tiny_setup(max_batches=4, seed=11)
        with pytest.raises(EpochOutOfRange):
            la.construct_commitment(material, ID_A, 5)


def test_two_tags_at_one_epoch_reveal_the_private_scalar():
    """Why a signer key file is locked while it signs: two copies of one
    key that sign at the same epoch use the same nonces, so anyone holding
    both tags solves y = (agg_1 - agg_2) / (E_2 - E_1) mod q, E being the
    challenge sum each tag's messages and public seed give."""
    group = production_group()
    states, public, _ = la.keygen([ID_A], group, 8, 4, fixed_rng(41))
    state = states[ID_A]
    # restored from a backup, or a second signer
    copy = la.LaSignerState(state.signer_id, state.key, state.epoch, state.params)
    first = [b"first %d" % n for n in range(4)]
    second = [b"second %d" % n for n in range(4)]
    tag_1, tag_2 = la.sign_batch(state, first), la.sign_batch(copy, second)
    assert tag_1.epoch == tag_2.epoch == 1
    e_1 = la.challenge_sum(first, tag_1, group.q)
    e_2 = la.challenge_sum(second, tag_2, group.q)
    y = (tag_1.agg - tag_2.agg) * pow(e_2 - e_1, -1, group.q) % group.q
    assert y == state.key
    assert group.encode_element(group.exp(group.generator, y)) == public[ID_A]


class TestKeyTables:
    def test_rejected_key_is_checked_once(self, monkeypatch):
        group = production_group()
        _, public, _ = la.keygen([ID_A, ID_B], group, 4, 2, fixed_rng(40))
        # ID_B's key moved by the order-2 point (0, p-1): outside the subgroup
        moved = group.mul(group.decode_element(public[ID_B]), (0, group.p - 1))
        keys = {ID_A: public[ID_A], ID_B: group.encode_element(moved)}
        calls = []
        original = type(group).precompute
        monkeypatch.setattr(
            type(group), "precompute", lambda self, key: calls.append(key) or original(self, key)
        )
        tables = la.KeyTables(keys, group)
        for _ in range(3):
            with pytest.raises(ValueError):
                tables[ID_B]
            assert tables[ID_A] is tables[ID_A]
        assert calls == [keys[ID_B], keys[ID_A]]

    def test_range_matches_single_commitments(self):
        group, _, _, material = tiny_setup(max_batches=8)
        store = cco.CcoStore(material)
        singles = [la.construct_commitment(material, ID_A, e) for e in range(2, 7)]
        assert store.batch_export(cco.MSG_LA, ID_A, 2, 6) == [single.to_bytes() for single in singles]
        counters.reset()
        for lo, hi in ((0, 2), (5, 4), (7, 9)):
            with pytest.raises(EpochOutOfRange):
                store.batch_export(cco.MSG_LA, ID_A, lo, hi)
        with pytest.raises(UnknownSigner):
            store.batch_export(cco.MSG_LA, ID_B, 1, 1)
        assert counters.total() == 0


class TestVerify:
    def test_honest_production_group(self):
        group = production_group()
        states, public, material = la.keygen([ID_A], group, 4, 2, fixed_rng(12))
        batch = [b"first payload", b"second payload"]
        signature = la.sign_batch(states[ID_A], batch)
        commitment = la.construct_commitment(material, ID_A, 1)
        assert la.verify_batch(group.precompute(public[ID_A]), commitment, batch, signature, group)

    def test_message_replacement_rejected(self):
        # production group: in the tiny oracle group a replaced message
        # collides with the old challenge sum with probability ~1/q
        group = production_group()
        states, public, material = la.keygen([ID_A], group, 2, 3, fixed_rng(13))
        batch = [b"aaa", b"bbb", b"ccc"]
        signature = la.sign_batch(states[ID_A], batch)
        commitment = la.construct_commitment(material, ID_A, 1)
        key_table = group.precompute(public[ID_A])
        for index in range(3):
            tampered = list(batch)
            tampered[index] = b"EVIL"
            assert not la.verify_batch(key_table, commitment, tampered, signature, group)

    def test_tampered_commitment_or_response_rejected(self):
        group = production_group()
        states, public, material = la.keygen([ID_A], group, 4, 2, fixed_rng(21))
        batch = [b"first payload", b"second payload"]
        signature = la.sign_batch(states[ID_A], batch)
        commitment = la.construct_commitment(material, ID_A, 1)
        key_table = group.precompute(public[ID_A])
        R = group.decode_element(commitment.r_bytes)
        moved = commitment._replace(r_bytes=group.encode_element(group.mul(R, group.generator)))
        bumped = signature._replace(agg=(signature.agg + 1) % group.q)
        assert la.verify_batch(key_table, commitment, batch, signature, group)
        assert not la.verify_batch(key_table, moved, batch, signature, group)
        assert not la.verify_batch(key_table, commitment, batch, bumped, group)

    def test_only_the_canonical_encoding_of_the_expected_r_passes(self, small_order_points):
        group = production_group()
        states, public, material = la.keygen([ID_A], group, 4, 2, fixed_rng(22))
        batch = [b"first payload", b"second payload"]
        signature = la.sign_batch(states[ID_A], batch)
        commitment = la.construct_commitment(material, ID_A, 1)
        key_table = group.precompute(public[ID_A])
        assert la.verify_batch(key_table, commitment, batch, signature, group)

        def passes(r_bytes, signature=signature):
            return la.verify_batch(
                key_table, commitment._replace(r_bytes=r_bytes), batch, signature, group
            )

        # the honest R with its sign bit flipped, R plus each small-order
        # point, and a y with no curve point
        R = group.decode_element(commitment.r_bytes)
        flipped = commitment.r_bytes[:31] + bytes((commitment.r_bytes[31] ^ 0x80,))
        off_curve = next(y for y in range(2, 100) if curve_point(y) is None)
        assert not passes(flipped)
        assert not passes(off_curve.to_bytes(32, "little"))
        for point in small_order_points[1:]:
            assert not passes(group.encode_element(group.mul(R, point)))
        # a response that makes Y^e * g^s the identity: only the identity's
        # canonical encoding passes, not y + p nor x = 0 with the sign bit
        e = challenge_sum(group, batch, signature.seed)
        to_identity = signature._replace(agg=-e * states[ID_A].key % group.q)
        assert passes(group.encode_element(group.identity), to_identity)
        for raw in (group.p + 1, 1 | 1 << 255):
            assert not passes(raw.to_bytes(32, "little"), to_identity)

    def test_truncation_rejected(self):
        group, state, public, material = tiny_setup(seed=14)
        batch = [b"aaa", b"bbb", b"ccc"]
        signature = la.sign_batch(state, batch)
        commitment = la.construct_commitment(material, ID_A, 1)
        key_table = group.precompute(public)
        assert not la.verify_batch(key_table, commitment, batch[:2], signature, group)

    def test_epoch_mismatch_rejected(self):
        group, state, public, material = tiny_setup(seed=15)
        batch = [b"aaa", b"bbb", b"ccc"]
        signature = la.sign_batch(state, batch)
        commitment = la.construct_commitment(material, ID_A, 2)
        assert not la.verify_batch(group.precompute(public), commitment, batch, signature, group)

    def test_agreement_with_dlog_oracle(self):
        group, state, public, material = tiny_setup(max_batches=6, seed=16)
        key_table = group.precompute(public)
        rng = random.Random(17)
        for epoch in range(1, 7):
            batch = [rng.randbytes(4) for _ in range(3)]
            signature = la.sign_batch(state, batch)
            commitment = la.construct_commitment(material, ID_A, epoch)
            assert la.verify_batch(key_table, commitment, batch, signature, group)
            assert brute_force_check(group, public, commitment, batch, signature)
            # a tampered response must be rejected by both paths
            bad = la.LaSignature(ID_A, epoch, (signature.agg + 1) % group.q, signature.seed)
            assert not la.verify_batch(key_table, commitment, batch, bad, group)
            assert not brute_force_check(group, public, commitment, batch, bad)


class TestSerialization:
    def test_signature_round_trip_and_size(self):
        group, state, _, _ = tiny_setup(seed=18)
        signature = la.sign_batch(state, [b"a", b"b", b"c"])
        blob = signature.to_bytes()
        assert len(blob) == 89  # 25-byte header + 64-byte payload
        assert la.LaSignature.from_bytes(blob, group) == signature

    def test_commitment_round_trip_and_size(self):
        group, _, _, material = tiny_setup(seed=19)
        commitment = la.construct_commitment(material, ID_A, 1)
        blob = commitment.to_bytes()
        assert len(blob) == 61
        assert la.LaCommitment.from_bytes(blob) == commitment

    def test_non_canonical_scalar_rejected(self):
        group, state, _, _ = tiny_setup(seed=20)
        blob = bytearray(la.sign_batch(state, [b"a", b"b", b"c"]).to_bytes())
        blob[25:57] = b"\xff" * 32
        with pytest.raises(ValueError):
            la.LaSignature.from_bytes(bytes(blob), group)
