import hashlib
import random

import pytest

from hases import hy, la, pq
from hases.errors import EpochDesync
from conftest import curve_point
from hases.group import production_group, small_test_group
from hases.hashing import counters

ID_A = bytes([0x1A]) * 16
PQ_TOY = pq.PqParams(t=8, k=4, j1=2, j2=4)
PQ_PROD = pq.PqParams(t=1024, k=16, j1=2, j2=4)


def fixed_rng(seed: int):
    rng = random.Random(seed)
    return lambda n: rng.randbytes(n)


def setup(group=None, batch_size=4, params=PQ_TOY, seed=1):
    group = group or small_test_group()
    states, public, material = hy.keygen([ID_A], group, batch_size, params, fixed_rng(seed))
    return group, states[ID_A], public[ID_A], material


def commitment_for(material, signer_id, epoch):
    return hy.HyCommitment(
        la.construct_commitment(material.la, signer_id, epoch),
        pq.construct_commitment(material.pq, signer_id, epoch),
    )


class TestNest:
    def test_single_message_base_case(self):
        digest = hashlib.sha256(b"\x00" + b"only").digest()
        assert hy.nest([b"only"]) == [digest]

    def test_recurrence_against_oracle(self):
        batch = [b"alpha", b"beta", b"gamma"]
        sha = lambda b: hashlib.sha256(b"\x00" + b).digest()
        n1 = sha(batch[0])
        n2 = sha(batch[1] + sha(n1))
        n3 = sha(batch[2] + sha(n2))
        assert hy.nest(batch) == [n1, n2, n3]

    def test_first_message_avalanches_to_last_digest(self):
        base = hy.nest([b"a", b"b", b"c"])
        changed = hy.nest([b"A", b"b", b"c"])
        assert base[-1] != changed[-1]
        assert all(x != y for x, y in zip(base, changed))

    def test_order_sensitivity(self):
        assert hy.nest([b"a", b"b"])[-1] != hy.nest([b"b", b"a"])[-1]

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            hy.nest([])


class TestKeygen:
    def test_components_share_ids_and_epoch_budget(self):
        _, state, _, material = setup()
        assert state.la.signer_id == state.pq.signer_id == ID_A
        assert state.la.params.max_batches == state.pq.params.epochs == 8
        assert ID_A in material.la.signer_ids
        assert ID_A in material.pq.anchors

    def test_lockstep_from_start(self):
        _, state, _, _ = setup()
        assert state.epoch == 1


class TestSign:
    def test_inner_message_is_64_bytes(self):
        assert len(hy.inner_message(5, bytes(32))) == 64

    def test_components_advance_together(self):
        _, state, _, _ = setup(seed=2)
        batch = [b"1", b"2", b"3", b"4"]
        for expected_epoch in range(1, 4):
            signature = hy.sign_batch(state, batch)
            assert signature.la.epoch == signature.pq.epoch == expected_epoch
        assert state.la.epoch == state.pq.epoch == 4

    def test_pq_layer_signs_agg_and_last_digest(self):
        group, state, public, material = setup(seed=3)
        batch = [b"1", b"2", b"3", b"4"]
        signature = hy.sign_batch(state, batch)
        digests = hy.nest(batch)
        inner = hy.inner_message(signature.la.agg, digests[-1])
        commitment = pq.construct_commitment(material.pq, ID_A, 1)
        assert pq.verify(commitment, inner, signature.pq, PQ_TOY)

    def test_la_layer_signs_nested_digests_not_raw(self):
        group, state, public, material = setup(seed=4)
        batch = [b"1", b"2", b"3", b"4"]
        signature = hy.sign_batch(state, batch)
        commitment = la.construct_commitment(material.la, ID_A, 1)
        key_table = group.precompute(public)
        assert la.verify_batch(key_table, commitment, hy.nest(batch), signature.la, group)
        assert not la.verify_batch(key_table, commitment, batch, signature.la, group)

    def test_signing_cost_is_component_sum(self):
        batch = [b"1", b"2", b"3", b"4"]
        _, state_a, _, _ = setup(params=PQ_PROD, seed=30)
        _, state_b, _, _ = setup(params=PQ_PROD, seed=30)  # identical twin

        counters.reset()
        digests = hy.nest(batch)
        nest_cost = counters.total()

        counters.reset()
        la.sign_batch(state_a.la, digests)
        la_cost = counters.total()

        counters.reset()
        hy.sign_batch(state_b, batch)
        total = counters.total()

        assert total == nest_cost + la_cost + 18  # wrapper layer adds 1+k+1

    def test_desync_fails_before_signing(self):
        _, state, _, _ = setup(seed=5)
        pq.advance_key(state.pq)  # desynchronize on purpose
        pq_epoch_before = state.pq.epoch
        with pytest.raises(EpochDesync):
            hy.sign_batch(state, [b"1", b"2", b"3", b"4"])
        assert state.pq.epoch == pq_epoch_before  # nothing advanced


class TestVerify:
    def setup_method(self):
        self.group, self.state, self.public, self.material = setup(
            production_group(), params=PQ_PROD, seed=6
        )
        self.batch = [b"one", b"two", b"three", b"four"]
        self.signature = hy.sign_batch(self.state, self.batch)
        self.commitment = commitment_for(self.material, ID_A, 1)
        self.key_table = self.group.precompute(self.public)

    def verify(self, batch=None, signature=None, commitment=None):
        return hy.verify_batch(
            self.key_table,
            commitment or self.commitment,
            batch or self.batch,
            signature or self.signature,
            self.group,
            PQ_PROD,
        )

    def test_honest_accepts(self):
        assert self.verify()

    def test_r_rejected_unless_the_canonical_encoding_of_the_expected_r(
        self, small_order_points
    ):
        group = self.group
        la_commitment = self.commitment.la

        def passes(r_bytes):
            moved = la_commitment._replace(r_bytes=r_bytes)
            return self.verify(commitment=hy.HyCommitment(moved, self.commitment.pq))

        assert passes(la_commitment.r_bytes)
        R = group.decode_element(la_commitment.r_bytes)
        sign = 1 << 255
        off_curve = next(y for y in range(2, 100) if curve_point(y) is None)
        bad = [
            la_commitment.r_bytes[:31] + bytes((la_commitment.r_bytes[31] ^ 0x80,)),
            off_curve.to_bytes(32, "little"),
            (group.p + 1).to_bytes(32, "little"),  # y >= p
            (1 | sign).to_bytes(32, "little"),  # x = 0 with the sign bit set
        ]
        bad += [group.encode_element(group.mul(R, point)) for point in small_order_points[1:]]
        for r_bytes in bad:
            assert not passes(r_bytes)

    def test_aggregate_only_tamper_rejected(self):
        # flip the per-batch seed: the aggregate check fails while the
        # wrapped layer (which binds agg and digest, not the seed) still
        # passes; the conjunction must reject
        bad_la = la.LaSignature(
            ID_A,
            self.signature.la.epoch,
            self.signature.la.agg,
            bytes(32),
        )
        tampered = hy.HySignature(bad_la, self.signature.pq)
        digests = hy.nest(self.batch)
        assert pq.verify(
            self.commitment.pq,
            hy.inner_message(tampered.la.agg, digests[-1]),
            tampered.pq,
            PQ_PROD,
        )
        assert not self.verify(signature=tampered)

    def test_wrapper_only_tamper_rejected(self):
        body = bytes(32) + self.signature.pq.body[32:]
        tampered = hy.HySignature(
            self.signature.la, pq.PqSignature(ID_A, self.signature.pq.epoch, body)
        )
        digests = hy.nest(self.batch)
        assert la.verify_batch(
            self.key_table, self.commitment.la, digests, tampered.la, self.group
        )
        assert not self.verify(signature=tampered)

    def test_batch_permutation_rejected(self):
        permuted = [self.batch[1], self.batch[0]] + self.batch[2:]
        assert not self.verify(batch=permuted)

    def test_response_tamper_breaks_both_layers(self):
        bad_la = la.LaSignature(
            ID_A,
            self.signature.la.epoch,
            (self.signature.la.agg + 1) % self.group.q,
            self.signature.la.seed,
        )
        digests = hy.nest(self.batch)
        assert not la.verify_batch(
            self.key_table, self.commitment.la, digests, bad_la, self.group
        )
        assert not pq.verify(
            self.commitment.pq,
            hy.inner_message(bad_la.agg, digests[-1]),
            self.signature.pq,
            PQ_PROD,
        )

    def test_tampered_commitment_or_response_rejected(self):
        group = self.group
        la_commitment = self.commitment.la
        R = group.decode_element(la_commitment.r_bytes)
        moved = la_commitment._replace(r_bytes=group.encode_element(group.mul(R, group.generator)))
        bumped = self.signature.la._replace(agg=(self.signature.la.agg + 1) % group.q)
        assert not self.verify(commitment=hy.HyCommitment(moved, self.commitment.pq))
        assert not self.verify(signature=hy.HySignature(bumped, self.signature.pq))

    def test_binding_wrapped_layer_rejects_different_last_digest(self):
        # replaying the aggregate tag over a different raw batch yields a
        # different holistic digest; the wrapped layer alone must reject
        other = [b"one", b"two", b"three", b"FOUR"]
        digests = hy.nest(other)
        assert digests[-1] != hy.nest(self.batch)[-1]
        assert not pq.verify(
            self.commitment.pq,
            hy.inner_message(self.signature.la.agg, digests[-1]),
            self.signature.pq,
            PQ_PROD,
        )


class TestSerialization:
    def test_signature_round_trip_and_layout(self):
        group, state, _, _ = setup(seed=7)
        signature = hy.sign_batch(state, [b"1", b"2", b"3", b"4"])
        blob = signature.to_bytes()
        # shared 25-byte header + 64-byte aggregate payload + k digests
        assert len(blob) == 25 + 64 + PQ_TOY.k * 32
        assert hy.HySignature.from_bytes(blob, group) == signature

    def test_commitment_round_trip(self):
        group, state, _, material = setup(seed=8)
        commitment = commitment_for(material, ID_A, 2)
        blob = commitment.to_bytes()
        assert len(blob) == 25 + 4 + 32 + PQ_TOY.t * 32
        assert hy.HyCommitment.from_bytes(blob) == commitment

    def test_component_mismatch_rejected(self):
        _, state, _, _ = setup(seed=9)
        signature = hy.sign_batch(state, [b"1", b"2", b"3", b"4"])
        with pytest.raises(ValueError):
            hy.HySignature(
                signature.la,
                pq.PqSignature(ID_A, signature.pq.epoch + 1, signature.pq.body),
            )


class TestOpening:
    """A hy unit is checked against its aggregate commitment and the
    opening of its pq commitment at the indices the signature opens,
    which the service serves as for a pq unit (request 0x05)."""

    def setup_method(self):
        self.group, self.state, self.public, self.material = setup(
            production_group(), params=PQ_PROD, seed=10
        )
        self.batch = [b"one", b"two", b"three", b"four"]
        self.signature = hy.sign_batch(self.state, self.batch)
        self.key_table = self.group.precompute(self.public)
        self.derived = hy.opened(self.batch, self.signature, PQ_PROD)

    def opening(self, epoch=1, indices=None):
        indices = self.derived.indices if indices is None else indices
        return pq.open_commitment(self.material.pq, ID_A, epoch, indices)

    def test_opened_derives_what_verify_derives(self):
        nested = hy.nest(self.batch)
        inner = hy.inner_message(self.signature.la.agg, nested[-1])
        assert self.derived == (nested, pq.message_indices(inner, PQ_PROD))

    def test_opening_is_the_sliced_commitment(self):
        indices = self.derived.indices
        full = commitment_for(self.material, ID_A, 1)
        assert self.opening() == full.pq.open(indices, PQ_PROD)
        assert self.opening().body == b"".join(full.pq.body[32 * x : 32 * x + 32] for x in indices)

    def test_verify_accepts_the_opening_as_the_full_commitment(self):
        # the two layers, each checked on its own against the aggregate
        # commitment and the opening, agree with ``verify_batch`` on the
        # full commitment
        full = commitment_for(self.material, ID_A, 1)

        def layers_valid(batch, signature):
            nested, indices = hy.opened(batch, signature, PQ_PROD)
            inner = hy.inner_message(signature.la.agg, nested[-1])
            return (la.verify_batch(self.key_table, full.la, nested, signature.la, self.group)
                    and pq.verify(self.opening(indices=indices), inner, signature.pq, PQ_PROD,
                                  indices))

        tampered = hy.HySignature(self.signature.la._replace(seed=bytes(32)), self.signature.pq)
        other = [b"one", b"two", b"three", b"five"]  # opens other indices
        for batch, signature, valid in ((self.batch, self.signature, True),
                                        (self.batch, tampered, False),
                                        (other, self.signature, False)):
            assert hy.verify_batch(self.key_table, full, batch, signature, self.group,
                                   PQ_PROD) is valid
            assert layers_valid(batch, signature) is valid

    def test_round_trip_and_layout(self):
        opening = self.opening(epoch=3)
        blob = opening.to_bytes()
        # the pq header, then the k entries: the aggregate part is not in it
        assert len(blob) == pq.HEADER_LEN + PQ_PROD.k * 32 == 537
        assert pq.PqOpening.from_bytes(blob) == opening
        for bad in (blob[:-1], blob[1:], blob[: pq.HEADER_LEN]):
            with pytest.raises(ValueError):
                pq.PqOpening.from_bytes(bad)
        # one entry too many parses, but is not an opening at the indices
        with pytest.raises(ValueError):
            pq.PqOpening.from_bytes(blob + bytes(32)).open(self.derived.indices, PQ_PROD)

    def test_bad_indices_refused_before_any_work(self):
        counters.reset()
        for indices in ((), (0,) * (PQ_PROD.k + 1), (PQ_PROD.t,) * PQ_PROD.k):
            with pytest.raises(ValueError):
                self.opening(indices=indices)
        assert counters.total() == 0
