"""Acceptance suite.

One test per criterion; each prints a single ``criterion N: PASS/FAIL``
line (visible with ``pytest -s`` or in captured output).  Tolerances
are pinned in the assertions, nothing is deferred to calibration.
"""

import itertools
import random
import time

from hases import cco, hy, la, pq, transport
from hases.errors import CcoRequestError
from hases.group import production_group, small_test_group
from hases.hashing import counters, domain_hash, encode_index, hash_to_scalar, iter_hash

from conftest import anchored_for

PROD_PQ = pq.PqParams(t=1024, k=16, j1=4, j2=4)  # t, k per the target profile


def report(number: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def random_id(rng: random.Random) -> bytes:
    return rng.randbytes(16)


def pq_state_at_epoch(material: pq.PqKeyMaterial, signer_id: bytes, epoch: int) -> pq.PqSignerState:
    """Signer state fast-forwarded to an arbitrary epoch (chain identity)."""
    sk1 = pq.initial_seed(material.msk, signer_id)
    return pq.PqSignerState(
        signer_id, bytearray(iter_hash(1, sk1, epoch - 1)), epoch, material.params
    )


# --- criterion 1: completeness, 1000 randomized trials per scheme ------------


def test_criterion_1_completeness_randomized_trials():
    rng = random.Random(0xC1)
    group = production_group()
    batch_sizes = (1, 8, 64)
    trials = 1000
    started = time.perf_counter()

    failures = 0
    for trial in range(trials):
        signer = random_id(rng)
        _, material = pq.keygen([signer], PROD_PQ, rng.randbytes)
        epoch = rng.randrange(1, PROD_PQ.epochs + 1)
        state = pq_state_at_epoch(material, signer, epoch)
        message = rng.randbytes(rng.randrange(1, 65))
        signature = pq.sign(state, message)
        commitment = pq.construct_commitment(material, signer, epoch)
        failures += not pq.verify(commitment, message, signature, PROD_PQ)

    for trial in range(trials):
        signer = random_id(rng)
        size = batch_sizes[trial % 3]
        states, public, material = la.keygen([signer], group, 64, size, rng.randbytes)
        tables = la.KeyTables(public, group)
        epoch = rng.randrange(1, 65)
        state = la.LaSignerState(signer, states[signer].key, epoch, material.params)
        batch = [rng.randbytes(rng.randrange(1, 33)) for _ in range(size)]
        signature = la.sign_batch(state, batch)
        commitment = la.construct_commitment(material, signer, epoch)
        failures += not la.verify_batch(tables[signer], commitment, batch, signature, group)

    for trial in range(trials):
        signer = random_id(rng)
        size = batch_sizes[trial % 3]
        states, public, material = hy.keygen([signer], group, size, PROD_PQ, rng.randbytes)
        tables = la.KeyTables(public, group)
        epoch = rng.randrange(1, PROD_PQ.epochs + 1)
        state = hy.HySignerState(
            la.LaSignerState(signer, states[signer].la.key, epoch, material.la.params),
            pq_state_at_epoch(material.pq, signer, epoch),
        )
        batch = [rng.randbytes(rng.randrange(1, 33)) for _ in range(size)]
        signature = hy.sign_batch(state, batch)
        commitment = hy.HyCommitment(
            la.construct_commitment(material.la, signer, epoch),
            pq.construct_commitment(material.pq, signer, epoch),
        )
        failures += not hy.verify_batch(
            tables[signer], commitment, batch, signature, group, PROD_PQ
        )

    elapsed = time.perf_counter() - started
    report(
        1,
        failures == 0 and elapsed < 60.0,
        f"3x{trials} randomized sign/verify trials, {failures} failures, {elapsed:.1f}s (< 60s)",
    )


# --- criterion 2: soundness fuzz ------------------------------------------------


def _flip_bit(data: bytes, position: int) -> bytes:
    out = bytearray(data)
    out[position >> 3] ^= 1 << (position & 7)
    return bytes(out)


def _pq_consulted_positions(message: bytes, params: pq.PqParams) -> set[int]:
    """Byte offsets of a serialized commitment that the verifier reads for
    this message: the header plus the k selected entries.  Flips anywhere
    else cannot move the accept decision (the one-time-signature check
    only opens the selected entries)."""
    consulted = set(range(25))
    for index in pq.message_indices(message, params):
        start = 25 + index * 32
        consulted.update(range(start, start + 32))
    return consulted


def test_criterion_2_soundness_bit_flip_fuzz():
    rng = random.Random(0xC2)
    group = production_group()
    wrongful = 0
    trials_per_scheme = 1200  # 400 each over message / signature / commitment

    # forward-secure scheme
    signer = random_id(rng)
    _, material = pq.keygen([signer], PROD_PQ, rng.randbytes)
    message = rng.randbytes(48)
    signature = pq.sign(pq_state_at_epoch(material, signer, 3), message)
    commitment = pq.construct_commitment(material, signer, 3)
    sig_blob, com_blob = signature.to_bytes(), commitment.to_bytes()
    consulted = _pq_consulted_positions(message, PROD_PQ)
    for trial in range(trials_per_scheme):
        target = trial % 3
        if target == 0:
            mutated = _flip_bit(message, rng.randrange(len(message) * 8))
            wrongful += pq.verify(commitment, mutated, signature, PROD_PQ)
        elif target == 1:
            blob = _flip_bit(sig_blob, rng.randrange(len(sig_blob) * 8))
            try:
                wrongful += pq.verify(
                    commitment, message, pq.PqSignature.from_bytes(blob), PROD_PQ
                )
            except ValueError:
                pass  # unparseable: rejected
        else:
            position = rng.randrange(len(com_blob) * 8)
            blob = _flip_bit(com_blob, position)
            try:
                accepted = pq.verify(
                    pq.PqCommitment.from_bytes(blob), message, signature, PROD_PQ
                )
            except ValueError:
                accepted = False
            # an accept is wrongful unless the flip missed every byte the
            # verifier consults for this message
            if accepted and (position >> 3) in consulted:
                wrongful += 1

    # aggregate scheme: every commitment byte is consulted
    signer = random_id(rng)
    states, public, la_material = la.keygen([signer], group, 8, 8, rng.randbytes)
    tables = la.KeyTables(public, group)
    batch = [rng.randbytes(24) for _ in range(8)]
    la_sig = la.sign_batch(states[signer], batch)
    la_com = la.construct_commitment(la_material, signer, 1)
    la_sig_blob = la_sig.to_bytes()
    la_com_blob = la_com.to_bytes()
    for trial in range(trials_per_scheme):
        target = trial % 3
        if target == 0:
            index = rng.randrange(8)
            mutated = list(batch)
            mutated[index] = _flip_bit(batch[index], rng.randrange(len(batch[index]) * 8))
            wrongful += la.verify_batch(tables[signer], la_com, mutated, la_sig, group)
        elif target == 1:
            blob = _flip_bit(la_sig_blob, rng.randrange(len(la_sig_blob) * 8))
            try:
                wrongful += la.verify_batch(
                    tables[signer], la_com, batch, la.LaSignature.from_bytes(blob, group), group
                )
            except ValueError:
                pass
        else:
            blob = _flip_bit(la_com_blob, rng.randrange(len(la_com_blob) * 8))
            try:
                wrongful += la.verify_batch(
                    tables[signer], la.LaCommitment.from_bytes(blob), batch, la_sig, group
                )
            except ValueError:
                pass

    # hybrid scheme
    signer = random_id(rng)
    states, public, hy_material = hy.keygen([signer], group, 4, PROD_PQ, rng.randbytes)
    tables = la.KeyTables(public, group)
    batch = [rng.randbytes(24) for _ in range(4)]
    hy_sig = hy.sign_batch(states[signer], batch)
    hy_com = hy.HyCommitment(
        la.construct_commitment(hy_material.la, signer, 1),
        pq.construct_commitment(hy_material.pq, signer, 1),
    )
    hy_sig_blob = hy_sig.to_bytes()
    hy_com_blob = hy_com.to_bytes()
    hy_consulted = set(range(61)) | {
        61 + index * 32 + offset
        for index in pq.message_indices(
            hy.inner_message(hy_sig.la.agg, hy.nest(batch)[-1]), PROD_PQ
        )
        for offset in range(32)
    }
    for trial in range(trials_per_scheme):
        target = trial % 3
        if target == 0:
            index = rng.randrange(4)
            mutated = list(batch)
            mutated[index] = _flip_bit(batch[index], rng.randrange(len(batch[index]) * 8))
            wrongful += hy.verify_batch(
                tables[signer], hy_com, mutated, hy_sig, group, PROD_PQ
            )
        elif target == 1:
            blob = _flip_bit(hy_sig_blob, rng.randrange(len(hy_sig_blob) * 8))
            try:
                wrongful += hy.verify_batch(
                    tables[signer], hy_com, batch,
                    hy.HySignature.from_bytes(blob, group), group, PROD_PQ,
                )
            except ValueError:
                pass
        else:
            position = rng.randrange(len(hy_com_blob) * 8)
            blob = _flip_bit(hy_com_blob, position)
            try:
                accepted = hy.verify_batch(
                    tables[signer], hy.HyCommitment.from_bytes(blob), batch,
                    hy_sig, group, PROD_PQ,
                )
            except ValueError:
                accepted = False
            if accepted and (position >> 3) in hy_consulted:
                wrongful += 1

    report(
        2,
        wrongful == 0,
        f"{3 * trials_per_scheme} single-bit flips across message/signature/"
        f"commitment bytes, {wrongful} wrongful acceptances",
    )


# --- criterion 3: signer hash budget ---------------------------------------------


def test_criterion_3_sign_hash_budget():
    rng = random.Random(0xC3)
    signer = random_id(rng)
    states, _ = pq.keygen([signer], PROD_PQ, rng.randbytes)
    state = states[signer]
    observed = set()
    for i in range(10):
        counters.reset()
        pq.sign(state, b"budget %d" % i)
        observed.add(counters.total())
    report(
        3,
        observed == {18},
        f"sign with k=16 used exactly {sorted(observed)} hash calls (required: 18 = 1+k+1)",
    )


# --- criterion 4: signature sizes ----------------------------------------------


def test_criterion_4_signature_sizes():
    rng = random.Random(0xC4)
    group = production_group()
    signer = random_id(rng)
    header = 1 + 16 + 8

    states, _ = pq.keygen([signer], PROD_PQ, rng.randbytes)
    pq_payload = len(pq.sign(states[signer], b"m").to_bytes()) - header

    la_states, _, _ = la.keygen([signer], group, 4, 8, rng.randbytes)
    la_payload = len(la.sign_batch(la_states[signer], [b"m"] * 8).to_bytes()) - header

    hy_states, _, _ = hy.keygen([signer], group, 8, PROD_PQ, rng.randbytes)
    hy_total = len(hy.sign_batch(hy_states[signer], [b"m"] * 8).to_bytes())

    ok = (
        pq_payload == 512
        and 48 <= la_payload <= 64
        and hy_total == header + la_payload + pq_payload
    )
    report(
        4,
        ok,
        f"payloads: pq={pq_payload}B (=512), la={la_payload}B (in [48,64]), "
        f"hy={hy_total}B (= {header}B header + la + pq)",
    )


# --- criterion 5: storage-policy invariance at toy scale ----------------------------


def test_criterion_5_policy_invariance_toy_scale():
    rng = random.Random(0xC5)
    signer = random_id(rng)
    epochs = 256
    started = time.perf_counter()
    _, material = pq.keygen(
        [signer], pq.PqParams(t=8, k=4, j1=1, j2=epochs), rng.randbytes
    )

    baseline = []
    mismatches = 0
    budget_violations = 0
    for j1 in (1, 2, 4, 16):
        # one store per policy, each of the same master key, as keygen --J1 writes it
        store = cco.CcoStore(anchored_for(material, j1))
        j2 = epochs // j1
        for epoch in range(1, epochs + 1):
            counters.reset()
            blob = store.pq_commitment(signer, epoch).to_bytes()
            chain_steps = counters.calls_h1 - 8  # 8 entry preimages also use the chain domain
            if j1 == 1:
                baseline.append(blob)
            else:
                mismatches += blob != baseline[epoch - 1]
            budget_violations += chain_steps > j2 - 1
    elapsed = time.perf_counter() - started
    report(
        5,
        mismatches == 0 and budget_violations == 0 and elapsed < 10.0,
        f"J=256, policies (1,2,4,16): {mismatches} byte mismatches, "
        f"{budget_violations} chain-work violations, {elapsed:.1f}s (< 10s)",
    )


# --- criterion 6: tiny-group brute-force oracle equivalence ------------------------


def _dlog(group, element) -> int:
    candidate = group.identity
    for exponent in range(group.q):
        if candidate == element:
            return exponent
        candidate = group.mul(candidate, group.generator)
    raise AssertionError("element outside subgroup")


def _oracle_check(group, public_key, commitment, messages, signature) -> bool:
    """Exponent-side recomputation of the aggregate equation via
    exhaustively recovered discrete logarithms."""
    if signature.signer_id != commitment.signer_id:
        return False
    if signature.epoch != commitment.epoch or len(messages) != commitment.batch_size:
        return False
    q = group.q
    challenge_sum = 0
    for item, message in enumerate(messages, start=1):
        item_seed = domain_hash(0, signature.seed + encode_index(item))
        challenge_sum = (challenge_sum + hash_to_scalar(2, message + item_seed, q)) % q
    return _dlog(group, group.decode_element(commitment.r_bytes)) == (
        _dlog(group, public_key) * challenge_sum + signature.agg
    ) % q


def test_criterion_6_tiny_group_oracle_equivalence():
    group = small_test_group()
    signer = bytes(16)
    alphabet = [b"a", b"b", b"c", b"d"]
    rng = random.Random(0xC6)
    checked = disagreements = 0
    for y in range(1, 11):
        public_key = group.exp(group.generator, y)
        key_table = group.precompute(group.encode_element(public_key))
        for epoch in range(1, 5):
            for size in (1, 2, 3):
                params = la.LaParams(group, 4, size)
                commitment = la.commitment_from_key(y, signer, epoch, size, group)
                for batch in itertools.product(alphabet, repeat=size):
                    state = la.LaSignerState(signer, y, epoch, params)
                    signature = la.sign_batch(state, list(batch))
                    fast = la.verify_batch(key_table, commitment, list(batch), signature, group)
                    slow = _oracle_check(group, public_key, commitment, list(batch), signature)
                    disagreements += fast != slow
                    checked += 1
                    assert fast  # honest runs must also accept
                    # and a mutated response must agree on rejection too
                    bad = la.LaSignature(
                        signer, epoch, (signature.agg + rng.randrange(1, 11)) % 11,
                        signature.seed,
                    )
                    fast = la.verify_batch(key_table, commitment, list(batch), bad, group)
                    slow = _oracle_check(group, public_key, commitment, list(batch), bad)
                    disagreements += fast != slow
                    checked += 1
    report(
        6,
        disagreements == 0,
        f"{checked} tiny-group cases (all y, epochs 1-4, L in (1,2,3), 4-symbol "
        f"batches): {disagreements} disagreements with the discrete-log oracle",
    )


# --- criterion 7: hybrid conjunction semantics --------------------------------------


def test_criterion_7_hybrid_and_semantics():
    rng = random.Random(0xC7)
    group = production_group()
    signer = random_id(rng)
    states, public, material = hy.keygen([signer], group, 4, PROD_PQ, rng.randbytes)
    tables = la.KeyTables(public, group)
    batch = [b"item-%d" % i for i in range(4)]
    signature = hy.sign_batch(states[signer], batch)
    commitment = hy.HyCommitment(
        la.construct_commitment(material.la, signer, 1),
        pq.construct_commitment(material.pq, signer, 1),
    )

    def check(messages, sig):
        return hy.verify_batch(tables[signer], commitment, messages, sig, group, PROD_PQ)

    honest = check(batch, signature)

    # aggregate-layer-only tamper: flip the public seed; the wrapped layer
    # still accepts its own inner message, the conjunction must not
    la_tampered = hy.HySignature(
        la.LaSignature(signer, 1, signature.la.agg, bytes(32)), signature.pq
    )
    la_only = not check(batch, la_tampered) and pq.verify(
        commitment.pq,
        hy.inner_message(signature.la.agg, hy.nest(batch)[-1]),
        signature.pq,
        PROD_PQ,
    )

    # wrapper-layer-only tamper: zero a revealed string; the aggregate side
    # still accepts, the conjunction must not
    pq_tampered = hy.HySignature(
        signature.la, pq.PqSignature(signer, 1, bytes(32) + signature.pq.body[32:])
    )
    pq_only = not check(batch, pq_tampered) and la.verify_batch(
        tables[signer], commitment.la, hy.nest(batch), signature.la, group
    )

    permuted = not check([batch[1], batch[0], batch[2], batch[3]], signature)

    ok = honest and la_only and pq_only and permuted
    report(
        7,
        ok,
        f"honest={honest}, aggregate-only tamper rejected={la_only}, "
        f"wrapper-only tamper rejected={pq_only}, permutation rejected={permuted}",
    )


# --- criterion 8: end-to-end service round trip -----------------------------------


def test_criterion_8_service_round_trip():
    rng = random.Random(0xC8)
    group = production_group()
    signer = random_id(rng)
    batch_size = 8
    states, public, material = hy.keygen([signer], group, batch_size, PROD_PQ, rng.randbytes)
    tables = la.KeyTables(public, group)
    state = states[signer]

    batches = [[rng.randbytes(24) for _ in range(batch_size)] for _ in range(10)]
    signatures = [hy.sign_batch(state, batch) for batch in batches]
    # two deliberately broken cases so both paths must also agree on rejects
    batches.append([rng.randbytes(24) for _ in range(batch_size)])
    signatures.append(signatures[0])  # signature for a different batch/epoch
    batches.append(batches[1])
    signatures.append(
        hy.HySignature(
            la.LaSignature(signer, 2, (signatures[1].la.agg + 1) % group.q, signatures[1].la.seed),
            signatures[1].pq,
        )
    )
    expected = [True] * 10 + [False, False]

    store = cco.CcoStore(material)
    with transport.CcoServer(store) as server:
        with transport.CcoClient("127.0.0.1", server.port) as client:
            on_demand = []
            for batch, signature in zip(batches, signatures):
                try:
                    epoch = signature.la.epoch
                    blob = client.batch_export(cco.MSG_HY, signer, epoch, epoch)[0]
                    commitment = hy.HyCommitment.from_bytes(blob)
                    on_demand.append(
                        hy.verify_batch(tables[signer], commitment, batch, signature, group, PROD_PQ)
                    )
                except CcoRequestError:
                    on_demand.append(False)

            exported = client.batch_export(cco.MSG_HY, signer, 1, 10)

    offline_index = {}
    for blob in exported:
        commitment = hy.HyCommitment.from_bytes(blob)
        offline_index[commitment.la.epoch] = commitment
    offline = []
    for batch, signature in zip(batches, signatures):
        commitment = offline_index.get(signature.la.epoch)
        if commitment is None:
            offline.append(False)
        else:
            offline.append(
                hy.verify_batch(tables[signer], commitment, batch, signature, group, PROD_PQ)
            )

    ok = on_demand == offline == expected
    report(
        8,
        ok,
        f"10 honest + 2 tampered batches: on-demand={sum(on_demand)} accepts, "
        f"offline={sum(offline)} accepts, decisions identical={on_demand == offline}",
    )
