import hashlib
import importlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hases import hashing, hy, la, pq
from hases.group import production_group
from hases.hashing import (
    HEADER_LEN,
    check_signer_ids,
    combination_weights,
    commitment_images,
    counters,
    domain_hash,
    encode_header,
    encode_index,
    hash_to_scalar,
    images_match,
    iter_hash,
    label_table,
    nested_digests,
    opened_images,
    prefixed_hashes,
    prefixed_scalars,
    revealed_strings,
    signing_table,
    split_header,
)


def test_domains_are_separated():
    m = b"same input"
    digests = {domain_hash(k, m) for k in (0, 1, 2)}
    assert len(digests) == 3


def test_matches_reference_sha256_with_prefix_byte():
    # independent recomputation: prefix byte then plain SHA-256
    assert domain_hash(0, b"") == hashlib.sha256(b"\x00").digest()
    assert domain_hash(2, b"xyz") == hashlib.sha256(b"\x02" + b"xyz").digest()


def test_deterministic_and_counted():
    counters.reset()
    a = domain_hash(1, b"m")
    b = domain_hash(1, b"m")
    assert a == b
    assert counters.snapshot() == (0, 2, 0)


def test_rejects_unknown_domain():
    with pytest.raises(ValueError):
        domain_hash(3, b"")


def test_iter_hash_zero_steps_is_identity():
    seed = bytes(32)
    assert iter_hash(1, seed, 0) == seed


def test_iter_hash_composition():
    seed = b"s" * 32
    assert iter_hash(1, seed, 2) == domain_hash(1, domain_hash(1, seed))


def test_iter_hash_splitting_identity():
    rng = random.Random(7)
    for _ in range(50):
        seed = rng.randbytes(32)
        a, b = rng.randrange(0, 20), rng.randrange(0, 20)
        assert iter_hash(1, seed, a + b) == iter_hash(1, iter_hash(1, seed, a), b)


def test_iter_hash_counts_every_step():
    counters.reset()
    iter_hash(1, bytes(32), 17)
    assert counters.calls_h1 == 17


def test_iter_hash_counts_in_its_own_domain():
    seed = b"d" * 32
    for domain in (0, 1, 2):
        counters.reset()
        assert iter_hash(domain, seed, 3) == domain_hash(domain, domain_hash(domain, domain_hash(domain, seed)))
        expected = [0, 0, 0]
        expected[domain] = 6  # three in iter_hash, three in the reference
        assert list(counters.snapshot()) == expected
    with pytest.raises(ValueError):
        iter_hash(3, seed, 1)


@pytest.mark.parametrize("t", [8, 1024])
def test_commitment_images_match_the_domain_hash_composition(t):
    seed = random.Random(t).randbytes(32)
    reference = [domain_hash(2, domain_hash(1, seed + encode_index(label))) for label in range(1, t + 1)]
    counters.reset()
    assert commitment_images(seed, t) == b"".join(reference)
    # counted exactly as the composition it replaces
    assert counters.snapshot() == (0, t, t)
    positions = kernel_positions(t, random.Random(t))
    counters.reset()
    assert opened_images((seed,), positions, t) == b"".join(reference[x] for x in positions)
    assert counters.snapshot() == (0, len(positions), len(positions))


@pytest.mark.parametrize("t, k", [(8, 4), (1024, 16)])
def test_opened_images_of_a_run_are_each_seeds_share(t, k):
    rng = random.Random(t + k)
    for n in (1, 2, 16):
        seeds = [rng.randbytes(32) for _ in range(n)]
        indices = [rng.randrange(t) for _ in range(n * k)]
        indices[0], indices[1], indices[-1] = 0, t - 1, t - 1
        expected = b"".join(domain_hash(2, domain_hash(1, seeds[at // k] + encode_index(x + 1)))
                            for at, x in enumerate(indices))
        counters.reset()
        assert opened_images(seeds, indices, t) == expected
        assert counters.snapshot() == (0, n * k, n * k)


def scalar_oracle(domain, data, order):
    """(scalar, hash calls) of ``hash_to_scalar``'s rule, from hashlib alone."""
    prefix = bytes((domain,))
    value, calls = int.from_bytes(hashlib.sha256(prefix + data).digest(), "big") % order, 1
    retry = 0
    while value == 0:
        value = int.from_bytes(hashlib.sha256(prefix + data + bytes((retry,))).digest(), "big") % order
        calls, retry = calls + 1, retry + 1
    return value, calls


def kernel_positions(t, rng):
    """Both ends of the label table, a random position, and duplicates."""
    middle = rng.randrange(t)
    return [0, t - 1, middle, 0, middle, t - 1]


def test_label_table_holds_the_encodings_of_labels_1_to_n():
    assert label_table(4) == tuple(encode_index(label) for label in (1, 2, 3, 4))
    assert label_table(1024)[1023] == encode_index(1024)


@pytest.mark.parametrize("t", [8, 1024])
@pytest.mark.parametrize("domain", [0, 1, 2])
def test_prefixed_hashes_match_the_domain_hash_composition(t, domain):
    rng = random.Random(t + domain)
    head = rng.randbytes(32)
    positions = kernel_positions(t, rng)
    reference = [domain_hash(domain, head + encode_index(x + 1)) for x in positions]
    labels = label_table(t)
    counters.reset()
    assert prefixed_hashes(domain, head, [labels[x] for x in positions]) == reference
    expected = [0, 0, 0]
    expected[domain] = len(positions)  # counted once per tail, in its own domain
    assert list(counters.snapshot()) == expected
    counters.reset()
    assert prefixed_hashes(domain, head, []) == []
    assert counters.snapshot() == (0, 0, 0)
    with pytest.raises(ValueError):
        prefixed_hashes(3, head, labels)


@pytest.mark.parametrize("t", [8, 1024])
@pytest.mark.parametrize("order", [11, 2**252 + 27742317777372353535851937790883648493])
def test_prefixed_scalars_match_hash_to_scalar(t, order):
    rng = random.Random(t)
    head = rng.randbytes(32)
    positions = kernel_positions(t, rng)
    labels = label_table(t)
    reference = [scalar_oracle(1, head + labels[x], order) for x in positions]
    counters.reset()
    assert prefixed_scalars(1, head, [labels[x] for x in positions], order) == [
        value for value, _ in reference]
    assert counters.snapshot() == (0, sum(calls for _, calls in reference), 0)
    with pytest.raises(ValueError):
        prefixed_scalars(1, head, labels, 2)


def test_the_scalar_retry_is_one_more_counted_call():
    # over q = 11 about one tail in eleven reduces to zero and is retried
    rng = random.Random(11)
    head = rng.randbytes(32)
    tails = [rng.randbytes(rng.randrange(0, 40)) for _ in range(400)]
    reference = [scalar_oracle(2, head + tail, 11) for tail in tails]
    retried = [calls for _, calls in reference if calls > 1]
    assert len(retried) >= 10
    counters.reset()
    assert prefixed_scalars(2, head, tails, 11) == [value for value, _ in reference]
    assert counters.snapshot() == (0, 0, len(tails) + sum(calls - 1 for calls in retried))
    for tail, (value, calls) in zip(tails, reference):
        counters.reset()
        assert hash_to_scalar(2, head + tail, 11) == value
        assert counters.total() == calls


@pytest.mark.parametrize("k", [1, 16])
def test_images_match_stops_at_the_first_mismatch(k):
    rng = random.Random(k)
    preimages = [rng.randbytes(32) for _ in range(k)]
    images = [domain_hash(2, preimage) for preimage in preimages]
    preimages = b"".join(preimages)  # read where each lies, as a signature body holds them
    counters.reset()
    assert images_match(preimages, b"".join(images))
    assert counters.snapshot() == (0, 0, k)
    for bad in {0, k // 2, k - 1}:
        tampered = list(images)
        tampered[bad] = bytes(32)
        counters.reset()
        assert not images_match(preimages, b"".join(tampered))
        assert counters.snapshot() == (0, 0, bad + 1)
    # a body one image short fails at its last preimage
    counters.reset()
    assert not images_match(preimages, b"".join(images[:-1]))
    assert counters.snapshot() == (0, 0, k)
    counters.reset()
    assert images_match(b"", b"")
    assert counters.snapshot() == (0, 0, 0)


def test_hash_to_scalar_range():
    for i in range(300):
        v = hash_to_scalar(0, b"range-%d" % i, 11)
        assert 1 <= v <= 10
    v = hash_to_scalar(1, b"big", 2**252 + 27742317777372353535851937790883648493)
    assert v >= 1


def test_hash_to_scalar_frozen_value():
    # digest of b"probe-2" under domain 0 reduces to 7 mod 11 (found by search)
    d = b"probe-2"
    assert int.from_bytes(hashlib.sha256(b"\x00" + d).digest(), "big") % 11 == 7
    assert hash_to_scalar(0, d, 11) == 7


def test_hash_to_scalar_domains_independent():
    data = b"shared"
    q = 2**61 - 1
    assert hash_to_scalar(0, data, q) != hash_to_scalar(1, data, q)


def test_hash_to_scalar_rejects_tiny_order():
    with pytest.raises(ValueError):
        hash_to_scalar(0, b"", 2)


def test_encode_index_is_eight_bytes_big_endian():
    assert encode_index(0) == bytes(8)
    assert encode_index(0x0102030405060708) == bytes(range(1, 9))
    with pytest.raises(ValueError):
        encode_index(-1)


def test_signer_id_length_enforced():
    assert check_signer_ids([b"x" * 16]) == [b"x" * 16]
    with pytest.raises(ValueError):
        check_signer_ids([b"x" * 16, b"short"])


def test_signer_id_list_is_nonempty_and_without_duplicates():
    ids = (bytes([n]) * 16 for n in range(3))  # any iterable, returned as a list
    assert check_signer_ids(ids) == [bytes([n]) * 16 for n in range(3)]
    for bad in ([], [b"a" * 16, b"b" * 16, b"a" * 16], [b"x" * 17]):
        with pytest.raises(ValueError):
            check_signer_ids(bad)


def test_split_header_reads_what_encode_header_writes():
    head = encode_header(0x12, b"i" * 16, 0x0102)
    assert len(head) == HEADER_LEN == 25
    assert split_header(head, 0x12, "x") == (b"i" * 16, 0x0102, b"")
    assert split_header(head + b"rest", 0x12, "x", size=29) == (b"i" * 16, 0x0102, b"rest")
    # another tag, a blob shorter than the header, a length other than the size given
    for data, tag, size in ((head, 0x13, 0), (head[:-1], 0x12, 0),
                            (head + b"rest", 0x12, 28), (head + b"rest", 0x12, 30)):
        with pytest.raises(ValueError):
            split_header(data, tag, "x", size)


def test_combination_weights_are_128_bit_cuts_of_h2_per_position():
    seed = random.Random(12).randbytes(32)
    reference = [int.from_bytes(domain_hash(2, seed + encode_index(i))[:16], "big")
                 for i in range(1, 17)]
    counters.reset()
    assert combination_weights(seed, 16) == reference
    assert counters.snapshot() == (0, 0, 16)
    assert combination_weights(seed, 3) == reference[:3]
    assert all(0 <= z < 1 << 128 for z in reference)


def index_oracle(message, t, k):
    """The k indices a message selects, cut from its H0 digest's bits by string slicing."""
    bits = "".join(f"{byte:08b}" for byte in hashlib.sha256(b"\x00" + message).digest())
    width = (t - 1).bit_length()
    return [int(bits[n * width : (n + 1) * width], 2) for n in range(k)]


def test_signing_table_holds_labels_shifts_and_mask():
    table = signing_table(1024, 16)
    assert table.labels == label_table(1024)
    assert table.shifts == tuple(256 - 10 * (n + 1) for n in range(16))
    assert table.mask == 1023
    assert signing_table(8, 4).shifts == (253, 250, 247, 244)


@settings(max_examples=150, deadline=None)
@given(message=st.binary(max_size=80), seed=st.binary(min_size=32, max_size=32),
       tk=st.sampled_from([(8, 4), (8, 1), (1024, 16), (1024, 25)]))
def test_revealed_strings_match_the_domain_hash_composition(message, seed, tk):
    t, k = tk
    body = b"".join(domain_hash(1, seed + encode_index(x + 1)) for x in index_oracle(message, t, k))
    next_seed = domain_hash(1, seed)
    counters.reset()
    # the seed as the signer holds it, a bytearray, which the kernel only reads
    held = bytearray(seed)
    assert revealed_strings(message, held, signing_table(t, k)) == (body, next_seed)
    assert held == seed
    # 1 H0 for the indices, k H1 for the strings and 1 for the next seed
    assert counters.snapshot() == (1, k + 1, 0)


def nest_oracle(messages):
    digests = [domain_hash(0, messages[0])]
    for message in messages[1:]:
        digests.append(domain_hash(0, message + domain_hash(0, digests[-1])))
    return digests


@settings(max_examples=150, deadline=None)
@given(data=st.data(), size=st.sampled_from([1, 2, 8]))
def test_nested_digests_match_the_domain_hash_composition(data, size):
    messages = data.draw(st.lists(st.binary(max_size=48), min_size=size, max_size=size))
    reference = nest_oracle(messages)
    counters.reset()
    assert nested_digests(messages) == reference
    assert counters.snapshot() == (2 * size - 1, 0, 0)


def test_la_and_hy_batches_cost_their_budgets_exactly():
    """2 + 3L = 26 hashes per la batch and 2L - 1 + 26 + 18 = 59 per hy
    batch at L=8, t=1024, k=16: the budgets the CI checks through
    ``hases bench``, with the kernels counting in one step per call."""
    ids = [bytes(16)]
    batch = [b"item %d" % n for n in range(8)]
    group = production_group()
    la_state = la.keygen(ids, group, 4, 8)[0][ids[0]]
    counters.reset()
    la.sign_batch(la_state, batch)
    # H0 and H1 of the epoch seeds, then per item a seed, a nonce, a challenge
    assert counters.snapshot() == (1 + 8, 1 + 8, 8)
    hy_state = hy.keygen(ids, group, 8, pq.PqParams(t=1024, k=16, j1=1, j2=4))[0][ids[0]]
    counters.reset()
    hy.sign_batch(hy_state, batch)
    assert counters.snapshot() == (15 + 9 + 1, 9 + 17, 8)


def test_domain_hashes_use_cpythons_own_sha256():
    """Where the interpreter has its own SHA-256 (``_sha2`` from 3.12,
    ``_sha256`` before), every domain hash uses it: a silent fall back to
    hashlib's would give the same bytes, only slower."""
    for name in ("_sha2", "_sha256"):
        try:
            builtin = importlib.import_module(name).sha256
        except ImportError:
            continue
        assert hashing._sha256 is builtin
        return
    pytest.skip("this interpreter was built without its own SHA-256")


SEED = bytes(range(32))
PREIMAGES = SEED + SEED[::-1]
IMAGES = b"".join(hashlib.sha256(b"\x02" + PREIMAGES[at:at + 32]).digest() for at in (0, 32))

KERNELS = {
    "revealed_strings": lambda: revealed_strings(b"message", SEED, signing_table(1024, 16)),
    "commitment_images": lambda: commitment_images(SEED, 64),
    "_images": lambda: hashing._images((SEED, SEED[::-1]), label_table(16)),
    "opened_images": lambda: opened_images((SEED, SEED[::-1]), [0, 63, 5, 5], 64),
    "images_match": lambda: images_match(PREIMAGES, IMAGES),
    "images_match, early mismatch": lambda: images_match(PREIMAGES, bytes(32) + IMAGES[32:]),
    "iter_hash": lambda: iter_hash(1, SEED, 100),
    "nested_digests": lambda: nested_digests([b"a", b"", b"ccc", SEED]),
    "prefixed_hashes": lambda: prefixed_hashes(0, SEED, label_table(8)),
    # 64 tails modulo 11: some reduce to 0 and take the retry path
    "prefixed_scalars": lambda: prefixed_scalars(2, SEED, label_table(64), 11),
    "combination_weights": lambda: combination_weights(SEED, 16),
}


@pytest.mark.parametrize("kernel", KERNELS.values(), ids=KERNELS.keys())
def test_every_kernel_gives_hashlibs_bytes_and_counts(kernel, monkeypatch):
    def run():
        counters.reset()
        return kernel(), counters.snapshot()

    bound = run()
    monkeypatch.setattr(hashing, "_sha256", hashlib.sha256)
    assert run() == bound
