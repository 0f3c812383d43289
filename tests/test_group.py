import random

import pytest

from conftest import curve_point
from hases import group as group_module
from hases import la
from hases.group import (
    ModPGroup,
    encode_scalar,
    group_by_tag,
    production_group,
    small_test_group,
)


def double_and_add(ext, k: int):
    """Reference: [k]P of an extended point by double-and-add, without
    reducing k, through the group's own addition and doubling."""
    unit = group_module._to_niels(ext)
    acc = group_module._EXT_IDENTITY
    for bit in bin(k)[2:]:
        acc = group_module._ext_double(acc)
        if bit == "1":
            acc = group_module._niels_add(acc, *unit)
    return acc


def brute_force_dlog(group, element):
    """Oracle: exhaustive search, only usable on the tiny group."""
    candidate = group.identity
    for exponent in range(group.q):
        if candidate == element:
            return exponent
        candidate = group.mul(candidate, group.generator)
    raise AssertionError("element not in subgroup")


class TestTinyGroup:
    def setup_method(self):
        self.g = small_test_group()

    def test_fixed_parameters(self):
        assert (self.g.p, self.g.q, self.g.generator) == (23, 11, 2)
        # 2^11 = 2048 = 89*23 + 1
        assert pow(2, 11, 23) == 1
        assert self.g.generator != 1

    def test_subgroup_is_enumerable(self):
        members = set()
        value = 1
        for _ in range(11):
            members.add(value)
            value = value * 2 % 23
        assert len(members) == 11
        # membership through decode_element: members decode, nothing else does
        for value in range(self.g.p + 1):
            blob = value.to_bytes(32, "big")
            if value in members:
                assert self.g.decode_element(blob) == value
            else:
                with pytest.raises(ValueError):
                    self.g.decode_element(blob)

    def test_exp_matches_direct_computation(self):
        assert self.g.exp(2, 5) == 32 % 23 == 9
        assert self.g.exp(self.g.generator, 1) == 2
        assert self.g.exp(self.g.generator, 0) == 1

    def test_exp_against_dlog_oracle(self):
        for k in range(11):
            assert brute_force_dlog(self.g, self.g.exp(2, k)) == k

    def test_inverse(self):
        g = self.g
        assert g.mul(g.exp(g.generator, g.q - 1), g.generator) == g.identity

    def test_homomorphism_exhaustive(self):
        g = self.g
        for a in range(11):
            for b in range(11):
                lhs = g.exp(g.generator, (a + b) % g.q)
                rhs = g.mul(g.exp(g.generator, a), g.exp(g.generator, b))
                assert lhs == rhs

    def test_element_encoding_padded(self):
        blob = self.g.encode_element(9)
        assert len(blob) == 32
        assert self.g.decode_element(blob) == 9

    def test_decode_rejects_non_members(self):
        # 5 generates all of Z_23^*, not the order-11 subgroup
        assert pow(5, 11, 23) != 1
        with pytest.raises(ValueError):
            self.g.decode_element((5).to_bytes(32, "big"))

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError):
            ModPGroup(23, 7, 2)  # 7 does not divide 22
        with pytest.raises(ValueError):
            ModPGroup(23, 11, 5)  # wrong order

    def test_exp2_matches_reference_exhaustive(self):
        g = self.g
        for y in range(g.q):
            base = g.exp(g.generator, y)
            table = g.precompute(g.encode_element(base))
            for e in range(g.q):
                for s in range(g.q):
                    assert g.exp2(table, e, s) == g.mul(g.exp(base, e), g.exp(g.generator, s))

    def test_precompute_rejects_non_members(self):
        for value in (22, 5):  # orders 2 and 22 in Z_23^*
            with pytest.raises(ValueError):
                self.g.precompute(self.g.encode_element(value))


class TestProductionGroup:
    def setup_method(self):
        self.g = production_group()

    def test_order_size(self):
        assert self.g.q.bit_length() >= 250

    def test_identity_and_order(self):
        g = self.g
        assert g.exp(g.generator, 0) == g.identity
        assert g.exp(g.generator, g.q) == g.identity

    def test_inverse(self):
        g = self.g
        assert g.mul(g.exp(g.generator, g.q - 1), g.generator) == g.identity

    def test_exponent_laws_random(self):
        g = self.g
        rng = random.Random(1234)
        for _ in range(8):
            a = rng.randrange(1, g.q)
            b = rng.randrange(1, g.q)
            assert g.exp(g.exp(g.generator, a), b) == g.exp(g.generator, a * b % g.q)
            assert g.mul(g.exp(g.generator, a), g.exp(g.generator, b)) == g.exp(
                g.generator, (a + b) % g.q
            )

    def test_fixed_base_path_matches_generic(self):
        g = self.g
        rng = random.Random(99)
        double = g.mul(g.generator, g.generator)  # not the generator: a comb of its own
        for _ in range(6):
            k = rng.randrange(0, g.q)
            assert g.exp(g.generator, 2 * k % g.q) == g.exp(double, k)

    def test_encoding_round_trip(self):
        g = self.g
        rng = random.Random(5)
        for _ in range(6):
            e = g.exp(g.generator, rng.randrange(1, g.q))
            blob = g.encode_element(e)
            assert len(blob) == 32
            assert g.decode_element(blob) == e

    def test_decode_rejects_garbage(self):
        g = self.g
        rejected = 0
        rng = random.Random(6)
        for _ in range(64):
            try:
                g.decode_element(rng.randbytes(32))
            except ValueError:
                rejected += 1
        assert rejected > 0  # roughly half of random y values are off-curve

    def test_decode_rejects_non_canonical(self):
        with pytest.raises(ValueError):
            self.g.decode_element(b"\xff" * 32)

    def test_subgroup_membership(self):
        g = self.g
        for point in (g.identity, g.exp(g.generator, 12345)):
            blob = g.encode_element(point)
            assert g.decode_element(blob) == point
            g.precompute(blob)

    def test_small_order_points_rejected(self, small_order_points):
        # canonical encodings of curve points outside the subgroup; exp
        # reduces its scalar mod q, so a membership check through exp
        # would let them pass
        g = self.g
        order_2 = (0, g.p - 1)
        order_4 = (pow(2, (g.p - 1) // 4, g.p), 0)  # what 32 zero bytes name
        assert g.encode_element(order_4) == bytes(32)
        assert {order_2, order_4} < set(small_order_points)
        shifted = [g.mul(g.generator, point) for point in small_order_points[1:]]
        for point in small_order_points[1:] + shifted:
            blob = g.encode_element(point)
            with pytest.raises(ValueError):
                g.decode_element(blob)
            with pytest.raises(ValueError):
                g.precompute(blob)

    def test_exp2_matches_reference(self):
        g = self.g
        q = g.q
        rng = random.Random(77)
        edges = [(0, 0), (0, q - 1), (q - 1, 0), (q - 1, q - 1)]
        for base in (g.identity, g.generator, g.exp(g.generator, rng.randrange(1, q))):
            table = g.precompute(g.encode_element(base))
            for e, s in edges + [(rng.randrange(q), rng.randrange(q)) for _ in range(4)]:
                assert g.exp2(table, e, s) == g.mul(g.exp(base, e), g.exp(g.generator, s))

    def test_exp2_every_digit_in_every_row_and_the_carries(self):
        # exp2 reads e as 64 signed 4-bit digits of the key's comb (and s as
        # 32 8-bit ones of the generator's): 9..15 become d - 16 with a carry
        # into the next digit
        g = self.g
        q = g.q
        # scalar d has digit (i + d) % 16 in row i < 63 (all below 2^252 < q),
        # so across the 16 scalars every row meets every digit 0..15
        scalars = [sum((i + d) % 16 << 4 * i for i in range(63)) for d in range(16)]
        scalars += [
            0xF,  # one digit, one carry: the loop must not stop before it lands
            0xF << 4 * 40,
            15 * 16**62,  # a carry out of row 62 into the top row
            2**252 - 1,  # every digit 15: a carry out of every row into the next
            2**252 + 8,  # the top row and the largest unsigned digit
            0,
            1,
            q - 1,
            q,
            q + 15,
            2**256 - 1,  # reduced mod q first
        ]
        rng = random.Random(78)
        for base in (g.identity, g.generator, g.exp(g.generator, rng.randrange(1, q))):
            table = g.precompute(g.encode_element(base))
            for e, s in zip(scalars, reversed(scalars)):
                assert g.exp2(table, e, s) == g.mul(g.exp(base, e), g.exp(g.generator, s))

    def test_key_comb_matches_double_and_add_at_the_edges(self):
        # a key's table has 16 rows 2^16 apart, walked in 4 columns; a
        # 64-row table 2^4 apart walks the same signed 4-bit digits in one
        # column (the generator's comb has 8-bit digits: see the test
        # below); each must give [k]base exactly for any 0 <= k < 2^255,
        # q itself (the subgroup check) included
        g = self.g
        q = g.q
        eights = int("8" * 63, 16)  # the largest digit, no carry
        nines = int("9" * 63, 16)  # 9 = -7 and a carry, into a 9 that becomes 10
        scalars = [
            0, 1, 2, q - 1, q, q + 1, 2**252, 2**252 - 1, 2**255 - 1,
            eights, nines, int("7" + "9" * 63, 16), int("7" + "8" * 63, 16),
            int("89" * 31 + "8", 16), int("98" * 31 + "9", 16),
            0xF << 4 * 15, 0xF << 4 * 63 >> 1,  # a carry into the next row, into column 0
        ]
        rng = random.Random(79)
        for base in (g.identity, g.generator, g.exp(g.generator, rng.randrange(1, q))):
            ext = group_module._to_ext(base)
            table = g.precompute(g.encode_element(base))
            assert len(table) == 16
            combs = (table, group_module._comb_table(ext, 64, 4))
            for k in scalars + [rng.randrange(2**255) for _ in range(4)]:
                expected = group_module._from_ext(double_and_add(ext, k))
                for comb in combs:
                    got = group_module._comb_add(group_module._EXT_IDENTITY, comb, k)
                    assert group_module._from_ext(got) == expected, hex(k)
                if k < q:
                    assert g.exp(base, k) == expected  # the generator's comb, or a 16-row one
                    assert g.exp2(table, k, 0) == expected
                    assert g.exp2(table, k, q - 1 - k) == g.mul(expected, g.exp(g.generator, q - 1 - k))

    def test_generator_comb_matches_double_and_add(self):
        # the generator's comb has 32 rows of 8-bit digits, one column:
        # row i holds [d * 2^(8i)]g for d = 0..128, and a byte above 0x80
        # is used as d - 256 with a carry into the next row
        g = self.g
        q = g.q
        comb = g._generator_table()
        assert len(comb) == 32 and {len(row) for row in comb} == {129}
        ext = group_module._to_ext(g.generator)
        # scalar d has byte (i + d) % 256 in row i < 31 and d % 128 in the
        # top row (all a scalar below 2^255 can hold there), so across the
        # 256 scalars every row meets every byte it can
        family = [sum((i + d) % 256 << 8 * i for i in range(31)) | (d % 128) << 248
                  for d in range(256)]
        edges = [
            int("80" * 31, 16),  # the largest unsigned digit in every row, no carry
            int("7f" + "80" * 31, 16),
            int("81" * 31, 16),  # 0x81 = -127 and a carry into a 0x82, and so on up
            int("7f" + "81" * 31, 16),  # ... into the top row: 0x7f + 1 = 0x80
            int("ff" * 31, 16),  # -1 and a carry out of every row
            int("80ff" * 15 + "ff", 16),  # a carry into 0x80: 0x81 = -127, a carry again
            0, 1, q - 1, q, 2**252, 2**255 - 1,
        ]
        for k in family + edges:
            got = group_module._from_ext(group_module._comb_add(group_module._EXT_IDENTITY, comb, k))
            assert got == group_module._from_ext(double_and_add(ext, k)), hex(k)
        # through every caller of the comb, on the edges and every 16th of
        # the family: exp, exp2 after a key's walk, and the store's 0x08
        # build, whose total is steered onto k through the response sum
        rng = random.Random(81)
        base = g.exp(g.generator, rng.randrange(1, q))
        table = g.precompute(g.encode_element(base))
        e = rng.randrange(q)
        _, _, material = la.keygen([bytes(16)], g, 4, 2, rng.randbytes)
        seed = bytes(32)
        key = la.private_scalar(material.msk, bytes(16), g)
        weight, = la.combination_weights(seed, 1)
        total = weight * la._nonce_sum(key, 1, 2, q)
        for k in family[::16] + edges:
            expected = group_module._from_ext(double_and_add(ext, k))
            assert g.exp(g.generator, k) == expected, hex(k)
            assert g.exp2(table, e, k) == g.mul(g.exp_table(table, e), expected), hex(k)
            assert la.combined_commitment(material, bytes(16), seed, (total - k) % q, [1]) == (
                g.encode_element(expected)), hex(k)

    @pytest.mark.parametrize("make", [production_group, small_test_group])
    def test_table_bytes_round_trip(self, make):
        g = make()
        rng = random.Random(80)
        base = g.exp(g.generator, rng.randrange(1, g.q))
        table = g.precompute(g.encode_element(base))
        blob = g.table_bytes(table)
        assert len(blob) == g.table_len == (16 * 8 * 4 * 32 if g is self.g else 32)
        loaded = g.table_from_bytes(blob)
        assert g.table_bytes(loaded) == blob
        for _ in range(4):
            e, s = rng.randrange(g.q), rng.randrange(g.q)
            assert g.exp2(loaded, e, s) == g.exp2(table, e, s)
        for cut in (blob[:-1], blob + b"\x00"):
            with pytest.raises(ValueError):
                g.table_from_bytes(cut)

    def test_decode_rejects_non_canonical_and_off_curve(self, small_order_points):
        g = self.g
        identity = g.encode_element(g.identity)
        sign = 1 << 255
        off_curve = next(y for y in range(2, 100) if curve_point(y) is None)
        for raw in (
            g.p + 1,  # y >= p: the identity's y plus p
            1 | sign,  # x = 0 with the sign bit set
            (g.p - 1) | sign,
            off_curve,
        ):
            with pytest.raises(ValueError):
                g.decode_element(raw.to_bytes(32, "little"))
            with pytest.raises(ValueError):
                g.precompute(raw.to_bytes(32, "little"))
        assert g.decode_element(identity) == g.identity

    def test_identity_encoding(self):
        g = self.g
        assert g.decode_element(g.encode_element(g.identity)) == g.identity


def test_backend_tags_round_trip():
    assert group_by_tag(0x00) is small_test_group()
    assert group_by_tag(0x01) is production_group()
    with pytest.raises(ValueError):
        group_by_tag(0x7F)


def test_scalar_encoding():
    assert encode_scalar(1) == bytes(31) + b"\x01"
    g = small_test_group()
    assert g.decode_scalar(encode_scalar(10)) == 10
    with pytest.raises(ValueError):
        g.decode_scalar(encode_scalar(11))  # == q, not canonical
