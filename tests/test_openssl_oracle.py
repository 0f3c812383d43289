"""The curve arithmetic of ``hases.group`` against OpenSSL's.

Every other curve test compares the group with references built from
the same formulas; these compare it with an implementation that shares
none of its code, through ``cryptography``'s Ed25519 and X25519:

* the encoding of [a]G equals the Ed25519 public key of a seed, a being
  the seed's clamped SHA-512 scalar (RFC 8032, section 5.1.5);
* the Montgomery u = (1 + y) / (1 - y) of [k]P equals X25519 of k and
  u(P) (RFC 7748, section 4.1), for P the base point (u = 9) through the
  generator's comb, and for another point through a key's comb.

The module is skipped where ``cryptography`` is not installed.
"""

import hashlib
import random

import pytest

from hases.group import production_group

ed25519 = pytest.importorskip("cryptography.hazmat.primitives.asymmetric.ed25519")
x25519 = pytest.importorskip("cryptography.hazmat.primitives.asymmetric.x25519")

G = production_group()
P = G.p


def clamped(k: int) -> int:
    """k with RFC 7748's clamping: bits 0-2 and 255 cleared, bit 254 set."""
    return k & ((1 << 254) - 8) | 1 << 254


def montgomery_u(point) -> bytes:
    _, y = point
    return ((1 + y) * pow(1 - y, -1, P) % P).to_bytes(32, "little")


def openssl_x25519(k: int, u: bytes) -> bytes:
    private = x25519.X25519PrivateKey.from_private_bytes(k.to_bytes(32, "little"))
    return private.exchange(x25519.X25519PublicKey.from_public_bytes(u))


def residue_scalars():
    """Clamped scalars k whose residues k mod q, the scalars the comb walks,
    carry runs of the bytes 0x7f, 0x80, 0x81 and 0xff in their 8-bit
    windows 1 to 30: each is r + 4q for a residue r with the run, its
    lowest byte 0, raised to the next multiple of 8."""
    q = G.q
    for run in ("7f" * 30, "80" * 30, "81" * 30, "ff" * 30, "7f80" * 15, "81ff" * 15, "ff7f" * 15):
        r = int(run + "00", 16)  # below 2^248, so below q
        k = r + 4 * q
        k += -k % 8
        assert clamped(k) == k and k % q >> 8 == r >> 8
        yield k


def test_ed25519_public_keys_match():
    rng = random.Random(2024)
    for _ in range(32):
        seed = rng.randbytes(32)
        a = clamped(int.from_bytes(hashlib.sha512(seed).digest()[:32], "little"))
        public = ed25519.Ed25519PrivateKey.from_private_bytes(seed).public_key().public_bytes_raw()
        assert G.encode_element(G.exp(G.generator, a)) == public, seed.hex()


def test_x25519_of_the_base_point_matches_the_generator_comb():
    base_u = (9).to_bytes(32, "little")
    rng = random.Random(2025)
    scalars = list(residue_scalars()) + [clamped(rng.getrandbits(256)) for _ in range(8)]
    for k in scalars:
        assert montgomery_u(G.exp(G.generator, k)) == openssl_x25519(k, base_u), hex(k)


def test_x25519_of_another_point_matches_a_key_comb():
    # a key's comb built by precompute, and the same comb read back from its bytes
    rng = random.Random(2026)
    point = G.exp(G.generator, rng.randrange(1, G.q))
    table = G.precompute(G.encode_element(point))
    loaded = G.table_from_bytes(G.table_bytes(table))
    for k in list(residue_scalars())[:4] + [clamped(rng.getrandbits(256)) for _ in range(4)]:
        expected = openssl_x25519(k, montgomery_u(point))
        assert montgomery_u(G.exp_table(table, k)) == expected, hex(k)
        assert montgomery_u(G.exp_table(loaded, k)) == expected, hex(k)
