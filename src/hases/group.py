"""Prime-order cyclic groups for the aggregate scheme.

Two interchangeable backends sit behind one interface:

* ``Edwards25519Group`` -- the production backend, the prime-order
  subgroup of the twisted Edwards curve birationally equivalent to
  Curve25519 (~252-bit order, ~128-bit security).  Points encode to the
  canonical 32-byte little-endian form.

* ``ModPGroup`` -- a multiplicative subgroup of Z_p^*.  Its only
  shipped instance is the deliberately tiny p=23, q=11 group whose
  discrete logs are recoverable by exhaustive search, used as a
  brute-force oracle in tests.

Group elements are opaque values (compare with ``==``); scalars are
plain ints in [0, q-1].  The arithmetic here is mathematically correct
but makes no attempt at constant-time execution; resistance to timing
side channels is best-effort only.

Verification of the aggregate scheme checks R == Y^e * g^s for a public
key Y that recurs across many batches, so the group offers a per-base
precomputation.  ``precompute(Y)`` checks that Y lies in the order-q
subgroup and returns a table; ``exp2(table, e, s)`` then returns
Y^e * g^s.  On edwards25519 the table is a fixed-base comb of signed
4-bit digits (64 rows of the multiples 0..8, the same layout as the
generator's own table), so Y^e costs at most 64 additions instead of
about 380 additions and doublings, and the result needs one field
inversion.  Building a table and checking [q]Y costs about 550 curve
operations (3.5-5 ms on a 2 vCPU host, Python 3.11) and saves about
3 ms per check, so it breaks even at the second batch of a key; a run
with one batch per key pays about 2 ms more per key.  Tables belong to
the caller of one verification run, which builds each lazily on a key's
first batch and drops them with the run; nothing here caches per-key
tables.  ``ModPGroup`` has the trivial version: its table is the base
itself.
"""

from __future__ import annotations

TAG_TINY = 0x00
TAG_EDWARDS = 0x01

SCALAR_LEN = 32
ELEMENT_LEN = 32


def encode_scalar(value: int) -> bytes:
    return value.to_bytes(SCALAR_LEN, "big")


class PrimeOrderGroup:
    """Interface shared by both backends.

    Attributes:
        backend_tag: one-byte wire identifier of the group.
        p: prime modulus of the ambient structure.
        q: prime order of the subgroup.
        generator: fixed generator of the order-q subgroup.
        identity: neutral element.
    """

    backend_tag: int
    p: int
    q: int

    def exp(self, base, k: int):
        raise NotImplementedError

    def precompute(self, base):
        """Table for ``exp2`` with ``base`` fixed.

        Raises ValueError unless ``base`` lies in the order-q subgroup,
        so a table exists only for a valid public key.
        """
        raise NotImplementedError

    def exp2(self, table, e: int, s: int):
        """``base^e * generator^s`` for ``table = precompute(base)``."""
        raise NotImplementedError

    def mul(self, a, b):
        """Group operation on two elements."""
        raise NotImplementedError

    def encode_element(self, e) -> bytes:
        raise NotImplementedError

    def decode_element(self, data: bytes):
        raise NotImplementedError

    def contains(self, e) -> bool:
        """Full order-q subgroup membership check (may cost an exp)."""
        raise NotImplementedError

    def decode_scalar(self, data: bytes) -> int:
        if len(data) != SCALAR_LEN:
            raise ValueError("scalar encoding must be 32 bytes")
        value = int.from_bytes(data, "big")
        if value >= self.q:
            raise ValueError("scalar not canonical (>= group order)")
        return value


class ModPGroup(PrimeOrderGroup):
    """Order-q subgroup of Z_p^* generated by ``alpha``, q | p-1."""

    backend_tag = TAG_TINY

    def __init__(self, p: int, q: int, alpha: int):
        if (p - 1) % q != 0:
            raise ValueError("q must divide p-1")
        if pow(alpha, q, p) != 1 or alpha == 1:
            raise ValueError("alpha does not generate an order-q subgroup")
        self.p = p
        self.q = q
        self.generator = alpha
        self.identity = 1

    def exp(self, base: int, k: int) -> int:
        return pow(base, k % self.q, self.p)

    def precompute(self, base: int) -> int:
        if not self.contains(base):
            raise ValueError("element is not in the prime-order subgroup")
        return base

    def exp2(self, table: int, e: int, s: int) -> int:
        return self.mul(self.exp(table, e), self.exp(self.generator, s))

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def encode_element(self, e: int) -> bytes:
        # padded to 32 bytes for wire-format uniformity with the curve backend
        return e.to_bytes(ELEMENT_LEN, "big")

    def decode_element(self, data: bytes) -> int:
        if len(data) != ELEMENT_LEN:
            raise ValueError("element encoding must be 32 bytes")
        value = int.from_bytes(data, "big")
        if not 0 < value < self.p or pow(value, self.q, self.p) != 1:
            raise ValueError("encoding is not a subgroup element")
        return value

    def contains(self, e: int) -> bool:
        return 0 < e < self.p and pow(e, self.q, self.p) == 1


# --- Edwards curve backend -------------------------------------------------

_P = 2**255 - 19
_Q = 2**252 + 27742317777372353535851937790883648493
_D = -121665 * pow(121666, _P - 2, _P) % _P
_SQRT_M1 = pow(2, (_P - 1) // 4, _P)
_BASE_X = 15112221349535400772501151409588531511454012693041857206046113283949847762202
_BASE_Y = 46316835694926478169428394003475163141307993866256225615783033603165251855960

# extended homogeneous coordinates (X : Y : Z : T), XY = ZT, a = -1
_EXT_IDENTITY = (0, 1, 1, 0)
_D2 = 2 * _D % _P


def _ext_add(lhs, rhs):
    x1, y1, z1, t1 = lhs
    x2, y2, z2, t2 = rhs
    a = (y1 - x1) * (y2 - x2) % _P
    b = (y1 + x1) * (y2 + x2) % _P
    c = t1 * _D2 % _P * t2 % _P
    d = 2 * z1 * z2 % _P
    e = b - a
    f = d - c
    g = d + c
    h = b + a
    return (e * f % _P, g * h % _P, f * g % _P, e * h % _P)


def _ext_double(pt):
    x1, y1, z1, _ = pt
    a = x1 * x1 % _P
    b = y1 * y1 % _P
    c = 2 * z1 * z1 % _P
    h = a + b
    e = h - (x1 + y1) ** 2 % _P
    g = a - b
    f = c + g
    return (e * f % _P, g * h % _P, f * g % _P, e * h % _P)


def _to_ext(pt):
    x, y = pt
    return (x, y, 1, x * y % _P)


def _from_ext(pt):
    x, y, z, _ = pt
    inv = pow(z, -1, _P)
    return (x * inv % _P, y * inv % _P)


def _on_curve(x: int, y: int) -> bool:
    # -x^2 + y^2 = 1 + d x^2 y^2
    return (-x * x + y * y - 1 - _D * x * x % _P * y % _P * y) % _P == 0


_WINDOW = 4
_WINDOWS = 64  # covers 256 bits of scalar


def _comb_table(base):
    """Fixed-base comb for an extended point: row i holds [d * 16^i]base
    for d = 0..8; digits 9..15 are used as d - 16 with a carry."""
    table = []
    for _ in range(_WINDOWS):
        row = [_EXT_IDENTITY, base]
        for _ in range(7):
            row.append(_ext_add(row[-1], base))
        table.append(row)
        base = _ext_double(row[8])  # [16]base, the next row's unit
    return table


def _comb_exp(table, k: int):
    """[k]base from its comb table, exact for 0 <= k < 2^255."""
    acc = _EXT_IDENTITY
    for row in table:
        digit = k & 0xF
        k >>= _WINDOW
        if digit > 8:
            k += 1
            x, y, z, t = row[16 - digit]
            acc = _ext_add(acc, (-x, y, z, -t))
        elif digit:
            acc = _ext_add(acc, row[digit])
        if not k:
            break
    return acc


def _ext_exp(base, k: int):
    """[k]base by double-and-add, without reducing k."""
    acc = _EXT_IDENTITY
    for bit in bin(k)[2:]:
        acc = _ext_double(acc)
        if bit == "1":
            acc = _ext_add(acc, base)
    return acc


class Edwards25519Group(PrimeOrderGroup):
    """Prime-order subgroup of edwards25519, affine (x, y) elements."""

    backend_tag = TAG_EDWARDS

    def __init__(self):
        self.p = _P
        self.q = _Q
        self.generator = (_BASE_X, _BASE_Y)
        self.identity = (0, 1)
        self._gen_table = None  # comb table of the generator, built lazily

    def _generator_table(self):
        if self._gen_table is None:
            self._gen_table = _comb_table(_to_ext(self.generator))
        return self._gen_table

    def exp(self, base, k: int):
        k %= self.q
        if base == self.generator:
            return _from_ext(_comb_exp(self._generator_table(), k))
        return _from_ext(_ext_exp(_to_ext(base), k))

    def precompute(self, base):
        if not _on_curve(*base):
            raise ValueError("element is not a curve point")
        table = _comb_table(_to_ext(base))
        # [q]base from the comb is exact, so this is the subgroup check
        if _from_ext(_comb_exp(table, self.q)) != self.identity:
            raise ValueError("element is not in the prime-order subgroup")
        return table

    def exp2(self, table, e: int, s: int):
        return _from_ext(
            _ext_add(
                _comb_exp(table, e % self.q),
                _comb_exp(self._generator_table(), s % self.q),
            )
        )

    def mul(self, a, b):
        return _from_ext(_ext_add(_to_ext(a), _to_ext(b)))

    def encode_element(self, e) -> bytes:
        x, y = e
        return (y | ((x & 1) << 255)).to_bytes(ELEMENT_LEN, "little")

    def decode_element(self, data: bytes):
        if len(data) != ELEMENT_LEN:
            raise ValueError("element encoding must be 32 bytes")
        raw = int.from_bytes(data, "little")
        sign = raw >> 255
        y = raw & ((1 << 255) - 1)
        if y >= _P:
            raise ValueError("encoding is not canonical")
        # recover x from the curve equation
        y2 = y * y % _P
        num = (y2 - 1) % _P
        den = (_D * y2 + 1) % _P
        x2 = num * pow(den, -1, _P) % _P
        x = pow(x2, (_P + 3) // 8, _P)
        if x * x % _P != x2:
            x = x * _SQRT_M1 % _P
        if x * x % _P != x2:
            raise ValueError("encoding is not a curve point")
        if x == 0 and sign:
            raise ValueError("encoding is not canonical")
        if x & 1 != sign:
            x = _P - x
        return (x, y)

    def contains(self, e) -> bool:
        x, y = e
        if not _on_curve(x, y):
            return False
        # exp would reduce q to 0; the order check needs the full scalar
        return _from_ext(_ext_exp(_to_ext(e), self.q)) == self.identity


_tiny = None
_production = None


def small_test_group() -> ModPGroup:
    """Fixed 11-element oracle group: p=23, q=11, generator 2."""
    global _tiny
    if _tiny is None:
        _tiny = ModPGroup(23, 11, 2)
    return _tiny


def production_group() -> Edwards25519Group:
    global _production
    if _production is None:
        _production = Edwards25519Group()
    return _production


def group_by_tag(tag: int) -> PrimeOrderGroup:
    if tag == TAG_TINY:
        return small_test_group()
    if tag == TAG_EDWARDS:
        return production_group()
    raise ValueError(f"unknown group backend tag {tag:#04x}")
