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
precomputation.  ``precompute(data)`` decodes the key's 32-byte
encoding, checks that it lies in the order-q subgroup and returns a
table; ``exp2(table, e, s)`` then returns Y^e * g^s, whose encoding a
verifier compares with R's bytes (R itself is never decoded).

On edwards25519 the table is a fixed-base comb of signed 4-bit digits:
64 rows, row i holding the multiples 0..8 of [16^i]Y, the same layout as
the generator's own table.  Every entry is kept in projective Niels form
(Y+X, Y-X, 2Z, 2d*T) (Bernstein et al., CHES 2011), so adding one to an
extended-coordinate accumulator costs 8 field multiplications (Hisil et
al., ASIACRYPT 2008) and a negative digit only swaps the first two
entries and negates the last.  The entries are not normalised to affine
form: with one batch inversion per table the build cost about 60% more
on a prototype, which cancelled the cheaper additions' saving over the
16 batches of one key a run checks.  ``exp2`` runs both combs into one
accumulator, at most 128 additions and one field inversion, where a
variable-base Y^e alone takes about 380 additions and doublings.
Building a table and checking [q]Y with it costs about 570 curve
operations (3.7-6 ms on a 2 vCPU host, Python 3.11, the key's decode
included) and saves about 2-3.5 ms per check, so it breaks even at about
the second batch of a key; a run with one batch per key pays about 2-3
ms more per key.  Tables belong to the caller of one verification run,
which builds each lazily on a key's first batch and drops them with the
run; nothing here caches per-key tables.  ``ModPGroup`` has the trivial
version: its table is the base itself.

``decode_element`` accepts only canonical encodings of elements of the
order-q subgroup; on edwards25519 the subgroup check is a [q]P by
double-and-add (about 2-3.4 ms), paid by no verification path.
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

    def precompute(self, data: bytes):
        """Table for ``exp2`` whose base is the element ``data`` encodes.

        Raises ValueError unless ``data`` canonically encodes an element
        of the order-q subgroup, so a table exists only for a valid
        public key.  The key is decoded here, with one subgroup check.
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
        """The element ``data`` canonically encodes; ValueError unless it
        lies in the order-q subgroup (may cost an exp)."""
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

    def precompute(self, data: bytes) -> int:
        return self.decode_element(data)  # the table is the base itself

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
_NIELS_IDENTITY = (1, 1, 2, 0)


def _to_niels(pt):
    """Projective Niels form (Y+X, Y-X, 2Z, 2d*T) of an extended point,
    the form ``_niels_add`` adds.  Its negation swaps the first two
    entries and negates the last."""
    x, y, z, t = pt
    return (y + x, y - x, 2 * z, _D2 * t % _P)


def _niels_add(acc, ypx, ymx, z2, t2d):
    """acc + the point whose Niels form is (ypx, ymx, z2, t2d), in
    extended coordinates: the unified a = -1 addition of Hisil et al.,
    8 multiplications, complete on this curve."""
    x1, y1, z1, t1 = acc
    a = (y1 - x1) * ymx % _P
    b = (y1 + x1) * ypx % _P
    c = t1 * t2d % _P
    d = z1 * z2 % _P
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


def _is_identity(pt) -> bool:
    x, y, z, _ = pt
    return x % _P == 0 and (y - z) % _P == 0


def _decode_point(data: bytes):
    """The curve point a canonical 32-byte encoding names, in or out of
    the prime-order subgroup; ValueError for any other input."""
    if len(data) != ELEMENT_LEN:
        raise ValueError("element encoding must be 32 bytes")
    raw = int.from_bytes(data, "little")
    sign = raw >> 255
    y = raw & ((1 << 255) - 1)
    if y >= _P:
        raise ValueError("encoding is not canonical")
    # recover x from the curve equation -x^2 + y^2 = 1 + d x^2 y^2
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


_WINDOW = 4
_WINDOWS = 64  # covers 256 bits of scalar


def _comb_table(base):
    """Fixed-base comb of an extended point: row i holds the Niels forms
    of [d * 16^i]base for d = 0..8; digits 9..15 are used as d - 16
    with a carry."""
    table = []
    for _ in range(_WINDOWS):
        ypx, ymx, z2, t2d = unit = _to_niels(base)
        row = [_NIELS_IDENTITY, unit]
        for _ in range(7):
            base = _niels_add(base, ypx, ymx, z2, t2d)
            row.append(_to_niels(base))
        table.append(row)
        base = _ext_double(base)  # [16]base, the next row's unit
    return table


def _comb_add(acc, table, k: int):
    """acc + [k]base for base's comb table, exact for 0 <= k < 2^255."""
    for row in table:
        digit = k & 0xF
        k >>= _WINDOW
        if digit > 8:
            k += 1
            ypx, ymx, z2, t2d = row[16 - digit]
            acc = _niels_add(acc, ymx, ypx, z2, -t2d)
        elif digit:
            acc = _niels_add(acc, *row[digit])
        if not k:
            break
    return acc


def _ext_exp(base, k: int):
    """[k]base by double-and-add, without reducing k."""
    unit = _to_niels(base)
    acc = _EXT_IDENTITY
    for bit in bin(k)[2:]:
        acc = _ext_double(acc)
        if bit == "1":
            acc = _niels_add(acc, *unit)
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
            return _from_ext(_comb_add(_EXT_IDENTITY, self._generator_table(), k))
        return _from_ext(_ext_exp(_to_ext(base), k))

    def precompute(self, data: bytes):
        table = _comb_table(_to_ext(_decode_point(data)))
        # [q]base from the comb is exact, so this is the subgroup check
        if not _is_identity(_comb_add(_EXT_IDENTITY, table, self.q)):
            raise ValueError("element is not in the prime-order subgroup")
        return table

    def exp2(self, table, e: int, s: int):
        acc = _comb_add(_EXT_IDENTITY, table, e % self.q)
        return _from_ext(_comb_add(acc, self._generator_table(), s % self.q))

    def mul(self, a, b):
        return _from_ext(_niels_add(_to_ext(a), *_to_niels(_to_ext(b))))

    def encode_element(self, e) -> bytes:
        x, y = e
        return (y | ((x & 1) << 255)).to_bytes(ELEMENT_LEN, "little")

    def decode_element(self, data: bytes):
        point = _decode_point(data)
        # exp would reduce q to 0; the order check needs the full scalar
        if not _is_identity(_ext_exp(_to_ext(point), self.q)):
            raise ValueError("element is not in the prime-order subgroup")
        return point


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
