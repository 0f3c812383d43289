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
verifier compares with R's bytes (R itself is never decoded), and
``exp_table(table, e)`` returns Y^e from the table alone.  Every
table is built by ``precompute``, keygen's own keys' included, and
``table_bytes`` and ``table_from_bytes`` carry one to and from the key
table file that ``hases.keyfiles`` writes beside a verifier bundle.

On edwards25519 there is one multiplication algorithm: a comb of
signed digits (Lim and Lee, CRYPTO '94), built by one routine with a
row count and a digit width and walked by another, which reads the
width from the length of the rows.  The generator's comb has 32 rows
of 8-bit digits, row i holding the multiples 1..128 of [2^(8i)]g, and
a scalar's 32 digits each add one entry with no doubling.  It is built
on a process's first fixed-base exponentiation, in 20-35 ms (4,064
additions), and holds about 1.1 MB; each exponentiation then costs
at most 32 additions, about 170 us against 280 us for the 64 rows of
4-bit digits it replaced (3-5 ms, 132 KB), so the larger build is
repaid after about 150 exponentiations.  Widths 6 and 7 (43 and 37
rows) build in 7-10 and 11-15 ms, hold 350 and 620 KB, and take about
205 and 180 us (one-column combs, a 2 vCPU host, Python 3.11).  A
key's, and any other base's, comb has 16 rows of 4-bit digits 2^16
apart, row i holding the multiples 1..8 of [2^(16i)]Y, walked in 4
columns with 12 doublings in all (2-2.5 ms to build, 16 KB in a table
file).  Every entry is kept in projective Niels form (Y+X, Y-X, 2Z,
2d*T) (Bernstein et al., CHES 2011), so adding one to an
extended-coordinate accumulator costs 8 field multiplications (Hisil
et al., ASIACRYPT 2008) and a negative digit only swaps the first two
entries and negates the last; the entries are not normalised to affine
form.  A comb is a list of rows, each one flat tuple of its entries'
coordinates, entry d at offset 4(d - 1); a digit 0 adds nothing, so no
row holds the identity.  That is one object a row, not one an entry:
``tracemalloc`` counts 1.15 MB for the generator's comb, against 1.35
MB as 129 4-tuples a row, and 36.5 KB for a key's comb decoded from
its table file, against 43.6 KB (``bench/layers.py``'s
``traced_bytes`` sizes, Python 3.11).  A key table file holds each
row's coordinates in order, reduced mod p.  ``exp2`` walks the key
comb, then adds the generator's comb to the
same accumulator: at most 96 additions, 12 doublings and one
field inversion, where building a key's comb alone takes 112 additions
and 208 doublings.  ``exp_table`` is its first half: at most 64
additions, 12 doublings and the inversion.  ``precompute`` checks [q]Y
with the key comb (2-3.5 ms in all, the key's decode included).

An online verifier makes one ``exp_table`` per signer per chunk (a
combined check, see ``hases.la``: the service folds the generator's
half into the fixed-base exponentiation it makes anyway).  So it
builds the generator's comb only when a combined check fails and each
unit is checked alone with ``exp2``, as offline verification checks
every unit, and a table built in the run costs several times the one
check it serves.  Keygen therefore builds each key's table once and
writes it beside the bundle (16 KB per signer, read in about 0.25 ms);
a verifier reads the tables of the signers it checks and builds none.
Without that file the verifier builds each table on its key's first
batch and drops it with the run.  ``ModPGroup`` has the trivial
version: its table is the base itself.

``decode_element`` accepts only canonical encodings of elements of the
order-q subgroup; on edwards25519 the subgroup check is a [q]P on the
point's 16-row comb, as in ``precompute``.  A variable-base ``exp``
builds its base's 16-row comb and walks it once.  On edwards25519 no
command path calls either; the tests do, and the benchmark's span
tracer wraps both.
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

    table_len: int  # bytes of one table in a table file

    def table_bytes(self, table) -> bytes:
        """The ``table_len`` bytes a table file holds for ``table``."""
        raise NotImplementedError

    def table_from_bytes(self, data: bytes):
        """The table ``table_bytes`` wrote, taken on trust (the caller
        binds the file to its bundle); ValueError if the length is wrong."""
        raise NotImplementedError

    def exp_table(self, table, e: int):
        """``base^e`` for ``table = precompute(base)``, from the table alone."""
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

    table_len = ELEMENT_LEN

    def table_bytes(self, table: int) -> bytes:
        return self.encode_element(table)

    def table_from_bytes(self, data: bytes) -> int:
        if len(data) != self.table_len:
            raise ValueError(f"a key table is {self.table_len} bytes, not {len(data)}")
        return int.from_bytes(data, "big")

    def exp_table(self, table: int, e: int) -> int:
        return self.exp(table, e)

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


_SCALAR_BITS = 255  # every comb walks any scalar below 2^255 exactly, q included
_KEY_ROWS = 16  # a key's, or any other base's, comb: 4-bit digits in 4 columns
_KEY_WIDTH = 4
_GENERATOR_ROWS = 32  # the generator's comb: one row per 8-bit digit, one column
_GENERATOR_WIDTH = 8


def _columns(rows: int, width: int) -> int:
    """Columns of a comb of ``rows`` rows of ``width``-bit digits: a
    scalar below 2^255 has ceil(255 / width) of them, dealt to the rows."""
    digits = -(-_SCALAR_BITS // width)
    return -(-digits // rows)


def _comb_table(base, rows: int, width: int):
    """Fixed-base comb of an extended point in ``rows`` rows of signed
    ``width``-bit digits (Lim and Lee, CRYPTO '94): row i is one flat
    tuple of the Niels forms of [d * 2^(width*c*i)]base for d =
    1..2^(width-1), entry d at offset 4(d - 1), c = ``_columns(rows,
    width)`` the comb's columns; a digit d above 2^(width-1) is used as
    d - 2^width with a carry, and a digit 0 adds nothing."""
    spacing = width * _columns(rows, width)  # bits from one row to the next
    table = []
    for _ in range(rows):
        ypx, ymx, z2, t2d = unit = _to_niels(base)
        row = list(unit)
        for _ in range((1 << (width - 1)) - 1):
            base = _niels_add(base, ypx, ymx, z2, t2d)
            row += _to_niels(base)
        table.append(tuple(row))
        for _ in range(spacing - width + 1):  # from [2^(width-1)]unit to the next row's unit
            base = _ext_double(base)
    return table


def _comb_add(acc, table, k: int):
    """[2^(w(c-1))]acc + [k]base for base's comb table of c columns of
    w-bit digits, w read from the length of its rows, exact for
    0 <= k < 2^255.  Digit j of k lies in row j // c, column j % c; the
    columns are walked from the top, w doublings apart, so a one-column
    table (the generator's) adds to acc with no doubling."""
    half = len(table[0]) // 4
    width = half.bit_length()
    mask = (1 << width) - 1
    digits = []
    while k:
        digit = k & mask
        k >>= width
        if digit > half:
            digit -= mask + 1
            k += 1
        digits.append(digit)
    columns = _columns(len(table), width)
    for column in range(columns - 1, -1, -1):
        if column < columns - 1:
            for _ in range(width):
                acc = _ext_double(acc)
        for row, digit in zip(table, digits[column::columns]):
            if digit > 0:  # entry d at offset 4(d - 1)
                i = 4 * digit
                acc = _niels_add(acc, row[i - 4], row[i - 3], row[i - 2], row[i - 1])
            elif digit:  # the entry of -d, negated: Y+X and Y-X swapped, 2d*T negated
                i = -4 * digit
                acc = _niels_add(acc, row[i - 3], row[i - 4], row[i - 2], -row[i - 1])
    return acc


def _key_comb(point):
    """The 16-row comb of an affine point, as every base but the generator has."""
    return _comb_table(_to_ext(point), _KEY_ROWS, _KEY_WIDTH)


def _order_checked(table):
    """``table``, the comb of a curve point P; ValueError unless [q]P is
    the identity.  [q]P from the comb is exact, q being below 2^255."""
    if not _is_identity(_comb_add(_EXT_IDENTITY, table, _Q)):
        raise ValueError("element is not in the prime-order subgroup")
    return table


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
            self._gen_table = _comb_table(
                _to_ext(self.generator), _GENERATOR_ROWS, _GENERATOR_WIDTH)
        return self._gen_table

    def exp(self, base, k: int):
        if base == self.generator:
            table = self._generator_table()
        else:
            table = _key_comb(base)
        return _from_ext(_comb_add(_EXT_IDENTITY, table, k % self.q))

    def precompute(self, data: bytes):
        return _order_checked(_key_comb(_decode_point(data)))

    table_len = _KEY_ROWS * 8 * 4 * 32  # 8 Niels entries a row, 4 coordinates mod p each

    def table_bytes(self, table) -> bytes:
        # rows in order, each entry's coordinates in order
        return b"".join((coordinate % _P).to_bytes(32, "little")
                        for row in table for coordinate in row)

    def table_from_bytes(self, data: bytes):
        if len(data) != self.table_len:
            raise ValueError(f"a key table is {self.table_len} bytes, not {len(data)}")
        coordinates = [int.from_bytes(data[i : i + 32], "little") for i in range(0, len(data), 32)]
        return [tuple(coordinates[i : i + 32]) for i in range(0, len(coordinates), 32)]

    def exp_table(self, table, e: int):
        return _from_ext(_comb_add(_EXT_IDENTITY, table, e % self.q))

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
        _order_checked(_key_comb(point))
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
