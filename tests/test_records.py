"""Value semantics of every record type: named tuples and ``__slots__`` records.

Each case builds a record twice from equal fields, and once more for each
field with that field changed.  Equal fields give equal records with
equal hashes (or no hash, for a record that changes in place or holds a
dict); any changed field gives an unequal record.  The immutable records
refuse assignment, and the serialized ones read back from their bytes.
"""

import pytest

from conftest import bench_layers
from hases import hashing, hy, keyfiles, la, pq
from hases.group import small_test_group

bench = bench_layers()  # the layer benchmark's report records

GROUP = small_test_group()
ID, OTHER = bytes(range(16)), bytes(16)
PQ_PARAMS = pq.PqParams(t=16, k=2, j1=2, j2=4)
LA_PARAMS = la.LaParams(GROUP, 8, 2)
SEED = bytes(range(32, 64))
PARTS = b"\x01" * 32 + b"\x02" * 32  # a pq signature body: k = 2 strings
BODY = bytes(range(256)) * 2  # t = 16 entries of 32 bytes


def la_signature(agg=3):
    return la.LaSignature(ID, 1, agg, SEED)


def la_commitment(r_bytes=b"\x05" * 32):
    return la.LaCommitment(ID, 1, 2, r_bytes)


def pq_material(msk=b"m" * 32):
    return pq.PqKeyMaterial(msk, PQ_PARAMS, {ID: (b"a" * 32,)})


def la_material(msk=b"m" * 32):
    return la.LaKeyMaterial(msk, LA_PARAMS, frozenset({ID}))


def group_parse(cls):
    return lambda data: cls.from_bytes(data, GROUP)


# name -> (type, fields(), a changed value per field, frozen, hashable,
#          parse of to_bytes or None)
CASES = {
    "HashCounters": (hashing.HashCounters, lambda: (1, 2, 3), (9, 9, 9), False, False, None),
    "PqParams": (pq.PqParams, lambda: (16, 2, 256, 2, 4), (32, 3, None, 4, 8), True, True,
                 pq.PqParams.from_bytes),
    "PqSignerState": (pq.PqSignerState, lambda: (ID, bytearray(SEED), 2, PQ_PARAMS),
                      (OTHER, bytearray(32), 3, pq.PqParams(t=32, k=2, j1=2, j2=4)),
                      False, False, pq.PqSignerState.from_bytes),
    "PqSignature": (pq.PqSignature, lambda: (ID, 2, PARTS), (OTHER, 3, PARTS[::-1]), True, True,
                    pq.PqSignature.from_bytes),
    "PqCommitment": (pq.PqCommitment, lambda: (ID, 2, BODY), (OTHER, 3, BODY[::-1]), True, True,
                     pq.PqCommitment.from_bytes),
    "PqKeyMaterial": (pq.PqKeyMaterial, lambda: tuple(pq_material()),
                      (b"n" * 32, pq.PqParams(t=32, k=2, j1=2, j2=4), {OTHER: (b"a" * 32,)}),
                      True, False, None),
    "LaParams": (la.LaParams, lambda: (GROUP, 8, 2), (None, 16, 4), True, True,
                 la.LaParams.from_bytes),
    "LaSignerState": (la.LaSignerState, lambda: (ID, 5, 2, LA_PARAMS),
                      (OTHER, 6, 3, la.LaParams(GROUP, 8, 4)), False, False,
                      la.LaSignerState.from_bytes),
    "LaSignature": (la.LaSignature, lambda: tuple(la_signature()), (OTHER, 2, 4, bytes(32)),
                    True, True, group_parse(la.LaSignature)),
    "LaCommitment": (la.LaCommitment, lambda: tuple(la_commitment()),
                     (OTHER, 2, 3, b"\x06" * 32), True, True, la.LaCommitment.from_bytes),
    "LaKeyMaterial": (la.LaKeyMaterial, lambda: tuple(la_material()),
                      (b"n" * 32, la.LaParams(GROUP, 8, 4), frozenset({OTHER})), True, True,
                      None),
    "HySignerState": (hy.HySignerState,
                      lambda: (la.LaSignerState(ID, 5, 2, LA_PARAMS),
                               pq.PqSignerState(ID, bytearray(SEED), 2, PQ_PARAMS)),
                      (la.LaSignerState(ID, 6, 2, LA_PARAMS),
                       pq.PqSignerState(ID, bytearray(32), 2, PQ_PARAMS)),
                      False, False, hy.HySignerState.from_bytes),
    "HySignature": (hy.HySignature, lambda: (la_signature(), pq.PqSignature(ID, 1, PARTS)),
                    (la_signature(agg=4), pq.PqSignature(ID, 1, PARTS[::-1])), True, True,
                    group_parse(hy.HySignature)),
    "HyCommitment": (hy.HyCommitment, lambda: (la_commitment(), pq.PqCommitment(ID, 1, BODY)),
                     (la_commitment(b"\x06" * 32), pq.PqCommitment(ID, 1, BODY[::-1])),
                     True, True, hy.HyCommitment.from_bytes),
    "HyKeyMaterial": (hy.HyKeyMaterial, lambda: (la_material(), pq_material()),
                      (la_material(b"n" * 32), pq_material(b"n" * 32)), True, False, None),
    "VerifierBundle": (keyfiles.VerifierBundle,
                       lambda: (hy.SIGNATURE_TAG, PQ_PARAMS, LA_PARAMS, {ID: b"\x05" * 32}),
                       (la.SIGNATURE_TAG, None, la.LaParams(GROUP, 8, 4), {OTHER: b"\x05" * 32}),
                       True, False, keyfiles.VerifierBundle.from_bytes),
    "OpStats": (bench.OpStats, lambda: ("sign", 18, 1.5, (1.0, 1.5, 2.0)),
                ("verify", 17, 2.5, (1.0, 2.5, 3.0)), True, True, None),
    "BenchReport": (bench.BenchReport, lambda: ("pq", {"t": 16}, [], {}),
                    ("la", {"t": 32}, [bench.OpStats("sign", 18, 1.5, (1.0, 1.5, 2.0))],
                     {"signature.total_bytes": 89}), True, False, None),
}


def changed(case, index):
    cls, fields, alternates, *_ = case
    values = list(fields())
    values[index] = alternates[index]
    return cls(*values)


@pytest.mark.parametrize("name", sorted(CASES))
def test_equal_fields_equal_values_and_hashes(name):
    cls, fields, _, _, hashable, _ = CASES[name]
    first, second = cls(*fields()), cls(*fields())
    assert first == second and not first != second
    if hashable:
        assert hash(first) == hash(second)
    else:
        with pytest.raises(TypeError):
            hash(first)


@pytest.mark.parametrize("name", sorted(CASES))
def test_one_changed_field_gives_an_unequal_value(name):
    case = CASES[name]
    cls, fields, alternates, *_ = case
    original = cls(*fields())
    indices = [n for n, value in enumerate(alternates) if value is not None]
    assert indices
    for index in indices:
        assert changed(case, index) != original, index


@pytest.mark.parametrize("name", sorted(name for name, case in CASES.items() if case[3]))
def test_immutable_records_refuse_assignment(name):
    cls, fields, *_ = CASES[name]
    record = cls(*fields())
    with pytest.raises(AttributeError):
        setattr(record, type(record)._fields[0], fields()[0])
    with pytest.raises(AttributeError):
        record.unknown = 1


@pytest.mark.parametrize("name", sorted(name for name, case in CASES.items() if not case[3]))
def test_records_that_change_in_place_take_assignment_to_their_fields_only(name):
    cls, fields, alternates, *_ = CASES[name]
    record = cls(*fields())
    setattr(record, cls.__slots__[0], alternates[0])
    assert record == changed(CASES[name], 0)
    with pytest.raises(AttributeError):
        record.unknown = 1


@pytest.mark.parametrize("name", sorted(name for name, case in CASES.items() if case[5]))
def test_bytes_round_trip(name):
    cls, fields, *_, parse = CASES[name]
    record = cls(*fields())
    blob = record.to_bytes()
    assert parse(blob) == record
    assert parse(blob).to_bytes() == blob


def test_constructors_still_check_their_fields():
    with pytest.raises(ValueError, match="power of two"):
        pq.PqParams(t=12)
    with pytest.raises(ValueError, match=">= 1"):
        la.LaParams(GROUP, 0, 2)
    with pytest.raises(ValueError, match="different signers"):
        hy.HySignerState(la.LaSignerState(OTHER, 5, 2, LA_PARAMS),
                         pq.PqSignerState(ID, bytearray(SEED), 2, PQ_PARAMS))
    with pytest.raises(ValueError, match="signatures disagree"):
        hy.HySignature(la_signature(), pq.PqSignature(ID, 2, PARTS))
    with pytest.raises(ValueError, match="commitments disagree"):
        hy.HyCommitment(la_commitment(), pq.PqCommitment(OTHER, 1, BODY))
    # ``_replace`` builds through the same check, as ``dataclasses.replace`` did
    with pytest.raises(ValueError, match="power of two"):
        PQ_PARAMS._replace(t=12)
    with pytest.raises(ValueError, match=">= 1"):
        LA_PARAMS._replace(batch_size=0)
    signature = hy.HySignature(la_signature(), pq.PqSignature(ID, 1, PARTS))
    with pytest.raises(ValueError, match="signatures disagree"):
        signature._replace(pq=pq.PqSignature(OTHER, 1, PARTS))
    commitment = hy.HyCommitment(la_commitment(), pq.PqCommitment(ID, 1, BODY))
    with pytest.raises(ValueError, match="commitments disagree"):
        commitment._replace(la=la.LaCommitment(ID, 2, 2, b"\x05" * 32))
    assert type(PQ_PARAMS._replace(t=32)) is pq.PqParams


def test_repr_names_the_type_and_its_fields():
    assert repr(PQ_PARAMS) == "PqParams(t=16, k=2, l=256, j1=2, j2=4)"
    assert repr(hashing.HashCounters(1, 2, 3)) == "HashCounters(calls_h0=1, calls_h1=2, calls_h2=3)"
