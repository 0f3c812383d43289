"""Bases of the record types.

The immutable records of ``hases`` (parameters, signatures,
commitments, key material, bundles) are named tuples; the ones whose
fields are checked as they are made put ``CheckedTuple`` first.  The
ones that change in place (the signer states and the hash counters) are
``__slots__`` classes on ``SlotRecord``: equal when of one type with
equal fields, and unhashable, as a value that changes should be.
Neither kind imports ``dataclasses``, whose ``inspect`` import and
per-class code generation every process start would pay.
"""


class CheckedTuple:
    """Put first among the bases of a named tuple whose ``__new__`` checks
    its fields: ``_make``, and with it ``_replace``, then build through
    that ``__new__`` too, where a plain named tuple skips it."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class SlotRecord:
    """Field-wise ``==`` and ``repr`` over the subclass's ``__slots__``."""

    __slots__ = ()
    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
