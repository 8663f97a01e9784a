"""The frozen value-type base of the package's record classes, and the
checks and message forms that the modules share.

A subclass lists its fields in ``_fields``, declares ``__slots__`` (the
fields, plus any cache slots or ``__dict__`` it needs) and sets each field
in its own ``__init__`` through ``_setters``: the fields' slot setters in
``_fields`` order, bound once per class by ``__init_subclass__``. It gets
equality and hashing over the fields, only ever equal to an instance of
the same class; a repr that names every field; ``AttributeError`` on
assignment and deletion; and copying and pickling through ``__init__``.
A cache slot outside ``_fields`` is set with ``object.__setattr__``.

A slot setter writes the slot past the frozen ``__setattr__``, as
``object.__setattr__`` does, without its lookup of the name: a
three-field ``Vertex`` takes about 340 ns to build with the setters and
525 ns with ``object.__setattr__`` per field (CPython 3.11), and
random_instance builds one ``Vertex`` per move. The ``__init__`` methods
are written out per class: a generic constructor looping over ``*args``
is slower to call. Nothing is generated at import time (no ``exec``),
and nothing beyond ``math``, ``operator`` and ``errors`` is imported:
the standard library's class generator pulls in ``inspect``, ``ast`` and
``dis``, and every ``redjumps`` process pays for its imports.

``_check_int``, ``_shown``, ``_quoted``, ``_ratio`` and ``Fraction``
(imported on first use: no command needs one) live here so that the
modules share them without importing each other.
"""

from math import gcd
from operator import attrgetter

from .errors import PreconditionFailed


class Value:
    """Frozen record: equality, hash and repr over ``_fields``."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the fields' values in one C call: a tuple, or the value itself
        # for a single field
        cls._key = attrgetter(*cls._fields)
        # each field's slot setter, bound once: getattr finds a slot that
        # a parent class declares too
        cls._setters = tuple([getattr(cls, name).__set__ for name in cls._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is frozen")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is frozen")

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self._fields])


def _check_int(name, x, low=1):
    """Refuse x with PreconditionFailed unless it is an int (not a bool) of
    at least low, 0 or 1; low=None takes any int."""
    if not isinstance(x, int) or isinstance(x, bool) or (low is not None and x < low):
        kind = {None: "an", 0: "a non-negative", 1: "a positive"}[low]
        raise PreconditionFailed(f"{name} must be {kind} integer, got {_quoted(x)}")


def _shown(x, form=repr):
    """form(x), repr or str, for a refusal message. An int wider than 128
    bits, of 39 digits or more, is named by its bit length: str() refuses
    one of 4301 digits. A value whose form raises, such as a tuple holding
    such an int, is named by its type."""
    if isinstance(x, int) and x.bit_length() > 128:
        return f"{'-' * (x < 0)}<{x.bit_length()}-bit int>"
    try:
        return form(x)
    except Exception:
        return f"<unprintable {type(x).__name__}>"


def _ratio(a, d):
    """a/d, d > 0, as ``str(Fraction(a, d))`` writes it: "0", "1", "3/4"."""
    k = gcd(a, d)
    return str(a // k) if k == d else f"{a // k}/{d // k}"


def _quoted(x):
    """_shown(x) cut to 40 characters, ending in "...", so a message stays short."""
    text = _shown(x)
    return text if len(text) <= 40 else text[:37] + "..."


def __getattr__(name):  # Fraction, bound as a global on its first use
    if name != "Fraction":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from fractions import Fraction

    globals()[name] = Fraction
    return Fraction
