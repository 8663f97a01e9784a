"""The frozen value-type base of the package's record classes, the
integer draw the seeded generators share, and the check they make of their
integer arguments.

A subclass lists its fields in ``_fields``, declares ``__slots__`` (the
fields, plus any cache slots or ``__dict__`` it needs) and sets each field
in its own ``__init__`` with ``object.__setattr__``. It gets equality and
hashing over the fields, only ever equal to an instance of the same class;
a repr that names every field; ``AttributeError`` on assignment and
deletion; and copying and pickling through ``__init__``.

The ``__init__`` methods are written out per class: a generic constructor
looping over ``*args`` is slower to call, and random_instance builds one
``Vertex`` per move, thousands in a long run. Nothing is generated at
import time (no ``exec``), and nothing beyond ``operator`` and ``errors``
is imported: the standard library's class generator pulls in
``inspect``, ``ast`` and ``dis``, and every ``redjumps`` process pays for
its imports.

``_below`` and ``_check_int`` live here so that ``catalog`` and
``lattices`` share them without either importing the other.
"""

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


def _below(rng, n):
    """A uniform int in [0, n) from a random.Random, for an int n >= 1.

    CPython 3.11's rejection loop (``Random._randbelow_with_getrandbits``):
    draw k = n.bit_length() bits, again while the draw is >= n. randrange(n),
    randrange(a, a + n), randint(a, a + n - 1) and choice over n items all
    make exactly this draw, so the value and the generator's state after it
    are theirs. n must be >= 1: getrandbits(0) is 0, so n = 0 never ends.
    """
    getrandbits = rng.getrandbits
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _check_int(name, x, low=1):
    """Refuse x with PreconditionFailed unless it is an int (not a bool) of
    at least low, 0 or 1; low=None takes any int."""
    if not isinstance(x, int) or isinstance(x, bool) or (low is not None and x < low):
        kind = {None: "an", 0: "a non-negative", 1: "a positive"}[low]
        raise PreconditionFailed(f"{name} must be {kind} integer, got {x!r}")
