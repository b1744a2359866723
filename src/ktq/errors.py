"""Exception taxonomy and the value-record base of the ktq library.

Every error raised on purpose derives from KtqError so callers can fence off
library failures from genuine bugs; `Record` is the base of all value records.
"""


class Record:
    """An immutable value: a subclass names its fields in `__slots__` and takes
    them in order.  ==, hash and repr go by the fields; == holds within a class."""

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):  # (class, field values): what copy, pickle, == and hash go by
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.__reduce__() == other.__reduce__()

    def __hash__(self):
        return hash(self.__reduce__()[1])

    def __repr__(self):
        fields = map("{}={!r}".format, self.__slots__, self.__reduce__()[1])
        return f"{type(self).__name__}({', '.join(fields)})"


class KtqError(Exception):
    """Base class for all library errors."""


class FieldError(KtqError):
    """Invalid field construction or coefficient-level operation."""


class SeriesError(KtqError):
    """Series invariant violation, context mismatch, or unmet precondition."""


class PrecisionError(KtqError):
    """Requested information is not certified at the available caps."""


class NoSolutionError(KtqError):
    """An additive equation has no solution (constant-level obstruction)."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ExpHomError(KtqError):
    """Exponent homomorphism query outside the committed lattice, or
    incoherent commitments."""


class OrbitError(KtqError):
    """Orbit classification or witness construction is impossible for the
    given input at its current precision."""


class ParseError(KtqError):
    """Syntax error in an expression, series, or polynomial literal."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position
