"""Check reports: one record per verified condition, with a reproducible witness."""

from __future__ import annotations

from fractions import Fraction

PASS = "PASS"
FAIL = "FAIL"
INFO = "INFO"


def format_symbol(v: Fraction) -> str:
    """``p/q`` in lowest terms, as report lines and TDSEQ files print a symbol."""
    return f"{v.numerator}/{v.denominator}"


def _format_value(v) -> str:
    # Nearly every value is an exact str, int or bool; their type tests come
    # before isinstance(v, Fraction), which goes through the ABC machinery.
    cls = type(v)
    if cls is str or cls is int:
        return str(v)
    if cls is bool:
        return "true" if v else "false"
    if isinstance(v, Fraction):
        return format_symbol(v)
    return str(v)


class Record:
    """An immutable record that compares, hashes and prints by its ``_fields``.

    Each subclass keeps its fields in ``__slots__`` and sets them in its own
    ``__init__`` with ``object.__setattr__``, after its checks.  Records are
    not dataclasses, whose import and generated methods every dlab process
    would pay at start-up (README, "Start-up").
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._values()


class CheckReport(Record):
    """Outcome of one named check.

    ``params`` identify the exact run (so a FAIL is reproducible from the
    report alone); ``witness`` carries the first failure location and the
    offending values, or supporting data for INFO diagnostics.
    """

    __slots__ = _fields = ("check_id", "verdict", "params", "witness")

    def __init__(
        self, check_id: str, verdict: str, params: tuple = (), witness: tuple = ()
    ):
        object.__setattr__(self, "check_id", check_id)
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "witness", witness)

    @property
    def passed(self) -> bool:
        return self.verdict != FAIL

    def line(self) -> str:
        parts = [f"CHECK {self.check_id} {self.verdict}"]
        for key, value in self.params:
            parts.append(f"{key}={_format_value(value)}")
        for key, value in self.witness:
            parts.append(f"{key}={_format_value(value)}")
        return " ".join(parts)
