"""Check reports: one record per verified condition, with a reproducible witness."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

PASS = "PASS"
FAIL = "FAIL"
INFO = "INFO"


def _format_value(v) -> str:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one named check.

    ``params`` identify the exact run (so a FAIL is reproducible from the
    report alone); ``witness`` carries the first failure location and the
    offending values, or supporting data for INFO diagnostics.
    """

    check_id: str
    verdict: str
    params: tuple = ()
    witness: tuple = ()

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
