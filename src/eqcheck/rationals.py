"""Exact rational parsing and formatting.

Every payoff, probability, and threshold in this package is a
fractions.Fraction.  Interchange files carry rationals as strings ("3",
"-5", "1/3"); floats are rejected everywhere so that verdicts, which hinge
on strict inequalities, never depend on rounding.

The accepted strings are exactly [-+]?[0-9]+(/[0-9]+)? with a nonzero
denominator, after U+2212 minus signs become "-".  Whitespace may
surround the whole string but nowhere inside it ("1 / 2" is refused),
whichever Python runs this.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InputError

# typographic minus, accepted on input and normalized to ASCII
_MINUS = "−"

_RATIONAL = re.compile(r"([-+]?[0-9]+)(?:/([0-9]+))?")


def parse_rational(value, where: str = "value") -> Fraction:
    """Parse an exact rational from a string or integer.

    Accepts "3", "-5", "1/3", U+2212 minus signs, and plain ints.  Decimal
    points, exponents, digit-group underscores, non-ASCII digits, inner
    whitespace, floats, and booleans are rejected, so every accepted
    string has one canonical form.
    """
    if isinstance(value, str):
        match = _RATIONAL.fullmatch(value.strip().replace(_MINUS, "-"))
        try:
            if match and match[2] is None:
                return Fraction(int(match[1]))
            if match and int(match[2]) != 0:
                return Fraction(int(match[1]), int(match[2]))
        except ValueError:  # more digits than int() converts
            pass
        raise InputError(f"{where}: malformed rational {value!r}")
    if isinstance(value, bool):
        raise InputError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise InputError(
        f"{where}: expected a rational string, got {type(value).__name__}")


def format_rational(value) -> str:
    """Canonical string form: "5", "-5", or "1/3"."""
    frac = value if type(value) is Fraction else Fraction(value)
    if frac.denominator == 1:
        return str(frac.numerator)
    return f"{frac.numerator}/{frac.denominator}"


def as_fraction(value, where: str = "value") -> Fraction:
    """Coerce an int or Fraction to Fraction; anything else is an error."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise InputError(
        f"{where}: expected an exact rational, got {type(value).__name__}"
    )
