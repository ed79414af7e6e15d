"""Exact rational parsing and formatting.

Every payoff, probability, and threshold in this package is a
fractions.Fraction.  Interchange files carry rationals as strings ("3",
"-5", "1/3"); floats are rejected everywhere so that verdicts, which hinge
on strict inequalities, never depend on rounding.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError

# typographic minus, accepted on input and normalized to ASCII
_MINUS = "−"


def parse_rational(value, where: str = "value") -> Fraction:
    """Parse an exact rational from a string or integer.

    Accepts "3", "-5", "1/3", U+2212 minus signs, and plain ints.  Decimal
    points, exponents, digit-group underscores, non-ASCII digits, floats,
    and booleans are rejected, so every accepted string has one canonical
    form.
    """
    if isinstance(value, bool):
        raise InputError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if not isinstance(value, str):
        raise InputError(
            f"{where}: expected a rational string, got {type(value).__name__}"
        )
    cleaned = value.strip().replace(_MINUS, "-")
    if (not cleaned or not cleaned.isascii() or "_" in cleaned
            or "." in cleaned or "e" in cleaned.lower()):
        raise InputError(f"{where}: malformed rational {value!r}")
    try:
        return Fraction(cleaned)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"{where}: malformed rational {value!r}") from exc


def format_rational(value) -> str:
    """Canonical string form: "5", "-5", or "1/3"."""
    frac = Fraction(value)
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
