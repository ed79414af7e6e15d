from fractions import Fraction

import pytest

from eqcheck.errors import InputError
from eqcheck.rationals import as_fraction, format_rational, parse_rational


def test_parse_plain_forms():
    assert parse_rational("3") == 3
    assert parse_rational("-5") == -5
    assert parse_rational("9/10") == Fraction(9, 10)
    assert parse_rational("-2/4") == Fraction(-1, 2)
    assert parse_rational("  7/3 ") == Fraction(7, 3)
    assert parse_rational(4) == 4


def test_parse_unicode_minus():
    assert parse_rational("−3") == -3
    assert parse_rational("−1/2") == Fraction(-1, 2)


@pytest.mark.parametrize("bad", ["", "1.5", "1/0", "a", "1/", "2e3", None])
def test_parse_rejects(bad):
    with pytest.raises(InputError):
        parse_rational(bad)


def test_parse_rejects_floats_and_bools():
    with pytest.raises(InputError):
        parse_rational(1.5)
    with pytest.raises(InputError):
        parse_rational(True)


def test_error_message_names_the_field():
    with pytest.raises(InputError) as exc:
        parse_rational("x", "discount")
    assert str(exc.value).startswith("discount: ")


def test_format_round_trip():
    for text in ("5", "-5", "1/3", "-9/10", "0"):
        assert format_rational(parse_rational(text)) == text


def test_as_fraction_accepts_exact_types_only():
    assert as_fraction(Fraction(1, 3)) == Fraction(1, 3)
    assert as_fraction(2) == 2
    with pytest.raises(InputError):
        as_fraction("3/4")
    with pytest.raises(InputError):
        as_fraction(0.25)


@pytest.mark.parametrize("bad", ["1_000", "1/1_0", "３", "1/３", "１２"])
def test_parse_rejects_non_canonical_digits(bad):
    # Fraction itself takes digit-group underscores and any Unicode digit;
    # neither has a canonical form to serialise back to
    with pytest.raises(InputError):
        parse_rational(bad)
