import itertools
import random
import sys
from fractions import Fraction

import pytest

from eqcheck.errors import InputError, WorkBoundExceeded
from eqcheck.rationals import as_fraction, format_rational, parse_rational


def test_parse_plain_forms():
    assert parse_rational("3") == 3
    assert parse_rational("-5") == -5
    assert parse_rational("9/10") == Fraction(9, 10)
    assert parse_rational("-2/4") == Fraction(-1, 2)
    assert parse_rational("  7/3 ") == Fraction(7, 3)
    assert parse_rational(4) == 4
    half = Fraction(1, 2)
    assert parse_rational(half) is half


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


def test_format_refuses_parts_too_long_to_print():
    """str() converts at most sys.get_int_max_str_digits() digits."""
    limit = sys.get_int_max_str_digits()
    big = 10 ** limit  # limit + 1 digits
    assert format_rational(Fraction(big // 10, 3)) == f"{big // 10}/3"
    for value in (Fraction(big), Fraction(-big, 3), Fraction(3, big)):
        with pytest.raises(WorkBoundExceeded) as exc:
            format_rational(value)
        assert str(exc.value) == (
            f"a rational with over {limit} digits is too long to print")


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


@pytest.mark.parametrize("bad", ["1 / 2", "1 /2", "1/ 2", "-3 / 4"])
def test_parse_rejects_whitespace_around_the_slash(bad):
    # Fraction(str) takes these from Python 3.12 on; the grammar refuses
    # them on every version
    with pytest.raises(InputError) as exc:
        parse_rational(bad)
    assert str(exc.value) == f"value: malformed rational {bad!r}"


def _reference_parse(value, where="value"):
    """The Fraction(str)-based parser this module used before its explicit
    grammar, with whitespace inside the stripped string refused as
    Fraction(str) refuses it on Python 3.10 and 3.11."""
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
    cleaned = value.strip().replace("−", "-")
    if (not cleaned or not cleaned.isascii() or "_" in cleaned
            or "." in cleaned or "e" in cleaned.lower()
            or any(c.isspace() for c in cleaned)):
        raise InputError(f"{where}: malformed rational {value!r}")
    try:
        return Fraction(cleaned)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"{where}: malformed rational {value!r}") from exc


def _outcome(parse, text):
    try:
        value = parse(text, "v")
    except Exception as exc:  # the type is part of the outcome
        return type(exc), str(exc)
    return type(value), value


_ALPHABET = "0123456789/-+_.eE− \t\n３x\x1c"


def test_grammar_matches_reference_on_every_short_string():
    texts = [""]
    for length in range(1, 4):
        texts += ["".join(chars)
                  for chars in itertools.product(_ALPHABET, repeat=length)]
    assert len(texts) == 1 + 24 + 24 ** 2 + 24 ** 3
    for text in texts:
        assert _outcome(parse_rational, text) == _outcome(
            _reference_parse, text), repr(text)


def test_grammar_matches_reference_on_seeded_strings():
    rng = random.Random(1009)
    accepted = 0
    for _ in range(50_000):
        text = "".join(rng.choice(_ALPHABET)
                       for _ in range(rng.randint(4, 8)))
        got = _outcome(parse_rational, text)
        assert got == _outcome(_reference_parse, text), repr(text)
        accepted += got[0] is Fraction
    assert accepted > 50


@pytest.mark.parametrize("text, value", [
    ("+7", 7), ("-0", 0), ("0/5", 0), ("−6/4", Fraction(-3, 2)),
    (" 10/4\n", Fraction(5, 2)), ("007/014", Fraction(1, 2)),
])
def test_grammar_accepts_signs_zeros_and_outer_whitespace(text, value):
    got = parse_rational(text)
    assert got == value and type(got) is Fraction
    assert _reference_parse(text) == value


@pytest.mark.parametrize("bad", ["1/-2", "1/+2", "+-1", "--1", "1/0", "-0/00",
                                 "1//2", "/2", "1/2/3"])
def test_grammar_rejects_signed_denominators_and_zero(bad):
    with pytest.raises(InputError) as exc:
        parse_rational(bad)
    assert str(exc.value) == f"value: malformed rational {bad!r}"


def test_digit_strings_past_the_int_limit_match_reference():
    for text in ("1" * 5000, "1/" + "2" * 5000, "-" + "9" * 4301):
        assert _outcome(parse_rational, text) == _outcome(
            _reference_parse, text)
