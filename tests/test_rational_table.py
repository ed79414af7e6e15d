"""parse_document decodes each distinct rational string of a document once,
through a table that lives for the one call.  These tests compare it with
the per-value walk, count the decodes and pin the leaves the table must
not accept."""

import gc
import json
import random
import weakref
from fractions import Fraction

import pytest

import eqcheck.data as data
from _gen import (random_bayesian_game, random_extensive_game,
                  random_generalized_profile, random_normal_form,
                  random_one_shot_game)
from eqcheck import fileformat
from eqcheck.awareness import canonical_representation, crossing_game
from eqcheck.catalog import bargaining_game, prisoners_dilemma
from eqcheck.errors import ParseError
from eqcheck.fileformat import (BayesProfileDocument, ProfileDocument,
                                parse_document, serialize_document)

F = Fraction


class _PerValue(dict):
    """The reference decoder: a table that stores nothing, so every leaf
    is decoded anew, value by value, through fileformat.parse_rational."""

    def __missing__(self, text):
        if type(text) is not str:
            raise KeyError(text)
        return fileformat.parse_rational(text)


def _reference(text, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(fileformat, "_RationalTable", _PerValue)
        return parse_document(text)


def _state(value):
    """value as nested (type, contents) pairs, objects by their fields, so
    two values compare equal only when every field and leaf type agrees."""
    if isinstance(value, dict):
        return dict, [(_state(k), _state(v)) for k, v in value.items()]
    if isinstance(value, (set, frozenset)):
        return type(value), [_state(v) for v in sorted(value, key=repr)]
    if isinstance(value, (list, tuple)):
        return type(value), [_state(v) for v in value]
    if isinstance(value, (bool, int, str, Fraction, type(None))):
        return type(value), value
    if hasattr(value, "__dict__"):
        return type(value), _state(vars(value))
    return type(value), [_state(getattr(value, s)) for s in value.__slots__]


def _spelled(text):
    """text with its payoff strings respelled: the same values written with
    a plus sign, padding, a typographic minus, an unreduced fraction or as
    a bare JSON integer, so equal values arrive under different strings."""
    obj = json.loads(text)
    spellings = (lambda q: f"+{q}" if q.numerator >= 0 else str(q),
                 lambda q: f" {q} ",
                 lambda q: str(q).replace("-", "−"),
                 lambda q: f"{2 * q.numerator}/{2 * q.denominator}",
                 lambda q: q.numerator if q.denominator == 1 else str(q))
    count = [0]

    def respell(node):
        if isinstance(node, list):
            return [respell(v) for v in node]
        count[0] += 1
        return spellings[count[0] % len(spellings)](Fraction(node))

    obj["payoffs"] = respell(obj["payoffs"])
    return json.dumps(obj, ensure_ascii=False)


def _generated_texts():
    rng = random.Random(27)
    wide = lambda: F(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
    for _ in range(6):
        yield serialize_document(random_normal_form(rng))  # few strings
        yield serialize_document(random_normal_form(rng, wide))  # distinct
        yield serialize_document(random_bayesian_game(rng))
        yield serialize_document(random_one_shot_game(rng))
        gwa = canonical_representation(random_extensive_game(rng))
        yield serialize_document(gwa)
        yield serialize_document(random_generalized_profile(gwa, rng, False))
        yield serialize_document(ProfileDocument(weights={
            "p1": {"a": F(1, 3), "b": F(2, 3)}, "p2": {"a": wide()}}))
        yield serialize_document(BayesProfileDocument(
            {"p1": {"lo": {"x": F(1, 2), "y": F(1, 2)}, "hi": {"x": 1}}}))
    yield _spelled(serialize_document(prisoners_dilemma()))
    yield _spelled(serialize_document(bargaining_game(5)))


def _documents():
    for name in data.names():
        with open(data.path(name), encoding="utf-8") as handle:
            yield name, handle.read()
    for i, text in enumerate(_generated_texts()):
        yield f"generated-{i}", text


@pytest.mark.parametrize("name, text", list(_documents()),
                         ids=lambda x: x if len(x) < 40 else None)
def test_table_matches_the_per_value_walk(name, text, monkeypatch):
    parsed = parse_document(text)
    reference = _reference(text, monkeypatch)
    assert parsed.kind == reference.kind
    assert _state(parsed.value) == _state(reference.value)
    assert serialize_document(parsed) == serialize_document(reference)


def test_reference_decodes_value_by_value(monkeypatch):
    """The reference really takes the per-value path: one parse_rational
    call per rational leaf, repeats included."""
    calls = []
    monkeypatch.setattr(fileformat, "parse_rational",
                        lambda v, *a: calls.append(v) or F(v))
    _reference(serialize_document(prisoners_dilemma()), monkeypatch)
    assert len(calls) == 8


def _expected_calls(obj, table_keys):
    """Distinct strings under the table keys: the decodes one parse should
    make."""
    distinct = set()

    def leaves(node):
        if isinstance(node, dict):
            node = list(node.values())
        if isinstance(node, list):
            for v in node:
                yield from leaves(v)
        else:
            yield node

    def walk(node):
        items = (node.items() if isinstance(node, dict)
                 else enumerate(node) if isinstance(node, list) else ())
        for key, sub in items:
            if key in table_keys:
                distinct.update(leaves(sub))
            else:
                walk(sub)

    walk(obj)
    return len(distinct)


@pytest.mark.parametrize("name, table_keys", [
    ("prisoners_dilemma.json", {"payoffs"}),
    ("bargaining_5.json", {"payoffs"}),
    ("zero_one_3.json", {"payoffs"}),
    ("primality_4bit.json", {"utilities", "act", "complexity", "prob"}),
    ("roshambo.json", {"utilities", "act", "complexity", "prob"}),
    ("crossing_p3.json", {"payoffs", "prob"}),
    ("crossing_eq.json", {"moves"}),
    ("frpd.json", {"payoffs", "discount", "memory_cost"}),
])
def test_each_distinct_string_is_decoded_once_per_parse(
        name, table_keys, monkeypatch):
    with open(data.path(name), encoding="utf-8") as handle:
        text = handle.read()
    expected = _expected_calls(json.loads(text), table_keys)
    calls = []
    real = fileformat.parse_rational
    monkeypatch.setattr(fileformat, "parse_rational",
                        lambda *args: calls.append(args) or real(*args))
    parse_document(text)
    assert len(calls) == expected
    parse_document(text)  # no table outlives the first call
    assert len(calls) == 2 * expected


def test_no_table_outlives_its_parse(monkeypatch):
    """Each table is freed when parse_document returns, by reference
    counting, without waiting for the cycle collector."""
    made = []

    class Recorded(fileformat._RationalTable):
        def __init__(self):
            made.append(weakref.ref(self))

    monkeypatch.setattr(fileformat, "_RationalTable", Recorded)
    gc.disable()
    try:
        for _, text in _documents():
            parse_document(text)
            assert made[-1]() is None
    finally:
        gc.enable()
    assert len(made) == len(list(_documents()))


_NOT_STRING = "expected a rational written as a string"

# A good leaf earlier in the document, then a leaf the table must not
# accept although it equals that leaf or what it decodes to, or holds it:
# (document, earlier JSON node, later JSON node, ParseError.path)
_LATER_SITES = [
    ('{"format": 1, "kind": "normal-form", "players": ["a", "b"], '
     '"actions": [["x"], ["y", "z"]], "payoffs": [[["1", "1"], '
     '["1/2", "1"]]]}', ("payoffs", 0, 0, 0), ("payoffs", 0, 1, 1),
     "$.payoffs[0][1][1]"),
    ('{"format": 1, "kind": "normal-form", "players": ["a", "b"], '
     '"actions": [["x"], ["y"]], "payoffs": [[["1", "1"]]]}',
     ("payoffs", 0, 0, 0), ("payoffs", 0, 0, 1), "$.payoffs[0][0][1]"),
    ('{"format": 1, "kind": "profile", "weights": '
     '{"p1": {"0": "1", "1": "0"}, "p2": {"0": "1"}}}',
     ("weights", "p1", "0"), ("weights", "p2", "0"), "$.weights.p2.0"),
    ('{"format": 1, "kind": "awareness", "modeler": "m", "F": [], "games": '
     '[{"name": "m", "players": ["P"], "root": {"owner": "P", '
     '"infoset": "i", "awareness": [], "moves": [{"move": "l", "child": '
     '{"payoffs": ["1"]}}, {"move": "r", "child": {"payoffs": ["1"]}}]}}]}',
     ("games", 0, "root", "moves", 0, "child", "payoffs", 0),
     ("games", 0, "root", "moves", 1, "child", "payoffs", 0),
     "$.games[0].root.moves[1].child.payoffs[0]"),
]


def _at(obj, node, value):
    for key in node[:-1]:
        obj = obj[key]
    obj[node[-1]] = value


@pytest.mark.parametrize("text, earlier, later, path", _LATER_SITES)
@pytest.mark.parametrize("good, bad", [
    ("1", True), ("1", 1.0), ("1", ["1"]), ("1", {"1": "1"}),
    ("1/2", 0.5), ("1/2", ["1/2"]), (1, True), (1, 1.0), (0, False)])
def test_a_leaf_equal_to_an_earlier_string_is_still_refused(
        text, earlier, later, path, good, bad):
    obj = json.loads(text)
    _at(obj, earlier, good)
    _at(obj, later, good)
    parse_document(json.dumps(obj))
    _at(obj, later, bad)
    with pytest.raises(ParseError) as info:
        parse_document(json.dumps(obj))
    assert (info.value.path, str(info.value)) == (
        path, f"{path}: {_NOT_STRING}")


@pytest.mark.parametrize("text, earlier, later, path", _LATER_SITES)
def test_a_bare_int_parses_as_its_string(text, earlier, later, path):
    obj = json.loads(text)
    _at(obj, later, "3")
    as_string = parse_document(json.dumps(obj))
    _at(obj, later, 3)
    as_int = parse_document(json.dumps(obj))
    assert _state(as_int.value) == _state(as_string.value)
    assert serialize_document(as_int) == serialize_document(as_string)


def test_first_bad_leaf_of_a_vector_is_reported_after_good_copies():
    gwa = crossing_game(F(3, 10))
    obj = json.loads(serialize_document(gwa))
    leaf = obj["games"][0]["root"]["moves"][0]["child"]["payoffs"]
    leaf[:] = [leaf[0], "1/0"]
    with pytest.raises(ParseError) as info:
        parse_document(json.dumps(obj))
    assert str(info.value) == (
        "$.games[0].root.moves[0].child.payoffs[1]: "
        "malformed rational '1/0'")
