import itertools
import json
import random
from fractions import Fraction

import pytest

import eqcheck.data as data
from _bundle import bundled_objects, write_bundle
from _gen import random_extensive_game
from eqcheck.awareness import (GeneralizedProfile, canonical_representation,
                               crossing_game)
from eqcheck.basim import Scenario
from eqcheck.catalog import prisoners_dilemma, zero_one_game
from eqcheck.errors import InputError, ParseError
from eqcheck.fileformat import (BayesProfileDocument, GameDocument,
                                ProfileDocument, RepeatedSpecDocument,
                                document_body, json_text, load_document,
                                parse_document, serialize_document,
                                write_document)
from eqcheck.games import (BayesianGame, NormalFormGame,
                           bayes_expected_utility, expected_utility,
                           is_bayes_nash)
from eqcheck.machines import (build_primality_game, build_roshambo_game,
                              comp_expected_utility)

F = Fraction


def test_bundle_lists_fifteen_documents():
    names = data.names()
    assert len(names) == 15
    assert "prisoners_dilemma.json" in names
    assert "crossing_p3.json" in names


def test_bundled_documents_round_trip_byte_identical():
    for name in data.names():
        with open(data.path(name), encoding="utf-8") as handle:
            text = handle.read()
        doc = parse_document(text)
        assert serialize_document(doc) == text, name
        again = parse_document(serialize_document(doc))
        assert serialize_document(again) == text, name


def test_write_bundle_reproduces_shipped_bytes(tmp_path):
    assert tuple(sorted(bundled_objects())) == data.names()
    write_bundle(tmp_path)
    for name in data.names():
        fresh = (tmp_path / name).read_bytes()
        with open(data.path(name), "rb") as handle:
            assert fresh == handle.read(), name


def test_load_document_kind_checks():
    doc = load_document(data.path("prisoners_dilemma.json"))
    assert isinstance(doc, GameDocument)
    assert doc.kind == "normal-form"
    assert doc.value.payoffs[(1, 1)] == (-3, -3)


def test_profile_documents_bind():
    game = zero_one_game(3)
    doc = load_document(data.path("all_zero.json")).value
    assert isinstance(doc, ProfileDocument)
    profile = doc.bind(game)
    assert expected_utility(game, profile) == (1, 1, 1)
    mixed = ProfileDocument(
        weights={"p1": {"0": F(1, 2), "1": F(1, 2)},
                 "p2": {"0": 1}, "p3": {"0": 1}})
    bound = mixed.bind(game)
    assert bound.weights[0] == (F(1, 2), F(1, 2))
    with pytest.raises(InputError):
        ProfileDocument(pure=("0", "0")).bind(game)
    with pytest.raises(InputError):
        ProfileDocument(weights={"p1": {"0": 1}}).bind(game)


def test_profile_document_serialization_fixpoint():
    doc = ProfileDocument(
        weights={"p2": {"1": F(1, 3), "0": F(2, 3)}, "p1": {"0": 1}})
    text = serialize_document(doc)
    again = parse_document(text)
    assert serialize_document(again) == text
    parsed = again.value
    assert parsed.weights["p2"]["1"] == F(1, 3)


def _tiny_bayesian():
    prior = {(0, 0): F(1, 2), (1, 0): F(1, 2)}
    utilities = {}
    for t in range(2):
        for a in range(2):
            for b in range(2):
                utilities[((t, 0), (a, b))] = (F(t + a), F(b - a))
    return BayesianGame(
        ("p1", "p2"), (("lo", "hi"), ("-",)), (("x", "y"), ("x", "y")),
        prior, utilities)


def test_bayesian_round_trip_preserves_semantics():
    game = _tiny_bayesian()
    text = serialize_document(game)
    parsed = parse_document(text).value
    assert serialize_document(parsed) == text
    assert parsed.players == game.players
    assert parsed.types == game.types
    assert parsed.prior == game.prior
    assert parsed.utilities == game.utilities


def test_bayes_profile_document_binds():
    game = _tiny_bayesian()
    doc = BayesProfileDocument({
        "p1": {"lo": {"x": F(1)}, "hi": {"y": F(1)}},
        "p2": {"-": {"x": F(1, 2), "y": F(1, 2)}},
    })
    text = serialize_document(doc)
    assert serialize_document(parse_document(text)) == text
    profile = doc.bind(game)
    value = bayes_expected_utility(game, profile)
    assert len(value) == 2
    assert is_bayes_nash(game, profile).holds in (True, False)
    with pytest.raises(InputError):
        BayesProfileDocument({"p9": {"lo": {"x": 1}}}).bind(game)
    with pytest.raises(InputError):
        BayesProfileDocument(
            {"p1": {"nope": {"x": 1}}, "p2": {"-": {"x": 1}}}).bind(game)


def test_compgame_round_trip():
    game = build_roshambo_game()
    text = serialize_document(game)
    parsed = parse_document(text).value
    assert serialize_document(parsed) == text
    assert comp_expected_utility(parsed, ("uniform", "const0")) == (-2, -1)


def test_repeated_spec_document_expands():
    doc = load_document(data.path("frpd.json")).value
    assert isinstance(doc, RepeatedSpecDocument)
    assert doc.spec.rounds == 9
    assert doc.spec.discount == F(9, 10)
    game = doc.to_compgame()
    assert game.mode == "repeated"
    assert [m.id for m in game.spaces[0]] == [
        "all_c", "all_d", "tit_for_tat", "grim", "defect_last"]


def test_awareness_round_trip():
    gwa = crossing_game(F(3, 10))
    text = serialize_document(gwa)
    parsed = parse_document(text).value
    assert serialize_document(parsed) == text
    assert parsed.validate().holds
    assert parsed.views == gwa.views
    assert parsed.game("a_view").awareness == gwa.game("a_view").awareness


def test_generalized_profile_round_trip():
    profile = GeneralizedProfile.pure({
        ("B", "modeler"): {"B": "down_B"},
        ("A", "a_view"): {"A.1": "across_A"},
    })
    text = serialize_document(profile)
    parsed = parse_document(text).value
    assert serialize_document(parsed) == text
    assert parsed.strategies == profile.strategies


def test_scenario_round_trip_and_defaults():
    text = serialize_document(Scenario(4, 1, faults={"p2": "flip"}))
    parsed = parse_document(text).value
    assert parsed.n == 4
    assert parsed.preference == 1
    assert parsed.fault_names() == {"p2": "flip"}
    assert serialize_document(parsed) == text
    bare = parse_document(
        '{"format": 1, "kind": "scenario", "n": 3, "preference": 0}').value
    assert bare.general == "p0"
    assert bare.mediator_present
    assert bare.faults == {}


def _pd_obj():
    return json.loads(serialize_document(prisoners_dilemma()))


def _parse_obj(obj):
    return parse_document(json.dumps(obj))


def _error(obj):
    with pytest.raises(ParseError) as exc:
        _parse_obj(obj)
    return exc.value


def test_malformed_json_reports_position():
    with pytest.raises(ParseError) as exc:
        parse_document('{"format": 1,')
    err = exc.value
    assert err.path == "$"
    assert err.line == 1
    assert err.column is not None
    assert "line 1" in str(err)


def test_root_must_be_object():
    err = _error([1, 2, 3])
    assert err.path == "$"


def test_format_field_is_checked_first():
    assert _error({"kind": "profile"}).path == "$"
    assert _error({"format": 2, "kind": "profile"}).path == "$.format"
    assert _error({"format": True, "kind": "profile"}).path == "$.format"
    assert _error({"format": 1}).path == "$"
    assert _error({"format": 1, "kind": "mystery"}).path == "$.kind"


def test_unknown_field_is_rejected_with_path():
    obj = _pd_obj()
    obj["color"] = "red"
    err = _error(obj)
    assert err.path == "$.color"
    assert "unknown field" in str(err)


def test_missing_field_is_rejected():
    obj = _pd_obj()
    del obj["payoffs"]
    err = _error(obj)
    assert err.path == "$"
    assert "payoffs" in str(err)


def test_payoff_table_shape_errors():
    obj = _pd_obj()
    obj["payoffs"][0][1] = ["1", "2", "3"]
    err = _error(obj)
    assert err.path.startswith("$.payoffs")


def test_rationals_in_documents_are_strict():
    obj = _pd_obj()
    obj["payoffs"][0][0] = [0.5, "1"]
    assert _error(obj).path.startswith("$.payoffs")
    obj = _pd_obj()
    obj["payoffs"][0][0] = ["1/0", "1"]
    assert _error(obj).path.startswith("$.payoffs")


def test_unicode_minus_is_accepted():
    obj = _pd_obj()
    obj["payoffs"][1][1] = ["−3", "−3"]
    parsed = _parse_obj(obj)
    assert parsed.value.payoffs[(1, 1)] == (-3, -3)


def test_profile_needs_exactly_one_representation():
    base = {"format": 1, "kind": "profile"}
    assert "exactly one" in str(_error(base))
    both = dict(base, pure=["a"], weights={"p": {"a": "1"}})
    assert "exactly one" in str(_error(both))


def test_bayesian_prior_errors():
    game = _tiny_bayesian()
    obj = json.loads(serialize_document(game))
    obj["prior"][0]["prob"] = "1/4"
    err = _error(obj)
    assert err.path == "$"
    assert "prior" in str(err)
    obj = json.loads(serialize_document(game))
    obj["prior"].append(dict(obj["prior"][0]))
    err = _error(obj)
    assert err.path == "$.prior[2]"
    assert "duplicate" in str(err)
    obj = json.loads(serialize_document(game))
    obj["prior"][0]["types"] = ["nope", "-"]
    err = _error(obj)
    assert err.path == "$.prior[0].types[0]"


def test_compgame_rejects_repeated_mode():
    obj = json.loads(serialize_document(build_roshambo_game()))
    obj["mode"] = "repeated"
    err = _error(obj)
    assert err.path == "$.mode"
    assert "repeated-spec" in str(err)


def test_compgame_serializer_rejects_repeated_mode():
    doc = load_document(data.path("frpd.json")).value
    with pytest.raises(InputError):
        serialize_document(doc.to_compgame())


def test_repeated_spec_errors():
    obj = json.loads(serialize_document(
        load_document(data.path("frpd.json")).value))
    obj["machines"][0] = "perceptron"
    err = _error(obj)
    assert err.path == "$.machines[0]"
    obj = json.loads(serialize_document(
        load_document(data.path("frpd.json")).value))
    obj["charged_players"] = [True]
    err = _error(obj)
    assert err.path == "$.charged_players"


def test_awareness_document_errors():
    gwa = crossing_game(F(3, 10))
    obj = json.loads(serialize_document(gwa))
    obj["F"].append(dict(obj["F"][0]))
    err = _error(obj)
    assert err.path == f"$.F[{len(obj['F']) - 1}]"
    assert "duplicate" in str(err)
    obj = json.loads(serialize_document(gwa))
    obj["modeler"] = "nowhere"
    assert _error(obj).path == "$.modeler"
    obj = json.loads(serialize_document(gwa))
    obj["games"][0]["root"]["moves"][0]["child"] = {}
    err = _error(obj)
    assert "payoffs" in str(err)
    assert err.path.endswith(".child")


def test_awareness_objective_game_is_the_modelers_tree():
    gwa = crossing_game(F(3, 10))
    parsed = parse_document(serialize_document(gwa)).value
    for structure in (gwa, parsed):
        assert structure.underlying is structure.game(structure.modeler).tree


def _crossing_with_virtual(flag):
    """crossing_p3.json's object with "virtual": flag on a_view's edge
    across_A below the unaware chance move."""
    with open(data.path("crossing_p3.json"), encoding="utf-8") as handle:
        obj = json.load(handle)
    assert obj["games"][1]["name"] == "a_view"
    unaware = obj["games"][1]["root"]["moves"][1]
    edge = unaware["child"]["moves"][1]
    assert (unaware["move"], edge["move"]) == ("unaware", "across_A")
    edge["virtual"] = flag
    return obj


def test_virtual_flag_round_trips():
    flagged = _parse_obj(_crossing_with_virtual(True)).value
    assert flagged.game("a_view").virtual_moves == {
        (("unaware",), "across_A")}
    text = serialize_document(flagged)
    assert json.loads(text) == _crossing_with_virtual(True)
    assert serialize_document(parse_document(text)) == text
    cleared = _parse_obj(_crossing_with_virtual(False)).value
    assert cleared.game("a_view").virtual_moves == frozenset()
    with open(data.path("crossing_p3.json"), encoding="utf-8") as handle:
        assert serialize_document(cleared) == handle.read()


@pytest.mark.parametrize("flag", [None, 1, "true"], ids=repr)
def test_virtual_flag_must_be_a_boolean(flag):
    err = _error(_crossing_with_virtual(flag))
    assert err.path == "$.games[1].root.moves[1].child.moves[1].virtual"
    assert str(err) == f"{err.path}: expected a boolean"


def test_generalized_profile_duplicate_pair():
    profile = GeneralizedProfile.pure({("A", "g"): {"L": "x"}})
    obj = json.loads(serialize_document(profile))
    obj["strategies"].append(dict(obj["strategies"][0]))
    err = _error(obj)
    assert err.path == "$.strategies[1]"
    assert "duplicate" in str(err)


def test_scenario_document_errors():
    assert "faults" in str(_error(
        {"format": 1, "kind": "scenario", "n": 3, "preference": 0,
         "faults": {"p1": "gremlin"}}))
    assert _error(
        {"format": 1, "kind": "scenario", "n": True,
         "preference": 0}).path == "$.n"
    assert _error(
        {"format": 1, "kind": "scenario", "n": 3,
         "preference": 7}).path == "$"


def test_load_document_missing_file(tmp_path):
    with pytest.raises(ParseError) as exc:
        load_document(tmp_path / "nope.json")
    assert "cannot read" in str(exc.value)


def test_write_document_round_trips(tmp_path):
    target = tmp_path / "pd.json"
    write_document(prisoners_dilemma(), target)
    doc = load_document(target)
    assert doc.kind == "normal-form"
    assert serialize_document(doc) == target.read_text(encoding="utf-8")


def test_serialize_rejects_unsupported_values():
    with pytest.raises(InputError):
        serialize_document(42)


def _bundled_obj(name):
    with open(data.path(name), encoding="utf-8") as handle:
        return json.load(handle)


def _replaced(obj, node, bad):
    """obj with the JSON node at the key path node set to bad."""
    parent = obj
    for key in node[:-1]:
        parent = parent[key]
    parent[node[-1]] = bad
    return obj


def test_format_and_kind_only_at_the_top_level():
    obj = _bundled_obj("frpd.json")
    obj["stage"]["format"] = 99
    err = _error(obj)
    assert (err.path, str(err)) == (
        "$.stage.format", "$.stage.format: unknown field")
    obj = _bundled_obj("roshambo.json")
    obj["underlying"]["kind"] = "nonsense"
    err = _error(obj)
    assert (err.path, str(err)) == (
        "$.underlying.kind", "$.underlying.kind: unknown field")


@pytest.mark.parametrize("kind", [[], {}, {"z": "1"}])
def test_non_string_kind_is_a_parse_error(kind):
    err = _error(dict(_bundled_obj("crossing_p3.json"), kind=kind))
    assert (err.path, str(err)) == (
        "$.kind", f"$.kind: unknown document kind {kind!r}")


_INLINE_DOCS = {
    "profile": '{"format": 1, "kind": "profile", "weights": '
               '{"p1": {"0": "1/2", "1": "1/2"}, "p2": {"0": "1"}}}',
    "bayesian-profile": '{"format": 1, "kind": "bayesian-profile", '
                        '"strategies": {"p1": {"lo": {"x": "1"}, '
                        '"hi": {"y": "1"}}}}',
}
_NOT_OBJECT = "expected a JSON object"
_NOT_STRING = "expected a rational written as a string"
_MALFORMED = "malformed rational '1.5'"

# One malformed inner object and three malformed leaves at each nested
# rational map: (document, JSON node, replacement, ParseError.path, message)
_NESTED_MAP_ERRORS = [
    (doc, node, bad, path, message)
    for doc, inner, inner_path, leaf, leaf_path in (
        ("profile", ("weights", "p1"), "$.weights.p1", "0",
         "$.weights.p1.0"),
        ("bayesian-profile", ("strategies", "p1", "lo"),
         "$.strategies.p1.lo", "x", "$.strategies.p1.lo.x"),
        ("roshambo.json", ("machines", 0, 0, "act", "-"),
         "$.machines[0][0].act.-", "0", "$.machines[0][0].act.-.0"),
        ("roshambo.json", ("machines", 0, 0, "complexity"),
         "$.machines[0][0].complexity", "-",
         "$.machines[0][0].complexity.-"),
        ("crossing_eq.json", ("strategies", 1, "moves", "A.3"),
         "$.strategies[1].moves.A.3", "down_A",
         "$.strategies[1].moves.A.3.down_A"),
    )
    for node, bad, path, message in (
        (inner, [], inner_path, _NOT_OBJECT),
        (inner + (leaf,), 1.5, leaf_path, _NOT_STRING),
        (inner + (leaf,), True, leaf_path, _NOT_STRING),
        (inner + (leaf,), "1.5", leaf_path, _MALFORMED),
    )
]


@pytest.mark.parametrize("doc, node, bad, path, message", _NESTED_MAP_ERRORS)
def test_nested_rational_map_errors(doc, node, bad, path, message):
    if doc in _INLINE_DOCS:
        obj = json.loads(_INLINE_DOCS[doc])
    else:
        obj = _bundled_obj(doc)
    err = _error(_replaced(obj, node, bad))
    assert (err.path, str(err)) == (path, f"{path}: {message}")


_BAYESIAN_DOC = (
    '{"format": 1, "kind": "bayesian", "players": ["p1", "p2"], '
    '"types": [["lo", "hi"], ["-"]], "actions": [["x", "y"], ["x", "y"]], '
    '"prior": [{"types": ["lo", "-"], "prob": "1/2"}, '
    '{"types": ["hi", "-"], "prob": "1/2"}], '
    '"utilities": [[[[["0", "0"], ["0", "1"]], [["1", "-1"], ["1", "0"]]]], '
    '[[[["1", "0"], ["1", "1"]], [["2", "-1"], ["2", "0"]]]]]}')
_CHANCE_DOC = (
    '{"format": 1, "kind": "awareness", "modeler": "m", "F": [], "games": '
    '[{"name": "m", "players": ["P"], "root": {"owner": "nature", "moves": '
    '[{"move": "h", "prob": "1/2", "child": {"payoffs": ["1"]}}, '
    '{"move": "t", "prob": "1/2", "child": {"payoffs": ["0"]}}]}}]}')
_LEAF_DOCS = {"bayesian": _BAYESIAN_DOC, "chance": _CHANCE_DOC}

# A bad leaf at each rational site outside the nested maps: (document,
# JSON node, ParseError.path).  The paths are frozen as the parser
# reported them when it built every path before parsing the leaf.
_RATIONAL_SITES = [
    ("prisoners_dilemma.json", ("payoffs", 1, 0, 1), "$.payoffs[1][0][1]"),
    ("bayesian", ("prior", 1, "prob"), "$.prior[1].prob"),
    ("bayesian", ("utilities", 1, 0, 1, 0, 1), "$.utilities[1][0][1][0][1]"),
    ("roshambo.json", ("underlying", "utilities", 0, 0, 2, 1, 0),
     "$.underlying.utilities[0][0][2][1][0]"),
    ("crossing_p3.json",
     ("games", 0, "root", "moves", 1, "child", "moves", 0, "child",
      "payoffs", 1),
     "$.games[0].root.moves[1].child.moves[0].child.payoffs[1]"),
    ("chance", ("games", 0, "root", "moves", 1, "prob"),
     "$.games[0].root.moves[1].prob"),
    ("frpd.json", ("discount",), "$.discount"),
    ("frpd.json", ("memory_cost",), "$.memory_cost"),
    ("frpd.json", ("stage", "payoffs", 0, 1, 0), "$.stage.payoffs[0][1][0]"),
]
_BAD_LEAVES = [(1.5, _NOT_STRING), (True, _NOT_STRING), ("1.5", _MALFORMED),
               ("x", "malformed rational 'x'"), (None, _NOT_STRING),
               ([], _NOT_STRING), ({}, _NOT_STRING),
               ("1/0", "malformed rational '1/0'")]


@pytest.mark.parametrize("doc, node, path", _RATIONAL_SITES)
@pytest.mark.parametrize("bad, message", _BAD_LEAVES)
def test_bad_rational_leaves_name_their_path(doc, node, path, bad, message):
    for good_or_bad in (None, bad):
        obj = (json.loads(_LEAF_DOCS[doc]) if doc in _LEAF_DOCS
               else _bundled_obj(doc))
        if good_or_bad is None:
            _parse_obj(obj)  # the unmutated document parses
            continue
        err = _error(_replaced(obj, node, bad))
        assert (err.path, str(err)) == (path, f"{path}: {message}")


# A wrong shape at each counted or typed site outside the rational leaves:
# (document, JSON node, replacement, ParseError.path, message)
_SHAPE_ERRORS = [
    pytest.param("prisoners_dilemma.json", ("players",), "p1", "$.players",
                 "expected a JSON array", id="not-an-array"),
    pytest.param("prisoners_dilemma.json", ("players", 1), "", "$.players[1]",
                 "expected a nonempty string", id="empty-string"),
    pytest.param("prisoners_dilemma.json", ("actions",), [["C", "D"]],
                 "$.actions", "expected one action list per player",
                 id="action-lists"),
    pytest.param("prisoners_dilemma.json", ("payoffs", 1), [["1", "1"]],
                 "$.payoffs[1]", "expected 2 entries at depth 1",
                 id="table-depth"),
    pytest.param("bayesian", ("prior", 0, "types"), ["lo"],
                 "$.prior[0].types", "expected one type per player",
                 id="prior-types"),
    pytest.param("roshambo.json", ("machines",), [], "$.machines",
                 "expected one machine list per player", id="machine-lists"),
    pytest.param("crossing_p3.json",
                 ("games", 0, "root", "moves", 0, "child", "payoffs"), ["1"],
                 "$.games[0].root.moves[0].child.payoffs",
                 "expected 2 payoffs", id="tree-payoffs"),
    pytest.param("crossing_p3.json", ("games", 0, "root", "moves"), [],
                 "$.games[0].root.moves", "expected at least one move",
                 id="no-moves"),
    pytest.param("crossing_p3.json", ("games",), [], "$.games",
                 "expected at least one game", id="no-games"),
]


@pytest.mark.parametrize("doc, node, bad, path, message", _SHAPE_ERRORS)
def test_document_shape_errors(doc, node, bad, path, message):
    obj = (json.loads(_LEAF_DOCS[doc]) if doc in _LEAF_DOCS
           else _bundled_obj(doc))
    err = _error(_replaced(obj, node, bad))
    assert (err.path, str(err)) == (path, f"{path}: {message}")


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: GameDocument("mystery", None),
                 "unknown document kind 'mystery'", id="document-kind"),
    pytest.param(lambda: ProfileDocument(),
                 "profile: exactly one of pure/weights required",
                 id="profile-neither"),
    pytest.param(lambda: BayesProfileDocument(
                     {"p1": {"lo": {"x": 1}, "hi": {"x": 1}}}
                 ).bind(_tiny_bayesian()),
                 "strategies: missing player 'p2'", id="missing-player"),
    pytest.param(lambda: BayesProfileDocument(
                     {"p1": {"lo": {"x": 1}}, "p2": {"-": {"x": 1}}}
                 ).bind(_tiny_bayesian()),
                 "strategies[p1]: missing type 'hi'", id="missing-type"),
    pytest.param(lambda: BayesProfileDocument(
                     {"p1": {"lo": {"z": 1}, "hi": {"x": 1}},
                      "p2": {"-": {"x": 1}}}).bind(_tiny_bayesian()),
                 "strategies[p1][lo]: unknown action 'z'",
                 id="unknown-action"),
])
def test_document_value_refusals(call, message):
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message


def test_repeated_spec_charges_both_players_by_default():
    obj = _bundled_obj("frpd.json")
    assert obj.pop("charged_players") == [True, True]
    doc = _parse_obj(obj).value
    assert doc.charged == (True, True)
    with open(data.path("frpd.json"), encoding="utf-8") as handle:
        assert serialize_document(doc) == handle.read()


def test_awareness_writer_skips_nodes_without_a_belief_entry():
    obj = _bundled_obj("crossing_p3.json")
    del obj["F"][0]
    assert serialize_document(_parse_obj(obj).value) == json.dumps(
        obj, indent=2, ensure_ascii=False) + "\n"


def _json_dumps_document(value):
    """serialize_document's text as the standard library writes it."""
    kind, body = document_body(value)
    return json.dumps({"format": 1, "kind": kind, **body}, indent=2,
                      ensure_ascii=False) + "\n"


def _odd_names(rng, count):
    pieces = ['"', "\\", "\x00", "\x1f", "\t", "\n", " ", "é", "名",
              "ß", "x", "/", "\x7f", "\U0001f600"]
    names = set()
    while len(names) < count:
        names.add("".join(rng.choice(pieces) for _ in range(rng.randint(1, 4))))
    return sorted(names)


def test_writer_matches_json_dumps_on_documents():
    values = [load_document(data.path(name)) for name in data.names()]
    rng = random.Random(404)
    for shape in ((2, 2), (3, 2), (2, 2, 2), (4, 3), (1, 5)):
        names = _odd_names(rng, len(shape) + sum(shape))
        players, rest = names[:len(shape)], names[len(shape):]
        actions = []
        for m in shape:
            actions.append(rest[:m])
            rest = rest[m:]
        payoffs = {
            key: tuple(F(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 6))
                       for _ in shape)
            for key in itertools.product(*(range(m) for m in shape))}
        values.append(NormalFormGame(players, actions, payoffs))
        values.append(ProfileDocument(
            weights={p: {a[0]: F(1)} for p, a in zip(players, actions)}))
    for bits in range(6, 10):
        values.append(build_primality_game(bits, F(rng.randint(1, 34), 2 * bits)))
    for _ in range(30):
        values.append(canonical_representation(random_extensive_game(rng)))
    values += [ProfileDocument(weights={}), BayesProfileDocument({}),
               GeneralizedProfile({}), Scenario(3, 0)]
    for value in values:
        assert serialize_document(value) == _json_dumps_document(value)


@pytest.mark.parametrize("value", [
    [], {}, (), [[]], {"a": {}}, [[], {}, ()], "x", 0, -7, True, None, 2.5,
    [1, True, False, None, 2.5, "x", 10 ** 30], ("t", ("u", ()), []),
    {"k": {3: {"z": [1]}, "j": [{"a": None}]}},
    {1: "a", None: [], 2.5: {"b": ()}, True: {}, False: [[]]},
    {" \"\\": ["\x00é", {"名": "\n"}]},
    [{"deep": [[[{"deeper": [["x"]]}]]]}],
])
def test_json_text_matches_json_dumps(value):
    assert json_text(value) == json.dumps(value, indent=2, ensure_ascii=False)


@pytest.mark.parametrize("value", [[F(1, 2)], {"a": {"b": object()}},
                                   {(1, 2): "tuple key"}])
def test_json_text_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError) as want:
        json.dumps(value, indent=2, ensure_ascii=False)
    with pytest.raises(TypeError) as got:
        json_text(value)
    assert str(got.value) == str(want.value)
