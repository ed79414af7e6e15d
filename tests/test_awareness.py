import itertools
import random
from fractions import Fraction

import pytest

from _gen import (generalized_profile_names, pure_nash_names,
                  random_small_game)
from eqcheck.awareness import (AugmentedGame, GameWithAwareness,
                               GeneralizedProfile, canonical_representation,
                               crossing_game, expected_utilities,
                               find_pure_generalized_nash,
                               is_generalized_nash, outcome_distribution)
from eqcheck import awareness
from eqcheck.errors import InputError, WorkBoundExceeded
from eqcheck.games import bounded_product
from eqcheck.trees import ExtensiveGame, induced_normal_form

F = Fraction

E1_ASSIGNMENTS = {
    ("B", "modeler"): {"B": "down_B"},
    ("A", "a_view"): {"A.1": "across_A"},
    ("A", "b_view"): {"A.3": "down_A"},
    ("B", "b_view"): {"B.3": "across_B"},
}

E2_ASSIGNMENTS = {
    ("B", "modeler"): {"B": "across_B"},
    ("A", "a_view"): {"A.1": "down_A"},
    ("A", "b_view"): {"A.3": "down_A"},
    ("B", "b_view"): {"B.3": "across_B"},
}


def crossing(p=F(3, 10)):
    return crossing_game(p)


def test_crossing_structure():
    gwa = crossing()
    assert tuple(ag.name for ag in gwa.games) == (
        "modeler", "a_view", "b_view")
    assert gwa.modeler == "modeler"
    assert gwa.active_pairs() == (
        ("B", "modeler"), ("A", "a_view"), ("A", "b_view"), ("B", "b_view"))
    assert gwa.active_labels("A", "a_view") == ("A.1",)
    assert gwa.active_labels("B", "modeler") == ("B",)
    assert gwa.validate().holds


def test_crossing_outcome_distributions():
    gwa = crossing()
    e1 = GeneralizedProfile.pure(E1_ASSIGNMENTS)
    assert outcome_distribution(gwa, "modeler", e1) == {
        ("across_A", "down_B"): F(1)}
    assert outcome_distribution(gwa, "a_view", e1) == {
        ("aware", "across_A", "down_B"): F(7, 10),
        ("unaware", "across_A", "across_B"): F(3, 10),
    }
    assert outcome_distribution(gwa, "b_view", e1) == {("down_A",): F(1)}
    for name in ("modeler", "a_view", "b_view"):
        assert sum(outcome_distribution(gwa, name, e1).values()) == 1


def test_crossing_expected_utilities():
    gwa = crossing()
    e1 = GeneralizedProfile.pure(E1_ASSIGNMENTS)
    assert expected_utilities(gwa, "modeler", e1) == (2, 3)
    assert expected_utilities(gwa, "a_view", e1) == (F(7, 5), F(27, 10))
    assert expected_utilities(gwa, "b_view", e1) == (1, 1)


def test_crossing_equilibria_at_low_unawareness():
    gwa = crossing()
    e1 = GeneralizedProfile.pure(E1_ASSIGNMENTS)
    e2 = GeneralizedProfile.pure(E2_ASSIGNMENTS)
    assert is_generalized_nash(gwa, e1).holds
    assert is_generalized_nash(gwa, e2).holds
    found = find_pure_generalized_nash(gwa)
    assert [p.strategies for p in found] == [e1.strategies, e2.strategies]


def test_crossing_fails_at_high_unawareness():
    gwa = crossing(F(7, 10))
    verdict = is_generalized_nash(
        gwa, GeneralizedProfile.pure(E1_ASSIGNMENTS))
    assert not verdict.holds
    w = verdict.witness
    assert w.kind == "subjective-deviation"
    assert w.data["player"] == "A"
    assert w.data["game"] == "a_view"
    assert w.data["strategy"] == {"A.1": "down_A"}
    assert w.data["utility_before"] == F(3, 5)
    assert w.data["utility_after"] == 1
    assert w.data["gain"] == F(2, 5)


def test_epsilon_absorbs_small_subjective_gains():
    gwa = crossing(F(7, 10))
    e1 = GeneralizedProfile.pure(E1_ASSIGNMENTS)
    assert is_generalized_nash(gwa, e1, epsilon=F(2, 5)).holds
    assert not is_generalized_nash(gwa, e1, epsilon=F(39, 100)).holds


def test_find_respects_work_bound():
    with pytest.raises(WorkBoundExceeded):
        find_pure_generalized_nash(crossing(), work_bound=3)


def _mutated(gwa, replacements):
    views = dict(gwa.views)
    views.update(replacements)
    return GameWithAwareness(
        gwa.games, gwa.modeler, views, underlying=gwa.underlying)


def test_validate_missing_view():
    gwa = crossing()
    views = dict(gwa.views)
    del views[("b_view", ("across_A",))]
    broken = GameWithAwareness(
        gwa.games, gwa.modeler, views, underlying=gwa.underlying)
    verdict = broken.validate()
    assert not verdict.holds
    assert verdict.witness.data["condition"] == "missing-view"
    assert verdict.witness.data["game"] == "b_view"


def test_validate_unknown_target():
    broken = _mutated(crossing(), {("modeler", ()): ("a_view", "NOPE")})
    verdict = broken.validate()
    assert verdict.witness.data["condition"] == "unknown-target"


def test_validate_wrong_player():
    broken = _mutated(
        crossing(), {("modeler", ("across_A",)): ("a_view", "A.1")})
    verdict = broken.validate()
    assert not verdict.holds
    assert verdict.witness.data["condition"] == "wrong-player"
    assert verdict.witness.data["game"] == "modeler"
    assert verdict.witness.data["node"] == ("across_A",)


def test_validate_move_embedding():
    broken = _mutated(
        crossing(), {("modeler", ("across_A",)): ("b_view", "B.3")})
    verdict = broken.validate()
    assert verdict.witness.data["condition"] == "move-embedding"
    assert "down_B" in verdict.witness.data["detail"]


def test_validate_introspection():
    broken = _mutated(
        crossing(), {("a_view", ("unaware",)): ("b_view", "A.3")})
    verdict = broken.validate()
    assert verdict.witness.data["condition"] == "introspection"


def test_validate_awareness_level():
    gwa = crossing()
    a_view = gwa.game("a_view")
    hacked = dict(a_view.awareness)
    hacked[("aware",)] = frozenset({("no_such_move",)})
    games = (gwa.game("modeler"),
             AugmentedGame("a_view", a_view.tree, hacked),
             gwa.game("b_view"))
    broken = GameWithAwareness(
        games, "modeler", gwa.views, underlying=gwa.underlying)
    verdict = broken.validate()
    assert verdict.witness.data["condition"] == "awareness-level"


def test_virtual_move_flags_do_not_change_play():
    gwa = crossing()
    a_view = gwa.game("a_view")
    flagged = AugmentedGame(
        "a_view", a_view.tree, a_view.awareness,
        virtual_moves=((("unaware",), "across_A"),))
    alt = GameWithAwareness(
        (gwa.game("modeler"), flagged, gwa.game("b_view")),
        "modeler", gwa.views, underlying=gwa.underlying)
    assert alt.validate().holds
    found = find_pure_generalized_nash(alt)
    reference = find_pure_generalized_nash(gwa)
    assert [p.strategies for p in found] == [
        p.strategies for p in reference]
    with pytest.raises(InputError):
        AugmentedGame("a_view", a_view.tree, a_view.awareness,
                      virtual_moves=((("nowhere",), "x"),))


def test_profile_validation():
    gwa = crossing()
    with pytest.raises(InputError):
        GeneralizedProfile({("A",): {"A.1": {"across_A": 1}}})
    with pytest.raises(InputError):
        GeneralizedProfile({("A", "a_view"): {"A.1": {"across_A": -1}}})
    incomplete = GeneralizedProfile.pure(
        {k: v for k, v in E1_ASSIGNMENTS.items() if k != ("B", "b_view")})
    with pytest.raises(InputError):
        is_generalized_nash(gwa, incomplete)
    bad_sum = GeneralizedProfile(
        {**GeneralizedProfile.pure(E1_ASSIGNMENTS).strategies,
         ("B", "modeler"): {"B": {"down_B": F(1, 2)}}})
    with pytest.raises(InputError):
        is_generalized_nash(gwa, bad_sum)
    unknown_move = GeneralizedProfile(
        {**GeneralizedProfile.pure(E1_ASSIGNMENTS).strategies,
         ("B", "modeler"): {"B": {"sideways": F(1)}}})
    with pytest.raises(InputError):
        is_generalized_nash(gwa, unknown_move)


def _two_view_structure():
    """The first game's node borrows a strategy from a larger believed
    information set, so a believed move can be unplayable in place."""
    t1 = ExtensiveGame(("A",), {(): ("x",)}, {(): "A"}, {(): "L1"},
                       {("x",): (0,)})
    t2 = ExtensiveGame(("A",), {(): ("x", "y")}, {(): "A"}, {(): "L2"},
                       {("x",): (1,), ("y",): (2,)})
    every = frozenset({(), ("x",), ("y",)})
    g1 = AugmentedGame("g1", t1, {(): every})
    g2 = AugmentedGame("g2", t2, {(): every})
    views = {("g1", ()): ("g2", "L2"), ("g2", ()): ("g2", "L2")}
    return GameWithAwareness((g1, g2), "g2", views, underlying=t2)


def test_believed_move_unavailable_in_place():
    gwa = _two_view_structure()
    assert gwa.validate().holds
    profile = GeneralizedProfile.pure({("A", "g2"): {"L2": "y"}})
    assert is_generalized_nash(gwa, profile).holds
    with pytest.raises(InputError):
        outcome_distribution(gwa, "g1", profile)
    assert outcome_distribution(gwa, "g2", profile) == {("y",): F(1)}


def test_walk_names_each_unresolved_belief():
    """Walking a structure that fails validate() stops at the first node
    whose move cannot be resolved, with the reason."""
    tree = ExtensiveGame(("A", "B"), {(): ("x",), ("x",): ("u",)},
                         {(): "A", ("x",): "B"}, {(): "LA", ("x",): "LB"},
                         {("x", "u"): (0, 0)})
    every = frozenset(tree.internal_histories) | frozenset(
        tree.terminal_histories)
    g = AugmentedGame("g", tree, {(): every, ("x",): every})
    profile = GeneralizedProfile.pure({("A", "g"): {"LA": "x"}})
    missing = GameWithAwareness(
        (g,), "g", {("g", ()): ("g", "LA")}, underlying=tree)
    with pytest.raises(InputError, match="no belief entry"):
        outcome_distribution(missing, "g", profile)
    # B's node believes A's information set, which no piece of B covers
    wrong = GameWithAwareness(
        (g,), "g", {("g", ()): ("g", "LA"), ("g", ("x",)): ("g", "LA")},
        underlying=tree)
    with pytest.raises(InputError, match="no profile entry covers"):
        outcome_distribution(wrong, "g", profile)


def test_canonical_representation_is_single_view():
    tree = ExtensiveGame(
        ("A", "B"),
        {(): ("l", "r"), ("l",): ("u", "d")},
        {(): "A", ("l",): "B"},
        {(): "A0", ("l",): "B0"},
        {("r",): (0, 0), ("l", "u"): (2, 1), ("l", "d"): (-1, 3)})
    canon = canonical_representation(tree)
    assert canon.validate().holds
    assert canon.modeler == "modeler"
    assert canon.active_pairs() == (("A", "modeler"), ("B", "modeler"))
    nf = induced_normal_form(tree)
    found = find_pure_generalized_nash(canon)
    assert generalized_profile_names(tree, found) == pure_nash_names(nf)


def test_canonical_equivalence_on_random_trees():
    rng = random.Random(424242)
    for _ in range(25):
        tree = random_small_game(rng)
        canon = canonical_representation(tree)
        assert canon.validate().holds
        nf = induced_normal_form(tree)
        found = find_pure_generalized_nash(canon)
        assert generalized_profile_names(tree, found) == pure_nash_names(nf)


# Reference search for the tests below: the profile bound, then the plain
# loop that runs the full is_generalized_nash check on every combination.

def _reference_find(gwa, epsilon=0, work_bound=10_000_000):
    slots = []
    for player, game_name in gwa.active_pairs():
        tree = gwa.game(game_name).tree
        for label in gwa.active_labels(player, game_name):
            slots.append((player, game_name, label, tree.label_moves(label)))
    bounded_product((len(slot[3]) for slot in slots), work_bound,
                    "pure profiles")
    found = []
    for combo in itertools.product(*(slot[3] for slot in slots)):
        assignments = {}
        for (player, game_name, label, _), move in zip(slots, combo):
            assignments.setdefault((player, game_name), {})[label] = move
        candidate = GeneralizedProfile.pure(assignments)
        if is_generalized_nash(gwa, candidate, epsilon).holds:
            found.append(candidate)
    return found


def _outcome(call):
    """The strategies of the found profiles, or the error's type and
    message."""
    try:
        return [profile.strategies for profile in call()]
    except (InputError, WorkBoundExceeded) as exc:
        return type(exc), str(exc)


def test_find_matches_reference_loop():
    rng = random.Random(20261018)
    structures = [canonical_representation(random_small_game(rng))
                  for _ in range(120)]
    structures += [crossing_game(F(i, 10)) for i in range(11)]
    found = 0
    for gwa in structures:
        for eps in (F(0), F(1, 2)):
            got = _outcome(lambda: find_pure_generalized_nash(gwa, eps))
            assert got == _outcome(lambda: _reference_find(gwa, eps))
            found += len(got)
    assert found > 200, found


def test_find_errors_match_reference_loop():
    gwa = crossing()      # 4 active pieces of 2, 2, 2 and 1 moves
    tree = ExtensiveGame(("A", "B"), {(): ("x", "y"), ("x",): ("u", "v")},
                         {(): "A", ("x",): "B"}, {(): "LA", ("x",): "LB"},
                         {("y",): (1, 1), ("x", "u"): (0, 0),
                          ("x", "v"): (2, 2)})
    every = frozenset(tree.internal_histories) | frozenset(
        tree.terminal_histories)
    g = AugmentedGame("g", tree, {(): every, ("x",): every})
    # B's node believes A's information set, which no piece of B covers;
    # the walk meets it only once A plays x
    uncovered = GameWithAwareness(
        (g,), "g", {("g", ()): ("g", "LA"), ("g", ("x",)): ("g", "LA")},
        underlying=tree)
    cases = [
        (gwa, -1, None, InputError),
        (gwa, 0.5, None, InputError),
        (gwa, 0, 7, WorkBoundExceeded),
        (gwa, -1, 7, WorkBoundExceeded),      # the bound wins
        (gwa, F(1, 2), 8, None),
        (uncovered, 0, None, InputError),
        (uncovered, -1, None, InputError),    # epsilon before the walk
        # a_view's unaware B borrows the modeler's B piece, whose down_B
        # it cannot play
        (_mutated(gwa, {("a_view", ("unaware", "across_A")):
                        ("modeler", "B")}), 0, None, InputError),
    ]
    for structure, eps, bound, kind in cases:
        bound = 10_000_000 if bound is None else bound
        got = _outcome(lambda: find_pure_generalized_nash(
            structure, eps, bound))
        assert got == _outcome(lambda: _reference_find(structure, eps, bound))
        if kind is None:
            assert isinstance(got, list)
        else:
            assert got[0] is kind, got
    assert "no profile entry covers" in _outcome(
        lambda: find_pure_generalized_nash(uncovered))[1]


def test_find_errors_do_not_depend_on_payoffs():
    """The pair game's table walks every game under every combination, so
    an invalid structure is refused even where the only uncovered node lies
    under a move that every profile abandons."""
    x = ExtensiveGame(("A", "B"), {(): ("m0", "m1")}, {(): "A"}, {(): "LA"},
                      {("m0",): (1, 0), ("m1",): (0, 0)})
    y = ExtensiveGame(("A", "B"),
                      {(): ("m0", "m1"), ("m0",): ("u", "v"), ("m1",): ("w",)},
                      {(): "A", ("m0",): "B", ("m1",): "B"},
                      {(): "LY", ("m0",): "LB", ("m1",): "LC"},
                      {("m0", "u"): (0, 1), ("m0", "v"): (0, 0),
                       ("m1", "w"): (0, 0)})
    every = frozenset(y.internal_histories) | frozenset(y.terminal_histories)
    gwa = GameWithAwareness(
        (AugmentedGame("x", x, {(): every}),
         AugmentedGame("y", y, dict.fromkeys(
             ((), ("m0",), ("m1",)), every))),
        "y",
        {("x", ()): ("x", "LA"), ("y", ()): ("x", "LA"),
         ("y", ("m0",)): ("y", "LB"),
         # B's node believes A's information set: no B piece covers it
         ("y", ("m1",)): ("x", "LA")},
        underlying=y)
    assert gwa.active_pairs() == (("A", "x"), ("B", "y"))
    assert gwa.validate().witness.data["condition"] == "wrong-player"
    # in x, m1 pays A less than m0, so a scan that stops at the first gain
    # never walks y under m1 and finds {LA: m0, LB: u}
    assert [p.strategies for p in _reference_find(gwa)] == [
        {("A", "x"): {"LA": {"m0": 1}}, ("B", "y"): {"LB": {"u": 1}}}]
    with pytest.raises(InputError) as caught:
        find_pure_generalized_nash(gwa)
    assert str(caught.value) == (
        "game y: node ('m1',) believes (x, 'LA'), which no profile entry "
        "covers; run validate()")


def test_find_walks_each_game_once_per_combination(monkeypatch):
    walks = []
    original = awareness._walk

    def counting(tree, moves_at):
        walks.append(1)
        return original(tree, moves_at)

    monkeypatch.setattr(awareness, "_walk", counting)
    rng = random.Random(7)
    structures = [crossing_game(F(i, 4)) for i in range(5)]
    structures += [canonical_representation(random_small_game(rng))
                   for _ in range(30)]
    ours = reference = 0
    for gwa in structures:
        games = {game_name for _, game_name in gwa.active_pairs()}
        combos = 1
        for player, game_name in gwa.active_pairs():
            tree = gwa.game(game_name).tree
            for label in gwa.active_labels(player, game_name):
                combos *= len(tree.label_moves(label))
        walks.clear()
        find_pure_generalized_nash(gwa)
        assert len(walks) <= len(games) * combos
        ours += len(walks)
        walks.clear()
        _reference_find(gwa)
        reference += len(walks)
    assert 0 < ours < reference


def test_augmented_game_checks_shared_levels():
    tree = ExtensiveGame(("A",), {(): ("x",), ("x",): ("y",)},
                         {(): "A", ("x",): "A"}, {(): "L0", ("x",): "L1"},
                         {("x", "y"): (0,)})
    good = frozenset({(), ("x",), ("x", "y")})
    bad = frozenset({(), ("x",), "x"})
    for levels in ((bad, bad), (good, bad), (bad, good),
                   ({(), "x"}, {(), "x"})):
        with pytest.raises(InputError, match="must contain histories"):
            AugmentedGame("g", tree, dict(zip(((), ("x",)), levels)))
    shared = AugmentedGame("g", tree, {(): good, ("x",): good})
    assert shared.awareness == {(): good, ("x",): good}
