import itertools
import random
import time
from fractions import Fraction

import pytest

from _gen import (generalized_profile_names, pure_nash_names,
                  random_generalized_profile, random_small_game,
                  walk_paths)
from eqcheck.awareness import (AugmentedGame, GameWithAwareness,
                               GeneralizedProfile, canonical_representation,
                               crossing_game, expected_utilities,
                               find_pure_generalized_nash,
                               is_generalized_nash, outcome_distribution)
from eqcheck import awareness
from eqcheck.errors import InputError, WorkBoundExceeded
from eqcheck.games import _check_epsilon, bounded_product
from eqcheck.trees import (NATURE, ExtensiveGame, _pure_alternatives,
                           induced_normal_form)
from eqcheck.verdicts import Verdict, Witness
from test_trees import _go_stop_chain

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


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda m: AugmentedGame("", m.tree, m.awareness),
                 "augmented game: name must be a nonempty string",
                 id="empty-name"),
    pytest.param(lambda m: AugmentedGame("g", "tree", {}),
                 "augmented game g: tree must be an ExtensiveGame",
                 id="not-a-tree"),
    pytest.param(lambda m: AugmentedGame("g", m.tree, {}),
                 "augmented game g: awareness must cover exactly the "
                 "player-owned histories", id="awareness-cover"),
    pytest.param(lambda m: AugmentedGame(
                     "g", m.tree, dict.fromkeys(m.awareness, {(1,), ("b",)})),
                 "augmented game g: awareness at () must contain histories "
                 "(tuples)", id="awareness-int-move"),
    pytest.param(lambda m: AugmentedGame(
                     "g", m.tree, {**m.awareness, ("across_A",): {("",)}}),
                 "augmented game g: awareness at ('across_A',) must contain "
                 "histories (tuples)", id="awareness-empty-move"),
    pytest.param(lambda m: AugmentedGame(
                     "g", m.tree, {**m.awareness, (): {"down_A"}}),
                 "augmented game g: awareness at () must contain histories "
                 "(tuples)", id="awareness-not-a-tuple"),
    pytest.param(lambda m: AugmentedGame(
                     "g", m.tree, dict.fromkeys(m.awareness, 5)),
                 "augmented game g: awareness at () must contain histories "
                 "(tuples)", id="awareness-not-iterable"),
    pytest.param(lambda m: AugmentedGame(
                     "g", m.tree, dict.fromkeys(m.awareness, [["down_A"]])),
                 "augmented game g: awareness at () must contain histories "
                 "(tuples)", id="awareness-unhashable-entry"),
    pytest.param(lambda m: AugmentedGame("g", m.tree, m.awareness,
                                         virtual_moves=((),)),
                 "augmented game g: virtual moves are (history, move) pairs",
                 id="virtual-move-pair"),
    pytest.param(lambda m: GameWithAwareness((), "modeler", {}),
                 "expected at least one augmented game", id="no-games"),
    pytest.param(lambda m: GameWithAwareness((m.tree,), "modeler", {}),
                 "games must be AugmentedGame values", id="bare-tree"),
    pytest.param(lambda m: GameWithAwareness((m, m), "modeler", {}),
                 "augmented game names must be unique", id="duplicate-name"),
    pytest.param(lambda m: GameWithAwareness((m,), "nowhere", {}),
                 "unknown modeler game 'nowhere'", id="unknown-modeler"),
    pytest.param(lambda m: GameWithAwareness((m,), "modeler",
                                             {"x": ("modeler", "A")}),
                 "views: bad key 'x'", id="view-key"),
    pytest.param(lambda m: GameWithAwareness(
                     (m,), "modeler", {("nowhere", ()): ("modeler", "A")}),
                 "views: unknown game 'nowhere'", id="view-game"),
    pytest.param(lambda m: GameWithAwareness(
                     (m,), "modeler",
                     {("modeler", ("down_A",)): ("modeler", "A")}),
                 "views[modeler, ('down_A',)]: not a player-owned history",
                 id="view-node"),
    pytest.param(lambda m: GameWithAwareness((m,), "modeler",
                                             {("modeler", ()): "A"}),
                 "views[modeler, ()]: expected a (game, information set) "
                 "pair, got 'A'", id="view-target"),
    pytest.param(lambda m: GameWithAwareness((m,), "modeler", {}).game("b"),
                 "unknown game 'b'", id="unknown-game"),
])
def test_structure_constructor_refusals(build, message):
    with pytest.raises(InputError) as info:
        build(crossing().game("modeler"))
    assert str(info.value) == message


@pytest.mark.parametrize("payoffs, message", [
    pytest.param(dict(pay_down=(1, 0.5)),
                 "pay_down: expected an exact rational, got float",
                 id="not-rational"),
    pytest.param(dict(pay_across_across=(0, 2, 1)),
                 "payoffs are (A, B) pairs", id="not-a-pair"),
    pytest.param(dict(pay_across_down=(1, 3)),
                 "payoffs must make A prefer across_A when B plays down_B",
                 id="a-across"),
    pytest.param(dict(pay_across_across=(1, 2)),
                 "payoffs must make A prefer down_A when B plays across_B",
                 id="a-down"),
    pytest.param(dict(pay_across_down=(2, 2)),
                 "payoffs must make an aware B prefer down_B", id="b-down"),
])
def test_crossing_game_payoff_refusals(payoffs, message):
    with pytest.raises(InputError) as info:
        crossing_game(F(3, 10), **payoffs)
    assert str(info.value) == message


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: crossing_game(F(3, 2)),
                 "unaware_prob must lie in [0, 1]", id="probability"),
    pytest.param(lambda: GeneralizedProfile({("A", "g"): {"": {"x": 1}}}),
                 "profile[('A', 'g')]: bad information set ''",
                 id="empty-label"),
    pytest.param(lambda: is_generalized_nash(
                     crossing(), GeneralizedProfile.pure(
                         {**E1_ASSIGNMENTS, ("A", "a_view"): {}})),
                 "profile: player A in game a_view has no moves for "
                 "information set 'A.1'", id="missing-label"),
])
def test_profile_and_probability_refusals(call, message):
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message


def _mutated(gwa, replacements):
    views = dict(gwa.views)
    views.update(replacements)
    return GameWithAwareness(gwa.games, gwa.modeler, views)


def test_validate_missing_view():
    gwa = crossing()
    views = dict(gwa.views)
    del views[("b_view", ("across_A",))]
    broken = GameWithAwareness(gwa.games, gwa.modeler, views)
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
    broken = GameWithAwareness(games, "modeler", gwa.views)
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
        "modeler", gwa.views)
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
    return GameWithAwareness((g1, g2), "g2", views)


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
    missing = GameWithAwareness((g,), "g", {("g", ()): ("g", "LA")})
    with pytest.raises(InputError, match="no belief entry"):
        outcome_distribution(missing, "g", profile)
    # B's node believes A's information set, which no piece of B covers
    wrong = GameWithAwareness(
        (g,), "g", {("g", ()): ("g", "LA"), ("g", ("x",)): ("g", "LA")})
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


def _reference_structures():
    """120 seeded random canonical structures, then eleven crossing games."""
    rng = random.Random(20261018)
    structures = [canonical_representation(random_small_game(rng))
                  for _ in range(120)]
    return structures + [crossing_game(F(i, 10)) for i in range(11)]


def test_find_matches_reference_loop():
    found = 0
    for gwa in _reference_structures():
        for eps in (F(0), F(1, 2)):
            got = _outcome(lambda: find_pure_generalized_nash(gwa, eps))
            assert got == _outcome(lambda: _reference_find(gwa, eps))
            found += len(got)
    assert found > 200, found


# Reference check for the test below: is_generalized_nash's own loop as it
# stood before the shared unilateral scan, comparing Fractions and building
# its witness by hand.

def _reference_generalized_nash(gwa, profile, epsilon=0):
    eps = _check_epsilon(epsilon)
    rows = awareness._profile_rows(gwa, profile)
    for player, game_name, labels in awareness._active_pieces(gwa):
        tree = gwa.game(game_name).tree
        pidx = tree.players.index(player)
        base = awareness._expected_from_rows(gwa, game_name, rows)[pidx]
        for moves in itertools.product(*(tree.label_moves(l)
                                         for l in labels)):
            trial = dict(rows)
            for label, move in zip(labels, moves):
                key = (player, game_name, label)
                trial[key] = (key, _pure_alternatives((move,)))
            value = awareness._expected_from_rows(gwa, game_name, trial)[pidx]
            if value > base + eps:
                described = "; ".join(
                    f"{m} at {l}" for l, m in zip(labels, moves))
                return Verdict(False, Witness(
                    kind="subjective-deviation",
                    description=(
                        f"player {player} gains in game {game_name} by "
                        f"playing {described}"),
                    data={
                        "player": player,
                        "game": game_name,
                        "strategy": dict(zip(labels, moves)),
                        "utility_before": base,
                        "utility_after": value,
                        "gain": value - base,
                    }))
    return Verdict(True)


def test_check_matches_reference_loop():
    """The shared scan keeps is_generalized_nash's verdicts and whole
    witnesses: kind, description, and data in key order."""
    rng = random.Random(1998)
    outcomes = {True: 0, False: 0}
    for gwa in _reference_structures():
        for pure in (True, True, False, False):
            profile = random_generalized_profile(gwa, rng, pure)
            for eps in (F(0), F(1, 2)):
                got = is_generalized_nash(gwa, profile, eps)
                want = _reference_generalized_nash(gwa, profile, eps)
                assert got.holds == want.holds
                outcomes[got.holds] += 1
                if got.holds:
                    assert got.witness is None
                    continue
                assert (got.witness.kind, got.witness.description) == (
                    want.witness.kind, want.witness.description)
                assert list(got.witness.data.items()) == list(
                    want.witness.data.items())
                assert all(type(got.witness.data[k]) is Fraction for k in
                           ("utility_before", "utility_after", "gain"))
    assert min(outcomes.values()) > 200, outcomes


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
        (g,), "g", {("g", ()): ("g", "LA"), ("g", ("x",)): ("g", "LA")})
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
         ("y", ("m1",)): ("x", "LA")})
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
    """The fill walks each game at most once per combination, counted as
    the reached paths of its walks: fewer than the reference loop's."""
    paths = []
    original = awareness._walk

    def counting(*args, **kwargs):
        trie = original(*args, **kwargs)
        paths.append(walk_paths(trie))
        return trie

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
        paths.clear()
        find_pure_generalized_nash(gwa)
        assert sum(paths) <= len(games) * combos
        ours += sum(paths)
        paths.clear()
        _reference_find(gwa)
        reference += sum(paths)
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


def _reference_violation(gwa):
    """validate()'s first violation by plain scans, as (condition, game,
    node, detail) with detail only for awareness levels, or None: each
    believed information set's nodes are found by rescanning its game,
    and each awareness level is sorted whole."""
    nodes = [(ag, h) for ag in gwa.games for h in ag.tree.internal_histories
             if ag.tree.owner[h] != NATURE]
    for ag, h in nodes:
        view = gwa.views.get((ag.name, h))
        if view is None:
            return "missing-view", ag.name, h, None
        tree = gwa.game(view[0]).tree
        if not tree.has_label(view[1]):
            return "unknown-target", ag.name, h, None
        if tree.label_owner(view[1]) != ag.tree.owner[h]:
            return "wrong-player", ag.name, h, None
        if not set(ag.tree.moves[h]) <= set(tree.label_moves(view[1])):
            return "move-embedding", ag.name, h, None
    for ag, h in nodes:
        target_name, label = gwa.views[(ag.name, h)]
        tree = gwa.game(target_name).tree
        for h2 in tree.internal_histories:
            if (tree.owner[h2] != NATURE
                    and tree.infosets[h2] == label
                    and gwa.views[(target_name, h2)] != (target_name, label)):
                return "introspection", target_name, h2, None
    objective = set(gwa.underlying.internal_histories)
    objective.update(gwa.underlying.terminal_histories)
    for ag, h in nodes:
        stray = [x for x in sorted(ag.awareness[h], key=lambda t: (len(t), t))
                 if x not in objective]
        if stray:
            return ("awareness-level", ag.name, h,
                    f"{stray[0]!r} is not a history of the objective game")
    return None


def _scrambled(gwa, rng):
    """gwa with a few belief entries dropped or retargeted and a few
    awareness levels given histories outside the objective game."""
    views = dict(gwa.views)
    nodes = sorted(views, key=repr)
    if not nodes:
        return gwa
    targets = sorted({(ag.name, label) for ag in gwa.games
                      for label in ag.tree.labels}, key=repr)
    targets.append((gwa.modeler, "nowhere"))
    for _ in range(rng.randint(0, 3)):
        key = rng.choice(nodes)
        if rng.random() < 0.1:
            views.pop(key, None)
        else:
            views[key] = rng.choice(targets)
    games = []
    for ag in gwa.games:
        levels = dict(ag.awareness)
        for _ in range(rng.randint(0, 2)):
            h = rng.choice(sorted(levels, key=repr))
            levels[h] = levels[h] | {
                tuple(rng.choice(("go", "zz", "x")) for _ in range(size))
                for size in rng.sample(range(1, 4), rng.randint(1, 3))}
        games.append(AugmentedGame(ag.name, ag.tree, levels))
    return GameWithAwareness(games, gwa.modeler, views)


def test_validate_matches_reference_scan():
    rng = random.Random(20261020)
    seen = set()
    for gwa in _reference_structures():
        for structure in [gwa] + [_scrambled(gwa, rng) for _ in range(6)]:
            want = _reference_violation(structure)
            verdict = structure.validate()
            if want is None:
                assert verdict.holds
                continue
            data = verdict.witness.data
            got = (data["condition"], data["game"], data["node"],
                   data["detail"] if want[-1] is not None else None)
            assert got == want
            seen.add(want[0])
    assert seen == {"missing-view", "unknown-target", "wrong-player",
                    "move-embedding", "introspection", "awareness-level"}


# Reference derivation of the active domain for the test below, as
# GameWithAwareness.active_pairs and active_labels made it before
# _active_pieces: a list scan per pair, and the target set rebuilt for
# every pair's labels.

def _reference_active_pairs(gwa):
    targets = set(gwa.views.values())
    pairs = []
    for ag in gwa.games:
        for label in ag.tree.labels:
            if (ag.name, label) in targets:
                pair = (ag.tree.label_owner(label), ag.name)
                if pair not in pairs:
                    pairs.append(pair)
    return tuple(pairs)


def _reference_active_labels(gwa, player, game_name):
    ag = gwa.game(game_name)
    targets = set(gwa.views.values())
    return tuple(
        label for label in ag.tree.labels
        if (game_name, label) in targets
        and ag.tree.label_owner(label) == player)


def test_active_domain_matches_reference_derivation():
    rng = random.Random(20261023)
    partial = 0
    for gwa in _reference_structures():
        for structure in [gwa] + [_scrambled(gwa, rng) for _ in range(6)]:
            pairs = _reference_active_pairs(structure)
            pieces = awareness._active_pieces(structure)
            assert structure.active_pairs() == pairs
            assert pieces == tuple(
                (player, game_name,
                 _reference_active_labels(structure, player, game_name))
                for player, game_name in pairs)
            for ag in structure.games:
                for player in ag.tree.players:
                    assert structure.active_labels(player, ag.name) == (
                        _reference_active_labels(structure, player, ag.name))
            # some information set is left out of the domain
            partial += sum(len(labels) for *_, labels in pieces) < sum(
                len(ag.tree.labels) for ag in structure.games)
        with pytest.raises(InputError, match="^unknown game 'nowhere'$"):
            gwa.active_labels(gwa.underlying.players[0], "nowhere")
    assert partial > 300, partial


def test_validate_is_linear_enough_for_a_deep_chain():
    """A 1,000-node chain took about 20 s when every node sorted its whole
    awareness level and rescanned its game for its information set."""
    gwa = canonical_representation(_go_stop_chain(1000))
    start = time.perf_counter()
    assert gwa.validate().holds
    assert time.perf_counter() - start < 5
