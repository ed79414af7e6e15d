import itertools
import random
from fractions import Fraction

import pytest

from _gen import pure_combo_count, random_extensive_game
from eqcheck import awareness
from eqcheck.errors import InputError, WorkBoundExceeded
from eqcheck.games import MixedProfile, NormalFormGame, is_nash
from eqcheck.trees import (NATURE, ExtensiveGame, expected_payoffs,
                           induced_normal_form, outcome_distribution,
                           pure_strategies)

F = Fraction


def entry_tree():
    """Entrant moves first; the incumbent reacts without seeing history."""
    moves = {(): ("out", "in"), ("in",): ("fight", "yield")}
    owner = {(): "E", ("in",): "I"}
    infosets = {(): "E0", ("in",): "I0"}
    payoffs = {
        ("out",): (0, 2),
        ("in", "fight"): (-1, -1),
        ("in", "yield"): (1, 1),
    }
    return ExtensiveGame(("E", "I"), moves, owner, infosets, payoffs)


def coin_tree():
    moves = {(): ("h", "t"), ("h",): ("l", "r")}
    owner = {(): NATURE, ("h",): "P1"}
    infosets = {("h",): "X"}
    payoffs = {("t",): (4,), ("h", "l"): (0,), ("h", "r"): (8,)}
    nature = {(): {"h": F(1, 2), "t": F(1, 2)}}
    return ExtensiveGame(("P1",), moves, owner, infosets, payoffs, nature)


def test_outcome_distribution_sums_to_one():
    game = entry_tree()
    strategy = {"E0": {"in": 1}, "I0": {"fight": F(1, 3), "yield": F(2, 3)}}
    dist = outcome_distribution(game, strategy)
    assert sum(dist.values()) == 1
    assert dist[("in", "fight")] == F(1, 3)
    assert ("out",) not in dist


def test_expected_payoffs_mixture():
    game = entry_tree()
    strategy = {"E0": {"in": 1}, "I0": {"fight": F(1, 3), "yield": F(2, 3)}}
    assert expected_payoffs(game, strategy) == (F(1, 3), F(1, 3))


def test_chance_is_averaged():
    game = coin_tree()
    assert expected_payoffs(game, {"X": {"r": 1}}) == (F(6),)
    assert expected_payoffs(game, {"X": {"l": 1}}) == (F(2),)


def test_pure_strategies_naming():
    game = entry_tree()
    assert pure_strategies(game, "E") == (
        ("E0:out", {"E0": "out"}), ("E0:in", {"E0": "in"}))
    solo = coin_tree()
    assert pure_strategies(solo, "P1") == (
        ("X:l", {"X": "l"}), ("X:r", {"X": "r"}))
    # a player with no decision node gets the single trivial strategy
    idle = ExtensiveGame(
        ("A", "B"), {(): ("x", "y")}, {(): "A"}, {(): "L"},
        {("x",): (1, 0), ("y",): (0, 1)})
    assert pure_strategies(idle, "B") == (("-", {}),)
    with pytest.raises(InputError):
        pure_strategies(idle, "C")


def test_induced_normal_form_payoffs():
    game = entry_tree()
    nf = induced_normal_form(game)
    assert nf.players == ("E", "I")
    assert nf.actions == (
        ("E0:out", "E0:in"), ("I0:fight", "I0:yield"))
    assert nf.payoffs[(0, 0)] == (0, 2)
    assert nf.payoffs[(1, 0)] == (-1, -1)
    assert nf.payoffs[(1, 1)] == (1, 1)
    # (in, yield) and (out, fight) are the two pure equilibria
    assert is_nash(nf, MixedProfile.pure(nf, ("E0:in", "I0:yield"))).holds
    assert is_nash(nf, MixedProfile.pure(nf, ("E0:out", "I0:fight"))).holds
    assert not is_nash(nf, MixedProfile.pure(nf, ("E0:in", "I0:fight"))).holds


def test_induced_normal_form_respects_entry_bound():
    with pytest.raises(WorkBoundExceeded):
        induced_normal_form(entry_tree(), entry_bound=3)


def test_strategy_validation():
    game = entry_tree()
    with pytest.raises(InputError):
        outcome_distribution(game, {"E0": {"in": 1}})
    with pytest.raises(InputError):
        outcome_distribution(
            game, {"E0": {"in": 1}, "I0": {"fight": F(1, 2)}})
    with pytest.raises(InputError):
        outcome_distribution(
            game, {"E0": {"in": 1}, "I0": {"run": 1}})
    with pytest.raises(InputError):
        outcome_distribution(
            game, {"E0": {"in": 1}, "I0": {"fight": 1}, "Z": {"a": 1}})


def test_tree_construction_errors():
    with pytest.raises(InputError):
        ExtensiveGame((), {}, {}, {}, {(): (1,)})
    with pytest.raises(InputError):
        ExtensiveGame(("A",), {(): ("x",)}, {(): "A"}, {(): "L"}, {})
    with pytest.raises(InputError):
        ExtensiveGame(
            ("A",), {(): ("x", "y")}, {(): "A"}, {(): "L"},
            {("x",): (1,)})
    with pytest.raises(InputError):
        ExtensiveGame(
            ("A",), {(): ("x",)}, {(): "B"}, {(): "L"}, {("x",): (1,)})
    with pytest.raises(InputError):
        ExtensiveGame(
            ("A",), {(): ("x",)}, {(): NATURE}, {}, {("x",): (1,)})
    # a bad interior move, behind a well-formed last move
    with pytest.raises(InputError):
        ExtensiveGame(
            ("A",), {(): ("x",)}, {(): "A"}, {(): "L"},
            {("x",): (1,), (("x",), "x"): (0,)})
    # same label, different move lists
    with pytest.raises(InputError):
        ExtensiveGame(
            ("A", "B"),
            {(): ("x", "y"), ("x",): ("u",)},
            {(): "A", ("x",): "A"},
            {(): "L", ("x",): "L"},
            {("y",): (0, 0), ("x", "u"): (1, 1)})


def test_random_trees_are_consistent():
    rng = random.Random(11)
    for _ in range(40):
        game = random_extensive_game(rng)
        assert len(game.payoffs) <= 12
        total = pure_combo_count(game)
        assert total >= 1
        # a uniform behavioral strategy reaches a genuine distribution
        strategy = {
            label: {
                m: F(1, len(game.label_moves(label)))
                for m in game.label_moves(label)
            }
            for label in game.labels
        }
        dist = outcome_distribution(game, strategy)
        assert sum(dist.values()) == 1
        payoffs = expected_payoffs(game, strategy)
        assert len(payoffs) == len(game.players)


def _reference_walk(game, strategy, h=(), prob=F(1), out=None):
    """The recursive walk: terminal histories in depth-first move order."""
    if out is None:
        out = {}
    if h in game.payoffs:
        out[h] = prob
        return out
    if game.owner[h] == NATURE:
        dist = game.nature_probs[h]
    else:
        dist = strategy[game.infosets[h]]
    for m in game.moves[h]:
        q = F(dist.get(m, 0))
        if q != 0:
            _reference_walk(game, strategy, h + (m,), prob * q, out)
    return out


def _random_strategy(game, rng):
    strategy = {}
    for label in game.labels:
        moves = game.label_moves(label)
        weights = [rng.randint(0, 3) for _ in moves]
        if not any(weights):
            weights[rng.randrange(len(moves))] = 1
        strategy[label] = {
            m: F(w, sum(weights)) for m, w in zip(moves, weights)}
    return strategy


def test_walker_matches_recursive_reference():
    """Same terminal histories, probabilities and dict order as the
    recursive walk, through both the tree and the awareness lookups."""
    rng = random.Random(2026)
    for _ in range(200):
        game = random_extensive_game(rng)
        strategy = _random_strategy(game, rng)
        expected = list(_reference_walk(game, strategy).items())
        assert list(outcome_distribution(game, strategy).items()) == expected
        pieces = {}
        for label in game.labels:
            pair = (game.label_owner(label), "modeler")
            pieces.setdefault(pair, {})[label] = strategy[label]
        canon = awareness.canonical_representation(game)
        profile = awareness.GeneralizedProfile(pieces)
        assert list(awareness.outcome_distribution(
            canon, "modeler", profile).items()) == expected
        payoffs = tuple(
            sum(p * game.payoffs[h][i] for h, p in expected)
            for i in range(len(game.players)))
        assert expected_payoffs(game, strategy) == payoffs
        assert awareness.expected_utilities(
            canon, "modeler", profile) == payoffs


DENOMINATORS = (1, 2, 3, 7, 1_000_000_007)


def _fractional_tree(rng):
    """A random tree with fractional leaf payoffs (zeros and both signs)
    and fractional chance probabilities over mixed denominators."""
    base = random_extensive_game(rng)

    def fraction():
        return F(rng.choice((0, rng.randint(-30, 30))), rng.choice(DENOMINATORS))

    payoffs = {h: tuple(fraction() for _ in base.players) for h in base.payoffs}
    nature = {}
    for h, dist in base.nature_probs.items():
        parts = [abs(fraction()) for _ in dist]
        if not any(parts):
            parts[0] = F(1)
        nature[h] = {m: p / sum(parts) for m, p in zip(dist, parts)}
    return ExtensiveGame(base.players, base.moves, base.owner, base.infosets,
                         payoffs, nature)


def _fractional_strategy(game, rng):
    strategy = {}
    for label in game.labels:
        moves = game.label_moves(label)
        if rng.random() < 0.4:
            strategy[label] = {rng.choice(moves): F(1)}
            continue
        parts = [F(rng.randint(0, 9), rng.choice(DENOMINATORS)) for _ in moves]
        if not any(parts):
            parts[0] = F(1)
        strategy[label] = {m: p / sum(parts) for m, p in zip(moves, parts)}
    return strategy


def _reference_fold(game, dist):
    """Expected payoff vector of a terminal distribution as a plain
    Fraction multiply-add loop."""
    totals = [F(0)] * len(game.players)
    for h, p in dist.items():
        for i, v in enumerate(game.payoffs[h]):
            totals[i] += p * v
    return tuple(totals)


def test_payoff_fold_matches_fraction_loop_on_fractional_trees():
    rng = random.Random(8080)
    for _ in range(200):
        game = _fractional_tree(rng)
        strategy = _fractional_strategy(game, rng)
        reference = _reference_walk(game, strategy)
        dist = outcome_distribution(game, strategy)
        assert list(dist.items()) == list(reference.items())
        assert all(type(p) is Fraction for p in dist.values())
        want = _reference_fold(game, reference)
        got = expected_payoffs(game, strategy)
        assert got == want and all(type(v) is Fraction for v in got)
        pieces = {}
        for label in game.labels:
            pair = (game.label_owner(label), "modeler")
            pieces.setdefault(pair, {})[label] = strategy[label]
        lookup = awareness.expected_utilities(
            awareness.canonical_representation(game), "modeler",
            awareness.GeneralizedProfile(pieces))
        assert lookup == want and all(type(v) is Fraction for v in lookup)


def _deep_chain(depth):
    """One player: stop (pays 0) or go at the root, then go only, down to
    a leaf depth moves below the root that pays 1."""
    moves, owner, infosets = {}, {}, {}
    h = ()
    for d in range(depth):
        moves[h] = ("go", "stop") if d == 0 else ("go",)
        owner[h] = "P"
        infosets[h] = f"I{d}"
        h += ("go",)
    payoffs = {h: (1,), ("stop",): (0,)}
    return ExtensiveGame(("P",), moves, owner, infosets, payoffs)


def test_deep_tree_walks_past_the_recursion_limit():
    game = _deep_chain(1500)
    go = {label: {"go": 1} for label in game.labels}
    stop = dict(go, I0={"stop": 1})
    assert expected_payoffs(game, go) == (F(1),)
    assert expected_payoffs(game, stop) == (F(0),)
    canon = awareness.canonical_representation(game)
    moves = {label: "go" for label in game.labels}
    assert awareness.is_generalized_nash(
        canon, awareness.GeneralizedProfile.pure({("P", "modeler"): moves})
    ).holds
    verdict = awareness.is_generalized_nash(
        canon, awareness.GeneralizedProfile.pure(
            {("P", "modeler"): dict(moves, I0="stop")}))
    assert not verdict.holds
    assert verdict.witness.data["gain"] == 1


def _reference_induced_normal_form(game):
    """The strategic form through the public expected_payoffs: one
    validated {label: {move: 1}} strategy per pure profile."""
    per_player = [pure_strategies(game, p) for p in game.players]
    actions = tuple(tuple(name for name, _ in strats) for strats in per_player)
    payoffs = {}
    for key in itertools.product(*(range(len(s)) for s in per_player)):
        strategy = {}
        for i, si in enumerate(key):
            for label, move in per_player[i][si][1].items():
                strategy[label] = {move: F(1)}
        payoffs[key] = expected_payoffs(game, strategy)
    return NormalFormGame(game.players, actions, payoffs)


def test_induced_normal_form_matches_expected_payoffs_reference():
    rng = random.Random(4242)
    for trial in range(200):
        game = (_fractional_tree(rng) if trial % 2
                else random_extensive_game(rng))
        got = induced_normal_form(game)
        want = _reference_induced_normal_form(game)
        assert type(got) is NormalFormGame
        assert (got.players, got.actions) == (want.players, want.actions)
        assert list(got.payoffs.items()) == list(want.payoffs.items())
        assert all(type(v) is Fraction
                   for vec in got.payoffs.values() for v in vec)
