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


def _entry_args(**changes):
    """entry_tree's constructor arguments, with changes."""
    args = dict(
        players=("E", "I"),
        moves={(): ("out", "in"), ("in",): ("fight", "yield")},
        owner={(): "E", ("in",): "I"},
        infosets={(): "E0", ("in",): "I0"},
        payoffs={
            ("out",): (0, 2),
            ("in", "fight"): (-1, -1),
            ("in", "yield"): (1, 1),
        })
    args.update(changes)
    return args


def entry_tree():
    """Entrant moves first; the incumbent reacts without seeing history."""
    return ExtensiveGame(**_entry_args())


def _coin_args(probs):
    """A one-player tree whose root is a chance node with probs."""
    return dict(players=("P",), moves={(): ("l", "r")}, owner={(): NATURE},
                infosets={}, payoffs={("l",): (0,), ("r",): (1,)},
                nature_probs={(): probs})


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
    # 12 nodes per player: 4,096 pure strategies each
    with pytest.raises(
            WorkBoundExceeded,
            match="^16777216 induced payoff entries exceed the bound 10000000$"):
        induced_normal_form(_go_stop_chain(24))


@pytest.mark.parametrize("args, message", [
    pytest.param(
        _entry_args(moves={"root": ("out", "in"), ("in",): ("fight", "yield")}),
        "moves: histories must be tuples of move names, got 'root'",
        id="history-not-a-tuple"),
    pytest.param(
        _entry_args(players=("E", NATURE)),
        "players: 'nature' is reserved for chance nodes", id="nature-player"),
    pytest.param(
        _entry_args(moves={(): (), ("in",): ("fight", "yield")}),
        "moves[()]: expected a nonempty move list", id="no-moves"),
    pytest.param(
        _entry_args(moves={(): ("out", ""), ("in",): ("fight", "yield")}),
        "moves[()]: moves must be nonempty strings", id="empty-move"),
    pytest.param(
        _entry_args(moves={(): ("out", "out"), ("in",): ("fight", "yield")}),
        "moves[()]: duplicate moves", id="duplicate-move"),
    pytest.param(
        _entry_args(payoffs={("out",): (0, 2), ("in",): (0, 0)}),
        "history ('in',) is both internal and terminal",
        id="internal-and-terminal"),
    pytest.param(
        _entry_args(payoffs={("out",): (0,), ("in", "fight"): (-1, -1),
                             ("in", "yield"): (1, 1)}),
        "payoffs[('out',)]: expected 2 values", id="payoff-length"),
    pytest.param(
        _entry_args(moves={}, owner={}, infosets={},
                    payoffs={("out",): (0, 2)}),
        "the root (empty history) is missing", id="no-root"),
    pytest.param(
        _entry_args(payoffs={("out",): (0, 2), ("in", "fight"): (-1, -1),
                             ("in", "yield"): (1, 1),
                             ("in", "flee"): (0, 0)}),
        "history ('in', 'flee'): move 'flee' not available at the parent",
        id="unavailable-move"),
    pytest.param(
        _entry_args(owner={(): "E"}),
        "owner: must cover exactly the internal histories", id="owner-cover"),
    pytest.param(
        _entry_args(infosets={(): "E0"}),
        "infosets: must cover exactly the player-owned histories",
        id="infoset-cover"),
    pytest.param(
        _entry_args(infosets={(): "E0", ("in",): ""}),
        "infosets[('in',)]: labels must be nonempty strings",
        id="empty-label"),
    pytest.param(
        _coin_args({"l": F(1, 2), "x": F(1, 2)}),
        "nature_probs[()]: unknown move 'x'", id="chance-unknown-move"),
    pytest.param(
        _coin_args({"l": F(-1, 2), "r": F(3, 2)}),
        "nature_probs[()][l]: negative probability", id="chance-negative"),
    pytest.param(
        _coin_args({"l": F(1, 2), "r": F(1, 3)}),
        "nature_probs[()]: probabilities sum to 5/6, not 1",
        id="chance-sum"),
])
def test_tree_constructor_refusals(args, message):
    with pytest.raises(InputError) as info:
        ExtensiveGame(**args)
    assert str(info.value) == message


@pytest.mark.parametrize("bad, kind", [
    (0.5, "float"), (True, "bool"), ("1", "str")], ids=repr)
def test_tree_payoff_value_refusals(bad, kind):
    """A payoff value that is not an int or Fraction is refused with its
    history and player, after the values before it were accepted."""
    payoffs = dict(_entry_args()["payoffs"])
    payoffs[("in", "fight")] = (-1, bad)
    with pytest.raises(InputError) as info:
        ExtensiveGame(**_entry_args(payoffs=payoffs))
    assert str(info.value) == (
        f"payoffs[('in', 'fight')][I]: expected an exact rational, got {kind}")


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


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: outcome_distribution(
                     entry_tree(), {"E0": {"in": 1},
                                    "I0": {"fight": F(-1), "yield": 2}}),
                 "strategy[I0][fight]: negative weight", id="negative"),
    pytest.param(lambda: entry_tree().label_moves("nope"),
                 "unknown information set 'nope'", id="unknown-label"),
])
def test_strategy_and_label_refusals(call, message):
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message


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


def _go_stop_chain(n):
    """n nodes, A and B alternating from the root: stop ends the game,
    go moves on, and going past the last node pays (n, n)."""
    moves, owner, infosets, payoffs = {}, {}, {}, {}
    h = ()
    for d in range(n):
        moves[h] = ("go", "stop")
        owner[h] = "AB"[d % 2]
        infosets[h] = f"I{d}"
        payoffs[h + ("stop",)] = (d, n - d)
        h += ("go",)
    payoffs[h] = (n, n)
    return ExtensiveGame(("A", "B"), moves, owner, infosets, payoffs)


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
