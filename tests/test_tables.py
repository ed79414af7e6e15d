"""The tree tables against the per-combination fill they replace.

induced_normal_form and the awareness pair game fill their tables by one
shared-prefix walk per game.  The references below are the fill that walks
every game once per pure combination, through the public behavioral walk.
"""

import itertools
import random
from fractions import Fraction

from _gen import random_extensive_game, random_small_game, walk_paths
from eqcheck import awareness, trees
from eqcheck.awareness import (AugmentedGame, GameWithAwareness,
                               GeneralizedProfile, canonical_representation,
                               crossing_game, expected_utilities)
from eqcheck.errors import InputError
from eqcheck.trees import (NATURE, ExtensiveGame, expected_payoffs,
                           induced_normal_form, pure_strategies)
from test_trees import _deep_chain, _fractional_tree, _go_stop_chain

F = Fraction


def _reference_induced_table(game):
    """(players, actions, payoff items): one walk per pure profile."""
    per_player = [pure_strategies(game, p) for p in game.players]
    payoffs = []
    for key in itertools.product(*(range(len(s)) for s in per_player)):
        strategy = {}
        for i, si in enumerate(key):
            for label, move in per_player[i][si][1].items():
                strategy[label] = {move: F(1)}
        payoffs.append((key, expected_payoffs(game, strategy)))
    actions = tuple(tuple(name for name, _ in s) for s in per_player)
    return game.players, actions, payoffs


def _reference_pair_table(gwa):
    """(players, actions, payoff items) of the pair game, every game walked
    once per combination in active order, or the first walk's error."""
    pieces = [(player, game_name, gwa.active_labels(player, game_name))
              for player, game_name in gwa.active_pairs()]
    choices = [list(itertools.product(
        *(gwa.game(game_name).tree.label_moves(l) for l in labels)))
        for _, game_name, labels in pieces]
    games = list(dict.fromkeys(game_name for _, game_name, _ in pieces))
    seats = [(games.index(game_name),
              gwa.game(game_name).tree.players.index(player))
             for player, game_name, _ in pieces]
    payoffs = []
    try:
        for key in itertools.product(*(range(len(c)) for c in choices)):
            profile = GeneralizedProfile.pure({
                (player, game_name): dict(zip(labels, per[a]))
                for (player, game_name, labels), per, a
                in zip(pieces, choices, key)})
            vectors = [expected_utilities(gwa, game_name, profile)
                       for game_name in games]
            payoffs.append((key, tuple(vectors[g][i] for g, i in seats)))
    except InputError as exc:
        return InputError, str(exc)
    players = tuple(f"{player}@{game_name}"
                    for player, game_name, _ in pieces)
    actions = tuple(tuple(map(str, range(len(c)))) for c in choices)
    return players, actions, payoffs


def _induced_table(game):
    nf = induced_normal_form(game)
    assert all(type(v) is Fraction for vec in nf.payoffs.values()
               for v in vec)
    return nf.players, nf.actions, list(nf.payoffs.items())


def _pair_table(gwa):
    try:
        _, nf = awareness._pair_game(gwa, awareness._active_pieces(gwa))
    except InputError as exc:
        return InputError, str(exc)
    return nf.players, nf.actions, list(nf.payoffs.items())


def _repeated_label_tree():
    """A's information set I recurs along one path, under B's move and a
    chance move, so the fill reuses the move it fixed at the root."""
    return ExtensiveGame(
        ("A", "B"),
        moves={(): ("l", "r"), ("l",): ("u", "d"), ("l", "u"): ("l", "r"),
               ("l", "d"): ("x", "y"), ("l", "d", "x"): ("l", "r")},
        owner={(): "A", ("l",): "B", ("l", "u"): "A", ("l", "d"): NATURE,
               ("l", "d", "x"): "A"},
        infosets={(): "I", ("l",): "J", ("l", "u"): "I",
                  ("l", "d", "x"): "I"},
        payoffs={("r",): (0, 1), ("l", "u", "l"): (F(1, 2), 3),
                 ("l", "u", "r"): (2, F(-1, 3)), ("l", "d", "y"): (-1, 0),
                 ("l", "d", "x", "l"): (F(5, 7), 1),
                 ("l", "d", "x", "r"): (4, F(2, 9))},
        nature_probs={("l", "d"): {"x": F(1, 3), "y": F(2, 3)}})


def _trees():
    rng = random.Random(16016)
    out = [random_extensive_game(rng) for _ in range(60)]
    out += [random_small_game(rng) for _ in range(60)]
    out += [_fractional_tree(rng) for _ in range(60)]
    return out + [_repeated_label_tree()]


def test_tables_match_the_per_combination_fill():
    """Entry for entry and in key order: the induced table of every tree,
    and the pair-game table of its canonical representation."""
    for game in _trees():
        assert _induced_table(game) == _reference_induced_table(game)
        canon = canonical_representation(game)
        assert _pair_table(canon) == _reference_pair_table(canon)


def test_pair_tables_match_on_crossing_games():
    for i in range(11):
        gwa = crossing_game(F(i, 10))
        assert _pair_table(gwa) == _reference_pair_table(gwa)
    gwa = crossing_game(F(3, 10))
    views = dict(gwa.views)
    # a_view's unaware B borrows the modeler's B piece, whose down_B it
    # cannot play: the error of the first combination that plays it
    views[("a_view", ("unaware", "across_A"))] = ("modeler", "B")
    broken = GameWithAwareness(gwa.games, gwa.modeler, views)
    got = _pair_table(broken)
    assert got == _reference_pair_table(broken)
    assert got[0] is InputError and "unavailable" in got[1]


def test_error_leaf_is_raised_at_its_first_combination():
    """Two B nodes believe A's information set, which no B piece covers.
    The walk reaches LA before LB2 but the table orders LB2 first, so the
    first erring combination, (p, u, b), is not the walk's first erring
    branch, (p, a, v)."""
    tree = ExtensiveGame(
        ("A", "B"),
        moves={(): ("p", "q"), ("p",): ("a", "b"), ("p", "a"): ("u", "v"),
               ("p", "b"): ("s",), ("p", "a", "v"): ("s",)},
        owner={(): "B", ("p",): "A", ("p", "a"): "B", ("p", "b"): "B",
               ("p", "a", "v"): "B"},
        infosets={(): "LB1", ("p",): "LA", ("p", "a"): "LB2",
                  ("p", "b"): "LX", ("p", "a", "v"): "LY"},
        payoffs={("q",): (0, 0), ("p", "a", "u"): (1, 2),
                 ("p", "b", "s"): (3, 4), ("p", "a", "v", "s"): (5, 6)})
    every = frozenset(tree.internal_histories) | frozenset(
        tree.terminal_histories)
    g = AugmentedGame("g", tree, dict.fromkeys(tree.moves, every))
    views = {("g", h): ("g", tree.infosets[h]) for h in tree.moves}
    views[("g", ("p", "b"))] = views[("g", ("p", "a", "v"))] = ("g", "LA")
    gwa = GameWithAwareness((g,), "g", views)
    assert [awareness._active_pieces(gwa)] == [
        (("B", "g", ("LB1", "LB2")), ("A", "g", ("LA",)))]
    got = _pair_table(gwa)
    assert got == _reference_pair_table(gwa)
    assert got == (InputError, "game g: node ('p', 'b') believes (g, "
                               "'LA'), which no profile entry covers; run "
                               "validate()")


def _count_paths(monkeypatch):
    """The reached paths of every walk of the two table fills."""
    paths = []
    for module in (trees, awareness):
        original = module._walk

        def counting(*args, _original=original, **kwargs):
            trie = _original(*args, **kwargs)
            paths.append(walk_paths(trie))
            return trie

        monkeypatch.setattr(module, "_walk", counting)
    return paths


def test_repeated_label_reuses_its_fixed_move(monkeypatch):
    """I is fixed at the root, so the 2 x 2 profiles reach three paths:
    r, then l with each of B's moves."""
    paths = _count_paths(monkeypatch)
    game = _repeated_label_tree()
    induced_normal_form(game)
    canon = canonical_representation(game)
    awareness._pair_game(canon, awareness._active_pieces(canon))
    assert paths == [3, 3]


def test_chain_tables_come_from_one_path_per_stop(monkeypatch):
    """The 2^16 profiles of a 16-node go/stop chain reach 17 distinct
    paths: the induced table and the canonical pair-game table each take
    at most n + 1 of them."""
    n = 16
    game = _go_stop_chain(n)
    paths = _count_paths(monkeypatch)
    nf = induced_normal_form(game)
    assert len(nf.payoffs) == 2 ** n and paths == [n + 1]
    # A's first strategy goes everywhere; B's last stops everywhere
    assert nf.payoffs[(0, 2 ** (n // 2) - 1)] == (1, n - 1)
    assert nf.payoffs[(0, 0)] == (n, n)
    paths.clear()
    canon = canonical_representation(game)
    _, pair_game = awareness._pair_game(canon,
                                        awareness._active_pieces(canon))
    assert paths == [n + 1]
    assert list(pair_game.payoffs.values()) == list(nf.payoffs.values())


def test_fills_walk_past_the_recursion_limit():
    """A 1500-node chain forks only at the root: both fills keep explicit
    stacks, so depth is not limited by Python recursion."""
    game = _deep_chain(1500)
    assert induced_normal_form(game).payoffs == {(0,): (1,), (1,): (0,)}
    canon = canonical_representation(game)
    _, pair_game = awareness._pair_game(canon,
                                        awareness._active_pieces(canon))
    assert pair_game.payoffs == {(0,): (1,), (1,): (0,)}
