"""Seeded random game generators shared by the property tests."""

import itertools
from fractions import Fraction

from eqcheck.games import BayesianGame, MixedProfile, is_nash
from eqcheck.trees import NATURE, ExtensiveGame


def _split(budget, parts, rng):
    # one unit per part, the rest spread uniformly
    sizes = [1] * parts
    for _ in range(budget - parts):
        sizes[rng.randrange(parts)] += 1
    return sizes


def random_extensive_game(rng, n_players=None) -> ExtensiveGame:
    """A random finite tree: <= 3 players, <= 12 leaves, depth <= 3.

    Chance nodes appear with probability ~1/4; information sets are reused
    across nodes with the same owner and move list with probability ~0.3.
    Degenerate single-leaf trees are generated occasionally on purpose.
    """
    if n_players is None:
        n_players = rng.randint(1, 3)
    players = tuple(f"P{i + 1}" for i in range(n_players))
    moves = {}
    owner = {}
    infosets = {}
    payoffs = {}
    nature = {}
    pools = {}
    counter = [0]

    def leaf(h):
        payoffs[h] = tuple(
            Fraction(rng.randint(-5, 5)) for _ in players)

    def grow(h, budget, depth):
        if budget < 2 or depth >= 3:
            leaf(h)
            return
        arity = 2 if budget < 3 or rng.random() < 0.6 else 3
        ms = ("l", "r") if arity == 2 else ("l", "m", "r")
        moves[h] = ms
        who = NATURE if rng.random() < 0.25 else rng.choice(players)
        owner[h] = who
        if who == NATURE:
            weights = [rng.randint(1, 4) for _ in ms]
            total = sum(weights)
            nature[h] = {m: Fraction(w, total) for m, w in zip(ms, weights)}
        else:
            pool = pools.setdefault((who, ms), [])
            if pool and rng.random() < 0.3:
                infosets[h] = rng.choice(pool)
            else:
                counter[0] += 1
                label = f"I{counter[0]}"
                pool.append(label)
                infosets[h] = label
        for m, b in zip(ms, _split(budget, arity, rng)):
            grow(h + (m,), b, depth + 1)

    if rng.random() < 0.05:
        leaf(())
    else:
        grow((), rng.randint(2, 12), 0)
    return ExtensiveGame(players, moves, owner, infosets, payoffs, nature)


def random_distribution(rng, size):
    """size nonnegative Fractions summing to 1, some of them often zero."""
    weights = [rng.randint(0, 4) for _ in range(size)]
    if not any(weights):
        weights[rng.randrange(size)] = 1
    return [Fraction(w, sum(weights)) for w in weights]


def random_bayesian_game(rng) -> BayesianGame:
    """1-3 players, 1-3 types and actions each, a non-uniform prior that may
    put zero on some type profiles (and so on a whole type), and utilities
    with denominators up to 7."""
    n = rng.randint(1, 3)
    players = tuple(f"p{i}" for i in range(n))
    types = tuple(tuple(f"t{k}" for k in range(rng.randint(1, 3)))
                  for _ in players)
    actions = tuple(tuple(f"a{k}" for k in range(rng.randint(1, 3)))
                    for _ in players)
    tprofiles = list(itertools.product(*(range(len(t)) for t in types)))
    aprofiles = list(itertools.product(*(range(len(a)) for a in actions)))
    prior = dict(zip(tprofiles, random_distribution(rng, len(tprofiles))))
    utilities = {
        (tp, ap): tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 7))
                        for _ in players)
        for tp in tprofiles for ap in aprofiles
    }
    return BayesianGame(players, types, actions, prior, utilities)


def pure_combo_count(game: ExtensiveGame) -> int:
    total = 1
    for player in game.players:
        for label in game.player_labels(player):
            total *= len(game.label_moves(label))
    return total


def random_small_game(rng, cap=64) -> ExtensiveGame:
    """Resamples until the pure strategy space is small enough to exhaust."""
    while True:
        game = random_extensive_game(rng)
        if pure_combo_count(game) <= cap:
            return game


def pure_nash_names(nf):
    """Set of pure equilibria of a normal form game, as action name tuples."""
    held = set()
    for combo in nf.pure_profiles():
        if is_nash(nf, MixedProfile.pure(nf, combo)).holds:
            held.add(nf.profile_names(combo))
    return held


def generalized_profile_names(tree, profiles, game_name="modeler"):
    """Maps pure generalized profiles onto the induced strategy naming.

    A player's strategy name is the "label:move" listing that
    pure_strategies uses, "-" when the player owns no decision node.
    """
    out = set()
    for profile in profiles:
        names = []
        for player in tree.players:
            labels = tree.player_labels(player)
            if not labels:
                names.append("-")
                continue
            entry = profile.strategies[(player, game_name)]
            parts = []
            for label in labels:
                chosen = [m for m, q in entry[label].items() if q == 1]
                assert len(chosen) == 1
                parts.append(f"{label}:{chosen[0]}")
            names.append(";".join(parts))
        out.add(tuple(names))
    return out
