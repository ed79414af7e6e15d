"""Finite extensive-form game trees with information sets and chance nodes.

Histories are tuples of move names; the empty tuple is the root.  Every
history is either internal (a player or chance moves there) or terminal
(it carries payoffs), the set of histories is prefix-closed, and every
available move at an internal history leads to another history.

Chance nodes are owned by the reserved id NATURE and carry their own move
distributions.  Probabilities and payoffs are fractions.Fraction values,
so outcome distributions and expected payoffs are exact.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Mapping

from .errors import InputError
from .games import (DEFAULT_ENTRY_BOUND, NormalFormGame, _check_names,
                    _int_sums, _over_lcm, _trusted, bounded_product)
from .rationals import as_fraction

NATURE = "nature"

ZERO = Fraction(0)
ONE = Fraction(1)


def _check_history(h, what):
    # Only the last move: ExtensiveGame requires every history's parent to
    # be an internal history, so each earlier move is the last move of a
    # history that is checked on its own.
    if not isinstance(h, tuple) or (h and (not isinstance(h[-1], str)
                                           or not h[-1])):
        raise InputError(
            f"{what}: histories must be tuples of move names, got {h!r}")


class ExtensiveGame:
    """A finite game tree.

    moves maps each internal history to its available moves; payoffs maps
    each terminal history to one payoff per player; owner assigns every
    internal history a player or NATURE; infosets labels every
    player-owned history with its information set; nature_probs gives each
    chance history a move distribution.

    All histories sharing an information set label must have the same
    owner and the same move tuple (available moves in the same order).
    """

    def __init__(self, players, moves, owner, infosets, payoffs,
                 nature_probs=None):
        _check_names(players, "players")
        if NATURE in players:
            raise InputError(f"players: {NATURE!r} is reserved for chance nodes")
        self.players = tuple(players)

        internal = {}
        for h, ms in moves.items():
            _check_history(h, "moves")
            if not isinstance(ms, (list, tuple)) or not ms:
                raise InputError(f"moves[{h!r}]: expected a nonempty move list")
            for m in ms:
                if not isinstance(m, str) or not m:
                    raise InputError(
                        f"moves[{h!r}]: moves must be nonempty strings")
            if len(set(ms)) != len(ms):
                raise InputError(f"moves[{h!r}]: duplicate moves")
            internal[h] = tuple(ms)
        self.moves = internal

        terminal = {}
        for h, vec in payoffs.items():
            _check_history(h, "payoffs")
            if h in internal:
                raise InputError(
                    f"history {h!r} is both internal and terminal")
            if not isinstance(vec, (list, tuple)) or len(vec) != len(self.players):
                raise InputError(
                    f"payoffs[{h!r}]: expected {len(self.players)} values")
            terminal[h] = tuple(
                as_fraction(v, f"payoffs[{h!r}][{self.players[i]}]")
                for i, v in enumerate(vec))
        self.payoffs = terminal

        known = set(internal) | set(terminal)
        if () not in known:
            raise InputError("the root (empty history) is missing")
        for h in known:
            if not h:
                continue
            parent = h[:-1]
            if parent not in internal:
                raise InputError(
                    f"history {h!r}: parent is not an internal history")
            if h[-1] not in internal[parent]:
                raise InputError(
                    f"history {h!r}: move {h[-1]!r} not available at the parent")
        for h, ms in internal.items():
            for m in ms:
                if h + (m,) not in known:
                    raise InputError(
                        f"history {h + (m,)!r} is missing from the tree")

        if set(owner) != set(internal):
            raise InputError("owner: must cover exactly the internal histories")
        for h, who in owner.items():
            if who != NATURE and who not in self.players:
                raise InputError(f"owner[{h!r}]: unknown player {who!r}")
        self.owner = dict(owner)

        decision = {h for h in internal if self.owner[h] != NATURE}
        if set(infosets) != decision:
            raise InputError(
                "infosets: must cover exactly the player-owned histories")
        for h, label in infosets.items():
            if not isinstance(label, str) or not label:
                raise InputError(
                    f"infosets[{h!r}]: labels must be nonempty strings")
        self.infosets = dict(infosets)

        chance = {h for h in internal if self.owner[h] == NATURE}
        nature_probs = nature_probs or {}
        if set(nature_probs) != chance:
            raise InputError(
                "nature_probs: must cover exactly the chance histories")
        fixed = {}
        for h, dist in nature_probs.items():
            row = {}
            total = ZERO
            for m, q in dist.items():
                if m not in internal[h]:
                    raise InputError(f"nature_probs[{h!r}]: unknown move {m!r}")
                q = as_fraction(q, f"nature_probs[{h!r}][{m}]")
                if q < 0:
                    raise InputError(
                        f"nature_probs[{h!r}][{m}]: negative probability")
                row[m] = q
                total += q
            if total != 1:
                raise InputError(
                    f"nature_probs[{h!r}]: probabilities sum to {total}, not 1")
            fixed[h] = row
        self.nature_probs = fixed

        # breadth-first, then lexicographic by move names: the canonical
        # node order every enumeration in this module follows
        self.internal_histories = tuple(
            sorted(internal, key=lambda h: (len(h), h)))
        self.terminal_histories = tuple(
            sorted(terminal, key=lambda h: (len(h), h)))

        info = {}
        order = []
        for h in self.internal_histories:
            if self.owner[h] == NATURE:
                continue
            label = self.infosets[h]
            key = (self.owner[h], internal[h])
            if label not in info:
                info[label] = key
                order.append(label)
            elif info[label] != key:
                raise InputError(
                    f"information set {label!r}: histories disagree on owner "
                    f"or moves")
        self.labels = tuple(order)
        self._label_info = info

    def _info(self, label):
        if label not in self._label_info:
            raise InputError(f"unknown information set {label!r}")
        return self._label_info[label]

    def has_label(self, label):
        return label in self._label_info

    def label_owner(self, label):
        return self._info(label)[0]

    def label_moves(self, label):
        return self._info(label)[1]

    def label_histories(self, label):
        self._info(label)
        return tuple(
            h for h in self.internal_histories
            if self.owner[h] != NATURE and self.infosets[h] == label)

    def player_labels(self, player):
        if player not in self.players:
            raise InputError(f"unknown player id {player!r}")
        return tuple(
            label for label in self.labels if self._label_info[label][0] == player)

    def is_terminal(self, history):
        return history in self.payoffs


def _strategy_rows(game: ExtensiveGame, strategy: Mapping):
    """Validated (move, weight) rows per label, in label-move order."""
    for label in strategy:
        if not game.has_label(label):
            raise InputError(f"strategy: unknown information set {label!r}")
    rows = {}
    for label in game.labels:
        if label not in strategy:
            raise InputError(f"strategy: missing information set {label!r}")
        dist = strategy[label]
        allowed = game.label_moves(label)
        for m in dist:
            if m not in allowed:
                raise InputError(f"strategy[{label}]: unknown move {m!r}")
        row = []
        total = ZERO
        for m in allowed:
            q = as_fraction(dist.get(m, 0), f"strategy[{label}][{m}]")
            if q < 0:
                raise InputError(f"strategy[{label}][{m}]: negative weight")
            total += q
            row.append((m, q))
        if total != 1:
            raise InputError(
                f"strategy[{label}]: weights sum to {total}, not 1")
        rows[label] = tuple(row)
    return rows


def _walk(game: ExtensiveGame, moves_at):
    """Exact terminal-history distribution of one pass down the tree.

    moves_at(h) gives the (move, weight) pairs played at the player-owned
    history h; chance histories use the game's own probabilities, and
    zero-weight moves are not followed.  Nodes are visited depth first in
    move order, the order of a recursive walk, so terminal histories enter
    the returned dict in that order.  The walk keeps an explicit stack of
    child iterators, so tree depth is not limited by Python recursion.
    moves_at(h) is called when h is reached, and its pairs are drawn one
    at a time, each just before that move's subtree is walked.
    """
    out = {}
    stack = [iter([((), ONE)])]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            continue
        h, prob = step
        if h in game.payoffs:
            out[h] = prob
            continue
        if game.owner[h] == NATURE:
            dist = game.nature_probs[h]
            row = [(m, dist.get(m, ZERO)) for m in game.moves[h]]
        else:
            row = moves_at(h)
        stack.append(_children(h, prob, row))
    return out


def _children(h, prob, row):
    for m, q in row:
        if q != 0:
            yield h + (m,), prob if q == 1 else prob * q


def _payoff_vector(game: ExtensiveGame, dist):
    """Exact expected payoff vector of a terminal-history distribution."""
    return _int_sums(game, dist, *_over_lcm(list(dist.values())))


def outcome_distribution(game: ExtensiveGame, strategy: Mapping):
    """Exact terminal-history distribution of a behavioral strategy.

    strategy maps every information set label to a move distribution;
    chance nodes use the game's own probabilities.
    """
    rows = _strategy_rows(game, strategy)
    return _walk(game, lambda h: rows[game.infosets[h]])


def expected_payoffs(game: ExtensiveGame, strategy: Mapping):
    """Exact expected payoff vector of a behavioral strategy."""
    return _payoff_vector(game, outcome_distribution(game, strategy))


def pure_strategies(game: ExtensiveGame, player):
    """All pure strategies of one player as (name, {label: move}) pairs.

    Names encode the full move assignment ("label:move" joined by ";"); a
    player with no decision nodes has the single strategy "-".
    """
    labels = game.player_labels(player)
    if not labels:
        return (("-", {}),)
    out = []
    for combo in itertools.product(*(game.label_moves(l) for l in labels)):
        name = ";".join(f"{l}:{m}" for l, m in zip(labels, combo))
        out.append((name, dict(zip(labels, combo))))
    return tuple(out)


def induced_normal_form(game: ExtensiveGame,
                        entry_bound=DEFAULT_ENTRY_BOUND) -> NormalFormGame:
    """The strategic form over pure strategies, chance averaged out."""
    per_player = [pure_strategies(game, p) for p in game.players]
    bounded_product((len(s) for s in per_player), entry_bound,
                    "induced payoff entries")
    actions = tuple(tuple(name for name, _ in strats) for strats in per_player)
    payoffs = {}
    for key in itertools.product(*(range(len(s)) for s in per_player)):
        strategy = {}
        for i, si in enumerate(key):
            strategy.update(per_player[i][si][1])
        payoffs[key] = _payoff_vector(game, _walk(
            game, lambda h: ((strategy[game.infosets[h]], ONE),)))
    return _trusted(NormalFormGame, players=game.players, actions=actions,
                    payoffs=payoffs)
