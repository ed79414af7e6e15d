"""Finite extensive-form game trees with information sets and chance nodes.

Histories are tuples of move names; the empty tuple is the root.  Every
history is either internal (a player or chance moves there) or terminal
(it carries payoffs), the set of histories is prefix-closed, and every
available move at an internal history leads to another history.

Chance nodes are owned by the reserved id NATURE and carry their own move
distributions.  Probabilities and payoffs are fractions.Fraction values,
so outcome distributions and expected payoffs are exact.

One walker, _walk, serves behavioral strategies and pure tables alike.  A
pure walk reads only the moves at the information sets it reaches (the
sequence-form observation of Koller, Megiddo and von Stengel, 1996), so a
table is filled by one depth-first walk that fixes a move where it first
reaches an information set and branches there: each distinct reached
assignment is walked and summed once, and every profile reads its entry
from the walk's trie.  A behavioral walk is the case without branches.
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
            try:
                terminal[h] = tuple(map(as_fraction, vec))
            except InputError:  # refused again below, now with its name
                for player, v in zip(self.players, vec):
                    as_fraction(v, f"payoffs[{h!r}][{player}]")
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
        # the walk's chance rows: (move, probability) in move order
        self._chance_rows = {
            h: tuple((m, row.get(m, ZERO)) for m in internal[h])
            for h, row in fixed.items()}

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

    def player_labels(self, player):
        if player not in self.players:
            raise InputError(f"unknown player id {player!r}")
        return tuple(
            label for label in self.labels if self._label_info[label][0] == player)

    def is_terminal(self, history):
        return history in self.payoffs


def _strategy_rows(game: ExtensiveGame, strategy: Mapping):
    """Validated walk entries per label: (label, (row,)), the row its
    (move, weight) pairs in label-move order."""
    for label in strategy:
        if not game.has_label(label):
            raise InputError(f"strategy: unknown information set {label!r}")
    rows = {}
    for label in game.labels:
        if label not in strategy:
            raise InputError(f"strategy: missing information set {label!r}")
        rows[label] = (label, (_label_row(
            strategy[label], game.label_moves(label), f"strategy[{label}]"),))
    return rows


def _label_row(dist, allowed, where):
    """The walk row of move distribution dist at a label whose moves are
    allowed: its (move, weight) pairs in that order, each weight an exact
    nonnegative rational, summing to 1.  Errors are prefixed with where."""
    for m in dist:
        if m not in allowed:
            raise InputError(f"{where}: unknown move {m!r}")
    row = []
    for m in allowed:
        q = dist.get(m, ZERO)
        if type(q) is not Fraction:
            q = as_fraction(q, f"{where}[{m}]")
        if q < 0:
            raise InputError(f"{where}[{m}]: negative weight")
        row.append((m, q))
    total = sum(q for _, q in row)
    if total != 1:
        raise InputError(f"{where}: weights sum to {total}, not 1")
    return tuple(row)


class _Fork:
    """A trie node: where a walk first reached key, one child per
    alternative, each a _Fork, a leaf value or the InputError its branch
    met."""

    __slots__ = ("key", "children")

    def __init__(self, key, size):
        self.key = key
        self.children = [None] * size


def _walk(game: ExtensiveGame, moves_at, leaf=dict):
    """The trie of one shared-prefix walk down the tree.

    moves_at(h) gives, for the player-owned history h, a key and a tuple of
    alternative rows, each a tuple of (move, weight) pairs.  A key with one
    alternative always plays it, so a walk whose keys all have one is a
    single branch: an exact behavioral pass.  Otherwise the walk branches
    where it first reaches the key, once per alternative, and every later
    history with that key plays the branch's alternative; the branches
    share every node above the fork.  Chance histories use the game's own
    probabilities and zero-weight moves are not followed.  A history that
    a played move leads to but the tree lacks goes to moves_at as well,
    which raises.

    Each branch ends in leaf(pairs) over its terminal histories and
    probabilities, or in the InputError its walk met; _read follows the
    trie to one.  Nodes are visited depth first in move order, the order
    of a recursive walk, so terminal histories come in that order.  The
    walk keeps explicit stacks of frames and of pending branches, so tree
    depth is not limited by Python recursion.  moves_at(h) is called when
    h is reached, and its pairs are drawn one at a time, each just before
    that move's subtree is walked.
    """
    payoffs, chance = game.payoffs, game._chance_rows
    out = []
    root = [None]
    # each branch: its frame stack, terminal count, fixed alternative per
    # key, the slot its trie node goes in, and the history it visits next
    branches = [([], 0, {}, root, 0, ((), ONE))]
    while branches:
        stack, n, fixed, slots, at, node = branches.pop()
        del out[n:]     # branches run depth first, so the prefix is theirs
        try:
            while True:
                if node is not None:
                    h, prob = node
                    if h in payoffs:
                        out.append(node)
                    elif h in chance:
                        stack.append((h, prob, chance[h], 0))
                    else:
                        key, alts = moves_at(h)
                        if len(alts) == 1:
                            row = alts[0]
                        elif key in fixed:
                            row = alts[fixed[key]]
                        else:
                            fork = slots[at] = _Fork(key, len(alts))
                            for j in range(len(alts) - 1, 0, -1):
                                branches.append((
                                    stack + [(h, prob, alts[j], 0)], len(out),
                                    {**fixed, key: j}, fork.children, j,
                                    None))
                            fixed[key] = 0
                            slots, at = fork.children, 0
                            row = alts[0]
                        stack.append((h, prob, row, 0))
                if not stack:
                    break
                h, prob, row, i = stack.pop()
                if i + 1 < len(row):
                    stack.append((h, prob, row, i + 1))
                m, q = row[i]
                node = (h + (m,), prob if q == 1 else prob * q) if q else None
            slots[at] = leaf(out)
        except InputError as exc:
            slots[at] = exc
    return root[0]


def _read(node, choice):
    """The leaf of a _walk trie that choice (alternative indices by key)
    leads to; an error leaf is raised."""
    while type(node) is _Fork:
        node = node.children[choice[node.key]]
    if isinstance(node, InputError):
        raise node
    return node


def _payoff_vector(game: ExtensiveGame, pairs):
    """Exact expected payoff vector of (terminal history, probability)
    pairs."""
    histories, probs = zip(*pairs)
    return _int_sums(game, histories, *_over_lcm(probs))


def outcome_distribution(game: ExtensiveGame, strategy: Mapping):
    """Exact terminal-history distribution of a behavioral strategy.

    strategy maps every information set label to a move distribution;
    chance nodes use the game's own probabilities.
    """
    rows = _strategy_rows(game, strategy)
    return _read(_walk(game, lambda h: rows[game.infosets[h]]), ())


def expected_payoffs(game: ExtensiveGame, strategy: Mapping):
    """Exact expected payoff vector of a behavioral strategy."""
    return _payoff_vector(game, outcome_distribution(game, strategy).items())


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


def _pure_alternatives(moves):
    """One single-move row per move, in move order."""
    return tuple(((m, ONE),) for m in moves)


def induced_normal_form(game: ExtensiveGame) -> NormalFormGame:
    """The strategic form over pure strategies, chance averaged out; more
    than DEFAULT_ENTRY_BOUND profiles are refused before any walk.

    One shared-prefix walk fixes a label's move where it is first reached,
    so each distinct reached assignment is walked and summed once; every
    profile then reads its payoffs from the walk's trie.
    """
    per_player = [pure_strategies(game, p) for p in game.players]
    bounded_product((len(s) for s in per_player), DEFAULT_ENTRY_BOUND,
                    "induced payoff entries")
    actions = tuple(tuple(name for name, _ in strats) for strats in per_player)
    # labels player by player: a profile's moves, flattened, are one
    # combination of them, and the two products run in the same order
    labels = [l for p in game.players for l in game.player_labels(p)]
    at = {l: (i, _pure_alternatives(game.label_moves(l)))
          for i, l in enumerate(labels)}
    trie = _walk(game, lambda h: at[game.infosets[h]],
                 leaf=lambda pairs: _payoff_vector(game, pairs))
    payoffs = dict(zip(
        itertools.product(*(range(len(s)) for s in per_player)),
        (_read(trie, combo) for combo in itertools.product(
            *(range(len(game.label_moves(l))) for l in labels)))))
    return _trusted(NormalFormGame, players=game.players, actions=actions,
                    payoffs=payoffs)
