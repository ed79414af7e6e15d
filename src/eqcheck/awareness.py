"""Subjective-view games: equilibrium analysis when players may be unaware
of some moves.

A view structure bundles several extensive games over the same player set:
one objective game (the modeler's) plus the games the players subjectively
believe they are playing.  A belief map sends every player-owned node of
every game to the game and information set its mover believes describes
the current situation.  Strategies come in per-(player, believed game)
pieces, and each piece must be a best response inside the game its owner
believes is being played, holding every other piece fixed.

Deviations for the pair (player, game) range over the player's pure
behavioral strategies at exactly those information sets of that game that
the belief map sends back to the game itself; the player's moves at nodes
where they believe a different game are governed by that other game's
strategy entry.

The pure search is the (1, 0) enumeration (robustness.enumerate_pure_robust)
of the pair game, whose players are the active pairs, as machine
equilibria are that of the induced machine game.  Its table comes from
one shared-prefix walk per game (trees._walk), keyed by (owner, believed
game, label) through the belief map, so each distinct reached assignment
is walked and summed once.  One resolver raises the belief errors of that
fill and of the behavioral walk; a structure that fails validate() raises
the error of the first combination, in table order, whose walk meets one.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import InputError
from .games import (DEFAULT_WORK_BOUND, NormalFormGame, _check_epsilon,
                    _first_gain, _gain_verdict, _trusted, bounded_product)
from .rationals import as_fraction
from .robustness import RobustnessQuery, enumerate_pure_robust
from .trees import (NATURE, ExtensiveGame, _label_row, _payoff_vector,
                    _pure_alternatives, _read, _walk)
from .verdicts import Verdict, Witness

ONE = Fraction(1)


class AugmentedGame:
    """An extensive game annotated with each mover's awareness level: the
    set of objective-game histories the mover is aware of at that node.

    virtual_moves optionally flags (history, move) pairs as placeholders
    standing in for moves the mover knows exist but cannot name; their
    subtrees carry the mover's believed payoffs.  The flag is structural
    and does not change play.
    """

    def __init__(self, name, tree, awareness, virtual_moves=()):
        if not isinstance(name, str) or not name:
            raise InputError("augmented game: name must be a nonempty string")
        if not isinstance(tree, ExtensiveGame):
            raise InputError(f"augmented game {name}: tree must be an "
                             f"ExtensiveGame")
        self.name = name
        self.tree = tree
        decision = {
            h for h in tree.internal_histories if tree.owner[h] != NATURE
        }
        if set(awareness) != decision:
            raise InputError(
                f"augmented game {name}: awareness must cover exactly the "
                f"player-owned histories")
        # the tree's own histories are tuples of move names already
        own = tree.moves.keys() | tree.payoffs.keys()
        fixed = {}
        for h, level in awareness.items():
            fixed[h] = level = frozenset(level)
            for entry in level - own:
                if (not isinstance(entry, tuple)
                        or not all(isinstance(m, str) and m for m in entry)):
                    raise InputError(
                        f"augmented game {name}: awareness at {h!r} "
                        f"must contain histories (tuples)")
        self.awareness = fixed
        flags = []
        for pair in virtual_moves:
            if (not isinstance(pair, tuple) or len(pair) != 2):
                raise InputError(
                    f"augmented game {name}: virtual moves are "
                    f"(history, move) pairs")
            h, m = pair
            if h not in tree.moves or m not in tree.moves[h]:
                raise InputError(
                    f"augmented game {name}: no move {m!r} at history {h!r}")
            flags.append((h, m))
        self.virtual_moves = frozenset(flags)


class GameWithAwareness:
    """Augmented games plus the belief map.

    The modeler's game is the objective one: underlying is its tree.  views
    maps (game name, player-owned history) to (game name, information set
    label): the game and situation the mover believes in at that node.
    Construction checks only that references resolve; the consistency
    conditions live in validate().
    """

    def __init__(self, games, modeler, views):
        games = tuple(games)
        if not games:
            raise InputError("expected at least one augmented game")
        names = []
        for ag in games:
            if not isinstance(ag, AugmentedGame):
                raise InputError("games must be AugmentedGame values")
            names.append(ag.name)
        if len(set(names)) != len(names):
            raise InputError("augmented game names must be unique")
        self.games = games
        self._by_name = {ag.name: ag for ag in games}
        if modeler not in self._by_name:
            raise InputError(f"unknown modeler game {modeler!r}")
        self.modeler = modeler
        self.underlying = self._by_name[modeler].tree

        fixed = {}
        for key, value in views.items():
            if not isinstance(key, tuple) or len(key) != 2:
                raise InputError(f"views: bad key {key!r}")
            game_name, h = key
            if game_name not in self._by_name:
                raise InputError(f"views: unknown game {game_name!r}")
            tree = self._by_name[game_name].tree
            if h not in tree.moves or tree.owner[h] == NATURE:
                raise InputError(
                    f"views[{game_name}, {h!r}]: not a player-owned history")
            if (not isinstance(value, tuple) or len(value) != 2
                    or value[0] not in self._by_name
                    or not isinstance(value[1], str) or not value[1]):
                raise InputError(
                    f"views[{game_name}, {h!r}]: expected a "
                    f"(game, information set) pair, got {value!r}")
            fixed[(game_name, h)] = (value[0], value[1])
        self.views = fixed

    def game(self, name) -> AugmentedGame:
        if name not in self._by_name:
            raise InputError(f"unknown game {name!r}")
        return self._by_name[name]

    def _decision_nodes(self):
        for ag in self.games:
            for h in ag.tree.internal_histories:
                if ag.tree.owner[h] != NATURE:
                    yield ag, h

    def validate(self) -> Verdict:
        """Check the enforced consistency conditions, in order: belief-map
        totality, target existence, same-mover targets, move embedding,
        introspection, awareness levels inside the objective game."""
        def fail(condition, game_name, node, detail):
            return Verdict(False, Witness(
                kind="consistency-violation",
                description=f"{condition} at node {node!r} of game "
                            f"{game_name}: {detail}",
                data={"condition": condition, "game": game_name,
                      "node": node, "detail": detail}))

        members = {}    # (game name, label): its histories, in node order
        for ag, h in self._decision_nodes():
            members.setdefault((ag.name, ag.tree.infosets[h]), []).append(h)
            key = (ag.name, h)
            if key not in self.views:
                return fail("missing-view", ag.name, h,
                            "no belief entry for this node")
            target_name, label = self.views[key]
            target = self._by_name[target_name]
            if not target.tree.has_label(label):
                return fail("unknown-target", ag.name, h,
                            f"game {target_name} has no information set "
                            f"{label!r}")
            mover = ag.tree.owner[h]
            if target.tree.label_owner(label) != mover:
                return fail("wrong-player", ag.name, h,
                            f"information set {label!r} of game {target_name} "
                            f"belongs to {target.tree.label_owner(label)}, "
                            f"not {mover}")
            missing = [m for m in ag.tree.moves[h]
                       if m not in target.tree.label_moves(label)]
            if missing:
                return fail("move-embedding", ag.name, h,
                            f"move {missing[0]!r} has no counterpart at "
                            f"{label!r} of game {target_name}")

        for target_name, label in dict.fromkeys(
                self.views[(ag.name, h)] for ag, h in self._decision_nodes()):
            for h2 in members[target_name, label]:
                if self.views.get((target_name, h2)) != (target_name, label):
                    return fail("introspection", target_name, h2,
                                f"nodes of the believed information set "
                                f"{label!r} must believe ({target_name}, "
                                f"{label!r})")

        objective = set(self.underlying.internal_histories)
        objective.update(self.underlying.terminal_histories)
        for ag, h in self._decision_nodes():
            level = ag.awareness[h]
            if not level <= objective:
                stray = min(level - objective, key=lambda t: (len(t), t))
                return fail("awareness-level", ag.name, h,
                            f"{stray!r} is not a history of the objective "
                            f"game")
        return Verdict(True)

    def active_pairs(self):
        """(player, game) pairs the belief map actually targets, in game
        declaration order and information-set order."""
        targets = set(self.views.values())
        pairs = []
        for ag in self.games:
            for label in ag.tree.labels:
                if (ag.name, label) in targets:
                    pair = (ag.tree.label_owner(label), ag.name)
                    if pair not in pairs:
                        pairs.append(pair)
        return tuple(pairs)

    def active_labels(self, player, game_name):
        """Information sets of the player in the game that the belief map
        targets; the pair's strategy entry must cover exactly these."""
        ag = self.game(game_name)
        targets = set(self.views.values())
        return tuple(
            label for label in ag.tree.labels
            if (game_name, label) in targets
            and ag.tree.label_owner(label) == player)


class GeneralizedProfile:
    """One behavioral strategy per (player, believed game) pair.

    strategies[(player, game_name)][label] is a move distribution.  Checks
    consult entries only for the structure's active pairs and labels;
    extra entries are accepted and ignored.
    """

    def __init__(self, strategies):
        fixed = {}
        for pair, per_label in strategies.items():
            if (not isinstance(pair, tuple) or len(pair) != 2
                    or any(not isinstance(x, str) or not x for x in pair)):
                raise InputError(
                    f"profile: keys are (player, game) pairs, got {pair!r}")
            rows = {}
            for label, dist in per_label.items():
                if not isinstance(label, str) or not label:
                    raise InputError(
                        f"profile[{pair}]: bad information set {label!r}")
                row = {}
                for m, q in dist.items():
                    q = as_fraction(q, f"profile[{pair}][{label}][{m}]")
                    if q < 0:
                        raise InputError(
                            f"profile[{pair}][{label}][{m}]: negative weight")
                    row[m] = q
                rows[label] = row
            fixed[pair] = rows
        self.strategies = fixed

    @classmethod
    def pure(cls, assignments):
        """Profile from {(player, game): {label: move}}."""
        return cls({
            pair: {label: {move: ONE} for label, move in per_label.items()}
            for pair, per_label in assignments.items()
        })


def _profile_rows(gwa: GameWithAwareness, profile: GeneralizedProfile):
    """Validated walk entries keyed (player, game, label) over the
    structure's active domain: (key, (row,)), the row its (move, weight)
    pairs in label-move order."""
    rows = {}
    for player, game_name in gwa.active_pairs():
        entry = profile.strategies.get((player, game_name))
        if entry is None:
            raise InputError(
                f"profile: missing strategy for player {player} in game "
                f"{game_name}")
        tree = gwa.game(game_name).tree
        for label in gwa.active_labels(player, game_name):
            if label not in entry:
                raise InputError(
                    f"profile: player {player} in game {game_name} has no "
                    f"moves for information set {label!r}")
            key = (player, game_name, label)
            rows[key] = (key, (_label_row(
                entry[label], tree.label_moves(label),
                f"profile: player {player} in game {game_name}, "
                f"information set {label!r}"),))
    return rows


def _believed_moves(gwa, game_name, rows):
    """moves_at for walking one game: each player node is looked up
    through the belief map in rows, which maps (player, believed game,
    label) to a walk entry.  It raises the three belief errors of both the
    behavioral walk and the pure fill."""
    tree = gwa.game(game_name).tree
    views, owner = gwa.views, tree.owner

    def moves_at(h):
        if h not in owner:
            # the believed information set may offer moves the concrete
            # node lacks; playing one is an error, not a silent skip
            raise InputError(
                f"game {game_name}: strategy move {h[-1]!r} is unavailable "
                f"at node {h[:-1]!r}")
        view = views.get((game_name, h))
        if view is None:
            raise InputError(
                f"game {game_name}: no belief entry at node {h!r}; "
                f"run validate()")
        entry = rows.get((owner[h],) + view)
        if entry is None:
            target_name, label = view
            raise InputError(
                f"game {game_name}: node {h!r} believes ({target_name}, "
                f"{label!r}), which no profile entry covers; run validate()")
        return entry

    return moves_at


def _outcome_from_rows(gwa, game_name, rows):
    return _read(_walk(gwa.game(game_name).tree,
                       _believed_moves(gwa, game_name, rows)), ())


def outcome_distribution(gwa: GameWithAwareness, game_name,
                         profile: GeneralizedProfile):
    """Exact terminal distribution of one game under the profile.

    At each player node the move distribution is the mover's strategy for
    the game they believe they are playing, at the believed information
    set; chance nodes use the traversed game's own probabilities.
    """
    rows = _profile_rows(gwa, profile)
    return _outcome_from_rows(gwa, game_name, rows)


def _expected_from_rows(gwa, game_name, rows):
    return _payoff_vector(gwa.game(game_name).tree,
                          _outcome_from_rows(gwa, game_name, rows).items())


def expected_utilities(gwa: GameWithAwareness, game_name,
                       profile: GeneralizedProfile):
    """Exact expected payoff vector of one game under the profile."""
    rows = _profile_rows(gwa, profile)
    return _expected_from_rows(gwa, game_name, rows)


def _active_pieces(gwa: GameWithAwareness):
    """(player, game name, active labels) for every active pair, in active
    order."""
    return tuple((player, game_name, gwa.active_labels(player, game_name))
                 for player, game_name in gwa.active_pairs())


def is_generalized_nash(gwa: GameWithAwareness, profile: GeneralizedProfile,
                        epsilon=0) -> Verdict:
    """Every strategy piece is a best response in its own believed game.

    For each active pair, alternatives range over the player's pure move
    assignments at the pair's active information sets; utilities are
    evaluated in that pair's game with all other pieces held fixed.  Pairs
    are scanned in active order and each pair's assignments in tree move
    order, so the witness is the first gain in that order.
    """
    eps = _check_epsilon(epsilon)
    rows = _profile_rows(gwa, profile)

    def deviations():
        for player, game_name, labels in _active_pieces(gwa):
            tree = gwa.game(game_name).tree
            pidx = tree.players.index(player)
            base = _expected_from_rows(gwa, game_name, rows)[pidx]
            for moves in itertools.product(*map(tree.label_moves, labels)):
                trial = dict(rows)
                for label, move in zip(labels, moves):
                    key = (player, game_name, label)
                    trial[key] = (key, _pure_alternatives((move,)))
                value = _expected_from_rows(gwa, game_name, trial)[pidx]
                yield ((player, game_name), dict(zip(labels, moves)),
                       base.as_integer_ratio(), value.as_integer_ratio())

    found = _first_gain(deviations(), eps)
    if found is None:
        return Verdict(True)
    (player, game_name), strategy = found[:2]
    described = "; ".join(f"{m} at {l}" for l, m in strategy.items())
    return _gain_verdict(
        found, "subjective-deviation",
        f"player {player} gains in game {game_name} by playing {described}",
        player=player, game=game_name, strategy=strategy)


def _pair_game(gwa: GameWithAwareness, pieces):
    """(choices, pair game) of the active pieces: per pair, its pure move
    assignments, and the normal form whose players are the pairs, whose
    actions are indices into those assignments, and whose payoff for a
    pair is its player's utility in its own game.

    Each game is filled by one shared-prefix walk that fixes a piece's
    move where the walk first reaches it, keyed (player, believed game,
    label), so every game that believes a piece reads the same move; the
    table reads each combination from the walks' tries.  A branch whose walk meets a belief error keeps it, and
    the fill raises the error of the first combination, in table order,
    that leads to one, taking the games in active order.
    """
    choices = [list(itertools.product(
        *(gwa.game(game_name).tree.label_moves(l) for l in labels)))
        for _, game_name, labels in pieces]
    # every piece's (player, game, label), pair by pair: a profile's
    # moves, flattened, are one combination of them, in the same order
    entries = {}
    for player, game_name, labels in pieces:
        tree = gwa.game(game_name).tree
        for label in labels:
            entries[(player, game_name, label)] = (
                len(entries), _pure_alternatives(tree.label_moves(label)))
    games = list(dict.fromkeys(game_name for _, game_name, _ in pieces))
    tries = []
    for game_name in games:
        tree = gwa.game(game_name).tree
        tries.append(_walk(
            tree, _believed_moves(gwa, game_name, entries),
            leaf=lambda pairs, tree=tree: _payoff_vector(tree, pairs)))
    seats = [(games.index(game_name),
              gwa.game(game_name).tree.players.index(player))
             for player, game_name, _ in pieces]
    payoffs = {}
    for key, combo in zip(
            itertools.product(*(range(len(c)) for c in choices)),
            itertools.product(*(range(len(alts))
                                for _, alts in entries.values()))):
        vectors = [_read(trie, combo) for trie in tries]
        payoffs[key] = tuple(vectors[g][i] for g, i in seats)
    return choices, _trusted(
        NormalFormGame,
        players=tuple(f"{player}@{game_name}"
                      for player, game_name, _ in pieces),
        actions=tuple(tuple(map(str, range(len(c)))) for c in choices),
        payoffs=payoffs)


def find_pure_generalized_nash(gwa: GameWithAwareness, epsilon=0,
                               work_bound=DEFAULT_WORK_BOUND):
    """All pure profiles over the active domain that pass the check, in
    lexicographic order (pairs in active order, moves in tree order).

    They are the pure (1, 0)-robust profiles of the pair game: its players
    are the active pairs, a pair's actions are its pure move assignments,
    and its payoff is its player's utility in its own game.  Its table is
    filled before any profile is checked, by one walk per game that is
    shared while combinations reach the same moves: each distinct reached
    assignment is walked and summed once.  A structure that fails
    validate() raises the belief error of the first combination that
    meets one, whatever the payoffs.  work_bound caps the combinations;
    the enumeration's own guard, which counts deviations, is lifted.
    """
    pieces = _active_pieces(gwa)
    bounded_product((len(gwa.game(game_name).tree.label_moves(label))
                     for _, game_name, labels in pieces for label in labels),
                    work_bound, "pure profiles")
    query = RobustnessQuery(1, 0, epsilon)     # checks epsilon, pairs or not
    if not pieces:      # a game without players has nothing to enumerate
        return [_trusted(GeneralizedProfile, strategies={})]
    choices, pair_game = _pair_game(gwa, pieces)
    # action names index each pair's choices, whose moves need no checks
    return [_trusted(GeneralizedProfile, strategies={
        (player, game_name): {
            label: {move: ONE} for label, move in zip(labels, per[int(name)])}
        for (player, game_name, labels), per, name
        in zip(pieces, choices, names)})
        for names in enumerate_pure_robust(pair_game, query,
                                           work_bound=math.inf)]


def canonical_representation(game: ExtensiveGame) -> GameWithAwareness:
    """The single-view structure where the game is common knowledge.

    Every node's awareness level is the full history set, and the belief
    map sends each node to its own information set in the same game.
    Generalized equilibria of this structure are exactly the game's Nash
    equilibria.
    """
    every = frozenset(game.internal_histories) | frozenset(
        game.terminal_histories)
    awareness = {
        h: every for h in game.internal_histories if game.owner[h] != NATURE
    }
    ag = _trusted(AugmentedGame, name="modeler", tree=game,
                  awareness=awareness, virtual_moves=frozenset())
    views = {
        ("modeler", h): ("modeler", game.infosets[h]) for h in awareness
    }
    return GameWithAwareness((ag,), "modeler", views)


def crossing_game(unaware_prob, pay_down=(1, 1), pay_across_down=(2, 3),
                  pay_across_across=(0, 2)) -> GameWithAwareness:
    """Two players in sequence, where the first mover may not realize the
    second has a yielding option.

    Objectively, A picks down_A or across_A; after across_A, B picks
    down_B or across_B.  A believes with probability unaware_prob that B
    cannot see down_B; the aware B knows all of this.  The structure has
    three views: the objective game ("modeler"), A's view ("a_view", a
    chance move splits B into aware and unaware variants), and the shared
    small game with no down_B ("b_view").

    Payoffs are (A, B) pairs for the outcomes down_A, (across_A, down_B),
    and (across_A, across_B).  They must keep the story's incentives:
    A prefers across_A against down_B but down_A against across_B, and B
    prefers down_B when aware.
    """
    p = as_fraction(unaware_prob, "unaware_prob")
    if not (0 <= p <= 1):
        raise InputError("unaware_prob must lie in [0, 1]")
    down = tuple(as_fraction(v, "pay_down") for v in pay_down)
    across_down = tuple(as_fraction(v, "pay_across_down")
                        for v in pay_across_down)
    across_across = tuple(as_fraction(v, "pay_across_across")
                          for v in pay_across_across)
    for vec in (down, across_down, across_across):
        if len(vec) != 2:
            raise InputError("payoffs are (A, B) pairs")
    if not across_down[0] > down[0]:
        raise InputError(
            "payoffs must make A prefer across_A when B plays down_B")
    if not down[0] > across_across[0]:
        raise InputError(
            "payoffs must make A prefer down_A when B plays across_B")
    if not across_down[1] > across_across[1]:
        raise InputError("payoffs must make an aware B prefer down_B")

    players = ("A", "B")
    objective = ExtensiveGame(
        players,
        moves={
            (): ("down_A", "across_A"),
            ("across_A",): ("down_B", "across_B"),
        },
        owner={(): "A", ("across_A",): "B"},
        infosets={(): "A", ("across_A",): "B"},
        payoffs={
            ("down_A",): down,
            ("across_A", "down_B"): across_down,
            ("across_A", "across_B"): across_across,
        })

    full = frozenset(objective.internal_histories) | frozenset(
        objective.terminal_histories)
    reduced = frozenset(h for h in full if "down_B" not in h)

    modeler = _trusted(
        AugmentedGame, name="modeler", tree=objective,
        awareness={(): full, ("across_A",): full}, virtual_moves=frozenset())

    a_tree = ExtensiveGame(
        players,
        moves={
            (): ("aware", "unaware"),
            ("aware",): ("down_A", "across_A"),
            ("unaware",): ("down_A", "across_A"),
            ("aware", "across_A"): ("down_B", "across_B"),
            ("unaware", "across_A"): ("across_B",),
        },
        owner={
            (): NATURE,
            ("aware",): "A",
            ("unaware",): "A",
            ("aware", "across_A"): "B",
            ("unaware", "across_A"): "B",
        },
        infosets={
            ("aware",): "A.1",
            ("unaware",): "A.1",
            ("aware", "across_A"): "B.1",
            ("unaware", "across_A"): "B.2",
        },
        payoffs={
            ("aware", "down_A"): down,
            ("unaware", "down_A"): down,
            ("aware", "across_A", "down_B"): across_down,
            ("aware", "across_A", "across_B"): across_across,
            ("unaware", "across_A", "across_B"): across_across,
        },
        nature_probs={(): {"aware": 1 - p, "unaware": p}})
    a_view = _trusted(
        AugmentedGame, name="a_view", tree=a_tree,
        awareness={
            ("aware",): full,
            ("unaware",): full,
            ("aware", "across_A"): full,
            ("unaware", "across_A"): reduced,
        }, virtual_moves=frozenset())

    b_tree = ExtensiveGame(
        players,
        moves={
            (): ("down_A", "across_A"),
            ("across_A",): ("across_B",),
        },
        owner={(): "A", ("across_A",): "B"},
        infosets={(): "A.3", ("across_A",): "B.3"},
        payoffs={
            ("down_A",): down,
            ("across_A", "across_B"): across_across,
        })
    b_view = _trusted(
        AugmentedGame, name="b_view", tree=b_tree,
        awareness={(): reduced, ("across_A",): reduced},
        virtual_moves=frozenset())

    views = {
        ("modeler", ()): ("a_view", "A.1"),
        ("modeler", ("across_A",)): ("modeler", "B"),
        ("a_view", ("aware",)): ("a_view", "A.1"),
        ("a_view", ("unaware",)): ("a_view", "A.1"),
        ("a_view", ("aware", "across_A")): ("modeler", "B"),
        ("a_view", ("unaware", "across_A")): ("b_view", "B.3"),
        ("b_view", ()): ("b_view", "A.3"),
        ("b_view", ("across_A",)): ("b_view", "B.3"),
    }
    return GameWithAwareness((modeler, a_view, b_view), "modeler", views)
