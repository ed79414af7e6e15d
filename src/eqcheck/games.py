"""Finite normal-form and Bayesian games with exact equilibrium checks.

Payoffs and probabilities are fractions.Fraction values.  Utilities are
summed exactly as ints over common denominators: by _int_sums for mixed
profiles and tree folds, by _prior_sums for Bayesian ex-ante and one-shot
machine utilities.  Every result is a Fraction, so equilibrium verdicts
reduce to exact strict-inequality comparisons.  An epsilon argument
widens every check to epsilon-equilibrium; epsilon must be a nonnegative
rational.

Deviation checks only ever range over pure deviations: against a fixed
opponent profile a player's utility is linear in their own mixture, so no
mixed deviation can beat the best pure one.
"""

from __future__ import annotations

import collections
import itertools
import math
import weakref
from fractions import Fraction
from operator import getitem, itemgetter, mul
from typing import Mapping

from .errors import InputError, WorkBoundExceeded
from .rationals import as_fraction
from .verdicts import Verdict, Witness

# dense tables above this many entries are refused (desk scale)
DEFAULT_ENTRY_BOUND = 10_000_000

ZERO = Fraction(0)
ONE = Fraction(1)


def _check_names(names, what):
    if not isinstance(names, (list, tuple)) or not names:
        raise InputError(f"{what}: expected a nonempty sequence")
    for name in names:
        if not isinstance(name, str) or not name:
            raise InputError(f"{what}: names must be nonempty strings, got {name!r}")
    if len(set(names)) != len(names):
        raise InputError(f"{what}: names must be unique")


def _is_index_key(key, names):
    """Whether key is a tuple of one index per name list in names, each an
    int (not a bool) within its list."""
    return (isinstance(key, tuple) and len(key) == len(names)
            and all(isinstance(k, int) and not isinstance(k, bool)
                    and 0 <= k < len(seq) for k, seq in zip(key, names)))


def _pure_row(game, i, choice):
    """Player i's one-hot weight row for choice, an action name or index."""
    acts = game.actions[i]
    if not isinstance(choice, int) or isinstance(choice, bool):
        if choice not in acts:
            raise InputError(
                f"player {game.players[i]}: unknown action {choice!r}")
        choice = acts.index(choice)
    elif not 0 <= choice < len(acts):
        raise InputError(
            f"player {game.players[i]}: action index {choice} out of range")
    return tuple(ONE if a == choice else ZERO for a in range(len(acts)))


# default cap on the cases one exhaustive search may enumerate
DEFAULT_WORK_BOUND = 10_000_000


def bounded_product(sizes, bound, what):
    """The product of sizes, the one work-bound guard for exhaustive tables
    and enumerations: raises WorkBoundExceeded when it is above bound."""
    total = math.prod(sizes)
    if total > bound:
        # str() refuses ints past 4300 digits (sys.get_int_max_str_digits)
        shown = (total if total.bit_length() < 14_000
                 else f"over 2^{total.bit_length() - 1}")
        raise WorkBoundExceeded(f"{shown} {what} exceed the bound {bound}",
                                required=total, bound=bound)
    return total


def _subset_choices(n, max_size, choices):
    """Sum over sizes s in 1..max_size of C(n, s) * choices^s: the ways a
    group of 1 to max_size of n members can each pick one of choices."""
    term, total = 1, 0
    for s in range(1, max_size + 1):
        term = term * (n - s + 1) * choices // s  # C(n, s) * choices^s
        total += term
    return total


def _trusted(cls, **fields):
    """An instance of cls holding fields as given, without running __init__.

    Only for values the package built itself in canonical form (tuples,
    Fractions, a prior without zero entries); documents and user-built
    objects go through the validating constructors.
    """
    obj = cls.__new__(cls)
    vars(obj).update(fields)
    return obj


def _normal_frame(players, actions, entry_bound):
    """(players, actions, entry count) after the checks every normal-form
    game needs, whoever built its table: its names and entry bound."""
    _check_names(players, "players")
    if not isinstance(actions, (list, tuple)) or len(actions) != len(players):
        raise InputError("actions: expected one action list per player")
    for player, acts in zip(players, actions):
        _check_names(acts, f"actions of player {player}")
    entries = bounded_product(
        (len(a) for a in actions), entry_bound, "payoff entries")
    return tuple(players), tuple(map(tuple, actions)), entries


class NormalFormGame:
    """A finite strategic-form game with a total, exact payoff table.

    payoffs maps every pure action-index profile (tuple of ints, one per
    player) to a payoff vector (tuple of Fractions, one per player).
    """

    def __init__(self, players, actions, payoffs, entry_bound=DEFAULT_ENTRY_BOUND):
        self.players, self.actions, entries = _normal_frame(
            players, actions, entry_bound)
        n = len(self.players)
        if not isinstance(payoffs, Mapping):
            raise InputError("payoffs: expected a mapping from action profiles")
        if len(payoffs) != entries:
            raise InputError(
                f"payoffs: table has {len(payoffs)} entries, needs exactly {entries}")
        table = {}
        for key, vec in payoffs.items():
            if not _is_index_key(key, self.actions):
                raise InputError(f"payoffs: bad action profile key {key!r}")
            if not isinstance(vec, (list, tuple)) or len(vec) != n:
                raise InputError(
                    f"payoffs[{key}]: expected {n} payoffs, got {vec!r}")
            table[key] = tuple(
                as_fraction(v, f"payoffs[{key}][{self.players[i]}]")
                for i, v in enumerate(vec))
        self.payoffs = table

    @property
    def n_players(self):
        return len(self.players)

    def player_index(self, player):
        try:
            return self.players.index(player)
        except ValueError:
            raise InputError(f"unknown player id {player!r}") from None

    def action_index(self, player_index, action):
        try:
            return self.actions[player_index].index(action)
        except ValueError:
            raise InputError(
                f"player {self.players[player_index]}: unknown action {action!r}"
            ) from None

    def pure_profiles(self):
        """All pure action-index profiles in lexicographic order."""
        return itertools.product(*(range(len(a)) for a in self.actions))

    def profile_names(self, profile):
        return tuple(self.actions[i][a] for i, a in enumerate(profile))


class MixedProfile:
    """One mixed strategy per player, aligned with the game's action lists.

    weights[i][a] is the probability player i puts on their a-th action.
    """

    def __init__(self, weights):
        fixed = []
        for i, row in enumerate(weights):
            row = tuple(as_fraction(w, f"profile weight [{i}]") for w in row)
            if any(w < 0 for w in row):
                raise InputError(f"profile: negative weight for player index {i}")
            if sum(row) != 1:
                raise InputError(f"profile: weights of player index {i} do not sum to 1")
            fixed.append(row)
        self.weights = tuple(fixed)

    @classmethod
    def pure(cls, game: NormalFormGame, actions):
        """Degenerate profile from one action per player (names or indices)."""
        if len(actions) != game.n_players:
            raise InputError("pure profile: expected one action per player")
        return cls([_pure_row(game, i, act) for i, act in enumerate(actions)])

    @classmethod
    def from_mapping(cls, game: NormalFormGame, mapping):
        """Profile from {player: {action: weight}}; omitted actions get 0."""
        for name in mapping:
            if name not in game.players:
                raise InputError(f"profile: unknown player {name!r}")
        rows = []
        for i, player in enumerate(game.players):
            if player not in mapping:
                raise InputError(f"profile: missing player {player!r}")
            dist = mapping[player]
            if not isinstance(dist, Mapping):
                raise InputError(f"profile[{player}]: expected a mapping")
            row = [ZERO] * len(game.actions[i])
            for action, w in dist.items():
                row[game.action_index(i, action)] = as_fraction(
                    w, f"profile[{player}][{action}]")
            rows.append(tuple(row))
        return cls(rows)

    @classmethod
    def uniform(cls, game: NormalFormGame):
        return cls(tuple(
            tuple(Fraction(1, len(acts)) for _ in acts) for acts in game.actions))


def _check_profile_shape(game: NormalFormGame, profile: MixedProfile):
    if len(profile.weights) != game.n_players:
        raise InputError(
            f"profile has {len(profile.weights)} players, game has {game.n_players}")
    for i, row in enumerate(profile.weights):
        if len(row) != len(game.actions[i]):
            raise InputError(
                f"player {game.players[i]}: profile has {len(row)} weights "
                f"for {len(game.actions[i])} actions")


def _over_lcm(values):
    """(d, ints): a sequence of rationals as ints over d, their lcm."""
    d = math.lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


def _support(profile: MixedProfile):
    """Each player's (d, actions, weights): nonzero weights as ints over d."""
    rows = []
    for row in profile.weights:
        actions = [a for a, w in enumerate(row) if w]
        d, weights = _over_lcm([row[a] for a in actions])
        rows.append((d, actions, weights))
    return rows


def expected_utility(game: NormalFormGame, profile: MixedProfile):
    """Exact expected payoff vector of a mixed profile."""
    _check_profile_shape(game, profile)
    return _support_utilities(game, _support(profile))


class _IntPayoffs(dict):
    """key -> _over_lcm(payoffs[key]), converted when first read."""

    def __missing__(self, key):
        self[key] = entry = _over_lcm(self.payoffs[key])
        return entry


_INT_TABLES = weakref.WeakKeyDictionary()


def _int_sums(game, keys, den, weights):
    """Exact sum of weight * game.payoffs[key] per player, the weights ints
    over den: the kernel for normal-form utilities and tree folds.
    Converted entries are kept per game in _INT_TABLES, outside its
    attributes, for as long as it lives."""
    table = _INT_TABLES.get(game)
    if table is None:
        table = _INT_TABLES[game] = _IntPayoffs()
        table.payoffs = game.payoffs
    ds, rows = zip(*map(table.__getitem__, keys))
    lcm = math.lcm(*ds)
    weights = list(map(mul, weights, map(lcm.__floordiv__, ds)))
    return tuple(
        Fraction(sum(map(mul, weights, map(itemgetter(i), rows))), den * lcm)
        for i in range(len(game.players)))


def _prior_sums(utilities, entries, rows, charges):
    """Per player, the exact sum over entries (t, p) of p * sum_a prod_i
    q_i(a_i | t_i) * (utilities[(t, a)][i] - charge_i(t_i)): the kernel for
    Bayesian ex-ante and one-shot machine utilities.  rows[i][t] lists the
    support of player i's type t as (action index, q numerator,
    q denominator); charges[i][t] is its charge as a (numerator,
    denominator) pair."""
    first = itemgetter(0)
    # sums[i][d]: sum of the numerators of player i's terms over denominator d
    sums = [collections.defaultdict(int) for _ in rows]
    for tprofile, p in entries:
        costs = list(map(getitem, charges, tprofile))
        pn, pd = p.as_integer_ratio()
        for combo in itertools.product(*map(getitem, rows, tprofile)):
            num, den = pn, pd
            for _, qn, qd in combo:
                num *= qn
                den *= qd
            vec = utilities[(tprofile, tuple(map(first, combo)))]
            for per, v, (cn, cd) in zip(sums, vec, costs):
                vn, vd = v.as_integer_ratio()
                per[den * vd * cd] += num * (vn * cd - cn * vd)
    # each player's Fraction is built once, over the lcm of its denominators
    lcms = [math.lcm(*per) for per in sums]
    return tuple(
        Fraction(sum(map(mul, per.values(), map(d.__floordiv__, per))), d)
        for per, d in zip(sums, lcms))


def _support_utilities(game: NormalFormGame, support):
    """Exact expected payoff vector over _support's rows, one per player."""
    return _int_sums(
        game, itertools.product(*(acts for _, acts, _ in support)),
        math.prod(d for d, _, _ in support),
        map(math.prod, itertools.product(*(ws for _, _, ws in support))))


def _mixed_after(game, profile):
    """after(group, joint): utilities when group plays joint and the rest
    keep profile (of the game's shape), whose rows are converted once."""
    support = _support(profile)

    def after(group, joint):
        rows = list(support)
        for i, a in zip(group, joint):
            rows[i] = (1, (a,), (1,))
        return _support_utilities(game, rows)
    return after


def best_response_value(game: NormalFormGame, player, profile: MixedProfile):
    """Best utility the player can get by any response to profile.

    The maximum over mixed responses is attained at a pure action, so this
    is computed by enumerating the player's actions.
    """
    _check_profile_shape(game, profile)
    i = game.player_index(player) if isinstance(player, str) else player
    if not isinstance(i, int) or i < 0 or i >= game.n_players:
        raise InputError(f"unknown player id {player!r}")
    after = _mixed_after(game, profile)
    return max(after((i,), (a,))[i] for a in range(len(game.actions[i])))


def _check_epsilon(epsilon):
    eps = as_fraction(epsilon, "epsilon")
    if eps < 0:
        raise InputError("epsilon must be nonnegative")
    return eps


def is_nash(game: NormalFormGame, profile: MixedProfile, epsilon=0) -> Verdict:
    """Check that no player gains more than epsilon by a unilateral deviation.

    On failure the witness is the first improving (player, action) pair in
    declaration order.
    """
    eps = _check_epsilon(epsilon)
    _check_profile_shape(game, profile)
    base = expected_utility(game, profile)
    after = _mixed_after(game, profile)
    for i in range(game.n_players):
        for a in range(len(game.actions[i])):
            value = after((i,), (a,))[i]
            if value > base[i] + eps:
                player = game.players[i]
                action = game.actions[i][a]
                return Verdict(False, Witness(
                    kind="unilateral-deviation",
                    description=(
                        f"player {player} gains by switching to {action}"),
                    data={
                        "player": player,
                        "action": action,
                        "utility_before": base[i],
                        "utility_after": value,
                        "gain": value - base[i],
                    }))
    return Verdict(True)


def _bayesian_frame(players, types, actions, entry_bound):
    """(players, types, actions, entry count) after the checks every
    Bayesian game needs, whoever built its tables: names and entry bound."""
    _check_names(players, "players")
    for seq, what in ((types, "types"), (actions, "actions")):
        if not isinstance(seq, (list, tuple)) or len(seq) != len(players):
            raise InputError(f"{what}: expected one list per player")
    types = tuple(tuple(t) for t in types)
    actions = tuple(tuple(a) for a in actions)
    for player, names, acts in zip(players, types, actions):
        _check_names(names, f"types of player {player}")
        _check_names(acts, f"actions of player {player}")
    entries = bounded_product(
        [len(t) for t in types] + [len(a) for a in actions], entry_bound,
        "utility entries")
    return tuple(players), types, actions, entries


def _fixed_prior(prior, types):
    """prior without its zero entries, after checking its keys against
    types and that its probabilities are nonnegative and sum to 1."""
    fixed = {}
    for key, q in prior.items():
        if not _is_index_key(key, types):
            raise InputError(f"prior: bad type profile key {key!r}")
        q = as_fraction(q, f"prior[{key}]")
        if q < 0:
            raise InputError(f"prior[{key}]: negative probability")
        if q != 0:
            fixed[key] = q
    d, nums = _over_lcm(list(fixed.values()))
    total = Fraction(sum(nums), d)
    if total != 1:
        raise InputError(f"prior: probabilities sum to {total}, not 1")
    return fixed


class BayesianGame:
    """A finite Bayesian game with a common prior over type profiles.

    prior may omit zero-probability type profiles; utilities must be total
    over (type profile, action profile) pairs.
    """

    def __init__(self, players, types, actions, prior, utilities,
                 entry_bound=DEFAULT_ENTRY_BOUND):
        self.players, self.types, self.actions, entries = _bayesian_frame(
            players, types, actions, entry_bound)
        n = len(self.players)
        self.prior = _fixed_prior(prior, self.types)

        if len(utilities) != entries:
            raise InputError(
                f"utilities: table has {len(utilities)} entries, needs "
                f"{entries}")
        fixed_util = {}
        for key, vec in utilities.items():
            if (not isinstance(key, tuple) or len(key) != 2 or not all(
                    isinstance(k, tuple) and len(k) == n for k in key)):
                raise InputError(f"utilities: bad key {key!r}")
            tkey, akey = key
            if not _is_index_key(tkey, self.types):
                raise InputError(f"utilities: bad type profile in key {key!r}")
            if not _is_index_key(akey, self.actions):
                raise InputError(f"utilities: bad action profile in key {key!r}")
            if not isinstance(vec, (list, tuple)) or len(vec) != n:
                raise InputError(f"utilities[{key}]: expected {n} payoffs")
            fixed_util[(tkey, akey)] = tuple(
                as_fraction(v, f"utilities[{key}]") for v in vec)
        self.utilities = fixed_util

    @property
    def n_players(self):
        return len(self.players)

    def player_index(self, player):
        try:
            return self.players.index(player)
        except ValueError:
            raise InputError(f"unknown player id {player!r}") from None


class BayesianStrategyProfile:
    """weights[i][t][a]: probability that player i of type t plays action a."""

    def __init__(self, weights):
        fixed = []
        for i, per_type in enumerate(weights):
            rows = []
            for t, row in enumerate(per_type):
                row = tuple(
                    as_fraction(w, f"strategy[{i}][{t}]") for w in row)
                if any(w < 0 for w in row):
                    raise InputError(
                        f"strategy of player index {i}, type index {t}: "
                        f"negative weight")
                if sum(row) != 1:
                    raise InputError(
                        f"strategy of player index {i}, type index {t}: "
                        f"weights do not sum to 1")
                rows.append(row)
            fixed.append(tuple(rows))
        self.weights = tuple(fixed)

    @classmethod
    def pure(cls, game: BayesianGame, choices):
        """choices[i] maps every type of player i to one action (names ok)."""
        if len(choices) != game.n_players:
            raise InputError("pure strategy profile: one choice map per player")
        weights = []
        for i, per_type in enumerate(choices):
            if len(per_type) != len(game.types[i]):
                raise InputError(
                    f"player {game.players[i]}: expected a choice for each "
                    f"of {len(game.types[i])} types")
            weights.append([_pure_row(game, i, act) for act in per_type])
        return cls(weights)


def _bayes_rows(game: BayesianGame, profile: BayesianStrategyProfile):
    """(rows, charges) for _prior_sums, after checking profile's shape
    against game: each type's support rows, and no charge on any type."""
    if len(profile.weights) != game.n_players:
        raise InputError(
            f"profile has {len(profile.weights)} players, game has "
            f"{game.n_players}")
    for i, per_type in enumerate(profile.weights):
        if len(per_type) != len(game.types[i]):
            raise InputError(
                f"player {game.players[i]}: profile covers {len(per_type)} "
                f"types, game has {len(game.types[i])}")
        for t, row in enumerate(per_type):
            if len(row) != len(game.actions[i]):
                raise InputError(
                    f"player {game.players[i]}, type "
                    f"{game.types[i][t]}: profile has {len(row)} weights for "
                    f"{len(game.actions[i])} actions")
    rows = [[[(a, w.numerator, w.denominator) for a, w in enumerate(row) if w]
             for row in per_type] for per_type in profile.weights]
    return rows, [[(0, 1)] * len(per_type) for per_type in rows]


def bayes_expected_utility(game: BayesianGame, profile: BayesianStrategyProfile):
    """Exact ex-ante expected utility vector."""
    return _prior_sums(
        game.utilities, game.prior.items(), *_bayes_rows(game, profile))


def is_bayes_nash(game: BayesianGame, profile: BayesianStrategyProfile,
                  epsilon=0) -> Verdict:
    """Bayes-Nash check by per-type pure deviations.

    Checking one type at a time is sufficient: a whole-map deviation's gain
    is the sum of its per-type gains, so some type gains strictly whenever
    the map does.  Types outside the prior's support cannot produce an
    ex-ante gain and are skipped.  Utilities compared are the type's
    ex-ante share: the sum over the type profiles that include it.
    """
    eps = _check_epsilon(epsilon)
    rows, charges = _bayes_rows(game, profile)
    for i in range(game.n_players):
        for t in range(len(game.types[i])):
            relevant = [
                (tprofile, p) for tprofile, p in game.prior.items()
                if tprofile[i] == t
            ]
            if not relevant:
                continue
            current = _prior_sums(game.utilities, relevant, rows, charges)[i]
            deviated = list(rows)
            deviated[i] = per_type = list(rows[i])
            for a in range(len(game.actions[i])):
                per_type[t] = [(a, 1, 1)]
                value = _prior_sums(
                    game.utilities, relevant, deviated, charges)[i]
                if value > current + eps:
                    player = game.players[i]
                    return Verdict(False, Witness(
                        kind="type-deviation",
                        description=(
                            f"player {player} of type {game.types[i][t]} gains "
                            f"by playing {game.actions[i][a]}"),
                        data={
                            "player": player,
                            "type": game.types[i][t],
                            "action": game.actions[i][a],
                            "utility_before": current,
                            "utility_after": value,
                            "gain": value - current,
                        }))
    return Verdict(True)
