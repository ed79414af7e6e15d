"""Coalition resilience, immunity to faulty players, and combined robustness.

A profile is k-resilient when no coalition of at most k players has a joint
(correlated) deviation its members profit from, and t-immune when no group
of at most t players can hurt any outsider by deviating arbitrarily.  The
(k, t) = (1, 0) case coincides with the Nash check.

Coalition deviations are joint pure action tuples.  Each utility is linear
in a mixture over joints, so no mixed or correlated deviation beats the best
pure one for STRONG resilience (some member gains) or undercuts the worst
for immunity.  WEAK resilience (every member gains) compares pure joints
only: a mixture can give every member a gain that no pure joint gives them
all.  The checks scan them in order through games._first_gain, the one
deviation scan, so their witness is the first counterexample.  Only the
pure enumeration, _pure_robust, compares on its own: per context of each
group, it takes each member's best or each outsider's worst payoff and
drops the profiles that it beats.
"""

from __future__ import annotations

import itertools
import math
from enum import Enum
from operator import itemgetter

from .errors import InputError
from .games import (DEFAULT_WORK_BOUND, MixedProfile, NormalFormGame,
                    _check_epsilon, _check_profile_shape, _first_gain,
                    _is_index_key, _mixed_after, _subset_choices,
                    bounded_product, expected_utility)
from .verdicts import Verdict, Witness


class ResilienceSemantics(Enum):
    # STRONG: the coalition deviates if SOME member strictly gains.
    # WEAK: only if ALL members strictly gain from one pure joint deviation.
    STRONG = "strong"
    WEAK = "weak"


class RobustnessQuery:
    """Parameters of a combined (k, t)-robustness check."""

    def __init__(self, k, t, epsilon=0, semantics=ResilienceSemantics.STRONG):
        if not isinstance(k, int) or isinstance(k, bool) or k < 0:
            raise InputError("k must be a nonnegative integer")
        if not isinstance(t, int) or isinstance(t, bool) or t < 0:
            raise InputError("t must be a nonnegative integer")
        if not isinstance(semantics, ResilienceSemantics):
            raise InputError("semantics must be a ResilienceSemantics value")
        self.k = k
        self.t = t
        self.epsilon = _check_epsilon(epsilon)
        self.semantics = semantics


def utilities_under_joint_deviation(game, profile, deviators, joint):
    """Utility vector when `deviators` (distinct player indices) jointly
    play the pure action-index tuple `joint` and everyone else keeps their
    profile strategy."""
    _check_profile_shape(game, profile)
    deviators, joint = tuple(deviators), tuple(joint)
    if len(deviators) != len(joint):
        raise InputError(
            f"joint deviation: {len(deviators)} deviators but "
            f"{len(joint)} actions")
    for i, a in zip(deviators, joint):
        if not _is_index_key((i,), (game.players,)):
            raise InputError(f"joint deviation: bad player index {i!r}")
        if not _is_index_key((a,), (game.actions[i],)):
            raise InputError(
                f"joint deviation: bad action index {a!r} for player "
                f"{game.players[i]}")
    if len(set(deviators)) != len(deviators):
        raise InputError(
            f"joint deviation: repeated player index in {deviators!r}")
    return _mixed_after(game, profile)(deviators, joint)


def _groups(n, max_size):
    """Player-index groups of size 1..max_size, by size, then members."""
    for size in range(1, max_size + 1):
        yield from itertools.combinations(range(n), size)


def _joint_scan(game, profile, max_size):
    """(group, joint, after) for every joint deviation of every group of at
    most max_size players, in the checks' order: groups by size, then
    members, joints in lexicographic index order.  after, the utilities
    when group plays joint, is computed only when the scan reaches it."""
    after = _mixed_after(game, profile)
    for group in _groups(game.n_players, max_size):
        for joint in itertools.product(
                *(range(len(game.actions[i])) for i in group)):
            yield group, joint, after(group, joint)


def _deviation_names(game, group, joint):
    return {game.players[i]: game.actions[i][a] for i, a in zip(group, joint)}


def _guard_enumeration(game, max_size, work_bound):
    """Refuse coalition enumerations that cannot finish at desk scale.

    Upper bound: sum over sizes s of C(n, s) * (largest action count)^s.
    """
    biggest = max(len(a) for a in game.actions)
    bounded_product((_subset_choices(game.n_players, max_size, biggest),),
                    work_bound, "deviation evaluations")


def _check_k(game, k, semantics, work_bound):
    n = game.n_players
    if not isinstance(k, int) or isinstance(k, bool) or k < 1 or k > n:
        raise InputError(f"k out of range: need 1 <= k <= {n}, got {k!r}")
    if not isinstance(semantics, ResilienceSemantics):
        raise InputError("semantics must be a ResilienceSemantics value")
    _guard_enumeration(game, k, work_bound)


def _check_t(game, t, work_bound):
    n = game.n_players
    if not isinstance(t, int) or isinstance(t, bool) or t < 0 or t >= n:
        raise InputError(f"t out of range: need 0 <= t < {n}, got {t!r}")
    if t:
        _guard_enumeration(game, t, work_bound)


def check_resilience(game: NormalFormGame, profile: MixedProfile, k,
                     semantics=ResilienceSemantics.STRONG, epsilon=0,
                     work_bound=DEFAULT_WORK_BOUND) -> Verdict:
    """No coalition of size <= k profits from a joint deviation.

    Coalitions and joint deviations are scanned in lexicographic order
    (coalition size, member indices, action indices), so the witness is the
    first counterexample in that order.
    """
    eps = _check_epsilon(epsilon)
    _check_profile_shape(game, profile)
    _check_k(game, k, semantics, work_bound)

    base = expected_utility(game, profile)
    # some member gains by over eps (STRONG) exactly when the best gain
    # does, and every member (WEAK) exactly when the worst gain does
    pick = max if semantics is ResilienceSemantics.STRONG else min
    found = _first_gain((
        ((group, joint, after), None, (0, 1),
         pick(after[i] - base[i] for i in group).as_integer_ratio())
        for group, joint, after in _joint_scan(game, profile, k)), eps)
    if found is None:
        return Verdict(True)
    coalition, joint, after = found[0]
    members = tuple(game.players[i] for i in coalition)
    gains = {game.players[i]: {"utility_before": base[i],
                               "utility_after": after[i]}
             for i in coalition}
    return Verdict(False, Witness(
        kind="coalition-deviation",
        description=(
            f"coalition {{{', '.join(members)}}} profits from "
            f"a joint deviation"),
        data={
            "coalition": members,
            "deviation": _deviation_names(game, coalition, joint),
            "members": gains,
            "semantics": semantics.value,
        }))


def check_immunity(game: NormalFormGame, profile: MixedProfile, t,
                   epsilon=0, work_bound=DEFAULT_WORK_BOUND) -> Verdict:
    """No group of <= t deviators can push any outsider below their
    profile utility (minus epsilon)."""
    eps = _check_epsilon(epsilon)
    _check_profile_shape(game, profile)
    _check_t(game, t, work_bound)
    if t == 0:
        return Verdict(True)

    base = expected_utility(game, profile)
    # an outsider is harmed when their negated utility gains over eps
    found = _first_gain((
        ((group, joint, after), victim,
         (-base[victim].numerator, base[victim].denominator),
         (-after[victim].numerator, after[victim].denominator))
        for group, joint, after in _joint_scan(game, profile, t)
        for victim in range(game.n_players) if victim not in group), eps)
    if found is None:
        return Verdict(True)
    (deviators, joint, after), victim = found[:2]
    names = tuple(game.players[i] for i in deviators)
    harmed = game.players[victim]
    return Verdict(False, Witness(
        kind="harmed-by-deviators",
        description=(
            f"player {harmed} is harmed when "
            f"{{{', '.join(names)}}} deviate"),
        data={
            "deviators": names,
            "deviation": _deviation_names(game, deviators, joint),
            "harmed": harmed,
            "utility_before": base[victim],
            "utility_after": after[victim],
        }))


def _check_query_k(game, k):
    n = game.n_players
    if k > n:
        raise InputError(f"k out of range: need k <= {n}, got {k}")


def check_robust(game: NormalFormGame, profile: MixedProfile,
                 query: RobustnessQuery,
                 work_bound=DEFAULT_WORK_BOUND) -> Verdict:
    """(k, t)-robustness: k-resilience and t-immunity together.

    k = 0 makes the resilience half vacuous.  The verdict carries both
    sub-verdicts; its witness is the first failing sub-check's witness.
    """
    _check_query_k(game, query.k)
    if query.k == 0:
        resilience = Verdict(True)
    else:
        resilience = check_resilience(
            game, profile, query.k, query.semantics, query.epsilon, work_bound)
    immunity = check_immunity(game, profile, query.t, query.epsilon, work_bound)
    witness = None
    if not resilience.holds:
        witness = resilience.witness
    elif not immunity.holds:
        witness = immunity.witness
    return Verdict(
        resilience.holds and immunity.holds,
        witness=witness,
        sub_verdicts={"resilience": resilience, "immunity": immunity})


def _beaten(values, en, ed):
    """Positions in values, int pairs, that their top beats by over en/ed."""
    tn, td = values[0]
    for vn, vd in values:
        if vn * td > tn * vd:
            tn, td = vn, vd
    return [j for j, (vn, vd) in enumerate(values)
            if tn * vd * ed > (vn * ed + en * vd) * td]


def _clear_breaches(game, live, eps, group, sign, seats, every=False):
    """Clear the live flag (one per profile, by lexicographic index) of each
    profile that a joint of group beats in its context, the assignment of
    every player outside group: some seat's payoff times sign (with every,
    each seat's) rises by more than eps.  Only a context that holds a live
    profile is read, each entry once, as int pairs for _first_gain's rule."""
    if 1 not in live:
        return
    n, sizes = game.n_players, [len(a) for a in game.actions]
    strides = [math.prod(sizes[i + 1:]) for i in range(n)]

    def lex(players):  # every joint of players, in order, and its offset
        return (itertools.product(*(range(sizes[i]) for i in players)),
                map(sum, itertools.product(*(range(
                    0, sizes[i] * strides[i], strides[i]) for i in players))))
    outside = [i for i in range(n) if i not in group]
    joints, offsets = map(list, lex(group))
    # context + joint back to player order; one index would not give a tuple
    order = outside + list(group)
    unmix = itemgetter(*map(order.index, range(n))) if n > 1 else tuple
    en, ed = eps.numerator, eps.denominator
    for context, base in zip(*lex(outside)):
        where = tuple(map(base.__add__, offsets))
        if not any(map(live.__getitem__, where)):
            continue
        keys = map(unmix, map(context.__add__, joints))
        rows = [[(sign * v[i].numerator, v[i].denominator) for i in seats]
                for v in map(game.payoffs.__getitem__, keys)]
        if every:
            beaten = [j for j, b in enumerate(rows) if live[where[j]] and any(
                all(an * bd * ed > (bn * ed + en * bd) * ad
                    for (an, ad), (bn, bd) in zip(a, b)) for a in rows)]
        else:
            beaten = [j for c in zip(*rows) for j in _beaten(c, en, ed)]
        for j in beaten:
            live[where[j]] = 0


def _pure_robust(game, k, t, eps, weak):
    """check_robust's pure profiles at (k, t), WEAK when weak, as index
    tuples in lexicographic order: one _clear_breaches pass per coalition
    and per deviator set drops those that fail.  Arguments are trusted."""
    n = game.n_players
    live = bytearray(b"\1") * math.prod(len(a) for a in game.actions)
    # k = 0 or t = 0 gives no groups, and that half of the check passes
    for group in _groups(n, k):
        _clear_breaches(game, live, eps, group, 1, group,
                        weak and len(group) > 1)
    for group in _groups(n, t):
        _clear_breaches(game, live, eps, group, -1,
                        [i for i in range(n) if i not in group])
    return list(itertools.compress(game.pure_profiles(), live))


def enumerate_pure_robust(game: NormalFormGame, query: RobustnessQuery,
                          work_bound=DEFAULT_WORK_BOUND):
    """All pure profiles passing check_robust, in lexicographic action order.

    Returns a list of action-name tuples.  The arguments are checked and the
    work guards run once, in check_robust's order, before _pure_robust.
    """
    bounded_product((len(a) for a in game.actions), work_bound,
                    "pure profiles")
    _check_query_k(game, query.k)
    eps = _check_epsilon(query.epsilon)
    if query.k:
        _check_k(game, query.k, query.semantics, work_bound)
    _check_t(game, query.t, work_bound)
    weak = query.semantics is ResilienceSemantics.WEAK
    return [game.profile_names(pure)
            for pure in _pure_robust(game, query.k, query.t, eps, weak)]
