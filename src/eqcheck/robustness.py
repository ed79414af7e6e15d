"""Coalition resilience, immunity to faulty players, and combined robustness.

A profile is k-resilient when no coalition of at most k players has a joint
(correlated) deviation its members profit from, and t-immune when no group
of at most t players can hurt any outsider by deviating arbitrarily.  The
(k, t) = (1, 0) case coincides with the Nash check.

Coalition deviations are enumerated as joint pure action tuples: members
may correlate, and because each member's utility is linear in any mixture
over joint deviations, a mixed deviation can never beat the best pure one
(for resilience) or undercut the worst pure one (for immunity).
"""

from __future__ import annotations

import functools
import itertools
from enum import Enum

from .errors import InputError
from .games import (DEFAULT_WORK_BOUND, MixedProfile, NormalFormGame,
                    _check_epsilon, _check_profile_shape, _mixed_after,
                    _subset_choices, bounded_product, expected_utility)
from .verdicts import Verdict, Witness


class ResilienceSemantics(Enum):
    # STRONG: the coalition deviates if SOME member strictly gains.
    # WEAK: it deviates only if ALL members strictly gain.
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


def _is_index(value, size):
    return (isinstance(value, int) and not isinstance(value, bool)
            and 0 <= value < size)


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
        if not _is_index(i, game.n_players):
            raise InputError(f"joint deviation: bad player index {i!r}")
        if not _is_index(a, len(game.actions[i])):
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


def _joint_deviations(game, groups, after):
    """(group, joint, utilities) for every joint pure action of every group,
    joint actions in lexicographic index order: the one deviation scan
    behind every check, enumeration and extremum in this module.
    after(group, joint) is the utility vector under that deviation."""
    for group in groups:
        ranges = [range(len(game.actions[i])) for i in group]
        for joint in itertools.product(*ranges):
            yield group, joint, after(group, joint)


def _first_breach(game, groups, after, breach):
    """The first (group, joint, utilities, hit) of the scan for which
    hit = breach(group, utilities) is not None, or None."""
    for group, joint, utilities in _joint_deviations(game, groups, after):
        hit = breach(group, utilities)
        if hit is not None:
            return group, joint, utilities, hit
    return None


def _gainer(base, eps, semantics):
    """Resilience breach test: True when the coalition deviates."""
    bar = [b + eps for b in base]
    pick = any if semantics is ResilienceSemantics.STRONG else all

    def breach(coalition, after):
        return True if pick([after[i] > bar[i] for i in coalition]) else None
    return breach


def _harmer(base, eps):
    """Immunity breach test: the first outsider pushed below their base
    utility minus eps."""
    bar = [b - eps for b in base]

    def breach(deviators, after):
        for victim, floor in enumerate(bar):
            if victim not in deviators and after[victim] < floor:
                return victim
        return None
    return breach


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
    found = _first_breach(game, _groups(game.n_players, k),
                          _mixed_after(game, profile),
                          _gainer(base, eps, semantics))
    if found is None:
        return Verdict(True)
    coalition, joint, after, _ = found
    members = tuple(game.players[i] for i in coalition)
    gains = {
        game.players[i]: {
            "utility_before": base[i],
            "utility_after": after[i],
        }
        for i in coalition
    }
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
    found = _first_breach(game, _groups(game.n_players, t),
                          _mixed_after(game, profile), _harmer(base, eps))
    if found is None:
        return Verdict(True)
    deviators, joint, after, victim = found
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


def enumerate_pure_robust(game: NormalFormGame, query: RobustnessQuery,
                          work_bound=DEFAULT_WORK_BOUND):
    """All pure profiles passing check_robust, in lexicographic action order.

    Returns a list of action-name tuples.  One pass over the profiles: the
    arguments are checked and the work guards run once, in check_robust's
    order, and each candidate goes through the checks' own deviation scan
    with its utilities read straight from the payoff table, so no profile
    object is built and no expected utility is summed.
    """
    bounded_product((len(a) for a in game.actions), work_bound,
                    "pure profiles")
    _check_query_k(game, query.k)
    eps = _check_epsilon(query.epsilon)
    if query.k:
        _check_k(game, query.k, query.semantics, work_bound)
    _check_t(game, query.t, work_bound)
    # k = 0 or t = 0 gives no groups, and that half of the check passes
    coalitions = tuple(_groups(game.n_players, query.k))
    deviators = tuple(_groups(game.n_players, query.t))
    payoffs = game.payoffs
    found = []
    for pure in game.pure_profiles():
        def after(group, joint):
            key = list(pure)
            for i, a in zip(group, joint):
                key[i] = a
            return payoffs[tuple(key)]

        base = payoffs[pure]
        if _first_breach(game, coalitions, after,
                         _gainer(base, eps, query.semantics)) is not None:
            continue
        if _first_breach(game, deviators, after,
                         _harmer(base, eps)) is not None:
            continue
        found.append(game.profile_names(pure))
    return found


def _player_indices(game, players):
    return tuple(sorted(game.player_index(p) if isinstance(p, str) else p
                        for p in players))


def _extremum(game, profile, group, scope, pick):
    """pick (max or min) of each scope player's utility over all joint pure
    deviations of group."""
    found = {}
    checked = functools.partial(utilities_under_joint_deviation, game, profile)
    for _, _, after in _joint_deviations(game, (group,), checked):
        for i in scope:
            found[i] = pick(found[i], after[i]) if i in found else after[i]
    return {game.players[i]: v for i, v in found.items()}


def best_member_utilities(game, profile, coalition):
    """For each coalition member, the best utility over all joint pure
    deviations of the coalition.  Test-facing extremum helper."""
    indices = _player_indices(game, coalition)
    return _extremum(game, profile, indices, indices, max)


def worst_outsider_utilities(game, profile, deviators):
    """For each outsider, the worst utility over all joint pure deviations
    of the deviator set.  Test-facing extremum helper."""
    indices = _player_indices(game, deviators)
    outsiders = [i for i in range(game.n_players) if i not in indices]
    return _extremum(game, profile, indices, outsiders, min)
