"""Metamorphic tests: the four one-profile checks under positive affine
payoff maps.

Replacing every payoff u of player i by a * u + b_i, with a > 0, moves each
of that player's utilities by the same map, so with epsilon scaled to
a * epsilon no unilateral gain appears or vanishes: is_nash, is_bayes_nash,
is_machine_nash and is_generalized_nash keep their verdicts.  Machine games
scale their complexity charges by a as well; in the repeated dilemma the
shift adds the same discounted sum to every run.  The games are seeded
_gen games whose payoffs are redrawn with denominators up to 10^6, so every
comparison crosses large, unequal denominators.  No reference
implementation is involved.
"""

import collections
import itertools
import random
from fractions import Fraction

from _gen import (random_bayesian_game, random_distribution,
                  random_generalized_profile, random_normal_form,
                  random_one_shot_game, random_small_game)
from eqcheck.awareness import (canonical_representation, crossing_game,
                               is_generalized_nash)
from eqcheck.catalog import prisoners_dilemma
from eqcheck.games import (BayesianGame, BayesianStrategyProfile,
                           MixedProfile, NormalFormGame, is_bayes_nash,
                           is_nash)
from eqcheck.machines import (ComputationalGame, OneShotMachine,
                              build_repeated_dilemma_game, is_machine_nash)
from eqcheck.repeated import DEFAULT_SPACE
from eqcheck.robustness import (ResilienceSemantics, RobustnessQuery,
                                check_robust, enumerate_pure_robust)
from eqcheck.trees import ExtensiveGame

F = Fraction


def _big(rng):
    return F(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 6))


def _redraw(rng):
    """f(i, u) that ignores u and draws a fresh large-denominator payoff."""
    return lambda i, u: _big(rng)


def _affine(rng, n):
    """(a, f): a random positive scale a and f(i, u) = a * u + b_i."""
    a = F(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
    shifts = [_big(rng) for _ in range(n)]
    return a, lambda i, u: a * u + shifts[i]


def _epsilons(rng):
    """Zero and one positive epsilon of the payoffs' own size."""
    return F(0), abs(_big(rng))


def _vec(f, vec):
    return tuple(f(i, u) for i, u in enumerate(vec))


def _mapped_normal(game, f):
    return NormalFormGame(game.players, game.actions, {
        key: _vec(f, vec) for key, vec in game.payoffs.items()})


def _mapped_bayes(game, f):
    return BayesianGame(game.players, game.types, game.actions, game.prior, {
        key: _vec(f, vec) for key, vec in game.utilities.items()})


def _mapped_one_shot(game, f, charge):
    spaces = [[OneShotMachine(m.id, m.kind, m.act, {
        t: charge(c) for t, c in m.complexity.items()}) for m in space]
        for space in game.spaces]
    return ComputationalGame("one-shot", spaces,
                             underlying=_mapped_bayes(game.underlying, f))


def _mapped_tree(tree, f):
    return ExtensiveGame(tree.players, tree.moves, tree.owner, tree.infosets,
                         {h: _vec(f, vec) for h, vec in tree.payoffs.items()},
                         tree.nature_probs)


def _same_verdicts(check, game, scaled, a, cases, rng, seen):
    """check(scaled, case, a * eps) holds exactly when check(game, case,
    eps) does, for every case at epsilon 0 and at a positive epsilon;
    seen counts each case's pair of verdicts."""
    for case in cases:
        verdicts = []
        for eps in _epsilons(rng):
            holds = check(game, case, eps).holds
            assert check(scaled, case, a * eps).holds == holds, (case, eps)
            verdicts.append(holds)
        seen[tuple(verdicts)] += 1


def _assert_spread(seen):
    """Cases that hold, that fail, and that only the positive epsilon
    passes all occur; no case fails only at the larger epsilon."""
    assert min(seen[k] for k in ((True, True), (False, False),
                                 (False, True))) >= 10, seen
    assert not seen[(True, False)], seen


def test_nash_verdicts_survive_affine_maps():
    rng = random.Random(5016)
    seen = collections.Counter()
    for _ in range(60):
        game = _mapped_normal(random_normal_form(rng), _redraw(rng))
        a, f = _affine(rng, game.n_players)
        pure = MixedProfile.pure(
            game, tuple(rng.randrange(len(acts)) for acts in game.actions))
        mixed = MixedProfile([random_distribution(rng, len(acts))
                              for acts in game.actions])
        _same_verdicts(is_nash, game, _mapped_normal(game, f), a,
                       (pure, mixed), rng, seen)
    _assert_spread(seen)


def _bayes_profile(game, rng, pure):
    """One random pure action, or a random distribution, per type."""
    rows = []
    for types, acts in zip(game.types, game.actions):
        per_type = []
        for _ in types:
            if pure:
                choice = rng.randrange(len(acts))
                per_type.append([F(k == choice) for k in range(len(acts))])
            else:
                per_type.append(random_distribution(rng, len(acts)))
        rows.append(per_type)
    return BayesianStrategyProfile(rows)


def test_bayes_nash_verdicts_survive_affine_maps():
    rng = random.Random(4983)
    seen = collections.Counter()
    for _ in range(60):
        game = _mapped_bayes(random_bayesian_game(rng), _redraw(rng))
        a, f = _affine(rng, game.n_players)
        cases = [_bayes_profile(game, rng, pure) for pure in (True, False)]
        _same_verdicts(is_bayes_nash, game, _mapped_bayes(game, f), a,
                       cases, rng, seen)
    _assert_spread(seen)


def test_machine_nash_verdicts_survive_affine_maps():
    rng = random.Random(1794)
    seen = collections.Counter()
    for _ in range(50):
        game = _mapped_one_shot(random_one_shot_game(rng), _redraw(rng),
                                lambda c: abs(_big(rng)))
        a, f = _affine(rng, game.n_players)
        scaled = _mapped_one_shot(game, f, lambda c: a * c)
        cases = [tuple(rng.choice(space).id for space in game.spaces)
                 for _ in range(2)]
        _same_verdicts(is_machine_nash, game, scaled, a, cases, rng, seen)
    for _ in range(12):
        stage = _mapped_normal(prisoners_dilemma(), _redraw(rng))
        rounds = rng.randint(1, 6)
        discount = F(rng.randint(1, 10 ** 6 - 1), 10 ** 6)
        cost = abs(_big(rng)) / 10 ** 3
        charged = rng.choice(((True, True), (True, False)))
        a, f = _affine(rng, 2)
        game = build_repeated_dilemma_game(
            rounds, discount, cost, DEFAULT_SPACE, charged, stage)
        scaled = build_repeated_dilemma_game(
            rounds, discount, a * cost, DEFAULT_SPACE, charged,
            _mapped_normal(stage, f))
        cases = [tuple(rng.choice(DEFAULT_SPACE) for _ in range(2))
                 for _ in range(3)]
        _same_verdicts(is_machine_nash, game, scaled, a, cases, rng, seen)
    _assert_spread(seen)


def _crossing_builder(rng, p):
    """build(f): crossing_game at unawareness p with large-denominator
    payoffs, drawn in the order its incentives need, each mapped by f."""
    low, mid, high = sorted(_big(rng) for _ in range(3))
    b_low, b_high = sorted(_big(rng) for _ in range(2))
    pays = ((mid, _big(rng)), (high, b_high), (low, b_low))
    return lambda f: crossing_game(p, *(_vec(f, v) for v in pays))


def test_generalized_nash_verdicts_survive_affine_maps():
    rng = random.Random(448)
    seen = collections.Counter()
    pairs = []
    for _ in range(40):
        tree = _mapped_tree(random_small_game(rng), _redraw(rng))
        a, f = _affine(rng, len(tree.players))
        pairs.append((canonical_representation(tree),
                      canonical_representation(_mapped_tree(tree, f)), a))
    for k in range(6):
        build = _crossing_builder(rng, F(k, 5))
        a, f = _affine(rng, 2)
        pairs.append((build(lambda i, u: u), build(f), a))
    for gwa, scaled, a in pairs:
        cases = [random_generalized_profile(gwa, rng, pure)
                 for pure in (True, True, False)]
        _same_verdicts(is_generalized_nash, gwa, scaled, a, cases, rng, seen)
    _assert_spread(seen)


def _robust_holds(verdict):
    subs = verdict.sub_verdicts
    return verdict.holds, subs["resilience"].holds, subs["immunity"].holds


def test_robust_sets_and_verdicts_survive_affine_maps():
    """For every (k, t) and both semantics: the pure robust set, and
    check_robust's verdict and both sub-verdicts on a pure and a mixed
    profile."""
    rng = random.Random(1806)
    seen = collections.Counter()
    for _ in range(14):
        game = _mapped_normal(random_normal_form(rng), _redraw(rng))
        a, f = _affine(rng, game.n_players)
        scaled = _mapped_normal(game, f)
        profiles = (
            MixedProfile.pure(game, tuple(
                rng.randrange(len(acts)) for acts in game.actions)),
            MixedProfile([random_distribution(rng, len(acts))
                          for acts in game.actions]))
        n = game.n_players
        for eps in _epsilons(rng):
            for k, t, semantics in itertools.product(
                    range(n + 1), range(n), ResilienceSemantics):
                query = RobustnessQuery(k, t, eps, semantics)
                moved = RobustnessQuery(k, t, a * eps, semantics)
                found = enumerate_pure_robust(game, query)
                assert enumerate_pure_robust(scaled, moved) == found, (
                    k, t, semantics, eps)
                seen["found" if found else "none"] += 1
                for profile in profiles:
                    holds = _robust_holds(check_robust(game, profile, query))
                    assert _robust_holds(
                        check_robust(scaled, profile, moved)) == holds
                    seen[holds] += 1
    # sets with and without profiles, and every verdict split that the
    # sub-verdicts allow, all occur
    assert min(seen[key] for key in (
        "found", "none", (True, True, True), (False, False, True),
        (False, True, False), (False, False, False))) >= 10, seen


def test_strictly_dominated_action_leaves_the_pure_nash_set():
    """A new action of one player that each of their old actions strictly
    beats, whatever the others play, joins no pure (1, 0)-robust profile
    and removes none, wherever it sits in the player's list."""
    rng = random.Random(1977)
    seen = collections.Counter()
    query = RobustnessQuery(1, 0)
    for _ in range(40):
        game = _mapped_normal(random_normal_form(rng), _redraw(rng))
        i = rng.randrange(game.n_players)
        at = rng.randint(0, len(game.actions[i]))
        actions = list(game.actions)
        actions[i] = actions[i][:at] + ("dominated",) + actions[i][at:]
        payoffs = {}
        for key in itertools.product(*(range(len(acts)) for acts in actions)):
            if key[i] != at:
                old = key[:i] + (key[i] - (key[i] > at),) + key[i + 1:]
                payoffs[key] = game.payoffs[old]
                continue
            worst = min(game.payoffs[key[:i] + (a,) + key[i + 1:]][i]
                        for a in range(len(game.actions[i])))
            vec = [_big(rng) for _ in actions]
            vec[i] = worst - F(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
            payoffs[key] = tuple(vec)
        want = enumerate_pure_robust(game, query)
        wider = NormalFormGame(game.players, actions, payoffs)
        assert enumerate_pure_robust(wider, query) == want
        seen[bool(want)] += 1
    assert seen[True] >= 20, seen
