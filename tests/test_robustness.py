import itertools
import math
import random
from fractions import Fraction

import pytest

from eqcheck.catalog import (bargaining_game, matching_pennies,
                             prisoners_dilemma, zero_one_game)
from eqcheck.errors import InputError, WorkBoundExceeded
from eqcheck.games import (MixedProfile, NormalFormGame, bounded_product,
                           expected_utility, is_nash)
from eqcheck.robustness import (ResilienceSemantics, RobustnessQuery,
                                best_member_utilities, check_immunity,
                                check_resilience, check_robust,
                                enumerate_pure_robust,
                                utilities_under_joint_deviation,
                                worst_outsider_utilities)

F = Fraction


def all_zero(game):
    return MixedProfile.pure(game, ("0",) * game.n_players)


def test_zero_one_resilience_thresholds():
    game = zero_one_game(3)
    profile = all_zero(game)
    assert check_resilience(game, profile, 1).holds
    verdict = check_resilience(game, profile, 2)
    assert not verdict.holds
    w = verdict.witness
    assert w.kind == "coalition-deviation"
    assert w.data["coalition"] == ("p1", "p2")
    assert w.data["deviation"] == {"p1": "1", "p2": "1"}
    for member in ("p1", "p2"):
        assert w.data["members"][member]["utility_before"] == 1
        assert w.data["members"][member]["utility_after"] == 2
    assert w.data["semantics"] == "strong"


def test_robust_one_zero_equals_nash():
    games = (zero_one_game(3), bargaining_game(5), prisoners_dilemma(),
             matching_pennies())
    for game in games:
        for pure in game.pure_profiles():
            profile = MixedProfile.pure(game, pure)
            nash = is_nash(game, profile).holds
            robust = check_robust(game, profile, RobustnessQuery(1, 0))
            assert robust.holds == nash


def test_bargaining_resilient_but_not_immune():
    game = bargaining_game(5)
    profile = MixedProfile.pure(game, ("stay",) * 5)
    for k in range(1, 6):
        assert check_resilience(game, profile, k).holds
    verdict = check_immunity(game, profile, 1)
    assert not verdict.holds
    w = verdict.witness
    assert w.kind == "harmed-by-deviators"
    assert w.data["deviators"] == ("p1",)
    assert w.data["deviation"] == {"p1": "leave"}
    assert w.data["harmed"] == "p2"
    assert w.data["utility_before"] == 2
    assert w.data["utility_after"] == 0


def test_immunity_zero_is_vacuous():
    game = bargaining_game(5)
    profile = MixedProfile.pure(game, ("leave",) * 5)
    assert check_immunity(game, profile, 0).holds


def test_check_robust_carries_sub_verdicts():
    game = bargaining_game(5)
    profile = MixedProfile.pure(game, ("stay",) * 5)
    verdict = check_robust(game, profile, RobustnessQuery(1, 1))
    assert not verdict.holds
    assert verdict.sub_verdicts["resilience"].holds
    assert not verdict.sub_verdicts["immunity"].holds
    assert verdict.witness.kind == "harmed-by-deviators"
    vacuous = check_robust(game, profile, RobustnessQuery(0, 0))
    assert vacuous.holds


def test_parameter_validation():
    game = prisoners_dilemma()
    profile = MixedProfile.pure(game, ("D", "D"))
    with pytest.raises(InputError):
        check_resilience(game, profile, 0)
    with pytest.raises(InputError):
        check_resilience(game, profile, 3)
    with pytest.raises(InputError):
        check_immunity(game, profile, 2)
    with pytest.raises(InputError):
        check_robust(game, profile, RobustnessQuery(3, 0))
    with pytest.raises(InputError):
        RobustnessQuery(-1, 0)
    with pytest.raises(InputError):
        RobustnessQuery(1, 0, epsilon=-1)


def test_enumerate_pure_robust_dilemma():
    game = prisoners_dilemma()
    assert enumerate_pure_robust(game, RobustnessQuery(1, 0)) == [("D", "D")]


def test_enumerate_is_lexicographic():
    game = zero_one_game(3)
    found = enumerate_pure_robust(game, RobustnessQuery(1, 0))
    assert found == sorted(found)
    assert ("0", "0", "0") in found


def test_work_bound_raises():
    game = bargaining_game(5)
    profile = MixedProfile.pure(game, ("stay",) * 5)
    with pytest.raises(WorkBoundExceeded) as exc:
        check_resilience(game, profile, 5, work_bound=10)
    assert exc.value.bound == 10
    assert exc.value.required > 10
    with pytest.raises(WorkBoundExceeded):
        enumerate_pure_robust(game, RobustnessQuery(1, 0), work_bound=3)


def test_deviation_guard_reports_the_full_count():
    game = zero_one_game(3)
    profile = MixedProfile.pure(game, ("0",) * 3)
    with pytest.raises(WorkBoundExceeded,
                       match="^26 deviation evaluations exceed the bound 5$"):
        check_resilience(game, profile, 3, work_bound=5)
    for n in range(2, 6):
        game = zero_one_game(n)
        profile = MixedProfile.pure(game, ("0",) * n)
        for k in range(1, n + 1):
            full = sum(math.comb(n, s) * 2 ** s for s in range(1, k + 1))
            with pytest.raises(WorkBoundExceeded) as exc:
                check_resilience(game, profile, k, work_bound=full - 1)
            assert (exc.value.required, exc.value.bound) == (full, full - 1)
            check_resilience(game, profile, k, work_bound=full)


def test_strong_failure_set_contains_weak():
    """Anything that survives the strong check survives the weak one."""
    game = zero_one_game(3)
    for pure in game.pure_profiles():
        profile = MixedProfile.pure(game, pure)
        for k in (1, 2, 3):
            strong = check_resilience(
                game, profile, k, ResilienceSemantics.STRONG)
            weak = check_resilience(
                game, profile, k, ResilienceSemantics.WEAK)
            if strong.holds:
                assert weak.holds


def test_weak_semantics_needs_every_member_to_gain():
    # p1 moving to 1 alone drops p1 to 0, so a (p1, p2) deviation to (1, 1)
    # helps both; a deviation where only one member moves helps only one.
    game = zero_one_game(3)
    profile = all_zero(game)
    weak = check_resilience(game, profile, 2, ResilienceSemantics.WEAK)
    assert not weak.holds
    assert weak.witness.data["semantics"] == "weak"
    members = weak.witness.data["members"]
    for gain in members.values():
        assert gain["utility_after"] > gain["utility_before"]


def test_epsilon_monotone_in_verdicts():
    game = zero_one_game(3)
    profile = all_zero(game)
    assert not check_resilience(game, profile, 2, epsilon=0).holds
    assert not check_resilience(game, profile, 2, epsilon=F(99, 100)).holds
    assert check_resilience(game, profile, 2, epsilon=1).holds


def test_witness_replay():
    """Witness data must reproduce under utilities_under_joint_deviation."""
    game = zero_one_game(3)
    profile = all_zero(game)
    base = expected_utility(game, profile)
    verdict = check_resilience(game, profile, 2)
    w = verdict.witness.data
    deviators = tuple(game.player_index(p) for p in w["coalition"])
    joint = tuple(
        game.action_index(i, w["deviation"][game.players[i]])
        for i in deviators)
    after = utilities_under_joint_deviation(game, profile, deviators, joint)
    for player, gain in w["members"].items():
        i = game.player_index(player)
        assert gain["utility_before"] == base[i]
        assert gain["utility_after"] == after[i]
        assert after[i] > base[i]


def test_extrema_helpers_cover_unilateral_case():
    game = prisoners_dilemma()
    profile = MixedProfile.pure(game, ("C", "C"))
    best = best_member_utilities(game, profile, ("p1",))
    assert best == {"p1": F(5)}
    worst = worst_outsider_utilities(game, profile, ("p1",))
    assert worst == {"p2": F(-5)}


def _random_profile(game, rng):
    rows = []
    for acts in game.actions:
        weights = [rng.randint(0, 3) for _ in acts]
        if sum(weights) == 0:
            weights[rng.randrange(len(acts))] = 1
        total = sum(weights)
        rows.append(tuple(F(w, total) for w in weights))
    return MixedProfile(rows)


def test_random_profiles_strong_implies_weak_and_nash():
    rng = random.Random(20240817)
    game = zero_one_game(3)
    for _ in range(30):
        profile = _random_profile(game, rng)
        strong = check_resilience(game, profile, 2)
        if strong.holds:
            assert check_resilience(
                game, profile, 2, ResilienceSemantics.WEAK).holds
            assert is_nash(game, profile).holds


def test_sampled_mixed_deviations_never_beat_pure_extrema():
    """Correlated rational mixtures over joint deviations stay inside the
    pure bounds used by the checkers."""
    rng = random.Random(7)
    game = bargaining_game(5)
    profile = MixedProfile.pure(game, ("stay",) * 5)
    coalition = (0, 2)
    joints = list(itertools.product(
        range(len(game.actions[0])), range(len(game.actions[2]))))
    best = best_member_utilities(game, profile, coalition)
    worst = worst_outsider_utilities(game, profile, coalition)
    for _ in range(40):
        weights = [rng.randint(0, 4) for _ in joints]
        if sum(weights) == 0:
            weights[0] = 1
        total = sum(weights)
        mixed = [F(0)] * game.n_players
        for joint, w in zip(joints, weights):
            if w == 0:
                continue
            after = utilities_under_joint_deviation(
                game, profile, coalition, joint)
            for i in range(game.n_players):
                mixed[i] += F(w, total) * after[i]
        for i in coalition:
            assert mixed[i] <= best[game.players[i]]
        for i in range(game.n_players):
            if i not in coalition:
                assert mixed[i] >= worst[game.players[i]]


def test_joint_deviation_rejects_malformed_input():
    game = prisoners_dilemma()
    profile = MixedProfile.pure(game, ("C", "C"))
    assert utilities_under_joint_deviation(game, profile, (0,), (1,)) == (
        F(5), F(-5))
    bad = [
        ((0,), (-1,)),        # negative action index
        ((0,), (2,)),         # action index past the end
        ((0, 1), (1,)),       # fewer actions than deviators
        ((0,), (1, 1)),       # more actions than deviators
        ((0, 0), (1, 1)),     # repeated deviator
        ((2,), (0,)),         # player index past the end
        ((-1,), (0,)),        # negative player index
        ((True,), (1,)),      # bool player index
        ((0,), (True,)),      # bool action index
        ((0,), (1.0,)),       # float action index
        (("p1",), (1,)),      # player name instead of index
    ]
    for deviators, joint in bad:
        with pytest.raises(InputError):
            utilities_under_joint_deviation(game, profile, deviators, joint)


# Reference scans for the differential test below: one plain loop per check
# that builds a MixedProfile for every joint deviation and evaluates it with
# expected_utility.

def _reference_after(game, profile, deviators, joint):
    weights = [list(row) for row in profile.weights]
    for i, a in zip(deviators, joint):
        row = [F(0)] * len(game.actions[i])
        row[a] = F(1)
        weights[i] = row
    return expected_utility(game, MixedProfile(weights))


def _reference_joints(game, group):
    return itertools.product(*[range(len(game.actions[i])) for i in group])


def _reference_resilience(game, profile, k, semantics, eps):
    base = expected_utility(game, profile)
    for size in range(1, k + 1):
        for coalition in itertools.combinations(range(game.n_players), size):
            for joint in _reference_joints(game, coalition):
                after = _reference_after(game, profile, coalition, joint)
                improved = [after[i] > base[i] + eps for i in coalition]
                failed = any(improved) \
                    if semantics is ResilienceSemantics.STRONG \
                    else all(improved)
                if failed:
                    return coalition, joint, {
                        i: (base[i], after[i]) for i in coalition}
    return None


def _reference_immunity(game, profile, t, eps):
    base = expected_utility(game, profile)
    for size in range(1, t + 1):
        for deviators in itertools.combinations(range(game.n_players), size):
            for joint in _reference_joints(game, deviators):
                after = _reference_after(game, profile, deviators, joint)
                for victim in range(game.n_players):
                    if (victim not in deviators
                            and after[victim] < base[victim] - eps):
                        return deviators, joint, victim, (
                            base[victim], after[victim])
    return None


def _reference_extrema(game, profile, group):
    best, worst = {}, {}
    for joint in _reference_joints(game, group):
        after = _reference_after(game, profile, group, joint)
        for i in range(game.n_players):
            if i in group:
                if i not in best or after[i] > best[i]:
                    best[i] = after[i]
            elif i not in worst or after[i] < worst[i]:
                worst[i] = after[i]
    return ({game.players[i]: v for i, v in best.items()},
            {game.players[i]: v for i, v in worst.items()})


def _random_normal_form(rng):
    n = rng.randint(2, 4)
    players = tuple(f"q{i}" for i in range(n))
    actions = tuple(
        tuple(f"a{j}" for j in range(rng.randint(1, 3 if n < 4 else 2)))
        for _ in players)
    payoffs = {
        key: tuple(rng.randint(-2, 2) for _ in players)
        for key in itertools.product(*(range(len(a)) for a in actions))
    }
    return NormalFormGame(players, actions, payoffs)


def _names(game, group, joint):
    return ({game.players[i]: game.actions[i][a] for i, a in zip(group, joint)},
            tuple(game.players[i] for i in group))


def test_deviation_scan_matches_reference_loops():
    rng = random.Random(3)
    cases = []
    for game, pure in ((zero_one_game(3), ("0",) * 3),
                       (bargaining_game(5), ("stay",) * 5)):
        cases.append((game, MixedProfile.pure(game, pure)))
        cases.append((game, _random_profile(game, rng)))
    for _ in range(20):
        game = _random_normal_form(rng)
        cases.append((game, _random_profile(game, rng)))
        pure = tuple(rng.randrange(len(a)) for a in game.actions)
        cases.append((game, MixedProfile.pure(game, pure)))
    failures = 0
    for game, profile in cases:
        n = game.n_players
        for eps in (F(0), F(1, 2)):
            for k in range(1, n + 1):
                for semantics in ResilienceSemantics:
                    verdict = check_resilience(
                        game, profile, k, semantics, eps)
                    expected = _reference_resilience(
                        game, profile, k, semantics, eps)
                    assert verdict.holds == (expected is None)
                    if expected is None:
                        continue
                    failures += 1
                    coalition, joint, gains = expected
                    deviation, members = _names(game, coalition, joint)
                    data = verdict.witness.data
                    assert data["coalition"] == members
                    assert list(data["deviation"].items()) == list(
                        deviation.items())
                    assert [(p, g["utility_before"], g["utility_after"])
                            for p, g in data["members"].items()] == [
                        (game.players[i], *gains[i]) for i in coalition]
                    assert data["semantics"] == semantics.value
            for t in range(n):
                verdict = check_immunity(game, profile, t, eps)
                expected = _reference_immunity(game, profile, t, eps)
                assert verdict.holds == (expected is None)
                if expected is None:
                    continue
                failures += 1
                deviators, joint, victim, (before, after) = expected
                deviation, names = _names(game, deviators, joint)
                data = verdict.witness.data
                assert data["deviators"] == names
                assert list(data["deviation"].items()) == list(
                    deviation.items())
                assert data["harmed"] == game.players[victim]
                assert (data["utility_before"], data["utility_after"]) == (
                    before, after)
        for size in range(1, n + 1):
            for group in itertools.combinations(range(n), size):
                best, worst = _reference_extrema(game, profile, group)
                got_best = best_member_utilities(game, profile, group)
                got_worst = worst_outsider_utilities(game, profile, group)
                assert list(got_best.items()) == list(best.items())
                assert list(got_worst.items()) == list(worst.items())
    # the cases must exercise failing verdicts, not only passing ones
    assert failures > 50, failures


# Reference enumeration for the tests below: the profile bound, then the
# plain loop that runs the full mixed-profile check on every pure profile.

def _reference_enumeration(game, query, work_bound=10_000_000):
    bounded_product((len(a) for a in game.actions), work_bound,
                    "pure profiles")
    return [game.profile_names(pure) for pure in game.pure_profiles()
            if check_robust(game, MixedProfile.pure(game, pure), query,
                            work_bound).holds]


def _outcome(call):
    """The result of call(), or the type and message of its error."""
    try:
        return call()
    except (InputError, WorkBoundExceeded) as exc:
        return type(exc), str(exc)


def test_pure_enumeration_matches_reference_loop():
    rng = random.Random(11)
    games = [zero_one_game(3), bargaining_game(3), prisoners_dilemma()]
    games += [_random_normal_form(rng) for _ in range(16)]
    found = 0
    for game in games:
        n = game.n_players
        for k in range(n + 1):
            for t in range(n):
                for semantics in ResilienceSemantics:
                    for eps in (F(0), F(1, 2)):
                        query = RobustnessQuery(k, t, eps, semantics)
                        got = enumerate_pure_robust(game, query)
                        assert got == _reference_enumeration(game, query)
                        found += len(got)
    assert found > 200, found


def _query(k, t, epsilon=0):
    query = RobustnessQuery(k, t)
    # epsilon is normally checked by RobustnessQuery; setting it afterwards
    # reaches the enumeration's own check
    query.epsilon = epsilon
    return query


def test_pure_enumeration_errors_match_reference_loop():
    # zero_one_game(3): 8 profiles; the deviation guard counts 6 joint
    # deviations at size 1 and 18 up to size 2
    game = zero_one_game(3)
    bad, over = InputError, WorkBoundExceeded
    cases = [
        (_query(4, 0), None, bad),            # k > n
        (_query(1, 3), None, bad),            # t >= n
        (_query(4, 3), None, bad),            # both: k wins
        (_query(1, 0, -1), None, bad),        # bad epsilon
        (_query(0, 3, -1), None, bad),        # epsilon before t range
        (_query(4, 0, -1), None, bad),        # k range before epsilon
        (_query(1, 0), 7, over),              # profile bound
        (_query(4, 3, -1), 7, over),          # profile bound wins
        (_query(2, 0), 17, over),             # k guard
        (_query(2, 3), 17, over),             # k guard before t range
        (_query(2, 0, -1), 17, bad),          # epsilon before k guard
        (_query(1, 2), 17, over),             # t guard
        (_query(0, 2, F(1, 2)), 18, None),    # both guards pass
        (_query(2, 2), 18, None),
    ]
    for query, bound, kind in cases:
        bound = 10_000_000 if bound is None else bound
        got = _outcome(lambda: enumerate_pure_robust(game, query, bound))
        want = _outcome(lambda: _reference_enumeration(game, query, bound))
        case = (query.k, query.t, query.epsilon, bound)
        assert got == want, case
        if kind is None:
            assert isinstance(got, list), case
        else:
            assert got[0] is kind, case


def test_pure_enumeration_builds_no_profiles(monkeypatch):
    built = []
    original = MixedProfile.__init__

    def counting(self, weights):
        built.append(1)
        original(self, weights)

    monkeypatch.setattr(MixedProfile, "__init__", counting)
    game = zero_one_game(4)
    for k, t in ((1, 0), (2, 1), (0, 3), (4, 3)):
        enumerate_pure_robust(game, RobustnessQuery(k, t))
    assert built == []
    check_robust(game, all_zero(game), RobustnessQuery(1, 0))
    assert built, "the counter must see the profiles that are built"
