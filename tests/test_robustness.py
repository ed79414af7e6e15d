import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from _gen import (random_normal_form, random_one_shot_game,
                  random_small_game, reference_after, reference_extrema,
                  reference_joints)
from eqcheck import awareness, games
from eqcheck.awareness import (canonical_representation, crossing_game,
                               find_pure_generalized_nash)
from eqcheck.catalog import (bargaining_game, matching_pennies,
                             prisoners_dilemma, zero_one_game)
from eqcheck.errors import InputError, WorkBoundExceeded
from eqcheck.games import (MixedProfile, NormalFormGame, bounded_product,
                           expected_utility, is_nash)
from eqcheck.machines import (build_primality_game,
                              build_repeated_dilemma_game,
                              build_roshambo_game,
                              exhaustive_machine_equilibria,
                              induced_machine_game)
from eqcheck.robustness import (ResilienceSemantics, RobustnessQuery,
                                check_immunity, check_resilience,
                                check_robust, enumerate_pure_robust,
                                utilities_under_joint_deviation)
from test_trees import _go_stop_chain

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


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: RobustnessQuery(1, -1),
                 "t must be a nonnegative integer", id="negative-t"),
    pytest.param(lambda: RobustnessQuery(1, 0, semantics="weak"),
                 "semantics must be a ResilienceSemantics value",
                 id="query-semantics"),
    pytest.param(lambda: check_resilience(
                     prisoners_dilemma(),
                     MixedProfile.pure(prisoners_dilemma(), ("D", "D")), 1,
                     semantics="weak"),
                 "semantics must be a ResilienceSemantics value",
                 id="resilience-semantics"),
])
def test_parameter_refusals(call, message):
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message


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


def _xab_game(cells):
    """p1 and p2 choose x, a or b: (x, x) pays (0, 0), the given cells
    their payoffs, and every other cell (-1, -1)."""
    actions = ("x", "a", "b")
    cells = {"xx": (0, 0), **cells}
    return NormalFormGame(("p1", "p2"), (actions, actions), {
        (i, j): tuple(map(F, cells.get(actions[i] + actions[j], (-1, -1))))
        for i in range(3) for j in range(3)})


def test_weak_semantics_compares_pure_joint_deviations_only():
    """The documented definition: WEAK asks whether one pure joint
    deviation makes every member gain.  In both games (x, x) passes,
    although a half-and-half deviation, correlated in the first and
    independent in the second, gives both members 1/2."""
    correlated = _xab_game({"aa": (2, -1), "bb": (-1, 2),
                            "ab": (-5, -5), "ba": (-5, -5)})
    independent = _xab_game({"aa": (-1, 2), "bb": (-1, 2),
                             "ab": (2, -1), "ba": (2, -1)})
    for game in (correlated, independent):
        profile = MixedProfile.pure(game, ("x", "x"))
        assert is_nash(game, profile).holds
        assert check_resilience(game, profile, 2,
                                ResilienceSemantics.WEAK).holds
        assert not check_resilience(game, profile, 2,
                                    ResilienceSemantics.STRONG).holds
        query = RobustnessQuery(2, 0, semantics=ResilienceSemantics.WEAK)
        assert ("x", "x") in enumerate_pure_robust(game, query)
    base = MixedProfile.pure(correlated, ("x", "x"))
    both = [utilities_under_joint_deviation(correlated, base, (0, 1), joint)
            for joint in ((1, 1), (2, 2))]
    assert [sum(u) / 2 for u in zip(*both)] == [F(1, 2), F(1, 2)]
    half = {"x": 0, "a": F(1, 2), "b": F(1, 2)}
    mixed = MixedProfile.from_mapping(independent, {"p1": half, "p2": half})
    assert expected_utility(independent, mixed) == (F(1, 2), F(1, 2))


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
    best, worst = reference_extrema(game, profile, coalition)
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
# expected_utility (_gen.reference_after).

def _reference_resilience(game, profile, k, semantics, eps):
    base = expected_utility(game, profile)
    for size in range(1, k + 1):
        for coalition in itertools.combinations(range(game.n_players), size):
            for joint in reference_joints(game, coalition):
                after = reference_after(game, profile, coalition, joint)
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
            for joint in reference_joints(game, deviators):
                after = reference_after(game, profile, deviators, joint)
                for victim in range(game.n_players):
                    if (victim not in deviators
                            and after[victim] < base[victim] - eps):
                        return deviators, joint, victim, (
                            base[victim], after[victim])
    return None


# ties, halves, thirds and sixths: boundary cases for > against >= and
# for epsilon 1/6 on either side of a comparison
_TIES = (F(-1), F(-1, 2), F(0), F(1, 3), F(1, 2), F(2, 3), F(1))


def _names(game, group, joint):
    return ({game.players[i]: game.actions[i][a] for i, a in zip(group, joint)},
            tuple(game.players[i] for i in group))


def test_deviation_scan_matches_reference_loops():
    """Integer payoffs at epsilon 0 and 1/2, then payoffs with denominators
    up to 10^6 and payoffs from a small set full of ties at epsilon 0, 1/6
    and 1/10^6, where the scan's int comparison must order values exactly
    as Fractions do."""
    rng = random.Random(3)
    cases = []
    whole, fine = (F(0), F(1, 2)), (F(0), F(1, 6), F(1, 10 ** 6))
    for game, pure in ((zero_one_game(3), ("0",) * 3),
                       (bargaining_game(5), ("stay",) * 5)):
        cases.append((game, MixedProfile.pure(game, pure), whole))
        cases.append((game, _random_profile(game, rng), whole))
    draws = [None] * 20 + [
        lambda: F(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6)),
        lambda: rng.choice(_TIES)] * 10
    for draw in draws:
        game = random_normal_form(rng, draw)
        epsilons = whole if draw is None else fine
        cases.append((game, _random_profile(game, rng), epsilons))
        pure = tuple(rng.randrange(len(a)) for a in game.actions)
        cases.append((game, MixedProfile.pure(game, pure), epsilons))
    failures = {whole: 0, fine: 0}
    for game, profile, epsilons in cases:
        n = game.n_players
        for eps in epsilons:
            for k in range(1, n + 1):
                for semantics in ResilienceSemantics:
                    verdict = check_resilience(
                        game, profile, k, semantics, eps)
                    expected = _reference_resilience(
                        game, profile, k, semantics, eps)
                    assert verdict.holds == (expected is None)
                    if expected is None:
                        continue
                    failures[epsilons] += 1
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
                failures[epsilons] += 1
                deviators, joint, victim, (before, after) = expected
                deviation, names = _names(game, deviators, joint)
                data = verdict.witness.data
                assert data["deviators"] == names
                assert list(data["deviation"].items()) == list(
                    deviation.items())
                assert data["harmed"] == game.players[victim]
                assert (data["utility_before"], data["utility_after"]) == (
                    before, after)
    # the cases must exercise failing verdicts, not only passing ones
    assert failures[whole] > 50 and failures[fine] > 100, failures


def test_one_profile_checks_evaluate_nothing_past_their_witness(monkeypatch):
    """A failing check evaluates the base utilities once and then each
    joint deviation in scan order up to its witness, and none after it."""
    calls = []
    real = games._support_utilities

    def counting(game, support):
        calls.append(support)
        return real(game, support)
    monkeypatch.setattr(games, "_support_utilities", counting)
    game = zero_one_game(3)
    profile = all_zero(game)
    for size, key, check in (
            (2, "coalition", lambda: check_resilience(
                game, profile, 2, ResilienceSemantics.WEAK)),
            (1, "deviators", lambda: check_immunity(game, profile, 1))):
        order = [_names(game, group, joint)
                 for s in range(1, size + 1)
                 for group in itertools.combinations(range(3), s)
                 for joint in reference_joints(game, group)]
        calls.clear()
        verdict = check()
        assert not verdict.holds
        data = verdict.witness.data
        position = order.index((data["deviation"], data[key])) + 1
        assert position < len(order)     # the scan has more to skip
        assert len(calls) == 1 + position


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
    games += [random_normal_form(rng) for _ in range(16)]
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


def test_pure_enumeration_matches_reference_on_fractional_payoffs():
    """Payoffs with denominators up to 10^6, and payoffs from a small set
    full of ties, where the enumeration's int comparison must order values
    exactly as Fractions do."""
    rng = random.Random(1806)
    games = []
    for draw in (lambda: F(rng.randint(-10 ** 6, 10 ** 6),
                           rng.randint(1, 10 ** 6)),
                 lambda: rng.choice(_TIES)):
        games += [random_normal_form(rng, draw) for _ in range(10)]
    assert sum(len(a) == 1 for game in games for a in game.actions) > 3
    found = 0
    for game in games:
        n = game.n_players
        for k in range(n + 1):
            for t in range(n):
                for semantics in ResilienceSemantics:
                    for eps in (F(0), F(1, 6), F(1, 10 ** 6)):
                        query = RobustnessQuery(k, t, eps, semantics)
                        got = enumerate_pure_robust(game, query)
                        assert got == _reference_enumeration(game, query), (
                            game.payoffs, k, t, semantics, eps)
                        found += len(got)
    assert found > 200, found


class _CountingTable(dict):
    """A payoff table that counts the entries read from it."""
    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)

    def values(self):
        self.reads += len(self)
        return super().values()

    def items(self):
        self.reads += len(self)
        return super().items()


def _enumeration_reads(game, query, work_bound=10_000_000):
    """(profiles, entries read) of enumerate_pure_robust on game."""
    game.payoffs = table = _CountingTable(game.payoffs)
    try:
        return enumerate_pure_robust(game, query, work_bound), table.reads
    finally:
        game.payoffs = dict(table)


def test_pure_enumeration_reads_each_entry_once_per_group():
    """Each coalition or deviator set reads each table entry at most once,
    however many of its profiles survive."""
    canon = canonical_representation(_go_stop_chain(10))
    _, pair = awareness._pair_game(canon, awareness._active_pieces(canon))
    found, reads = _enumeration_reads(pair, RobustnessQuery(1, 0), math.inf)
    assert (len(pair.payoffs), len(found)) == (1024, 241)
    assert reads <= (2 + 1) * 1024, reads
    # 3 x 3 x 3 with two payoff levels, mostly the top one, so profiles
    # survive long; three pass
    rng = random.Random(2)
    game = NormalFormGame(("p", "q", "r"), (("0", "1", "2"),) * 3, {
        key: tuple(rng.choice((0, 1, 1, 1)) for _ in key)
        for key in itertools.product(range(3), repeat=3)})
    query = RobustnessQuery(2, 1)
    found, reads = _enumeration_reads(game, query)
    assert found == _reference_enumeration(game, query) and len(found) == 3
    assert reads <= (3 + 3 + 3 + 1) * 27, reads


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


# The machine and generalized Nash searches as they ran through the public
# enumeration, with a RobustnessQuery and its deviation guard lifted.

def _machine_search_via_public_enumeration(game, eps):
    return enumerate_pure_robust(induced_machine_game(game),
                                 RobustnessQuery(1, 0, eps), math.inf)


def _pair_search_via_public_enumeration(gwa, eps):
    pieces = awareness._active_pieces(gwa)
    if not pieces:      # a game without players has nothing to enumerate
        return [{}]
    choices, pair_game = awareness._pair_game(gwa, pieces)
    return [{(player, game_name): {label: {move: 1} for label, move
                                   in zip(labels, per[int(name)])}
             for (player, game_name, labels), per, name
             in zip(pieces, choices, names)}
            for names in enumerate_pure_robust(
                pair_game, RobustnessQuery(1, 0, eps), math.inf)]


def test_searches_call_the_shared_pass_directly(monkeypatch):
    """exhaustive_machine_equilibria and find_pure_generalized_nash build
    no RobustnessQuery and skip enumerate_pure_robust, and still find what
    the public enumeration finds on their tables, refusing as before."""
    rng = random.Random(2023)
    machine_games = [build_roshambo_game(), build_primality_game(3, F(1, 50)),
                     build_repeated_dilemma_game(4, F(9, 10), F(1, 10))]
    machine_games += [random_one_shot_game(rng) for _ in range(20)]
    structures = [crossing_game(F(i, 5)) for i in range(6)]
    structures += [canonical_representation(random_small_game(rng))
                   for _ in range(20)]
    cases = [(exhaustive_machine_equilibria, game, eps,
              _machine_search_via_public_enumeration(game, eps))
             for game in machine_games for eps in (F(0), F(1, 2))]
    cases += [(lambda gwa, eps: [p.strategies for p in
                                 find_pure_generalized_nash(gwa, eps)],
               gwa, eps, _pair_search_via_public_enumeration(gwa, eps))
              for gwa in structures for eps in (F(0), F(1, 2))]

    def refuse(*args, **kwargs):
        raise AssertionError("the searches must not reach this")

    for name, module in list(sys.modules.items()):
        if name == "eqcheck" or name.startswith("eqcheck."):
            for attr in ("enumerate_pure_robust", "RobustnessQuery"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    found = 0
    for search, game, eps, want in cases:
        assert search(game, eps) == want
        found += len(want)
    assert found > 100, found
    for search, game in ((exhaustive_machine_equilibria, machine_games[0]),
                         (find_pure_generalized_nash, structures[0])):
        with pytest.raises(InputError) as info:
            search(game, -1)
        assert str(info.value) == "epsilon must be nonnegative"
        with pytest.raises(WorkBoundExceeded):
            search(game, -1, work_bound=1)
