"""End-to-end acceptance checks.

One test per headline behavior, each with a wall-clock budget.  Every test
prints a visible ACCEPTANCE line even while pytest captures output, and the
assertions behind each line are genuine: a FAIL here means the library does
not do what it claims.
"""

import itertools
import random
import time
from fractions import Fraction

from eqcheck.awareness import (GeneralizedProfile, canonical_representation,
                               crossing_game, find_pure_generalized_nash,
                               is_generalized_nash)
from eqcheck.basim import PROTOCOLS, empirical_immunity, sweep
from eqcheck.catalog import (bargaining_game, matching_pennies,
                             prisoners_dilemma, zero_one_game)
from eqcheck.games import MixedProfile
from eqcheck.machines import (build_primality_game,
                              build_repeated_dilemma_game,
                              build_roshambo_game,
                              exhaustive_machine_equilibria, is_machine_nash,
                              tit_for_tat_threshold, zeroed_complexity)
from eqcheck.robustness import (RobustnessQuery, check_immunity,
                                check_resilience, check_robust,
                                enumerate_pure_robust,
                                utilities_under_joint_deviation)
from eqcheck.trees import induced_normal_form

from _gen import (generalized_profile_names, pure_nash_names,
                  random_small_game, reference_extrema)

F = Fraction


def _criterion(capsys, number, limit, body):
    start = time.perf_counter()
    failure = None
    try:
        body()
    except BaseException as exc:
        failure = exc
    elapsed = time.perf_counter() - start
    ok = failure is None and elapsed < limit
    with capsys.disabled():
        print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'} "
              f"({elapsed:.2f}s)")
    if failure is not None:
        raise failure
    assert elapsed < limit, (
        f"criterion {number} finished in {elapsed:.2f}s, budget {limit}s")


def test_criterion_01_zero_one_coalitions(capsys):
    def body():
        game = zero_one_game(3)
        profile = MixedProfile.pure(game, ("0", "0", "0"))
        assert check_robust(game, profile, RobustnessQuery(1, 0)).holds
        verdict = check_robust(game, profile, RobustnessQuery(2, 0))
        assert not verdict.holds
        witness = verdict.witness
        assert witness.kind == "coalition-deviation"
        assert len(witness.data["coalition"]) == 2
        for member in witness.data["coalition"]:
            gains = witness.data["members"][member]
            assert gains["utility_before"] == 1
            assert gains["utility_after"] == 2

    _criterion(capsys, 1, 1.0, body)


def test_criterion_02_bargaining_immunity(capsys):
    def body():
        game = bargaining_game(5)
        profile = MixedProfile.pure(game, ("stay",) * 5)
        for k in range(1, 6):
            assert check_resilience(game, profile, k).holds, k
        verdict = check_immunity(game, profile, 1)
        assert not verdict.holds
        data = verdict.witness.data
        assert data["utility_before"] == 2
        assert data["utility_after"] == 0

    _criterion(capsys, 2, 1.0, body)


def test_criterion_03_dilemma_enumeration(capsys):
    def body():
        found = enumerate_pure_robust(
            prisoners_dilemma(), RobustnessQuery(1, 0))
        assert found == [("D", "D")]

    _criterion(capsys, 3, 1.0, body)


def test_criterion_04_roshambo_costs(capsys):
    def body():
        game = build_roshambo_game()
        profiles = list(itertools.product(
            *[[m.id for m in space] for space in game.spaces]))
        assert len(profiles) == 16
        assert exhaustive_machine_equilibria(game) == []
        free = zeroed_complexity(game)
        assert is_machine_nash(free, ("uniform", "uniform")).holds

    _criterion(capsys, 4, 1.0, body)


def test_criterion_05_repeated_dilemma_threshold(capsys):
    def body():
        delta, cost = F(9, 10), F(1, 10)

        def geometric(lo, hi):
            return sum((delta ** r for r in range(lo, hi + 1)), F(0))

        def oracle_holds(rounds):
            # net payoffs of tit_for_tat's rival machines against tit_for_tat
            s = geometric(1, rounds)
            base = 3 * s - 2 * cost
            rivals = (
                3 * s - 2 * cost,
                5 * delta - 3 * (s - delta) - 2 * cost,
                3 * s - 2 * cost,
                3 * geometric(1, rounds - 1) + 5 * delta ** rounds
                - (rounds + 1) * cost,
            )
            return max(rivals) <= base

        oracle_threshold = next(n for n in range(1, 101) if oracle_holds(n))
        assert oracle_threshold == 9
        report = tit_for_tat_threshold(delta, cost, 100)
        assert report.symmetric == oracle_threshold
        for rounds in range(1, 101):
            game = build_repeated_dilemma_game(rounds, delta, cost)
            verdict = is_machine_nash(game, ("tit_for_tat", "tit_for_tat"))
            assert verdict.holds == oracle_holds(rounds), rounds
        assert tit_for_tat_threshold(delta, 0, 100).symmetric is None

    _criterion(capsys, 5, 5.0, body)


def test_criterion_06_primality_sixteen_bits(capsys):
    def body():
        cheap = build_primality_game(16, F(1, 2))
        assert exhaustive_machine_equilibria(cheap) == [("test_and_guess",)]
        dear = build_primality_game(16, F(5, 8))
        assert exhaustive_machine_equilibria(dear) == [("always_safe",)]

    _criterion(capsys, 6, 5.0, body)


def test_criterion_07_crossing_equilibrium(capsys):
    def body():
        profile = GeneralizedProfile.pure({
            ("B", "modeler"): {"B": "down_B"},
            ("A", "a_view"): {"A.1": "across_A"},
            ("A", "b_view"): {"A.3": "down_A"},
            ("B", "b_view"): {"B.3": "across_B"},
        })
        gwa = crossing_game(F(3, 10))
        assert is_generalized_nash(gwa, profile).holds
        found = find_pure_generalized_nash(gwa)
        assert any(p.strategies == profile.strategies for p in found)
        shifted = crossing_game(F(7, 10))
        verdict = is_generalized_nash(shifted, profile)
        assert not verdict.holds
        data = verdict.witness.data
        assert data["player"] == "A"
        assert data["strategy"] == {"A.1": "down_A"}
        assert data["gain"] == F(2, 5)

    _criterion(capsys, 7, 1.0, body)


def test_criterion_08_canonical_equivalence(capsys):
    def body():
        rng = random.Random(910)
        for _ in range(50):
            tree = random_small_game(rng)
            nash = pure_nash_names(induced_normal_form(tree))
            found = find_pure_generalized_nash(canonical_representation(tree))
            assert generalized_profile_names(tree, found) == nash

    _criterion(capsys, 8, 30.0, body)


def test_criterion_09_mixed_deviations_bounded_by_pure(capsys):
    def body():
        rng = random.Random(777)
        cases = (
            (zero_one_game(3), ("0", "0", "0")),
            (bargaining_game(5), ("stay",) * 5),
            (prisoners_dilemma(), ("D", "D")),
            (matching_pennies(), ("H", "T")),
        )
        extrema = {}
        samples = 0
        for case_index, (game, pure) in enumerate(cases):
            profile = MixedProfile.pure(game, pure)
            n = game.n_players
            for _ in range(250):
                size = rng.randint(1, min(2, n))
                group = tuple(sorted(rng.sample(range(n), size)))
                joints = list(itertools.product(
                    *[range(len(game.actions[i])) for i in group]))
                raw = [rng.randint(0, 6) for _ in joints]
                if not any(raw):
                    raw[rng.randrange(len(raw))] = 1
                total = sum(raw)
                outcome = [F(0)] * n
                for weight, joint in zip(raw, joints):
                    if weight == 0:
                        continue
                    after = utilities_under_joint_deviation(
                        game, profile, group, joint)
                    for i in range(n):
                        outcome[i] += F(weight, total) * after[i]
                key = (case_index, group)
                if key not in extrema:
                    extrema[key] = reference_extrema(game, profile, group)
                best, worst = extrema[key]
                for i in group:
                    assert outcome[i] <= best[game.players[i]]
                for i in range(n):
                    if i not in group:
                        assert outcome[i] >= worst[game.players[i]]
                samples += 1
        assert samples == 1000

    _criterion(capsys, 9, 30.0, body)


def test_criterion_10_agreement_simulator(capsys):
    def body():
        mediator = PROTOCOLS["mediator"]
        echo = PROTOCOLS["echo-first"]
        report = sweep(4, 1, mediator)
        assert report.total == 34
        assert report.all_hold
        assert empirical_immunity(4, 1, mediator).holds
        verdict = empirical_immunity(4, 1, echo)
        assert not verdict.holds
        witness = verdict.witness
        assert witness.kind == "harmed-player"
        data = witness.data
        assert data["player"] == "p1"
        assert data["utility_before"] == 1
        assert data["utility_after"] == 0
        assert data["faults"] == {"p0": "equivocate"}
        assert sorted(data["decisions"]) == ["p0", "p1", "p2", "p3"]

    _criterion(capsys, 10, 5.0, body)
