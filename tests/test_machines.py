import gc
import itertools
import random
from fractions import Fraction

import pytest

from _gen import random_bayesian_game, random_distribution
from eqcheck import machines, repeated
from eqcheck.errors import InputError, WorkBoundExceeded
from eqcheck.fileformat import parse_document, serialize_document
from eqcheck.games import MixedProfile, NormalFormGame, is_nash
from eqcheck.machines import (ComputationalGame, OneShotMachine,
                              build_primality_game,
                              build_repeated_dilemma_game,
                              build_roshambo_game, comp_expected_utility,
                              exhaustive_machine_equilibria,
                              induced_machine_game, is_machine_nash,
                              machine_action, tit_for_tat_threshold,
                              zeroed_complexity, _is_prime)
from eqcheck.repeated import (RepeatedGameAutomaton, RepeatedGameSpec,
                              all_defect, default_stage_game, defect_last,
                              library_space, retaliating_defect_last,
                              run_automata, tit_for_tat)

F = Fraction
DEFAULT_NAMES = machines.DEFAULT_SPACE
DELTA = F(9, 10)
COST = F(1, 10)


def test_run_automata_alld_vs_tft():
    spec = RepeatedGameSpec(default_stage_game(), 3, DELTA, COST)
    gross = run_automata(spec, all_defect(), tit_for_tat())
    assert gross == (F(-117, 1000), F(-9117, 1000))


def test_run_automata_mutual_tft():
    spec = RepeatedGameSpec(default_stage_game(), 4, DELTA, 0)
    gross = run_automata(spec, tit_for_tat(), tit_for_tat())
    expected = 3 * sum(DELTA ** r for r in range(1, 5))
    assert gross == (expected, expected)


def _geometric(delta, n):
    return sum(delta ** r for r in range(1, n + 1))


def _tft_equilibrium_oracle(delta, cost, rounds):
    """Closed forms of every library deviation against tit_for_tat.

    all_c and grim trace the mutual-cooperation path; all_d grabs one
    defection payoff and is punished forever; defect_last cooperates
    through round N-1, defects once, and pays for N+1 counter states.
    """
    base = 3 * _geometric(delta, rounds) - 2 * cost
    deviations = (
        3 * _geometric(delta, rounds) - 2 * cost,
        5 * delta - 3 * (_geometric(delta, rounds) - delta) - 2 * cost,
        3 * _geometric(delta, rounds) - 2 * cost,
        3 * _geometric(delta, rounds - 1) + 5 * delta ** rounds
        - (rounds + 1) * cost,
    )
    return all(v <= base for v in deviations)


def test_tft_profile_matches_closed_forms():
    for rounds in range(1, 31):
        game = build_repeated_dilemma_game(rounds, DELTA, COST)
        verdict = is_machine_nash(game, ("tit_for_tat", "tit_for_tat"))
        assert verdict.holds == _tft_equilibrium_oracle(DELTA, COST, rounds)


def test_one_round_game_is_never_a_tft_equilibrium():
    game = build_repeated_dilemma_game(1, DELTA, COST)
    verdict = is_machine_nash(game, ("tit_for_tat", "tit_for_tat"))
    assert not verdict.holds
    w = verdict.witness
    assert w.kind == "machine-deviation"
    assert w.data["better_machine"] == "all_d"
    assert w.data["gain"] == 2 * DELTA


def test_threshold_scan_frozen_values():
    report = tit_for_tat_threshold(DELTA, COST, 100)
    assert report.symmetric == 9
    assert report.asymmetric == 10
    assert report.n_max == 100
    assert report.discount == DELTA
    assert report.memory_cost == COST


def test_threshold_against_oracle():
    want = next(
        n for n in range(1, 101)
        if _tft_equilibrium_oracle(DELTA, COST, n))
    assert want == 9
    assert tit_for_tat_threshold(DELTA, COST, 40).symmetric == want


def test_free_memory_never_reaches_a_threshold():
    report = tit_for_tat_threshold(DELTA, 0, 60)
    assert report.symmetric is None
    assert report.asymmetric is None


def test_expensive_memory_threshold():
    report = tit_for_tat_threshold(F(99, 100), 10, 30)
    assert report.symmetric == 2


def test_threshold_validation():
    with pytest.raises(InputError):
        tit_for_tat_threshold(F(1, 3), COST, 10)
    with pytest.raises(InputError):
        tit_for_tat_threshold(DELTA, -1, 10)
    with pytest.raises(InputError):
        tit_for_tat_threshold(DELTA, COST, 0)
    with pytest.raises(InputError):
        tit_for_tat_threshold(DELTA, COST, 10, space_names=("all_c", "all_d"))
    with pytest.raises(InputError):
        tit_for_tat_threshold(DELTA, COST, True)


def test_memory_charge_uses_state_counts():
    game = build_repeated_dilemma_game(5, DELTA, COST)
    base = comp_expected_utility(game, ("tit_for_tat", "tit_for_tat"))
    assert base[0] == 3 * _geometric(DELTA, 5) - 2 * COST
    counter = comp_expected_utility(game, ("defect_last", "tit_for_tat"))
    assert counter[0] == (3 * _geometric(DELTA, 4) + 5 * DELTA ** 5
                          - 6 * COST)


def test_uncharged_player_pays_nothing():
    game = build_repeated_dilemma_game(5, DELTA, COST, charged=(True, False))
    both = comp_expected_utility(game, ("tit_for_tat", "tit_for_tat"))
    assert both[0] == 3 * _geometric(DELTA, 5) - 2 * COST
    assert both[1] == 3 * _geometric(DELTA, 5)


def test_retaliator_anchors_the_asymmetric_profile():
    names = ("all_c", "all_d", "tit_for_tat", "grim", "defect_last",
             "retaliating_defect_last")
    game = build_repeated_dilemma_game(
        10, DELTA, COST, space_names=names, charged=(True, False))
    profile = ("tit_for_tat", "retaliating_defect_last")
    assert is_machine_nash(game, profile).holds
    shorter = build_repeated_dilemma_game(
        9, DELTA, COST, space_names=names, charged=(True, False))
    assert not is_machine_nash(shorter, profile).holds


def test_automaton_state_counts():
    assert tit_for_tat().n_states == 2
    assert defect_last(7).n_states == 8
    assert retaliating_defect_last(1).n_states == 1
    assert retaliating_defect_last(4).n_states == 4
    for build in (defect_last, retaliating_defect_last):
        with pytest.raises(InputError):
            build(True)
        with pytest.raises(InputError):
            build(0)


def test_roshambo_has_no_equilibrium_at_stated_costs():
    game = build_roshambo_game()
    assert exhaustive_machine_equilibria(game) == []


def test_roshambo_zero_cost_uniform_holds():
    free = zeroed_complexity(build_roshambo_game())
    assert is_machine_nash(free, ("uniform", "uniform")).holds
    verdict = is_machine_nash(free, ("const0", "const0"))
    assert not verdict.holds
    assert verdict.witness.data["better_machine"] == "const1"
    assert verdict.witness.data["gain"] == 1
    assert is_machine_nash(free, ("const0", "const0"), epsilon=1).holds


def test_roshambo_costs_enter_utilities():
    game = build_roshambo_game()
    assert comp_expected_utility(game, ("uniform", "const0")) == (-2, -1)
    assert comp_expected_utility(game, ("uniform", "uniform")) == (-2, -2)


def test_zero_cost_reduction_matches_plain_nash():
    free = zeroed_complexity(build_roshambo_game())
    table = induced_machine_game(free)
    ids_product = list(itertools.product(
        [m.id for m in free.spaces[0]], [m.id for m in free.spaces[1]]))
    assert len(ids_product) == 16
    for ids in ids_product:
        direct = is_machine_nash(free, ids).holds
        reduced = is_nash(table, MixedProfile.pure(table, ids)).holds
        assert direct == reduced


def test_exhaustive_respects_work_bound():
    game = build_roshambo_game()
    with pytest.raises(WorkBoundExceeded):
        exhaustive_machine_equilibria(game, work_bound=15)
    with pytest.raises(WorkBoundExceeded):
        induced_machine_game(game, work_bound=15)


def test_is_prime_spot_checks():
    assert _is_prime(2)
    assert _is_prime(3)
    assert _is_prime(11)
    assert _is_prime(7919)
    assert _is_prime(2305843009213693951)
    assert not _is_prime(0)
    assert not _is_prime(1)
    assert not _is_prime(9)
    assert not _is_prime(3215031751)


def _strong_probable_prime(n, bases):
    """Miller-Rabin: True when odd n > 2 passes the strong test to every
    base."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_is_prime_matches_a_sieve():
    limit = 1 << 17
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for p in range(2, int(limit ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit, p)))
    assert [n for n in range(limit) if _is_prime(n)] == [
        n for n in range(limit) if sieve[n]]


def test_is_prime_at_the_witness_set_boundaries():
    # each is a strong pseudoprime to the first k prime bases, so it fools a
    # witness set that stops one range too early; 8321 = 53 * 157 has no
    # factor that trial division finds first
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23)
    for n, k in ((8321, 1), (1373653, 2), (25326001, 3), (3215031751, 4),
                 (3825123056546413051, 9)):
        assert _strong_probable_prime(n, small[:k])
        assert not _is_prime(n)
    for p in (2 ** 31 - 1, 4294967291, 1000000007, 2 ** 61 - 1, 2 ** 64 - 59):
        assert _is_prime(p)
    assert not _is_prime((2 ** 31 - 1) * 4294967291)


def test_primality_game_small():
    game = build_primality_game(4, F(1, 2))
    assert game.underlying.types == ((tuple(
        str(x) for x in range(8, 16)),))
    tester = comp_expected_utility(game, ("test_and_guess",))
    assert tester == (F(8),)
    safe = comp_expected_utility(game, ("always_safe",))
    assert safe == (F(1),)
    assert exhaustive_machine_equilibria(game) == [("test_and_guess",)]


def test_primality_cost_regimes():
    cheap = build_primality_game(4, 1)
    assert exhaustive_machine_equilibria(cheap) == [("test_and_guess",)]
    costly = build_primality_game(4, F(5, 2))
    assert exhaustive_machine_equilibria(costly) == [("always_safe",)]
    boundary = build_primality_game(4, F(9, 4))
    assert exhaustive_machine_equilibria(boundary) == [
        ("test_and_guess",), ("always_safe",)]


def test_primality_validation():
    with pytest.raises(InputError):
        build_primality_game(0, 1)
    with pytest.raises(InputError):
        build_primality_game(65, 1)
    with pytest.raises(WorkBoundExceeded):
        build_primality_game(16, 1, entry_bound=100)


def test_primality_guard_counts_utility_entries():
    with pytest.raises(WorkBoundExceeded,
                       match="^98304 utility entries exceed the bound 100$"):
        build_primality_game(16, 1, entry_bound=100)


def test_primality_rejects_bool_bit_length():
    with pytest.raises(InputError):
        build_primality_game(True, 1)


def test_one_shot_machine_validation():
    with pytest.raises(InputError):
        OneShotMachine("m", "deterministic",
                       {"t": {"a": F(1, 2), "b": F(1, 2)}}, {"t": 0})
    with pytest.raises(InputError):
        OneShotMachine("m", "randomized",
                       {"t": {"a": F(1, 2)}}, {"t": 0})
    with pytest.raises(InputError):
        OneShotMachine("m", "randomized",
                       {"t": {"a": 1}}, {"t": -1})
    with pytest.raises(InputError):
        OneShotMachine("m", "guessing", {"t": {"a": 1}}, {"t": 0})
    machine = OneShotMachine("m", "randomized",
                             {"t": {"a": F(1, 3), "b": F(2, 3)}}, {"t": 0})
    assert machine_action(machine, "t") == {"a": F(1, 3), "b": F(2, 3)}
    with pytest.raises(InputError):
        machine_action(machine, "u")


def test_computational_game_validation():
    roshambo = build_roshambo_game()
    with pytest.raises(InputError):
        ComputationalGame("one-shot", roshambo.spaces, underlying=None)
    with pytest.raises(InputError):
        roshambo.machine(0, "nope")
    with pytest.raises(InputError):
        comp_expected_utility(roshambo, ("const0",))
    with pytest.raises(InputError):
        is_machine_nash(roshambo, ("const0", "const0"), epsilon=-1)


def test_repeated_game_checks_automaton_outputs_when_built():
    # player 0 has no D: tit_for_tat is the first machine, in space order,
    # with an output outside its player's stage actions (all_d is next)
    stage = NormalFormGame(
        ("row", "col"), (("C", "x"), ("C", "D")),
        {key: (F(0), F(0)) for key in itertools.product(range(2), repeat=2)})
    names = ("all_c", "tit_for_tat", "all_d")
    want = "automaton tit_for_tat: action 'D' not in the stage game"
    space = library_space(names, 3)
    with pytest.raises(InputError) as info:
        ComputationalGame("repeated", (space, space),
                          repeated_spec=RepeatedGameSpec(stage, 3, DELTA, 0))
    assert str(info.value) == want
    with pytest.raises(InputError) as info:
        build_repeated_dilemma_game(3, DELTA, COST, space_names=names,
                                    stage=stage)
    assert str(info.value) == want


# --- exact kernel, memoised enumeration and trusted construction ----------

def _reference_comp_utility(game, machine_ids):
    """One-shot machine-profile utility as a plain Fraction loop: every
    term is multiplied and added as a Fraction."""
    profile = game.profile(machine_ids)
    under = game.underlying
    n = under.n_players
    totals = [F(0)] * n
    for tprofile, p in under.prior.items():
        supports = []
        for i, machine in enumerate(profile):
            dist = machine.act[under.types[i][tprofile[i]]]
            supports.append([
                (under.actions[i].index(a), q) for a, q in dist.items() if q != 0
            ])
        costs = [
            profile[i].complexity[under.types[i][tprofile[i]]] for i in range(n)
        ]
        for combo in itertools.product(*supports):
            prob = p
            for _, q in combo:
                prob *= q
            vec = under.utilities[(tprofile, tuple(a for a, _ in combo))]
            for i in range(n):
                totals[i] += prob * (vec[i] - costs[i])
    return tuple(totals)


def _reference_repeated_utility(game, machine_ids):
    """Repeated-mode machine-profile utility: the Fraction reference run
    minus memory_cost * n_states for each charged player."""
    spec = game.repeated_spec
    profile = game.profile(machine_ids)
    gross = _reference_run_automata(spec, *profile)
    return tuple(
        value - (spec.memory_cost * machine.n_states if charged else 0)
        for value, machine, charged in zip(gross, profile, game.charged))


def _reference_deviation(game, ids, eps=0):
    """The first switch gaining more than eps as (better machine, utility
    before, utility after, gain), or None; every utility computed afresh."""
    utility = (_reference_comp_utility if game.mode == "one-shot"
               else _reference_repeated_utility)
    base = utility(game, ids)
    for i in range(game.n_players):
        for machine in game.spaces[i]:
            if machine.id == ids[i]:
                continue
            trial = ids[:i] + (machine.id,) + ids[i + 1:]
            value = utility(game, trial)[i]
            if value > base[i] + eps:
                return (machine.id, base[i], value, value - base[i])
    return None


def _profiles(game):
    return list(itertools.product(
        *(tuple(m.id for m in space) for space in game.spaces)))


def _random_one_shot_game(rng):
    """A random_bayesian_game under 1-3 randomized machines per player with
    fractional (sometimes zero) weights and fractional costs."""
    under = random_bayesian_game(rng)
    spaces = []
    for types, actions in zip(under.types, under.actions):
        spaces.append(tuple(
            OneShotMachine(
                f"m{m}", "randomized",
                {t: dict(zip(actions, random_distribution(rng, len(actions))))
                 for t in types},
                {t: F(rng.randint(0, 9), rng.randint(1, 5)) for t in types})
            for m in range(rng.randint(1, 3))))
    return ComputationalGame("one-shot", spaces, underlying=under)


def test_integer_kernel_matches_fraction_reference():
    rng = random.Random(2008)
    for _ in range(80):
        game = _random_one_shot_game(rng)
        for ids in _profiles(game):
            got = comp_expected_utility(game, ids)
            assert got == _reference_comp_utility(game, ids)
            assert all(type(v) is Fraction for v in got)
    for bits, cost in ((1, F(1, 2)), (6, F(5, 8)), (7, F(9, 7))):
        game = build_primality_game(bits, cost)
        for ids in _profiles(game):
            assert (comp_expected_utility(game, ids)
                    == _reference_comp_utility(game, ids))


def _count_utility_calls(monkeypatch):
    calls = []
    real = machines.comp_expected_utility

    def counted(game, machine_ids):
        calls.append(tuple(machine_ids))
        return real(game, machine_ids)

    monkeypatch.setattr(machines, "comp_expected_utility", counted)
    return calls


def test_enumeration_evaluates_each_profile_once(monkeypatch):
    calls = _count_utility_calls(monkeypatch)
    primality = build_primality_game(6, F(1, 2))
    assert exhaustive_machine_equilibria(primality) == [("test_and_guess",)]
    assert len(calls) == 2
    assert sorted(calls) == sorted(_profiles(primality))
    calls.clear()
    roshambo = build_roshambo_game()
    assert exhaustive_machine_equilibria(roshambo) == []
    assert len(calls) == 16
    assert sorted(calls) == sorted(_profiles(roshambo))
    calls.clear()
    dilemma = build_repeated_dilemma_game(10, DELTA, COST)
    exhaustive_machine_equilibria(dilemma)
    assert sorted(calls) == sorted(_profiles(dilemma))


def test_memoised_enumeration_keeps_verdicts_and_witnesses():
    games = (
        build_roshambo_game(),
        zeroed_complexity(build_roshambo_game()),
        build_repeated_dilemma_game(10, DELTA, COST),
        build_repeated_dilemma_game(10, DELTA, COST, charged=(True, False)),
    )
    frozen = (
        [],
        [("uniform", "uniform")],
        [("all_d", "all_d"), ("tit_for_tat", "tit_for_tat"),
         ("tit_for_tat", "grim"), ("grim", "tit_for_tat"), ("grim", "grim")],
        [("all_d", "all_d")],
    )
    for game, want in zip(games, frozen):
        found = exhaustive_machine_equilibria(game)
        assert found == want
        holding = []
        for ids in _profiles(game):
            verdict = is_machine_nash(game, ids)
            deviation = _reference_deviation(game, ids)
            if deviation is None:
                assert verdict.holds
                holding.append(ids)
                continue
            data = verdict.witness.data
            assert (data["better_machine"], data["utility_before"],
                    data["utility_after"], data["gain"]) == deviation
        assert found == holding
    roshambo = is_machine_nash(games[0], ("uniform", "const0")).witness.data
    assert roshambo["better_machine"] == "const0"
    assert (roshambo["utility_before"], roshambo["utility_after"],
            roshambo["gain"]) == (-2, -1, 1)
    dilemma = is_machine_nash(games[2], ("tit_for_tat", "all_c")).witness.data
    assert dilemma["better_machine"] == "all_d"
    assert dilemma["utility_before"] == F(173856821173, 10000000000)
    assert dilemma["utility_after"] == F(58218940391, 2000000000)
    assert dilemma["gain"] == F(58618940391, 5000000000)


def test_enumeration_rejects_bad_epsilon():
    with pytest.raises(InputError):
        exhaustive_machine_equilibria(build_roshambo_game(), epsilon=-1)
    with pytest.raises(InputError):
        exhaustive_machine_equilibria(build_roshambo_game(), epsilon=0.5)


def test_enumeration_matches_reference_scan():
    rng = random.Random(1998)
    for _ in range(40):
        game = _random_one_shot_game(rng)
        for eps in (0, F(1, 10)):
            assert exhaustive_machine_equilibria(game, eps) == [
                ids for ids in _profiles(game)
                if _reference_deviation(game, ids, eps) is None]
            for ids in _profiles(game):
                verdict = is_machine_nash(game, ids, eps)
                deviation = _reference_deviation(game, ids, eps)
                assert verdict.holds == (deviation is None)
                if deviation is not None:
                    data = verdict.witness.data
                    assert (data["better_machine"], data["utility_before"],
                            data["utility_after"], data["gain"]) == deviation


def test_enumeration_bound_counts_machine_profiles_only():
    roshambo = build_roshambo_game()
    # a (1, 3) space: the profile count is 3, while a coalition guard
    # over players x largest space would count 6
    narrow = ComputationalGame(
        "one-shot", (roshambo.spaces[0][:1], roshambo.spaces[1][:3]),
        underlying=roshambo.underlying)
    assert exhaustive_machine_equilibria(narrow, work_bound=3) == [
        ("const0", "const1")]
    with pytest.raises(WorkBoundExceeded,
                       match="^3 machine profiles exceed the bound 2$"):
        exhaustive_machine_equilibria(narrow, work_bound=2)
    # the profile bound is checked before epsilon
    with pytest.raises(WorkBoundExceeded,
                       match="^16 machine profiles exceed the bound 1$"):
        exhaustive_machine_equilibria(roshambo, epsilon=-1, work_bound=1)


def test_trusted_induced_game_matches_validated_build():
    rng = random.Random(2010)
    games = [_random_one_shot_game(rng) for _ in range(10)] + [
        build_roshambo_game(), build_primality_game(5, F(1, 2)),
        build_repeated_dilemma_game(6, DELTA, COST, charged=(True, False))]
    for game in games:
        induced = induced_machine_game(game)
        validated = NormalFormGame(
            induced.players, induced.actions, induced.payoffs)
        assert vars(induced) == vars(validated)
        assert all(type(v) is Fraction
                   for vec in induced.payoffs.values() for v in vec)


@pytest.mark.parametrize("bit_length", range(1, 11))
def test_trusted_primality_build_matches_validated_parse(bit_length):
    for cost_per_bit in (F(1, 2), F(5, 8), F(9, bit_length)):
        built = build_primality_game(bit_length, cost_per_bit)
        parsed = parse_document(serialize_document(built)).value
        assert (built.mode, built.repeated_spec, built.charged) == (
            parsed.mode, parsed.repeated_spec, parsed.charged)
        assert vars(built.underlying) == vars(parsed.underlying)
        under = built.underlying
        assert all(type(q) is Fraction for q in under.prior.values())
        assert all(type(v) is Fraction
                   for vec in under.utilities.values() for v in vec)
        assert len(built.spaces) == len(parsed.spaces) == 1
        assert len(built.spaces[0]) == len(parsed.spaces[0]) == 2
        for mine, theirs in zip(built.spaces[0], parsed.spaces[0]):
            assert vars(mine) == vars(theirs)
            assert all(type(c) is Fraction
                       for c in mine.complexity.values())


# --- integer kernel for discounted automaton runs ---------------------------

def _reference_run_automata(spec, first, second):
    """Discounted payoff pair of one run as a plain Fraction loop: each
    round multiplies the weight by the discount and adds weight * payoff."""
    acts1, acts2 = spec.stage.actions
    s1, s2 = first.initial, second.initial
    totals = [F(0), F(0)]
    weight = F(1)
    for _ in range(spec.rounds):
        a1 = first.output[s1]
        a2 = second.output[s2]
        if a1 not in acts1:
            raise InputError(
                f"automaton {first.id}: action {a1!r} not in the stage game")
        if a2 not in acts2:
            raise InputError(
                f"automaton {second.id}: action {a2!r} not in the stage game")
        pay = spec.stage.payoffs[(acts1.index(a1), acts2.index(a2))]
        weight *= spec.discount
        totals[0] += weight * pay[0]
        totals[1] += weight * pay[1]
        s1, s2 = first.step(s1, a2), second.step(s2, a1)
    return tuple(totals)


def _random_stage(rng):
    """A 2x2 or 2x3 stage game with negative and fractional payoffs."""
    shape = rng.choice(((2, 2), (2, 3), (3, 2)))
    actions = tuple(tuple(f"{side}{k}" for k in range(size))
                    for side, size in zip("xy", shape))
    payoffs = {
        key: tuple(F(rng.randint(-20, 20), rng.randint(1, 9))
                   for _ in range(2))
        for key in itertools.product(*(range(size) for size in shape))
    }
    return NormalFormGame(("row", "col"), actions, payoffs)


def _random_automaton(rng, machine_id, own, other):
    """2-4 states with a complete transition table over the opponent's
    actions."""
    states = tuple(f"q{k}" for k in range(rng.randint(2, 4)))
    return RepeatedGameAutomaton(
        machine_id, states, rng.choice(states),
        {s: rng.choice(own) for s in states},
        {(s, a): rng.choice(states) for s in states for a in other})


def _random_discount(rng):
    """Small, large and prime denominators."""
    q = rng.choice((10, 101, 997, 7919, 65536, 10 ** 9 + 7, 10 ** 12,
                    2 ** 61 - 1))
    return F(rng.randint(1, q - 1), q)


def test_run_automata_kernel_matches_fraction_reference():
    rng = random.Random(2008)
    for _ in range(200):
        stage = _random_stage(rng)
        acts1, acts2 = stage.actions
        spec = RepeatedGameSpec(stage, rng.randint(1, 60),
                                _random_discount(rng), 0)
        first = _random_automaton(rng, "first", acts1, acts2)
        second = _random_automaton(rng, "second", acts2, acts1)
        got = run_automata(spec, first, second)
        assert got == _reference_run_automata(spec, first, second)
        assert all(type(v) is Fraction for v in got)


def _error_messages(spec, first, second):
    messages = []
    for run in (run_automata, _reference_run_automata):
        with pytest.raises(InputError) as info:
            run(spec, first, second)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    return messages[0]


def test_run_automata_errors_match_the_reference():
    stage = default_stage_game()
    tft = tit_for_tat()
    # cooperates once, then plays an action the stage game lacks
    for bad in ("X", ["C"]):
        rogue = RepeatedGameAutomaton(
            "rogue", ("a", "b"), "a", {"a": "C", "b": bad},
            {("a", "C"): "b", ("a", "D"): "b", ("b", "C"): "b",
             ("b", "D"): "b"})
        assert (run_automata(RepeatedGameSpec(stage, 1, DELTA, 0), rogue, tft)
                == (DELTA * 3, DELTA * 3))
        spec = RepeatedGameSpec(stage, 2, DELTA, 0)
        assert _error_messages(spec, rogue, tft) == (
            f"automaton rogue: action {bad!r} not in the stage game")
        assert _error_messages(spec, tft, rogue) == (
            f"automaton rogue: action {bad!r} not in the stage game")
    # knows no move on D; the opponent defects from round 2 on, so the
    # missing transition is reached when leaving round 2, the last round
    naive = RepeatedGameAutomaton(
        "naive", ("a",), "a", {"a": "C"}, {("a", "C"): "a"})
    turn = RepeatedGameAutomaton(
        "turn", ("x", "y"), "x", {"x": "C", "y": "D"},
        {("x", "C"): "y", ("x", "D"): "y", ("y", "C"): "y", ("y", "D"): "y"})
    one = RepeatedGameSpec(stage, 1, DELTA, 0)
    assert (run_automata(one, naive, turn)
            == _reference_run_automata(one, naive, turn))
    two = RepeatedGameSpec(stage, 2, DELTA, 0)
    want = "automaton naive: no transition from state 'a' on opponent action 'D'"
    assert _error_messages(two, naive, turn) == want
    assert _error_messages(two, turn, naive) == want


# tit_for_tat_threshold(d / 101, 1 / 10**e, 25) as (symmetric, asymmetric)
# for e = 1..6, frozen from the Fraction loop
THRESHOLD_GRID = {
    55: ((4, 4), (7, 7), (10, 10), (13, 13), (16, 16), (20, 20)),
    60: ((4, 5), (7, 8), (11, 11), (15, 15), (18, 19), (23, 23)),
    65: ((5, 5), (8, 8), (12, 13), (17, 17), (21, 22), (None, None)),
    70: ((5, 6), (9, 10), (14, 14), (20, 20), (25, 25), (None, None)),
    75: ((6, 6), (11, 11), (17, 17), (23, 24), (None, None), (None, None)),
    80: ((6, 7), (13, 13), (20, 21), (None, None), (None, None),
         (None, None)),
    85: ((7, 8), (16, 16), (None, None), (None, None), (None, None),
         (None, None)),
    90: ((9, 10), (21, 21), (None, None), (None, None), (None, None),
         (None, None)),
    95: ((12, 12), (None, None), (None, None), (None, None), (None, None),
         (None, None)),
}


def test_threshold_grid_frozen_values():
    for d, row in THRESHOLD_GRID.items():
        for e, want in enumerate(row, start=1):
            for n_max in (10, 25):
                report = tit_for_tat_threshold(F(d, 101), F(1, 10 ** e), n_max)
                # a scan up to n_max finds the same least N when N <= n_max
                assert (report.symmetric, report.asymmetric) == tuple(
                    n if n is not None and n <= n_max else None for n in want)


# --- repeated mode in integers, and the one-validation threshold scan -------

def _random_repeated_game(rng, charged):
    """A random stage and discount, a fractional (sometimes zero) memory
    cost, and 1-3 random automata per player."""
    stage = _random_stage(rng)
    acts1, acts2 = stage.actions
    cost = rng.choice((0, F(rng.randint(1, 9), rng.randint(1, 7))))
    spec = RepeatedGameSpec(stage, rng.randint(1, 25), _random_discount(rng),
                            cost)
    spaces = tuple(
        tuple(_random_automaton(rng, f"m{k}", own, other)
              for k in range(rng.randint(1, 3)))
        for own, other in ((acts1, acts2), (acts2, acts1)))
    return ComputationalGame("repeated", spaces, repeated_spec=spec,
                             charged=charged)


def test_repeated_utilities_and_switches_match_fraction_reference():
    rng = random.Random(1985)
    outcomes = set()
    for _ in range(40):
        for charged in ((True, True), (True, False)):
            game = _random_repeated_game(rng, charged)
            for ids in _profiles(game):
                got = comp_expected_utility(game, ids)
                assert got == _reference_repeated_utility(game, ids)
                assert all(type(v) is Fraction for v in got)
                for eps in (0, F(1, 7)):
                    verdict = is_machine_nash(game, ids, eps)
                    deviation = _reference_deviation(game, ids, eps)
                    outcomes.add(deviation is None)
                    if deviation is None:
                        assert verdict.holds
                        continue
                    data = verdict.witness.data
                    assert (data["better_machine"], data["utility_before"],
                            data["utility_after"], data["gain"]) == deviation
                    assert all(type(data[k]) is Fraction for k in
                               ("utility_before", "utility_after", "gain"))
    assert outcomes == {True, False}


def _naive_threshold(delta, cost, n_max, names, stage, eps):
    """Both least horizons from a validated game at every N, checked with
    the Fraction reference."""
    asym = tuple(names)
    if "retaliating_defect_last" not in asym:
        asym += ("retaliating_defect_last",)

    def least(names, charged, profile):
        for rounds in range(1, n_max + 1):
            game = build_repeated_dilemma_game(
                rounds, delta, cost, names, charged, stage)
            if _reference_deviation(game, profile, eps) is None:
                return rounds
        return None

    return (least(names, (True, True), ("tit_for_tat", "tit_for_tat")),
            least(asym, (True, False),
                  ("tit_for_tat", "retaliating_defect_last")))


def _random_dilemma_stage(rng):
    """A C/D stage: the dilemma's payoffs moved by random fractions, or
    entirely random fractional payoffs."""
    base = {(0, 0): (3, 3), (0, 1): (-5, 5), (1, 0): (5, -5), (1, 1): (-3, -3)}
    spread = rng.choice((1, 20))
    payoffs = {
        key: tuple(v * (spread == 1) + F(rng.randint(-spread, spread),
                                         rng.randint(1, 9)) for v in vec)
        for key, vec in base.items()
    }
    return NormalFormGame(("p1", "p2"), (("C", "D"), ("C", "D")), payoffs)


def test_threshold_scan_matches_naive_scan():
    rng = random.Random(1986)
    others = ("all_c", "all_d", "grim", "defect_last")
    found = set()
    for k in range(48):
        names = list(rng.sample(others, rng.randint(0, 4)))
        if k % 2:
            names.append("retaliating_defect_last")
        names.insert(rng.randint(0, len(names)), "tit_for_tat")
        stage = _random_dilemma_stage(rng)
        delta = F(rng.randint(51, 99), 101)
        cost = rng.choice((0, F(1, 10), F(rng.randint(1, 9), 1000)))
        eps = rng.choice((0, 0, F(1, 7), F(1, 50)))
        n_max = rng.randint(1, 12)
        report = tit_for_tat_threshold(delta, cost, n_max, tuple(names),
                                       stage, eps)
        want = _naive_threshold(delta, cost, n_max, names, stage, eps)
        assert (report.symmetric, report.asymmetric) == want
        found.update(n is not None and n > 1 for n in want)
    assert found == {True, False}


def _stage(actions, players=("p1", "p2")):
    return NormalFormGame(players, actions, {
        key: (F(1),) * len(players)
        for key in itertools.product(*(range(len(a)) for a in actions))})


@pytest.mark.parametrize("stage, names, epsilon, want", [
    (_stage((("C", "X"), ("C", "X"))), DEFAULT_NAMES, 0,
     "automaton all_d: action 'D' not in the stage game"),
    (_stage((("C", "X"), ("C", "X"))), ("tit_for_tat", "defect_last"), -1,
     "automaton tit_for_tat: action 'D' not in the stage game"),
    (_stage((("C", "D"), ("C", "X"))), DEFAULT_NAMES, 0,
     "automaton all_d: action 'D' not in the stage game"),
    (_stage((("C", "D"),) * 3, ("a", "b", "c")), DEFAULT_NAMES, 0,
     "repeated play needs a 2-player stage game"),
    (_stage((("C", "D"), ("C", "D"))), ("tit_for_tat", "bogus"), 0,
     "unknown library automaton 'bogus'"),
    (_stage((("C", "D"), ("C", "D"))), ("tit_for_tat", "tit_for_tat"), 0,
     "player index 0: duplicate machine ids in space"),
    (_stage((("C", "D"), ("C", "D"))), DEFAULT_NAMES, -1,
     "epsilon must be nonnegative"),
])
def test_threshold_scan_refuses_what_its_first_horizon_refuses(
        stage, names, epsilon, want):
    """The scan validates once; its messages and their order are those of
    the validating constructors at N = 1 followed by the epsilon check."""
    with pytest.raises(InputError) as info:
        tit_for_tat_threshold(DELTA, COST, 5, names, stage, epsilon)
    assert str(info.value) == want
    with pytest.raises(InputError) as info:
        game = build_repeated_dilemma_game(1, DELTA, COST, names,
                                           stage=stage)
        is_machine_nash(game, ("tit_for_tat", "tit_for_tat"), epsilon)
    assert str(info.value) == want


def test_threshold_scan_work_bound():
    # 55 horizon rounds times (1 + 2 * 4) + (1 + 2 * 5) profiles
    report = tit_for_tat_threshold(DELTA, COST, 10, work_bound=1100)
    assert (report.symmetric, report.asymmetric) == (9, 10)
    with pytest.raises(WorkBoundExceeded,
                       match="^1100 simulated rounds exceed the bound 1099$"):
        tit_for_tat_threshold(DELTA, COST, 10, work_bound=1099)
    # under the default bound n_max = 300 is allowed and 1000 is not
    report = tit_for_tat_threshold(DELTA, COST, 300)
    assert (report.symmetric, report.asymmetric) == (9, 10)
    with pytest.raises(WorkBoundExceeded) as info:
        tit_for_tat_threshold(DELTA, COST, 1000)
    assert (info.value.required, info.value.bound) == (10_010_000, 10_000_000)


def test_stage_tables_live_only_as_long_as_their_stage():
    gc.collect()
    stage = default_stage_game()
    assert stage is not default_stage_game()
    tit_for_tat_threshold(DELTA, COST, 12, stage=stage)
    assert stage in repeated._STAGE_TABLES
    del stage
    tit_for_tat_threshold(DELTA, COST, 12)
    gc.collect()
    assert len(repeated._STAGE_TABLES) == 0
