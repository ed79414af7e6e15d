import gc
import itertools
import random
from fractions import Fraction

import pytest

from _gen import random_one_shot_game
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
# values as_fraction refuses, with the type name its message gives
_NOT_RATIONAL = ((0.5, "float"), (True, "bool"), ("1/2", "str"), ([], "list"))


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
        build_primality_game(24, 1)


def test_primality_guard_counts_utility_entries():
    # 2^23 integers of 24 bits, three actions each
    with pytest.raises(
            WorkBoundExceeded,
            match="^25165824 utility entries exceed the bound 10000000$"):
        build_primality_game(24, 1)


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


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: OneShotMachine("", "randomized", {}, {}),
                 "machine id must be a nonempty string", id="empty-id"),
    *(pytest.param(
        lambda bad=bad: OneShotMachine(
            "m", "randomized", {"t": {"a": F(1, 2), "b": bad}}, {"t": 0}),
        f"machine m, type t, action b: expected an exact rational, got {kind}",
        id=f"weight-{kind}") for bad, kind in _NOT_RATIONAL),
    *(pytest.param(
        lambda bad=bad: OneShotMachine(
            "m", "randomized", {"t": {"a": 1}, "u": {"a": 1}},
            {"t": 0, "u": bad}),
        f"machine m, complexity of type u: expected an exact rational, "
        f"got {kind}", id=f"complexity-{kind}") for bad, kind in _NOT_RATIONAL),
    pytest.param(lambda: OneShotMachine(
                     "m", "randomized", {"t": {"a": 1}, "u": {"a": 1}},
                     {"t": -1, "u": 0.5}),
                 "machine m: negative complexity for type 't'",
                 id="complexity-order"),
    pytest.param(lambda: OneShotMachine(
                     "m", "randomized", {"t": {"a": 1}}, {"u": 0}),
                 "machine m: act and complexity must cover the same types",
                 id="type-cover"),
    pytest.param(lambda: build_roshambo_game(-1, 2),
                 "machine costs must be nonnegative", id="roshambo-det-cost"),
    pytest.param(lambda: build_roshambo_game(1, F(-1, 2)),
                 "machine costs must be nonnegative", id="roshambo-rand-cost"),
    pytest.param(lambda: build_primality_game(4, F(-1, 8)),
                 "cost_per_bit must be nonnegative", id="primality-cost"),
])
def test_one_shot_machine_refusals(build, message):
    with pytest.raises(InputError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("kind, bad, message", [
    ("randomized", {"a": F(1, 2)},
     "machine m: action weights for type 'u' must be nonnegative and sum "
     "to 1"),
    ("deterministic", {"a": F(1, 2), "b": F(1, 2)},
     "machine m: deterministic machines need a degenerate distribution for "
     "type 'u'"),
])
def test_a_bad_row_between_equal_rows_is_named(kind, bad, message):
    """Rows are checked once each, so the bad row is the only one checked
    after the first, and its own type is the one named."""
    with pytest.raises(InputError) as info:
        OneShotMachine("m", kind, {"t": {"a": 1}, "u": bad, "v": {"a": 1}},
                       dict.fromkeys("tuv", 0))
    assert str(info.value) == message


def test_equal_rows_get_their_own_dicts():
    machine = OneShotMachine("m", "randomized",
                             {"t": {"a": F(1, 2), "b": F(1, 2)},
                              "u": {"a": F(1, 2), "b": F(1, 2)}},
                             {"t": 0, "u": 0})
    assert machine.act["t"] == machine.act["u"]
    assert machine.act["t"] is not machine.act["u"]


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


def _mute(machine_id, act):
    return OneShotMachine(machine_id, "deterministic", act,
                          dict.fromkeys(act, 0))


@pytest.mark.parametrize("build, message", [
    pytest.param(
        lambda r, d: ComputationalGame("both", r.spaces,
                                       underlying=r.underlying),
        "mode must be one-shot or repeated", id="mode"),
    pytest.param(
        lambda r, d: ComputationalGame("one-shot", (r.spaces[0], ()),
                                       underlying=r.underlying),
        "player index 1: empty machine space", id="empty-space"),
    pytest.param(
        lambda r, d: ComputationalGame("one-shot", r.spaces[:1],
                                       underlying=r.underlying),
        "one machine space per player required", id="space-count"),
    pytest.param(
        lambda r, d: ComputationalGame("one-shot", (r.spaces[0], d.spaces[1]),
                                       underlying=r.underlying),
        "one-shot spaces must contain OneShotMachine values",
        id="automaton-in-one-shot"),
    pytest.param(
        lambda r, d: ComputationalGame("one-shot", ((_mute("m", {}),),
                                                    r.spaces[1]),
                                       underlying=r.underlying),
        "machine m: no action for type '-' of player p1", id="missing-type"),
    pytest.param(
        lambda r, d: ComputationalGame(
            "one-shot", (r.spaces[0], (_mute("m", {"-": {"3": 1}}),)),
            underlying=r.underlying),
        "machine m: action '3' not in the underlying game",
        id="unknown-action"),
    pytest.param(
        lambda r, d: ComputationalGame("repeated", d.spaces),
        "repeated mode needs a RepeatedGameSpec", id="no-spec"),
    pytest.param(
        lambda r, d: ComputationalGame("repeated", d.spaces * 2,
                                       repeated_spec=d.repeated_spec),
        "repeated mode is 2-player", id="space-pairs"),
    pytest.param(
        lambda r, d: ComputationalGame("repeated", (d.spaces[0], r.spaces[1]),
                                       repeated_spec=d.repeated_spec),
        "repeated spaces must contain automata", id="one-shot-in-repeated"),
    pytest.param(
        lambda r, d: ComputationalGame("repeated", d.spaces,
                                       repeated_spec=d.repeated_spec,
                                       charged=(True,)),
        "charged must be a pair of booleans", id="charged-length"),
    pytest.param(
        lambda r, d: ComputationalGame("repeated", d.spaces,
                                       repeated_spec=d.repeated_spec,
                                       charged=(1, 0)),
        "charged must be a pair of booleans", id="charged-ints"),
    pytest.param(
        lambda r, d: ComputationalGame("repeated", d.spaces,
                                       repeated_spec=d.repeated_spec,
                                       charged=5),
        "charged must be a pair of booleans", id="charged-int"),
    pytest.param(
        lambda r, d: ComputationalGame("repeated", d.spaces,
                                       repeated_spec=d.repeated_spec,
                                       charged=None),
        "charged must be a pair of booleans", id="charged-none"),
    pytest.param(
        lambda r, d: build_repeated_dilemma_game(3, DELTA, COST, charged=5),
        "charged must be a pair of booleans", id="builder-charged-int"),
])
def test_computational_game_refusals(build, message):
    roshambo = build_roshambo_game()
    dilemma = build_repeated_dilemma_game(3, DELTA, COST)
    with pytest.raises(InputError) as info:
        build(roshambo, dilemma)
    assert str(info.value) == message


def _automaton(**changes):
    args = dict(machine_id="x", states=("s",), initial="s",
                output={"s": "C"}, transition={("s", "C"): "s"})
    args.update(changes)
    return RepeatedGameAutomaton(**args)


def _spec(**changes):
    args = dict(stage=default_stage_game(), rounds=3, discount=DELTA,
                memory_cost=COST)
    args.update(changes)
    return RepeatedGameSpec(**args)


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: _automaton(machine_id=""),
                 "automaton id must be a nonempty string", id="empty-id"),
    pytest.param(lambda: _automaton(states=()),
                 "automaton x: states must be nonempty and unique",
                 id="no-states"),
    pytest.param(lambda: _automaton(states=("s", "s")),
                 "automaton x: states must be nonempty and unique",
                 id="duplicate-states"),
    pytest.param(lambda: _automaton(initial="z"),
                 "automaton x: unknown initial state 'z'", id="initial"),
    pytest.param(lambda: _automaton(output={}),
                 "automaton x: no output for state 's'", id="output"),
    pytest.param(lambda: _automaton(transition={("s",): "s"}),
                 "automaton x: bad transition key ('s',)",
                 id="transition-key"),
    pytest.param(lambda: _automaton(transition={("s", "C"): "z"}),
                 "automaton x: transition to unknown state 'z'",
                 id="transition-target"),
    pytest.param(lambda: _automaton(transition={("s", "C"): []}),
                 "automaton x: transition to unknown state []",
                 id="unhashable-target"),
    pytest.param(lambda: _spec(rounds=0),
                 "rounds must be a positive integer", id="rounds-zero"),
    pytest.param(lambda: _spec(rounds=True),
                 "rounds must be a positive integer", id="rounds-bool"),
    pytest.param(lambda: _spec(discount=1),
                 "discount must lie strictly between 0 and 1", id="discount"),
    pytest.param(lambda: _spec(memory_cost=-1),
                 "memory_cost must be nonnegative", id="memory-cost"),
    pytest.param(lambda: _spec(stage="x"),
                 "repeated play needs a NormalFormGame stage",
                 id="stage-not-a-game"),
    pytest.param(lambda: library_space((["x"],), 3),
                 "unknown library automaton ['x']", id="unhashable-name"),
    pytest.param(lambda: library_space(None, 3),
                 "the machine space must be a sequence of names",
                 id="names-not-iterable"),
    pytest.param(lambda: build_repeated_dilemma_game(
                     3, DELTA, COST, ("tit_for_tat", ["x"])),
                 "unknown library automaton ['x']",
                 id="dilemma-unhashable-name"),
    pytest.param(lambda: library_space("all_c", 3),
                 "the machine space must be a sequence of names",
                 id="names-a-string"),
    pytest.param(lambda: build_repeated_dilemma_game(
                     3, DELTA, COST, space_names="all_c"),
                 "the machine space must be a sequence of names",
                 id="dilemma-names-a-string"),
])
def test_repeated_constructor_refusals(build, message):
    with pytest.raises(InputError) as info:
        build()
    assert str(info.value) == message


def test_zeroed_complexity_frees_memory_in_repeated_mode():
    game = build_repeated_dilemma_game(3, DELTA, COST, charged=(True, False))
    free = zeroed_complexity(game)
    spec = free.repeated_spec
    assert (spec.stage, spec.rounds, spec.discount, spec.memory_cost) == (
        game.repeated_spec.stage, 3, DELTA, 0)
    assert (free.mode, free.spaces, free.charged) == (
        "repeated", game.spaces, (True, False))
    ids = ("tit_for_tat", "all_d")
    assert comp_expected_utility(free, ids) == run_automata(
        spec, *free.profile(ids))


class OddC(str):
    """Equal to "C", but hashing unlike it."""
    __hash__ = lambda self: 12345


def test_actions_equal_to_stage_actions_must_hash_like_them():
    odd = RepeatedGameAutomaton("odd", ("s",), "s", {"s": OddC("C")},
                                {("s", "C"): "s", ("s", "D"): "s"})
    spec = RepeatedGameSpec(default_stage_game(), 2, DELTA, 0)
    want = ("automata odd and tit_for_tat: actions ('C', 'C') equal stage "
            "actions but do not hash like them")
    with pytest.raises(InputError) as info:
        run_automata(spec, odd, tit_for_tat())
    assert str(info.value) == want
    game = ComputationalGame("repeated", ((odd,), (tit_for_tat(),)),
                             repeated_spec=spec)
    with pytest.raises(InputError) as info:
        comp_expected_utility(game, ("odd", "tit_for_tat"))
    assert str(info.value) == want
    # an action outside the stage game is still named first
    rogue = RepeatedGameAutomaton("rogue", ("s",), "s", {"s": "X"},
                                  {("s", "C"): "s", ("s", "D"): "s"})
    with pytest.raises(InputError) as info:
        run_automata(spec, odd, rogue)
    assert str(info.value) == (
        "automaton rogue: action 'X' not in the stage game")


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


def test_integer_kernel_matches_fraction_reference():
    rng = random.Random(2008)
    for _ in range(80):
        game = random_one_shot_game(rng)
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
        game = random_one_shot_game(rng)
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
    games = [random_one_shot_game(rng) for _ in range(10)] + [
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
    ("x", DEFAULT_NAMES, 0, "repeated play needs a NormalFormGame stage"),
    (_stage((("C", "D"), ("C", "D"))), ("tit_for_tat", ["x"]), 0,
     "unknown library automaton ['x']"),
    (_stage((("C", "D"), ("C", "D"))), None, 0,
     "the machine space must be a sequence of names"),
    (_stage((("C", "D"), ("C", "D"))), "tit_for_tat", 0,
     "the machine space must be a sequence of names"),
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


def test_threshold_scan_builds_no_witness(monkeypatch):
    """A failing horizon only asks whether the profile holds."""
    def refuse(*args, **kwargs):
        raise AssertionError("the threshold scan built a witness")

    monkeypatch.setattr(machines, "_gain_verdict", refuse)
    report = tit_for_tat_threshold(DELTA, COST, 100)
    assert (report.symmetric, report.asymmetric) == (9, 10)


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


# --- run cursors: one stepping loop, carried from horizon N to N + 1 ------

def _reference_run_totals(spec, first, second):
    """The round loop before run cursors, kept verbatim."""
    acts1, acts2 = spec.stage.actions
    p, q = spec.discount.numerator, spec.discount.denominator
    scale, scaled = repeated._stage_table(spec.stage)
    out1, out2 = first.output, second.output
    step1, step2 = first.transition, second.transition
    s1, s2 = first.initial, second.initial
    total1 = total2 = 0
    weight = 1
    for _ in range(spec.rounds):
        a1, a2 = out1[s1], out2[s2]
        try:
            v1, v2 = scaled[a1, a2]
        except (KeyError, TypeError):
            for machine, action, acts in ((first, a1, acts1),
                                          (second, a2, acts2)):
                if action not in acts:
                    raise InputError(
                        f"automaton {machine.id}: action {action!r} not in "
                        f"the stage game") from None
            raise InputError(
                f"automata {first.id} and {second.id}: actions ({a1!r}, "
                f"{a2!r}) equal stage actions but do not hash like them"
            ) from None
        weight *= p
        total1 = total1 * q + weight * v1
        total2 = total2 * q + weight * v2
        try:
            s1, s2 = step1[s1, a2], step2[s2, a1]
        except KeyError:
            # step raises the InputError naming the missing transition
            s1, s2 = first.step(s1, a2), second.step(s2, a1)
    return total1, total2, q ** spec.rounds * scale


def _rough_automaton(rng, machine_id, own, other):
    """_random_automaton with, sometimes, transitions dropped and an
    output outside the stage game (hashable or not)."""
    machine = _random_automaton(rng, machine_id, own, other)
    output, transition = dict(machine.output), dict(machine.transition)
    if rng.random() < 0.3:
        output[rng.choice(machine.states)] = rng.choice(("X", ["C"]))
    for key in rng.sample(sorted(transition), rng.randint(0, 2)):
        del transition[key]
    return RepeatedGameAutomaton(machine_id, machine.states, machine.initial,
                                 output, transition)


def _outcome(run):
    try:
        return run()
    except InputError as error:
        return str(error)


def test_run_cursors_match_the_reference_round_loop():
    """_run_totals, and a cursor moved on in random legs, give the old
    loop's totals, or its first error."""
    rng = random.Random(1985_2008)
    outcomes = set()
    for k in range(300):
        stage = _random_dilemma_stage(rng) if k % 2 else _random_stage(rng)
        acts1, acts2 = stage.actions
        spec = RepeatedGameSpec(stage, rng.randint(1, 60),
                                _random_discount(rng), 0)
        first = _rough_automaton(rng, "first", acts1, acts2)
        second = _rough_automaton(rng, "second", acts2, acts1)
        want = _outcome(lambda: _reference_run_totals(spec, first, second))
        outcomes.add(type(want))
        assert _outcome(lambda: repeated._run_totals(spec, first, second)) \
            == want

        def legs():
            advance = repeated._stepper(spec)
            cursor, left = (first.initial, second.initial, 0, 0, 1, 0), \
                spec.rounds
            while left:
                leg = rng.randint(1, left)
                cursor = advance(first, second, cursor, leg)
                left -= leg
            assert cursor[5] == spec.rounds
            return (*cursor[2:4], spec.discount.denominator ** spec.rounds
                    * repeated._stage_table(stage)[0])

        assert _outcome(legs) == want
    assert outcomes == {tuple, str}


def test_round_counters_run_as_their_base_until_the_last_round():
    """The ROUND_COUNTERS identity: against any opponent, a counter's run at
    horizon N is its base's run over N - 1 rounds, then round N stepped
    from the counter's state states[N - 1]."""
    rng = random.Random(1985)
    cd = ("C", "D")
    stages = [default_stage_game()] + [_random_dilemma_stage(rng)
                                       for _ in range(3)]
    for rounds in range(1, 61):
        spec = RepeatedGameSpec(rng.choice(stages), rounds,
                                _random_discount(rng), 0)
        advance = repeated._stepper(spec)
        library = library_space(tuple(repeated.AUTOMATON_LIBRARY), rounds)
        others = library + tuple(_random_automaton(rng, f"m{k}", cd, cd)
                                 for k in range(4))
        for counter in library:
            if counter.id not in repeated.ROUND_COUNTERS:
                continue
            for other in others:
                for pair in ((counter, other), (other, counter)):
                    start = tuple(m.initial for m in pair) + (0, 0, 1, 0)
                    whole = advance(*pair, start, rounds)
                    bases = tuple(
                        repeated.AUTOMATON_LIBRARY[
                            repeated.ROUND_COUNTERS[m.id]](rounds)
                        if m.id in repeated.ROUND_COUNTERS else m
                        for m in pair)
                    start = tuple(m.initial for m in bases) + (0, 0, 1, 0)
                    s1, s2, *sums = advance(*bases, start, rounds - 1)
                    states = tuple(
                        m.states[rounds - 1]
                        if m.id in repeated.ROUND_COUNTERS else s
                        for m, s in zip(pair, (s1, s2)))
                    assert advance(*pair, states + tuple(sums), 1) == whole


def test_threshold_scan_steps_linearly_many_rounds(monkeypatch):
    """Each pair's run is carried from one horizon to the next, so the
    300-horizon scan steps a few thousand rounds; restarting every run
    at every horizon stepped 451,492."""
    stepped = []
    stepper = machines._stepper

    def counted(spec):
        advance = stepper(spec)

        def count(first, second, cursor, rounds):
            stepped.append(rounds)
            return advance(first, second, cursor, rounds)
        return count

    def refuse(*args):
        raise AssertionError("the threshold scan restarted a run")

    monkeypatch.setattr(machines, "_stepper", counted)
    monkeypatch.setattr(machines, "_run_totals", refuse)
    report = tit_for_tat_threshold(F(99, 100), F(1, 10 ** 6), 300)
    assert (report.symmetric, report.asymmetric) == (None, None)
    assert sum(stepped) <= 15 * 300


def test_threshold_scan_builds_each_machine_once(monkeypatch):
    """Every library machine is built once in its 1-round form, besides the
    validating build at N = 1, and the rounds stepped are those of the
    scan that built both round counters at every horizon."""
    calls = dict.fromkeys(repeated.AUTOMATON_LIBRARY, 0)
    for name, make in repeated.AUTOMATON_LIBRARY.items():
        def counted(rounds, name=name, make=make):
            calls[name] += 1
            return make(rounds)
        monkeypatch.setitem(repeated.AUTOMATON_LIBRARY, name, counted)
    stepped = []
    stepper = machines._stepper

    def counted_steps(spec):
        advance = stepper(spec)

        def count(first, second, cursor, rounds):
            stepped.append(rounds)
            return advance(first, second, cursor, rounds)
        return count

    monkeypatch.setattr(machines, "_stepper", counted_steps)
    report = tit_for_tat_threshold(F(99, 100), F(1, 10 ** 6), 300)
    assert (report.symmetric, report.asymmetric) == (None, None)
    assert sum(stepped) == 4191
    assert calls == {"all_c": 2, "all_d": 2, "tit_for_tat": 2, "grim": 2,
                     "defect_last": 2, "retaliating_defect_last": 1}
    calls.update(dict.fromkeys(calls, 0))
    report = tit_for_tat_threshold(F(99, 100), F(1, 10 ** 6), 300,
                                   tuple(calls))
    assert (report.symmetric, report.asymmetric) == (None, None)
    assert calls == dict.fromkeys(calls, 2)


def test_round_counters_play_round_n_in_their_one_round_form():
    """The other half of the ROUND_COUNTERS identity: round N stepped with
    a counter's 1-round form, from its initial state and the base pair's
    cursor at N - 1, gives the N-round run's totals and the opponent's
    state; the N-round counter has N - 1 more states than that form."""
    rng = random.Random(1985_1)
    cd = ("C", "D")
    stages = [default_stage_game()] + [_random_dilemma_stage(rng)
                                       for _ in range(3)]
    library = repeated.AUTOMATON_LIBRARY
    short = {name: make(1) for name, make in library.items()}
    for rounds in range(1, 61):
        spec = RepeatedGameSpec(rng.choice(stages), rounds,
                                _random_discount(rng), 0)
        advance = repeated._stepper(spec)
        others = library_space(tuple(library), rounds) + tuple(
            _random_automaton(rng, f"m{k}", cd, cd) for k in range(4))
        for name in repeated.ROUND_COUNTERS:
            counter = library[name](rounds)
            assert counter.n_states == short[name].n_states + rounds - 1
            for other in others:
                for pair in ((counter, other), (other, counter)):
                    start = tuple(m.initial for m in pair) + (0, 0, 1, 0)
                    whole = advance(*pair, start, rounds)
                    bases = tuple(
                        library[repeated.ROUND_COUNTERS[m.id]](rounds)
                        if m.id in repeated.ROUND_COUNTERS else m
                        for m in pair)
                    start = tuple(m.initial for m in bases) + (0, 0, 1, 0)
                    s1, s2, *sums = advance(*bases, start, rounds - 1)
                    forms = tuple(short[m.id]
                                  if m.id in repeated.ROUND_COUNTERS else m
                                  for m in pair)
                    states = tuple(
                        f.initial if f is not m else s
                        for f, m, s in zip(forms, pair, (s1, s2)))
                    last = advance(*forms, states + tuple(sums), 1)
                    assert last[2:] == whole[2:]
                    for seat, m in enumerate(pair):
                        if m.id not in repeated.ROUND_COUNTERS:
                            assert last[seat] == whole[seat]
