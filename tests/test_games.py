import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from _gen import random_bayesian_game
from eqcheck.basim import PROTOCOLS, build_preference_bayes_game
from eqcheck.catalog import (bargaining_game, matching_pennies,
                             prisoners_dilemma, zero_one_game)
from eqcheck.errors import InputError, WorkBoundExceeded
from eqcheck.games import (ZERO, BayesianGame, BayesianStrategyProfile,
                           MixedProfile, NormalFormGame, _check_epsilon,
                           _subset_choices, bayes_expected_utility, best_response_value,
                           expected_utility, is_bayes_nash, is_nash)
from eqcheck.machines import build_repeated_dilemma_game, induced_machine_game
from eqcheck.robustness import utilities_under_joint_deviation
from eqcheck.verdicts import Verdict, Witness

F = Fraction


def coin_game():
    # one player, two actions worth 3 and 7
    return NormalFormGame(("solo",), (("a", "b"),), {(0,): (3,), (1,): (7,)})


def test_expected_utility_single_player_mix():
    game = coin_game()
    profile = MixedProfile(((F(1, 2), F(1, 2)),))
    assert expected_utility(game, profile) == (F(5),)


def test_mixed_profile_validation():
    game = coin_game()
    with pytest.raises(InputError):
        MixedProfile(((F(1, 2), F(1, 3)),))
    with pytest.raises(InputError):
        MixedProfile(((F(3, 2), F(-1, 2)),))
    with pytest.raises(InputError):
        MixedProfile.pure(game, ("a", "b"))
    with pytest.raises(InputError):
        expected_utility(game, MixedProfile(((F(1), F(0), F(0)),)))


def test_pure_profile_rejects_bool_actions():
    game = prisoners_dilemma()
    assert MixedProfile.pure(game, (1, 0)).weights == (
        (F(0), F(1)), (F(1), F(0)))
    with pytest.raises(InputError):
        MixedProfile.pure(game, (True, False))


def test_profile_constructors_agree():
    game = prisoners_dilemma()
    by_name = MixedProfile.pure(game, ("C", "D"))
    by_index = MixedProfile.pure(game, (0, 1))
    by_map = MixedProfile.from_mapping(
        game, {"p1": {"C": 1}, "p2": {"D": 1}})
    assert by_name.weights == by_index.weights == by_map.weights
    with pytest.raises(InputError):
        MixedProfile.from_mapping(game, {"p1": {"C": 1}})
    with pytest.raises(InputError):
        MixedProfile.pure(game, ("C", "X"))


def test_subset_choices_matches_binomial_sum():
    for n in range(1, 7):
        for size in range(0, n + 2):
            for choices in range(0, 5):
                assert _subset_choices(n, size, choices) == sum(
                    math.comb(n, s) * choices ** s
                    for s in range(1, size + 1))


def _reference_subset_choices(n, max_size, choices):
    """The term loop: C(n, s) * choices^s summed upward from s = 1."""
    term, total = 1, 0
    for s in range(1, max_size + 1):
        term = term * (n - s + 1) * choices // s
        total += term
    return total


def test_subset_choices_complement_matches_term_loop():
    """Past n / 2 the count is summed from its complement; both halves
    of every size range, and sizes past n, give the term loop's int."""
    for n in range(0, 41):
        for size in range(0, n + 3):
            for choices in range(0, 6):
                assert _subset_choices(n, size, choices) == (
                    _reference_subset_choices(n, size, choices)), (
                    n, size, choices)
    for n, size in ((1000, 501), (1000, 999), (1001, 501), (1001, 500)):
        assert _subset_choices(n, size, 4) == _reference_subset_choices(
            n, size, 4)


def test_profile_mapping_refuses_unknown_players_and_bad_rows():
    game = prisoners_dilemma()
    with pytest.raises(InputError, match="unknown player 'p9'"):
        MixedProfile.from_mapping(
            game, {"p1": {"C": 1}, "p2": {"D": 1}, "p9": {"C": 1}})
    with pytest.raises(InputError, match=r"profile\[p1\]: expected a mapping"):
        MixedProfile.from_mapping(game, {"p1": [1, 0], "p2": {"D": 1}})


def test_zero_one_all_zero_is_nash():
    game = zero_one_game(3)
    profile = MixedProfile.pure(game, ("0", "0", "0"))
    assert expected_utility(game, profile) == (1, 1, 1)
    assert is_nash(game, profile).holds


def test_prisoners_dilemma_verdicts():
    game = prisoners_dilemma()
    assert is_nash(game, MixedProfile.pure(game, ("D", "D"))).holds
    verdict = is_nash(game, MixedProfile.pure(game, ("C", "C")))
    assert not verdict.holds
    w = verdict.witness
    assert w.kind == "unilateral-deviation"
    assert w.data["player"] == "p1"
    assert w.data["action"] == "D"
    assert w.data["utility_before"] == 3
    assert w.data["utility_after"] == 5
    assert w.data["gain"] == 2


def test_epsilon_softens_the_dilemma():
    game = prisoners_dilemma()
    cc = MixedProfile.pure(game, ("C", "C"))
    assert is_nash(game, cc, epsilon=2).holds
    assert not is_nash(game, cc, epsilon=F(1)).holds
    assert not is_nash(game, cc, epsilon=F(199, 100)).holds
    with pytest.raises(InputError):
        is_nash(game, cc, epsilon=-1)


def test_matching_pennies_uniform():
    game = matching_pennies()
    uniform = MixedProfile.uniform(game)
    assert is_nash(game, uniform).holds
    assert best_response_value(game, "p1", uniform) == 0
    assert best_response_value(game, 1, uniform) == 0
    assert not is_nash(game, MixedProfile.pure(game, ("H", "H"))).holds
    # a bool is not a player index, though isinstance(True, int) holds
    for player in ("p9", True, False, 2, -1):
        with pytest.raises(InputError, match="unknown player id"):
            best_response_value(game, player, uniform)


def test_bargaining_all_stay_is_nash():
    game = bargaining_game(5)
    profile = MixedProfile.pure(game, ("stay",) * 5)
    assert expected_utility(game, profile) == (2,) * 5
    assert is_nash(game, profile).holds


def two_type_game():
    """One informed player whose action is only right for one type."""
    prior = {(0,): F(1, 2), (1,): F(1, 2)}
    utilities = {
        ((0,), (0,)): (4,), ((0,), (1,)): (0,),
        ((1,), (0,)): (0,), ((1,), (1,)): (2,),
    }
    return BayesianGame(
        ("solo",), (("low", "high"),), (("x", "y"),), prior, utilities)


def test_bayes_expected_utility_mean():
    game = two_type_game()
    profile = BayesianStrategyProfile.pure(game, (("x", "y"),))
    assert bayes_expected_utility(game, profile) == (F(3),)
    assert is_bayes_nash(game, profile).holds


def test_bayes_nash_per_type_witness():
    game = two_type_game()
    wrong = BayesianStrategyProfile.pure(game, (("x", "x"),))
    verdict = is_bayes_nash(game, wrong)
    assert not verdict.holds
    w = verdict.witness
    assert w.kind == "type-deviation"
    assert w.data["type"] == "high"
    assert w.data["action"] == "y"
    assert w.data["gain"] == 1


def test_bayes_zero_probability_type_is_skipped():
    # the second type never occurs, so any behavior there is fine
    prior = {(0,): F(1)}
    utilities = {
        ((0,), (0,)): (1,), ((0,), (1,)): (0,),
        ((1,), (0,)): (0,), ((1,), (1,)): (10,),
    }
    game = BayesianGame(
        ("solo",), (("seen", "never"),), (("x", "y"),), prior, utilities)
    profile = BayesianStrategyProfile.pure(game, (("x", "x"),))
    assert is_bayes_nash(game, profile).holds


def test_bayesian_game_validation():
    with pytest.raises(InputError):
        BayesianGame(("solo",), (("t",),), (("x",),),
                     {(0,): F(1, 2)}, {((0,), (0,)): (1,)})
    with pytest.raises(InputError):
        BayesianGame(("solo",), (("t",),), (("x", "y"),),
                     {(0,): F(1)}, {((0,), (0,)): (1,)})
    with pytest.raises(InputError):
        BayesianStrategyProfile.pure(two_type_game(), (("x",),))


@pytest.mark.parametrize("weights, message", [
    ([[[F(-1), F(2)]]],
     "strategy of player index 0, type index 0: negative weight"),
    ([[[F(1, 2), F(1, 3)]]],
     "strategy of player index 0, type index 0: weights do not sum to 1"),
    ([], "profile has 0 players, game has 1"),
    ([[[1, 0]]], "player solo: profile covers 1 types, game has 2"),
    ([[[1], [1]]],
     "player solo, type low: profile has 1 weights for 2 actions"),
], ids=["negative", "sum", "players", "types", "actions"])
def test_bayes_profile_refusals(weights, message):
    """The profile's own checks, then _bayes_rows' shape checks against
    the game."""
    with pytest.raises(InputError) as info:
        bayes_expected_utility(two_type_game(),
                               BayesianStrategyProfile(weights))
    assert str(info.value) == message


def _solo_table(**changes):
    """A one-player, two-action NormalFormGame's arguments, with changes."""
    args = dict(players=("solo",), actions=(("a", "b"),),
                payoffs={(0,): (F(1),), (1,): (F(2),)})
    args.update(changes)
    return args


def _two_type_args(**changes):
    """two_type_game's constructor arguments, with changes."""
    game = two_type_game()
    args = dict(players=game.players, types=game.types, actions=game.actions,
                prior=dict(game.prior), utilities=dict(game.utilities))
    args.update(changes)
    return args


@pytest.mark.parametrize("cls, args, message", [
    pytest.param(NormalFormGame, _solo_table(actions=()),
                 "actions: expected one action list per player",
                 id="action-lists"),
    pytest.param(NormalFormGame, _solo_table(payoffs=[(F(1),), (F(2),)]),
                 "payoffs: expected a mapping from action profiles",
                 id="payoffs-mapping"),
    pytest.param(NormalFormGame, _solo_table(payoffs={(0,): (F(1),)}),
                 "payoffs: table has 1 entries, needs exactly 2",
                 id="payoffs-count"),
    pytest.param(NormalFormGame,
                 _solo_table(payoffs={(0,): (F(1), F(1)), (1,): (F(2),)}),
                 "payoffs[(0,)]: expected 1 payoffs, got "
                 "(Fraction(1, 1), Fraction(1, 1))", id="payoffs-length"),
    pytest.param(NormalFormGame,
                 _solo_table(payoffs={(0,): F(1), (1,): (F(2),)}),
                 "payoffs[(0,)]: expected 1 payoffs, got Fraction(1, 1)",
                 id="payoffs-vector"),
    pytest.param(BayesianGame, _two_type_args(types=()),
                 "types: expected one list per player", id="type-lists"),
    pytest.param(BayesianGame,
                 _two_type_args(prior={(0,): F(-1, 2), (1,): F(3, 2)}),
                 "prior[(0,)]: negative probability", id="prior-negative"),
    pytest.param(BayesianGame,
                 _two_type_args(utilities={((0,), (0,)): (F(4),)}),
                 "utilities: table has 1 entries, needs 4",
                 id="utilities-count"),
    pytest.param(BayesianGame, _two_type_args(utilities={
                     ((0,), (0,)): (F(4),), ((0,), (1,)): (F(0),),
                     ((1,), (0,)): (F(0),), ((1,),): (F(2),)}),
                 "utilities: bad key ((1,),)", id="utilities-key"),
    pytest.param(BayesianGame, _two_type_args(utilities={
                     ((0,), (0,)): (F(4),), ((0,), (1,)): (F(0),),
                     ((1,), (0,)): (F(0),), ((1, 0), (1,)): (F(2),)}),
                 "utilities: bad key ((1, 0), (1,))", id="utilities-key-width"),
    pytest.param(BayesianGame, _two_type_args(utilities={
                     ((0,), (0,)): (F(4),), ((0,), (1,)): (F(0),),
                     ((1,), (0,)): (F(0),), ((1,), (1,)): (F(2), F(2))}),
                 "utilities[((1,), (1,))]: expected 1 payoffs",
                 id="utilities-length"),
])
def test_table_shape_refusals(cls, args, message):
    with pytest.raises(InputError) as info:
        cls(**args)
    assert str(info.value) == message


@pytest.mark.parametrize("builder", [zero_one_game, bargaining_game])
@pytest.mark.parametrize("n, kind", [
    (3.0, "float"), ("3", "str"), (None, "NoneType"), (True, "bool")])
def test_catalog_builders_refuse_non_int_player_counts(builder, n, kind):
    with pytest.raises(InputError) as info:
        builder(n)
    assert str(info.value) == (
        f"{builder.__name__} needs an integer player count, got {kind}")
    with pytest.raises(InputError) as info:
        builder(1)
    assert str(info.value) == f"{builder.__name__} needs at least 2 players"


@pytest.mark.parametrize("builder", [zero_one_game, bargaining_game])
def test_catalog_builders_keep_the_entry_bound(builder):
    """The builders skip NormalFormGame's checks, so they run its entry
    bound themselves, before any payoff is built."""
    with pytest.raises(WorkBoundExceeded) as info:
        builder(24)
    assert str(info.value) == (
        "16777216 payoff entries exceed the bound 10000000")


@pytest.mark.parametrize("choice, message", [
    (-1, "player solo: action index -1 out of range"),
    (2, "player solo: action index 2 out of range"),
    (True, "player solo: unknown action True"),
    ("z", "player solo: unknown action 'z'"),
], ids=["negative", "past-the-end", "bool", "unknown-name"])
def test_pure_bayes_profile_resolves_choices_like_mixed(choice, message):
    """A choice is an action name or an in-range int index, never a bool,
    for Bayesian and normal-form pure profiles alike."""
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        BayesianStrategyProfile.pure(two_type_game(), (("x", choice),))
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        MixedProfile.pure(
            NormalFormGame(("solo",), (("x", "y"),), {(0,): (0,), (1,): (1,)}),
            (choice,))
    assert BayesianStrategyProfile.pure(two_type_game(), ((1, "x"),)).weights \
        == (((F(0), F(1)), (F(1), F(0))),)


@pytest.mark.parametrize("bad", ["0", 0.0, False], ids=repr)
@pytest.mark.parametrize("table", ["payoffs", "prior", "utility-types",
                                   "utility-actions"])
def test_table_keys_are_in_range_int_indices(table, bad):
    """Every index in a payoff, prior or utility key is an int, not a bool,
    within its list; the bad key is named in the same message as before."""
    if table == "payoffs":
        payoffs = {(1,): (F(1),), (bad,): (F(0),)}
        with pytest.raises(InputError, match=re.escape(
                f"payoffs: bad action profile key {(bad,)!r}")):
            NormalFormGame(("solo",), (("x", "y"),), payoffs)
        return
    game = two_type_game()
    prior, utilities = dict(game.prior), dict(game.utilities)
    if table == "prior":
        del prior[(0,)]
        prior[(bad,)] = F(1, 2)
        message = f"prior: bad type profile key {(bad,)!r}"
    else:
        del utilities[((0,), (0,))]
        key = ((bad,), (0,)) if table == "utility-types" else ((0,), (bad,))
        utilities[key] = (F(4),)
        kind = "type" if table == "utility-types" else "action"
        message = f"utilities: bad {kind} profile in key {key!r}"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        BayesianGame(game.players, game.types, game.actions, prior,
                     utilities)


class _Half(Fraction):
    """A Fraction subclass, which the constructors keep as given."""


@pytest.mark.parametrize("bad, kind", [
    (0.5, "float"), (True, "bool"), ("1", "str"), (None, "NoneType"),
], ids=repr)
def test_refused_payoff_values_are_named(bad, kind):
    """A payoff or utility value that is not an int or Fraction is refused
    with the entry (and, for payoffs, the player) that holds it."""
    payoffs = {key: (F(1), F(2)) for key in itertools.product(range(2), repeat=2)}
    payoffs[(0, 1)] = (F(1), bad)
    message = f"payoffs[(0, 1)][p2]: expected an exact rational, got {kind}"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        NormalFormGame(("p1", "p2"), (("a", "b"), ("c", "d")), payoffs)
    game = two_type_game()
    utilities = dict(game.utilities)
    utilities[((0,), (0,))] = (bad,)
    message = f"utilities[((0,), (0,))]: expected an exact rational, got {kind}"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        BayesianGame(game.players, game.types, game.actions, game.prior,
                     utilities)


def test_fraction_subclass_payoffs_are_kept_as_given():
    half = _Half(1, 2)
    game = NormalFormGame(("solo",), (("x", "y"),), {(0,): (half,), (1,): (1,)})
    assert game.payoffs[(0,)][0] is half
    utilities = {((t,), (a,)): (half,) for t in (0, 1) for a in (0, 1)}
    bayes = BayesianGame(("solo",), (("low", "high"),), (("x", "y"),),
                         {(0,): half, (1,): half}, utilities)
    assert bayes.utilities[((1,), (1,))][0] is half


def test_follow_mediator_is_bayes_nash():
    """Following the relay protocol survives all library deviations when the
    general's preference is private."""
    game = build_preference_bayes_game(4, PROTOCOLS["mediator"])
    choices = tuple(
        tuple("follow" for _ in types) for types in game.types)
    profile = BayesianStrategyProfile.pure(game, choices)
    assert bayes_expected_utility(game, profile) == (1, 1, 1, 1)
    assert is_bayes_nash(game, profile).holds


# --- integer utility kernel against the plain Fraction loop ------------------

DENOMINATORS = (1, 2, 3, 7, 1_000_000_007)


def _reference_support(profile):
    return [[(a, w) for a, w in enumerate(row) if w != 0]
            for row in profile.weights]


def _reference_support_utilities(game, support):
    """Expected payoff vector over (action, weight) rows as a plain
    Fraction multiply-add loop."""
    totals = [F(0)] * game.n_players
    for combo in itertools.product(*support):
        prob = F(1)
        for _, w in combo:
            prob *= w
        vec = game.payoffs[tuple(a for a, _ in combo)]
        for i in range(game.n_players):
            totals[i] += prob * vec[i]
    return tuple(totals)


def _reference_after(game, profile, deviators, joint):
    support = _reference_support(profile)
    for i, a in zip(deviators, joint):
        support[i] = [(a, F(1))]
    return _reference_support_utilities(game, support)


def _reference_nash_data(game, profile):
    """None, or the witness data of the first improving (player, action)."""
    base = _reference_support_utilities(game, _reference_support(profile))
    for i in range(game.n_players):
        for a in range(len(game.actions[i])):
            value = _reference_after(game, profile, (i,), (a,))[i]
            if value > base[i]:
                return {"player": game.players[i],
                        "action": game.actions[i][a],
                        "utility_before": base[i], "utility_after": value,
                        "gain": value - base[i]}
    return None


def _exact(got, want):
    assert got == want
    assert all(type(v) is Fraction for v in got)


def _random_payoff_game(rng):
    n = rng.randint(1, 4)
    actions = tuple(tuple(f"a{k}" for k in range(rng.randint(1, 3)))
                    for _ in range(n))
    payoffs = {
        key: tuple(F(rng.choice((0, rng.randint(-30, 30))),
                     rng.choice(DENOMINATORS)) for _ in range(n))
        for key in itertools.product(*(range(len(a)) for a in actions))}
    return NormalFormGame(tuple(f"p{i}" for i in range(n)), actions, payoffs)


def _random_mixed_profile(game, rng):
    rows = []
    for acts in game.actions:
        parts = [F(rng.choice((0, rng.randint(1, 9))), rng.choice(DENOMINATORS))
                 for _ in acts]
        if not any(parts):
            parts[rng.randrange(len(parts))] = F(1)
        rows.append(tuple(p / sum(parts) for p in parts))
    return MixedProfile(rows)


def _compare_with_reference(game, profile):
    _exact(expected_utility(game, profile),
           _reference_support_utilities(game, _reference_support(profile)))
    for i in range(game.n_players):
        want = max(_reference_after(game, profile, (i,), (a,))[i]
                   for a in range(len(game.actions[i])))
        got = best_response_value(game, i, profile)
        _exact((got,), (want,))
    verdict = is_nash(game, profile)
    data = _reference_nash_data(game, profile)
    assert verdict.holds == (data is None)
    if data is not None:
        assert verdict.witness.data == data
        assert all(type(verdict.witness.data[key]) is Fraction
                   for key in ("utility_before", "utility_after", "gain"))
    for size in (1, 2):
        for group in itertools.combinations(range(game.n_players), size):
            for joint in itertools.product(
                    *(range(len(game.actions[i])) for i in group)):
                _exact(utilities_under_joint_deviation(
                           game, profile, group, joint),
                       _reference_after(game, profile, group, joint))


def test_int_kernel_matches_fraction_loop():
    """Random 1-4 player games mixing payoff denominators and signs, under
    profiles with non-uniform, zero and pure rows."""
    rng = random.Random(8008)
    for _ in range(60):
        game = _random_payoff_game(rng)
        profiles = [_random_mixed_profile(game, rng), MixedProfile.uniform(game),
                    MixedProfile.pure(game, tuple(
                        rng.randrange(len(a)) for a in game.actions))]
        for profile in profiles:
            _compare_with_reference(game, profile)


def test_int_kernel_on_a_trusted_induced_game():
    """induced_machine_game builds its NormalFormGame without __init__;
    the discounted payoffs have denominators up to 10**6."""
    game = induced_machine_game(build_repeated_dilemma_game(
        6, F(9, 10), F(1, 10), charged=(True, False)))
    rng = random.Random(77)
    for profile in (MixedProfile.uniform(game),
                    _random_mixed_profile(game, rng)):
        _compare_with_reference(game, profile)


# --- prior-weighted kernel against the plain Fraction loops ------------------
# The three functions below are the Fraction loops that _prior_sums replaced,
# copied verbatim apart from their names; the shape checks are left out, as
# every profile below is built for its game.

def _reference_action_support(game, profile, tprofile):
    return [
        [(a, w) for a, w in enumerate(profile.weights[i][tprofile[i]]) if w != 0]
        for i in range(game.n_players)
    ]


def _reference_bayes_expected_utility(game, profile):
    """Exact ex-ante expected utility vector."""
    totals = [ZERO] * game.n_players
    for tprofile, p in game.prior.items():
        for combo in itertools.product(
                *_reference_action_support(game, profile, tprofile)):
            prob = p
            for _, w in combo:
                prob *= w
            vec = game.utilities[(tprofile, tuple(a for a, _ in combo))]
            for i in range(game.n_players):
                totals[i] += prob * vec[i]
    return tuple(totals)


def _reference_is_bayes_nash(game, profile, epsilon=0):
    eps = _check_epsilon(epsilon)
    for i in range(game.n_players):
        for t in range(len(game.types[i])):
            relevant = [
                (tprofile, p) for tprofile, p in game.prior.items()
                if tprofile[i] == t
            ]
            if not relevant:
                continue
            gains = [ZERO] * len(game.actions[i])
            current = ZERO
            for tprofile, p in relevant:
                support = _reference_action_support(game, profile, tprofile)
                others = support[:i] + support[i + 1:]
                for combo in itertools.product(*others):
                    prob = p
                    for _, w in combo:
                        prob *= w
                    rest = [a for a, _ in combo]
                    for a in range(len(game.actions[i])):
                        akey = tuple(rest[:i] + [a] + rest[i:])
                        gains[a] += prob * game.utilities[(tprofile, akey)][i]
                    for a, w in support[i]:
                        akey = tuple(rest[:i] + [a] + rest[i:])
                        current += prob * w * game.utilities[(tprofile, akey)][i]
            for a in range(len(game.actions[i])):
                if gains[a] > current + eps:
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
                            "utility_after": gains[a],
                            "gain": gains[a] - current,
                        }))
    return Verdict(True)


def _random_bayes_profile(game, rng):
    """Per type, a row of fractional weights with some zeros."""
    weights = []
    for acts, types in zip(game.actions, game.types):
        rows = []
        for _ in types:
            parts = [F(rng.choice((0, rng.randint(1, 9))), rng.choice((1, 2, 7)))
                     for _ in acts]
            if not any(parts):
                parts[rng.randrange(len(parts))] = F(1)
            rows.append([p / sum(parts) for p in parts])
        weights.append(rows)
    return BayesianStrategyProfile(weights)


def _random_pure_bayes_profile(game, rng):
    return BayesianStrategyProfile.pure(game, [
        [rng.randrange(len(acts)) for _ in types]
        for acts, types in zip(game.actions, game.types)])


def _compare_with_bayes_reference(game, profile, seen):
    _exact(bayes_expected_utility(game, profile),
           _reference_bayes_expected_utility(game, profile))
    for eps in (0, F(1, 7)):
        got = is_bayes_nash(game, profile, eps)
        want = _reference_is_bayes_nash(game, profile, eps)
        assert got == want
        seen["holds" if got.holds else "fails"] += 1
        if not got.holds:
            assert all(type(got.witness.data[key]) is Fraction
                       for key in ("utility_before", "utility_after", "gain"))


def test_prior_kernel_matches_fraction_reference():
    """Random 1-3 player Bayesian games, with zero-probability type profiles
    and types of zero marginal, under mixed and pure profiles; and the
    agreement game's Bayesian table for both protocols."""
    rng = random.Random(2013)
    seen = dict.fromkeys(
        ("games", "players>1", "zero entry", "zero marginal", "holds",
         "fails"), 0)
    for _ in range(90):
        game = random_bayesian_game(rng)
        seen["games"] += 1
        seen["players>1"] += game.n_players > 1
        seen["zero entry"] += len(game.prior) < math.prod(map(len, game.types))
        seen["zero marginal"] += any(
            all(key[i] != t for key in game.prior)
            for i, types in enumerate(game.types) for t in range(len(types)))
        for profile in (_random_bayes_profile(game, rng),
                        _random_pure_bayes_profile(game, rng)):
            _compare_with_bayes_reference(game, profile, seen)
    for name in sorted(PROTOCOLS):
        game = build_preference_bayes_game(3, PROTOCOLS[name])
        follow = BayesianStrategyProfile.pure(
            game, [["follow"] * len(types) for types in game.types])
        profiles = [follow, _random_bayes_profile(game, rng)] + [
            _random_pure_bayes_profile(game, rng) for _ in range(20)]
        for profile in profiles:
            _compare_with_bayes_reference(game, profile, seen)
    assert min(seen.values()) >= 10, seen
