"""Games where players choose machines and complexity enters the utility.

Two modes share one checking interface:

* one-shot: each player picks a machine that maps their type to an action
  distribution and carries a declared complexity per type; utility is the
  underlying Bayesian payoff minus the player's own complexity charge.
* repeated: each player picks a finite automaton for a discounted repeated
  stage game; utility is the exact discounted payoff minus memory_cost
  times the automaton's state count (for players that are charged).

Complexity is always declared data, never measured.

A machine equilibrium is a Nash equilibrium of the induced machine game,
so exhaustive_machine_equilibria is that game's pure (1, 0) enumeration
(robustness._pure_robust); is_machine_nash and the threshold scan feed
unilateral machine switches (_switches) to games._first_gain, the one
deviation scan, and charge memory in _net_of_memory alone.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from .errors import InputError
from .games import (DEFAULT_ENTRY_BOUND, DEFAULT_WORK_BOUND, BayesianGame,
                    NormalFormGame, _check_epsilon, _first_gain,
                    _gain_verdict, _over_lcm, _prior_sums, _trusted,
                    bounded_product)
from .rationals import as_fraction
from .repeated import (AUTOMATON_LIBRARY, DEFAULT_SPACE, ROUND_COUNTERS,
                       RepeatedGameAutomaton, RepeatedGameSpec, _names,
                       _run_totals, _stage_table, _stepper,
                       default_stage_game, library_space)
from .robustness import _pure_robust
from .verdicts import Verdict

ZERO = Fraction(0)


class OneShotMachine:
    """A declared strategy: type -> action distribution, plus a complexity
    charge per type.

    kind is "deterministic" or "randomized"; deterministic machines must
    put probability 1 on a single action for every type.
    """

    def __init__(self, machine_id, kind, act, complexity):
        if not isinstance(machine_id, str) or not machine_id:
            raise InputError("machine id must be a nonempty string")
        if kind not in ("deterministic", "randomized"):
            raise InputError(
                f"machine {machine_id}: kind must be deterministic or randomized")
        self.id = machine_id
        self.kind = kind
        fixed_act = {}
        for t, dist in act.items():
            try:
                fixed = {a: as_fraction(q) for a, q in dist.items()}
            except InputError:  # refused again below, now with its name
                for a, q in dist.items():
                    as_fraction(q, f"machine {machine_id}, type {t}, action {a}")
            d, weights = _over_lcm(list(fixed.values()))
            if any(w < 0 for w in weights) or sum(weights) != d:
                raise InputError(
                    f"machine {machine_id}: action weights for type {t!r} "
                    f"must be nonnegative and sum to 1")
            if kind == "deterministic" and any(
                    w not in (0, d) for w in weights):
                raise InputError(
                    f"machine {machine_id}: deterministic machines need a "
                    f"degenerate distribution for type {t!r}")
            fixed_act[t] = fixed
        self.act = fixed_act
        fixed_cost = {}
        for t, c in complexity.items():
            try:
                c = as_fraction(c)
            except InputError:  # refused again, now with its name
                as_fraction(c, f"machine {machine_id}, complexity of type {t}")
            if c < 0:
                raise InputError(
                    f"machine {machine_id}: negative complexity for type {t!r}")
            fixed_cost[t] = c
        self.complexity = fixed_cost
        if set(self.act) != set(self.complexity):
            raise InputError(
                f"machine {machine_id}: act and complexity must cover the "
                f"same types")


def machine_action(machine: OneShotMachine, input_type):
    """The machine's action distribution on one input type."""
    if input_type not in machine.act:
        raise InputError(
            f"machine {machine.id}: no action declared for input {input_type!r}")
    return dict(machine.act[input_type])


class ComputationalGame:
    """A machine-choice game in one of the two supported modes."""

    def __init__(self, mode, spaces, underlying=None, repeated_spec=None,
                 charged=(True, True)):
        if mode not in ("one-shot", "repeated"):
            raise InputError("mode must be one-shot or repeated")
        self.mode = mode
        self.spaces = tuple(tuple(space) for space in spaces)
        for i, space in enumerate(self.spaces):
            if not space:
                raise InputError(f"player index {i}: empty machine space")
            ids = [m.id for m in space]
            if len(set(ids)) != len(ids):
                raise InputError(
                    f"player index {i}: duplicate machine ids in space")
        if mode == "one-shot":
            if not isinstance(underlying, BayesianGame):
                raise InputError("one-shot mode needs an underlying BayesianGame")
            if len(self.spaces) != underlying.n_players:
                raise InputError("one machine space per player required")
            for i, space in enumerate(self.spaces):
                for machine in space:
                    if not isinstance(machine, OneShotMachine):
                        raise InputError(
                            "one-shot spaces must contain OneShotMachine values")
                    missing = [
                        t for t in underlying.types[i] if t not in machine.act
                    ]
                    if missing:
                        raise InputError(
                            f"machine {machine.id}: no action for type "
                            f"{missing[0]!r} of player {underlying.players[i]}")
                    for t in underlying.types[i]:
                        for a in machine.act[t]:
                            if a not in underlying.actions[i]:
                                raise InputError(
                                    f"machine {machine.id}: action {a!r} not "
                                    f"in the underlying game")
            self.underlying = underlying
            self.repeated_spec = None
            self.charged = tuple(True for _ in self.spaces)
        else:
            if not isinstance(repeated_spec, RepeatedGameSpec):
                raise InputError("repeated mode needs a RepeatedGameSpec")
            if len(self.spaces) != 2:
                raise InputError("repeated mode is 2-player")
            for i, space in enumerate(self.spaces):
                for machine in space:
                    if not isinstance(machine, RepeatedGameAutomaton):
                        raise InputError(
                            "repeated spaces must contain automata")
                    for state in machine.states:
                        action = machine.output[state]
                        if action not in repeated_spec.stage.actions[i]:
                            raise InputError(
                                f"automaton {machine.id}: action {action!r} "
                                f"not in the stage game")
            self.underlying = None
            self.repeated_spec = repeated_spec
            if (not isinstance(charged, (tuple, list)) or len(charged) != 2
                    or any(not isinstance(c, bool) for c in charged)):
                raise InputError("charged must be a pair of booleans")
            self.charged = tuple(charged)

    @property
    def n_players(self):
        return len(self.spaces)

    @property
    def players(self):
        if self.mode == "one-shot":
            return self.underlying.players
        return self.repeated_spec.stage.players

    def machine(self, player_index, machine_id):
        for m in self.spaces[player_index]:
            if m.id == machine_id:
                return m
        raise InputError(
            f"player {self.players[player_index]}: no machine {machine_id!r} "
            f"in the declared space")

    def profile(self, machine_ids: Sequence[str]):
        if len(machine_ids) != self.n_players:
            raise InputError("expected one machine id per player")
        return tuple(
            self.machine(i, mid) for i, mid in enumerate(machine_ids))


def comp_expected_utility(game: ComputationalGame, machine_ids):
    """Exact expected utility vector of a machine profile: one-shot
    utilities are _one_shot_utilities, repeated ones _utility_ints over
    the run; both helpers take machines, not ids."""
    machines = game.profile(machine_ids)
    if game.mode == "one-shot":
        return _one_shot_utilities(game, machines)
    den, nums = _utility_ints(game, machines)
    return tuple(Fraction(v, den) for v in nums)


def _one_shot_utilities(game, machines):
    """games._prior_sums over the underlying Bayesian game, with each
    machine's rows and complexity charges built once per (player, type)."""
    under = game.underlying
    rows, charges = [], []
    for acts, types, machine in zip(under.actions, under.types, machines):
        index = {a: k for k, a in enumerate(acts)}
        rows.append([[(index[a], q.numerator, q.denominator)
                      for a, q in machine.act[t].items() if q] for t in types])
        charges.append(list(map(Fraction.as_integer_ratio,
                                map(machine.complexity.__getitem__, types))))
    return _prior_sums(under.utilities, under.prior.items(), rows, charges)


def _utility_ints(game, machines):
    """(den, numerators): a profile's utility vector as ints over den.  In
    repeated mode den is q^N * D times the memory cost's denominator, the
    same for every profile of the game."""
    if game.mode == "one-shot":
        return _over_lcm(_one_shot_utilities(game, machines))
    *totals, den = _run_totals(game.repeated_spec, *machines)
    return _net_of_memory(game.repeated_spec.memory_cost, game.charged,
                          [m.n_states for m in machines], totals, den)


def _net_of_memory(cost, charged, sizes, totals, den):
    """A repeated run's totals over den, less cost times each charged
    player's state count: (den times the cost's denominator, numerators)."""
    cn, cd = cost.as_integer_ratio()
    return den * cd, [total * cd - (cn * size * den if paid else 0)
                      for total, size, paid in zip(totals, sizes, charged)]


def repeated_payoffs(game: ComputationalGame, machines):
    """(discounted payoffs, utilities net of memory charges) of a
    repeated-mode profile of machines, as game.profile returns them, both
    from one run of its two automata: the first pair is run_automata's,
    the second comp_expected_utility's."""
    *totals, den = _run_totals(game.repeated_spec, *machines)
    net_den, nets = _net_of_memory(
        game.repeated_spec.memory_cost, game.charged,
        [m.n_states for m in machines], totals, den)
    return (tuple(Fraction(v, den) for v in totals),
            tuple(Fraction(v, net_den) for v in nets))


def _switches(spaces, profile, utility):
    """A machine profile's unilateral switches for games._first_gain, in
    the order of spaces: (player index, machine id, base, value),
    utility(machines) int pairs, each evaluated when the scan reaches it."""
    den, base = utility(profile)
    for i, space in enumerate(spaces):
        for machine in space:
            if machine.id != profile[i].id:
                d, value = utility(
                    profile[:i] + (machine,) + profile[i + 1:])
                yield i, machine.id, (base[i], den), (value[i], d)


def is_machine_nash(game: ComputationalGame, machine_ids, epsilon=0) -> Verdict:
    """No player gains more than epsilon by switching to another machine in
    their declared space.  Utilities stay ints over their denominators
    into games._first_gain; Fractions are built only for a witness."""
    eps = _check_epsilon(epsilon)
    ids = tuple(machine_ids)
    found = _first_gain(_switches(
        game.spaces, game.profile(ids),
        lambda machines: _utility_ints(game, machines)), eps)
    if found is None:
        return Verdict(True)
    i, better = found[:2]
    player = game.players[i]
    return _gain_verdict(
        found, "machine-deviation",
        f"player {player} gains by switching from {ids[i]} to {better}",
        player=player, machine=ids[i], better_machine=better)


def exhaustive_machine_equilibria(game: ComputationalGame, epsilon=0,
                                  work_bound=DEFAULT_WORK_BOUND):
    """All machine profiles passing is_machine_nash, in space order: the
    pure (1, 0)-robust profiles of the induced machine game, whose table
    evaluates each profile once.  work_bound caps the machine profiles.
    """
    bounded_product((len(space) for space in game.spaces), work_bound,
                    "machine profiles")
    eps = _check_epsilon(epsilon)
    table = induced_machine_game(game, work_bound)
    return [table.profile_names(key)
            for key in _pure_robust(table, 1, 0, eps, False)]


def induced_machine_game(game: ComputationalGame,
                         work_bound=DEFAULT_WORK_BOUND) -> NormalFormGame:
    """The strategic form over machine choices; payoffs are the exact
    machine-profile utilities (complexity charges included)."""
    bounded_product((len(space) for space in game.spaces), work_bound,
                    "machine profiles")
    actions = tuple(tuple(m.id for m in space) for space in game.spaces)
    payoffs = {}
    for key in itertools.product(*(range(len(a)) for a in actions)):
        ids = tuple(actions[i][a] for i, a in enumerate(key))
        payoffs[key] = comp_expected_utility(game, ids)
    return _trusted(NormalFormGame, players=game.players, actions=actions,
                    payoffs=payoffs)


def zeroed_complexity(game: ComputationalGame) -> ComputationalGame:
    """The same game with every complexity charge removed."""
    if game.mode == "repeated":
        free = _trusted(RepeatedGameSpec,
                        **{**vars(game.repeated_spec), "memory_cost": ZERO})
        return _trusted(ComputationalGame, **{**vars(game), "repeated_spec": free})
    spaces = tuple(tuple(
        _trusted(OneShotMachine, id=m.id, kind=m.kind,
                 act={t: dict(dist) for t, dist in m.act.items()},
                 complexity=dict.fromkeys(m.complexity, ZERO))
        for m in space) for space in game.spaces)
    return _trusted(ComputationalGame, **{**vars(game), "spaces": spaces})


# --- bundled one-shot machine games ---------------------------------------

def _roshambo_payoff(i, j):
    # +1 to the first player when i beats j under i == j + 1 (mod 3)
    if i == (j + 1) % 3:
        return 1
    if j == (i + 1) % 3:
        return -1
    return 0


def build_roshambo_game(deterministic_cost=1, randomized_cost=2):
    """Zero-sum cyclic guessing game where machine utility is the stage
    payoff minus the player's own machine cost.

    Space per player: three constant deterministic machines and the uniform
    randomized machine.  With costs (1, 2) no profile is an equilibrium:
    whoever runs the randomized machine can drop to a constant one and save
    the cost difference, and against a constant machine the winning
    constant reply gains outright.
    """
    det_cost = as_fraction(deterministic_cost, "deterministic_cost")
    rand_cost = as_fraction(randomized_cost, "randomized_cost")
    if det_cost < 0 or rand_cost < 0:
        raise InputError("machine costs must be nonnegative")
    players = ("p1", "p2")
    acts = ("0", "1", "2")
    utilities = {}
    for i in range(3):
        for j in range(3):
            v = _roshambo_payoff(i, j)
            utilities[((0, 0), (i, j))] = (Fraction(v), Fraction(-v))
    under = _trusted(
        BayesianGame, players=players, types=(("-",), ("-",)),
        actions=(acts, acts), prior={(0, 0): Fraction(1)},
        utilities=utilities)
    space = tuple(
        _trusted(OneShotMachine, id=f"const{value}", kind="deterministic",
                 act={"-": {str(value): Fraction(1)}},
                 complexity={"-": det_cost})
        for value in range(3)) + (
        _trusted(OneShotMachine, id="uniform", kind="randomized",
                 act={"-": {a: Fraction(1, 3) for a in acts}},
                 complexity={"-": rand_cost}),)
    return _trusted(ComputationalGame, mode="one-shot", spaces=(space, space),
                    underlying=under, repeated_spec=None, charged=(True, True))


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n):
    """Deterministic primality for 0 <= n < 2**64."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # deterministic witness sets: each bound is the least strong pseudoprime
    # to the bases used below it (Pomerance, Selfridge and Wagstaff 1980); the
    # full set covers 64 bits (Jiang and Deng 2014)
    witnesses = (_SMALL_PRIMES[:2] if n < 1_373_653
                 else _SMALL_PRIMES[:3] if n < 25_326_001
                 else _SMALL_PRIMES)
    for a in witnesses:
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


def build_primality_game(bit_length, cost_per_bit):
    """One player is shown an integer with exactly bit_length bits (uniform
    prior) and may call it prime, call it composite, or play safe.

    A correct call pays 10, a wrong one -10, safe pays 1.  The space holds
    a perfect tester charged cost_per_bit * bit_length and a free machine
    that always plays safe.  Testing is the unique equilibrium while its
    cost stays below 9; above 9 playing safe is.  The DEFAULT_ENTRY_BOUND
    guard runs before anything is built.
    """
    if (not isinstance(bit_length, int) or isinstance(bit_length, bool)
            or bit_length < 1):
        raise InputError("bit_length must be a positive integer")
    if bit_length > 64:
        raise InputError("bit_length above 64 is unsupported")
    cost = as_fraction(cost_per_bit, "cost_per_bit") * bit_length
    if cost < 0:
        raise InputError("cost_per_bit must be nonnegative")
    lo = 1 if bit_length == 1 else 1 << (bit_length - 1)
    hi = 1 << bit_length
    count = hi - lo
    bounded_product((count, 3), DEFAULT_ENTRY_BOUND, "utility entries")

    types = tuple(str(x) for x in range(lo, hi))
    actions = ("guess-prime", "guess-composite", "safe")
    one = Fraction(1)
    weight = Fraction(1, count)
    right, wrong, safe_payoff = (Fraction(10),), (Fraction(-10),), (one,)
    prior = {}
    utilities = {}
    test_act = {}
    for t, x in enumerate(range(lo, hi)):
        prime = _is_prime(x)
        key = (t,)
        prior[key] = weight
        utilities[(key, (0,))] = right if prime else wrong
        utilities[(key, (1,))] = wrong if prime else right
        utilities[(key, (2,))] = safe_payoff
        test_act[types[t]] = {
            ("guess-prime" if prime else "guess-composite"): one}
    under = _trusted(
        BayesianGame, players=("guesser",), types=(types,),
        actions=(actions,), prior=prior, utilities=utilities)
    tester = _trusted(
        OneShotMachine, id="test_and_guess", kind="deterministic",
        act=test_act, complexity=dict.fromkeys(types, cost))
    safe = _trusted(
        OneShotMachine, id="always_safe", kind="deterministic",
        act={t: {"safe": one} for t in types},
        complexity=dict.fromkeys(types, ZERO))
    return _trusted(
        ComputationalGame, mode="one-shot", spaces=((tester, safe),),
        underlying=under, repeated_spec=None, charged=(True,))


# --- repeated dilemma with memory charges ----------------------------------

def build_repeated_dilemma_game(rounds, discount, memory_cost,
                                space_names=DEFAULT_SPACE,
                                charged=(True, True), stage=None):
    """The discounted repeated dilemma as a machine-choice game over the
    named library automata (round-counting machines sized to `rounds`)."""
    if stage is None:
        stage = default_stage_game()
    spec = RepeatedGameSpec(stage, rounds, discount, memory_cost)
    space = library_space(space_names, rounds)
    return ComputationalGame(
        "repeated", (space, space), repeated_spec=spec, charged=charged)


class ThresholdReport:
    """Result of the round-count scan for the repeated dilemma.

    symmetric: least N in 1..n_max where (tit_for_tat, tit_for_tat) is an
    equilibrium with both players charged, or None.
    asymmetric: least N where (tit_for_tat, retaliating_defect_last) is an
    equilibrium when only the first player is charged for memory, or None.
    """

    def __init__(self, symmetric, asymmetric, n_max, discount, memory_cost):
        self.symmetric = symmetric
        self.asymmetric = asymmetric
        self.n_max = n_max
        self.discount = discount
        self.memory_cost = memory_cost


def tit_for_tat_threshold(discount, memory_cost, n_max,
                          space_names=DEFAULT_SPACE, stage=None,
                          epsilon=0,
                          work_bound=DEFAULT_WORK_BOUND) -> ThresholdReport:
    """Linear scan for the least round count at which mutual tit_for_tat
    survives its machine deviations: every N up to n_max is checked, and
    the least one that holds is returned.

    The last-round defection gain shrinks like 2 * discount^N while the
    round counter's memory surcharge grows linearly.  That the profile then
    holds at every longer N is observed (d/101 for d = 53..98, cost 1/10 to
    1/10^6, N <= 40), not proved.  The asymmetric scan charges only the
    first player and pairs tit_for_tat with the retaliating last-round
    defector.  Machines are built once, in their 1-round forms, and runs
    carried from N to N + 1 (see ROUND_COUNTERS): the rounds stepped grow
    linearly in n_max.  work_bound caps the rounds both scans would step
    if every run restarted.
    """
    delta = as_fraction(discount, "discount")
    if not (Fraction(1, 2) < delta < 1):
        raise InputError("discount must lie strictly between 1/2 and 1")
    cost = as_fraction(memory_cost, "memory_cost")
    if cost < 0:
        raise InputError("memory_cost must be nonnegative")
    if not isinstance(n_max, int) or isinstance(n_max, bool) or n_max < 1:
        raise InputError("n_max must be a positive integer")
    space_names = _names(space_names)
    if "tit_for_tat" not in space_names:
        raise InputError("the machine space must include tit_for_tat")
    asym_names = space_names
    if "retaliating_defect_last" not in asym_names:
        asym_names += ("retaliating_defect_last",)
    # each horizon N runs 1 + sum_i (|space_i| - 1) profiles of N rounds
    bounded_product((n_max * (n_max + 1) // 2,
                     2 * len(space_names) + 2 * len(asym_names) - 2),
                    work_bound, "simulated rounds")
    if stage is None:
        stage = default_stage_game()
    # the caller's stage meets every library action at N = 1
    spec = build_repeated_dilemma_game(1, delta, cost, space_names,
                                       (True, True), stage).repeated_spec
    eps = _check_epsilon(epsilon)
    step = _stepper(spec)
    machines = {name: make(1) for name, make in AUTOMATON_LIBRARY.items()}
    base_of = {name: machines[ROUND_COUNTERS.get(name, name)]
               for name in AUTOMATON_LIBRARY}
    q, scale = delta.denominator, _stage_table(stage)[0]
    runs = {}  # pair of fixed machines -> its cursors after m - 1, m rounds
    ends = {}  # pair with a round counter -> its cursor at N

    def carried(pair):
        """_utility_ints at horizon N = rounds under the current scan's
        charged flags, each round stepped once from runs carried on from
        N - 1; a counter plays round N in its 1-round form (ROUND_COUNTERS)."""
        first, second = pair
        base = base_of[first.id], base_of[second.id]
        last = rounds if base == pair else rounds - 1
        prev, cursor = runs.get(base) or (
            None, (base[0].initial, base[1].initial, 0, 0, 1, 0))
        while cursor[5] < last:
            prev, cursor = runs[base] = cursor, step(*base, cursor, 1)
        if cursor[5] > last:
            cursor = prev
        if base != pair:
            end = ends.get(pair)
            if end is None or end[5] != rounds:  # once for both scans
                s1 = cursor[0] if first is base[0] else first.initial
                s2 = cursor[1] if second is base[1] else second.initial
                end = ends[pair] = step(*pair, (s1, s2, *cursor[2:]), 1)
            cursor = end
        sizes = [m.n_states + (rounds - 1 if m.id in ROUND_COUNTERS else 0)
                 for m in pair]
        return _net_of_memory(cost, charged, sizes, cursor[2:4],
                              q ** rounds * scale)

    scans = {}  # scan -> (spaces, charged, profile)
    for scan, names, charged, other in (
            ("symmetric", space_names, (True, True), "tit_for_tat"),
            ("asymmetric", asym_names, (True, False),
             "retaliating_defect_last")):
        space = tuple(machines[name] for name in names)
        scans[scan] = ((space, space), charged,
                       (machines["tit_for_tat"], machines[other]))
    least = dict.fromkeys(scans)
    for rounds in range(1, n_max + 1):
        for scan, (spaces, charged, profile) in scans.items():
            if least[scan] is None and _first_gain(
                    _switches(spaces, profile, carried), eps) is None:
                least[scan] = rounds
        if None not in least.values():
            break
    return ThresholdReport(least["symmetric"], least["asymmetric"], n_max,
                           delta, cost)
