"""Finite automata playing a discounted, finitely repeated 2-player stage game.

An automaton is a Moore machine: output depends on the current state only,
and the state advances on the opponent's last action.  A machine's memory
complexity is its declared state count.  The total reward of a run over N
rounds with discount d is the exact sum of d^m * stage_payoff(round m) for
m = 1..N.

run_automata computes that sum in integers.  With d = p/q and D the least
common denominator of the stage payoffs, q^N * D * total is the integer
sum of p^m * q^(N-m) * (D * stage_payoff(round m)), so a run adds ints
round by round and builds one Fraction per player at the end.  The one
stepping loop, _stepper's, moves a run cursor (s1, s2, S1, S2, p^m, m) on:
a run moves a fresh one N rounds, the threshold scan one per machine pair.
"""

from __future__ import annotations

import weakref
from fractions import Fraction

from .catalog import prisoners_dilemma
from .errors import InputError
from .games import NormalFormGame, _over_lcm, _trusted
from .rationals import as_fraction


class RepeatedGameAutomaton:
    """A Moore machine over the stage game's actions.

    output maps each state to the action played there; transition maps
    (state, opponent action) to the next state.
    """

    def __init__(self, machine_id, states, initial, output, transition):
        if not isinstance(machine_id, str) or not machine_id:
            raise InputError("automaton id must be a nonempty string")
        if not states or len(set(states)) != len(states):
            raise InputError(f"automaton {machine_id}: states must be nonempty and unique")
        self.id = machine_id
        self.states = tuple(states)
        if initial not in self.states:
            raise InputError(f"automaton {machine_id}: unknown initial state {initial!r}")
        self.initial = initial
        missing = [s for s in self.states if s not in output]
        if missing:
            raise InputError(
                f"automaton {machine_id}: no output for state {missing[0]!r}")
        self.output = dict(output)
        self.transition = {}
        known = set(self.states)
        for key, target in transition.items():
            if (not isinstance(key, tuple) or len(key) != 2
                    or key[0] not in known):
                raise InputError(f"automaton {machine_id}: bad transition key {key!r}")
            try:
                unknown = target not in known
            except TypeError:  # unhashable, so not a state
                unknown = True
            if unknown:
                raise InputError(
                    f"automaton {machine_id}: transition to unknown state {target!r}")
            self.transition[key] = target

    @property
    def n_states(self):
        return len(self.states)

    def step(self, state, opponent_action):
        key = (state, opponent_action)
        if key not in self.transition:
            raise InputError(
                f"automaton {self.id}: no transition from state {state!r} "
                f"on opponent action {opponent_action!r}")
        return self.transition[key]


class RepeatedGameSpec:
    """Stage game, round count, discount, and per-state memory price."""

    def __init__(self, stage: NormalFormGame, rounds, discount, memory_cost):
        if not isinstance(stage, NormalFormGame):
            raise InputError("repeated play needs a NormalFormGame stage")
        if stage.n_players != 2:
            raise InputError("repeated play needs a 2-player stage game")
        if not isinstance(rounds, int) or isinstance(rounds, bool) or rounds < 1:
            raise InputError("rounds must be a positive integer")
        self.stage = stage
        self.rounds = rounds
        self.discount = as_fraction(discount, "discount")
        if not (0 < self.discount < 1):
            raise InputError("discount must lie strictly between 0 and 1")
        self.memory_cost = as_fraction(memory_cost, "memory_cost")
        if self.memory_cost < 0:
            raise InputError("memory_cost must be nonnegative")


_STAGE_TABLES = weakref.WeakKeyDictionary()


def _stage_table(stage):
    """(D, {(action 1, action 2): the stage payoffs times D, as ints}), D
    their lcm; kept in _STAGE_TABLES for as long as the stage lives."""
    table = _STAGE_TABLES.get(stage)
    if table is None:
        acts1, acts2 = stage.actions
        scale, flat = _over_lcm([v for vec in stage.payoffs.values()
                                 for v in vec])
        table = _STAGE_TABLES[stage] = scale, {
            (acts1[i], acts2[j]): (flat[2 * k], flat[2 * k + 1])
            for k, (i, j) in enumerate(stage.payoffs)}
    return table


def run_automata(spec: RepeatedGameSpec, first: RepeatedGameAutomaton,
                 second: RepeatedGameAutomaton):
    """Exact discounted payoff pair of one deterministic run.

    With discount p/q, each total is kept as the integer S = q^N * D * total,
    where D is the least common denominator of the stage payoffs.  Round m
    updates S <- S * q + p^m * D * payoff (Horner's rule over q), and each
    player's Fraction(S, q^N * D) is built once, after round N.

    Raises InputError if a machine emits an action outside the stage game
    or lacks a transition for an opponent action it encounters; each error
    is raised in the round that reaches it, and the transitions out of
    round N are taken too (one fresh cursor moved N rounds by _stepper).
    """
    total1, total2, den = _run_totals(spec, first, second)
    return Fraction(total1, den), Fraction(total2, den)


def _run_totals(spec, first, second):
    """(S1, S2, q^N * D): run_automata's payoff pair as ints over one
    denominator, the same for every run under spec."""
    start = first.initial, second.initial, 0, 0, 1, 0
    run = _stepper(spec)(first, second, start, spec.rounds)
    scale = _stage_table(spec.stage)[0]
    return run[2], run[3], spec.discount.denominator ** spec.rounds * scale


def _stepper(spec):
    """advance(first, second, cursor, rounds): the run cursor (s1, s2, S1,
    S2, p^m, m) of first against second, moved `rounds` rounds on under
    spec's stage and discount (spec.rounds is unused): the states entering
    round m + 1 and each player's total times q^m * D after round m."""
    acts1, acts2 = spec.stage.actions
    p, q = spec.discount.numerator, spec.discount.denominator
    scaled = _stage_table(spec.stage)[1]

    def advance(first, second, cursor, rounds):
        out1, out2 = first.output, second.output
        step1, step2 = first.transition, second.transition
        s1, s2, total1, total2, weight, m = cursor
        for _ in range(rounds):
            a1, a2 = out1[s1], out2[s2]
            try:
                v1, v2 = scaled[a1, a2]
            except (KeyError, TypeError):
                for machine, action, acts in ((first, a1, acts1),
                                              (second, a2, acts2)):
                    if action not in acts:
                        raise InputError(
                            f"automaton {machine.id}: action {action!r} "
                            f"not in the stage game") from None
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
        return s1, s2, total1, total2, weight, m + rounds
    return advance


# The constant and reactive library machines below share a two-state
# opponent-memory chassis (state = opponent's last action), so moving
# between them never changes the memory charge; only the round-counting
# machines carry extra states.

def _chassis(machine_id, output_c, output_d):
    states = ("saw_C", "saw_D")
    output = {"saw_C": output_c, "saw_D": output_d}
    transition = {
        ("saw_C", "C"): "saw_C", ("saw_C", "D"): "saw_D",
        ("saw_D", "C"): "saw_C", ("saw_D", "D"): "saw_D",
    }
    return _trusted(RepeatedGameAutomaton, id=machine_id, states=states,
                    initial="saw_C", output=output, transition=transition)


def all_cooperate():
    """Plays C in every round; 2 states."""
    return _chassis("all_c", "C", "C")


def all_defect():
    """Plays D in every round; 2 states."""
    return _chassis("all_d", "D", "D")


def tit_for_tat():
    """Cooperates first, then copies the opponent's last action; 2 states."""
    return _chassis("tit_for_tat", "C", "D")


def grim_trigger():
    """Cooperates until the opponent defects once, then defects forever;
    2 states."""
    states = ("calm", "triggered")
    output = {"calm": "C", "triggered": "D"}
    transition = {
        ("calm", "C"): "calm", ("calm", "D"): "triggered",
        ("triggered", "C"): "triggered", ("triggered", "D"): "triggered",
    }
    return _trusted(RepeatedGameAutomaton, id="grim", states=states,
                    initial="calm", output=output, transition=transition)


def defect_last(rounds):
    """Cooperates through round N-1 and defects in round N, counting rounds
    in unary regardless of the opponent.

    Modeled with N+1 states (counter 0..N).  Any strictly increasing state
    count would do; N+1 is the documented choice this package freezes.
    """
    if not isinstance(rounds, int) or isinstance(rounds, bool) or rounds < 1:
        raise InputError("defect_last needs a positive round count")
    states = tuple(f"r{m}" for m in range(rounds + 1))
    output = {s: "D" if m >= rounds - 1 else "C"
              for m, s in enumerate(states)}
    transition = {(s, a): nxt
                  for s, nxt in zip(states, states[1:] + states[-1:])
                  for a in "CD"}
    return _trusted(RepeatedGameAutomaton, id="defect_last", states=states,
                    initial="r0", output=output, transition=transition)


def retaliating_defect_last(rounds):
    """Cooperates through round N-1, defects in round N, and defects forever
    once the opponent defects; N-1 counting states plus an absorbing defect
    state (just the defect state when N = 1).

    This is the punishing best response to tit_for_tat; the plain
    defect_last counter never retaliates and so cannot anchor the
    one-sided-memory-charge equilibrium.
    """
    if not isinstance(rounds, int) or isinstance(rounds, bool) or rounds < 1:
        raise InputError("retaliating_defect_last needs a positive round count")
    states = tuple(f"c{m}" for m in range(1, rounds)) + ("punish",)
    output = {s: "C" for s in states[:-1]}
    output["punish"] = "D"
    transition = {(s, a): nxt if a == "C" else "punish"
                  for s, nxt in zip(states, states[1:] + states[-1:])
                  for a in "CD"}
    return _trusted(
        RepeatedGameAutomaton, id="retaliating_defect_last", states=states,
        initial=states[0], output=output, transition=transition)


# factories keyed by id; round-counting machines take the round count
AUTOMATON_LIBRARY = {
    "all_c": lambda rounds: all_cooperate(),
    "all_d": lambda rounds: all_defect(),
    "tit_for_tat": lambda rounds: tit_for_tat(),
    "grim": lambda rounds: grim_trigger(),
    "defect_last": defect_last,
    "retaliating_defect_last": retaliating_defect_last,
}
# counter -> base: defect_last(N) plays as all_c, retaliating_defect_last(N)
# as grim, through round N-1, then plays round N as its 1-round form plays
# round 1 from its initial state: D, whatever the history.  Stepping round N
# so gives the N-round run's totals and opponent state; only the counter's
# own next state differs.  The N-round counter has N - 1 more states than
# its 1-round form.  The threshold scan builds only 1-round forms.
ROUND_COUNTERS = {"defect_last": "all_c", "retaliating_defect_last": "grim"}

DEFAULT_SPACE = ("all_c", "all_d", "tit_for_tat", "grim", "defect_last")


def library_space(names, rounds):
    machines = []
    for name in _names(names):
        try:
            make = AUTOMATON_LIBRARY[name]
        except (KeyError, TypeError):  # TypeError: unhashable, so unknown
            raise InputError(f"unknown library automaton {name!r}") from None
        machines.append(make(rounds))
    return tuple(machines)


def _names(names):
    try:
        if not isinstance(names, str):  # not a space of one-letter names
            return tuple(names)
    except TypeError:
        pass
    raise InputError("the machine space must be a sequence of names")


def default_stage_game():
    return prisoners_dilemma()
