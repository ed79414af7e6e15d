"""Reference computations the benchmark checks job outputs against.

Each function here recomputes an answer without calling the library code
path under test: pure-profile robustness by payoff-table lookups, mixed
utilities with integer sums over a common denominator, discounted
automaton runs with integer weights, and closed forms for the threshold,
primality, roshambo and crossing families.  They are written for
obviousness, not speed, and run outside the timed interval.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


class Mismatch(AssertionError):
    """A job's output disagrees with its oracle."""


def expect(condition, message):
    if not condition:
        raise Mismatch(message)


# --- normal-form robustness -------------------------------------------------

def pure_fails(table, shape, profile, k, t, weak):
    n = len(shape)
    base = table[profile]
    for size in range(1, k + 1):
        for coalition in itertools.combinations(range(n), size):
            for joint in itertools.product(*(range(shape[i]) for i in coalition)):
                after = list(profile)
                for i, a in zip(coalition, joint):
                    after[i] = a
                vec = table[tuple(after)]
                gains = [vec[i] > base[i] for i in coalition]
                if all(gains) if weak else any(gains):
                    return True
    for size in range(1, t + 1):
        for group in itertools.combinations(range(n), size):
            for joint in itertools.product(*(range(shape[i]) for i in group)):
                after = list(profile)
                for i, a in zip(group, joint):
                    after[i] = a
                vec = table[tuple(after)]
                if any(vec[v] < base[v] for v in range(n) if v not in group):
                    return True
    return False


def pure_robust_profiles(table, shape, k, t, weak):
    """Index profiles passing (k, t)-robustness, in lexicographic order."""
    return [p for p in itertools.product(*(range(m) for m in shape))
            if not pure_fails(table, shape, p, k, t, weak)]


def _uniform_utilities(table, shape, fixed):
    """Exact utilities when the players in `fixed` play the given actions
    and everyone else mixes uniformly; integer sums, one division."""
    n = len(shape)
    ranges = [(fixed[i],) if i in fixed else range(shape[i]) for i in range(n)]
    totals = [0] * n
    count = 0
    for key in itertools.product(*ranges):
        vec = table[key]
        for i in range(n):
            totals[i] += vec[i]
        count += 1
    return [Fraction(total, count) for total in totals]


def uniform_robust_check(table, shape, k, t, weak=False):
    """First counterexamples of k-resilience and t-immunity of the uniform
    profile, scanned in the library's documented order; None where the
    sub-check holds.  Payoffs must be integers."""
    n = len(shape)
    base = _uniform_utilities(table, shape, {})
    resilience = None
    for size in range(1, k + 1):
        for coalition in itertools.combinations(range(n), size):
            for joint in itertools.product(*(range(shape[i]) for i in coalition)):
                after = _uniform_utilities(table, shape, dict(zip(coalition, joint)))
                gains = [after[i] > base[i] for i in coalition]
                if all(gains) if weak else any(gains):
                    resilience = (coalition, joint, [after[i] for i in coalition])
                    break
            if resilience:
                break
        if resilience:
            break
    immunity = None
    for size in range(1, t + 1):
        for group in itertools.combinations(range(n), size):
            for joint in itertools.product(*(range(shape[i]) for i in group)):
                after = _uniform_utilities(table, shape, dict(zip(group, joint)))
                harmed = [v for v in range(n)
                          if v not in group and after[v] < base[v]]
                if harmed:
                    immunity = (group, joint, harmed[0], after[harmed[0]])
                    break
            if immunity:
                break
        if immunity:
            break
    return base, resilience, immunity


# --- machine games ----------------------------------------------------------

def primality_equilibria(bit_length, cost_per_bit):
    """Testing pays 10 minus its cost against 1 for playing safe."""
    cost = cost_per_bit * bit_length
    found = []
    if cost <= 9:
        found.append(("test_and_guess",))
    if cost >= 9:
        found.append(("always_safe",))
    return found


def _roshambo(i, j):
    if i == (j + 1) % 3:
        return 1
    if j == (i + 1) % 3:
        return -1
    return 0


def roshambo_equilibria(det_cost, rand_cost):
    """Brute-force pure machine equilibria of the costed roshambo game."""
    # machines 0..2 play their constant, machine 3 mixes uniformly
    def mix(m):
        return [m] if m < 3 else [0, 1, 2]

    def gross(m1, m2):
        pairs = [(a, b) for a in mix(m1) for b in mix(m2)]
        return Fraction(sum(_roshambo(a, b) for a, b in pairs), len(pairs))

    def cost(m):
        return det_cost if m < 3 else rand_cost

    def util(m1, m2):
        g = gross(m1, m2)
        return (g - cost(m1), -g - cost(m2))

    ids = ("const0", "const1", "const2", "uniform")
    found = []
    for m1, m2 in itertools.product(range(4), repeat=2):
        u = util(m1, m2)
        if all(util(d, m2)[0] <= u[0] for d in range(4)) and \
                all(util(m1, d)[1] <= u[1] for d in range(4)):
            found.append((ids[m1], ids[m2]))
    return found


def discounted_run(stage_payoffs, actions, first, second, rounds, discount):
    """Discounted payoffs of two automata, summed as integers over the
    common denominator q**rounds."""
    p, q = discount.numerator, discount.denominator
    acts1, acts2 = actions
    s1, s2 = first.initial, second.initial
    totals = [0, 0]
    for m in range(1, rounds + 1):
        a1, a2 = first.output[s1], second.output[s2]
        pay = stage_payoffs[(acts1.index(a1), acts2.index(a2))]
        weight = p ** m * q ** (rounds - m)
        for i in range(2):
            totals[i] += weight * int(pay[i])
        s1, s2 = first.transition[(s1, a2)], second.transition[(s2, a1)]
    scale = q ** rounds
    return tuple(Fraction(total, scale) for total in totals)


def repeated_equilibria(game):
    """Brute-force machine equilibria of a repeated-mode machine game."""
    spec = game.repeated_spec
    for vec in spec.stage.payoffs.values():
        expect(all(v.denominator == 1 for v in vec),
               "integer stage payoffs expected")
    space1, space2 = game.spaces
    utility = {}
    for m1 in space1:
        for m2 in space2:
            gross = discounted_run(spec.stage.payoffs, spec.stage.actions,
                                   m1, m2, spec.rounds, spec.discount)
            utility[(m1.id, m2.id)] = tuple(
                gross[i] - (spec.memory_cost * m.n_states
                            if game.charged[i] else 0)
                for i, m in enumerate((m1, m2)))
    found = []
    for m1 in space1:
        for m2 in space2:
            u = utility[(m1.id, m2.id)]
            if all(utility[(d.id, m2.id)][0] <= u[0] for d in space1) and \
                    all(utility[(m1.id, d.id)][1] <= u[1] for d in space2):
                found.append((m1.id, m2.id))
    return found


def tit_for_tat_holds(delta, cost, rounds):
    """Closed forms of every library deviation against tit_for_tat."""
    def geometric(n):
        return delta * (1 - delta ** n) / (1 - delta)

    base = 3 * geometric(rounds) - 2 * cost
    deviations = (
        3 * geometric(rounds) - 2 * cost,
        5 * delta - 3 * (geometric(rounds) - delta) - 2 * cost,
        3 * geometric(rounds) - 2 * cost,
        3 * geometric(rounds - 1) + 5 * delta ** rounds - (rounds + 1) * cost,
    )
    return all(v <= base for v in deviations)


def symmetric_threshold(delta, cost, n_max):
    return next((n for n in range(1, n_max + 1)
                 if tit_for_tat_holds(delta, cost, n)), None)


# --- agreement sweeps -------------------------------------------------------

def sweep_total(n, t, adversaries, preferences=2):
    return preferences * sum(math.comb(n, s) * adversaries ** s
                             for s in range(t + 1))


def first_harmed(entries):
    """First (scenario, player) in sweep order whose utility drops below
    its fault-free baseline, or None."""
    baselines = {scenario.preference: transcript.utilities
                 for scenario, transcript, _ in entries if not scenario.faults}
    for scenario, transcript, _ in entries:
        if not scenario.faults:
            continue
        for player in scenario.nonfaulty:
            if transcript.utilities[player] < baselines[scenario.preference][player]:
                return scenario, player
    return None


# --- extensive trees --------------------------------------------------------

def tree_payoffs(tree, choice):
    """Expected payoffs of a pure strategy assignment {label: move}."""
    totals = [Fraction(0)] * len(tree.players)
    stack = [((), Fraction(1))]
    while stack:
        h, prob = stack.pop()
        if h in tree.payoffs:
            for i, v in enumerate(tree.payoffs[h]):
                totals[i] += prob * v
        elif tree.owner[h] == "nature":
            for m, q in tree.nature_probs[h].items():
                if q:
                    stack.append((h + (m,), prob * q))
        else:
            stack.append((h + (choice[tree.infosets[h]],), prob))
    return tuple(totals)


def strategy_names(tree, player):
    """Pure strategy names in the library's documented "label:move" form."""
    labels = [l for l in tree.labels if tree.label_owner(l) == player]
    if not labels:
        return [("-", {})]
    out = []
    for combo in itertools.product(*(tree.label_moves(l) for l in labels)):
        out.append((";".join(f"{l}:{m}" for l, m in zip(labels, combo)),
                    dict(zip(labels, combo))))
    return out


def generalized_names(tree, profiles, game_name="modeler"):
    """Pure generalized profiles mapped onto induced strategy names."""
    out = set()
    for profile in profiles:
        names = []
        for player in tree.players:
            labels = [l for l in tree.labels if tree.label_owner(l) == player]
            if not labels:
                names.append("-")
                continue
            entry = profile.strategies[(player, game_name)]
            parts = []
            for label in labels:
                chosen = [m for m, q in entry[label].items() if q == 1]
                expect(len(chosen) == 1, f"{label}: not a pure move")
                parts.append(f"{label}:{chosen[0]}")
            names.append(";".join(parts))
        out.add(tuple(names))
    return out


def crossing_values(p, down, across_down, across_across, b_move):
    """A's utilities in its own view for down_A and across_A when the aware
    B plays b_move; an unaware B (probability p) can only play across_B."""
    meets = across_down[0] if b_move == "down_B" else across_across[0]
    return {"down_A": down[0],
            "across_A": (1 - p) * meets + p * across_across[0]}


def crossing_equilibria(p, down, across_down, across_across):
    """Pure generalized equilibria of crossing_game as (A's move in its
    view, aware B's move) pairs; the pieces in B's small view are forced.
    B's move only counts when A crosses, and then down_B is strictly best."""
    found = []
    for a_move in ("down_A", "across_A"):
        for b_move in ("down_B", "across_B"):
            values = crossing_values(p, down, across_down, across_across, b_move)
            if values[a_move] == max(values.values()) and (
                    a_move == "down_A" or b_move == "down_B"):
                found.append((a_move, b_move))
    return found
