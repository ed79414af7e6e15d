"""Seeded job pools for the benchmark's four workloads.

A job is one public library call, or one in-process ``eqcheck.cli.main``
call, that ends in a verdict, a list or a report.  Every job carries a
check of its output, against an oracle that avoids the code path under
test wherever one exists (see ``oracles``), and a canonical JSON form of
its output for the per-workload digest.

Jobs call the library through module attributes (``robustness.check_robust``
rather than an imported name), so the tracer's wrappers see them.

Every call builds its games, trees and structures afresh from seeded raw
data, inside the timed interval, so no object the library has already
seen is handed to it again on a later pass.  The oracles work on a
separate template built at set-up.

Each pool has a fixed composition: the kinds, shapes and parameter grids
are the same for every seed, and the seed draws payoffs, costs, discounts,
trees and profiles.  That keeps the cost of a pool nearly independent of
the seed, so run-to-run spread measures the program, not the draw.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
from fractions import Fraction

import eqcheck.awareness as awareness
import eqcheck.basim as basim
import eqcheck.catalog as catalog
import eqcheck.cli as cli
import eqcheck.data
import eqcheck.fileformat as fileformat
import eqcheck.machines as machines
import eqcheck.robustness as robustness
import eqcheck.trees as trees
from eqcheck.games import MixedProfile, NormalFormGame, is_nash
from eqcheck.rationals import format_rational
from eqcheck.verdicts import Verdict, Witness, to_jsonable

import oracles
from oracles import expect

POOL_SIZE = 120


class Job:
    """One timed call: ``call()`` runs it, ``check(output)`` raises
    ``oracles.Mismatch`` on a wrong answer, ``canon(output)`` gives the
    JSON-ready form that goes into the digest.  ``defect`` names the
    exception class of a known library defect this job exposes; any other
    exception from ``call()`` makes the run incorrect."""

    __slots__ = ("kind", "call", "check", "canon", "defect")

    def __init__(self, kind, call, check, canon, defect=None):
        self.kind = kind
        self.call = call
        self.check = check
        self.canon = canon
        self.defect = defect


def jsonable(value):
    if isinstance(value, (Verdict, Witness)):
        return to_jsonable(value)
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


def canonical_text(job, output):
    return json.dumps(jsonable(job.canon(output)), sort_keys=True,
                      separators=(",", ":"), ensure_ascii=False)


def _quotas(count, shares):
    """Split count jobs over kinds by share (largest remainder), then
    interleave so every prefix of the pool keeps roughly the same mix."""
    total = sum(share for _, share in shares)
    raw = [(kind, count * share / total) for kind, share in shares]
    sizes = {kind: int(x) for kind, x in raw}
    order = sorted(raw, key=lambda kx: int(kx[1]) - kx[1])
    for kind, _ in order[:count - sum(sizes.values())]:
        sizes[kind] += 1
    slots = []
    for kind, _ in shares:
        c = sizes[kind]
        slots.extend(((j + 0.5) / c, kind, j) for j in range(c))
    slots.sort()
    return [(kind, j) for _, kind, j in slots]


def _names(prefix, count):
    return tuple(f"{prefix}{i}" for i in range(count))


def _random_table(rng, shape, draw):
    n = len(shape)
    return {key: tuple(draw() for _ in range(n))
            for key in itertools.product(*(range(m) for m in shape))}


def _normal_form_maker(shape, table):
    """A function that builds a fresh game of this shape and payoff table."""
    players = _names("p", len(shape))
    actions = tuple(_names("a", m) for m in shape)
    payoffs = {k: tuple(Fraction(v) for v in vec) for k, vec in table.items()}
    return lambda: NormalFormGame(players, actions, payoffs)


# --- robust ------------------------------------------------------------------

ENUM_SHAPES = ((2, 2), (3, 3), (4, 4), (6, 6), (8, 8), (2, 12), (3, 12),
               (2, 3, 4), (3, 3, 3), (4, 4, 4), (2, 4, 6), (2, 2, 2, 2),
               (2, 2, 3, 3), (2, 2, 3, 4), (2, 3, 3, 3))
ENUM_QUERIES = tuple(itertools.product(((1, 0), (2, 0), (2, 1)),
                                       (False, True)))
CHECK_SHAPES = ((3, 3, 3), (4, 4, 4), (5, 5, 5), (3, 4, 5), (3, 3, 3, 3),
                (4, 4, 4, 4), (3, 3, 4, 5), (3, 4, 4, 4), (3, 3, 3, 3, 3),
                (3, 3, 3, 3, 4))
CHECK_QUERIES = ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2),
                 (2, 2))
SWEEP_CONFIGS = tuple((n, t, name)
                      for n, t in ((4, 1), (5, 1), (6, 1), (7, 1), (4, 2))
                      for name in ("mediator", "echo-first"))
ADVERSARY_CONFIGS = tuple((n, t, name)
                          for n, t in ((3, 1), (3, 2), (4, 1))
                          for name in ("mediator", "echo-first"))


def _semantics(weak):
    return (robustness.ResilienceSemantics.WEAK if weak
            else robustness.ResilienceSemantics.STRONG)


def _enumerate_job(rng, j):
    shape = ENUM_SHAPES[j % len(ENUM_SHAPES)]
    (k, t), weak = ENUM_QUERIES[j % len(ENUM_QUERIES)]
    table = _random_table(rng, shape, lambda: rng.randint(-9, 9))
    make = _normal_form_maker(shape, table)
    game = make()
    query = robustness.RobustnessQuery(k, t, semantics=_semantics(weak))

    def check(found):
        want = [game.profile_names(p) for p in
                oracles.pure_robust_profiles(table, shape, k, t, weak)]
        expect(found == want, f"enumerate {shape} ({k},{t}): {found} != {want}")
        if (k, t) == (1, 0):
            nash = [game.profile_names(p) for p in game.pure_profiles()
                    if is_nash(game, MixedProfile.pure(game, p)).holds]
            expect(found == nash, f"enumerate {shape}: not the is_nash set")

    return Job("enumerate",
               lambda: robustness.enumerate_pure_robust(make(), query),
               check, list)


def _check_job(rng, j):
    shape = CHECK_SHAPES[j % len(CHECK_SHAPES)]
    k, t = CHECK_QUERIES[j % len(CHECK_QUERIES)]
    weak = j % 2 == 1
    table = _random_table(rng, shape, lambda: rng.randint(-9, 9))
    make = _normal_form_maker(shape, table)
    game = make()
    query = robustness.RobustnessQuery(k, t, semantics=_semantics(weak))

    def call():
        fresh = make()
        return robustness.check_robust(fresh, MixedProfile.uniform(fresh), query)

    def check(verdict):
        base, res, imm = oracles.uniform_robust_check(table, shape, k, t, weak)
        subs = verdict.sub_verdicts
        expect(subs["resilience"].holds == (res is None),
               f"check {shape} ({k},{t}): resilience verdict")
        expect(subs["immunity"].holds == (imm is None),
               f"check {shape} ({k},{t}): immunity verdict")
        expect(verdict.holds == (res is None and imm is None),
               f"check {shape} ({k},{t}): combined verdict")
        if res is not None:
            coalition, joint, after = res
            data = subs["resilience"].witness.data
            expect(data["coalition"] == tuple(game.players[i] for i in coalition)
                   and data["deviation"] == {game.players[i]: game.actions[i][a]
                                             for i, a in zip(coalition, joint)}
                   and [data["members"][game.players[i]]["utility_after"]
                        for i in coalition] == after,
                   f"check {shape} ({k},{t}): resilience witness")
        if imm is not None:
            group, joint, harmed, after = imm
            data = subs["immunity"].witness.data
            expect(data["deviators"] == tuple(game.players[i] for i in group)
                   and data["harmed"] == game.players[harmed]
                   and data["utility_before"] == base[harmed]
                   and data["utility_after"] == after,
                   f"check {shape} ({k},{t}): immunity witness")

    return Job("check", call, check, lambda v: v)


def _sweep_job(j):
    n, t, name = SWEEP_CONFIGS[j % len(SWEEP_CONFIGS)]

    def call():
        protocol = basim.PROTOCOLS[name]
        return basim.sweep(n, t, protocol), basim.empirical_immunity(n, t, protocol)

    def check(output):
        report, verdict = output
        adversaries = len(basim.DEFAULT_ADVERSARIES)
        expect(report.total == oracles.sweep_total(n, t, adversaries),
               f"sweep {n},{t},{name}: {report.total} scenarios")
        harmed = oracles.first_harmed(report.entries)
        expect(verdict.holds == (harmed is None),
               f"sweep {n},{t},{name}: immunity verdict")
        if harmed is not None:
            scenario, player = harmed
            data = verdict.witness.data
            expect(data["player"] == player
                   and data["faults"] == scenario.fault_names()
                   and data["preference"] == scenario.preference,
                   f"sweep {n},{t},{name}: witness is not the first harm")
            replay = basim.run(basim.Scenario(
                n, scenario.preference, faults=data["faults"],
                mediator_present=basim.PROTOCOLS[name].requires_mediator),
                basim.PROTOCOLS[name])
            expect(replay.utilities[player] == data["utility_after"],
                   f"sweep {n},{t},{name}: witness does not replay")

    def canon(output):
        report, verdict = output
        return {"total": report.total, "all_hold": report.all_hold,
                "failures": [[s.preference, s.fault_names(), v]
                             for s, _, v in report.failures()],
                "immunity": verdict}

    return Job("sweep", call, check, canon)


def _adversary_job(j):
    n, t, name = ADVERSARY_CONFIGS[j % len(ADVERSARY_CONFIGS)]

    def call():
        game = basim.build_adversary_game(n, basim.PROTOCOLS[name])
        profile = MixedProfile.pure(game, ("follow",) * n)
        return game, robustness.check_immunity(game, profile, t)

    def check(output):
        game, verdict = output
        expect(game.payoffs[(0,) * n] == (1,) * n,
               f"adversary game {n},{name}: fault-free payoffs")
        empirical = basim.empirical_immunity(n, t, basim.PROTOCOLS[name],
                                             preferences=(0,))
        expect(verdict.holds == empirical.holds,
               f"adversary game {n},{t},{name}: disagrees with the sweep")

    def canon(output):
        game, verdict = output
        return {"payoffs": sorted([list(k), list(v)]
                                  for k, v in game.payoffs.items()),
                "verdict": verdict}

    return Job("adversary-game", call, check, canon)


# --- machines ----------------------------------------------------------------

PRIME_BITS = (6, 7, 8, 9)
THRESHOLD_NMAX = (10, 15, 20, 25)
THRESHOLD_COST_EXP = (1, 2, 3, 4, 5, 6)
DISCOUNTS = (55, 65, 75, 85, 95)
DILEMMA_ROUNDS = (20, 24, 28, 32, 36, 40)
MACHINE_SHARES = (("primality", 0.35), ("threshold", 0.35),
                  ("roshambo", 0.15), ("dilemma", 0.15))


def _discount(rng, j):
    """A discount near the slot's grid value over the prime 101, so every
    discount has the same denominator and a seed moves the threshold a
    little, not the cost of the scan."""
    return Fraction(DISCOUNTS[j % len(DISCOUNTS)] + rng.randint(-2, 2), 101)


def _primality_job(rng, j):
    bits = PRIME_BITS[j % len(PRIME_BITS)]
    cost_per_bit = Fraction(rng.randint(1, 34), 2 * bits)

    def call():
        game = machines.build_primality_game(bits, cost_per_bit)
        return machines.exhaustive_machine_equilibria(game)

    def check(found):
        want = oracles.primality_equilibria(bits, cost_per_bit)
        expect(found == want, f"primality {bits} bits: {found} != {want}")

    return Job("primality", call, check, list)


def _threshold_job(rng, j):
    n_max = THRESHOLD_NMAX[j % len(THRESHOLD_NMAX)]
    cost = Fraction(1, 10 ** THRESHOLD_COST_EXP[j % len(THRESHOLD_COST_EXP)])
    delta = _discount(rng, j)

    def check(report):
        want = oracles.symmetric_threshold(delta, cost, n_max)
        expect(report.symmetric == want,
               f"threshold {delta},{cost},{n_max}: {report.symmetric} != {want}")
        names = machines.DEFAULT_SPACE + ("retaliating_defect_last",)
        profile = ("tit_for_tat", "retaliating_defect_last")

        def holds(rounds):
            game = machines.build_repeated_dilemma_game(
                rounds, delta, cost, names, (True, False))
            return machines.is_machine_nash(game, profile).holds

        found = report.asymmetric
        if found is None:
            expect(not holds(n_max), f"threshold {delta},{cost}: asymmetric")
        else:
            expect(holds(found) and (found == 1 or not holds(found - 1)),
                   f"threshold {delta},{cost}: asymmetric {found}")

    def canon(report):
        return [report.symmetric, report.asymmetric, report.n_max,
                report.discount, report.memory_cost]

    return Job("threshold",
               lambda: machines.tit_for_tat_threshold(delta, cost, n_max),
               check, canon)


def _roshambo_job(rng, j):
    det_cost = Fraction(rng.randint(0, 6), 2)
    rand_cost = Fraction(rng.randint(0, 6), 2)
    zeroed = j % 2 == 1

    def call():
        game = machines.build_roshambo_game(det_cost, rand_cost)
        if zeroed:
            game = machines.zeroed_complexity(game)
        return machines.exhaustive_machine_equilibria(game)

    def check(found):
        want = (oracles.roshambo_equilibria(0, 0) if zeroed
                else oracles.roshambo_equilibria(det_cost, rand_cost))
        expect(found == want, f"roshambo {det_cost},{rand_cost}: {found}")

    return Job("roshambo", call, check, list)


def _dilemma_job(rng, j):
    rounds = DILEMMA_ROUNDS[j % len(DILEMMA_ROUNDS)]
    delta = _discount(rng, j)
    cost = Fraction(1, rng.choice((10, 100, 1000)))

    def check(found):
        want = oracles.repeated_equilibria(
            machines.build_repeated_dilemma_game(rounds, delta, cost))
        expect(found == want, f"dilemma {rounds},{delta},{cost}: {found}")

    def call():
        return machines.exhaustive_machine_equilibria(
            machines.build_repeated_dilemma_game(rounds, delta, cost))

    return Job("dilemma", call, check, list)


def machine_jobs(rng, count, workdir=None):
    makers = {"primality": _primality_job, "threshold": _threshold_job,
              "roshambo": _roshambo_job, "dilemma": _dilemma_job}
    return [makers[kind](rng, j) for kind, j in _quotas(count, MACHINE_SHARES)]


# --- unawareness -------------------------------------------------------------

# (leaves, most pure strategy combinations); larger trees share more
# information sets, which keeps their search small
TREE_SPECS = ((8, 16), (10, 24), (12, 32), (14, 48), (16, 32), (18, 48),
              (20, 32), (22, 48), (24, 32), (26, 48), (28, 64), (30, 64))


def random_tree(rng, slot, leaves, most):
    """The ``ExtensiveGame`` arguments of a random tree with 2-3 players,
    depth <= 5, chance nodes and shared information sets, with 8-30 leaves
    and between most // 3 and most pure strategy combinations.

    The shape comes from the slot alone, so a slot costs about the same
    for every seed; the seed draws payoffs and chance probabilities."""
    shape = random.Random(f"tree {slot} {leaves} {most}")
    share = 0.3 + 0.02 * (leaves - 8)
    chance = 0.2 + 0.005 * (leaves - 8)
    while True:
        players = _names("P", shape.randint(2, 3))
        moves, owner, infosets, terminal, pools = {}, {}, {}, [], {}

        def grow(h, budget, depth):
            if budget < 2 or depth >= 5:
                terminal.append(h)
                return
            arity = 2 if budget < 3 or shape.random() < 0.6 else 3
            ms = ("l", "r") if arity == 2 else ("l", "m", "r")
            moves[h] = ms
            who = trees.NATURE if shape.random() < chance else shape.choice(players)
            owner[h] = who
            if who != trees.NATURE:
                pool = pools.setdefault((who, ms), [])
                if pool and shape.random() < share:
                    infosets[h] = shape.choice(pool)
                else:
                    label = f"I{sum(map(len, pools.values())) + 1}"
                    pool.append(label)
                    infosets[h] = label
            sizes = [1] * arity
            for _ in range(budget - arity):
                sizes[shape.randrange(arity)] += 1
            for m, b in zip(ms, sizes):
                grow(h + (m,), b, depth + 1)

        grow((), leaves, 0)
        combos = 1
        for (_, ms), labels in pools.items():
            combos *= len(ms) ** len(labels)
        if 8 <= len(terminal) <= 30 and most // 3 <= combos <= most:
            break
    payoffs = {h: tuple(Fraction(rng.randint(-6, 6)) for _ in players)
               for h in terminal}
    nature = {}
    for h, who in owner.items():
        if who == trees.NATURE:
            weights = [rng.randint(1, 4) for _ in moves[h]]
            nature[h] = {m: Fraction(w, sum(weights))
                         for m, w in zip(moves[h], weights)}
    return players, moves, owner, infosets, payoffs, nature


def _find_job(args):
    tree = trees.ExtensiveGame(*args)

    def call():
        return awareness.find_pure_generalized_nash(
            awareness.canonical_representation(trees.ExtensiveGame(*args)))

    def check(found):
        nf = trees.induced_normal_form(tree)
        nash = {nf.profile_names(p) for p in nf.pure_profiles()
                if is_nash(nf, MixedProfile.pure(nf, p)).holds}
        expect(oracles.generalized_names(tree, found) == nash,
               "find: generalized equilibria differ from induced Nash set")

    return Job("find", call, check, lambda found: [p.strategies for p in found])


def _induce_job(args):
    tree = trees.ExtensiveGame(*args)

    def check(nf):
        per_player = [oracles.strategy_names(tree, p) for p in tree.players]
        expect(nf.actions == tuple(tuple(name for name, _ in s)
                                   for s in per_player),
               "induce: strategy names")
        for key in itertools.product(*(range(len(s)) for s in per_player)):
            choice = {}
            for i, si in enumerate(key):
                choice.update(per_player[i][si][1])
            expect(nf.payoffs[key] == oracles.tree_payoffs(tree, choice),
                   f"induce: payoffs at {key}")

    def canon(nf):
        return {"actions": nf.actions,
                "payoffs": sorted([list(k), list(v)]
                                  for k, v in nf.payoffs.items())}

    return Job("induce",
               lambda: trees.induced_normal_form(trees.ExtensiveGame(*args)),
               check, canon)


def _crossing(rng):
    p = Fraction(rng.randint(0, 20), 20)
    aa0 = rng.randint(-3, 2)
    d0 = aa0 + rng.randint(1, 3)
    ad0 = d0 + rng.randint(1, 3)
    aa1 = rng.randint(-3, 3)
    down = (d0, rng.randint(-3, 3))
    across_down = (ad0, aa1 + rng.randint(1, 3))
    across_across = (aa0, aa1)
    return p, down, across_down, across_across


def _crossing_profile(a_move, b_move="down_B"):
    return awareness.GeneralizedProfile.pure({
        ("B", "modeler"): {"B": b_move},
        ("A", "a_view"): {"A.1": a_move},
        ("A", "b_view"): {"A.3": "down_A"},
        ("B", "b_view"): {"B.3": "across_B"},
    })


def _profile_key(profile):
    return json.dumps(jsonable(profile.strategies), sort_keys=True)


def _crossing_job(rng, kind):
    params = _crossing(rng)

    def gwa():
        return awareness.crossing_game(*params)

    if kind == "crossing-validate":
        def check(verdict):
            expect(verdict.holds, "crossing: structure fails validation")

        return Job(kind, lambda: gwa().validate(), check, lambda v: v)
    if kind == "crossing-check":
        move = rng.choice(("down_A", "across_A"))

        def check(verdict):
            holds = (move, "down_B") in oracles.crossing_equilibria(*params)
            expect(verdict.holds == holds, "crossing: check verdict")
            if not holds:
                values = oracles.crossing_values(*params, "down_B")
                data = verdict.witness.data
                expect(data["player"] == "A" and data["game"] == "a_view"
                       and data["gain"] == max(values.values()) - values[move],
                       "crossing: witness")

        return Job(kind, lambda: awareness.is_generalized_nash(
            gwa(), _crossing_profile(move)), check, lambda v: v)

    def check(found):
        want = [_crossing_profile(*pair)
                for pair in oracles.crossing_equilibria(*params)]
        expect(sorted(_profile_key(p) for p in found)
               == sorted(_profile_key(p) for p in want),
               "crossing: equilibrium set")

    return Job(kind, lambda: awareness.find_pure_generalized_nash(gwa()),
               check, lambda found: [p.strategies for p in found])


# Job counts per pool of 120: half normal-form robustness and agreement
# jobs, half extensive-tree and crossing-structure jobs.
ROBUST_AWARE_SHARES = (("enumerate", 30), ("check", 18), ("sweep", 10),
                       ("adversary-game", 6), ("find", 22), ("induce", 22),
                       ("crossing-validate", 4), ("crossing-check", 4),
                       ("crossing-find", 4))


def robust_aware_jobs(rng, count, workdir=None):
    jobs = []
    tree_args = {}
    for kind, j in _quotas(count, ROBUST_AWARE_SHARES):
        if kind == "enumerate":
            jobs.append(_enumerate_job(rng, j))
        elif kind == "check":
            jobs.append(_check_job(rng, j))
        elif kind == "sweep":
            jobs.append(_sweep_job(j))
        elif kind == "adversary-game":
            jobs.append(_adversary_job(j))
        elif kind in ("find", "induce"):
            if j not in tree_args:
                tree_args[j] = random_tree(rng, j, *TREE_SPECS[j % len(TREE_SPECS)])
            maker = _find_job if kind == "find" else _induce_job
            jobs.append(maker(tree_args[j]))
        else:
            jobs.append(_crossing_job(rng, kind))
    return jobs


# --- cli-docs ----------------------------------------------------------------

DOC_SHAPES = ((6, 6, 6), (4, 4, 4, 4), (3, 3, 3, 3, 3))
DOC_PRIME_BITS = (7, 8, 9, 9)
DEEP_LEVELS = 100_000
CLI_SHARES = (("cli-check-robust", 0.15), ("cli-compgame-check", 0.1),
              ("cli-aware-validate", 0.1), ("cli-tour", 0.275),
              ("round-trip", 1 / 3), ("hostile", 1 - 0.625 - 1 / 3))

README_TOUR = (
    (("check", "robust", "--game", "@zero_one_3.json",
      "--profile", "@all_zero.json", "--k", "1", "--t", "0"), 0),
    (("enumerate", "pure-robust", "--game", "@prisoners_dilemma.json",
      "--k", "1", "--t", "0", "--format", "json"), 0),
    (("compgame", "check", "--game", "@roshambo_zero_cost.json",
      "--machines", "uniform,uniform"), 0),
    (("compgame", "enumerate", "--game", "@roshambo.json"), 0),
    (("repeated", "run", "--spec", "@frpd.json", "--m1", "all_d",
      "--m2", "tit_for_tat"), 0),
    (("repeated", "threshold", "--spec", "@frpd.json", "--nmax", "100"), 0),
    (("aware", "validate", "--game", "@crossing_p3.json"), 0),
    (("aware", "check", "--game", "@crossing_p3.json",
      "--profile", "@crossing_eq.json"), 0),
    (("aware", "find", "--game", "@crossing_p3.json"), 0),
    (("simulate", "ba", "--n", "4", "--t", "1", "--protocol", "mediator",
      "--report", "json"), 0),
    (("simulate", "run", "--scenario", "@ba_scenario.json"), 0),
)


def cli_call(argv):
    """In-process ``eqcheck`` call with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _write(path, text):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return os.path.relpath(path)


def _big_rational(rng, large):
    if large:
        return Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 6))
    return Fraction(rng.randint(-999, 999), rng.randint(1, 97))


def _deep_awareness_text(levels):
    node = '{"owner":"P1","infoset":"I","awareness":[],"moves":[{"move":"m","child":'
    close = "}]}"
    leaf = '{"payoffs":["0"]}'
    return ('{"format":1,"kind":"awareness","modeler":"modeler","F":[],'
            '"games":[{"name":"modeler","players":["P1"],"root":'
            + node * levels + leaf + close * levels + "}]}\n")


def _cli_job(kind, argv, want_code, inspect=None, defect=None):
    def check(output):
        code, out, err = output
        expect(code == want_code,
               f"{' '.join(argv[:2])}: exit {code}, expected {want_code}")
        if inspect is not None:
            inspect(out)

    return Job(kind, lambda: cli_call(argv), check,
               lambda output: [output[0], output[1],
                               hashlib.sha256(output[2].encode()).hexdigest()],
               defect)


def write_documents(rng, workdir):
    """Write the documents the cli-docs jobs read; returns their
    descriptions.  Part of set-up."""
    os.makedirs(workdir, exist_ok=True)
    docs = {"normal-form": [], "primality": [], "awareness": []}
    for i, shape in enumerate(DOC_SHAPES * 2):
        large = i >= len(DOC_SHAPES)
        table = _random_table(rng, shape, lambda: _big_rational(rng, large))
        game = NormalFormGame(_names("p", len(shape)),
                              tuple(_names("a", m) for m in shape), table)
        profile = tuple(rng.randrange(m) for m in shape)
        nash = not oracles.pure_fails(table, shape, profile, 1, 0, False)
        game_path = _write(os.path.join(workdir, f"nf{i}.json"),
                           fileformat.serialize_document(game))
        profile_path = _write(
            os.path.join(workdir, f"nf{i}-profile.json"),
            fileformat.serialize_document(fileformat.ProfileDocument(
                pure=game.profile_names(profile))))
        docs["normal-form"].append((game_path, profile_path, nash))
    for i, bits in enumerate(DOC_PRIME_BITS):
        cost_per_bit = Fraction(rng.randint(1, 34), 2 * bits)
        game = machines.build_primality_game(bits, cost_per_bit)
        path = _write(os.path.join(workdir, f"prime{i}.json"),
                      fileformat.serialize_document(game))
        docs["primality"].append(
            (path, oracles.primality_equilibria(bits, cost_per_bit)))
    for i in range(6):
        tree = trees.ExtensiveGame(*random_tree(rng, i, *TREE_SPECS[2 * i]))
        path = _write(os.path.join(workdir, f"aware{i}.json"),
                      fileformat.serialize_document(
                          awareness.canonical_representation(tree)))
        docs["awareness"].append(path)
    text = fileformat.serialize_document(catalog.prisoners_dilemma())
    docs["bad-rational"] = _write(os.path.join(workdir, "bad-rational.json"),
                                  text.replace('"3"', '"1.5"', 1))
    docs["deep"] = _write(os.path.join(workdir, "deep.json"),
                          _deep_awareness_text(DEEP_LEVELS))
    return docs


def _bundled(name):
    return os.path.relpath(eqcheck.data.path(name))


def _tour_job(j):
    args, code = README_TOUR[j % len(README_TOUR)]
    argv = tuple(_bundled(a[1:]) if a.startswith("@") else a for a in args)
    inspect = None
    if args[:2] == ("enumerate", "pure-robust"):
        def inspect(out):
            expect(json.loads(out)["profiles"] == [["D", "D"]],
                   "tour: dilemma enumeration")
    elif args[:2] == ("repeated", "threshold"):
        def inspect(out):
            expect(out.split("\n")[0].endswith(": 9")
                   and out.split("\n")[1].endswith(": 10"),
                   "tour: threshold values")
    elif args[:2] == ("simulate", "ba"):
        def inspect(out):
            expect(json.loads(out)["scenarios"] == 34, "tour: sweep size")
    return _cli_job("cli-tour", argv, code, inspect)


def _round_trip_job(path):
    with open(path, encoding="utf-8") as handle:
        original = handle.read()

    def call():
        return fileformat.serialize_document(fileformat.load_document(path))

    def check(text):
        expect(text == original, f"round trip of {path} changed bytes")

    return Job("round-trip", call, check,
               lambda text: hashlib.sha256(text.encode()).hexdigest())


def _hostile_job(j, docs):
    game_path, profile_path, _ = docs["normal-form"][0]
    # The deep document escapes ``main`` as an uncaught RecursionError, a
    # known defect: the job then counts as failed without making the run
    # incorrect.  Any other exception does.
    cases = (
        (("check", "robust", "--game", docs["bad-rational"],
          "--profile", _bundled("defect_both.json"), "--k", "1", "--t", "0"), 2,
         None),
        (("check", "robust", "--game", profile_path,
          "--profile", profile_path, "--k", "1", "--t", "0"), 2, None),
        (("enumerate", "pure-robust", "--game", game_path, "--k", "1",
          "--t", "0", "--work-bound", "100"), 3, None),
        (("aware", "validate", "--game", docs["deep"]), 2, RecursionError),
    )
    argv, code, defect = cases[j % len(cases)]
    return _cli_job("hostile", argv, code, defect=defect)


def cli_jobs(rng, count, workdir):
    docs = write_documents(rng, workdir)
    round_trip_paths = ([g for g, _, _ in docs["normal-form"]]
                        + [p for p, _ in docs["primality"]]
                        + docs["awareness"])
    jobs = []
    for kind, j in _quotas(count, CLI_SHARES):
        if kind == "cli-check-robust":
            game_path, profile_path, nash = docs["normal-form"][
                j % len(docs["normal-form"])]

            def inspect(out, nash=nash):
                expect(json.loads(out)["verdict"]["holds"] == nash,
                       "check robust: verdict")

            jobs.append(_cli_job(kind, (
                "check", "robust", "--game", game_path, "--profile",
                profile_path, "--k", "1", "--t", "0", "--format", "json"),
                0 if nash else 1, inspect))
        elif kind == "cli-compgame-check":
            path, found = docs["primality"][j % len(docs["primality"])]
            machine = ("test_and_guess", "always_safe")[
                (j // len(docs["primality"])) % 2]
            jobs.append(_cli_job(kind, (
                "compgame", "check", "--game", path, "--machines", machine,
                "--format", "json"), 0 if (machine,) in found else 1))
        elif kind == "cli-aware-validate":
            path = docs["awareness"][j % len(docs["awareness"])]
            jobs.append(_cli_job(kind, ("aware", "validate", "--game", path),
                                 0))
        elif kind == "cli-tour":
            jobs.append(_tour_job(j))
        elif kind == "round-trip":
            jobs.append(_round_trip_job(
                round_trip_paths[j % len(round_trip_paths)]))
        else:
            jobs.append(_hostile_job(j, docs))
    return jobs


WORKLOADS = {
    "robust-aware": robust_aware_jobs,
    "machines": machine_jobs,
    "cli-docs": cli_jobs,
}
