"""Synchronous round-based agreement simulator with a trusted relay node.

n players p0..p{n-1} must settle on the general's 0/1 preference: after the
run, every nonfaulty player must have decided the same value, and when the
general is nonfaulty that value must be its preference.  A message sent in
round r is delivered at the start of round r+1, to exactly its addressee,
with no loss and no reordering; each sender sends at most one payload per
recipient per round.

Faulty players are modeled as corrupted protocol followers: the honest
protocol computes their outbox and a named adversary strategy transforms
it.  A faulty node whose honest outbox is empty therefore stays silent;
the library does not inject arbitrary traffic.

One loop simulates scenarios that differ only in their faults: runs whose
messages have matched so far share each honest step.  This rests on a
contract the model implies: a protocol's initial_state and step, and an
adversary's transform, may read a scenario's shared fields (n, players,
general, preference, mediator_present) but not its faults, and protocol
states are values, which a branch that splits shares by shallow copy.

Everything is deterministic: identical scenarios yield identical
transcripts.  sweep and the adversary-game builders check their arguments
once and build their scenarios trusted, sharing one strategy per name.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import InputError
from .games import (DEFAULT_ENTRY_BOUND, DEFAULT_WORK_BOUND, BayesianGame,
                    NormalFormGame, _bayesian_frame, _normal_frame,
                    _subset_choices, _trusted, bounded_product)
from .verdicts import Verdict, Witness

MEDIATOR_ID = "mediator"

ZERO = Fraction(0)
ONE = Fraction(1)


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


class AdversaryStrategy:
    """A named outbox transform applied to a faulty player each round."""

    def __init__(self, name, transform):
        if not isinstance(name, str) or not name:
            raise InputError("adversary strategy: name must be a nonempty string")
        self.name = name
        self._transform = transform

    def corrupt(self, outbox, round_no, node, scenario):
        return self._transform(outbox, round_no, node, scenario)


def crash_adversary(crash_round=2):
    """Honest before the crash round, silent from it on."""
    if not _is_int(crash_round) or crash_round < 1:
        raise InputError("crash round must be a positive integer")

    def transform(outbox, round_no, node, scenario):
        return dict(outbox) if round_no < crash_round else {}

    return AdversaryStrategy("crash", transform)


def flip_adversary():
    """Negates every 0/1 payload it would honestly send."""

    def transform(outbox, round_no, node, scenario):
        return {r: (1 - v if v in (0, 1) else v) for r, v in outbox.items()}

    return AdversaryStrategy("flip", transform)


def equivocate_adversary():
    """Splits a uniform broadcast: the first half of the recipients (sorted
    by id, rounded down) keeps the payload, the rest get its negation.

    Outboxes that are not a two-plus-recipient uniform 0/1 broadcast are
    left unchanged, so a single message to the relay degenerates to honest
    behavior.
    """

    def transform(outbox, round_no, node, scenario):
        if (len(outbox) < 2 or len(values := set(outbox.values())) != 1
                or not values <= {0, 1}):
            return dict(outbox)
        v = values.pop()
        recipients = sorted(outbox)
        keep = len(recipients) // 2
        return {r: (v if i < keep else 1 - v) for i, r in enumerate(recipients)}

    return AdversaryStrategy("equivocate", transform)


def silent_adversary():
    """Never sends anything."""
    return AdversaryStrategy("silent", lambda outbox, *_: {})


ADVERSARY_LIBRARY = {
    "crash": crash_adversary,
    "flip": flip_adversary,
    "equivocate": equivocate_adversary,
    "silent": silent_adversary,
}

DEFAULT_ADVERSARIES = ("crash", "flip", "equivocate", "silent")


class Scenario:
    """One run setup: player count, general, preference, and who is faulty.

    faults maps player ids to adversary strategies (library names or
    AdversaryStrategy values).  The trusted relay node is never faulty.
    """

    def __init__(self, n, preference, general=None, mediator_present=True,
                 faults=None):
        if not _is_int(n) or n < 1:
            raise InputError("n must be a positive integer")
        if not _is_int(preference) or preference not in (0, 1):
            raise InputError("preference must be 0 or 1")
        self.n = n
        self.players = tuple(f"p{i}" for i in range(n))
        self.preference = preference
        if general is None:
            general = self.players[0]
        if general not in self.players:
            raise InputError(f"unknown general {general!r}")
        self.general = general
        if not isinstance(mediator_present, bool):
            raise InputError("mediator_present must be a boolean")
        self.mediator_present = mediator_present
        fixed = {}
        for player, strategy in (faults or {}).items():
            if player not in self.players:
                raise InputError(f"faults: unknown player {player!r}")
            if isinstance(strategy, str):
                if strategy not in ADVERSARY_LIBRARY:
                    raise InputError(
                        f"faults[{player}]: unknown adversary {strategy!r}")
                strategy = ADVERSARY_LIBRARY[strategy]()
            if not isinstance(strategy, AdversaryStrategy):
                raise InputError(
                    f"faults[{player}]: expected a strategy name or "
                    f"AdversaryStrategy")
            fixed[player] = strategy
        self.faults = fixed

    @property
    def nonfaulty(self):
        return tuple(p for p in self.players if p not in self.faults)

    def fault_names(self):
        return {p: s.name for p, s in self.faults.items()}


class Transcript:
    """Replayable record of one run.

    rounds[r-1] holds the messages sent in round r as sorted
    (sender, recipient, payload) triples; decisions maps every player to
    its decided value or None; decided_round records when each decision
    landed (the round whose step emitted it).  The run loop sets utilities
    and verdict, the run's check_ba.
    """

    def __init__(self, scenario, protocol_name, rounds, decisions,
                 decided_round, timed_out):
        self.scenario = scenario
        self.protocol_name = protocol_name
        self.rounds = rounds
        self.decisions = decisions
        self.decided_round = decided_round
        self.timed_out = timed_out
        self.utilities = {}
        self.verdict = None


class MediatorRelayProtocol:
    """The general tells the trusted relay its preference in round 1; the
    relay forwards one value to every soldier in round 2 (default 0 when it
    heard nothing); soldiers decide on the forwarded value.

    The general decides its own preference at its first step.
    """

    name = "mediator"
    requires_mediator = True

    def initial_state(self, node, scenario):
        return None

    def step(self, node, round_no, state, inbox, scenario):
        if node == MEDIATOR_ID:
            if round_no == 2:
                heard = inbox.get(scenario.general)
                value = heard if heard in (0, 1) else 0
                return {p: value for p in scenario.players
                        if p != scenario.general}, state, None
            return {}, state, None
        if node == scenario.general:
            if round_no == 1:
                outbox = {MEDIATOR_ID: scenario.preference}
                return outbox, state, scenario.preference
            return {}, state, None
        return {}, state, inbox.get(MEDIATOR_ID)


class EchoFirstProtocol:
    """Strawman with no relay: the general broadcasts its preference, and
    every other player adopts the first value it hears (lowest sender id
    first), echoes it to everyone once, and decides it.

    Sound against crashes and silence, but a general sending different
    values to different players splits the decisions.
    """

    name = "echo-first"
    requires_mediator = False

    def initial_state(self, node, scenario):
        return None

    def step(self, node, round_no, state, inbox, scenario):
        if node == scenario.general:
            if round_no == 1:
                others = [p for p in scenario.players if p != node]
                outbox = {p: scenario.preference for p in others}
                return outbox, scenario.preference, scenario.preference
            return {}, state, None
        if state is None and inbox:
            value = inbox[sorted(inbox)[0]]
            others = [p for p in scenario.players if p != node]
            return {p: value for p in others}, value, value
        return {}, state, None


PROTOCOLS = {
    MediatorRelayProtocol.name: MediatorRelayProtocol(),
    EchoFirstProtocol.name: EchoFirstProtocol(),
}


def indicator_utilities(transcript: Transcript):
    """1 for every player when agreement and validity hold among the
    nonfaulty players, else 0 for every player."""
    value = ONE if check_ba(transcript).holds else ZERO
    return {p: value for p in transcript.scenario.players}


def run(scenario: Scenario, protocol, round_cap=None) -> Transcript:
    """Simulate synchronous rounds until every nonfaulty player has decided
    or the round cap hits (reported as a timeout, not an error).

    The round cap defaults to 2n.  Every player's utility is the fixed
    indicator_utilities rule: 1 when agreement and validity hold among the
    nonfaulty players, else 0."""
    return next(_simulate((scenario,), protocol, round_cap))[1]


def _simulate(scenarios, protocol, round_cap=None):
    """The one run loop, over scenarios that differ only in their faults:
    yields (index, transcript) as each run ends.  A branch steps once per
    round for members that have sent the same messages so far, and they
    regroup by the content of what their faulty nodes send.  A message to
    an unknown node raises, after the batch, the error of the first such
    scenario in input order."""
    first = scenarios[0]
    if protocol.requires_mediator and not first.mediator_present:
        raise InputError(
            f"protocol {protocol.name} needs the trusted relay node")
    if round_cap is None:
        round_cap = 2 * first.n
    if not _is_int(round_cap) or round_cap < 1:
        raise InputError("round_cap must be a positive integer")

    players = first.players
    nodes = players + ((MEDIATOR_ID,) if first.mediator_present else ())
    nonfaulty = [s.nonfaulty for s in scenarios]
    failed = (len(scenarios), None)  # the first erring index, its recipient
    # members, states, inboxes, log, decisions, decided_round, undecided
    branches = [(range(len(scenarios)),
                 {node: protocol.initial_state(node, first) for node in nodes},
                 {node: {} for node in nodes}, (), dict.fromkeys(players), {},
                 set(players))]
    round_no = 1  # the round every branch steps next
    while branches:
        children = []
        for members, states, inboxes, log, decisions, decided_round, \
                undecided in branches:
            waiting = []
            for m in members:
                done = undecided.isdisjoint(nonfaulty[m])
                if not done and round_no <= round_cap:
                    waiting.append(m)
                    continue
                transcript = Transcript(scenarios[m], protocol.name, log,
                                        dict(decisions), dict(decided_round),
                                        not done)
                transcript.verdict = check_ba(transcript)
                transcript.utilities = dict.fromkeys(
                    players, ONE if transcript.verdict.holds else ZERO)
                yield m, transcript
            if not waiting:
                continue
            scenario = scenarios[waiting[0]]
            outboxes = {}
            for node in nodes:
                outboxes[node], states[node], decision = protocol.step(
                    node, round_no, states[node], inboxes[node], scenario)
                if decision is not None and node in undecided:
                    decisions[node] = decision
                    decided_round[node] = round_no
                    undecided.discard(node)
            # distinct[node]: its honest outbox, then each other content
            # sent; variant[node, strategy]: an index into distinct[node]
            distinct, variant, groups = {}, {}, {}
            for m in waiting:
                key = ()
                for node, strategy in scenarios[m].faults.items():
                    if (node, strategy) not in variant:
                        out = strategy.corrupt(dict(outboxes[node]), round_no,
                                               node, scenarios[m])
                        seen = distinct.setdefault(node, [outboxes[node]])
                        if out not in seen:
                            seen.append(out)
                        variant[node, strategy] = seen.index(out)
                    if variant[node, strategy]:
                        key += ((node, variant[node, strategy]),)
                groups.setdefault(key, []).append(m)
            for split, (key, group) in enumerate(groups.items()):
                if split:  # states are values: a shallow copy shares them
                    states, decisions, decided_round, undecided = (
                        dict(states), dict(decisions), dict(decided_round),
                        set(undecided))
                sends = outboxes | {node: distinct[node][i]
                                    for node, i in key} if key else outboxes
                pending = {node: {} for node in nodes}
                sent = []
                try:
                    for node, outbox in sends.items():
                        for recipient, payload in outbox.items():
                            pending[recipient][node] = payload
                            sent.append((node, recipient, payload))
                except KeyError:
                    failed = min(failed, (group[0], min(
                        r for r in outbox if r not in pending)))
                    continue
                sent.sort()
                children.append((group, states, pending, log + (tuple(sent),),
                                 decisions, decided_round, undecided))
        branches = children
        round_no += 1
    if failed[0] < len(scenarios):
        raise InputError(f"protocol {protocol.name}: message to unknown node "
                         f"{failed[1]!r}")


def check_ba(transcript: Transcript) -> Verdict:
    """Agreement and validity among the nonfaulty players.

    Fails as incomplete when some nonfaulty player never decided; fails
    with a disagreement witness when two nonfaulty decisions differ; fails
    validity when a nonfaulty general's preference was not adopted.
    """
    scenario = transcript.scenario
    nonfaulty = [p for p in scenario.players if p not in scenario.faults]
    if not nonfaulty:
        # both conditions quantify over nonfaulty players only
        return Verdict(True)
    undecided = [p for p in nonfaulty if transcript.decisions.get(p) is None]
    if undecided:
        return Verdict(False, Witness(
            kind="undecided",
            description=f"nonfaulty players never decided: "
                        f"{', '.join(undecided)}",
            data={"players": undecided, "timed_out": transcript.timed_out},
        ), incomplete=True)
    first = nonfaulty[0]
    for p in nonfaulty[1:]:
        if transcript.decisions[p] != transcript.decisions[first]:
            return Verdict(False, Witness(
                kind="disagreement",
                description=(
                    f"{first} decided {transcript.decisions[first]} but "
                    f"{p} decided {transcript.decisions[p]}"),
                data={"player_a": first, "value_a": transcript.decisions[first],
                      "player_b": p, "value_b": transcript.decisions[p]}))
    if scenario.general not in scenario.faults:
        agreed = transcript.decisions[first]
        if agreed != scenario.preference:
            return Verdict(False, Witness(
                kind="invalid-decision",
                description=(
                    f"the general is nonfaulty with preference "
                    f"{scenario.preference} but the decision is {agreed}"),
                data={"general": scenario.general,
                      "preference": scenario.preference, "decision": agreed}))
    return Verdict(True)


def _checked(n, protocol, adversaries, preferences, where):
    """One strategy per adversary name, in adversaries' order, and the
    shared scenario fields, after the checks Scenario would make."""
    if not _is_int(n) or n < 1:
        raise InputError("n must be a positive integer")
    for name in adversaries:
        if not isinstance(name, str) or name not in ADVERSARY_LIBRARY:
            raise InputError(
                f"{where.format(n - 1)}unknown adversary {name!r}")
    if not all(_is_int(p) and p in (0, 1) for p in preferences):
        raise InputError("preference must be 0 or 1")
    made = {name: ADVERSARY_LIBRARY[name]() for name in adversaries}
    players = tuple(f"p{i}" for i in range(n))
    return tuple(made[name] for name in adversaries), dict(
        n=n, players=players, general=players[0],
        mediator_present=protocol.requires_mediator)


class SweepReport:
    """Every scenario of a sweep with its transcript and verdict."""

    def __init__(self, entries):
        self.entries = tuple(entries)

    @property
    def total(self):
        return len(self.entries)

    def failures(self):
        return [e for e in self.entries if not e[2].holds]

    @property
    def all_hold(self):
        return all(verdict.holds for _, _, verdict in self.entries)

    def immunity(self) -> Verdict:
        """No nonfaulty player's utility drops below its fault-free baseline
        anywhere in the sweep; the baselines are the sweep's own fault-free
        entries, so no scenario is run twice."""
        baselines = {
            scenario.preference: transcript.utilities
            for scenario, transcript, _ in self.entries if not scenario.faults
        }
        for scenario, transcript, _ in self.entries:
            if not scenario.faults:
                continue
            base = baselines[scenario.preference]
            for player in scenario.nonfaulty:
                if transcript.utilities[player] < base[player]:
                    names = scenario.fault_names()
                    described = ", ".join(
                        f"{p} playing {s}" for p, s in sorted(names.items()))
                    return Verdict(False, Witness(
                        kind="harmed-player",
                        description=(
                            f"player {player} drops from {base[player]} to "
                            f"{transcript.utilities[player]} under "
                            f"{described} (preference {scenario.preference})"),
                        data={
                            "player": player, "utility_before": base[player],
                            "utility_after": transcript.utilities[player],
                            "preference": scenario.preference, "faults": names,
                            "decisions": dict(transcript.decisions),
                            "timed_out": transcript.timed_out}))
        return Verdict(True)


def sweep(n, t, protocol, adversaries=DEFAULT_ADVERSARIES,
          preferences=(0, 1), work_bound=DEFAULT_WORK_BOUND) -> SweepReport:
    """Run every (preference, fault set of size <= t, adversary assignment)
    combination, fault-free first within each preference; work_bound caps
    the runs, counted before the first."""
    if not _is_int(t) or t < 0:
        raise InputError("t must be a nonnegative integer")
    if not _is_int(n) or t >= n:
        raise InputError("need n > t (some player must stay honest)")
    bounded_product(
        (len(preferences), 1 + _subset_choices(n, t, len(adversaries))),
        work_bound, "simulations")
    strategies, fields = _checked(n, protocol, adversaries, preferences, "")
    entries = []
    for preference in preferences:
        scenarios = [
            _trusted(Scenario, preference=preference,
                     faults=dict(zip(members, chosen)), **fields)
            for size in range(t + 1)
            for members in itertools.combinations(fields["players"], size)
            for chosen in itertools.product(strategies, repeat=size)]
        transcripts = dict(_simulate(scenarios, protocol))
        entries.extend((scenario, transcripts[i], transcripts[i].verdict)
                       for i, scenario in enumerate(scenarios))
    return SweepReport(entries)


def empirical_immunity(n, t, protocol, adversaries=DEFAULT_ADVERSARIES,
                       preferences=(0, 1),
                       work_bound=DEFAULT_WORK_BOUND) -> Verdict:
    """No nonfaulty player's utility drops below its fault-free baseline
    anywhere in the sweep.

    This is the simulation analogue of tolerating t arbitrary deviators,
    restricted to the named adversary library.
    """
    return sweep(n, t, protocol, adversaries, preferences,
                 work_bound).immunity()


def _fault_table(protocol, strategies, fields, preference):
    """Utilities of every profile where each player follows (action 0) or
    plays strategies[a - 1] (action a), one batch: the table of both
    adversary-game builders."""
    players = fields["players"]
    keys = list(itertools.product(range(1 + len(strategies)),
                                  repeat=len(players)))
    table = dict.fromkeys(keys)
    for i, transcript in _simulate([_trusted(
            Scenario, preference=preference, faults={
                players[j]: strategies[a - 1] for j, a in enumerate(key) if a},
            **fields) for key in keys], protocol):
        table[keys[i]] = tuple(transcript.utilities[p] for p in players)
    return table


def build_adversary_game(n, protocol, adversaries=DEFAULT_ADVERSARIES,
                         preference=0) -> NormalFormGame:
    """The one-shot game where each player either follows the protocol or
    plays a library adversary; payoffs come from simulating each profile.

    Immunity checks on this game agree with empirical_immunity restricted
    to the same library (the cross-check used at small n).
    """
    strategies, fields = _checked(n, protocol, adversaries, (preference,),
                                  "faults[p{}]: ")
    players, actions, _ = _normal_frame(
        fields["players"], (("follow",) + tuple(adversaries),) * n,
        DEFAULT_ENTRY_BOUND)
    return _trusted(NormalFormGame, players=players, actions=actions,
                    payoffs=_fault_table(protocol, strategies, fields,
                                         preference))


def build_preference_bayes_game(
        n, protocol, adversaries=DEFAULT_ADVERSARIES) -> BayesianGame:
    """The Bayesian version: the general's type is its preference (uniform
    over 0/1), every other player has one type, and actions are follow or
    a library adversary."""
    strategies, fields = _checked(n, protocol, adversaries, (),
                                  "faults[p{}]: ")
    players, types, actions, _ = _bayesian_frame(
        fields["players"], (("0", "1"),) + (("-",),) * (n - 1),
        (("follow",) + tuple(adversaries),) * n, DEFAULT_ENTRY_BOUND)
    prior = {(t,) + (0,) * (n - 1): Fraction(1, 2) for t in range(2)}
    utilities = {
        (tkey, akey): payoffs for tkey in prior
        for akey, payoffs in _fault_table(
            protocol, strategies, fields, tkey[0]).items()}
    return _trusted(BayesianGame, players=players, types=types,
                    actions=actions, prior=prior, utilities=utilities)
