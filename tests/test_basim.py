import itertools
import json
import time
from fractions import Fraction

import pytest

from eqcheck import basim, cli
from eqcheck.basim import (PROTOCOLS, Scenario, build_adversary_game,
                           build_preference_bayes_game, check_ba,
                           empirical_immunity, run, sweep)
from eqcheck.errors import InputError, WorkBoundExceeded
from eqcheck.fileformat import parse_document, serialize_document
from eqcheck.games import MixedProfile
from eqcheck.robustness import check_immunity

F = Fraction

MEDIATOR = PROTOCOLS["mediator"]
ECHO = PROTOCOLS["echo-first"]


def test_mediator_trace_fault_free():
    transcript = run(Scenario(4, 1), MEDIATOR)
    assert transcript.protocol_name == "mediator"
    assert transcript.rounds == (
        (("p0", "mediator", 1),),
        (("mediator", "p1", 1), ("mediator", "p2", 1),
         ("mediator", "p3", 1)),
        (),
    )
    assert transcript.decisions == {"p0": 1, "p1": 1, "p2": 1, "p3": 1}
    assert transcript.decided_round == {"p0": 1, "p1": 3, "p2": 3, "p3": 3}
    assert not transcript.timed_out
    assert transcript.utilities == {p: 1 for p in transcript.scenario.players}
    assert check_ba(transcript).holds


def test_runs_are_deterministic():
    a = run(Scenario(4, 0, faults={"p2": "flip"}), MEDIATOR)
    b = run(Scenario(4, 0, faults={"p2": "flip"}), MEDIATOR)
    assert a.rounds == b.rounds
    assert a.decisions == b.decisions
    assert a.decided_round == b.decided_round
    assert a.utilities == b.utilities


def test_mediator_sweep_all_hold():
    report = sweep(4, 1, MEDIATOR)
    assert report.total == 34
    assert report.all_hold
    assert report.failures() == []


def test_mediator_sweep_t_zero():
    report = sweep(4, 0, MEDIATOR)
    assert report.total == 2
    assert report.all_hold


def test_single_recipient_equivocation_degenerates():
    """An equivocating general talking only to the relay acts honestly."""
    report = sweep(4, 1, MEDIATOR)
    entries = [
        (scenario, verdict)
        for scenario, _, verdict in report.entries
        if scenario.fault_names() == {"p0": "equivocate"}
    ]
    assert len(entries) == 2
    assert all(verdict.holds for _, verdict in entries)


def test_faulty_general_variants_still_agree():
    for adversary in ("crash", "flip", "silent"):
        transcript = run(
            Scenario(4, 1, faults={"p0": adversary}), MEDIATOR)
        verdict = check_ba(transcript)
        assert verdict.holds, adversary


def test_mediator_empirical_immunity_holds():
    assert empirical_immunity(4, 1, MEDIATOR).holds


def test_echo_first_failure_modes():
    report = sweep(4, 1, ECHO)
    assert report.total == 34
    failures = report.failures()
    assert len(failures) == 4
    summary = sorted(
        (scenario.preference, scenario.fault_names()["p0"],
         verdict.witness.kind)
        for scenario, _, verdict in failures)
    assert summary == [
        (0, "equivocate", "disagreement"),
        (0, "silent", "undecided"),
        (1, "equivocate", "disagreement"),
        (1, "silent", "undecided"),
    ]


def test_echo_first_immunity_witness():
    verdict = empirical_immunity(4, 1, ECHO)
    assert not verdict.holds
    w = verdict.witness
    assert w.kind == "harmed-player"
    assert w.data["player"] == "p1"
    assert w.data["preference"] == 0
    assert w.data["faults"] == {"p0": "equivocate"}
    assert w.data["utility_before"] == 1
    assert w.data["utility_after"] == 0
    assert w.data["decisions"] == {"p0": 0, "p1": 0, "p2": 1, "p3": 1}


def _count_runs(monkeypatch):
    """Every scenario handed to the run loop, batch by batch."""
    calls = []
    real_simulate = basim._simulate

    def counting_simulate(scenarios, *args, **kwargs):
        calls.extend(scenarios)
        return real_simulate(scenarios, *args, **kwargs)

    monkeypatch.setattr(basim, "_simulate", counting_simulate)
    return calls


def test_simulate_ba_runs_each_scenario_once(monkeypatch, capsys):
    calls = _count_runs(monkeypatch)
    verdict = empirical_immunity(4, 1, ECHO)
    assert len(calls) == 34
    # the same witness as the README's failing example, harm scan unchanged
    assert verdict.witness.description == (
        "player p1 drops from 1 to 0 under p0 playing equivocate "
        "(preference 0)")
    assert verdict.witness.data == {
        "player": "p1", "utility_before": 1, "utility_after": 0,
        "preference": 0, "faults": {"p0": "equivocate"},
        "decisions": {"p0": 0, "p1": 0, "p2": 1, "p3": 1},
        "timed_out": False,
    }

    calls.clear()
    code = cli.main(["simulate", "ba", "--n", "4", "--t", "1",
                     "--protocol", "echo-first", "--report", "json"])
    assert code == 1
    assert len(calls) == 34
    report = json.loads(capsys.readouterr().out)
    assert report["immunity"]["witness"]["description"] == (
        verdict.witness.description)


def test_single_player_degenerate_run():
    transcript = run(Scenario(1, 1), MEDIATOR)
    assert transcript.decisions == {"p0": 1}
    assert check_ba(transcript).holds


def test_check_ba_on_doctored_transcripts():
    transcript = run(Scenario(4, 1), MEDIATOR)

    transcript.decisions["p2"] = 0
    disagreement = check_ba(transcript)
    assert not disagreement.holds
    assert disagreement.witness.kind == "disagreement"
    assert disagreement.witness.data["player_b"] == "p2"

    transcript.decisions["p2"] = None
    undecided = check_ba(transcript)
    assert not undecided.holds
    assert undecided.incomplete
    assert undecided.witness.kind == "undecided"
    assert undecided.witness.data["players"] == ["p2"]

    for p in transcript.decisions:
        transcript.decisions[p] = 0
    invalid = check_ba(transcript)
    assert not invalid.holds
    assert invalid.witness.kind == "invalid-decision"
    assert invalid.witness.data["general"] == "p0"
    assert invalid.witness.data["preference"] == 1
    assert invalid.witness.data["decision"] == 0


class _StallProtocol:
    """Never sends, never decides; every run times out."""

    name = "stall"
    requires_mediator = False

    def initial_state(self, node, scenario):
        return None

    def step(self, node, round_no, state, inbox, scenario):
        return {}, state, None


def test_stalling_protocol_times_out():
    transcript = run(Scenario(3, 0, mediator_present=False), _StallProtocol())
    assert transcript.timed_out
    assert len(transcript.rounds) == 2 * 3
    verdict = check_ba(transcript)
    assert not verdict.holds
    assert verdict.incomplete
    assert verdict.witness.data["timed_out"]


def test_round_cap_is_respected():
    transcript = run(Scenario(3, 0, mediator_present=False),
                     _StallProtocol(), round_cap=2)
    assert len(transcript.rounds) == 2
    with pytest.raises(InputError):
        run(Scenario(3, 0, mediator_present=False), _StallProtocol(),
            round_cap=0)


def test_scenario_validation():
    with pytest.raises(InputError):
        Scenario(0, 1)
    with pytest.raises(InputError):
        Scenario(3, 2)
    with pytest.raises(InputError):
        Scenario(3, 0, general="p9")
    with pytest.raises(InputError):
        Scenario(3, 0, faults={"p9": "flip"})
    with pytest.raises(InputError):
        Scenario(3, 0, faults={"p1": "gremlin"})
    with pytest.raises(InputError):
        Scenario(3, 0, mediator_present="yes")
    with pytest.raises(InputError):
        run(Scenario(3, 0, mediator_present=False), MEDIATOR)
    with pytest.raises(InputError):
        sweep(3, 3, MEDIATOR)
    with pytest.raises(InputError):
        sweep(3, 1, MEDIATOR, adversaries=("gremlin",))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: basim.AdversaryStrategy("", lambda *args: args),
                 "adversary strategy: name must be a nonempty string",
                 id="adversary-name"),
    pytest.param(lambda: Scenario(4, 1, faults={"p1": 5}),
                 "faults[p1]: expected a strategy name or AdversaryStrategy",
                 id="fault-value"),
    pytest.param(lambda: sweep(4, -1, MEDIATOR),
                 "t must be a nonnegative integer", id="negative-t"),
])
def test_fault_and_sweep_refusals(call, message):
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message


def test_adversary_game_matches_empirical_immunity():
    for protocol in (MEDIATOR, ECHO):
        game = build_adversary_game(3, protocol)
        assert game.players == ("p0", "p1", "p2")
        assert game.actions[0] == (
            "follow", "crash", "flip", "equivocate", "silent")
        profile = MixedProfile.pure(game, ("follow",) * 3)
        induced = check_immunity(game, profile, 1)
        empirical = empirical_immunity(3, 1, protocol, preferences=(0,))
        assert induced.holds == empirical.holds


@pytest.mark.parametrize("build, n, message", [
    (build_adversary_game, 11,
     "48828125 payoff entries exceed the bound 10000000"),
    (build_preference_bayes_game, 10,
     "19531250 utility entries exceed the bound 10000000"),
])
def test_adversary_builders_refuse_before_simulating(build, n, message):
    start = time.perf_counter()
    with pytest.raises(WorkBoundExceeded, match=f"^{message}$"):
        build(n, MEDIATOR)
    assert time.perf_counter() - start < 1


# --- differential test against the pre-optimisation run loop --------------

def _reference_run(scenario, protocol, round_cap=None):
    """The run loop as it was before sweeps built trusted scenarios: every
    outbox copied and sorted, the nonfaulty set rescanned every round."""
    if protocol.requires_mediator and not scenario.mediator_present:
        raise InputError(
            f"protocol {protocol.name} needs the trusted relay node")
    if round_cap is None:
        round_cap = 2 * scenario.n
    if not isinstance(round_cap, int) or round_cap < 1:
        raise InputError("round_cap must be a positive integer")

    nodes = list(scenario.players)
    if scenario.mediator_present:
        nodes.append(basim.MEDIATOR_ID)
    states = {node: protocol.initial_state(node, scenario) for node in nodes}
    decisions = {p: None for p in scenario.players}
    decided_round = {}
    pending = {node: {} for node in nodes}
    log = []
    timed_out = False
    round_no = 0
    while True:
        if all(decisions[p] is not None for p in scenario.nonfaulty):
            break
        if round_no >= round_cap:
            timed_out = True
            break
        round_no += 1
        inboxes = pending
        pending = {node: {} for node in nodes}
        sent = []
        for node in nodes:
            outbox, states[node], decision = protocol.step(
                node, round_no, states[node], inboxes[node], scenario)
            outbox = dict(outbox)
            if node in scenario.faults:
                outbox = scenario.faults[node].corrupt(
                    outbox, round_no, node, scenario)
            for recipient in sorted(outbox):
                if recipient not in pending:
                    raise InputError(
                        f"protocol {protocol.name}: message to unknown node "
                        f"{recipient!r}")
                pending[recipient][node] = outbox[recipient]
                sent.append((node, recipient, outbox[recipient]))
            if (decision is not None and node in decisions
                    and decisions[node] is None):
                decisions[node] = decision
                decided_round[node] = round_no
        sent.sort()
        log.append(tuple(sent))

    transcript = basim.Transcript(scenario, protocol.name, tuple(log),
                                  decisions, decided_round, timed_out)
    transcript.utilities = basim.indicator_utilities(transcript)
    return transcript


def _reference_flip(outbox, round_no, node, scenario):
    return {
        rcpt: (1 - v if v in (0, 1) else v) for rcpt, v in outbox.items()
    }


def _reference_equivocate(outbox, round_no, node, scenario):
    if len(outbox) < 2:
        return dict(outbox)
    values = set(outbox.values())
    if len(values) != 1:
        return dict(outbox)
    v = values.pop()
    if v not in (0, 1):
        return dict(outbox)
    recipients = sorted(outbox)
    keep = len(recipients) // 2
    return {
        rcpt: (v if i < keep else 1 - v)
        for i, rcpt in enumerate(recipients)
    }


_REFERENCE_ADVERSARIES = {
    "crash": basim.crash_adversary,
    "flip": lambda: basim.AdversaryStrategy("flip", _reference_flip),
    "equivocate": lambda: basim.AdversaryStrategy(
        "equivocate", _reference_equivocate),
    "silent": basim.silent_adversary,
}


def _reference_scenario(n, preference, names, protocol):
    """A validated scenario with fresh reference strategies."""
    faults = {p: _REFERENCE_ADVERSARIES[name]() for p, name in names.items()}
    return Scenario(n, preference, faults=faults,
                    mediator_present=protocol.requires_mediator)


def _reference_assignments(n, t, adversaries):
    players = [f"p{i}" for i in range(n)]
    yield {}
    for size in range(1, t + 1):
        for members in itertools.combinations(players, size):
            for names in itertools.product(adversaries, repeat=size):
                yield dict(zip(members, names))


def _same_transcript(got, want):
    assert got.protocol_name == want.protocol_name
    assert got.rounds == want.rounds
    assert got.decisions == want.decisions
    assert got.decided_round == want.decided_round
    assert got.timed_out == want.timed_out
    assert got.utilities == want.utilities


@pytest.mark.parametrize("protocol", [MEDIATOR, ECHO], ids=lambda p: p.name)
def test_sweeps_match_the_reference_run(protocol):
    """Every scenario with n <= 5 and t <= 2, in the reference order, gives
    the reference transcript and check_ba verdict."""
    adversaries = basim.DEFAULT_ADVERSARIES
    for n in range(1, 6):
        for t in range(min(2, n - 1) + 1):
            report = sweep(n, t, protocol)
            expected = [
                (preference, names) for preference in (0, 1)
                for names in _reference_assignments(n, t, adversaries)]
            assert report.total == len(expected)
            for (scenario, transcript, verdict), (preference, names) in zip(
                    report.entries, expected):
                assert scenario.preference == preference
                assert scenario.fault_names() == names
                assert transcript.scenario is scenario
                want = _reference_run(
                    _reference_scenario(n, preference, names, protocol),
                    protocol)
                _same_transcript(transcript, want)
                assert verdict == check_ba(want)
                assert transcript.verdict == verdict
                # a run of the sweep's own scenario repeats it
                _same_transcript(run(scenario, protocol), want)


@pytest.mark.parametrize("protocol", [MEDIATOR, ECHO], ids=lambda p: p.name)
def test_round_caps_match_the_reference_run(protocol):
    for scenario, _, _ in sweep(4, 1, protocol).entries:
        names = scenario.fault_names()
        for cap in (1, 2, 3):
            want = _reference_run(_reference_scenario(
                4, scenario.preference, names, protocol), protocol, cap)
            got = run(scenario, protocol, cap)
            _same_transcript(got, want)
            assert got.verdict == check_ba(want)


def _reference_table(n, protocol, preference):
    players = [f"p{i}" for i in range(n)]
    choices = ("follow",) + basim.DEFAULT_ADVERSARIES
    table = {}
    for key in itertools.product(range(len(choices)), repeat=n):
        names = {players[i]: choices[a] for i, a in enumerate(key) if a}
        transcript = _reference_run(
            _reference_scenario(n, preference, names, protocol), protocol)
        table[key] = tuple(transcript.utilities[p] for p in players)
    return table


@pytest.mark.parametrize("protocol", [MEDIATOR, ECHO], ids=lambda p: p.name)
@pytest.mark.parametrize("n", [3, 4])
def test_builders_match_the_reference_table(protocol, n):
    tables = {p: _reference_table(n, protocol, p) for p in (0, 1)}
    players = tuple(f"p{i}" for i in range(n))
    actions = (("follow",) + basim.DEFAULT_ADVERSARIES,) * n
    for preference in (0, 1):
        game = build_adversary_game(n, protocol, preference=preference)
        assert (game.players, game.actions) == (players, actions)
        assert list(game.payoffs.items()) == list(
            tables[preference].items())
    bayes = build_preference_bayes_game(n, protocol)
    assert (bayes.players, bayes.actions) == (players, actions)
    assert bayes.types == (("0", "1"),) + (("-",),) * (n - 1)
    assert bayes.prior == {(t,) + (0,) * (n - 1): F(1, 2) for t in (0, 1)}
    assert list(bayes.utilities.items()) == [
        (((t,) + (0,) * (n - 1), key), payoffs)
        for t in (0, 1) for key, payoffs in tables[t].items()]


class _GhostProtocol:
    """The general messages a known node and two unknown ones."""

    name = "ghost"
    requires_mediator = False

    def initial_state(self, node, scenario):
        return None

    def step(self, node, round_no, state, inbox, scenario):
        if node == scenario.general:
            return {"zeta": 1, "p1": 0, "alpha": 0}, state, 0
        return {}, state, None


def test_unknown_recipient_named_in_sorted_order():
    scenario = Scenario(3, 0, mediator_present=False)
    for simulate in (run, _reference_run):
        with pytest.raises(InputError, match=(
                "^protocol ghost: message to unknown node 'alpha'$")):
            simulate(scenario, _GhostProtocol())


def test_sweep_work_bound(monkeypatch):
    calls = _count_runs(monkeypatch)
    with pytest.raises(WorkBoundExceeded,
                       match="^34 simulations exceed the bound 33$"):
        sweep(4, 1, MEDIATOR, work_bound=33)
    with pytest.raises(WorkBoundExceeded,
                       match="^17 simulations exceed the bound 16$"):
        empirical_immunity(4, 1, ECHO, preferences=(0,), work_bound=16)
    assert calls == []
    assert sweep(4, 1, MEDIATOR, work_bound=34).total == 34
    assert len(calls) == 34


def test_sweep_refuses_a_huge_t_before_any_run(monkeypatch):
    """At t = n - 1 a sweep of two preferences and four adversaries counts
    2 * (5^n - 4^n) runs, so a million players are refused at once, with
    the count's exact bit length."""
    calls = _count_runs(monkeypatch)
    n = 1_000_000
    bits = (2 * (5 ** n - 4 ** n)).bit_length() - 1
    with pytest.raises(WorkBoundExceeded) as info:
        sweep(n, n - 1, MEDIATOR)
    assert str(info.value) == (
        f"over 2^{bits} simulations exceed the bound 10000000")
    assert calls == []


@pytest.mark.parametrize("build", [build_adversary_game,
                                   build_preference_bayes_game])
@pytest.mark.parametrize("n, adversaries, message", [
    (0, ("flip",), "n must be a positive integer"),
    (-1, ("flip",), "n must be a positive integer"),
    (2.5, ("flip",), "n must be a positive integer"),
    ("3", ("flip",), "n must be a positive integer"),
    (3, ("flip", "gremlin"), "faults[p2]: unknown adversary 'gremlin'"),
    (3, ("flip", "flip", "gremlin"),
     "faults[p2]: unknown adversary 'gremlin'"),
    (3, ("flip", "flip"), "actions of player p0: names must be unique"),
])
def test_builder_input_errors(build, n, adversaries, message):
    with pytest.raises(InputError) as info:
        build(n, MEDIATOR, adversaries)
    assert str(info.value) == message


@pytest.mark.parametrize("build", [build_adversary_game,
                                   build_preference_bayes_game])
def test_builders_refuse_duplicates_before_simulating(build, monkeypatch):
    calls = _count_runs(monkeypatch)
    with pytest.raises(InputError):
        build(3, MEDIATOR, ("flip", "flip"))
    assert calls == []


# --- runs that share their message history ---------------------------------

class _CountingSteps:
    """Wraps a protocol and counts its honest steps."""

    def __init__(self, inner):
        self.inner, self.steps = inner, 0
        self.name = inner.name
        self.requires_mediator = inner.requires_mediator

    def initial_state(self, node, scenario):
        return self.inner.initial_state(node, scenario)

    def step(self, *args):
        self.steps += 1
        return self.inner.step(*args)


def test_runs_with_one_message_history_step_once():
    """A flipped or silenced soldier under the relay protocol sends nothing,
    so most of the 625 fault profiles share their steps: 4,895 steps when
    every profile ran alone, at most 100 when outboxes group by content."""
    counting = _CountingSteps(MEDIATOR)
    game = build_adversary_game(4, counting)
    assert counting.steps <= 100
    assert list(game.payoffs.items()) == list(
        _reference_table(4, MEDIATOR, 0).items())


class _ParityProtocol:
    """Every node keeps the parity of all it has heard, the general starting
    from its preference.  Player pi sends its parity to the others in
    rounds i + 1 and i + 2, and every player decides its parity in round
    n + 2.  What a node sends depends on what it heard, and faults at pi
    first show in round i + 1, so histories split in several rounds."""

    name = "parity"
    requires_mediator = False

    def initial_state(self, node, scenario):
        return scenario.preference if node == scenario.general else 0

    def step(self, node, round_no, state, inbox, scenario):
        state = (state + sum(inbox.values())) % 2
        if 0 <= round_no - 1 - scenario.players.index(node) <= 1:
            others = [p for p in scenario.players if p != node]
            return dict.fromkeys(others, state), state, None
        return {}, state, state if round_no == scenario.n + 2 else None


def test_stateful_protocol_sweeps_match_the_reference_run():
    protocol = _ParityProtocol()
    histories = {}
    for n in range(1, 5):
        for t in range(min(2, n - 1) + 1):
            report = sweep(n, t, protocol)
            expected = [
                (preference, names) for preference in (0, 1)
                for names in _reference_assignments(
                    n, t, basim.DEFAULT_ADVERSARIES)]
            assert report.total == len(expected)
            for (scenario, transcript, verdict), (preference, names) in zip(
                    report.entries, expected):
                assert scenario.preference == preference
                assert scenario.fault_names() == names
                want = _reference_run(
                    _reference_scenario(n, preference, names, protocol),
                    protocol)
                _same_transcript(transcript, want)
                assert verdict == check_ba(want)
                if (n, t) == (4, 2):
                    for r in (1, 2, 3, 4):
                        histories.setdefault(r, set()).add(
                            (preference, transcript.rounds[:r]))
    # the branches split again in each of the first four rounds
    counts = [len(histories[r]) for r in (1, 2, 3, 4)]
    assert all(a < b for a, b in zip(counts, counts[1:]))
    game = build_adversary_game(3, protocol)
    assert list(game.payoffs.items()) == list(
        _reference_table(3, protocol, 0).items())


class _GhostByValueProtocol:
    """The general broadcasts its preference, and each soldier echoes what
    it heard to the other soldiers in round 2.  In round 3 a soldier that
    hears a peer disagree messages ghost<its value>; in round 4 one that
    heard 1 from the general messages ghost1.  Soldiers decide in round 5."""

    name = "ghost-by-value"
    requires_mediator = False

    def initial_state(self, node, scenario):
        return None

    def step(self, node, round_no, state, inbox, scenario):
        general = scenario.general
        if node == general:
            if round_no == 1:
                others = [p for p in scenario.players if p != node]
                outbox = dict.fromkeys(others, scenario.preference)
                return outbox, state, scenario.preference
            return {}, state, None
        if round_no == 2:
            state = inbox.get(general, 0)
            peers = [p for p in scenario.players if p not in (node, general)]
            return dict.fromkeys(peers, state), state, None
        if round_no == 3 and any(v != state for v in inbox.values()):
            return {f"ghost{state}": state}, state, None
        if round_no == 4 and state == 1:
            return {"ghost1": 1}, state, None
        return {}, state, state if round_no == 5 else None


def _reference_errors(scenarios, protocol, round_cap=None):
    """The unknown-recipient message of each scenario run alone, or None."""
    messages = []
    for scenario in scenarios:
        try:
            _reference_run(scenario, protocol, round_cap)
            messages.append(None)
        except InputError as err:
            messages.append(str(err))
    return messages


def test_unknown_recipient_is_the_first_in_input_order():
    """A later scenario errs in an earlier round than the first erring one;
    the batch still raises what the first, in input order, raises alone."""
    protocol = _GhostByValueProtocol()
    ghost = "protocol ghost-by-value: message to unknown node {!r}"
    scenarios = [
        _reference_scenario(3, preference, names, protocol)
        for preference in (0, 1)
        for names in _reference_assignments(3, 1, basim.DEFAULT_ADVERSARIES)]
    errors = _reference_errors(scenarios, protocol)
    first = next(i for i, message in enumerate(errors) if message)
    assert errors[first] == ghost.format("ghost1")
    # the first erring scenario gets through round 3, a later one does not
    by_round_3 = _reference_errors(scenarios, protocol, 3)
    assert by_round_3[first] is None
    assert ghost.format("ghost0") in by_round_3[first + 1:]
    with pytest.raises(InputError, match=f"^{errors[first]}$"):
        sweep(3, 1, protocol)

    choices = ("follow",) + basim.DEFAULT_ADVERSARIES
    table_errors = _reference_errors([
        _reference_scenario(3, 0, {f"p{i}": choices[a]
                                   for i, a in enumerate(key) if a}, protocol)
        for key in itertools.product(range(len(choices)), repeat=3)],
        protocol)
    with pytest.raises(InputError, match=(
            f"^{next(message for message in table_errors if message)}$")):
        build_adversary_game(3, protocol)


# --- bool is not an int -----------------------------------------------------

@pytest.mark.parametrize("call, message", [
    (lambda: Scenario(4, True), "preference must be 0 or 1"),
    (lambda: sweep(4, 1, MEDIATOR, preferences=(True,)),
     "preference must be 0 or 1"),
    (lambda: run(Scenario(4, 1), MEDIATOR, round_cap=True),
     "round_cap must be a positive integer"),
])
def test_bools_are_refused_where_ints_are_asked(call, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        call()


def test_every_accepted_scenario_round_trips():
    accepted = []
    for preference in (0, 1, False, True, 1.0):
        try:
            scenario = Scenario(4, preference)
        except InputError:
            continue
        accepted.append(preference)
        text = serialize_document(scenario)
        assert serialize_document(parse_document(text).value) == text
    assert accepted == [0, 1]
    assert [type(p) for p in accepted] == [int, int]
