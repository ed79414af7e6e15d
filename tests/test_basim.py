import json
import time
from fractions import Fraction

import pytest

from eqcheck import basim, cli
from eqcheck.basim import (PROTOCOLS, Scenario, build_adversary_game,
                           build_preference_bayes_game, check_ba,
                           empirical_immunity, run, sweep)
from eqcheck.errors import InputError, WorkBoundExceeded
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


def test_simulate_ba_runs_each_scenario_once(monkeypatch, capsys):
    calls = []
    real_run = basim.run

    def counting_run(*args, **kwargs):
        calls.append(args[0])
        return real_run(*args, **kwargs)

    monkeypatch.setattr(basim, "run", counting_run)
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
