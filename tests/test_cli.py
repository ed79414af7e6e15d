import json
import re
import runpy
import sys
import warnings

import pytest

import eqcheck.data as data
from eqcheck import cli, machines, repeated
from eqcheck.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def path(name):
    return str(data.path(name))


def test_check_robust_holds(capsys):
    code, out, err = run_cli(
        capsys, "check", "robust",
        "--game", path("zero_one_3.json"),
        "--profile", path("all_zero.json"),
        "--k", "1", "--t", "0")
    assert code == 0
    assert "holds" in out
    assert err == ""


def test_check_robust_fails_with_witness(capsys):
    code, out, _ = run_cli(
        capsys, "check", "robust",
        "--game", path("zero_one_3.json"),
        "--profile", path("all_zero.json"),
        "--k", "2", "--t", "0")
    assert code == 1
    assert "fails" in out
    assert "coalition-deviation" in out


def test_check_robust_json_report(capsys):
    args = ("check", "robust",
            "--game", path("zero_one_3.json"),
            "--profile", path("all_zero.json"),
            "--k", "2", "--t", "0", "--format", "json")
    code, out, _ = run_cli(capsys, *args)
    assert code == 1
    report = json.loads(out)
    assert report["format"] == 1
    assert report["command"] == ["check", "robust"]
    assert report["k"] == 2
    assert report["verdict"]["holds"] is False
    witness = report["verdict"]["witness"]
    assert witness["kind"] == "coalition-deviation"
    assert witness["data"]["semantics"] == "strong"
    code2, out2, _ = run_cli(capsys, *args)
    assert (code2, out2) == (code, out)


def test_check_robust_epsilon_flag(capsys):
    code, out, _ = run_cli(
        capsys, "check", "robust",
        "--game", path("zero_one_3.json"),
        "--profile", path("all_zero.json"),
        "--k", "2", "--t", "0", "--epsilon", "1")
    assert code == 0
    report_code, out, _ = run_cli(
        capsys, "check", "robust",
        "--game", path("zero_one_3.json"),
        "--profile", path("all_zero.json"),
        "--k", "2", "--t", "0", "--epsilon", "0.5")
    assert report_code == 2


def test_enumerate_pure_robust(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "pure-robust",
        "--game", path("prisoners_dilemma.json"),
        "--k", "1", "--t", "0", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 1
    assert report["profiles"] == [["D", "D"]]


def test_enumerate_respects_work_bound(capsys):
    code, out, err = run_cli(
        capsys, "enumerate", "pure-robust",
        "--game", path("bargaining_5.json"),
        "--k", "1", "--t", "0", "--work-bound", "1")
    assert code == 3
    assert err.startswith("error:")
    assert out == ""


def test_missing_file_is_a_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "check", "robust",
        "--game", "/no/such/file.json",
        "--profile", path("all_zero.json"),
        "--k", "1", "--t", "0")
    assert code == 2
    assert "cannot read" in err


def test_wrong_document_kind(capsys):
    code, _, err = run_cli(
        capsys, "check", "robust",
        "--game", path("all_zero.json"),
        "--profile", path("all_zero.json"),
        "--k", "1", "--t", "0")
    assert code == 2
    assert "expected a normal-form document" in err


@pytest.mark.parametrize("kind", [[], {}, {"z": "1"}])
def test_non_string_kind_exits_2(capsys, tmp_path, kind):
    with open(path("crossing_p3.json"), encoding="utf-8") as handle:
        doc = dict(json.load(handle), kind=kind)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "aware", "validate", "--game", str(bad))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "$.kind: unknown document kind" in err


def test_overlong_number_literal_exits_2(capsys, tmp_path):
    """json.loads refuses an int literal past int()'s digit limit (4300)
    with a ValueError that is no JSONDecodeError: one line, exit 2."""
    with open(path("prisoners_dilemma.json"), encoding="utf-8") as handle:
        doc = json.load(handle)
    doc["payoffs"][0][0][0] = "LONG"
    bad = tmp_path / "long.json"
    bad.write_text(json.dumps(doc).replace('"LONG"', "9" * 5001),
                   encoding="utf-8")
    code, out, err = run_cli(capsys, "enumerate", "pure-robust",
                             "--game", str(bad), "--k", "1", "--t", "0")
    assert (code, out) == (2, "")
    assert err.startswith("error: $: a number literal exceeds the limit")
    assert err.count("\n") == 1


def test_simulate_refuses_a_billion_players(capsys, tmp_path):
    message = ("error: 1000000002000000001 messages per round exceed the "
               "bound 10000000\n")
    code, out, err = run_cli(capsys, "simulate", "ba", "--n", "1000000000",
                             "--t", "0")
    assert (code, out, err) == (3, "", message)
    scenario = tmp_path / "huge.json"
    scenario.write_text('{"format": 1, "kind": "scenario", '
                        '"n": 1000000000, "preference": 0}', encoding="utf-8")
    code, out, err = run_cli(capsys, "simulate", "run",
                             "--scenario", str(scenario))
    assert (code, out, err) == (3, "", message)


def test_profile_with_unknown_player_exits_2(capsys, tmp_path):
    doc = tmp_path / "p9.json"
    doc.write_text(json.dumps({
        "format": 1, "kind": "profile",
        "weights": {"p1": {"C": "1"}, "p2": {"D": "1"}, "p9": {"C": "1"}}}),
        encoding="utf-8")
    code, out, err = run_cli(
        capsys, "check", "robust", "--game", path("prisoners_dilemma.json"),
        "--profile", str(doc), "--k", "1", "--t", "0")
    assert (code, out) == (2, "")
    assert err == "error: profile: unknown player 'p9'\n"


def test_module_runs_as_a_script(capsys, monkeypatch):
    """python -m eqcheck.cli exits with main's code and prints its bytes."""
    argv = ["check", "robust", "--game", path("zero_one_3.json"),
            "--profile", path("all_zero.json"), "--k", "2", "--t", "0"]
    want = run_cli(capsys, *argv)
    monkeypatch.setattr(sys, "argv", ["eqcheck.cli", *argv])
    with pytest.raises(SystemExit) as info, warnings.catch_warnings():
        # the module is already imported; runpy warns and runs it afresh
        warnings.simplefilter("ignore", RuntimeWarning)
        runpy.run_module("eqcheck.cli", run_name="__main__")
    captured = capsys.readouterr()
    assert (info.value.code, captured.out, captured.err) == want
    assert want[0] == 1


def test_bad_usage_and_help(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main(["check", "robust", "--k", "1"]) == 2
    capsys.readouterr()
    with_help = main(["--help"])
    capsys.readouterr()
    assert with_help == 0


def test_compgame_check(capsys):
    code, out, _ = run_cli(
        capsys, "compgame", "check",
        "--game", path("roshambo_zero_cost.json"),
        "--machines", "uniform,uniform")
    assert code == 0
    code, out, _ = run_cli(
        capsys, "compgame", "check",
        "--game", path("roshambo_zero_cost.json"),
        "--machines", "const0,const0", "--format", "json")
    assert code == 1
    report = json.loads(out)
    assert report["verdict"]["witness"]["data"]["better_machine"] == "const1"


def test_compgame_enumerate(capsys):
    code, out, _ = run_cli(
        capsys, "compgame", "enumerate",
        "--game", path("roshambo.json"), "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 0
    assert report["equilibria"] == []


# one-shot machine reports on the bundled primality document, byte for byte;
# {game} stands for the document path as JSON writes it
PRIMALITY_REPORTS = {
    ("check", "--machines", "test_and_guess"): (0, """\
machine profile (test_and_guess): holds
""", """\
{
  "format": 1,
  "command": [
    "compgame",
    "check"
  ],
  "game": "{game}",
  "machines": [
    "test_and_guess"
  ],
  "epsilon": "0",
  "utilities": [
    "8"
  ],
  "verdict": {
    "holds": true,
    "witness": null
  }
}
"""),
    ("check", "--machines", "always_safe"): (1, """\
machine profile (always_safe): fails
  machine-deviation: player guesser gains by switching from always_safe to \
test_and_guess
""", """\
{
  "format": 1,
  "command": [
    "compgame",
    "check"
  ],
  "game": "{game}",
  "machines": [
    "always_safe"
  ],
  "epsilon": "0",
  "utilities": [
    "1"
  ],
  "verdict": {
    "holds": false,
    "witness": {
      "kind": "machine-deviation",
      "description": "player guesser gains by switching from always_safe to \
test_and_guess",
      "data": {
        "player": "guesser",
        "machine": "always_safe",
        "better_machine": "test_and_guess",
        "utility_before": "1",
        "utility_after": "8",
        "gain": "7"
      }
    }
  }
}
"""),
    ("enumerate",): (0, """\
machine equilibria: 1
  test_and_guess
""", """\
{
  "format": 1,
  "command": [
    "compgame",
    "enumerate"
  ],
  "game": "{game}",
  "epsilon": "0",
  "count": 1,
  "equilibria": [
    [
      "test_and_guess"
    ]
  ]
}
"""),
}


@pytest.mark.parametrize("style", ["text", "json"])
@pytest.mark.parametrize("args", list(PRIMALITY_REPORTS),
                         ids=lambda args: "-".join(args))
def test_primality_compgame_bytes(capsys, args, style):
    game = path("primality_4bit.json")
    code, text, report = PRIMALITY_REPORTS[args]
    want = text if style == "text" else report.replace(
        "{game}", json.dumps(game)[1:-1])
    assert run_cli(capsys, "compgame", args[0], "--game", game, *args[1:],
                   "--format", style) == (code, want, "")


def _piece(player, game, label, move):
    return {"player": player, "game": game,
            "moves": {label: {move: "1"}}}


# aware find on the crossing game at unawareness 3/10 and 7/10: the text
# lines and the JSON equilibria, pieces sorted by player@game
CROSSING_FINDS = {
    "crossing_p3.json": [("across_A", "down_B"), ("down_A", "across_B")],
    "crossing_p7.json": [("down_A", "down_B"), ("down_A", "across_B")],
}


@pytest.mark.parametrize("name", list(CROSSING_FINDS))
def test_aware_find_bytes(capsys, name):
    game = path(name)
    rows = CROSSING_FINDS[name]
    text = "pure generalized equilibria: 2\n" + "".join(
        f"  A@a_view:A.1={a}; A@b_view:A.3=down_A; B@b_view:B.3=across_B; "
        f"B@modeler:B={b}\n" for a, b in rows)
    report = json.dumps({
        "format": 1, "command": ["aware", "find"], "game": game,
        "epsilon": "0", "count": 2,
        "equilibria": [[_piece("A", "a_view", "A.1", a),
                        _piece("A", "b_view", "A.3", "down_A"),
                        _piece("B", "b_view", "B.3", "across_B"),
                        _piece("B", "modeler", "B", b)] for a, b in rows],
    }, indent=2) + "\n"
    assert run_cli(capsys, "aware", "find", "--game", game) == (0, text, "")
    assert run_cli(capsys, "aware", "find", "--game", game,
                   "--format", "json") == (0, report, "")


def test_repeated_run(capsys):
    code, out, _ = run_cli(
        capsys, "repeated", "run", "--spec", path("frpd.json"),
        "--m1", "tit_for_tat", "--m2", "tit_for_tat", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["states"] == [2, 2]
    assert report["discounted_payoffs"][0] == report["discounted_payoffs"][1]


@pytest.mark.parametrize("style", ["text", "json"])
def test_repeated_run_simulates_once(capsys, monkeypatch, style):
    """Both report lines come from one run of the two automata."""
    runs = []
    simulate = repeated._run_totals

    def counted(*args):
        runs.append(args)
        return simulate(*args)

    monkeypatch.setattr(repeated, "_run_totals", counted)
    monkeypatch.setattr(machines, "_run_totals", counted)
    spec = path("frpd.json")
    code, out, err = run_cli(capsys, "repeated", "run", "--spec", spec,
                             "--m1", "all_d", "--m2", "tit_for_tat",
                             "--format", style)
    assert (code, err, len(runs)) == (0, "", 1)
    gross = ["-9339646797/1000000000", "-18339646797/1000000000"]
    net = ["-9539646797/1000000000", "-18539646797/1000000000"]
    assert out == ("run all_d vs tit_for_tat for 9 rounds\n"
                   f"discounted payoffs: {', '.join(gross)}\n"
                   f"utilities net of memory charges: {', '.join(net)}\n"
                   if style == "text" else json.dumps({
                       "format": 1, "command": ["repeated", "run"],
                       "spec": spec, "machines": ["all_d", "tit_for_tat"],
                       "states": [2, 2], "discounted_payoffs": gross,
                       "utilities": net}, indent=2) + "\n")


def test_repeated_threshold(capsys):
    code, out, _ = run_cli(
        capsys, "repeated", "threshold", "--spec", path("frpd.json"),
        "--nmax", "12", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["symmetric"] == 9
    assert report["asymmetric"] == 10
    code, out, _ = run_cli(
        capsys, "repeated", "threshold", "--spec", path("frpd.json"),
        "--nmax", "12")
    assert "9" in out and "10" in out


def test_repeated_threshold_work_bound(capsys):
    # frpd.json's scans run 1 + 2 * 4 and 1 + 2 * 5 profiles per horizon
    code, out, err = run_cli(
        capsys, "repeated", "threshold", "--spec", path("frpd.json"),
        "--nmax", "1000000")
    assert (code, out) == (3, "")
    assert err == ("error: 10000010000000 simulated rounds exceed the "
                   "bound 10000000\n")
    code, out, _ = run_cli(
        capsys, "repeated", "threshold", "--spec", path("frpd.json"),
        "--nmax", "12", "--work-bound", "1560")
    assert code == 0 and out.endswith(": 10\n")
    code, _, err = run_cli(
        capsys, "repeated", "threshold", "--spec", path("frpd.json"),
        "--nmax", "12", "--work-bound", "1559")
    assert code == 3
    assert err == "error: 1560 simulated rounds exceed the bound 1559\n"


def test_simulate_ba_work_bound(capsys):
    # 2 preferences x (1 + C(60, 1) 4 + ... + C(60, 4) 4^4) runs
    code, out, err = run_cli(capsys, "simulate", "ba", "--n", "60",
                             "--t", "4", "--protocol", "mediator")
    assert (code, out) == (3, "")
    assert err == ("error: 254106402 simulations exceed the bound "
                   "10000000\n")
    code, out, err = run_cli(capsys, "simulate", "ba", "--n", "4",
                             "--t", "1", "--work-bound", "34")
    assert (code, err) == (0, "")
    assert "sweep: 34 scenarios," in out
    code, out, err = run_cli(capsys, "simulate", "ba", "--n", "4",
                             "--t", "1", "--work-bound", "33")
    assert (code, out) == (3, "")
    assert err == "error: 34 simulations exceed the bound 33\n"


def test_aware_commands(capsys):
    code, out, _ = run_cli(
        capsys, "aware", "validate", "--game", path("crossing_p3.json"))
    assert code == 0
    code, _, _ = run_cli(
        capsys, "aware", "check", "--game", path("crossing_p3.json"),
        "--profile", path("crossing_eq.json"))
    assert code == 0
    code, out, _ = run_cli(
        capsys, "aware", "check", "--game", path("crossing_p7.json"),
        "--profile", path("crossing_eq.json"), "--format", "json")
    assert code == 1
    report = json.loads(out)
    witness = report["verdict"]["witness"]
    assert witness["kind"] == "subjective-deviation"
    assert witness["data"]["gain"] == "2/5"
    code, out, _ = run_cli(
        capsys, "aware", "find", "--game", path("crossing_p3.json"),
        "--format", "json")
    assert code == 0
    assert json.loads(out)["count"] == 2


def test_aware_find_work_bound(capsys):
    code, _, err = run_cli(
        capsys, "aware", "find", "--game", path("crossing_p3.json"),
        "--work-bound", "3")
    assert code == 3
    assert "error:" in err


def test_simulate_run(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "run", "--scenario", path("ba_scenario.json"))
    assert code == 0
    assert "decided 1" in out
    assert "holds" in out


def test_simulate_run_undecided(capsys, tmp_path):
    """A silent general under echo-first leaves the others undecided: the
    verdict is undetermined, and the run exits 1."""
    scenario = tmp_path / "silent_general.json"
    scenario.write_text(json.dumps({
        "format": 1, "kind": "scenario", "n": 4, "preference": 1,
        "faults": {"p0": "silent"}}))
    args = ("simulate", "run", "--protocol", "echo-first",
            "--scenario", str(scenario))
    code, out, err = run_cli(capsys, *args)
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert "  p0: decided 1 (round 1) [faulty: silent]" in lines
    assert "  p1: undecided" in lines
    assert "agreement and validity: undetermined" in lines
    code, out, err = run_cli(capsys, *args, "--report", "json")
    assert (code, err) == (1, "")
    verdict = json.loads(out)["verdict"]
    assert (verdict["holds"], verdict["incomplete"]) == (False, True)


def test_simulate_ba_mediator(capsys):
    args = ("simulate", "ba", "--n", "4", "--t", "1",
            "--protocol", "mediator", "--report", "json")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    report = json.loads(out)
    assert report["scenarios"] == 34
    assert report["all_hold"] is True
    assert report["failures"] == []
    assert report["immunity"]["holds"] is True
    code2, out2, _ = run_cli(capsys, *args)
    assert (code2, out2) == (code, out)


def test_simulate_ba_echo_first_fails(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "ba", "--n", "4", "--t", "1",
        "--protocol", "echo-first", "--report", "json")
    assert code == 1
    report = json.loads(out)
    assert report["all_hold"] is False
    kinds = {f["verdict"]["witness"]["kind"] for f in report["failures"]}
    assert kinds == {"disagreement", "undecided"}


def test_simulate_ba_text_mentions_counts(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "ba", "--n", "4", "--t", "0",
        "--protocol", "mediator")
    assert code == 0
    assert "2 scenarios" in out


def test_simulate_rejects_bad_arguments(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "ba", "--n", "4", "--t", "4",
        "--protocol", "mediator")
    assert code == 2
    assert "error:" in err
    code, out, err = run_cli(
        capsys, "simulate", "ba", "--n", "4", "--t", "1", "--seed", "1")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --seed 1" in err


def test_every_json_report_opens_with_format_and_command(capsys):
    calls = (
        ("check", "robust", "--game", path("zero_one_3.json"),
         "--profile", path("all_zero.json"), "--k", "1", "--t", "0"),
        ("enumerate", "pure-robust", "--game", path("prisoners_dilemma.json"),
         "--k", "1", "--t", "0"),
        ("compgame", "check", "--game", path("roshambo.json"),
         "--machines", "uniform,const0"),
        ("compgame", "enumerate", "--game", path("roshambo.json")),
        ("repeated", "run", "--spec", path("frpd.json"),
         "--m1", "all_d", "--m2", "tit_for_tat"),
        ("repeated", "threshold", "--spec", path("frpd.json"),
         "--nmax", "20"),
        ("aware", "validate", "--game", path("crossing_p3.json")),
        ("aware", "check", "--game", path("crossing_p3.json"),
         "--profile", path("crossing_eq.json")),
        ("aware", "find", "--game", path("crossing_p3.json")),
        ("simulate", "ba", "--n", "4", "--t", "1"),
        ("simulate", "run", "--scenario", path("ba_scenario.json")),
    )
    for argv in calls:
        style = "--report" if argv[0] == "simulate" else "--format"
        code, out, err = run_cli(capsys, *argv, style, "json")
        assert code in (0, 1)
        assert err == ""
        report = json.loads(out)
        assert list(report)[:2] == ["format", "command"]
        assert report["format"] == 1
        assert report["command"] == list(argv[:2])
        assert "seed" not in report


def test_main_builds_no_parser_after_import(capsys, monkeypatch):
    built = []
    original = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser",
                        lambda: built.append(1) or original())
    for argv in (("--help",), ("check", "robust", "--k", "1"),
                 ("aware", "validate", "--game", path("crossing_p3.json")),
                 ("simulate", "ba", "--n", "3", "--t", "0")):
        main(list(argv))
    capsys.readouterr()
    assert built == []


def test_shared_parser_keeps_no_state_between_calls(capsys):
    robust = ("check", "robust", "--game", path("zero_one_3.json"),
              "--profile", path("all_zero.json"), "--k", "1", "--t", "0")
    ba = ("simulate", "ba", "--n", "4", "--t", "1", "--report", "json")

    def report(*argv):
        return json.loads(run_cli(capsys, *argv)[1])

    assert report(*robust, "--epsilon", "1/3", "--format", "json")[
        "epsilon"] == "1/3"
    assert report(*robust, "--format", "json")["epsilon"] == "0"
    assert report(*robust, "--semantics", "weak", "--format", "json")[
        "semantics"] == "weak"
    assert report(*robust, "--format", "json")["semantics"] == "strong"
    assert run_cli(capsys, *robust, "--work-bound", "1")[0] == 3
    assert run_cli(capsys, *robust)[0] == 0
    assert report(*ba, "--protocol", "echo-first")["protocol"] == "echo-first"
    assert report(*ba)["protocol"] == "mediator"
    assert report(*robust, "--format", "json")["format"] == 1
    assert run_cli(capsys, *robust)[:2] == (
        0, "robust(k=1, t=0, strong): holds\n")


# each subcommand's long flags in --help order, required flags first;
# frozen, so a row that loses, gains or reorders a flag fails
SUBCOMMAND_FLAGS = {
    ("check", "robust"): ("--game --profile --k --t",
                          "--semantics --epsilon --work-bound --format"),
    ("enumerate", "pure-robust"): ("--game --k --t",
                                   "--semantics --epsilon --work-bound "
                                   "--format"),
    ("compgame", "check"): ("--game --machines", "--epsilon --format"),
    ("compgame", "enumerate"): ("--game", "--epsilon --work-bound --format"),
    ("repeated", "run"): ("--spec --m1 --m2", "--format"),
    ("repeated", "threshold"): ("--spec --nmax",
                                "--epsilon --work-bound --format"),
    ("aware", "validate"): ("--game", "--format"),
    ("aware", "check"): ("--game --profile", "--epsilon --format"),
    ("aware", "find"): ("--game", "--epsilon --work-bound --format"),
    ("simulate", "ba"): ("--n --t",
                         "--adversaries --protocol --work-bound --report"),
    ("simulate", "run"): ("--scenario", "--protocol --report"),
}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_FLAGS), ids="-".join)
def test_every_subcommand_is_wired(capsys, command):
    required, optional = (f.split() for f in SUBCOMMAND_FLAGS[command])
    code, out, _ = run_cli(capsys, *command, "--help")
    assert code == 0
    options = out.split("options:\n", 1)[1]
    listed = re.findall(r"^ +(?:-h, )?(--[\w-]+)", options, re.M)
    assert listed == ["--help"] + required + optional
    for missing in required:
        argv = list(command)
        for flag in required:
            if flag != missing:
                argv += [flag, "1"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.endswith(
            f"the following arguments are required: {missing}\n")


@pytest.mark.parametrize("argv", [
    ("check", "robust", "--game", "zero_one_3.json", "--profile",
     "all_zero.json", "--k", "1", "--t", "0", "--format"),
    ("enumerate", "pure-robust", "--game", "prisoners_dilemma.json",
     "--k", "1", "--t", "0", "--format"),
    ("compgame", "check", "--game", "roshambo_zero_cost.json",
     "--machines", "uniform,uniform", "--format"),
    ("compgame", "enumerate", "--game", "roshambo.json", "--format"),
    ("repeated", "run", "--spec", "frpd.json", "--m1", "all_d",
     "--m2", "tit_for_tat", "--format"),
    ("repeated", "threshold", "--spec", "frpd.json", "--nmax", "100",
     "--format"),
    ("aware", "validate", "--game", "crossing_p3.json", "--format"),
    ("aware", "check", "--game", "crossing_p3.json",
     "--profile", "crossing_eq.json", "--format"),
    ("aware", "find", "--game", "crossing_p3.json", "--format"),
    ("simulate", "ba", "--n", "4", "--t", "1", "--protocol", "mediator",
     "--report"),
    ("simulate", "run", "--scenario", "ba_scenario.json", "--report"),
], ids=lambda argv: "-".join(argv[:2]))
def test_json_reports_are_json_dumps_text(capsys, argv):
    """The README tour's JSON reports, byte for byte as json.dumps lays
    them out."""
    argv = [path(a) if a.endswith(".json") else a for a in argv]
    code, out, err = run_cli(capsys, *argv, "json")
    assert code == 0 and err == ""
    assert out == json.dumps(json.loads(out), indent=2,
                             ensure_ascii=False) + "\n"


@pytest.mark.parametrize("style", ["text", "json"])
def test_repeated_run_too_long_to_print_exits_3(capsys, tmp_path, style):
    """At 4400 rounds the exact discounted payoffs have more digits than
    str() converts: exit 3 and one line, not a traceback."""
    with open(path("frpd.json")) as f:
        spec = json.load(f)
    spec["rounds"] = 4400
    long_spec = tmp_path / "frpd_4400.json"
    long_spec.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "repeated", "run", "--spec",
                             str(long_spec), "--m1", "all_d",
                             "--m2", "tit_for_tat", "--format", style)
    assert (code, out) == (3, "")
    assert err == ("error: a rational with over 4300 digits is too long "
                   "to print\n")


def test_work_bound_counts_past_printable_ints(capsys):
    """Counts too long for str() (4300 digits) still end in exit 3."""
    code, out, err = run_cli(capsys, "simulate", "ba", "--n", "7000",
                             "--t", "6999")
    assert (code, out) == (3, "")
    assert err == ("error: over 2^16254 simulations exceed the bound "
                   "10000000\n")
    code, out, err = run_cli(
        capsys, "repeated", "threshold", "--spec", path("frpd.json"),
        "--nmax", "1" + "0" * 2200)
    assert (code, out) == (3, "")
    assert err.startswith("error: over 2^") and err.count("\n") == 1
