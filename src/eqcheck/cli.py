"""Command-line front end.

One binary, subcommand style.  Exit codes: 0 when the requested check
holds (or the command simply succeeded), 1 when a check fails, 2 on usage
or input errors, 3 when a work or entry bound would be exceeded.

Machine-readable reports (--format json, --report json for the
simulator) are versioned with "format": 1 and are byte-identical across
runs on identical inputs.
"""

from __future__ import annotations

import argparse
import json
import sys

from .awareness import find_pure_generalized_nash, is_generalized_nash
from .basim import DEFAULT_ADVERSARIES, PROTOCOLS, check_ba, run, sweep
from .errors import EqcheckError, InputError, WorkBoundExceeded
from .fileformat import document_body, load_document
from .machines import (comp_expected_utility, exhaustive_machine_equilibria,
                       is_machine_nash, tit_for_tat_threshold)
from .rationals import format_rational, parse_rational
from .repeated import run_automata
from .robustness import (ResilienceSemantics, RobustnessQuery, check_robust,
                         enumerate_pure_robust)
from .verdicts import to_jsonable


def _load(path, kind):
    doc = load_document(path)
    if doc.kind != kind:
        raise InputError(
            f"{path}: expected a {kind} document, got {doc.kind}")
    return doc.value


def _epsilon(args):
    return parse_rational(args.epsilon, "--epsilon")


def _bound_kwargs(args):
    if getattr(args, "work_bound", None) is None:
        return {}
    return {"work_bound": args.work_bound}


def _emit(args, report, lines):
    """Print the text lines, or the JSON report inside the envelope every
    subcommand shares: "format" and "command" come first."""
    fmt = getattr(args, "format", None) or getattr(args, "report", "text")
    if fmt == "json":
        report = {"format": 1, "command": [args.command, args.subcommand],
                  **report}
        print(json.dumps(to_jsonable(report), indent=2, ensure_ascii=False))
    else:
        for line in lines:
            print(line)


def _verdict_lines(label, verdict):
    if verdict.holds:
        status = "holds"
    elif verdict.incomplete:
        status = "undetermined"
    else:
        status = "fails"
    lines = [f"{label}: {status}"]
    if verdict.witness is not None:
        lines.append(f"  {verdict.witness.kind}: "
                     f"{verdict.witness.description}")
    return lines


# ---------------------------------------------------------------------------
# handlers

def _cmd_check_robust(args):
    game = _load(args.game, "normal-form")
    profile = _load(args.profile, "profile").bind(game)
    query = RobustnessQuery(
        args.k, args.t, epsilon=_epsilon(args),
        semantics=ResilienceSemantics[args.semantics.upper()])
    verdict = check_robust(game, profile, query, **_bound_kwargs(args))
    report = {
        "game": args.game,
        "profile": args.profile,
        "k": args.k,
        "t": args.t,
        "semantics": args.semantics,
        "epsilon": format_rational(_epsilon(args)),
        "verdict": verdict,
    }
    label = f"robust(k={args.k}, t={args.t}, {args.semantics})"
    _emit(args, report, _verdict_lines(label, verdict))
    return 0 if verdict.holds else 1


def _cmd_enumerate_pure_robust(args):
    game = _load(args.game, "normal-form")
    query = RobustnessQuery(
        args.k, args.t, epsilon=_epsilon(args),
        semantics=ResilienceSemantics[args.semantics.upper()])
    profiles = enumerate_pure_robust(game, query, **_bound_kwargs(args))
    report = {
        "game": args.game,
        "k": args.k,
        "t": args.t,
        "semantics": args.semantics,
        "epsilon": format_rational(_epsilon(args)),
        "count": len(profiles),
        "profiles": [list(p) for p in profiles],
    }
    lines = [f"pure robust profiles (k={args.k}, t={args.t}): "
             f"{len(profiles)}"]
    lines.extend("  " + ", ".join(p) for p in profiles)
    _emit(args, report, lines)
    return 0


def _cmd_compgame_check(args):
    game = _load(args.game, "compgame")
    ids = tuple(args.machines.split(","))
    verdict = is_machine_nash(game, ids, epsilon=_epsilon(args))
    utilities = comp_expected_utility(game, ids)
    report = {
        "game": args.game,
        "machines": list(ids),
        "epsilon": format_rational(_epsilon(args)),
        "utilities": [format_rational(u) for u in utilities],
        "verdict": verdict,
    }
    label = f"machine profile ({', '.join(ids)})"
    _emit(args, report, _verdict_lines(label, verdict))
    return 0 if verdict.holds else 1


def _cmd_compgame_enumerate(args):
    game = _load(args.game, "compgame")
    found = exhaustive_machine_equilibria(
        game, epsilon=_epsilon(args), **_bound_kwargs(args))
    report = {
        "game": args.game,
        "epsilon": format_rational(_epsilon(args)),
        "count": len(found),
        "equilibria": [list(ids) for ids in found],
    }
    lines = [f"machine equilibria: {len(found)}"]
    lines.extend("  " + ", ".join(ids) for ids in found)
    _emit(args, report, lines)
    return 0


def _cmd_repeated_run(args):
    doc = _load(args.spec, "repeated-spec")
    game = doc.to_compgame()
    ids = (args.m1, args.m2)
    machines = game.profile(ids)
    gross = run_automata(doc.spec, machines[0], machines[1])
    net = comp_expected_utility(game, ids)
    report = {
        "spec": args.spec,
        "machines": list(ids),
        "states": [machines[0].n_states, machines[1].n_states],
        "discounted_payoffs": [format_rational(v) for v in gross],
        "utilities": [format_rational(v) for v in net],
    }
    lines = [
        f"run {args.m1} vs {args.m2} for {doc.spec.rounds} rounds",
        "discounted payoffs: "
        + ", ".join(format_rational(v) for v in gross),
        "utilities net of memory charges: "
        + ", ".join(format_rational(v) for v in net),
    ]
    _emit(args, report, lines)
    return 0


def _cmd_repeated_threshold(args):
    doc = _load(args.spec, "repeated-spec")
    result = tit_for_tat_threshold(
        doc.spec.discount, doc.spec.memory_cost, args.nmax,
        space_names=doc.machine_names, stage=doc.spec.stage,
        epsilon=_epsilon(args))
    report = {
        "spec": args.spec,
        "n_max": args.nmax,
        "discount": format_rational(result.discount),
        "memory_cost": format_rational(result.memory_cost),
        "symmetric": result.symmetric,
        "asymmetric": result.asymmetric,
    }
    def show(value):
        return "none" if value is None else str(value)
    lines = [
        f"mutual tit_for_tat threshold up to {args.nmax} rounds: "
        f"{show(result.symmetric)}",
        f"one-sided threshold (uncharged round counter): "
        f"{show(result.asymmetric)}",
    ]
    _emit(args, report, lines)
    return 0


def _cmd_aware_validate(args):
    gwa = _load(args.game, "awareness")
    verdict = gwa.validate()
    report = {
        "game": args.game,
        "verdict": verdict,
    }
    _emit(args, report, _verdict_lines("consistency", verdict))
    return 0 if verdict.holds else 1


def _cmd_aware_check(args):
    gwa = _load(args.game, "awareness")
    profile = _load(args.profile, "generalized-profile")
    verdict = is_generalized_nash(gwa, profile, epsilon=_epsilon(args))
    report = {
        "game": args.game,
        "profile": args.profile,
        "epsilon": format_rational(_epsilon(args)),
        "verdict": verdict,
    }
    _emit(args, report, _verdict_lines("generalized equilibrium", verdict))
    return 0 if verdict.holds else 1


def _cmd_aware_find(args):
    gwa = _load(args.game, "awareness")
    found = find_pure_generalized_nash(
        gwa, epsilon=_epsilon(args), **_bound_kwargs(args))
    report = {
        "game": args.game,
        "epsilon": format_rational(_epsilon(args)),
        "count": len(found),
        "equilibria": [
            document_body(p)[1]["strategies"] for p in found
        ],
    }
    lines = [f"pure generalized equilibria: {len(found)}"]
    for profile in found:
        parts = []
        for pair in sorted(profile.strategies):
            for label in sorted(profile.strategies[pair]):
                dist = profile.strategies[pair][label]
                moves = "+".join(m for m, q in sorted(dist.items()) if q != 0)
                parts.append(f"{pair[0]}@{pair[1]}:{label}={moves}")
        lines.append("  " + "; ".join(parts))
    _emit(args, report, lines)
    return 0


def _transcript_report(transcript):
    return {
        "protocol": transcript.protocol_name,
        "rounds": [
            [list(msg) for msg in round_msgs]
            for round_msgs in transcript.rounds
        ],
        "decisions": transcript.decisions,
        "decided_round": transcript.decided_round,
        "timed_out": transcript.timed_out,
        "utilities": transcript.utilities,
    }


def _cmd_simulate_run(args):
    scenario = _load(args.scenario, "scenario")
    protocol = PROTOCOLS[args.protocol]
    transcript = run(scenario, protocol)
    verdict = check_ba(transcript)
    report = {
        "scenario": document_body(scenario)[1],
        "transcript": _transcript_report(transcript),
        "verdict": verdict,
    }
    lines = [
        f"protocol {transcript.protocol_name}, n={scenario.n}, "
        f"preference {scenario.preference}",
    ]
    for player in scenario.players:
        decided = transcript.decisions[player]
        when = transcript.decided_round.get(player)
        what = "undecided" if decided is None else f"decided {decided}"
        note = "" if when is None else f" (round {when})"
        faulty = ""
        if player in scenario.faults:
            faulty = f" [faulty: {scenario.faults[player].name}]"
        lines.append(f"  {player}: {what}{note}{faulty}")
    lines.extend(_verdict_lines("agreement and validity", verdict))
    _emit(args, report, lines)
    return 0 if verdict.holds else 1


def _cmd_simulate_ba(args):
    protocol = PROTOCOLS[args.protocol]
    adversaries = tuple(args.adversaries.split(","))
    report_obj = sweep(args.n, args.t, protocol, adversaries)
    immunity = report_obj.immunity()
    failures = []
    for scenario, transcript, verdict in report_obj.failures():
        failures.append({
            "preference": scenario.preference,
            "faults": scenario.fault_names(),
            "verdict": verdict,
        })
    report = {
        "n": args.n,
        "t": args.t,
        "protocol": args.protocol,
        "adversaries": list(adversaries),
        "scenarios": report_obj.total,
        "failures": failures,
        "all_hold": report_obj.all_hold,
        "immunity": immunity,
    }
    lines = [
        f"protocol {args.protocol}, n={args.n}, t={args.t}, "
        f"adversaries {', '.join(adversaries)}",
        f"sweep: {report_obj.total} scenarios, "
        + ("all reach agreement and validity" if report_obj.all_hold
           else f"{len(failures)} fail"),
    ]
    for entry in failures[:5]:
        faults = ", ".join(
            f"{p}={s}" for p, s in sorted(entry["faults"].items()))
        lines.append(f"  preference {entry['preference']}, "
                     f"faults {{{faults or '-'}}}: "
                     f"{entry['verdict'].witness.kind}")
    lines.extend(_verdict_lines("immunity against the library", immunity))
    _emit(args, report, lines)
    return 0 if report_obj.all_hold and immunity.holds else 1


# ---------------------------------------------------------------------------
# parser

def _add_format(parser):
    parser.add_argument("--format", choices=("json", "text"),
                        default="text", help="report style")


def _add_epsilon(parser):
    parser.add_argument("--epsilon", default="0",
                        help="slack as an exact rational, e.g. 1/100")


def _add_work_bound(parser):
    parser.add_argument("--work-bound", type=int, default=None,
                        help="cap on enumerated cases before giving up")


def _add_simulator_common(parser):
    parser.add_argument("--protocol", choices=sorted(PROTOCOLS),
                        default="mediator")
    parser.add_argument("--report", choices=("json", "text"),
                        default="text", help="report style")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="eqcheck",
        description="Exact equilibrium checks for strategic games, "
                    "machine-choice games, games with unawareness, and a "
                    "synchronous agreement simulator.")
    top = parser.add_subparsers(dest="command", required=True)

    check = top.add_parser("check", help="verify a profile against a game")
    check_sub = check.add_subparsers(dest="subcommand", required=True)
    robust = check_sub.add_parser(
        "robust", help="joint resilience and immunity check")
    robust.add_argument("--game", required=True)
    robust.add_argument("--profile", required=True)
    robust.add_argument("--k", type=int, required=True,
                        help="largest coalition that must not gain")
    robust.add_argument("--t", type=int, required=True,
                        help="deviator count the rest must tolerate")
    robust.add_argument("--semantics", choices=("strong", "weak"),
                        default="strong")
    _add_epsilon(robust)
    _add_work_bound(robust)
    _add_format(robust)
    robust.set_defaults(handler=_cmd_check_robust)

    enum = top.add_parser("enumerate", help="search a game exhaustively")
    enum_sub = enum.add_subparsers(dest="subcommand", required=True)
    pure = enum_sub.add_parser(
        "pure-robust", help="all pure profiles passing the robust check")
    pure.add_argument("--game", required=True)
    pure.add_argument("--k", type=int, required=True)
    pure.add_argument("--t", type=int, required=True)
    pure.add_argument("--semantics", choices=("strong", "weak"),
                      default="strong")
    _add_epsilon(pure)
    _add_work_bound(pure)
    _add_format(pure)
    pure.set_defaults(handler=_cmd_enumerate_pure_robust)

    comp = top.add_parser("compgame",
                          help="machine-choice games with complexity costs")
    comp_sub = comp.add_subparsers(dest="subcommand", required=True)
    comp_check = comp_sub.add_parser(
        "check", help="is one machine profile stable")
    comp_check.add_argument("--game", required=True)
    comp_check.add_argument("--machines", required=True,
                            help="comma-separated machine ids, one per "
                                 "player")
    _add_epsilon(comp_check)
    _add_format(comp_check)
    comp_check.set_defaults(handler=_cmd_compgame_check)
    comp_enum = comp_sub.add_parser(
        "enumerate", help="all stable machine profiles")
    comp_enum.add_argument("--game", required=True)
    _add_epsilon(comp_enum)
    _add_work_bound(comp_enum)
    _add_format(comp_enum)
    comp_enum.set_defaults(handler=_cmd_compgame_enumerate)

    rep = top.add_parser("repeated",
                         help="finitely repeated play between automata")
    rep_sub = rep.add_subparsers(dest="subcommand", required=True)
    rep_run = rep_sub.add_parser("run", help="play two machines against "
                                             "each other")
    rep_run.add_argument("--spec", required=True)
    rep_run.add_argument("--m1", required=True)
    rep_run.add_argument("--m2", required=True)
    _add_format(rep_run)
    rep_run.set_defaults(handler=_cmd_repeated_run)
    rep_thr = rep_sub.add_parser(
        "threshold",
        help="least horizon making mutual tit_for_tat stable")
    rep_thr.add_argument("--spec", required=True)
    rep_thr.add_argument("--nmax", type=int, required=True)
    _add_epsilon(rep_thr)
    _add_format(rep_thr)
    rep_thr.set_defaults(handler=_cmd_repeated_threshold)

    aware = top.add_parser("aware",
                           help="games where players may be unaware of moves")
    aware_sub = aware.add_subparsers(dest="subcommand", required=True)
    aware_val = aware_sub.add_parser(
        "validate", help="check the belief map's consistency conditions")
    aware_val.add_argument("--game", required=True)
    _add_format(aware_val)
    aware_val.set_defaults(handler=_cmd_aware_validate)
    aware_check = aware_sub.add_parser(
        "check", help="is a generalized profile an equilibrium")
    aware_check.add_argument("--game", required=True)
    aware_check.add_argument("--profile", required=True)
    _add_epsilon(aware_check)
    _add_format(aware_check)
    aware_check.set_defaults(handler=_cmd_aware_check)
    aware_find = aware_sub.add_parser(
        "find", help="enumerate pure generalized equilibria")
    aware_find.add_argument("--game", required=True)
    _add_epsilon(aware_find)
    _add_work_bound(aware_find)
    _add_format(aware_find)
    aware_find.set_defaults(handler=_cmd_aware_find)

    sim = top.add_parser("simulate",
                         help="synchronous broadcast agreement runs")
    sim_sub = sim.add_subparsers(dest="subcommand", required=True)
    sim_ba = sim_sub.add_parser(
        "ba", help="sweep fault assignments and check immunity")
    sim_ba.add_argument("--n", type=int, required=True)
    sim_ba.add_argument("--t", type=int, required=True)
    sim_ba.add_argument("--adversaries",
                        default=",".join(DEFAULT_ADVERSARIES),
                        help="comma-separated adversary names")
    _add_simulator_common(sim_ba)
    sim_ba.set_defaults(handler=_cmd_simulate_ba)
    sim_run = sim_sub.add_parser("run", help="replay one scenario file")
    sim_run.add_argument("--scenario", required=True)
    _add_simulator_common(sim_run)
    sim_run.set_defaults(handler=_cmd_simulate_run)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.handler(args)
    except WorkBoundExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except EqcheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(None))
