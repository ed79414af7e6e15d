"""Command-line front end.

One binary, subcommand style.  Exit codes: 0 when the requested check
holds (or the command simply succeeded), 1 when a check fails, 2 on usage
or input errors, 3 when a work, entry or print bound would be exceeded.

Machine-readable reports (--format json, --report json for the
simulator) are versioned with "format": 1 and are byte-identical across
runs on identical inputs.
"""

from __future__ import annotations

import argparse
import sys

from .awareness import find_pure_generalized_nash, is_generalized_nash
from .basim import DEFAULT_ADVERSARIES, PROTOCOLS, run, sweep
from .errors import EqcheckError, InputError, WorkBoundExceeded
from .fileformat import document_body, json_text, load_document
from .games import DEFAULT_WORK_BOUND
from .machines import (comp_expected_utility, exhaustive_machine_equilibria,
                       is_machine_nash, repeated_payoffs,
                       tit_for_tat_threshold)
from .rationals import format_rational, parse_rational
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


def _query(args):
    return RobustnessQuery(
        args.k, args.t, epsilon=_epsilon(args),
        semantics=ResilienceSemantics[args.semantics.upper()])


def _emit(args, report, lines):
    """Print the text lines, or the JSON report inside the envelope every
    subcommand shares: "format" and "command" come first."""
    if args.format == "json":
        report = {"format": 1, "command": [args.command, args.subcommand],
                  **report}
        print(json_text(to_jsonable(report)))
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
    verdict = check_robust(game, profile, _query(args),
                           work_bound=args.work_bound)
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
    profiles = enumerate_pure_robust(game, _query(args),
                                     work_bound=args.work_bound)
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
        game, epsilon=_epsilon(args), work_bound=args.work_bound)
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
    gross, net = repeated_payoffs(game, machines)
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
        epsilon=_epsilon(args), work_bound=args.work_bound)
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
        gwa, epsilon=_epsilon(args), work_bound=args.work_bound)
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
    verdict = transcript.verdict
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
    report_obj = sweep(args.n, args.t, protocol, adversaries,
                       work_bound=args.work_bound)
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
# parser: each flag means the same on every subcommand that takes it

_FLAGS = {
    "--game": dict(required=True),
    "--profile": dict(required=True),
    "--k": dict(type=int, required=True,
                help="largest coalition that must not gain"),
    "--t": dict(type=int, required=True,
                help="deviator count the rest must tolerate"),
    "--semantics": dict(choices=("strong", "weak"), default="strong"),
    "--epsilon": dict(default="0",
                      help="slack as an exact rational, e.g. 1/100"),
    "--work-bound": dict(type=int, default=DEFAULT_WORK_BOUND,
                         help="cap on enumerated cases before giving up"),
    "--format": dict(choices=("json", "text"), default="text",
                     help="report style"),
    "--machines": dict(required=True,
                       help="comma-separated machine ids, one per player"),
    "--spec": dict(required=True),
    "--m1": dict(required=True),
    "--m2": dict(required=True),
    "--nmax": dict(type=int, required=True),
    "--n": dict(type=int, required=True),
    "--adversaries": dict(default=",".join(DEFAULT_ADVERSARIES),
                          help="comma-separated adversary names"),
    "--scenario": dict(required=True),
    "--protocol": dict(choices=sorted(PROTOCOLS), default="mediator"),
    "--report": dict(dest="format", choices=("json", "text"),
                     default="text", help="report style"),
}

# command: (help, {subcommand: (help, handler, flags in help order)})
_COMMANDS = {
    "check": ("verify a profile against a game", {
        "robust": ("joint resilience and immunity check", _cmd_check_robust,
                   "--game --profile --k --t --semantics --epsilon "
                   "--work-bound --format"),
    }),
    "enumerate": ("search a game exhaustively", {
        "pure-robust": ("all pure profiles passing the robust check",
                        _cmd_enumerate_pure_robust,
                        "--game --k --t --semantics --epsilon --work-bound "
                        "--format"),
    }),
    "compgame": ("machine-choice games with complexity costs", {
        "check": ("is one machine profile stable", _cmd_compgame_check,
                  "--game --machines --epsilon --format"),
        "enumerate": ("all stable machine profiles", _cmd_compgame_enumerate,
                      "--game --epsilon --work-bound --format"),
    }),
    "repeated": ("finitely repeated play between automata", {
        "run": ("play two machines against each other", _cmd_repeated_run,
                "--spec --m1 --m2 --format"),
        "threshold": ("least horizon making mutual tit_for_tat stable",
                      _cmd_repeated_threshold,
                      "--spec --nmax --epsilon --work-bound --format"),
    }),
    "aware": ("games where players may be unaware of moves", {
        "validate": ("check the belief map's consistency conditions",
                     _cmd_aware_validate, "--game --format"),
        "check": ("is a generalized profile an equilibrium", _cmd_aware_check,
                  "--game --profile --epsilon --format"),
        "find": ("enumerate pure generalized equilibria", _cmd_aware_find,
                 "--game --epsilon --work-bound --format"),
    }),
    "simulate": ("synchronous broadcast agreement runs", {
        "ba": ("sweep fault assignments and check immunity",
               _cmd_simulate_ba,
               "--n --t --adversaries --protocol --work-bound --report"),
        "run": ("replay one scenario file", _cmd_simulate_run,
                "--scenario --protocol --report"),
    }),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="eqcheck",
        description="Exact equilibrium checks for strategic games, "
                    "machine-choice games, games with unawareness, and a "
                    "synchronous agreement simulator.")
    top = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, subcommands) in _COMMANDS.items():
        sub = top.add_parser(command, help=help_text).add_subparsers(
            dest="subcommand", required=True)
        for name, (sub_help, handler, flags) in subcommands.items():
            leaf = sub.add_parser(name, help=sub_help)
            for flag in flags.split():
                leaf.add_argument(flag, **_FLAGS[flag])
            leaf.set_defaults(handler=handler)
    return parser


# built once: parse_args keeps no state between calls
_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
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
