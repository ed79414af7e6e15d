"""JSON interchange for games, profiles, and simulator scenarios.

Every document is a JSON object with `format: 1`, a `kind` tag, and a
kind-specific body.  `format` and `kind` appear only at the top level: a
nested object such as a repeated spec's `stage` or a machine game's
`underlying` is a bare body, and either field there is an unknown field.
Rationals travel as strings ("3", "-5", "1/3"); floats are rejected,
and a bare JSON integer is accepted and written back as a string.
Unknown fields are errors, reported with a `$.path` field path; malformed
JSON is reported with line and column.

parse_document decodes each distinct rational string once: it fills one
string-to-Fraction table for the document and drops it on return, so no
cache outlives the call.  Payoff vectors and the innermost level of
rational maps are decoded through it in one pass; a leaf it refuses sends
that vector back to the per-value _rational, which words every error.

serialize_document writes a canonical form: fixed field order, two-space
indent, a trailing newline, and deterministic entry orders.  Serializing,
parsing the result, and serializing again yields byte-identical text.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring

from .awareness import AugmentedGame, GameWithAwareness, GeneralizedProfile
from .basim import Scenario
from .errors import InputError, ParseError
from .games import (BayesianGame, BayesianStrategyProfile, MixedProfile,
                    NormalFormGame, _bayesian_frame, _fixed_prior,
                    _normal_frame, _trusted)
from .machines import ComputationalGame, OneShotMachine, \
    build_repeated_dilemma_game
from .rationals import format_rational, parse_rational
from .repeated import AUTOMATON_LIBRARY, RepeatedGameSpec
from .trees import NATURE, ExtensiveGame

class GameDocument:
    """A parsed document: its `kind` tag plus the materialized value."""

    def __init__(self, kind, value):
        if kind not in KINDS:
            raise InputError(f"unknown document kind {kind!r}")
        self.kind = kind
        self.value = value


class ProfileDocument:
    """A strategy profile awaiting a game to resolve action names against.

    Exactly one of `pure` (an action name per player, in player order) and
    `weights` ({player: {action: weight}}) is set.
    """

    def __init__(self, pure=None, weights=None):
        if (pure is None) == (weights is None):
            raise InputError("profile: exactly one of pure/weights required")
        self.pure = tuple(pure) if pure is not None else None
        self.weights = dict(weights) if weights is not None else None

    def bind(self, game: NormalFormGame) -> MixedProfile:
        if self.pure is not None:
            return MixedProfile.pure(game, self.pure)
        return MixedProfile.from_mapping(game, self.weights)


class BayesProfileDocument:
    """A type-contingent profile awaiting a Bayesian game.

    strategies[player][type][action] is a weight; omitted actions get 0.
    """

    def __init__(self, strategies):
        self.strategies = dict(strategies)

    def bind(self, game: BayesianGame) -> BayesianStrategyProfile:
        weights = []
        for name in self.strategies:
            if name not in game.players:
                raise InputError(f"strategies: unknown player {name!r}")
        for i, player in enumerate(game.players):
            if player not in self.strategies:
                raise InputError(f"strategies: missing player {player!r}")
            per_type = self.strategies[player]
            for tname in per_type:
                if tname not in game.types[i]:
                    raise InputError(
                        f"strategies[{player}]: unknown type {tname!r}")
            rows = []
            for tname in game.types[i]:
                if tname not in per_type:
                    raise InputError(
                        f"strategies[{player}]: missing type {tname!r}")
                dist = per_type[tname]
                row = [Fraction(0)] * len(game.actions[i])
                for action, q in dist.items():
                    if action not in game.actions[i]:
                        raise InputError(
                            f"strategies[{player}][{tname}]: unknown action "
                            f"{action!r}")
                    row[game.actions[i].index(action)] = q
                rows.append(tuple(row))
            weights.append(tuple(rows))
        return BayesianStrategyProfile(weights)


class RepeatedSpecDocument:
    """A repeated-play setup: stage game, horizon, pricing, machine space."""

    def __init__(self, spec: RepeatedGameSpec, machine_names, charged):
        self.spec = spec
        self.machine_names = tuple(machine_names)
        self.charged = tuple(charged)

    def to_compgame(self) -> ComputationalGame:
        """The machine-choice game this document describes."""
        return build_repeated_dilemma_game(
            rounds=self.spec.rounds, discount=self.spec.discount,
            memory_cost=self.spec.memory_cost,
            space_names=self.machine_names, charged=self.charged,
            stage=self.spec.stage)


# ---------------------------------------------------------------------------
# parsing helpers

def _at(path, *keys):
    """path extended by member names (.key) and indices ([i]): the parsers
    pass a parent path and keys, and build a full path only for an error."""
    return path + "".join(
        f"[{key}]" if isinstance(key, int) else f".{key}" for key in keys)


def _as_object(value, path, *keys):
    if not isinstance(value, dict):
        raise ParseError(_at(path, *keys), "expected a JSON object")
    return value


def _as_array(value, path, *keys):
    if not isinstance(value, list):
        raise ParseError(_at(path, *keys), "expected a JSON array")
    return value


def _as_string(value, path, *keys):
    if not isinstance(value, str) or not value:
        raise ParseError(_at(path, *keys), "expected a nonempty string")
    return value


def _as_int(value, path):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(path, "expected an integer")
    return value


def _as_bool(value, path, *keys):
    if not isinstance(value, bool):
        raise ParseError(_at(path, *keys), "expected a boolean")
    return value


def _rational(value, path, *keys):
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ParseError(_at(path, *keys),
                         "expected a rational written as a string")
    try:
        return parse_rational(value)
    except InputError as exc:
        # the message without parse_rational's own "value: " prefix
        raise ParseError(_at(path, *keys),
                         str(exc).partition(": ")[2]) from None


class _RationalTable(dict):
    """One document's rationals by their string, each decoded once.

    Looking up anything but a well-formed rational string raises KeyError,
    or TypeError if it is unhashable.
    """

    def __missing__(self, text):
        if type(text) is not str:  # an int key would let True and 1.0 in
            raise KeyError(text)
        try:
            value = self[text] = parse_rational(text)
        except InputError:
            raise KeyError(text) from None
        return value


def _rational_list(rationals, labels, values, path, *keys):
    """values decoded through the table, as a list.  If it refuses a
    leaf, _rational decodes value by value, with labels naming the leaves
    below the path, so the error is the first bad leaf's."""
    try:
        return list(map(rationals.__getitem__, values))
    except (KeyError, TypeError):
        return [_rational(v, path, *keys, k) for k, v in zip(labels, values)]


def _rational_map(rationals, value, depth, path, *keys):
    """A JSON object `depth` levels deep with rationals at the leaves."""
    obj = _as_object(value, path, *keys)
    if depth == 1:
        return dict(zip(obj, _rational_list(rationals, obj, obj.values(),
                                            path, *keys)))
    return {key: _rational_map(rationals, sub, depth - 1, path, *keys, key)
            for key, sub in obj.items()}


def _rational_map_body(mapping, depth):
    """The inverse of _rational_map, with keys sorted at every level."""
    if depth == 1:
        return {key: format_rational(mapping[key]) for key in sorted(mapping)}
    return {key: _rational_map_body(mapping[key], depth - 1)
            for key in sorted(mapping)}


def _check_fields(obj, path, required, optional=()):
    for key in obj:
        if key not in required and key not in optional:
            raise ParseError(f"{path}.{key}", "unknown field")
    for key in required:
        if key not in obj:
            raise ParseError(path, f"missing required field {key!r}")


def _string_array(value, path, *keys):
    for i, v in enumerate(_as_array(value, path, *keys)):
        _as_string(v, path, *keys, i)
    return tuple(value)


def _build(path, factory):
    """Run a constructor, converting its InputError to a ParseError.

    Work-bound errors pass through untouched so callers can distinguish a
    too-large document from a malformed one.
    """
    try:
        return factory()
    except InputError as exc:
        raise ParseError(path, str(exc)) from None


def _parse_per_player_names(value, path, n, what):
    arr = _as_array(value, path)
    if len(arr) != n:
        raise ParseError(path, f"expected one {what} list per player")
    return tuple(_string_array(row, path, i) for i, row in enumerate(arr))


def _parse_payoff_table(value, path, actions, n_values, rationals):
    """Nested payoff arrays, one dimension per entry of `actions`, with a
    vector of n_values rationals innermost.  A node's key, its index
    tuple, also spells its path below `path`."""
    table = {}

    # rationals is passed, not closed over: walk's reference to itself is
    # a cycle, which would keep the table alive past the call
    def walk(node, key, rationals):
        _as_array(node, path, *key)
        depth = len(key)
        if depth == len(actions):
            if len(node) != n_values:
                raise ParseError(_at(path, *key), f"expected {n_values} payoffs")
            table[key] = tuple(_rational_list(
                rationals, range(n_values), node, path, *key))
            return
        if len(node) != len(actions[depth]):
            raise ParseError(
                _at(path, *key),
                f"expected {len(actions[depth])} entries at depth {depth}")
        for i, sub in enumerate(node):
            walk(sub, key + (i,), rationals)

    walk(value, (), rationals)
    return table


def _payoff_arrays(actions, values_of):
    def build(prefix):
        if len(prefix) == len(actions):
            return [format_rational(v) for v in values_of(prefix)]
        i = len(prefix)
        return [build(prefix + (a,)) for a in range(len(actions[i]))]

    return build(())


# ---------------------------------------------------------------------------
# normal-form games

def _parse_normal_body(obj, path, rationals):
    _check_fields(obj, path, required=("players", "actions", "payoffs"))
    players = _string_array(obj["players"], f"{path}.players")
    actions = _parse_per_player_names(
        obj["actions"], f"{path}.actions", len(players), "action")
    payoffs = _parse_payoff_table(
        obj["payoffs"], f"{path}.payoffs", actions, len(players), rationals)
    _build(path, lambda: _normal_frame(players, actions))
    return _trusted(NormalFormGame, players=players, actions=actions,
                    payoffs=payoffs)


def _normal_body(game: NormalFormGame):
    return {
        "players": list(game.players),
        "actions": [list(a) for a in game.actions],
        "payoffs": _payoff_arrays(game.actions,
                                  lambda key: game.payoffs[key]),
    }


# ---------------------------------------------------------------------------
# Bayesian games

def _parse_bayesian_body(obj, path, rationals):
    _check_fields(
        obj, path,
        required=("players", "types", "actions", "prior", "utilities"))
    players = _string_array(obj["players"], f"{path}.players")
    n = len(players)
    types = _parse_per_player_names(obj["types"], f"{path}.types", n, "type")
    actions = _parse_per_player_names(
        obj["actions"], f"{path}.actions", n, "action")

    # a repeated name keeps its last index; _bayesian_frame refuses it
    index = [{name: k for k, name in enumerate(names)} for names in types]
    prior = {}
    for i, entry in enumerate(_as_array(obj["prior"], f"{path}.prior")):
        epath = f"{path}.prior[{i}]"
        entry = _as_object(entry, epath)
        _check_fields(entry, epath, required=("types", "prob"))
        names = _string_array(entry["types"], epath, "types")
        if len(names) != n:
            raise ParseError(f"{epath}.types", "expected one type per player")
        key = []
        for j, tname in enumerate(names):
            if tname not in index[j]:
                raise ParseError(
                    f"{epath}.types[{j}]",
                    f"unknown type {tname!r} for player {players[j]}")
            key.append(index[j][tname])
        key = tuple(key)
        if key in prior:
            raise ParseError(epath, "duplicate type profile")
        prior[key] = _rational(entry["prob"], epath, "prob")

    type_dims = types + actions
    flat = _parse_payoff_table(
        obj["utilities"], f"{path}.utilities", type_dims, n, rationals)
    utilities = {
        (key[:n], key[n:]): vec for key, vec in flat.items()
    }
    _build(path, lambda: _bayesian_frame(players, types, actions))
    return _trusted(BayesianGame, players=players, types=types,
                    actions=actions, utilities=utilities,
                    prior=_build(path, lambda: _fixed_prior(prior, types)))


def _bayesian_body(game: BayesianGame):
    prior = []
    for key in sorted(game.prior):
        prior.append({
            "types": [game.types[i][t] for i, t in enumerate(key)],
            "prob": format_rational(game.prior[key]),
        })
    dims = game.types + game.actions
    n = game.n_players

    def values_of(prefix):
        return game.utilities[(prefix[:n], prefix[n:])]

    return {
        "players": list(game.players),
        "types": [list(t) for t in game.types],
        "actions": [list(a) for a in game.actions],
        "prior": prior,
        "utilities": _payoff_arrays(dims, values_of),
    }


# ---------------------------------------------------------------------------
# profiles

def _parse_profile_body(obj, path, rationals):
    _check_fields(obj, path, required=(), optional=("pure", "weights"))
    has_pure = "pure" in obj
    has_weights = "weights" in obj
    if has_pure == has_weights:
        raise ParseError(path, "expected exactly one of 'pure' and 'weights'")
    if has_pure:
        return ProfileDocument(pure=_string_array(obj["pure"], f"{path}.pure"))
    return ProfileDocument(
        weights=_rational_map(rationals, obj["weights"], 2,
                              f"{path}.weights"))


def _profile_body(doc: ProfileDocument):
    if doc.pure is not None:
        return {"pure": list(doc.pure)}
    return {"weights": _rational_map_body(doc.weights, 2)}


def _parse_bayes_profile_body(obj, path, rationals):
    _check_fields(obj, path, required=("strategies",))
    return BayesProfileDocument(
        _rational_map(rationals, obj["strategies"], 3, f"{path}.strategies"))


def _bayes_profile_body(doc: BayesProfileDocument):
    return {"strategies": _rational_map_body(doc.strategies, 3)}


# ---------------------------------------------------------------------------
# machine-choice games

def _parse_machine(obj, path, rationals):
    obj = _as_object(obj, path)
    _check_fields(obj, path, required=("id", "kind", "act", "complexity"))
    machine_id = _as_string(obj["id"], f"{path}.id")
    kind = _as_string(obj["kind"], f"{path}.kind")
    act = _rational_map(rationals, obj["act"], 2, f"{path}.act")
    complexity = _rational_map(rationals, obj["complexity"], 1,
                               f"{path}.complexity")
    return _build(path, lambda: OneShotMachine(machine_id, kind, act,
                                               complexity))


def _parse_compgame_body(obj, path, rationals):
    _check_fields(obj, path, required=("mode", "underlying", "machines"))
    mode = _as_string(obj["mode"], f"{path}.mode")
    if mode != "one-shot":
        raise ParseError(
            f"{path}.mode",
            "only one-shot machine games travel as documents; repeated play "
            "uses the repeated-spec kind")
    underlying = _parse_bayesian_body(
        _as_object(obj["underlying"], f"{path}.underlying"),
        f"{path}.underlying", rationals)
    spaces_arr = _as_array(obj["machines"], f"{path}.machines")
    if len(spaces_arr) != underlying.n_players:
        raise ParseError(f"{path}.machines",
                         "expected one machine list per player")
    spaces = []
    for i, space in enumerate(spaces_arr):
        spath = f"{path}.machines[{i}]"
        spaces.append(tuple(
            _parse_machine(m, f"{spath}[{j}]", rationals)
            for j, m in enumerate(_as_array(space, spath))))
    return _build(path, lambda: ComputationalGame(
        "one-shot", spaces, underlying=underlying))


def _machine_body(machine: OneShotMachine, types, actions):
    act = {}
    for tname in types:
        dist = machine.act[tname]
        act[tname] = {
            action: format_rational(dist[action])
            for action in actions if dist.get(action, 0) != 0
        }
    return {
        "id": machine.id,
        "kind": machine.kind,
        "act": act,
        "complexity": {
            tname: format_rational(machine.complexity[tname])
            for tname in types
        },
    }


def _compgame_body(game: ComputationalGame):
    if game.mode != "one-shot":
        raise InputError(
            "repeated-mode machine games are written as repeated-spec "
            "documents")
    under = game.underlying
    return {
        "mode": "one-shot",
        "underlying": _bayesian_body(under),
        "machines": [
            [_machine_body(m, under.types[i], under.actions[i])
             for m in space]
            for i, space in enumerate(game.spaces)
        ],
    }


# ---------------------------------------------------------------------------
# repeated-play specs

def _parse_repeated_body(obj, path, rationals):
    _check_fields(
        obj, path,
        required=("stage", "rounds", "discount", "memory_cost", "machines"),
        optional=("charged_players",))
    stage = _parse_normal_body(
        _as_object(obj["stage"], f"{path}.stage"), f"{path}.stage",
        rationals)
    rounds = _as_int(obj["rounds"], f"{path}.rounds")
    discount = _rational(obj["discount"], f"{path}.discount")
    memory_cost = _rational(obj["memory_cost"], f"{path}.memory_cost")
    names = _string_array(obj["machines"], f"{path}.machines")
    for i, name in enumerate(names):
        if name not in AUTOMATON_LIBRARY:
            raise ParseError(f"{path}.machines[{i}]",
                             f"unknown machine {name!r}")
    if "charged_players" in obj:
        arr = _as_array(obj["charged_players"], f"{path}.charged_players")
        if len(arr) != 2:
            raise ParseError(f"{path}.charged_players",
                             "expected exactly two booleans")
        charged = tuple(
            _as_bool(v, f"{path}.charged_players[{i}]")
            for i, v in enumerate(arr))
    else:
        charged = (True, True)
    spec = _build(path, lambda: RepeatedGameSpec(
        stage, rounds, discount, memory_cost))
    return RepeatedSpecDocument(spec, names, charged)


def _repeated_body(doc: RepeatedSpecDocument):
    return {
        "stage": _normal_body(doc.spec.stage),
        "rounds": doc.spec.rounds,
        "discount": format_rational(doc.spec.discount),
        "memory_cost": format_rational(doc.spec.memory_cost),
        "machines": list(doc.machine_names),
        "charged_players": list(doc.charged),
    }


# ---------------------------------------------------------------------------
# games with awareness

def _parse_tree_node(obj, path, history, acc, n_players, rationals):
    obj = _as_object(obj, path)
    if "payoffs" in obj:
        _check_fields(obj, path, required=("payoffs",))
        arr = _as_array(obj["payoffs"], path, "payoffs")
        if len(arr) != n_players:
            raise ParseError(f"{path}.payoffs",
                             f"expected {n_players} payoffs")
        acc["payoffs"][history] = tuple(_rational_list(
            rationals, range(n_players), arr, path, "payoffs"))
        return
    if "owner" not in obj:
        raise ParseError(path, "expected either 'payoffs' or 'owner'")
    owner = _as_string(obj["owner"], path, "owner")
    if owner == NATURE:
        _check_fields(obj, path, required=("owner", "moves"))
    else:
        _check_fields(obj, path,
                      required=("owner", "infoset", "awareness", "moves"))
        acc["infosets"][history] = _as_string(
            obj["infoset"], path, "infoset")
        acc["awareness"][history] = frozenset(
            _string_array(hist, path, "awareness", i)
            for i, hist in enumerate(
                _as_array(obj["awareness"], path, "awareness")))
    acc["owner"][history] = owner

    moves = []
    probs = {}
    edges = _as_array(obj["moves"], path, "moves")
    if not edges:
        raise ParseError(f"{path}.moves", "expected at least one move")
    for i, edge in enumerate(edges):
        epath = f"{path}.moves[{i}]"
        edge = _as_object(edge, epath)
        _check_fields(edge, epath, required=("move", "child"),
                      optional=("prob",) if owner == NATURE else ("virtual",))
        move = _as_string(edge["move"], epath, "move")
        moves.append(move)
        if "prob" in edge:
            probs[move] = _rational(edge["prob"], epath, "prob")
        if "virtual" in edge and _as_bool(edge["virtual"], epath, "virtual"):
            acc["virtual"].append((history, move))
        _parse_tree_node(edge["child"], f"{epath}.child", history + (move,),
                         acc, n_players, rationals)
    acc["moves"][history] = tuple(moves)
    if owner == NATURE:
        acc["nature"][history] = probs


def _parse_augmented_game(obj, path, rationals):
    obj = _as_object(obj, path)
    _check_fields(obj, path, required=("name", "players", "root"))
    name = _as_string(obj["name"], f"{path}.name")
    players = _string_array(obj["players"], f"{path}.players")
    acc = {"moves": {}, "owner": {}, "infosets": {}, "payoffs": {},
           "nature": {}, "awareness": {}, "virtual": []}
    _parse_tree_node(obj["root"], f"{path}.root", (), acc, len(players),
                     rationals)
    tree = _build(path, lambda: ExtensiveGame(
        players, acc["moves"], acc["owner"], acc["infosets"],
        acc["payoffs"], acc["nature"]))
    return _build(path, lambda: AugmentedGame(
        name, tree, acc["awareness"], acc["virtual"]))


def _parse_awareness_body(obj, path, rationals):
    _check_fields(obj, path, required=("games", "modeler", "F"))
    games_arr = _as_array(obj["games"], f"{path}.games")
    if not games_arr:
        raise ParseError(f"{path}.games", "expected at least one game")
    games = tuple(
        _parse_augmented_game(g, f"{path}.games[{i}]", rationals)
        for i, g in enumerate(games_arr))
    modeler = _as_string(obj["modeler"], f"{path}.modeler")

    views = {}
    for i, entry in enumerate(_as_array(obj["F"], f"{path}.F")):
        epath = f"{path}.F[{i}]"
        entry = _as_object(entry, epath)
        _check_fields(entry, epath,
                      required=("game", "node", "target_game", "target_set"))
        key = (_as_string(entry["game"], epath, "game"),
               _string_array(entry["node"], epath, "node"))
        if key in views:
            raise ParseError(epath, "duplicate belief entry")
        views[key] = (_as_string(entry["target_game"], epath, "target_game"),
                      _as_string(entry["target_set"], epath, "target_set"))

    if modeler not in {ag.name for ag in games}:
        raise ParseError(f"{path}.modeler", f"unknown game {modeler!r}")
    return _build(path, lambda: GameWithAwareness(games, modeler, views))


def _tree_node_body(ag: AugmentedGame, history):
    tree = ag.tree
    if tree.is_terminal(history):
        return {"payoffs": [format_rational(v) for v in tree.payoffs[history]]}
    owner = tree.owner[history]
    node = {"owner": owner}
    if owner != NATURE:
        node["infoset"] = tree.infosets[history]
        node["awareness"] = [
            list(h) for h in sorted(ag.awareness[history],
                                    key=lambda t: (len(t), t))
        ]
    edges = []
    for move in tree.moves[history]:
        edge = {"move": move}
        if owner == NATURE:
            edge["prob"] = format_rational(
                tree.nature_probs[history].get(move, 0))
        if (history, move) in ag.virtual_moves:
            edge["virtual"] = True
        edge["child"] = _tree_node_body(ag, history + (move,))
        edges.append(edge)
    node["moves"] = edges
    return node


def _awareness_body(gwa: GameWithAwareness):
    games = []
    for ag in gwa.games:
        games.append({
            "name": ag.name,
            "players": list(ag.tree.players),
            "root": _tree_node_body(ag, ()),
        })
    entries = []
    for ag in gwa.games:
        for h in ag.tree.internal_histories:
            if ag.tree.owner[h] == NATURE:
                continue
            target = gwa.views.get((ag.name, h))
            if target is None:
                continue
            entries.append({
                "game": ag.name,
                "node": list(h),
                "target_game": target[0],
                "target_set": target[1],
            })
    return {"games": games, "modeler": gwa.modeler, "F": entries}


def _parse_generalized_profile_body(obj, path, rationals):
    _check_fields(obj, path, required=("strategies",))
    strategies = {}
    for i, entry in enumerate(_as_array(obj["strategies"],
                                        f"{path}.strategies")):
        epath = f"{path}.strategies[{i}]"
        entry = _as_object(entry, epath)
        _check_fields(entry, epath, required=("player", "game", "moves"))
        pair = (_as_string(entry["player"], f"{epath}.player"),
                _as_string(entry["game"], f"{epath}.game"))
        if pair in strategies:
            raise ParseError(epath, "duplicate (player, game) entry")
        strategies[pair] = _rational_map(rationals, entry["moves"], 2,
                                         f"{epath}.moves")
    return _build(path, lambda: GeneralizedProfile(strategies))


def _generalized_profile_body(profile: GeneralizedProfile):
    return {"strategies": [
        {"player": pair[0], "game": pair[1],
         "moves": _rational_map_body(profile.strategies[pair], 2)}
        for pair in sorted(profile.strategies)
    ]}


# ---------------------------------------------------------------------------
# simulator scenarios

def _parse_scenario_body(obj, path, rationals):
    _check_fields(obj, path, required=("n", "preference"),
                  optional=("general", "mediator_present", "faults"))
    n = _as_int(obj["n"], f"{path}.n")
    preference = _as_int(obj["preference"], f"{path}.preference")
    general = None
    if "general" in obj:
        general = _as_string(obj["general"], f"{path}.general")
    mediator_present = True
    if "mediator_present" in obj:
        mediator_present = _as_bool(obj["mediator_present"],
                                    f"{path}.mediator_present")
    faults = {}
    if "faults" in obj:
        for player, name in _as_object(obj["faults"],
                                       f"{path}.faults").items():
            faults[player] = _as_string(name, f"{path}.faults.{player}")
    return _build(path, lambda: Scenario(
        n, preference, general=general, mediator_present=mediator_present,
        faults=faults))


def _scenario_body(scenario: Scenario):
    names = scenario.fault_names()
    return {
        "n": scenario.n,
        "preference": scenario.preference,
        "general": scenario.general,
        "mediator_present": scenario.mediator_present,
        "faults": {
            player: names[player]
            for player in sorted(names, key=lambda p: (len(p), p))
        },
    }


# ---------------------------------------------------------------------------
# entry points

# kind -> (value class, body parser, body writer).  document_body gives a
# value the first kind, in this order, whose class it is an instance of.
_DOCUMENT_KINDS = {
    "normal-form": (NormalFormGame, _parse_normal_body, _normal_body),
    "bayesian": (BayesianGame, _parse_bayesian_body, _bayesian_body),
    "profile": (ProfileDocument, _parse_profile_body, _profile_body),
    "bayesian-profile": (BayesProfileDocument, _parse_bayes_profile_body,
                         _bayes_profile_body),
    "compgame": (ComputationalGame, _parse_compgame_body, _compgame_body),
    "repeated-spec": (RepeatedSpecDocument, _parse_repeated_body,
                      _repeated_body),
    "awareness": (GameWithAwareness, _parse_awareness_body, _awareness_body),
    "generalized-profile": (GeneralizedProfile,
                            _parse_generalized_profile_body,
                            _generalized_profile_body),
    "scenario": (Scenario, _parse_scenario_body, _scenario_body),
}
KINDS = tuple(_DOCUMENT_KINDS)


def parse_document(text: str) -> GameDocument:
    """Parse one JSON document into its materialized value."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("$", exc.msg, line=exc.lineno,
                         column=exc.colno) from None
    except ValueError as exc:  # an int literal past int()'s digit limit
        raise ParseError("$", "a number literal "
                         + str(exc).partition(";")[0].lower()) from None
    data = _as_object(data, "$")
    if "format" not in data:
        raise ParseError("$", "missing required field 'format'")
    fmt = data["format"]
    if not isinstance(fmt, int) or isinstance(fmt, bool) or fmt != 1:
        raise ParseError("$.format", f"unsupported format {fmt!r}, expected 1")
    if "kind" not in data:
        raise ParseError("$", "missing required field 'kind'")
    kind = data["kind"]
    if not isinstance(kind, str) or kind not in _DOCUMENT_KINDS:
        raise ParseError("$.kind", f"unknown document kind {kind!r}")
    body = {key: v for key, v in data.items() if key not in ("format", "kind")}
    return GameDocument(kind, _DOCUMENT_KINDS[kind][1](
        body, "$", _RationalTable()))


def load_document(path) -> GameDocument:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError("$", f"cannot read {path}: {exc.strerror}") from None
    return parse_document(text)


def document_body(value):
    """The kind tag and the JSON-ready body of a supported value's document.

    The body is the document without its `format` and `kind` fields, in
    canonical field and entry order.
    """
    if isinstance(value, GameDocument):
        value = value.value
    for kind, (cls, _, body_of) in _DOCUMENT_KINDS.items():
        if isinstance(value, cls):
            return kind, body_of(value)
    raise InputError(
        f"cannot serialize a {type(value).__name__} as a document")


def serialize_document(value) -> str:
    """Canonical JSON text for a supported value; ends with a newline."""
    kind, body = document_body(value)
    return json_text({"format": 1, "kind": kind, **body}) + "\n"


def json_text(value) -> str:
    """The text of json.dumps(value, indent=2, ensure_ascii=False).

    Up to Python 3.13 json.dumps lays out indented text with its
    pure-Python encoder; this lays out lists and string-keyed objects in
    one recursive pass and leaves every other value to json.dumps.
    """
    chunks = []
    _write_json(value, "\n", chunks)
    return "".join(chunks)


def _write_json(value, newline, chunks):
    """Append value's text to chunks; newline starts each of its lines."""
    if isinstance(value, (list, tuple)) and value:
        inner = newline + "  "
        chunks.append("[")
        for item in value:
            if isinstance(item, str):
                chunks += (inner, encode_basestring(item), ",")
            else:
                chunks.append(inner)
                _write_json(item, inner, chunks)
                chunks.append(",")
        chunks[-1] = newline + "]"
    elif (isinstance(value, dict) and value
          and all(isinstance(key, str) for key in value)):
        inner = newline + "  "
        chunks.append("{")
        for key, item in value.items():
            chunks += (inner, encode_basestring(key), ": ")
            if isinstance(item, str):
                chunks.append(encode_basestring(item))
            else:
                _write_json(item, inner, chunks)
            chunks.append(",")
        chunks[-1] = newline + "}"
    else:
        chunks.append(json.dumps(value, indent=2, ensure_ascii=False)
                      .replace("\n", newline))


def write_document(value, path) -> None:
    text = serialize_document(value)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
