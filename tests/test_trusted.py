"""Values the package builds skip the validating constructors
(games._trusted); these tests keep such a build equal to a validated one,
and check that accepting a value builds no error text."""

import random
from fractions import Fraction

import pytest

from _gen import random_small_game
from eqcheck import machines, trees
from eqcheck.awareness import (AugmentedGame, GameWithAwareness,
                               canonical_representation, crossing_game)
from eqcheck.catalog import (bargaining_game, matching_pennies,
                             prisoners_dilemma, zero_one_game)
from eqcheck.errors import InputError
from eqcheck.fileformat import parse_document, serialize_document
from eqcheck.games import BayesianGame, NormalFormGame
from eqcheck.machines import (ComputationalGame, OneShotMachine,
                              build_primality_game,
                              build_repeated_dilemma_game,
                              build_roshambo_game, zeroed_complexity)
from eqcheck.repeated import (RepeatedGameAutomaton, RepeatedGameSpec,
                              all_cooperate, all_defect, defect_last,
                              grim_trigger, retaliating_defect_last,
                              tit_for_tat)
from test_trees import _go_stop_chain, entry_tree

F = Fraction

# each class's public constructor, called with an instance's own fields
_CONSTRUCTORS = {
    RepeatedGameAutomaton: lambda v: RepeatedGameAutomaton(
        v.id, v.states, v.initial, v.output, v.transition),
    RepeatedGameSpec: lambda v: RepeatedGameSpec(
        v.stage, v.rounds, v.discount, v.memory_cost),
    NormalFormGame: lambda v: NormalFormGame(v.players, v.actions, v.payoffs),
    BayesianGame: lambda v: BayesianGame(
        v.players, v.types, v.actions, v.prior, v.utilities),
    OneShotMachine: lambda v: OneShotMachine(
        v.id, v.kind, v.act, v.complexity),
    ComputationalGame: lambda v: ComputationalGame(
        v.mode, v.spaces, v.underlying, v.repeated_spec, v.charged),
    AugmentedGame: lambda v: AugmentedGame(
        v.name, v.tree, v.awareness, v.virtual_moves),
}


def _parts(value):
    """value and the library-built values inside it."""
    if isinstance(value, GameWithAwareness):
        return list(value.games)
    if isinstance(value, ComputationalGame):
        inner = value.underlying or value.repeated_spec
        return [value, inner] + [m for space in value.spaces for m in space]
    return [value]


def _tagged(value):
    """value with every container and scalar tagged by its type, so that a
    list never equals a tuple, nor an int a Fraction; dicts keep their
    order and sets are sorted."""
    if isinstance(value, dict):
        return dict, [(_tagged(k), _tagged(v)) for k, v in value.items()]
    if isinstance(value, (frozenset, set)):
        return type(value), [_tagged(v) for v in sorted(value, key=repr)]
    if isinstance(value, (list, tuple)):
        return type(value), [_tagged(v) for v in value]
    return type(value), value


def _library_values():
    for rounds in range(1, 6):
        yield defect_last(rounds)
        yield retaliating_defect_last(rounds)
    yield from (all_cooperate(), all_defect(), tit_for_tat(), grim_trigger())
    yield from (zero_one_game(2), zero_one_game(3), bargaining_game(5),
                prisoners_dilemma(), matching_pennies())
    roshambo = build_roshambo_game()
    primality = build_primality_game(4, F(1, 2))
    dilemma = build_repeated_dilemma_game(3, F(9, 10), F(1, 10),
                                          charged=(True, False))
    yield from (roshambo, build_roshambo_game(0, F(1, 3)), primality)
    yield from map(zeroed_complexity, (roshambo, primality, dilemma))
    rng = random.Random(21)
    trees_ = [entry_tree(), _go_stop_chain(6)] + [
        random_small_game(rng) for _ in range(20)]
    yield from map(canonical_representation, trees_)
    yield from (crossing_game(p) for p in (F(0), F(3, 10), F(1)))


def test_trusted_builds_match_their_constructors():
    seen = set()
    for value in _library_values():
        for part in _parts(value):
            rebuilt = _CONSTRUCTORS[type(part)](part)
            assert vars(part) == vars(rebuilt)
            assert _tagged(vars(part)) == _tagged(vars(rebuilt))
            seen.add(type(part))
    assert seen == set(_CONSTRUCTORS)


@pytest.mark.parametrize("build", [build_roshambo_game,
                                   lambda: build_primality_game(3, 1)])
def test_zeroed_machines_share_no_dict_with_the_source(build):
    game = build()
    zeroed = zeroed_complexity(game)
    for space, free_space in zip(game.spaces, zeroed.spaces):
        for machine, free in zip(space, free_space):
            assert free.act == machine.act and free.act is not machine.act
            assert all(free.act[t] is not machine.act[t] for t in free.act)
            assert set(free.complexity.values()) == {0}
            assert machine.complexity is not free.complexity


def test_accepting_paths_name_no_value(monkeypatch):
    """The constructors on a document's path and on a tree's pass
    as_fraction a name only for a value they refuse."""
    text = serialize_document(build_primality_game(9, F(1, 2)))
    names = []
    for module in (machines, trees):
        def recorder(value, *where, real=module.as_fraction):
            names.extend(where)
            return real(value, *where)
        monkeypatch.setattr(module, "as_fraction", recorder)
    parse_document(text)
    _go_stop_chain(12)
    assert names == []
    with pytest.raises(InputError):
        OneShotMachine("m", "randomized", {"t": {"a": 0.5}}, {"t": 0})
    assert names == ["machine m, type t, action a"]
