"""Builders for the bundled example games."""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import InputError
from .games import NormalFormGame, _normal_frame, _trusted


def zero_one_game(n=3):
    """n-player coordination game over actions {0, 1}.

    Everyone playing 0 pays 1 to each player; exactly two players playing 1
    pays those two 2 and the rest 0; anything else pays everyone 0.  The
    all-0 profile is a Nash equilibrium that any pair can profitably
    abandon together.
    """
    players, actions, _ = _normal_frame(
        _players(n, "zero_one_game"), (("0", "1"),) * n)
    payoffs = {}
    for profile in _profiles(actions):
        ones = sum(profile)
        if ones == 0:
            vec = [1] * n
        elif ones == 2:
            vec = [2 if a == 1 else 0 for a in profile]
        else:
            vec = [0] * n
        payoffs[profile] = tuple(map(Fraction, vec))
    return _trusted(NormalFormGame, players=players, actions=actions,
                    payoffs=payoffs)


def bargaining_game(n=5):
    """n agents choose to stay at the table or leave.

    All staying pays 2 each; once anyone leaves, leavers get 1 and stayers
    get 0.  All-stay resists every coalition (nobody can reach more than 1
    by deviating) but a single leaver hurts everyone who stays.
    """
    players, actions, _ = _normal_frame(
        _players(n, "bargaining_game"), (("stay", "leave"),) * n)
    payoffs = {}
    for profile in _profiles(actions):
        leavers = sum(profile)
        if leavers == 0:
            vec = [2] * n
        else:
            vec = [1 if a == 1 else 0 for a in profile]
        payoffs[profile] = tuple(map(Fraction, vec))
    return _trusted(NormalFormGame, players=players, actions=actions,
                    payoffs=payoffs)


def prisoners_dilemma():
    """Two-player dilemma stage game.

    Payoff table (row player first): (C,C) -> (3,3), (C,D) -> (-5,5),
    (D,C) -> (5,-5), (D,D) -> (-3,-3).  Mutual defection pays (-3,-3) here;
    some presentations use (1,1) for that cell, this table does not.
    """
    table = {
        (0, 0): (3, 3),
        (0, 1): (-5, 5),
        (1, 0): (5, -5),
        (1, 1): (-3, -3),
    }
    payoffs = {key: tuple(map(Fraction, vec)) for key, vec in table.items()}
    return _trusted(NormalFormGame, players=("p1", "p2"),
                    actions=(("C", "D"), ("C", "D")), payoffs=payoffs)


def matching_pennies():
    """Zero-sum matching game; the only equilibrium is mixed."""
    payoffs = {
        (0, 0): (Fraction(1), Fraction(-1)),
        (0, 1): (Fraction(-1), Fraction(1)),
        (1, 0): (Fraction(-1), Fraction(1)),
        (1, 1): (Fraction(1), Fraction(-1)),
    }
    return _trusted(NormalFormGame, players=("p1", "p2"),
                    actions=(("H", "T"), ("H", "T")), payoffs=payoffs)


def _players(n, builder):
    """p1..pn, after checking that n is an int (not a bool) of at least 2."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise InputError(
            f"{builder} needs an integer player count, got {type(n).__name__}")
    if n < 2:
        raise InputError(f"{builder} needs at least 2 players")
    return tuple(f"p{i + 1}" for i in range(n))


def _profiles(actions):
    return itertools.product(*(range(len(a)) for a in actions))
