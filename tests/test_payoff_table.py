"""The payoff-table reader checks a table one level at a time and decodes
its leaves in one pass.  These tests compare it with the depth-first walk
it replaced, which reads a table node by node in document order: on
seeded normal-form and Bayesian tables, with respelled leaves and with a
hostile node at every depth, both must give the same table or the same
error."""

import random
from fractions import Fraction

import pytest

from eqcheck import fileformat
from eqcheck.errors import ParseError

F = Fraction
PATH = "$.payoffs"
SEEDS = range(12)
BAD_LEAVES = (True, 1.5, [], "1/0")


def _walk(value, path, actions, n_values, rationals):
    """The reference: the node-by-node walk the reader replaced, copied
    here so that the reader's own error walk is not its own oracle."""
    table = {}
    stack = [((), value)]
    while stack:
        key, node = stack.pop()
        depth = len(key)
        if depth == len(actions):
            table[key] = fileformat._payoff_vector(
                rationals, node, n_values, path, *key)
            continue
        fileformat._as_array(node, path, *key)
        if len(node) != len(actions[depth]):
            raise ParseError(
                fileformat._at(path, *key),
                f"expected {len(actions[depth])} entries at depth {depth}")
        stack += [(key + (i,), node[i]) for i in reversed(range(len(node)))]
    return table


def _outcome(read, value, actions, n_values):
    """(items with leaf types, None) or (None, (path, message))."""
    try:
        table = read(value, PATH, actions, n_values,
                     fileformat._RationalTable())
    except ParseError as exc:
        return None, (exc.path, str(exc))
    return [(key, vec, [type(v) for v in vec])
            for key, vec in table.items()], None


def _spell(rng, value, bare):
    """value as a document could write it: canonical, with a leading + or
    U+2212 minus, unreduced, or if `bare` and whole, as a bare int (which
    the table refuses, so that the table is read vector by vector)."""
    n, d = value.numerator, value.denominator
    sign = "−" if n < 0 else "+"
    spellings = [str(n) if d == 1 else f"{n}/{d}",
                 f"{sign}{abs(n)}" + ("" if d == 1 else f"/{d}"),
                 f"{2 * n}/{2 * d}"]
    if bare and d == 1:
        spellings.append(n)
    return rng.choice(spellings)


def _table(rng, sizes, n_values, bare):
    """Nested arrays, one dimension per entry of sizes."""
    if not sizes:
        return [_spell(rng, F(rng.randint(-9, 9), rng.choice((1, 1, 2, 3))),
                       bare) for _ in range(n_values)]
    return [_table(rng, sizes[1:], n_values, bare) for _ in range(sizes[0])]


def _shapes(seed):
    """(actions, n_values): a normal-form table of 1-5 players, whose
    vector has one payoff per dimension, and a Bayesian one of 1-2
    players, whose dimensions are the types and then the actions."""
    rng = random.Random(seed)
    n = 1 + seed % 5
    yield [tuple(f"a{k}" for k in range(rng.randint(1, 4 if n < 4 else 2)))
           for _ in range(n)], n
    m = 1 + seed % 2
    yield [tuple(f"t{k}" for k in range(rng.randint(1, 3)))
           for _ in range(2 * m)], m


def _cases():
    for seed in SEEDS:
        for shape, (actions, n_values) in enumerate(_shapes(seed)):
            for bare in (False, True):
                yield pytest.param(
                    seed, actions, n_values, bare,
                    id=f"seed{seed}-{('normal', 'bayes')[shape]}"
                       f"{'-bare' * bare}")


def _nodes(value, depth, key=()):
    """(key, node) of every node `depth` levels below value."""
    if depth == 0:
        yield key, value
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from _nodes(child, depth - 1, key + (i,))


def _replace(value, key, new):
    """A copy of value with the node at key replaced by new."""
    if not key:
        return new
    copy = list(value)
    copy[key[0]] = _replace(value[key[0]], key[1:], new)
    return copy


def _mutants(rng, value, dims):
    """value with one hostile node at each depth, and with two at once,
    so that the first error in document order is the one that counts."""
    for depth in range(dims + 2):
        key, node = rng.choice(list(_nodes(value, depth)))
        if depth <= dims:  # an array: of the wrong length, or not one
            yield _replace(value, key, node + [node[-1]])
            yield _replace(value, key, node[:-1])
            yield _replace(value, key, rng.choice(("1", {}, None, 3)))
        else:
            for bad in BAD_LEAVES:
                yield _replace(value, key, bad)
    for _ in range(8):
        mutant = value
        for _ in range(2):
            nodes = list(_nodes(mutant, rng.randrange(dims + 2)))
            if not nodes:  # the first mutation cut this depth away
                continue
            key, node = rng.choice(nodes)
            if isinstance(node, list) and node:
                new = rng.choice((node[:-1], node + [node[0]], "1"))
            else:
                new = rng.choice(BAD_LEAVES)
            mutant = _replace(mutant, key, new)
        yield mutant


@pytest.mark.parametrize("seed, actions, n_values, bare", _cases())
def test_reader_matches_walk(seed, actions, n_values, bare):
    rng = random.Random(1000 + seed)
    value = _table(rng, [len(a) for a in actions], n_values, bare)
    table, error = _outcome(fileformat._parse_payoff_table, value, actions,
                            n_values)
    assert error is None
    assert table == _outcome(_walk, value, actions, n_values)[0]
    for mutant in _mutants(rng, value, len(actions)):
        assert (_outcome(fileformat._parse_payoff_table, mutant, actions,
                         n_values)
                == _outcome(_walk, mutant, actions, n_values))


def test_keys_follow_the_dimensions_in_order():
    actions = [("a", "b"), ("x", "y", "z")]
    value = [[[str(3 * i + j)] for j in range(3)] for i in range(2)]
    table = fileformat._parse_payoff_table(value, PATH, actions, 1,
                                           fileformat._RationalTable())
    assert list(table.items()) == [
        ((i, j), (F(3 * i + j),)) for i in range(2) for j in range(3)]


@pytest.mark.parametrize("vector, message", [
    (["1", "2", "3"], "$.payoffs[1][0]: expected 2 payoffs"),
    (["1"], "$.payoffs[1][0]: expected 2 payoffs"),
    ("1", "$.payoffs[1][0]: expected a JSON array"),
])
def test_a_vector_of_the_wrong_size_is_refused(vector, message):
    """A vector one leaf long or short would shift every later leaf into
    the wrong vector if only the leaf count were checked."""
    value = [[["1", "2"]], [vector], [["5", "6"]]]
    with pytest.raises(ParseError) as info:
        fileformat._parse_payoff_table(value, PATH, [("a", "b", "c"), ("x",)],
                                       2, fileformat._RationalTable())
    assert str(info.value) == message
