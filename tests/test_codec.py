"""The document codec as a whole: a hostile value in place of any node of a
bundled document ends in a ParseError or in stable bytes, and no parse,
write or JSON report leaves garbage for the cycle collector."""

import gc
import json
import random

import pytest

import eqcheck.data as data
from eqcheck import cli
from eqcheck.errors import ParseError, WorkBoundExceeded
from eqcheck.fileformat import parse_document, serialize_document

_HOSTILE = (1.5, True, [], {}, "x", "1.5", {"z": "1"}, None, 3, "1/0")

# the share of (node, hostile value) pairs each document's slice tries; the
# whole sweep, about 14,000 mutants, takes several seconds
_SHARE = 0.25


def _text(name):
    with open(data.path(name), encoding="utf-8") as handle:
        return handle.read()


def _nodes(node, parent=None, key=None):
    """(container, key) of every node below the root, depth first."""
    if parent is not None:
        yield parent, key
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for k, sub in list(items):
        yield from _nodes(sub, node, k)


@pytest.mark.parametrize("name", data.names())
def test_a_hostile_node_is_refused_or_round_trips(name):
    obj = json.loads(_text(name))
    rng = random.Random(name)
    mutants, unstable = 0, []
    for parent, key in _nodes(obj):
        was = parent[key]
        for value in _HOSTILE:
            if rng.random() >= _SHARE:
                continue
            parent[key] = value
            text = json.dumps(obj)
            parent[key] = was
            mutants += 1
            try:
                first = serialize_document(parse_document(text))
            except (ParseError, WorkBoundExceeded):
                continue
            if serialize_document(parse_document(first)) != first:
                unstable.append((key, value))
    assert mutants > 0
    assert unstable == []


_REPORTS = [
    ["check", "robust", "--game", data.path("zero_one_3.json"),
     "--profile", data.path("all_zero.json"), "--k", "1", "--t", "0",
     "--format", "json"],
    ["compgame", "check", "--game", data.path("roshambo_zero_cost.json"),
     "--machines", "uniform,uniform", "--format", "json"],
    ["aware", "validate", "--game", data.path("crossing_p3.json"),
     "--format", "json"],
    ["simulate", "run", "--scenario", data.path("ba_scenario.json"),
     "--report", "json"],
]


def test_the_codec_leaves_no_garbage(capsys):
    """Each parse, write and JSON report is freed by reference counting
    alone: with the collector off, it finds nothing after each call."""
    left = {}
    gc.collect()
    gc.disable()
    try:
        for name in data.names():
            doc = parse_document(_text(name))
            left[f"parse {name}"] = gc.collect()
            serialize_document(doc)
            left[f"serialize {name}"] = gc.collect()
        for argv in _REPORTS:
            cli.main(argv)
            left[" ".join(argv[:2])] = gc.collect()
    finally:
        gc.enable()
    capsys.readouterr()
    assert {call: n for call, n in left.items() if n} == {}
