"""Bundled example documents, ready to feed to the command line.

names() lists the shipped files and path() gives one file's location.
Every file is the canonical serialization of an object the library builds.
"""

import os

_DIR = os.path.dirname(__file__)


def names():
    return tuple(sorted(n for n in os.listdir(_DIR) if n.endswith(".json")))


def path(name):
    return os.path.join(_DIR, name)
