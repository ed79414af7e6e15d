"""The recipe behind eqcheck.data: each shipped document's source object."""

import os
from fractions import Fraction

from eqcheck.awareness import GeneralizedProfile, crossing_game
from eqcheck.basim import Scenario
from eqcheck.catalog import (bargaining_game, matching_pennies,
                             prisoners_dilemma, zero_one_game)
from eqcheck.fileformat import (ProfileDocument, RepeatedSpecDocument,
                                serialize_document)
from eqcheck.machines import (build_primality_game, build_roshambo_game,
                              zeroed_complexity)
from eqcheck.repeated import DEFAULT_SPACE, RepeatedGameSpec


def bundled_objects():
    """Shipped file name -> the object whose serialization it holds."""
    frpd = RepeatedSpecDocument(
        RepeatedGameSpec(prisoners_dilemma(), rounds=9,
                         discount=Fraction(9, 10),
                         memory_cost=Fraction(1, 10)),
        DEFAULT_SPACE, (True, True))
    crossing_eq = GeneralizedProfile.pure({
        ("B", "modeler"): {"B": "down_B"},
        ("A", "a_view"): {"A.1": "across_A"},
        ("A", "b_view"): {"A.3": "down_A"},
        ("B", "b_view"): {"B.3": "across_B"},
    })
    return {
        "zero_one_3.json": zero_one_game(3),
        "bargaining_5.json": bargaining_game(5),
        "prisoners_dilemma.json": prisoners_dilemma(),
        "matching_pennies.json": matching_pennies(),
        "all_zero.json": ProfileDocument(pure=("0", "0", "0")),
        "all_stay.json": ProfileDocument(pure=("stay",) * 5),
        "defect_both.json": ProfileDocument(pure=("D", "D")),
        "roshambo.json": build_roshambo_game(),
        "roshambo_zero_cost.json": zeroed_complexity(build_roshambo_game()),
        "primality_4bit.json": build_primality_game(4, Fraction(1, 2)),
        "frpd.json": frpd,
        "crossing_p3.json": crossing_game(Fraction(3, 10)),
        "crossing_p7.json": crossing_game(Fraction(7, 10)),
        "crossing_eq.json": crossing_eq,
        "ba_scenario.json": Scenario(4, 1),
    }


def write_bundle(target_dir):
    """Write every recipe's document under target_dir, by its file name."""
    for name, obj in sorted(bundled_objects().items()):
        with open(os.path.join(target_dir, name), "w",
                  encoding="utf-8") as handle:
            handle.write(serialize_document(obj))
