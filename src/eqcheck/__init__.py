"""Exact equilibrium checking.

Strategic-form and Bayesian games with coalition-resilience and immunity
checks, machine-choice games where strategies carry complexity costs,
finitely repeated play between automata, games whose players may be
unaware of moves, and a synchronous agreement simulator with a library of
adversaries.  All arithmetic is exact (fractions.Fraction); every failing
check returns a structured witness.
"""

from .awareness import (AugmentedGame, GameWithAwareness, GeneralizedProfile,
                        canonical_representation, crossing_game,
                        find_pure_generalized_nash, is_generalized_nash)
from .basim import (ADVERSARY_LIBRARY, DEFAULT_ADVERSARIES, MEDIATOR_ID,
                    PROTOCOLS, AdversaryStrategy, Scenario, SweepReport,
                    Transcript, build_adversary_game,
                    build_preference_bayes_game, check_ba,
                    empirical_immunity, indicator_utilities, sweep)
from .catalog import (bargaining_game, matching_pennies, prisoners_dilemma,
                      zero_one_game)
from .errors import (EqcheckError, InputError, ParseError, WorkBoundExceeded)
from .fileformat import (KINDS, BayesProfileDocument, GameDocument,
                         ProfileDocument, RepeatedSpecDocument,
                         load_document, parse_document, serialize_document,
                         write_document)
from .games import (BayesianGame, BayesianStrategyProfile, MixedProfile,
                    NormalFormGame, bayes_expected_utility,
                    best_response_value, expected_utility, is_bayes_nash,
                    is_nash)
from .machines import (ComputationalGame, OneShotMachine, ThresholdReport,
                       build_primality_game, build_repeated_dilemma_game,
                       build_roshambo_game, comp_expected_utility,
                       exhaustive_machine_equilibria, induced_machine_game,
                       is_machine_nash, machine_action, tit_for_tat_threshold,
                       zeroed_complexity)
from .rationals import as_fraction, format_rational, parse_rational
from .repeated import (AUTOMATON_LIBRARY, DEFAULT_SPACE,
                       RepeatedGameAutomaton, RepeatedGameSpec,
                       library_space, run_automata)
from .robustness import (ResilienceSemantics, RobustnessQuery,
                         check_immunity, check_resilience, check_robust,
                         enumerate_pure_robust)
from .trees import (NATURE, ExtensiveGame, induced_normal_form,
                    pure_strategies)
from .verdicts import Verdict, Witness, to_jsonable

__version__ = "0.1.0"

__all__ = [
    "ADVERSARY_LIBRARY", "AUTOMATON_LIBRARY", "AdversaryStrategy",
    "AugmentedGame", "BayesProfileDocument", "BayesianGame",
    "BayesianStrategyProfile", "ComputationalGame", "DEFAULT_ADVERSARIES",
    "DEFAULT_SPACE", "EqcheckError", "ExtensiveGame", "GameDocument",
    "GameWithAwareness", "GeneralizedProfile", "InputError", "KINDS",
    "MEDIATOR_ID", "MixedProfile", "NATURE", "NormalFormGame",
    "OneShotMachine", "PROTOCOLS", "ParseError", "ProfileDocument",
    "RepeatedGameAutomaton", "RepeatedGameSpec", "RepeatedSpecDocument",
    "ResilienceSemantics", "RobustnessQuery", "Scenario", "SweepReport",
    "ThresholdReport", "Transcript", "Verdict", "Witness",
    "WorkBoundExceeded", "as_fraction", "bargaining_game",
    "bayes_expected_utility", "best_response_value",
    "build_adversary_game", "build_preference_bayes_game",
    "build_primality_game", "build_repeated_dilemma_game",
    "build_roshambo_game", "canonical_representation", "check_ba",
    "check_immunity", "check_resilience", "check_robust",
    "comp_expected_utility", "crossing_game", "empirical_immunity",
    "enumerate_pure_robust", "exhaustive_machine_equilibria",
    "expected_utility", "find_pure_generalized_nash", "format_rational",
    "indicator_utilities", "induced_machine_game", "induced_normal_form",
    "is_bayes_nash", "is_generalized_nash", "is_machine_nash", "is_nash",
    "library_space", "load_document", "machine_action", "matching_pennies",
    "parse_document", "parse_rational", "prisoners_dilemma",
    "pure_strategies", "run_automata", "serialize_document", "sweep",
    "tit_for_tat_threshold", "to_jsonable", "write_document",
    "zero_one_game", "zeroed_complexity",
]
