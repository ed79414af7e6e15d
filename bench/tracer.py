"""Per-layer tracing from outside the library.

The tracer wraps the public functions of every ``eqcheck`` module, the
constructors of the main value classes and ``GameWithAwareness.validate``.
It patches every module attribute that refers to a wrapped function, so a
call resolves to the wrapper whichever module made it.  Nothing under
``src/`` changes; ``uninstall`` restores the originals.

A layer is one ``eqcheck`` module.  Each span records its name, start,
end, parent span and job id in flat arrays kept in memory.  Spans are only
recorded while a job is open; a function calling itself records one span
for the outermost call.  A layer's self time is the time of its spans
minus the time of their child spans; the job span's own self time is the
benchmark's unattributed time.
"""

from __future__ import annotations

import array
import collections
import functools
import importlib
import json
import math
import statistics
import time
import types

MODULES = ("awareness", "basim", "catalog", "cli", "data", "errors",
           "fileformat", "games", "machines", "rationals", "repeated",
           "robustness", "trees", "verdicts")

# A span per call would time mostly the tracer: as_fraction is a type
# coercion run once per table entry inside every constructor.
SKIP = {"rationals.as_fraction"}

CONSTRUCTORS = {
    "games": ("NormalFormGame", "BayesianGame", "MixedProfile",
              "BayesianStrategyProfile"),
    "trees": ("ExtensiveGame",),
    "machines": ("ComputationalGame", "OneShotMachine"),
    "repeated": ("RepeatedGameAutomaton", "RepeatedGameSpec"),
    "awareness": ("AugmentedGame", "GameWithAwareness", "GeneralizedProfile"),
    "basim": ("Scenario",),
}
METHODS = {"awareness": (("GameWithAwareness", "validate"),)}

GAMES_CONSTRUCT = ("games.NormalFormGame", "games.BayesianGame",
                   "games.MixedProfile")
JOB = "bench.job"


def _observe_parse(counters, args, result):
    counters["fileformat.parse_bytes"] += len(args[0].encode("utf-8"))


def _observe_serialize(counters, args, result):
    counters["fileformat.serialize_bytes"] += len(result.encode("utf-8"))


def _observe_enumerate(counters, args, result):
    counters["robustness.profiles_enumerated"] += math.prod(
        len(a) for a in args[0].actions)
    counters["robustness.profiles_found"] += len(result)


def _observe_threshold(counters, args, result):
    counters["machines.threshold_horizons"] += (
        (result.symmetric or result.n_max) + (result.asymmetric or result.n_max))


def _observe_run_automata(counters, args, result):
    counters["repeated.rounds_simulated"] += args[0].rounds


def _observe_gnash(counters, args, result):
    counters["awareness.gnash_holds"] += result.holds


OBSERVERS = {
    "fileformat.parse_document": _observe_parse,
    "fileformat.serialize_document": _observe_serialize,
    "robustness.enumerate_pure_robust": _observe_enumerate,
    "machines.tit_for_tat_threshold": _observe_threshold,
    "repeated.run_automata": _observe_run_automata,
    "awareness.is_generalized_nash": _observe_gnash,
}


class Tracer:
    def __init__(self):
        self.names = [JOB]
        self.ids = {JOB: 0}
        self.patches = []
        self.reset()

    def reset(self):
        """Drop recorded spans and counters; wrappers stay installed."""
        self.name = array.array("l")
        self.parent = array.array("l")
        self.job = array.array("l")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counters = collections.Counter()
        self.current = -1
        self.job_id = -1

    # --- recording --------------------------------------------------------

    def _open(self, name_id):
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.current)
        self.job.append(self.job_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.current = index
        return index

    def begin_job(self, job_id):
        self.job_id = job_id
        index = self._open(0)
        self.start[index] = time.perf_counter()

    def end_job(self):
        index = self.current
        self.end[index] = time.perf_counter()
        self.current = self.parent[index]
        self.job_id = -1

    def _id(self, name):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def _wrap(self, fn, name):
        name_id = self._id(name)
        observe = OBSERVERS.get(name)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.current
            if tracer.job_id < 0 or tracer.name[parent] == name_id:
                return fn(*args, **kwargs)
            index = tracer._open(name_id)
            tracer.start[index] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[index] = clock()
                tracer.current = parent
            if observe is not None:
                observe(tracer.counters, args, result)
            return result

        return traced

    # --- installation -----------------------------------------------------

    def install(self):
        modules = [importlib.import_module(f"eqcheck.{m}") for m in MODULES]
        modules.append(importlib.import_module("eqcheck"))
        wrapped = {}
        for module in modules[:-1]:
            layer = module.__name__.split(".")[-1]
            for attr, value in vars(module).items():
                name = f"{layer}.{attr}"
                if (isinstance(value, types.FunctionType)
                        and value.__module__ == module.__name__
                        and not attr.startswith("_") and name not in SKIP):
                    wrapped[value] = self._wrap(value, name)
            for cls_name in CONSTRUCTORS.get(layer, ()):
                cls = getattr(module, cls_name)
                self._patch(cls, "__init__",
                            self._wrap(cls.__init__, f"{layer}.{cls_name}"))
            for cls_name, method in METHODS.get(layer, ()):
                cls = getattr(module, cls_name)
                self._patch(cls, method, self._wrap(
                    getattr(cls, method), f"{layer}.{cls_name}.{method}"))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrapped:
                    self._patch(module, attr, wrapped[value])

    def _patch(self, owner, attr, replacement):
        self.patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches = []

    # --- analysis ---------------------------------------------------------

    def spans(self):
        """(name, start, end, parent, job) tuples in opening order."""
        return [(self.names[n], s, e, p, j) for n, s, e, p, j in
                zip(self.name, self.start, self.end, self.parent, self.job)]

    def self_times(self):
        """Self time of each span: its duration minus its children's."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[index] - self.start[index]
        return own

    def summary(self):
        """Per-layer metrics of the spans recorded since the last reset."""
        calls = collections.Counter()
        total = collections.Counter()
        layer_self = collections.Counter()
        for name_id, start, end, own in zip(self.name, self.start, self.end,
                                            self.self_times()):
            name = self.names[name_id]
            calls[name] += 1
            total[name] += end - start
            layer_self[name.split(".")[0]] += own
        runs_in_sweeps = 0
        sweep_id = self.ids.get("basim.sweep", -2)
        run_id = self.ids.get("basim.run", -2)
        for index, name_id in enumerate(self.name):
            if name_id == run_id:
                parent = self.parent[index]
                while parent >= 0 and self.name[parent] != sweep_id:
                    parent = self.parent[parent]
                runs_in_sweeps += parent >= 0
        c = self.counters

        def ratio(a, b):
            return a / b if b else 0.0

        m = {}
        for layer in sorted(set(layer_self) - {"bench"}):
            m[f"{layer}.self_s"] = layer_self[layer]
        m.update({
            "fileformat.parse_s": total["fileformat.parse_document"],
            "fileformat.parse_calls": calls["fileformat.parse_document"],
            "fileformat.parse_bytes": c["fileformat.parse_bytes"],
            "fileformat.serialize_s": total["fileformat.serialize_document"],
            "fileformat.serialize_bytes": c["fileformat.serialize_bytes"],
            "rationals.parse_rational_calls": calls["rationals.parse_rational"],
            "rationals.parse_rational_s": total["rationals.parse_rational"],
            "cli.calls": calls["cli.main"],
            "cli.report_bytes": c["cli.report_bytes"],
            "verdicts.to_jsonable_s": total["verdicts.to_jsonable"],
            "verdicts.to_jsonable_calls": calls["verdicts.to_jsonable"],
            "games.expected_utility_s": total["games.expected_utility"],
            "games.expected_utility_calls": calls["games.expected_utility"],
            "games.construct_s": sum(total[n] for n in GAMES_CONSTRUCT),
            "games.construct_calls": sum(calls[n] for n in GAMES_CONSTRUCT),
            "robustness.check_robust_calls": calls["robustness.check_robust"],
            "robustness.joint_deviation_calls":
                calls["robustness.utilities_under_joint_deviation"],
            "robustness.deviations_per_check": ratio(
                calls["robustness.utilities_under_joint_deviation"],
                calls["robustness.check_robust"]),
            "robustness.found_ratio": ratio(
                c["robustness.profiles_found"],
                c["robustness.profiles_enumerated"]),
            "basim.run_calls": calls["basim.run"],
            "basim.runs_per_sweep": ratio(runs_in_sweeps, calls["basim.sweep"]),
            "machines.build_s": sum(v for k, v in total.items()
                                    if k.startswith("machines.build_")),
            "machines.comp_utility_calls": calls["machines.comp_expected_utility"],
            "machines.comp_utility_per_profile": ratio(
                calls["machines.comp_expected_utility"],
                calls["machines.is_machine_nash"]),
            "machines.threshold_horizons": c["machines.threshold_horizons"],
            "repeated.run_automata_s": total["repeated.run_automata"],
            "repeated.run_automata_calls": calls["repeated.run_automata"],
            "repeated.rounds_simulated": c["repeated.rounds_simulated"],
            "trees.expected_payoffs_calls": calls["trees.expected_payoffs"],
            "trees.induced_normal_form_s": total["trees.induced_normal_form"],
            "awareness.gnash_calls": calls["awareness.is_generalized_nash"],
            "awareness.found_ratio": ratio(
                c["awareness.gnash_holds"],
                calls["awareness.is_generalized_nash"]),
            "awareness.validate_s": total["awareness.GameWithAwareness.validate"],
            "bench.unattributed_s": layer_self["bench"],
            "bench.traced_job_s": total[JOB],
        })
        return m

    def write(self, path):
        """Write the recorded spans as columns, times in nanoseconds from
        the first span's start."""
        origin = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "names": self.names,
                "name": list(self.name),
                "start_ns": [round((s - origin) * 1e9) for s in self.start],
                "end_ns": [round((e - origin) * 1e9) for e in self.end],
                "parent": list(self.parent),
                "job": list(self.job),
            }, handle, separators=(",", ":"))


def median_metrics(summaries):
    """Metric-wise median over several passes' summaries."""
    keys = sorted(set().union(*summaries))
    return {k: statistics.median(s.get(k, 0) for s in summaries) for k in keys}
