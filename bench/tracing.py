"""Per-layer tracing from outside the program.

A ``Tracer`` replaces public functions of each qcover module with wrappers
for the duration of one repetition. Every name bound to the original
function in any ``qcover`` module is replaced, so functions imported by
value (``word_index`` in ``codes`` and ``construct``,
``minimal_covering_code`` in ``cli`` and ``construct``) are traced at every
call site. Layer-level calls record a span (name, start, end, parent, id of
the CLI command that caused it); the per-word hot functions are only
counted, because timing each of millions of calls would swamp what they
do. Spans stay in memory until the repetition ends.

What each layer metric should move (workloads not named bypass the layer
and should show no change):

- hamming validate/index counts: construct and verify time on
  construct-verify, sampled verify time on verify-sampled; expand
  calls/time/cells: verify (and domination) time on construct-verify;
  distance calls: sampled verify time on verify-sampled.
- codes validate/serialize/parse/verify/sampled: construct, verify and
  sampled verify time respectively.
- construct levels, trials, accept ratio, dominate and materialize time:
  construct time and peak RSS on construct-verify.
- solver nodes, solve time, nodes/s: solve time on solve.
- bounds optimize calls, evals, optimize time: time on bounds-table.
- cli self time and file bytes: every workload.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Callable, Dict, List

#: (module, attribute, span name): calls whose duration is recorded.
TIMED = [
    ("cli", "main", "cli.main"),
    ("codes", "Code.__post_init__", "codes.validate"),
    ("codes", "dumps_code", "codes.serialize"),
    ("codes", "code_from_dict", "codes.parse"),
    ("codes", "verify_covering", "codes.verify"),
    ("codes", "verify_covering_sampled", "codes.sampled"),
    ("construct", "recursive_construct", "construct.recursive_construct"),
    ("construct", "dominating_partial", "construct.dominate"),
    ("hamming", "expand_within_radius", "hamming.expand"),
    ("solver", "minimal_covering_code", "solver.solve"),
    ("bounds", "optimize_parametric_bound", "bounds.optimize"),
]

#: (module, attribute, counter): per-word calls that are counted, not timed.
COUNTED = [
    ("hamming", "HammingSpace.contains", "hamming.validate_calls"),
    ("hamming", "word_index", "hamming.index_calls"),
    ("hamming", "index_word", "hamming.index_calls"),
    ("hamming", "hamming_distance", "hamming.distance_calls"),
    ("bounds", "_bound_factored", "bounds.evals"),
]

#: Counts that must repeat exactly between two traced repetitions.
EXACT_COUNTS = [
    "solver.nodes",
    "construct.dominate_trials",
    "hamming.validate_calls",
    "hamming.index_calls",
    "hamming.expand_calls",
    "hamming.distance_calls",
    "bounds.evals",
]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent index, command id]
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._command = -1
        self._undo: List[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        on_result = _RESULT_HOOKS.get(name)

        def wrapper(*args, **kwargs):
            if name == "cli.main":
                self._command += 1
            sid = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self._command])
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[sid][2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self.counts, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        for table, make in ((TIMED, self._timed), (COUNTED, self._counted)):
            for module, attr, key in table:
                owner, name, original = _resolve(module, attr)
                wrapper = make(key, original)
                if owner is not None:  # a method: patch the class
                    self._set(owner, name, wrapper)
                    continue
                for mod in _qcover_modules():
                    for binding, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, binding, wrapper)

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- derived metrics ----------------------------------------------------

    def layer_metrics(self) -> Dict[str, float]:
        total: Counter = Counter()
        self_time: Counter = Counter()
        child_time: Counter = Counter()
        calls: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name] += (end - start) - child_time[i]
        c = self.counts
        solve_s = total["solver.solve"]
        trials = c["construct.dominate_trials"]
        return {
            "hamming.validate_calls": c["hamming.validate_calls"],
            "hamming.index_calls": c["hamming.index_calls"],
            "hamming.expand_calls": calls["hamming.expand"],
            "hamming.expand_s": total["hamming.expand"],
            "hamming.expand_cells": c["hamming.expand_cells"],
            "hamming.distance_calls": c["hamming.distance_calls"],
            "codes.validate_s": total["codes.validate"],
            "codes.serialize_s": total["codes.serialize"],
            "codes.parse_s": total["codes.parse"],
            "codes.verify_s": total["codes.verify"],
            "codes.sampled_s": total["codes.sampled"],
            "construct.levels": c["construct.levels"],
            "construct.dominate_trials": trials,
            "construct.dominate_accept_ratio": c["construct.levels"] / trials if trials else 0.0,
            "construct.dominate_s": total["construct.dominate"],
            "construct.materialize_s": self_time["construct.recursive_construct"],
            "solver.nodes": c["solver.nodes"],
            "solver.solve_s": solve_s,
            "solver.nodes_per_s": c["solver.nodes"] / solve_s if solve_s else 0.0,
            "bounds.optimize_calls": calls["bounds.optimize"],
            "bounds.evals": c["bounds.evals"],
            "bounds.optimize_s": total["bounds.optimize"],
            "cli.self_s": self_time["cli.main"],
        }

    def dump_spans(self) -> List[dict]:
        keys = ("name", "start", "end", "parent", "command")
        return [dict(zip(keys, s)) for s in self.spans]


def _qcover_modules():
    return [m for k, m in list(sys.modules.items()) if k == "qcover" or k.startswith("qcover.")]


def _resolve(module: str, attr: str):
    """Return (class or None, attribute name, original function)."""
    mod = sys.modules[f"qcover.{module}"]
    if "." in attr:
        cls_name, name = attr.split(".")
        cls = getattr(mod, cls_name)
        return cls, name, vars(cls)[name]
    return None, attr, getattr(mod, attr)


def _on_dominate(counts: Counter, args, kwargs, result) -> None:
    counts["construct.levels"] += 1
    counts["construct.dominate_trials"] += result.trials_used


def _on_solve(counts: Counter, args, kwargs, result) -> None:
    counts["solver.nodes"] += result.nodes


def _on_expand(counts: Counter, args, kwargs, result) -> None:
    # Computed, not measured: each of the min(radius, n) steps reduces the
    # q^n-cell grid along each of the n axes.
    space, radius = args[0], args[2] if len(args) > 2 else kwargs["radius"]
    if radius > 0 and space.n > 0:
        counts["hamming.expand_cells"] += space.size * space.n * min(radius, space.n)


_RESULT_HOOKS: Dict[str, Callable] = {
    "construct.dominate": _on_dominate,
    "solver.solve": _on_solve,
    "hamming.expand": _on_expand,
}
