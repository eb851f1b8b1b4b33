"""Outside-in spans around the miner's layer entry points.

Each entry point is wrapped under the name its caller looks up (modules
import functions by name, so the attribute of the *calling* module is
patched).  Spans are kept in memory as tuples and only aggregated or
written once a pass ends; the untraced passes run the unpatched code.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

from rebac_miner import _kernels, features, learner, miner
from rebac_miner.learner import FailedFeatures

# (module, attribute, span name).  The module is the caller's namespace.
ENTRY_POINTS = (
    (miner, "build_dataset", "features.build_dataset"),
    (miner, "prune_useless", "features.prune"),
    (miner, "extend_with_id_columns", "features.id_columns"),
    (miner, "learn_formula", "learner.learn_formula"),
    (miner, "extract_rules", "miner.extract_rules"),
    (miner, "eliminate_negative_features", "miner.phase2a"),
    (miner, "merge_and_simplify", "miner.phase2b"),
    (miner, "rule_meaning", "model.rule_meaning"),
    (learner, "build_tree", "tree.build_tree"),
    (learner, "eliminate_unknown_literal", "learner.eliminate_unknown"),
    (learner, "covers", "tvl.covers"),
    (learner, "uncovered_t_rows", "tvl.uncovered"),
    (learner, "first_validity_violation", "tvl.validity"),
    (_kernels, "split_gains", "split_scores.split_gains"),
)
ENUMERATE_SPAN = "features.enumerate"  # the FeatureTable.build classmethod

# Which phase a rule_meaning call serves, by the span that made it.
RULE_MEANING_PARENTS = {
    "miner.phase2a": "phase2a",
    "miner.phase2b": "phase2b",
    "miner.mine_detailed": "final_check",
}


def _count_split_gains(counters, args, result):
    counters["split_scores.cells_scored"] += len(args[2]) * len(args[3])


def _count_dataset(counters, args, result):
    counters["features.cells"] += len(result.rows) * len(result.features)


def _count_prune(counters, args, result):
    counters["features.before_prune"] += len(args[0].entries)
    counters["features.after_prune"] += len(result[0].entries)


def _count_id_columns(counters, args, result):
    counters["features.id_columns"] += len(result[3])


def _count_eliminate(counters, args, result):
    counters["learner.eliminate_unknown_ok"] += not isinstance(result, FailedFeatures)


def _count_learn(counters, args, result):
    counters["learner.iterations"] += result.iterations
    counters["learner.blacklisted"] += len(result.blacklisted)
    counters["learner.fallback_tasks"] += result.used_fallback


COUNTERS = {
    "split_scores.split_gains": _count_split_gains,
    "features.build_dataset": _count_dataset,
    "features.prune": _count_prune,
    "features.id_columns": _count_id_columns,
    "learner.eliminate_unknown": _count_eliminate,
    "learner.learn_formula": _count_learn,
}


class Tracer:
    """Records (name, start, end, parent index, trace id) spans in memory."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.trace_id = ""

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.trace_id))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            name, start, _, parent, trace_id = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter(), parent, trace_id)

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install the span wrappers; restore the originals on exit."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in ENTRY_POINTS]
        build = features.FeatureTable.__dict__["build"]
        try:
            for module, attr, name in ENTRY_POINTS:
                setattr(module, attr, self.wrap(name, getattr(module, attr)))
            features.FeatureTable.build = classmethod(
                self.wrap(ENUMERATE_SPAN, build.__func__)
            )
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)
            features.FeatureTable.build = build

    def layers(self, first: int = 0) -> dict[str, float]:
        """Self seconds and call counts per span name, plus the counters,
        over the spans recorded from index ``first`` on.

        Self time is a span's duration minus its children's durations;
        spans nest strictly (one thread), so children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans[first:]:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i in range(first, len(self.spans)):
            name, start, end, parent, _ = self.spans[i]
            own = end - start - child_time[i]
            out[name + "_s"] += own
            out[name + ".calls"] += 1
            if name == "model.rule_meaning":
                phase = RULE_MEANING_PARENTS.get(self.spans[parent][0], "other")
                out[f"model.rule_meaning_s.{phase}"] += own
                out[f"model.rule_meaning_calls.{phase}"] += 1
        for key, value in self.counters.items():
            out[key] += value
        return dict(out)

    def records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "trace": t}
            for n, s, e, p, t in self.spans
        ]
