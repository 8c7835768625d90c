"""Span tracing from outside the program.

The traced run wraps public functions of each layer by replacing the
name where its caller looks it up (``refgame.oed.predict`` is the name
``scenario_joint_utility``'s chain calls; ``refgame.cli.load_counts``
is the one ``refgame ingest`` calls). Each call records a span (name,
start, end, parent, group) in memory; ``Tracer.write`` saves them at
the end. Every wrapped name is restored when tracing stops.

Self time is a span's duration minus the time its child spans cover.
The program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import os
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from refgame import association, cli, evaluation, lexicon, oed, rsa


def _arg(args, kwargs, position: int, name: str):
    return kwargs[name] if name in kwargs else args[position]


def _file_size(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


# Counters recorded at the same boundary as the span: (args, kwargs, result) -> {counter: n}
def _read_bytes(args, kwargs, result):
    return {"bytes_read": _file_size(_arg(args, kwargs, 0, "path"))}


def _written_bytes(args, kwargs, result):
    return {"bytes_written": _file_size(_arg(args, kwargs, 1, "path"))}


def _raw_cells(args, kwargs, result):
    return {"cells": result.raw.size}


def _normalized_cells(args, kwargs, result):
    return {"cells": result.values.size}


def _search_keys(args, kwargs, result):
    return {"keys_sampled": _arg(args, kwargs, 2, "settings").iterations}


def _zero_utility(args, kwargs, result):
    return {"zero_utility": int(result == 0)}


def _filter_sizes(args, kwargs, result):
    return {"filter_in": len(_arg(args, kwargs, 0, "candidates")), "filter_kept": len(result)}


def _records(args, kwargs, result):
    return {"records": len(result.top_answers)}


def _gameplay(args, kwargs, result):
    return {"gameplay_scenarios": len(result.scenarios)}


_LOADERS = ("load_lexicon", "load_counts", "load_embeddings", "load_relatedness", "load_topics")
_INGEST = ("bigram_association", "cosine_association", "relatedness_association", "topic_association")

# (module, attribute, span name, counter function); a function imported
# into several modules is wrapped at each lookup site.
TARGETS = (
    [(lexicon, name, "lexicon.load", _read_bytes) for name in _LOADERS]
    + [(cli, name, "lexicon.load", _read_bytes) for name in _LOADERS]
    + [(association, name, "association.ingest", _raw_cells) for name in _INGEST]
    + [(cli, name, "association.ingest", _raw_cells) for name in _INGEST]
    + [
        (module, name, span, counter)
        for module in (association, cli)
        for name, span, counter in (
            ("quantile_normalize", "association.normalize", _normalized_cells),
            ("load_association", "association.load", None),
            ("load_normalized", "association.load", None),
            ("save_association", "association.save", _written_bytes),
            ("save_normalized", "association.save", _written_bytes),
        )
    ]
    + [
        (cli, "main", "cli.main", None),
        (oed, "monte_carlo_search", "oed.search", _search_keys),
        (cli, "monte_carlo_search", "oed.search", _search_keys),
        (oed, "scenario_joint_utility", "oed.utility", _zero_utility),
        (oed, "response_probability", "oed.response", None),
        (oed, "model_information_bits", "oed.mi", None),
        (oed, "filter_candidates", "oed.filter", _filter_sizes),
        (cli, "filter_candidates", "oed.filter", _filter_sizes),
        (oed, "predict", "rsa.predict", None),
        (evaluation, "predict", "rsa.predict", None),
        (rsa, "scenario_scores", "rsa.scores", None),
        (rsa, "listener_probs", "rsa.chain", None),
        (rsa, "speaker_probs", "rsa.chain", None),
        (evaluation, "score_responses", "evaluation.score", _records),
        (evaluation, "spearman", "evaluation.spearman", None),
        (evaluation, "simulate_gameplay", "evaluation.simulate", _gameplay),
        (cli, "simulate_gameplay", "evaluation.simulate", _gameplay),
        (evaluation, "model_agreement", "evaluation.agreement", None),
        (evaluation, "metric_rank_correlation", "evaluation.agreement", None),
        (evaluation, "confidence_ttest", "evaluation.ttest", None),
    ]
)

# Scenario-level spans: predicts under these count towards predicts per scenario.
_SCENARIO_SCOPES = ("oed.utility", "evaluation.simulate")


class Tracer:
    """Collects spans and boundary counters, grouped by traced unit of
    work (a round, or the in-process set-up)."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent, group]
        self.counters: list = []  # (group, counter, value)
        self.group: str | None = None
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, self.group]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counters.append((self.group, key, value))
            return result

        return traced

    @contextmanager
    def active(self, group: str):
        """Wrap every target for the duration of the block."""
        self.group = group
        originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in TARGETS]
        try:
            for (module, attr, span, counter), (_, _, fn) in zip(TARGETS, originals):
                setattr(module, attr, self._wrap(span, fn, counter))
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)
            self.group = None

    def write(self, path) -> None:
        with open(path, "w") as handle:
            handle.write("index\tname\tstart\tend\tparent\tgroup\n")
            for index, (name, start, end, parent, group) in enumerate(self.spans):
                handle.write(f"{index}\t{name}\t{start!r}\t{end!r}\t{parent}\t{group}\n")

    # -----------------------------------------------------------------
    # reduction to per-layer metrics

    def _per_group(self):
        """Per group: total and self time, call count per span name,
        summed counters, and scenario-level predict calls."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, group in self.spans:
            if parent >= 0:
                child[parent] += end - start
        scope = [None] * len(self.spans)
        groups: dict = {}
        for index, (name, start, end, parent, group) in enumerate(self.spans):
            scope[index] = name if name in _SCENARIO_SCOPES else (scope[parent] if parent >= 0 else None)
            g = groups.setdefault(group, {"total": {}, "self": {}, "calls": {}, "count": {}})
            duration = end - start
            g["total"][name] = g["total"].get(name, 0.0) + duration
            g["self"][name] = g["self"].get(name, 0.0) + duration - child[index]
            g["calls"][name] = g["calls"].get(name, 0) + 1
            if name == "rsa.predict" and scope[index] is not None:
                g["count"]["scenario_predicts"] = g["count"].get("scenario_predicts", 0) + 1
        for group, key, value in self.counters:
            g = groups.setdefault(group, {"total": {}, "self": {}, "calls": {}, "count": {}})
            g["count"][key] = g["count"].get(key, 0) + value
        return groups

    def _durations_us(self, name: str) -> np.ndarray:
        return np.array([(s[2] - s[1]) * 1e6 for s in self.spans if s[0] == name])

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics: for each, the median over the traced groups
        in which its layer ran (0 when it never ran); latency percentiles
        pool every call."""
        per_group = []
        for g in self._per_group().values():
            total, self_s, calls, count = g["total"], g["self"], g["calls"], g["count"]

            def c(name):
                return calls.get(name, 0)

            def ratio(num, den):
                return num / den if den else None

            scenarios = c("oed.utility") + count.get("gameplay_scenarios", 0)
            metrics = {
                "cli.steps": c("cli.main") or None,
                "cli.self_s": self_s.get("cli.main"),
                "lexicon.calls": c("lexicon.load") or None,
                "lexicon.load_s": total.get("lexicon.load"),
                "lexicon.bytes_read": count.get("bytes_read"),
                "association.ingest_s": total.get("association.ingest"),
                "association.normalize_s": total.get("association.normalize"),
                "association.load_s": total.get("association.load"),
                "association.save_s": total.get("association.save"),
                "association.bytes_written": count.get("bytes_written"),
                "association.cells_per_s": ratio(
                    count.get("cells", 0),
                    total.get("association.ingest", 0.0) + total.get("association.normalize", 0.0),
                ),
                "rsa.predict_calls": c("rsa.predict") or None,
                "rsa.predict_self_s": self_s.get("rsa.predict"),
                "rsa.predicts_per_scenario": ratio(count.get("scenario_predicts", 0), scenarios),
                "rsa.scores_calls": c("rsa.scores") or None,
                "rsa.scores_s": total.get("rsa.scores"),
                "rsa.chain_calls": c("rsa.chain") or None,
                "rsa.chain_s": total.get("rsa.chain"),
                "oed.keys_sampled": count.get("keys_sampled"),
                "oed.keys_unique": c("oed.utility") or None,
                "oed.unique_ratio": ratio(c("oed.utility"), count.get("keys_sampled", 0)),
                "oed.utility_calls": c("oed.utility") or None,
                "oed.mi_calls": c("oed.mi") or None,
                "oed.mi_s": total.get("oed.mi"),
                "oed.response_s": self_s.get("oed.response"),
                "oed.search_self_s": self_s.get("oed.search"),
                "oed.zero_utility_frac": ratio(count.get("zero_utility", 0), c("oed.utility")),
                "oed.filter_s": total.get("oed.filter"),
                "oed.filter_in": count.get("filter_in"),
                "oed.filter_kept": count.get("filter_kept"),
                "oed.filter_kept_ratio": ratio(count.get("filter_kept", 0), count.get("filter_in", 0)),
                "evaluation.score_s": total.get("evaluation.score"),
                "evaluation.records": count.get("records"),
                "evaluation.spearman_calls": c("evaluation.spearman") or None,
                "evaluation.spearman_s": total.get("evaluation.spearman"),
                "evaluation.simulate_s": total.get("evaluation.simulate"),
                "evaluation.gameplay_scenarios": count.get("gameplay_scenarios"),
                "evaluation.agreement_s": total.get("evaluation.agreement"),
                "evaluation.ttest_s": total.get("evaluation.ttest"),
            }
            per_group.append(metrics)

        result = {}
        for name in per_group[0] if per_group else ():
            values = [m[name] for m in per_group if m[name] is not None]
            result[name] = float(statistics.median(values)) if values else 0.0
        for name, span in (("rsa.predict", "rsa.predict"), ("oed.utility", "oed.utility")):
            durations = self._durations_us(span)
            for q in (50, 99):
                key = f"{name}_p{q}_us"
                result[key] = float(np.percentile(durations, q)) if durations.size else 0.0
        return result
