"""Span tracing around the layer functions ``entmatch.cli`` calls.

The tracer replaces each target, as bound in the ``entmatch.cli`` namespace
(or on the ``ClassifierModel`` class bound there), with a wrapper that
records one span per call plus the counts the per-layer table needs, and
puts every original back when the ``traced`` block ends. Spans stay in
memory; the caller writes them out.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter
from contextlib import contextmanager

# cli attribute -> per-layer time metric its self time adds to
FUNCTIONS = {
    "parse_iob": "corpus.parse_s",
    "parse_standoff": "corpus.parse_s",
    "pair_corpora": "corpus.pair_s",
    "serialize_standoff": "corpus.serialize_s",
    "classify_corpus": "matcher.classify_s",
    "write_ledger": "matcher.ledger_write_s",
    "read_ledger": "matcher.ledger_read_s",
    "metric_suite": "metrics.suite_s",
    "exact_f": "metrics.refined_s",
    "relaxed_f": "metrics.refined_s",
    "learning_based_f": "metrics.refined_s",
    "build_training_set": "clsdata.build_s",
    "write_pairs": "clsdata.pairs_io_s",
    "read_pairs": "clsdata.pairs_io_s",
    "train": "classifier.train_s",
    "decide_type5": "classifier.decide_s",
    "load_external_decisions": "classifier.external_s",
    "write_decisions": "classifier.decisions_io_s",
    "read_decisions": "classifier.decisions_io_s",
    "load_judgements": "judgement.load_s",
    "human_f": "judgement.human_f_s",
    "agreement": "judgement.agreement_s",
    "perturb": "perturb.perturb_s",
    "write_expected_ledger": "perturb.expected_write_s",
}
# ClassifierModel attribute -> metric
MODEL_METHODS = {"save": "classifier.model_io_s", "load": "classifier.model_io_s"}
ROOT_SPAN = "cli.main"
ROOT_METRIC = "cli.self_s"


def _corpus_counts(corpus, counts: Counter) -> None:
    for doc in corpus.documents:
        counts["corpus.tokens"] += len(doc.tokens)
        counts["corpus.mentions"] += len(doc.gold_entities) + len(doc.pred_entities)


def _count(name: str, args: tuple, result, counts: Counter) -> None:
    """Add the deterministic work counts of one finished call."""
    if name in ("parse_iob", "parse_standoff"):
        _corpus_counts(result, counts)
    elif name == "classify_corpus":
        counts["matcher.records"] += len(result.records)
        counts["matcher.type5"] += len(result.type5_records())
    elif name == "write_ledger":
        counts["matcher.ledger_bytes"] += os.path.getsize(args[1])
    elif name == "metric_suite":
        counts["metrics.suite_calls"] += 1
    elif name == "build_training_set":
        counts["clsdata.pairs"] += len(result)
        counts["clsdata.distinct_texts"] += len({p.text for p in result})
    elif name == "ClassifierModel.save":
        counts["classifier.model_bytes"] += os.path.getsize(args[1])
    elif name == "decide_type5":
        counts["classifier.decided"] += len(result)
    elif name == "load_judgements":
        counts["judgement.judged"] += len(result)


class Tracer:
    """In-memory spans ``(id, parent, name, start, end)`` and work counts.

    Counting walks the calls' results, so it waits for ``finish`` instead of
    running inside the command's span.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._finished_calls: list[tuple] = []

    def finish(self) -> None:
        for call in self._finished_calls:
            _count(*call, self.counts)
        self._finished_calls.clear()

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        record = {"id": span_id, "parent": self._stack[-1] if self._stack else None, "name": name}
        self.spans.append(record)
        self._stack.append(span_id)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self._finished_calls.append((name, args, result))
            return result

        return traced_call


@contextmanager
def traced(cli, tracer: Tracer):
    """Route the layer calls of the ``cli`` module through ``tracer``."""
    model_cls = cli.ClassifierModel
    saved_functions = {name: getattr(cli, name) for name in FUNCTIONS}
    saved_methods = {name: model_cls.__dict__[name] for name in MODEL_METHODS}
    try:
        for name, fn in saved_functions.items():
            setattr(cli, name, tracer.wrap(name, fn))
        setattr(model_cls, "save", tracer.wrap("ClassifierModel.save", saved_methods["save"]))
        load = tracer.wrap("ClassifierModel.load", saved_methods["load"].__func__)
        setattr(model_cls, "load", classmethod(load))
        yield tracer
    finally:
        for name, fn in saved_functions.items():
            setattr(cli, name, fn)
        for name, method in saved_methods.items():
            setattr(model_cls, name, method)


def metric_of(name: str) -> str:
    if name == ROOT_SPAN:
        return ROOT_METRIC
    if name.startswith("ClassifierModel."):
        return MODEL_METHODS[name.split(".", 1)[1]]
    return FUNCTIONS[name]


def self_times(spans: list[dict]) -> Counter:
    """Per-layer self seconds: each span's duration minus its children's."""
    child_time: Counter = Counter()
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    totals: Counter = Counter()
    for s in spans:
        totals[metric_of(s["name"])] += s["end"] - s["start"] - child_time[s["id"]]
    return totals
