"""Precision/recall/F1 under the entity-level scoring conventions.

Every convention is the same count over match records and differs only in
which records earn credit: those of a fixed set of mismatch kinds, plus,
for the learning-based and human conventions, the Type-5 records whose ids
were accepted. The overall and per-label scores of a convention come from
the tallies ``MatchReport`` keeps, without a pass over the records.

Prediction-side and gold-side true positives are tracked separately:
``precision = tp_pred / (tp_pred + fp)`` and ``recall = tp_gold /
(tp_gold + fn)``, with 0/0 defined as 0. A gold mention earns gold-side
credit when any of its records is credited by the convention, so a single
gold split across several accepted Type-5 predictions counts once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Container, Iterable, Mapping

from .classifier import Decision, Verdict
from .matcher import GoldKey, MatchReport, MismatchType, kinds_mask


class Convention(Enum):
    EXACT = "exact"
    RELAXED = "relaxed"
    SEMEVAL_STRICT = "semeval_strict"
    SEMEVAL_EXACT_BOUNDARY = "semeval_exact_boundary"
    SEMEVAL_PARTIAL_BOUNDARY = "semeval_partial_boundary"
    SEMEVAL_TYPE = "semeval_type"


class UncoveredRecordsError(ValueError):
    """A Type-5 record lacks the decision or judgement it needs."""

    def __init__(self, record_ids: Iterable[str]):
        self.record_ids = tuple(record_ids)
        super().__init__(
            "no decision for Type-5 records: " + ", ".join(self.record_ids)
        )


@dataclass(frozen=True)
class PRF:
    tp_pred: int
    tp_gold: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, tp_pred: int, tp_gold: int, fp: int, fn: int) -> "PRF":
        precision = tp_pred / (tp_pred + fp) if tp_pred + fp else 0.0
        recall = tp_gold / (tp_gold + fn) if tp_gold + fn else 0.0
        f1 = (
            2.0 * precision * recall / (precision + recall)
            if precision + recall
            else 0.0
        )
        return cls(tp_pred, tp_gold, fp, fn, precision, recall, f1)


_EXACT, _TYPE1, _TYPE2, _TYPE3, _TYPE4, _TYPE5 = MismatchType  # definition order
_EXACT_KINDS = frozenset({_EXACT})
_RELAXED_KINDS = frozenset({_EXACT, _TYPE5})

_CREDIT_KINDS: dict[Convention, frozenset[MismatchType]] = {
    Convention.EXACT: _EXACT_KINDS,
    Convention.RELAXED: _RELAXED_KINDS,
    Convention.SEMEVAL_STRICT: _EXACT_KINDS,
    Convention.SEMEVAL_EXACT_BOUNDARY: frozenset({_EXACT, _TYPE3}),
    Convention.SEMEVAL_PARTIAL_BOUNDARY: frozenset({_EXACT, _TYPE3, _TYPE4, _TYPE5}),
    Convention.SEMEVAL_TYPE: _RELAXED_KINDS,
}

# Label-blind conventions get no per-label breakdown.
_OVERALL_ONLY = frozenset({Convention.SEMEVAL_PARTIAL_BOUNDARY})


def _scores(
    report: MatchReport,
    kinds: frozenset[MismatchType],
    accepted: frozenset[str] = frozenset(),
) -> tuple[PRF, dict[str, PRF]]:
    """Overall and per-label scores from the report's tallies.

    A record earns credit when its kind is in ``kinds`` or it is a Type-5
    record whose id is in ``accepted``; a gold mention earns gold-side
    credit once, when any of its records does. Of the records themselves
    only the Type-5 ones are read, and only when some are accepted and
    ``kinds`` leaves Type 5 out.
    """
    mask = kinds_mask(kinds)
    tp_pred: Counter[str] = Counter()
    for (label, kind), n in report.pred_kind_counts.items():
        if kind in kinds:
            tp_pred[label] += n
    tp_gold: Counter[str] = Counter()
    for (label, gold_mask), n in report.gold_mask_counts.items():
        if gold_mask & mask:
            tp_gold[label] += n
    if accepted and _TYPE5 not in kinds:
        credited_golds: set[GoldKey] = set()
        for r in report.type5_records():
            if r.record_id in accepted:
                tp_pred[r.pred.label] += 1  # type: ignore[union-attr]
                key = r.gold_key()
                if not report.gold_masks[key] & mask and key not in credited_golds:
                    credited_golds.add(key)
                    tp_gold[r.gold.label] += 1  # type: ignore[union-attr]
    per_label = {
        label: PRF.from_counts(
            tp_pred[label],
            tp_gold[label],
            report.pred_by_label.get(label, 0) - tp_pred[label],
            report.gold_by_label.get(label, 0) - tp_gold[label],
        )
        for label in report.labels()
    }
    # every mention has one label, so the overall counts are the label sums
    pred_hits, gold_hits = sum(tp_pred.values()), sum(tp_gold.values())
    overall = PRF.from_counts(
        pred_hits,
        gold_hits,
        report.pred_total - pred_hits,
        report.gold_total - gold_hits,
    )
    return overall, per_label


def exact_f(report: MatchReport) -> PRF:
    """Credit only span-and-label identical pairs."""
    return _scores(report, _EXACT_KINDS)[0]


def relaxed_f(report: MatchReport) -> PRF:
    """Credit exact matches plus every Type-5 (same-label overlap) record."""
    return _scores(report, _RELAXED_KINDS)[0]


def semeval_modes(report: MatchReport) -> dict[Convention, PRF]:
    """The four SemEval-style conventions.

    Strict coincides with the exact convention and type-match with the
    relaxed one; exact-boundary credits span-identical pairs regardless of
    label and partial-boundary credits any overlapping pair.
    """
    return {
        conv: _scores(report, _CREDIT_KINDS[conv])[0]
        for conv in (
            Convention.SEMEVAL_STRICT,
            Convention.SEMEVAL_EXACT_BOUNDARY,
            Convention.SEMEVAL_PARTIAL_BOUNDARY,
            Convention.SEMEVAL_TYPE,
        )
    }


def check_covered(report: MatchReport, covered: Container[str]) -> list[str]:
    """The report's Type-5 record ids, each of which ``covered`` must hold.

    Every verdict source (classifier, external decisions, expert scores)
    must cover every Type-5 record; otherwise ``UncoveredRecordsError``
    names the missing ids, sorted.
    """
    ids = [r.record_id for r in report.type5_records()]
    missing = sorted(rid for rid in ids if rid not in covered)
    if missing:
        raise UncoveredRecordsError(missing)
    return ids


def refined_f(report: MatchReport, accepted: frozenset[str] | set[str]) -> PRF:
    """Score with exact matches plus only the accepted Type-5 records.

    Rejected Type-5 predictions count as false positives; a gold covered
    only by rejected Type-5 records counts as a false negative.
    """
    return _scores(report, _EXACT_KINDS, frozenset(accepted))[0]


def learning_based_scores(
    report: MatchReport, decisions: Mapping[str, Decision]
) -> tuple[PRF, dict[str, PRF]]:
    """Overall and per-label learning-based scores.

    Requires a decision per Type-5 record.
    """
    accepted = frozenset(
        rid
        for rid in check_covered(report, decisions)
        if decisions[rid].verdict is Verdict.ACCEPT
    )
    return _scores(report, _EXACT_KINDS, accepted)


def learning_based_f(
    report: MatchReport, decisions: Mapping[str, Decision]
) -> PRF:
    """Score with classifier decisions; requires a decision per Type-5 record."""
    return learning_based_scores(report, decisions)[0]


@dataclass
class MetricSuite:
    """Overall and per-label scores, one entry per computed convention."""

    overall: dict[Convention, PRF]
    per_label: dict[Convention, dict[str, PRF]]


def metric_suite(report: MatchReport) -> MetricSuite:
    """The six fixed conventions; decisions are scored by ``learning_based_scores``."""
    scores = {conv: _scores(report, kinds) for conv, kinds in _CREDIT_KINDS.items()}
    overall = {conv: score[0] for conv, score in scores.items()}
    per_label = {c: s[1] for c, s in scores.items() if c not in _OVERALL_ONLY}
    return MetricSuite(overall, per_label)


def macro_average(per_label: Mapping[str, PRF]) -> tuple[float, float, float]:
    """Unweighted mean precision/recall/F1 over labels; informational only."""
    if not per_label:
        return (0.0, 0.0, 0.0)
    n = len(per_label)
    return (
        sum(p.precision for p in per_label.values()) / n,
        sum(p.recall for p in per_label.values()) / n,
        sum(p.f1 for p in per_label.values()) / n,
    )
