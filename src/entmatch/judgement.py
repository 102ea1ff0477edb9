"""Expert judgements over Type-5 records and the human benchmark scores.

Experts score each Type-5 record from 1 (wrong) to 5 (fully acceptable).
Two reference users turn scores into verdicts: a strict user accepts
scores >= 3, a forgiving one accepts >= 2. Human benchmark F-scores reuse
the learning-based scoring core, so the boundary identities (all-5 equals
relaxed, all-1 equals exact) hold bit for bit.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

from .classifier import Decision, Verdict, check_type5_id
from .corpus import ParseError, decode_utf8, is_int, parse_json_line
from .matcher import MatchReport
from .metrics import PRF, Convention, check_covered, refined_f

SCORE_MIN = 1
SCORE_MAX = 5
PARTIAL_SCORE = 2  # the lowest score a forgiving user still accepts


class UserProfile(Enum):
    STRICT = "strict"
    FORGIVING = "forgiving"

    @property
    def min_accepted_score(self) -> int:
        return 3 if self is UserProfile.STRICT else PARTIAL_SCORE

    @property
    def convention(self) -> Convention:
        return (
            Convention.HUMAN_STRICT
            if self is UserProfile.STRICT
            else Convention.HUMAN_FORGIVING
        )


@dataclass(slots=True)
class JudgementRecord:
    record_id: str
    score: int

    def __post_init__(self):
        if not SCORE_MIN <= self.score <= SCORE_MAX:
            raise ValueError(f"score must be {SCORE_MIN}..{SCORE_MAX}, got {self.score}")


def load_judgements(path: str | Path, report: MatchReport) -> list[JudgementRecord]:
    """Read judgements as line-delimited JSON or two-column TSV.

    Every record id must name a Type-5 record of the report; duplicate ids
    and out-of-range scores are rejected.
    """
    text = decode_utf8(Path(path).read_bytes(), "judgement file")
    type5_ids = {r.record_id for r in report.type5_records()}
    records: list[JudgementRecord] = []
    seen: set[str] = set()
    for line_no, line in enumerate(text.split("\n"), 1):
        if not line.strip():
            continue
        raw_id, score = _parse_judgement_line(line, line_no)
        record_id = check_type5_id(raw_id, type5_ids, seen, "judgement", line_no)
        seen.add(record_id)
        try:
            records.append(JudgementRecord(record_id, score))
        except ValueError as exc:
            raise ParseError(str(exc), line_no) from None
    return records


def _parse_judgement_line(line: str, line_no: int) -> tuple[object, int]:
    if line.lstrip().startswith("{"):
        obj = parse_json_line(line, line_no, "judgement file")
        score = obj.get("score")
        if not is_int(score):
            raise ParseError(f"score must be an integer, got {score!r}", line_no)
        return obj.get("record_id"), score
    parts = line.rstrip("\n").split("\t")
    if len(parts) != 2:
        raise ParseError(
            f"expected 2 tab-separated columns, got {len(parts)}", line_no
        )
    record_id, score_text = parts[0].strip(), parts[1].strip()
    try:
        score = int(score_text)
    except ValueError:
        raise ParseError(f"score must be an integer, got {score_text!r}", line_no) from None
    return record_id, score


def judgement_coverage(records: Sequence[JudgementRecord], report: MatchReport) -> float:
    """Fraction of the report's Type-5 records that carry a judgement."""
    total = len(report.type5_records())
    if total == 0:
        return 0.0
    judged = {r.record_id for r in records}
    return len(judged) / total


@dataclass(frozen=True)
class ScoreDistribution:
    counts: dict[int, int]
    percentages: dict[int, float]  # per score, rounded to 2 decimals
    share_at_least: dict[int, float]  # thresholds 2 and 3, rounded to 2 decimals
    total: int


def score_distribution(records: Sequence[JudgementRecord]) -> ScoreDistribution:
    if not records:
        raise ValueError("cannot compute a distribution without judgements")
    counts = {s: 0 for s in range(SCORE_MIN, SCORE_MAX + 1)}
    for r in records:
        counts[r.score] += 1
    total = len(records)
    percentages = {s: round(100.0 * c / total, 2) for s, c in counts.items()}
    share_at_least = {
        t: round(100.0 * sum(c for s, c in counts.items() if s >= t) / total, 2)
        for t in (2, 3)
    }
    return ScoreDistribution(counts, percentages, share_at_least, total)


def human_f(
    report: MatchReport,
    records: Sequence[JudgementRecord],
    profile: UserProfile,
) -> PRF:
    """Score the report as the given reference user would.

    Every Type-5 record needs a judgement; accepted records are exactly
    those scored at or above the profile threshold.
    """
    scores = {r.record_id: r.score for r in records}
    accepted = frozenset(
        rid
        for rid in check_covered(report, scores)
        if scores[rid] >= profile.min_accepted_score
    )
    return refined_f(report, accepted, profile.convention)


def metric_error(metric: PRF, human: PRF) -> float:
    """Signed gap between a metric and the human benchmark, in F1 points."""
    return (metric.f1 - human.f1) * 100.0


@dataclass(frozen=True)
class ConfidenceSummary:
    mean: float
    std: float
    count: int


@dataclass(frozen=True)
class AgreementStats:
    shared: int
    expert_accept_given_classifier_accept: float
    classifier_accept_given_expert_accept: float
    disagreement_rate: float
    low_confidence_disagreement_share: float
    confidence_by_outcome: dict[str, ConfidenceSummary]


_OUTCOME_NAMES = {  # expert outcome by score
    "accepted": lambda s: s >= 3,
    "partially_accepted": lambda s: s == PARTIAL_SCORE,
    "rejected": lambda s: s == 1,
}

LOW_CONFIDENCE = 0.5


def agreement(
    decisions: Mapping[str, Decision],
    records: Sequence[JudgementRecord],
) -> AgreementStats:
    """Classifier-versus-expert agreement over the jointly covered records.

    The expert side is binarized at score >= 2 (accepted or partially
    accepted). Confidences come from the decisions.
    """
    scores = {r.record_id: r.score for r in records}
    shared = sorted(set(scores) & set(decisions))
    if not shared:
        raise ValueError("decisions and judgements cover no common record")

    classifier_accepts = {
        rid for rid in shared if decisions[rid].verdict is Verdict.ACCEPT
    }
    expert_accepts = {rid for rid in shared if scores[rid] >= PARTIAL_SCORE}
    both = classifier_accepts & expert_accepts
    disagreements = [
        rid
        for rid in shared
        if (rid in classifier_accepts) != (rid in expert_accepts)
    ]
    low_confidence = [
        rid
        for rid in disagreements
        if (c := decisions[rid].confidence) is not None and c < LOW_CONFIDENCE
    ]

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    confidence_by_outcome: dict[str, ConfidenceSummary] = {}
    for name, matches in _OUTCOME_NAMES.items():
        values = [
            c
            for rid in shared
            if matches(scores[rid]) and (c := decisions[rid].confidence) is not None
        ]
        if values:
            confidence_by_outcome[name] = ConfidenceSummary(
                statistics.fmean(values),
                statistics.pstdev(values),
                len(values),
            )
    return AgreementStats(
        shared=len(shared),
        expert_accept_given_classifier_accept=ratio(len(both), len(classifier_accepts)),
        classifier_accept_given_expert_accept=ratio(len(both), len(expert_accepts)),
        disagreement_rate=ratio(len(disagreements), len(shared)),
        low_confidence_disagreement_share=ratio(len(low_confidence), len(disagreements)),
        confidence_by_outcome=confidence_by_outcome,
    )
