from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from entmatch.classifier import Decision, Verdict
from entmatch.judgement import (
    JudgementRecord,
    UserProfile,
    agreement,
    human_f,
    load_judgements,
    metric_error,
    score_distribution,
)
from entmatch.matcher import classify_corpus
from entmatch.metrics import (
    UncoveredRecordsError,
    exact_f,
    relaxed_f,
)
from entmatch.corpus import ParseError
from oracle import random_paired_corpus


def _t5_ids(report):
    return [r.record_id for r in report.type5_records()]


def _judged(report, score):
    return [JudgementRecord(rid, score) for rid in _t5_ids(report)]


def _nums(prf):
    return (prf.tp_pred, prf.tp_gold, prf.fp, prf.fn, prf.precision, prf.recall, prf.f1)


# ---------------------------------------------------------------------------
# parsing


def test_load_judgements_tsv(tmp_path, liver_report):
    ids = _t5_ids(liver_report)
    path = tmp_path / "judgements.tsv"
    path.write_text(f"{ids[0]}\t5\n{ids[1]}\t2\n")
    records = load_judgements(path, liver_report)
    assert [(r.record_id, r.score) for r in records] == [(ids[0], 5), (ids[1], 2)]


def test_load_judgements_jsonl(tmp_path, liver_report):
    ids = _t5_ids(liver_report)
    path = tmp_path / "judgements.jsonl"
    path.write_text(
        f'{{"record_id": "{ids[0]}", "score": 4}}\n'
        f'{{"record_id": "{ids[1]}", "score": 1}}\n'
    )
    records = load_judgements(path, liver_report)
    assert [(r.record_id, r.score) for r in records] == [(ids[0], 4), (ids[1], 1)]


def test_load_judgements_mixed_formats(tmp_path, liver_report):
    ids = _t5_ids(liver_report)
    path = tmp_path / "judgements.txt"
    path.write_text(f'{ids[0]}\t3\n{{"record_id": "{ids[1]}", "score": 5}}\n')
    records = load_judgements(path, liver_report)
    assert len(records) == 2


def test_load_judgements_rejects_unknown_id(tmp_path, liver_report):
    path = tmp_path / "judgements.tsv"
    path.write_text("ghost:1\t5\n")
    with pytest.raises(ParseError, match="unknown Type-5 record id"):
        load_judgements(path, liver_report)


def test_load_judgements_rejects_duplicates(tmp_path, liver_report):
    rid = _t5_ids(liver_report)[0]
    path = tmp_path / "judgements.tsv"
    path.write_text(f"{rid}\t5\n{rid}\t4\n")
    with pytest.raises(ParseError, match="duplicate judgement"):
        load_judgements(path, liver_report)


def test_load_judgements_rejects_out_of_range_scores(tmp_path, liver_report):
    rid = _t5_ids(liver_report)[0]
    path = tmp_path / "judgements.tsv"
    for bad in (0, 6, -1):
        path.write_text(f"{rid}\t{bad}\n")
        with pytest.raises(ParseError, match="score must be 1..5"):
            load_judgements(path, liver_report)


def test_load_judgements_reports_bad_line_number(tmp_path, liver_report):
    rid = _t5_ids(liver_report)[0]
    path = tmp_path / "judgements.tsv"
    path.write_text(f"{rid}\t5\nbroken line without tab\n")
    with pytest.raises(ParseError, match="line 2"):
        load_judgements(path, liver_report)


def test_judgement_record_validates_score():
    with pytest.raises(ValueError):
        JudgementRecord("d:0", 7)


# ---------------------------------------------------------------------------
# score distribution


def test_score_distribution_percentages():
    records = [JudgementRecord(f"d:{i}", s) for i, s in enumerate([5, 5, 3, 2, 1])]
    dist = score_distribution(records)
    assert dist.total == 5
    assert dist.counts == {1: 1, 2: 1, 3: 1, 4: 0, 5: 2}
    assert dist.percentages[5] == 40.0
    assert dist.share_at_least[3] == 60.0
    assert dist.share_at_least[2] == 80.0


def test_score_distribution_rounds_to_two_decimals():
    records = [JudgementRecord(f"d:{i}", s) for i, s in enumerate([5, 3, 3])]
    dist = score_distribution(records)
    assert dist.percentages[3] == 66.67
    assert dist.percentages[5] == 33.33


def test_score_distribution_of_no_records_is_zero():
    # 0/0 counts as 0, as in PRF: a report without Type-5 records is fully
    # covered by an empty judgement file
    dist = score_distribution([])
    assert dist.total == 0
    assert dist.counts == {1: 0, 2: 0, 3: 0, 4: 0, 5: 0}
    assert dist.percentages == {1: 0.0, 2: 0.0, 3: 0.0, 4: 0.0, 5: 0.0}
    assert dist.share_at_least == {2: 0.0, 3: 0.0}


# ---------------------------------------------------------------------------
# human benchmarks


def test_all_top_scores_reproduce_relaxed():
    for seed in range(20):
        report = classify_corpus(random_paired_corpus(random.Random(seed), 5))
        judged = _judged(report, 5)
        for profile in UserProfile:
            assert _nums(human_f(report, judged, profile)) == _nums(relaxed_f(report))


def test_all_bottom_scores_reproduce_exact():
    for seed in range(20):
        report = classify_corpus(random_paired_corpus(random.Random(seed), 5))
        judged = _judged(report, 1)
        for profile in UserProfile:
            assert _nums(human_f(report, judged, profile)) == _nums(exact_f(report))


def test_partial_score_splits_the_profiles(liver_report):
    judged = _judged(liver_report, 2)
    strict = human_f(liver_report, judged, UserProfile.STRICT)
    forgiving = human_f(liver_report, judged, UserProfile.FORGIVING)
    assert strict.f1 == 0.0
    assert forgiving.f1 == 1.0


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_forgiving_never_scores_below_strict(corpus_seed, score_seed):
    report = classify_corpus(random_paired_corpus(random.Random(corpus_seed), 3))
    rng = random.Random(score_seed)
    judged = [JudgementRecord(rid, rng.randint(1, 5)) for rid in _t5_ids(report)]
    strict = human_f(report, judged, UserProfile.STRICT)
    forgiving = human_f(report, judged, UserProfile.FORGIVING)
    assert forgiving.f1 >= strict.f1
    assert exact_f(report).f1 <= strict.f1
    assert forgiving.f1 <= relaxed_f(report).f1


def test_human_f_requires_full_coverage(liver_report):
    ids = _t5_ids(liver_report)
    with pytest.raises(UncoveredRecordsError) as exc:
        human_f(liver_report, [JudgementRecord(ids[0], 5)], UserProfile.STRICT)
    assert exc.value.record_ids == (ids[1],)


def test_metric_error_is_in_f1_points(liver_report):
    judged = _judged(liver_report, 5)
    human = human_f(liver_report, judged, UserProfile.STRICT)
    assert metric_error(exact_f(liver_report), human) == pytest.approx(-100.0)
    assert metric_error(relaxed_f(liver_report), human) == pytest.approx(0.0)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_metric_error_signs_match_the_bounds(corpus_seed, score_seed):
    report = classify_corpus(random_paired_corpus(random.Random(corpus_seed), 3))
    rng = random.Random(score_seed)
    judged = [JudgementRecord(rid, rng.randint(1, 5)) for rid in _t5_ids(report)]
    for profile in UserProfile:
        human = human_f(report, judged, profile)
        assert metric_error(exact_f(report), human) <= 1e-12
        assert metric_error(relaxed_f(report), human) >= -1e-12


# ---------------------------------------------------------------------------
# classifier-versus-expert agreement


def _decisions(pairs):
    return {
        rid: Decision(rid, verdict, None, conf)
        for rid, verdict, conf in pairs
    }


def test_agreement_over_shared_records(liver_report):
    a, b = _t5_ids(liver_report)
    decisions = _decisions(
        [(a, Verdict.ACCEPT, 0.9), (b, Verdict.REJECT, 0.4)]
    )
    judged = [JudgementRecord(a, 5), JudgementRecord(b, 1)]
    stats = agreement(decisions, judged)
    assert stats.shared == 2
    assert stats.expert_accept_given_classifier_accept == 1.0
    assert stats.classifier_accept_given_expert_accept == 1.0
    assert stats.disagreement_rate == 0.0
    assert stats.low_confidence_disagreement_share == 0.0


def test_agreement_counts_disagreements(liver_report):
    a, b = _t5_ids(liver_report)
    decisions = _decisions(
        [(a, Verdict.REJECT, 0.3), (b, Verdict.ACCEPT, 0.9)]
    )
    # expert accepts a (score 2 counts as accepted) and rejects b
    judged = [JudgementRecord(a, 2), JudgementRecord(b, 1)]
    stats = agreement(decisions, judged)
    assert stats.disagreement_rate == 1.0
    # only the score-2 disagreement has confidence below the 0.5 threshold
    assert stats.low_confidence_disagreement_share == 0.5


def test_agreement_confidence_summary_by_outcome(liver_report):
    a, b = _t5_ids(liver_report)
    decisions = _decisions(
        [(a, Verdict.ACCEPT, 0.8), (b, Verdict.ACCEPT, 0.6)]
    )
    judged = [JudgementRecord(a, 4), JudgementRecord(b, 2)]
    stats = agreement(decisions, judged)
    assert stats.confidence_by_outcome["accepted"].mean == pytest.approx(0.8)
    assert stats.confidence_by_outcome["partially_accepted"].mean == pytest.approx(0.6)
    assert "rejected" not in stats.confidence_by_outcome
    assert stats.confidence_by_outcome["accepted"].count == 1


def test_agreement_requires_overlap(liver_report):
    a, b = _t5_ids(liver_report)
    decisions = _decisions([(a, Verdict.ACCEPT, 0.9)])
    judged = [JudgementRecord(b, 3)]
    with pytest.raises(ValueError, match="common record"):
        agreement(decisions, judged)


def test_agreement_zero_confidence_counts_as_low(liver_report):
    a, b = _t5_ids(liver_report)
    decisions = _decisions(
        [(a, Verdict.REJECT, 0.0), (b, Verdict.ACCEPT, 0.9)]
    )
    judged = [JudgementRecord(a, 5), JudgementRecord(b, 5)]
    stats = agreement(decisions, judged)
    assert stats.low_confidence_disagreement_share == 1.0
