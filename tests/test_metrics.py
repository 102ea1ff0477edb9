from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from entmatch.classifier import Decision, Verdict, load_external_decisions
from entmatch.judgement import JudgementRecord, UserProfile, human_f
from entmatch.corpus import EntityMention
from entmatch.matcher import (
    MatchRecord,
    MatchReport,
    MismatchType,
    classify_corpus,
    classify_document,
)
from entmatch.metrics import (
    Convention,
    PRF,
    UncoveredRecordsError,
    exact_f,
    learning_based_f,
    learning_based_scores,
    macro_average,
    metric_suite,
    refined_f,
    relaxed_f,
    semeval_modes,
)
from oracle import (
    CREDIT_KINDS,
    EXACT,
    T1,
    T2,
    T5,
    mentions,
    oracle_scores,
    random_paired_corpus,
    recount_exact,
    recount_relaxed,
)


def _nums(prf: PRF):
    return (prf.tp_pred, prf.tp_gold, prf.fp, prf.fn, prf.precision, prf.recall, prf.f1)


def _report(seed: int, n_docs: int = 8) -> MatchReport:
    return classify_corpus(random_paired_corpus(random.Random(seed), n_docs))


def _t5_ids(report: MatchReport) -> list[str]:
    return [r.record_id for r in report.type5_records()]


def _decide_all(report: MatchReport, verdict: Verdict) -> dict[str, Decision]:
    return {rid: Decision(rid, verdict) for rid in _t5_ids(report)}


# ---------------------------------------------------------------------------
# counts to scores


def test_from_counts_zero_over_zero_is_zero():
    prf = PRF.from_counts(0, 0, 0, 0)
    assert (prf.precision, prf.recall, prf.f1) == (0.0, 0.0, 0.0)


def test_from_counts_harmonic_mean():
    prf = PRF.from_counts(1, 1, 1, 3)
    assert prf.precision == 0.5
    assert prf.recall == 0.25
    assert prf.f1 == pytest.approx(2 * 0.5 * 0.25 / 0.75)


def test_from_counts_perfect_score():
    prf = PRF.from_counts(4, 4, 0, 0)
    assert (prf.precision, prf.recall, prf.f1) == (1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# fixture anchors


def test_liver_exact_is_zero(liver_report):
    prf = exact_f(liver_report)
    assert prf.f1 == 0.0
    assert (prf.tp_pred, prf.tp_gold, prf.fp, prf.fn) == (0, 0, 2, 1)


def test_liver_relaxed_is_one(liver_report):
    prf = relaxed_f(liver_report)
    assert prf.f1 == 1.0
    # both fragments are credited predictions; the one gold is recovered
    assert (prf.tp_pred, prf.tp_gold, prf.fp, prf.fn) == (2, 1, 0, 0)


def test_liver_semeval_split(liver_report):
    modes = semeval_modes(liver_report)
    assert modes[Convention.SEMEVAL_STRICT].f1 == 0.0
    assert modes[Convention.SEMEVAL_EXACT_BOUNDARY].f1 == 0.0
    assert modes[Convention.SEMEVAL_PARTIAL_BOUNDARY].f1 == 1.0
    assert modes[Convention.SEMEVAL_TYPE].f1 == 1.0


# ---------------------------------------------------------------------------
# oracle agreement on fuzzed corpora


def test_exact_matches_recount_on_fuzzed_corpora():
    for seed in range(40):
        corpus = random_paired_corpus(random.Random(seed), 6)
        got = exact_f(classify_corpus(corpus))
        tp, fp, fn = recount_exact(corpus)
        assert (got.tp_pred, got.tp_gold) == (tp, tp)
        assert (got.fp, got.fn) == (fp, fn)


def test_relaxed_matches_recount_on_fuzzed_corpora():
    for seed in range(40):
        corpus = random_paired_corpus(random.Random(seed), 6)
        got = relaxed_f(classify_corpus(corpus))
        tp_pred, tp_gold, fp, fn = recount_relaxed(corpus)
        assert (got.tp_pred, got.tp_gold, got.fp, got.fn) == (tp_pred, tp_gold, fp, fn)


# ---------------------------------------------------------------------------
# semeval variants


def test_semeval_strict_equals_exact(liver_report):
    for seed in (1, 2, 3):
        report = _report(seed)
        assert _nums(semeval_modes(report)[Convention.SEMEVAL_STRICT]) == _nums(
            exact_f(report)
        )


def test_semeval_type_equals_relaxed():
    for seed in (4, 5, 6):
        report = _report(seed)
        assert _nums(semeval_modes(report)[Convention.SEMEVAL_TYPE]) == _nums(
            relaxed_f(report)
        )


def test_semeval_exact_boundary_credits_relabelled_spans():
    gold = mentions("d", [(0, 2, "A"), (4, 5, "B")])
    pred = mentions("d", [(0, 2, "B"), (4, 5, "B")])
    report = MatchReport.from_records(classify_document(gold, pred))
    modes = semeval_modes(report)
    assert modes[Convention.SEMEVAL_STRICT].tp_pred == 1
    assert modes[Convention.SEMEVAL_EXACT_BOUNDARY].tp_pred == 2
    assert modes[Convention.SEMEVAL_EXACT_BOUNDARY].f1 == 1.0


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_semeval_modes_are_ordered(seed):
    modes = semeval_modes(_report(seed, n_docs=3))
    strict = modes[Convention.SEMEVAL_STRICT].f1
    boundary = modes[Convention.SEMEVAL_EXACT_BOUNDARY].f1
    partial = modes[Convention.SEMEVAL_PARTIAL_BOUNDARY].f1
    type_match = modes[Convention.SEMEVAL_TYPE].f1
    assert strict <= boundary <= partial
    assert strict <= type_match <= partial


# ---------------------------------------------------------------------------
# decision-refined scoring


def test_accept_all_reproduces_relaxed():
    for seed in range(25):
        report = _report(seed)
        refined = learning_based_f(report, _decide_all(report, Verdict.ACCEPT))
        assert _nums(refined) == _nums(relaxed_f(report))


def test_reject_all_reproduces_exact():
    for seed in range(25):
        report = _report(seed)
        refined = learning_based_f(report, _decide_all(report, Verdict.REJECT))
        assert _nums(refined) == _nums(exact_f(report))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_sandwich_property(corpus_seed, decision_seed):
    report = _report(corpus_seed, n_docs=4)
    rng = random.Random(decision_seed)
    decisions = {
        rid: Decision(rid, rng.choice((Verdict.ACCEPT, Verdict.REJECT)))
        for rid in _t5_ids(report)
    }
    refined = learning_based_f(report, decisions)
    assert exact_f(report).f1 <= refined.f1 <= relaxed_f(report).f1


def test_missing_decision_raises_with_ids(liver_report):
    ids = _t5_ids(liver_report)
    decisions = {ids[0]: Decision(ids[0], Verdict.ACCEPT)}
    with pytest.raises(UncoveredRecordsError) as exc:
        learning_based_f(liver_report, decisions)
    assert exc.value.record_ids == (ids[1],)


def test_every_verdict_source_reports_missing_records_alike(tmp_path):
    # decisions, external responses and expert scores for the same Type-5
    # records leave the same ids uncovered, named in one message
    report = _report(3)
    ids = _t5_ids(report)
    covered = ids[::2]
    missing = sorted(set(ids) - set(covered))
    assert len(missing) >= 2
    responses = tmp_path / "responses.jsonl"
    labels = {r.record_id: r.pred.label for r in report.type5_records()}
    responses.write_text(
        "".join(
            json.dumps({"id": rid, "label": labels[rid], "confidence": 0.5}) + "\n"
            for rid in covered
        )
    )
    callers = [
        lambda: learning_based_scores(
            report, {rid: Decision(rid, Verdict.ACCEPT) for rid in covered}
        ),
        lambda: load_external_decisions(report, responses),
        lambda: human_f(
            report, [JudgementRecord(rid, 5) for rid in covered], UserProfile.STRICT
        ),
    ]
    for call in callers:
        with pytest.raises(UncoveredRecordsError) as exc:
            call()
        assert exc.value.record_ids == tuple(missing)
        assert str(exc.value) == "no decision for Type-5 records: " + ", ".join(missing)


def test_extra_decisions_are_tolerated(liver_report):
    decisions = _decide_all(liver_report, Verdict.ACCEPT)
    decisions["ghost:9"] = Decision("ghost:9", Verdict.REJECT)
    assert learning_based_f(liver_report, decisions).f1 == 1.0


def test_accepted_ids_keeps_only_accepts(liver_report):
    ids = _t5_ids(liver_report)
    decisions = {
        ids[0]: Decision(ids[0], Verdict.ACCEPT),
        ids[1]: Decision(ids[1], Verdict.REJECT),
    }
    learning = learning_based_f(liver_report, decisions)
    assert _nums(learning) == _nums(refined_f(liver_report, {ids[0]}))


def test_accepted_ids_of_other_kinds_earn_no_credit():
    for seed in range(10):
        report = _report(seed)
        others = {r.record_id for r in report.records} - set(_t5_ids(report))
        assert _nums(refined_f(report, others)) == _nums(exact_f(report))


def test_partial_acceptance_scores_between_bounds(liver_report):
    ids = _t5_ids(liver_report)
    refined = refined_f(liver_report, {ids[0]})
    # one fragment credited: precision 1/2, the gold is still recovered
    assert (refined.tp_pred, refined.tp_gold, refined.fp, refined.fn) == (1, 1, 1, 0)


# ---------------------------------------------------------------------------
# per-label breakdowns


def test_per_label_counts_sum_to_overall():
    for seed in range(15):
        report = _report(seed)
        suite = metric_suite(report)
        for conv, by_label in suite.per_label.items():
            overall = suite.overall[conv]
            assert sum(p.tp_pred for p in by_label.values()) == overall.tp_pred
            assert sum(p.tp_gold for p in by_label.values()) == overall.tp_gold
            assert sum(p.fp for p in by_label.values()) == overall.fp
            assert sum(p.fn for p in by_label.values()) == overall.fn


def test_partial_boundary_has_no_per_label_breakdown():
    suite = metric_suite(_report(1))
    assert Convention.SEMEVAL_PARTIAL_BOUNDARY in suite.overall
    assert Convention.SEMEVAL_PARTIAL_BOUNDARY not in suite.per_label


def test_suite_includes_learning_based_only_with_decisions(liver_report):
    without = metric_suite(liver_report)
    assert set(without.overall) == set(Convention)
    overall, _ = learning_based_scores(
        liver_report, _decide_all(liver_report, Verdict.REJECT)
    )
    assert overall.f1 == 0.0


def test_per_label_scores_are_label_local():
    gold = mentions("d", [(0, 1, "A"), (3, 4, "B")])
    pred = mentions("d", [(0, 1, "A"), (5, 6, "B")])
    report = MatchReport.from_records(classify_document(gold, pred))
    by_label = metric_suite(report).per_label[Convention.EXACT]
    assert by_label["A"].f1 == 1.0
    assert by_label["B"].f1 == 0.0


def test_macro_average_is_unweighted_mean():
    a = PRF.from_counts(1, 1, 0, 0)
    b = PRF.from_counts(0, 0, 1, 1)
    p, r, f = macro_average({"A": a, "B": b})
    assert (p, r, f) == (0.5, 0.5, 0.5)


def test_macro_average_of_nothing_is_zero():
    assert macro_average({}) == (0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# against the per-record oracle


@st.composite
def _hand_built_records(draw):
    """Records over a small pool of golds, so that one gold may anchor several
    records of any kinds: several Type-5 records, or an exact record beside
    Type-4 or Type-5 ones, which a ledger may hold but the matcher never
    writes. Exact and Type-5 predictions carry their gold's label, Type-3
    and Type-4 ones another label."""
    golds = [
        EntityMention(f"d{d}", i, i + 1, draw(st.sampled_from("AB")), f"w{i}")
        for d in range(draw(st.integers(1, 2)))
        for i in range(draw(st.integers(0, 4)))
    ]
    records = []
    for i in range(draw(st.integers(0, 24))):
        kind = draw(st.sampled_from(MismatchType)) if golds else T1
        gold = None if kind is T1 else draw(st.sampled_from(golds))
        pred = None
        if kind is not T2:
            if kind is T1:
                label = draw(st.sampled_from("ABC"))
            elif kind in (EXACT, T5):
                label = gold.label
            else:
                label = "B" if gold.label == "A" else "A"
            doc_id = gold.doc_id if gold else "d0"
            pred = EntityMention(doc_id, 10 + i, 11 + i, label, "p")
        doc_id = (gold or pred).doc_id
        records.append(MatchRecord(f"{doc_id}:{i}", doc_id, kind, pred, gold, 0))
    return records


_RECORDS = _hand_built_records() | st.integers(0, 1 << 16).map(
    lambda seed: classify_corpus(random_paired_corpus(random.Random(seed), 6)).records
)


@settings(max_examples=300, deadline=None)
@given(records=_RECORDS, data=st.data())
def test_every_convention_matches_the_per_record_oracle(records, data):
    report = MatchReport.from_records(records)
    t5_ids = [r.record_id for r in records if r.kind is T5]
    # accepted ids may name records of any kind, and records that do not exist
    ids = [r.record_id for r in records] + ["ghost:0", "ghost:1"]
    accepted = frozenset(data.draw(st.sets(st.sampled_from(ids)), label="accepted"))

    suite = metric_suite(report)
    assert set(suite.overall) == set(CREDIT_KINDS)
    for conv, kinds in CREDIT_KINDS.items():
        overall, per_label = oracle_scores(records, kinds)
        assert suite.overall[conv] == overall
        if conv is not Convention.SEMEVAL_PARTIAL_BOUNDARY:
            assert suite.per_label[conv] == per_label
    assert exact_f(report) == suite.overall[Convention.EXACT]
    assert relaxed_f(report) == suite.overall[Convention.RELAXED]
    assert semeval_modes(report) == {
        conv: suite.overall[conv] for conv in semeval_modes(report)
    }

    exact_kinds = CREDIT_KINDS[Convention.EXACT]
    want = oracle_scores(records, exact_kinds, accepted)
    assert refined_f(report, accepted) == want[0]
    decisions = {
        rid: Decision(rid, Verdict.ACCEPT if rid in accepted else Verdict.REJECT)
        for rid in t5_ids + ["ghost:0"]
    }
    assert learning_based_scores(report, decisions) == want
    assert learning_based_f(report, decisions) == want[0]

    scores = data.draw(
        st.lists(st.integers(1, 5), min_size=len(t5_ids), max_size=len(t5_ids)),
        label="scores",
    )
    judgements = [JudgementRecord(rid, score) for rid, score in zip(t5_ids, scores)]
    for profile in UserProfile:
        judged = frozenset(
            j.record_id for j in judgements if j.score >= profile.min_accepted_score
        )
        want = oracle_scores(records, exact_kinds, judged)
        assert human_f(report, judgements, profile) == want[0]
