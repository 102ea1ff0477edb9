from __future__ import annotations

import hashlib
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from entmatch.cli import main
from entmatch.corpus import (
    Corpus,
    Source,
    build_document,
    pair_corpora,
    serialize_standoff,
)
from entmatch.matcher import MatchReport, MismatchType, classify_corpus
from entmatch.perturb import PerturbationPlan, perturb, write_expected_ledger
from oracle import oracle_perturb, random_spans

EXACT = MismatchType.EXACT_MATCH
T1 = MismatchType.TYPE1_FALSE_POSITIVE
T2 = MismatchType.TYPE2_FALSE_NEGATIVE
T3 = MismatchType.TYPE3_WRONG_LABEL_RIGHT_SPAN
T5 = MismatchType.TYPE5_RIGHT_LABEL_OVERLAP


def gold_corpus(seed: int, n_docs: int = 8, labels=("A", "B", "C")) -> Corpus:
    rng = random.Random(seed)
    docs = []
    for i in range(n_docs):
        n_tokens = rng.randint(4, 24)
        spans = random_spans(rng, n_tokens, labels, max_entities=8)
        docs.append(
            build_document(f"doc{i:03d}", [[f"w{j}" for j in range(n_tokens)]], gold=spans)
        )
    return Corpus.from_documents(docs)


def _matcher_counts(gold: Corpus, pred: Corpus):
    report = classify_corpus(pair_corpora(gold, pred))
    return {k: v for k, v in report.counts.items() if v}


def _expected_counts(ledger: MatchReport):
    return {k: v for k, v in ledger.counts.items() if v}


# ---------------------------------------------------------------------------
# plan validation


def test_plan_rejects_out_of_range_rates():
    with pytest.raises(ValueError, match="drop_rate"):
        PerturbationPlan(drop_rate=1.5)
    with pytest.raises(ValueError, match="insert_rate"):
        PerturbationPlan(insert_rate=-0.1)


def test_plan_rejects_oversubscribed_draw():
    with pytest.raises(ValueError, match="sum"):
        PerturbationPlan(extend_rate=0.5, shrink_rate=0.4, drop_rate=0.2)


def test_plan_insert_rate_is_not_part_of_the_draw():
    PerturbationPlan(extend_rate=0.6, shrink_rate=0.4, insert_rate=1.0)


def test_plan_rejects_zero_token_deltas():
    with pytest.raises(ValueError, match="extend_tokens"):
        PerturbationPlan(extend_tokens=0)


# ---------------------------------------------------------------------------
# single-operation plans


def test_no_operations_copies_gold():
    gold = gold_corpus(0)
    pred, ledger = perturb(gold, PerturbationPlan(seed=1))
    assert _expected_counts(ledger) in ({EXACT: gold.total_entities(Source.GOLD)}, {})
    assert _matcher_counts(gold, pred) == _expected_counts(ledger)
    for g, p in zip(gold.documents, pred.documents):
        assert [(m.start, m.end, m.label) for m in g.gold_entities] == [
            (m.start, m.end, m.label) for m in p.pred_entities
        ]


def test_drop_everything_yields_only_misses():
    gold = gold_corpus(1)
    pred, ledger = perturb(gold, PerturbationPlan(seed=2, drop_rate=1.0))
    assert _expected_counts(ledger) == {T2: gold.total_entities(Source.GOLD)}
    assert all(not d.pred_entities for d in pred.documents)
    assert _matcher_counts(gold, pred) == _expected_counts(ledger)


def test_relabel_everything_yields_type3():
    gold = gold_corpus(2)
    pred, ledger = perturb(gold, PerturbationPlan(seed=3, relabel_rate=1.0))
    counts = _expected_counts(ledger)
    assert counts == {T3: gold.total_entities(Source.GOLD)}
    assert _matcher_counts(gold, pred) == counts


def test_relabel_with_one_label_falls_back_to_exact():
    gold = gold_corpus(3, labels=("only",))
    pred, ledger = perturb(gold, PerturbationPlan(seed=4, relabel_rate=1.0))
    assert _expected_counts(ledger) == {EXACT: gold.total_entities(Source.GOLD)}
    assert _matcher_counts(gold, pred) == _expected_counts(ledger)


def test_split_yields_adjacent_type5_fragments():
    doc = build_document("d", [[f"w{i}" for i in range(10)]], gold=[(2, 8, "A")])
    gold = Corpus.from_documents([doc])
    pred, ledger = perturb(gold, PerturbationPlan(seed=5, split_rate=1.0))
    assert _expected_counts(ledger) == {T5: 2}
    (p1, p2) = sorted((m.start, m.end) for m in pred.documents[0].pred_entities)
    assert p1[0] == 2 and p2[1] == 8
    assert p1[1] == p2[0]  # adjacent, never overlapping
    assert _matcher_counts(gold, pred) == {T5: 2}


def test_split_skips_single_token_mentions():
    doc = build_document("d", [["a", "b"]], gold=[(0, 1, "A")])
    gold = Corpus.from_documents([doc])
    _, ledger = perturb(gold, PerturbationPlan(seed=6, split_rate=1.0))
    assert _expected_counts(ledger) == {EXACT: 1}


def test_shrink_trims_and_reports_type5():
    doc = build_document("d", [[f"w{i}" for i in range(8)]], gold=[(1, 6, "A")])
    gold = Corpus.from_documents([doc])
    pred, ledger = perturb(gold, PerturbationPlan(seed=7, shrink_rate=1.0, shrink_tokens=2))
    assert _expected_counts(ledger) == {T5: 1}
    (mention,) = pred.documents[0].pred_entities
    assert mention.end - mention.start == 3
    assert _matcher_counts(gold, pred) == {T5: 1}


def test_shrink_skips_mentions_at_minimum_length():
    doc = build_document("d", [["a", "b", "c"]], gold=[(0, 2, "A")])
    gold = Corpus.from_documents([doc])
    _, ledger = perturb(gold, PerturbationPlan(seed=8, shrink_rate=1.0, shrink_tokens=2))
    assert _expected_counts(ledger) == {EXACT: 1}


def test_extend_grows_into_free_space_only():
    # the gold at the right edge cannot grow; the interior one can
    doc = build_document(
        "d", [[f"w{i}" for i in range(10)]], gold=[(2, 4, "A"), (8, 10, "A")]
    )
    gold = Corpus.from_documents([doc])
    pred, ledger = perturb(gold, PerturbationPlan(seed=9, extend_rate=1.0))
    counts = _expected_counts(ledger)
    assert counts[T5] >= 1
    assert counts.get(EXACT, 0) + counts[T5] == 2
    assert _matcher_counts(gold, pred) == counts


def test_extension_collisions_are_skipped_not_clipped():
    # every neighbouring position is occupied, so extending is infeasible
    doc = build_document(
        "d", [["a", "b", "c", "d"]], gold=[(0, 2, "A"), (2, 4, "B")]
    )
    gold = Corpus.from_documents([doc])
    pred, ledger = perturb(gold, PerturbationPlan(seed=10, extend_rate=1.0))
    assert _expected_counts(ledger) == {EXACT: 2}
    assert [(m.start, m.end) for m in pred.documents[0].pred_entities] == [
        (0, 2),
        (2, 4),
    ]


def test_inserted_spans_become_false_positives():
    doc = build_document("d", [[f"w{i}" for i in range(30)]], gold=[(0, 2, "A")])
    gold = Corpus.from_documents([doc])
    pred, ledger = perturb(gold, PerturbationPlan(seed=11, insert_rate=1.0))
    counts = _expected_counts(ledger)
    assert counts.get(T1, 0) <= 1  # one attempt for one gold mention
    assert _matcher_counts(gold, pred) == counts


def test_insertions_only_touch_free_space():
    gold = gold_corpus(12)
    pred, ledger = perturb(gold, PerturbationPlan(seed=13, insert_rate=1.0))
    counts = _matcher_counts(gold, pred)
    assert counts.get(T1, 0) == _expected_counts(ledger).get(T1, 0)
    # inserted spans never overlap a gold, so nothing else appears
    assert set(counts) <= {EXACT, T1}


# ---------------------------------------------------------------------------
# determinism and self-consistency


MIXED = dict(
    extend_rate=0.15,
    shrink_rate=0.15,
    split_rate=0.2,
    relabel_rate=0.15,
    drop_rate=0.1,
    insert_rate=0.4,
)


def test_same_plan_reproduces_the_same_output():
    gold = gold_corpus(20)
    plan = PerturbationPlan(seed=42, **MIXED)
    pred_a, ledger_a = perturb(gold, plan)
    pred_b, ledger_b = perturb(gold, plan)
    assert pred_a == pred_b
    assert ledger_a.records == ledger_b.records


def test_different_seeds_differ():
    gold = gold_corpus(21)
    a, _ = perturb(gold, PerturbationPlan(seed=1, **MIXED))
    b, _ = perturb(gold, PerturbationPlan(seed=2, **MIXED))
    assert a != b


def test_documents_perturb_independently():
    gold_two = gold_corpus(22, n_docs=2)
    gold_one = Corpus.from_documents([gold_two.documents[0]])
    plan = PerturbationPlan(seed=5, **MIXED)
    pred_two, _ = perturb(gold_two, plan)
    pred_one, _ = perturb(gold_one, plan)
    assert pred_one.documents[0] == pred_two.documents[0]


def _record_multiset(report: MatchReport) -> Counter:
    """The records of a report as ``(doc_id, kind, pred, gold, overlap)``
    with each side ``(start, end, label, text)`` or None; ids and order are
    left out."""

    def side(m):
        return m and (m.start, m.end, m.label, m.text)

    return Counter(
        (r.doc_id, r.kind, side(r.pred), side(r.gold), r.overlap_tokens)
        for r in report.records
    )


def test_matcher_reproduces_expected_ledger_across_seeds():
    for seed in range(30):
        gold = gold_corpus(seed, n_docs=4)
        plan = PerturbationPlan(seed=seed * 7 + 1, **MIXED)
        pred, expected = perturb(gold, plan)
        report = classify_corpus(pair_corpora(gold, pred))
        for tally in (
            "counts",
            "per_label_counts",
            "gold_by_label",
            "pred_by_label",
            "gold_total",
            "pred_total",
        ):
            assert getattr(report, tally) == getattr(expected, tally), f"seed {seed} {tally}"
        assert _record_multiset(report) == _record_multiset(expected), f"seed {seed}"


def test_expected_ledger_file_is_readable_jsonl(tmp_path):
    gold = gold_corpus(23, n_docs=2)
    _, ledger = perturb(gold, PerturbationPlan(seed=3, **MIXED))
    path = tmp_path / "expected.jsonl"
    write_expected_ledger(ledger, path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == len(ledger.records)
    valid_kinds = {k.value for k in MismatchType}
    assert all(row["kind"] in valid_kinds for row in rows)
    # relabelled entries carry both labels
    for row in rows:
        if row["kind"] == T3.value:
            assert row["gold"]["label"] != row["pred"]["label"]


# ---------------------------------------------------------------------------
# against the linear-scan oracle


@st.composite
def flat_gold_corpora(draw):
    """One to three documents of 0-40 sorted, flat golds of 1-4 tokens each,
    dense (every gold touches the next) or sparse."""
    docs = []
    for d in range(draw(st.integers(1, 3))):
        max_gap = draw(st.sampled_from((0, 1, 3)))
        spans = []
        pos = draw(st.integers(0, 2))
        for _ in range(draw(st.integers(0, 40))):
            length = draw(st.integers(1, 4))
            spans.append((pos, pos + length, draw(st.sampled_from("ABC"))))
            pos += length + draw(st.integers(0, max_gap))
        n = pos + draw(st.integers(0, 2))
        docs.append(build_document(f"d{d}", [[f"w{i}" for i in range(n)]], gold=spans))
    return Corpus.from_documents(docs)


_RATE = st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0)


@st.composite
def plans(draw):
    rates = [draw(_RATE) for _ in range(5)]
    total = sum(rates)
    if total > 1.0:
        rates = [rate / total for rate in rates]
    extend, shrink, split, relabel, drop = rates
    return PerturbationPlan(
        seed=draw(st.integers(0, 1 << 16)),
        extend_rate=extend,
        extend_tokens=draw(st.integers(1, 4)),
        shrink_rate=shrink,
        shrink_tokens=draw(st.integers(1, 4)),
        split_rate=split,
        relabel_rate=relabel,
        drop_rate=drop,
        insert_rate=draw(_RATE),
    )


@settings(max_examples=200, deadline=None)
@given(gold=flat_gold_corpora(), plan=plans())
def test_perturb_matches_the_linear_scan_oracle(gold, plan):
    pred, ledger = perturb(gold, plan)
    oracle_pred, oracle_entries = oracle_perturb(gold, plan)
    assert serialize_standoff(pred) == serialize_standoff(oracle_pred)
    entries = [
        (
            r.doc_id,
            r.kind,
            r.gold and r.gold.span,
            r.pred and r.pred.span,
            r.gold and r.gold.label,
            r.pred and r.pred.label,
        )
        for r in ledger.records
    ]
    assert entries == oracle_entries


# sha256 of the three files `perturb` writes for gold_corpus(29, n_docs=40)
# under the plan below; constants, so a change to its draws or collision
# checks that moves one output byte fails here
PINNED_PERTURB_SHA256 = {
    "gold": "1b4cdd6e1b69dc105865dd480890d85a104ebaeb3b4f60fed5632955981af250",
    "pred": "a82b1acaf37fa2fd129aaa3153a8b0011446045a3ce5a4538a248e9e0affc79c",
    "expected": "c8522806c0b6f10b827747cadaa45bc77d01f63e22c5f9fe57cb7d3ef4d5520f",
}


def test_perturb_output_files_are_pinned(tmp_path):
    gold = tmp_path / "gold.jsonl"
    gold.write_text(serialize_standoff(gold_corpus(29, n_docs=40)), encoding="utf-8")
    code = main(
        [
            "perturb", str(gold), "--format", "standoff", "--seed", "5",
            "--extend-rate", "0.3", "--extend-tokens", "2",
            "--shrink-rate", "0.15", "--split-rate", "0.15",
            "--relabel-rate", "0.1", "--drop-rate", "0.1", "--insert-rate", "0.6",
            "--out-prefix", str(tmp_path / "run"),
        ]
    )
    assert code == 0
    digests = {
        part: hashlib.sha256((tmp_path / f"run.{part}.jsonl").read_bytes()).hexdigest()
        for part in PINNED_PERTURB_SHA256
    }
    assert digests == PINNED_PERTURB_SHA256
