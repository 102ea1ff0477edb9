from __future__ import annotations

import json
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from entmatch.corpus import EntityMention
from entmatch.matcher import (
    _SIDES_BY_KIND,
    ERROR_TYPES,
    MatchRecord,
    MatchReport,
    MismatchType,
    classify_corpus,
    classify_document,
    read_ledger,
    token_overlap,
    write_ledger,
)
from oracle import (
    EXACT,
    T1,
    T2,
    T3,
    T4,
    T5,
    mentions,
    oracle_records,
    random_paired_corpus,
    random_paired_document,
)


def _kinds(records):
    return Counter(r.kind for r in records)


def _as_tuples(records):
    return Counter(
        (r.kind, r.pred.span if r.pred else None, r.gold.span if r.gold else None)
        for r in records
    )


# ---------------------------------------------------------------------------
# single-document classification


def test_identical_sides_are_all_exact():
    spans = [(0, 1, "A"), (2, 4, "B")]
    gold = mentions("d", spans)
    pred = mentions("d", spans)
    records = classify_document(gold, pred)
    assert _kinds(records) == {EXACT: 2}


def test_disjoint_sides_split_into_type1_and_type2():
    gold = mentions("d", [(0, 2, "A")])
    pred = mentions("d", [(5, 7, "A")])
    records = classify_document(gold, pred)
    assert _kinds(records) == {T1: 1, T2: 1}


def test_same_span_different_label_is_type3():
    gold = mentions("d", [(1, 3, "A")])
    pred = mentions("d", [(1, 3, "B")])
    (record,) = classify_document(gold, pred)
    assert record.kind is T3
    assert record.pred.label == "B" and record.gold.label == "A"


def test_overlap_different_label_is_type4():
    gold = mentions("d", [(0, 3, "A")])
    pred = mentions("d", [(2, 5, "B")])
    (record,) = classify_document(gold, pred)
    assert record.kind is T4
    assert record.overlap_tokens == 1


def test_overlap_same_label_is_type5():
    gold = mentions("d", [(0, 3, "A")])
    pred = mentions("d", [(1, 4, "A")])
    (record,) = classify_document(gold, pred)
    assert record.kind is T5
    assert record.overlap_tokens == 2


def test_liver_fixture_yields_two_type5(liver_corpus):
    doc = liver_corpus.documents[0]
    records = classify_document(doc.gold_entities, doc.pred_entities)
    assert _kinds(records) == {T5: 2}
    # both fragments anchor to the one gold mention
    assert {r.gold.span for r in records} == {(0, 9)}


def test_three_fragments_anchor_to_one_gold():
    gold = mentions("d", [(0, 9, "A")])
    pred = mentions("d", [(0, 2, "A"), (3, 5, "A"), (7, 9, "A")])
    records = classify_document(gold, pred)
    assert _kinds(records) == {T5: 3}
    # the shared anchor leaves nothing to report as a complete miss
    assert all(r.gold.span == (0, 9) for r in records)


def test_anchor_prefers_larger_overlap():
    # the pred overlaps the left gold by 1 and the right gold by 3, so the
    # leftmost start alone would pick the left one
    for label, kind in (("A", T5), ("B", T4)):
        gold = mentions("d", [(0, 2, label), (3, 7, label)])
        pred = mentions("d", [(1, 6, "A")])
        records = classify_document(gold, pred)
        anchored = [r for r in records if r.kind is kind]
        assert len(anchored) == 1
        assert anchored[0].gold.span == (3, 7) and anchored[0].overlap_tokens == 3
        # the skipped gold stays a complete miss
        assert [r.gold.span for r in records if r.kind is T2] == [(0, 2)]


def test_anchor_tie_breaks_leftmost_then_longest():
    # equal one-token overlap on both ends: leftmost gold wins
    gold = mentions("d", [(0, 2, "A"), (4, 6, "A")])
    pred = mentions("d", [(1, 5, "A")])
    (t5,) = [r for r in classify_document(gold, pred) if r.kind is T5]
    assert t5.gold.span == (0, 2)


def test_anchor_overlap_outranks_leftmost_start():
    # overlaps: gold1 = 1, gold2 = 2; the larger overlap wins before the
    # start is compared
    gold = mentions("d", [(0, 2, "A"), (3, 8, "A")])
    pred = mentions("d", [(1, 5, "A")])
    (t5,) = [r for r in classify_document(gold, pred) if r.kind is T5]
    assert t5.gold.span == (3, 8)


def test_same_label_anchor_preferred_over_closer_other_label():
    # the pred overlaps a same-label gold by 1 and an other-label gold by 2;
    # stage order makes it a label-true boundary error, not a label error
    gold = mentions("d", [(0, 2, "A"), (2, 6, "B")])
    pred = mentions("d", [(1, 4, "A")])
    records = classify_document(gold, pred)
    kinds = _kinds(records)
    assert kinds[T5] == 1
    assert kinds[T4] == 0


def test_covered_other_label_gold_is_not_a_miss():
    gold = mentions("d", [(0, 3, "A")])
    pred = mentions("d", [(2, 5, "B")])
    records = classify_document(gold, pred)
    assert _kinds(records) == {T4: 1}


def test_overlapping_input_spans_rejected():
    gold = mentions("d", [(0, 2, "A"), (1, 3, "A")])
    with pytest.raises(ValueError, match="overlap"):
        classify_document(gold, [])


def test_mentions_of_two_documents_rejected():
    gold = mentions("d", [(0, 1, "A")])
    pred = mentions("e", [(0, 1, "A")])
    with pytest.raises(ValueError, match=r"mentions from multiple documents: \['d', 'e'\]"):
        classify_document(gold, pred)


def test_token_overlap_is_whole_tokens():
    def m(span):
        return mentions("d", [(*span, "A")])[0]

    assert token_overlap(m((0, 3)), m((2, 5))) == 1
    assert token_overlap(m((0, 3)), m((3, 5))) == 0
    assert token_overlap(m((0, 5)), m((1, 3))) == 2
    assert token_overlap(m((2, 4)), m((2, 4))) == 2


# ---------------------------------------------------------------------------
# oracle agreement


def test_matches_oracle_on_seeded_random_documents():
    rng = random.Random(41)
    for i in range(300):
        doc = random_paired_document(rng, f"doc{i}")
        got = _as_tuples(classify_document(doc.gold_entities, doc.pred_entities))
        want = Counter(oracle_records(doc.gold_entities, doc.pred_entities))
        assert got == want, f"doc{i}: {got} != {want}"


@st.composite
def paired_documents(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    return random_paired_document(random.Random(seed), "d")


@settings(max_examples=200, deadline=None)
@given(paired_documents())
def test_every_prediction_lands_in_exactly_one_record(doc):
    records = classify_document(doc.gold_entities, doc.pred_entities)
    pred_spans = [r.pred.span for r in records if r.pred is not None]
    assert sorted(pred_spans) == sorted(m.span for m in doc.pred_entities)


@settings(max_examples=200, deadline=None)
@given(paired_documents())
def test_gold_partition_is_exhaustive_and_disjoint(doc):
    records = classify_document(doc.gold_entities, doc.pred_entities)
    exact = {r.gold.span for r in records if r.kind is EXACT}
    type3 = {r.gold.span for r in records if r.kind is T3}
    missed = {r.gold.span for r in records if r.kind is T2}
    covered = {r.gold.span for r in records if r.kind in (T4, T5)}
    # exact, relabelled and missed golds are consumed: pairwise disjoint
    assert not (exact & type3) and not (exact & missed) and not (type3 & missed)
    # covered golds never include a missed one
    assert not (covered & missed)
    assert exact | type3 | missed | covered == {m.span for m in doc.gold_entities}


def _flipped(doc):
    gold = mentions("d", [(m.start, m.end, m.label) for m in doc.pred_entities])
    pred = mentions("d", [(m.start, m.end, m.label) for m in doc.gold_entities])
    return gold, pred


@settings(max_examples=200, deadline=None)
@given(paired_documents())
def test_swapping_sides_preserves_exact_and_type3(doc):
    direct = _kinds(classify_document(doc.gold_entities, doc.pred_entities))
    flipped = _kinds(classify_document(*_flipped(doc)))
    assert flipped[EXACT] == direct[EXACT]
    assert flipped[T3] == direct[T3]


@settings(max_examples=200, deadline=None)
@given(paired_documents())
def test_type1_counts_zero_overlap_predictions(doc):
    # a prediction touching any gold always pairs or anchors somewhere,
    # in both orientations
    def check(gold, pred):
        kinds = _kinds(classify_document(gold, pred))
        untouched = sum(
            all(token_overlap(p, g) == 0 for g in gold) for p in pred
        )
        assert kinds[T1] == untouched

    check(doc.gold_entities, doc.pred_entities)
    check(*_flipped(doc))


@st.composite
def one_to_one_documents(draw):
    # disjoint windows, at most one mention per side per window, so no
    # entity on either side overlaps more than one on the other
    golds: list[tuple[int, int, str]] = []
    preds: list[tuple[int, int, str]] = []
    base = 0
    for _ in range(draw(st.integers(1, 6))):
        width = 6
        if draw(st.booleans()):
            s = base + draw(st.integers(0, 2))
            golds.append((s, s + draw(st.integers(1, 3)), draw(st.sampled_from("AB"))))
        if draw(st.booleans()):
            s = base + draw(st.integers(0, 2))
            preds.append((s, s + draw(st.integers(1, 3)), draw(st.sampled_from("AB"))))
        base += width
    return (
        mentions("d", golds),
        mentions("d", preds),
    )


@settings(max_examples=200, deadline=None)
@given(one_to_one_documents())
def test_swapping_sides_swaps_misses_when_overlaps_are_one_to_one(pair):
    # with multi-anchoring ruled out the miss counts mirror exactly
    gold, pred = pair
    direct = _kinds(classify_document(gold, pred))
    regold = mentions("d", [(m.start, m.end, m.label) for m in pred])
    repred = mentions("d", [(m.start, m.end, m.label) for m in gold])
    flipped = _kinds(classify_document(regold, repred))
    assert flipped[T1] == direct[T2]
    assert flipped[T2] == direct[T1]
    assert flipped[EXACT] == direct[EXACT]
    assert flipped[T3] == direct[T3]
    assert flipped[T4] == direct[T4]
    assert flipped[T5] == direct[T5]


# ---------------------------------------------------------------------------
# corpus-level reports


def test_classify_corpus_counts_add_up(liver_report):
    assert liver_report.counts[T5] == 2
    assert liver_report.gold_total == 1
    assert liver_report.pred_total == 2
    assert liver_report.error_total() == 2


def test_classify_corpus_on_empty_corpus():
    report = classify_corpus(random_paired_corpus(random.Random(0), 0))
    assert report.records == []
    assert report.gold_total == 0 and report.pred_total == 0


def test_record_ids_are_ordinal_per_document():
    corpus = random_paired_corpus(random.Random(7), 5)
    report = classify_corpus(corpus)
    by_doc: dict[str, list[str]] = {}
    for r in report.records:
        by_doc.setdefault(r.doc_id, []).append(r.record_id)
    for doc_id, ids in by_doc.items():
        assert ids == [f"{doc_id}:{i}" for i in range(len(ids))]


def test_records_sorted_by_pred_then_gold_span():
    corpus = random_paired_corpus(random.Random(11), 3)
    report = classify_corpus(corpus)
    for doc_id in {r.doc_id for r in report.records}:
        rows = [r for r in report.records if r.doc_id == doc_id]

        def key(r: MatchRecord):
            big = 1 << 62
            p = r.pred.span if r.pred else (big, big)
            g = r.gold.span if r.gold else (big, big)
            return (*p, *g)

        assert rows == sorted(rows, key=key)


def _assert_record_order(doc_id, gold, pred, records):
    """The order contract: one record per prediction, in prediction order,
    then the Type-2 records in gold order; ids number that order."""
    head, tail = records[: len(pred)], records[len(pred) :]
    assert [r.pred for r in head] == list(pred)
    anchored = [r.gold for r in head if r.gold is not None]
    assert all(r.kind is T2 for r in tail)
    assert [r.gold for r in tail] == [g for g in gold if g not in anchored]
    assert [r.record_id for r in records] == [f"{doc_id}:{i}" for i in range(len(records))]
    for r in records:
        want = token_overlap(r.pred, r.gold) if r.pred and r.gold else 0
        assert r.overlap_tokens == want, r


@settings(max_examples=200, deadline=None)
@given(paired_documents())
def test_document_records_follow_the_order_contract(doc):
    records = classify_document(doc.gold_entities, doc.pred_entities)
    _assert_record_order("d", doc.gold_entities, doc.pred_entities, records)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_docs=st.integers(0, 6))
def test_corpus_records_follow_the_order_contract(seed, n_docs):
    corpus = random_paired_corpus(random.Random(seed), n_docs)
    records = classify_corpus(corpus).records
    start = 0
    for doc in sorted(corpus.documents, key=lambda d: d.doc_id):
        end = start
        while end < len(records) and records[end].doc_id == doc.doc_id:
            end += 1
        rows = records[start:end]
        _assert_record_order(doc.doc_id, doc.gold_entities, doc.pred_entities, rows)
        start = end
    assert start == len(records)


def test_report_documents_sorted_by_id():
    corpus = random_paired_corpus(random.Random(3), 4)
    shuffled = type(corpus)(documents=list(reversed(corpus.documents)))
    a = classify_corpus(corpus)
    b = classify_corpus(shuffled)
    assert [r.record_id for r in a.records] == [r.record_id for r in b.records]


def test_classify_corpus_checks_no_flatness_again(monkeypatch):
    # every Document is sorted and checked when built; the matcher's own
    # guard is for mentions passed to classify_document directly
    corpus = random_paired_corpus(random.Random(4), 4)
    want = classify_corpus(corpus).records

    def guard(*args):
        raise AssertionError("check_flat called on a Document's mentions")

    monkeypatch.setattr("entmatch.matcher.check_flat", guard)
    assert classify_corpus(corpus).records == want


def test_per_label_counts_use_gold_label_when_present():
    gold = mentions("d", [(0, 3, "A")])
    pred = mentions("d", [(2, 5, "B")])
    report = MatchReport.from_records(classify_document(gold, pred))
    assert report.per_label_counts["A"][T4] == 1
    assert T4 not in report.per_label_counts.get("B", {})


def test_per_label_counts_use_pred_label_for_false_positives():
    pred = mentions("d", [(0, 1, "B")])
    report = MatchReport.from_records(classify_document([], pred))
    assert report.per_label_counts["B"][T1] == 1


def test_error_types_exclude_exact():
    assert EXACT not in ERROR_TYPES
    assert len(ERROR_TYPES) == 5


# ---------------------------------------------------------------------------
# ledger round-trip


def test_ledger_round_trip(tmp_path):
    corpus = random_paired_corpus(random.Random(13), 6)
    report = classify_corpus(corpus)
    path = tmp_path / "records.ledger.jsonl"
    write_ledger(report, path)
    loaded = read_ledger(path)
    assert loaded.records == report.records
    assert loaded.counts == report.counts
    assert loaded.gold_total == report.gold_total
    assert loaded.pred_total == report.pred_total
    assert loaded.per_label_counts == report.per_label_counts


_TRICKY = '"\\/\x00\x1f\x7f\t\n\r\u2028\u2029\U0001F600\u00e9'
_LABELS = st.text(min_size=1).filter(lambda label: label != "O")


@st.composite
def _ledger_records(draw):
    records = []
    for i in range(draw(st.integers(0, 4))):
        doc_id = draw(st.text())
        kind = draw(st.sampled_from(list(MismatchType)))
        sides = []
        for present in _SIDES_BY_KIND[kind]:
            if not present:
                sides.append(None)
                continue
            start = draw(st.integers(0, 10**6))
            end = start + draw(st.integers(1, 10**6))
            label, text = draw(_LABELS), draw(st.text())
            sides.append(EntityMention(doc_id, start, end, label, text))
        pred, gold = sides
        overlap = draw(st.integers(0, 10**6))
        # ids only need to be unique; index them so arbitrary text stays legal
        record_id = f"{draw(st.text())}#{i}"
        records.append(MatchRecord(record_id, doc_id, kind, pred, gold, overlap))
    return records


def _reference_ledger(records) -> bytes:
    def side(m):
        if m is None:
            return None
        return {"span": [m.start, m.end], "label": m.label, "text": m.text}

    lines = [
        json.dumps(
            {
                "record_id": r.record_id,
                "doc_id": r.doc_id,
                "kind": r.kind.value,
                "pred": side(r.pred),
                "gold": side(r.gold),
                "overlap_tokens": r.overlap_tokens,
            },
            ensure_ascii=False,
        )
        + "\n"
        for r in records
    ]
    return "".join(lines).encode("utf-8")


@settings(max_examples=150, deadline=None)
@given(records=_ledger_records())
@example(records=[])
@example(
    records=[
        MatchRecord(
            _TRICKY,
            _TRICKY,
            MismatchType.TYPE5_RIGHT_LABEL_OVERLAP,
            EntityMention(_TRICKY, 0, 2, _TRICKY, _TRICKY),
            EntityMention(_TRICKY, 1, 3, "\\ud800", ""),
            1,
        )
    ]
)
def test_ledger_bytes_equal_json_dumps_per_record(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("ledger") / "ledger.jsonl"
    report = MatchReport.from_records(records)
    write_ledger(report, path)
    assert path.read_bytes() == _reference_ledger(records)
    assert read_ledger(path).records == records


def test_ledger_rejects_duplicate_record_ids(tmp_path, liver_report):
    path = tmp_path / "ledger.jsonl"
    write_ledger(liver_report, path)
    first = path.read_text().splitlines()[0]
    path.write_text(first + "\n" + first + "\n")
    with pytest.raises(Exception, match="duplicate record id"):
        read_ledger(path)


def test_ledger_rejects_wrong_mention_sides(tmp_path, liver_report):
    path = tmp_path / "ledger.jsonl"
    write_ledger(liver_report, path)
    first = path.read_text().splitlines()[0]
    # a boundary-error record with its gold side nulled out is inconsistent
    broken = first.replace('"gold": {', '"gold": null, "was": {', 1)
    path.write_text(broken + "\n")
    with pytest.raises(Exception, match="mention sides"):
        read_ledger(path)
