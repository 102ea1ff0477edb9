"""Every line a writer formats itself is ``json.dumps(obj, ensure_ascii=False)``.

The standoff, record-ledger, expected-ledger, decision and pair writers
build their lines with f-strings and ``encode_basestring``. Each is compared
byte for byte with ``json.dumps`` of the object the generic JSONL writer
was given before, over strings with quotes, backslashes, control
characters, U+2028 and non-ASCII text.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from entmatch.classifier import Decision, Verdict, write_decisions
from entmatch.clsdata import LabeledText, Origin, write_pairs
from entmatch.corpus import Corpus, Document, EntityMention, serialize_standoff
from entmatch.matcher import MatchRecord, MatchReport, MismatchType, write_ledger
from entmatch.perturb import write_expected_ledger

# no surrogates: no UTF-8 file can hold one, whichever writer formats it
_CHARS = st.sampled_from('"\\/\x00\x1f\x7f  é中\U0001f600 a') | st.characters(
    blacklist_categories=("Cs",)
)
TEXTS = st.text(_CHARS, min_size=1, max_size=6)
# a label is neither empty nor "O", and a token not whitespace only
LABELS = TEXTS.filter(lambda s: s.strip() not in ("", "O"))
TOKENS = TEXTS.filter(lambda s: not s.isspace())


def _lines(objects) -> bytes:
    return "".join(json.dumps(obj, ensure_ascii=False) + "\n" for obj in objects).encode()


@st.composite
def documents(draw) -> Document:
    doc_id = draw(TEXTS)
    tokens = tuple(draw(st.lists(TOKENS, min_size=1, max_size=6)))
    sides = []
    for _ in range(2):
        # flat spans: cut the tokens at sorted points, keep some pieces
        cuts = sorted(set(draw(st.lists(st.integers(0, len(tokens)), max_size=4))))
        pieces = [(a, b) for a, b in zip([0, *cuts], [*cuts, len(tokens)]) if a < b]
        sides.append([
            EntityMention(doc_id, a, b, draw(LABELS), " ".join(tokens[a:b]))
            for a, b in pieces
            if draw(st.booleans())
        ])
    starts = tuple(sorted({0, *draw(st.lists(st.integers(0, len(tokens) - 1), max_size=2))}))
    return Document(doc_id, tokens, starts, *sides)


@settings(max_examples=150, deadline=None)
@given(st.lists(documents(), max_size=3))
def test_standoff_lines_are_json_dumps(docs):
    expected = [
        {
            "doc_id": doc.doc_id,
            "tokens": list(doc.tokens),
            "sentence_starts": list(doc.sentence_starts),
            "entities": [
                {"start": m.start, "end": m.end, "label": m.label, "source": source}
                for source, side in (("gold", doc.gold_entities), ("predicted", doc.pred_entities))
                for m in side
            ],
        }
        for doc in docs
    ]
    assert serialize_standoff(Corpus(docs)).encode() == _lines(expected)


def _mention(draw, doc_id: str) -> EntityMention:
    start = draw(st.integers(0, 3))
    return EntityMention(doc_id, start, start + draw(st.integers(1, 3)), draw(LABELS), draw(TEXTS))


@st.composite
def records(draw) -> MatchRecord:
    doc_id = draw(TEXTS)
    kind = draw(st.sampled_from(MismatchType))
    pred = None if kind is MismatchType.TYPE2_FALSE_NEGATIVE else _mention(draw, doc_id)
    gold = None if kind is MismatchType.TYPE1_FALSE_POSITIVE else _mention(draw, doc_id)
    return MatchRecord(draw(TEXTS), doc_id, kind, pred, gold, draw(st.integers(0, 3)))


@settings(max_examples=150, deadline=None)
@given(st.lists(records(), max_size=5))
def test_ledger_and_expected_ledger_lines_are_json_dumps(tmp_path_factory, recs):
    report = MatchReport.from_records(recs)
    tmp = tmp_path_factory.mktemp("ledgers")

    def side(m, text):
        if m is None:
            return None
        return {"span": [m.start, m.end], "label": m.label, **({"text": m.text} if text else {})}

    write_expected_ledger(report, tmp / "expected.jsonl")
    assert (tmp / "expected.jsonl").read_bytes() == _lines(
        {"doc_id": r.doc_id, "kind": r.kind.value, "pred": side(r.pred, False),
         "gold": side(r.gold, False)}
        for r in recs
    )
    write_ledger(report, tmp / "ledger.jsonl")
    assert (tmp / "ledger.jsonl").read_bytes() == _lines(
        {"record_id": r.record_id, "doc_id": r.doc_id, "kind": r.kind.value,
         "pred": side(r.pred, True), "gold": side(r.gold, True),
         "overlap_tokens": r.overlap_tokens}
        for r in recs
    )


CONFIDENCES = st.sampled_from((None, 1.0, 0.0, 1e-07, 0.1, 0.5, 1 / 3)) | st.floats(0.0, 1.0)


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(
        TEXTS,
        st.tuples(st.sampled_from(Verdict), st.none() | TEXTS, CONFIDENCES),
        max_size=5,
    )
)
def test_decision_lines_are_json_dumps(tmp_path_factory, drawn):
    decisions = {rid: Decision(rid, *fields) for rid, fields in drawn.items()}
    path = tmp_path_factory.mktemp("decisions") / "decisions.jsonl"
    write_decisions(decisions, path)
    assert path.read_bytes() == _lines(
        {"record_id": d.record_id, "verdict": d.verdict.value,
         "predicted_label": d.predicted_label, "confidence": d.confidence}
        for _, d in sorted(decisions.items())
    )


@pytest.mark.parametrize("confidence", [math.nan, math.inf, -math.inf])
def test_non_finite_confidence_leaves_the_decision_file_as_it_was(tmp_path, confidence):
    path = tmp_path / "decisions.jsonl"
    path.write_text("kept\n")
    decisions = {
        "a": Decision("a", Verdict.ACCEPT, "X", 0.5),
        "b": Decision("b", Verdict.REJECT, "Y", confidence),
    }
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        write_decisions(decisions, path)
    assert path.read_text() == "kept\n"


@settings(max_examples=150, deadline=None)
@given(st.lists(st.builds(LabeledText, TEXTS, TEXTS, st.sampled_from(Origin)), max_size=5))
def test_pair_lines_are_json_dumps(tmp_path_factory, pairs):
    path = tmp_path_factory.mktemp("pairs") / "pairs.jsonl"
    write_pairs(pairs, path)
    assert path.read_bytes() == _lines(
        {"text": p.text, "label": p.label, "origin": p.origin.value} for p in pairs
    )
