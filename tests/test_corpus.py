from __future__ import annotations

import json
import logging
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from entmatch.corpus import (
    AlignmentError,
    Corpus,
    Document,
    EntityMention,
    ParseError,
    Source,
    TagScheme,
    build_document,
    iob2_tags,
    pair_corpora,
    parse_iob,
    parse_standoff,
    serialize_standoff,
    write_jsonl,
)
from oracle import mentions, oracle_parse_iob, random_paired_corpus


def _spans(corpus, doc=0, source=Source.GOLD):
    d = corpus.documents[doc]
    ms = d.gold_entities if source is Source.GOLD else d.pred_entities
    return [(m.start, m.end, m.label) for m in ms]


# ---------------------------------------------------------------------------
# IOB parsing


def test_iob_two_token_entity():
    corpus = parse_iob("cough\tB-problem\nsyrup\tI-problem\n")
    assert len(corpus.documents) == 1
    assert corpus.documents[0].doc_id == "doc0"
    assert _spans(corpus) == [(0, 2, "problem")]
    assert corpus.documents[0].gold_entities[0].text == "cough syrup"


def test_iob_blank_line_separates_sentences():
    corpus = parse_iob("cough B-problem\n\nx O\n")
    doc = corpus.documents[0]
    assert doc.sentence_starts == (0, 1)
    assert _spans(corpus) == [(0, 1, "problem")]


def test_iob_space_and_tab_separators_mix():
    corpus = parse_iob("a O\nNew York\tB-loc\n")
    doc = corpus.documents[0]
    assert doc.tokens == ("a", "New York")
    assert _spans(corpus) == [(1, 2, "loc")]


def test_iob_docstart_assigns_ids():
    content = "-DOCSTART- rec-7\nx B-A\n\n-DOCSTART-\ny O\n"
    corpus = parse_iob(content)
    assert [d.doc_id for d in corpus.documents] == ["rec-7", "doc1"]


def test_iob_duplicate_doc_id_rejected():
    content = "-DOCSTART- a\nx O\n-DOCSTART- a\ny O\n"
    with pytest.raises(ParseError, match="duplicate document id"):
        parse_iob(content)


def test_iob_wrong_column_count_reports_line():
    with pytest.raises(ParseError, match="line 2"):
        parse_iob("x O\nbroken\n")


def test_iob_malformed_tag_rejected():
    for bad in ("B_problem", "b-problem", "I-", "Q-problem"):
        with pytest.raises(ParseError, match="malformed tag"):
            parse_iob(f"x {bad}\n")


def test_iob_empty_content_gives_empty_corpus():
    corpus = parse_iob("")
    assert corpus.documents == [] and corpus.label_set == ()


def test_iob_non_utf8_rejected():
    with pytest.raises(ParseError, match="UTF-8"):
        parse_iob(b"\xff\xfe broken")


def test_iob2_orphan_i_repaired_with_warning(caplog):
    with caplog.at_level(logging.WARNING, logger="entmatch.corpus"):
        corpus = parse_iob("x I-problem\ny O\n")
    assert _spans(corpus) == [(0, 1, "problem")]
    assert any("orphan" in r.message for r in caplog.records)


def test_iob2_label_change_inside_entity_starts_new_one():
    corpus = parse_iob("x B-A\ny I-B\n")
    assert _spans(corpus) == [(0, 1, "A"), (1, 2, "B")]


def test_iob1_i_opens_entities_without_warning(caplog):
    with caplog.at_level(logging.WARNING, logger="entmatch.corpus"):
        corpus = parse_iob(
            "x I-A\ny I-A\nz B-A\nw O\n", scheme=TagScheme.IOB1
        )
    assert _spans(corpus) == [(0, 2, "A"), (2, 3, "A")]
    assert not caplog.records


def test_entity_state_resets_at_sentence_boundary():
    corpus = parse_iob("x B-A\n\ny I-A\n")
    assert _spans(corpus) == [(0, 1, "A"), (1, 2, "A")]


@st.composite
def wellformed_tag_sequences(draw):
    labels = ("A", "B", "longname")
    tags: list[str] = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            tags.append("O")
        else:
            label = draw(st.sampled_from(labels))
            tags.append(f"B-{label}")
            tags.extend(f"I-{label}" for _ in range(draw(st.integers(0, 2))))
    return tags


@given(wellformed_tag_sequences())
def test_iob2_decode_then_encode_round_trips(tags):
    content = "".join(f"t{i} {tag}\n" for i, tag in enumerate(tags))
    corpus = parse_iob(content)
    if not tags:
        assert corpus.documents == []
        return
    assert iob2_tags(corpus.documents[0], Source.GOLD) == tags


_IOB_TOKEN_LINES = st.builds(
    "{}{}{}{}{}".format,
    st.sampled_from(("", " ")),
    st.sampled_from(("x", "y", "New", "-DOC")),
    st.sampled_from(("\t", " ", "  ", " \t")),
    st.sampled_from(("O", "B-A", "I-A", "B-B", "I-B")),
    st.sampled_from(("", "\r", " ")),
)
# explicit ids "doc0" and "doc1" can repeat the default ids of id-less documents
_IOB_LAYOUT_LINES = st.sampled_from(
    (
        "", " ", "\t", "\r", "x\tI-C D", "y\tB-C D\r", "-DOCSTART-", "-DOCSTART-O",
        "-DOCSTART- d1", "-DOCSTART-\td1\r", " -DOCSTART- doc0", "-DOCSTART- doc1",
    )
)
_IOB_MALFORMED_LINES = st.sampled_from(
    (
        "lonely", "a b c", "\tB-A", "x\t\tO", "x I-C D", "x B-A\tO", "x B-O",
        "x I-O", "x B-", "x\tI- ", "x X-A", "x b-A", "x BA",
    )
)
# token, layout and malformed lines in the ratio 7 : 2 : 1
_IOB_LINES = st.sampled_from(
    [_IOB_TOKEN_LINES] * 7 + [_IOB_LAYOUT_LINES] * 2 + [_IOB_MALFORMED_LINES]
).flatmap(lambda lines: lines)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    lines=st.lists(_IOB_LINES, max_size=25),
    scheme=st.sampled_from(TagScheme),
    source=st.sampled_from(Source),
)
def test_iob_reader_matches_the_two_pass_oracle(caplog, lines, scheme, source):
    content = "\n".join(lines)

    def read(reader):
        """The corpus and warnings of one reader, or its ParseError text."""
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            try:
                corpus = reader(content, scheme, source)
            except ParseError as exc:
                return str(exc), None
        return corpus, [r.getMessage() for r in caplog.records]

    assert read(parse_iob) == read(oracle_parse_iob)


# ---------------------------------------------------------------------------
# standoff parsing


def test_standoff_minimal_document():
    line = (
        '{"doc_id": "d", "tokens": ["a", "b"], "entities": '
        '[{"start": 0, "end": 1, "label": "X", "source": "gold"},'
        ' {"start": 0, "end": 2, "label": "X", "source": "predicted"}]}'
    )
    corpus = parse_standoff(line)
    assert _spans(corpus) == [(0, 1, "X")]
    assert _spans(corpus, source=Source.PREDICTED) == [(0, 2, "X")]


def test_standoff_invalid_json_reports_line():
    with pytest.raises(ParseError, match="line 2"):
        parse_standoff('{"doc_id": "d", "tokens": ["a"], "entities": []}\n{oops\n')


def test_standoff_empty_span_rejected():
    line = (
        '{"doc_id": "d", "tokens": ["a"], "entities": '
        '[{"start": 1, "end": 1, "label": "X", "source": "gold"}]}'
    )
    with pytest.raises(ParseError, match="empty or inverted span"):
        parse_standoff(line)


def test_standoff_out_of_bounds_span_rejected():
    line = (
        '{"doc_id": "d", "tokens": ["a"], "entities": '
        '[{"start": 0, "end": 2, "label": "X", "source": "gold"}]}'
    )
    with pytest.raises(ParseError, match="outside document bounds"):
        parse_standoff(line)


def test_standoff_same_source_overlap_names_both_spans():
    line = (
        '{"doc_id": "d", "tokens": ["a", "b", "c"], "entities": '
        '[{"start": 0, "end": 2, "label": "X", "source": "gold"},'
        ' {"start": 1, "end": 3, "label": "Y", "source": "gold"}]}'
    )
    with pytest.raises(ParseError, match=r"\[0,2\).*\[1,3\)"):
        parse_standoff(line)


def test_standoff_cross_source_overlap_allowed():
    line = (
        '{"doc_id": "d", "tokens": ["a", "b"], "entities": '
        '[{"start": 0, "end": 2, "label": "X", "source": "gold"},'
        ' {"start": 1, "end": 2, "label": "X", "source": "predicted"}]}'
    )
    corpus = parse_standoff(line)
    assert corpus.documents[0].gold_entities and corpus.documents[0].pred_entities


def test_standoff_unknown_source_rejected():
    line = (
        '{"doc_id": "d", "tokens": ["a"], "entities": '
        '[{"start": 0, "end": 1, "label": "X", "source": "system"}]}'
    )
    with pytest.raises(ParseError, match="invalid entity source"):
        parse_standoff(line)


def test_standoff_round_trip_preserves_iob_parse():
    content = (
        "-DOCSTART- r1\nab B-A\ncd I-A\n\nef O\ngh B-B\n"
        "-DOCSTART- r2\nxy O\n"
    )
    original = parse_iob(content)
    assert parse_standoff(serialize_standoff(original)) == original


def test_standoff_round_trip_through_file_is_stable(liver_corpus):
    text = serialize_standoff(liver_corpus)
    assert serialize_standoff(parse_standoff(text)) == text


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_docs=st.integers(0, 4))
def test_standoff_round_trip_keeps_both_sides(seed, n_docs):
    # each entity's "source" is the side it is listed on
    corpus = random_paired_corpus(random.Random(seed), n_docs)
    assert parse_standoff(serialize_standoff(corpus)) == corpus


# ---------------------------------------------------------------------------
# pairing


def test_pair_corpora_merges_sides():
    gold = parse_iob("x B-A\ny O\n")
    pred = parse_iob("x O\ny B-A\n", source=Source.PREDICTED)
    merged = pair_corpora(gold, pred)
    assert _spans(merged) == [(0, 1, "A")]
    assert _spans(merged, source=Source.PREDICTED) == [(1, 2, "A")]
    assert merged.label_set == ("A",)


def test_pair_corpora_resources_mentions_by_side():
    # a prediction file parsed with the default (gold) source still pairs
    gold = parse_iob("x B-A\n")
    pred = parse_iob("x B-B\n")
    merged = pair_corpora(gold, pred)
    assert merged.documents[0].pred_entities[0].label == "B"


@pytest.mark.parametrize("pred_source", list(Source), ids=lambda s: s.value)
def test_pair_corpora_reuses_the_parsed_mentions(pred_source):
    # a mention's side is the list that holds it, so pairing moves mentions
    # between lists and builds none
    gold = parse_standoff(
        '{"doc_id": "d", "tokens": ["a", "b", "c"], "entities": ['
        '{"start": 0, "end": 1, "label": "X", "source": "gold"},'
        '{"start": 1, "end": 3, "label": "Y", "source": "predicted"}]}'
    )
    pred = parse_iob("-DOCSTART- d\na B-X\nb O\nc B-Z\n", source=pred_source)
    merged = pair_corpora(gold, pred).documents[0]
    for side, parsed in ((merged.gold_entities, gold), (merged.pred_entities, pred)):
        doc = parsed.documents[0]
        assert sorted(map(id, side)) == sorted(
            map(id, doc.gold_entities + doc.pred_entities)
        )


def test_pair_corpora_missing_document_listed():
    gold = parse_iob("-DOCSTART- a\nx O\n-DOCSTART- b\ny O\n")
    pred = parse_iob("-DOCSTART- a\nx O\n")
    with pytest.raises(AlignmentError, match="only in gold: b"):
        pair_corpora(gold, pred)


def test_pair_corpora_token_mismatch_is_case_sensitive():
    gold = parse_iob("Liver O\n")
    pred = parse_iob("liver O\n")
    with pytest.raises(AlignmentError, match="token mismatch at index 0"):
        pair_corpora(gold, pred)


def test_pair_corpora_token_count_mismatch():
    gold = parse_iob("x O\ny O\n")
    pred = parse_iob("x O\n")
    with pytest.raises(AlignmentError, match="token count differs"):
        pair_corpora(gold, pred)


# ---------------------------------------------------------------------------
# document building


def test_build_document_rejects_overlapping_same_source_spans():
    with pytest.raises(ParseError, match="overlapping gold spans"):
        build_document("d", [["a", "b", "c"]], gold=[(0, 2, "A"), (1, 3, "B")])


def test_document_sorts_each_side_and_rejects_overlap():
    late, early = mentions("d", [(2, 3, "A"), (0, 1, "A")])
    doc = Document("d", ("a", "b", "c"), (0,), [late, early], [])
    assert doc.gold_entities == [early, late]
    overlapping = mentions("d", [(0, 2, "A"), (1, 3, "B")])
    with pytest.raises(ParseError, match="overlapping predicted spans"):
        Document("d", ("a", "b", "c"), (0,), [], overlapping)


def test_build_document_skips_empty_sentences_in_sentence_starts():
    doc = build_document("d", [["a"], [], ["b", "c"], []], gold=[(1, 3, "X")])
    assert doc.sentence_starts == (0, 1)
    assert '"sentence_starts": [0, 1]' in serialize_standoff(Corpus.from_documents([doc]))


def test_build_document_rejects_empty_token_text():
    with pytest.raises(ValueError, match="non-empty"):
        build_document("d", [["a", ""]])


def test_mention_text_is_space_joined_surface():
    doc = build_document("d", [["alpha", "beta", "gamma"]], gold=[(0, 2, "X")])
    assert doc.gold_entities[0].text == "alpha beta"


def test_duplicate_doc_ids_rejected_in_corpus():
    docs = [build_document("d", [["a"]]), build_document("d", [["b"]])]
    with pytest.raises(ParseError, match="duplicate document id"):
        Corpus.from_documents(docs)


@pytest.mark.parametrize(
    "start, end, label",
    [(-1, 2, "A"), (2, 2, "A"), (3, 2, "A"), (0, 1, ""), (0, 1, "O")],
)
def test_entity_mention_rejects_bad_span_or_label(start, end, label):
    with pytest.raises(ValueError, match="invalid"):
        EntityMention("d", start, end, label, "w")


def test_entity_mention_is_unhashable():
    # mentions are mutable, so nothing may key a set or dict on one
    with pytest.raises(TypeError, match="unhashable"):
        hash(EntityMention("d", 0, 1, "A", "w"))


# JSON values as the writers meet them; a lone surrogate cannot be written as UTF-8
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=10,
)


@settings(max_examples=60, deadline=None)
@given(objects=st.lists(st.dictionaries(_TEXT, _JSON, max_size=4), max_size=5))
def test_write_jsonl_writes_json_dumps_lines(tmp_path_factory, objects):
    path = tmp_path_factory.mktemp("jsonl") / "out.jsonl"
    write_jsonl(iter(objects), path)
    want = "".join(json.dumps(obj, ensure_ascii=False) + "\n" for obj in objects)
    assert path.read_bytes() == want.encode("utf-8")
