from __future__ import annotations

import json
import logging
import random

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from entmatch.corpus import (
    AlignmentError,
    Corpus,
    Document,
    EntityMention,
    ParseError,
    Source,
    TagScheme,
    build_document,
    pair_corpora,
    parse_iob,
    parse_standoff,
    serialize_standoff,
    write_jsonl,
)
from oracle import (
    iob2_tags,
    mentions,
    oracle_parse_iob,
    oracle_parse_standoff,
    random_paired_corpus,
)


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
    assert corpus.documents == []


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


_SCHEME_LINES = st.sampled_from(("x\tO", "x\tB-A", "x\tI-A", "x\tB-B", "x\tI-B", ""))


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(lines=st.lists(_SCHEME_LINES, max_size=20))
def test_iob_schemes_decode_the_same_spans_and_only_iob2_logs_repairs(caplog, lines):
    # an I- tag is an orphan where it continues no open entity of its label
    orphans, open_label = 0, None
    for line in lines:
        tag = line.partition("\t")[2]
        label = tag[2:] or None
        orphans += tag.startswith("I-") and label != open_label
        open_label = label
    content = "\n".join(lines)
    read = {}
    for scheme in TagScheme:
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="entmatch.corpus"):
            corpus = parse_iob(content, scheme)
        read[scheme] = corpus, [r.getMessage() for r in caplog.records]
    (iob1, iob1_warnings), (iob2, iob2_warnings) = read[TagScheme.IOB1], read[TagScheme.IOB2]
    assert iob1 == iob2
    assert serialize_standoff(iob1) == serialize_standoff(iob2)
    assert iob1_warnings == []
    assert len(iob2_warnings) == orphans
    assert all("orphan tag I-" in message for message in iob2_warnings)


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


# Unicode whitespace that str.strip removes, at either end of either part,
# keeps a line off parse_iob's plain-line path
_IOB_EDGE_SPACE = ("\u00a0", "\u2003", "\x85")
_IOB_TOKEN_LINES = st.builds(
    "{}{}{}{}{}{}".format,
    st.sampled_from(("", " ", *_IOB_EDGE_SPACE)),
    st.sampled_from(("x", "y", "New", "-DOC", "a b")),
    st.sampled_from(("", "", "", *_IOB_EDGE_SPACE)),
    st.sampled_from(("\t", "\t", " ", "  ", " \t", "\t" + _IOB_EDGE_SPACE[1])),
    st.sampled_from(("O", "B-A", "I-A", "B-B", "I-B", "B- A")),
    st.sampled_from(("", "", "\r", " ", "\t", *_IOB_EDGE_SPACE)),
)
# explicit ids "doc0" and "doc1" can repeat the default ids of id-less documents
_IOB_LAYOUT_LINES = st.sampled_from(
    (
        "", " ", "\t", "\r", "x\tI-C D", "y\tB-C D\r", "-DOCSTART-", "-DOCSTART-O",
        "-DOCSTART- d1", "-DOCSTART-\td1\r", " -DOCSTART- doc0", "-DOCSTART- doc1",
        "-DOCSTART-x\tO", "-DOCSTART-\tB-A", "\u2003", "\x85",
    )
)
_IOB_MALFORMED_LINES = st.sampled_from(
    (
        "lonely", "a b c", "\tB-A", "x\t\tO", "x I-C D", "x B-A\tO", "x B-O",
        "x I-O", "x B-", "x\tI- ", "x X-A", "x b-A", "x BA", "x\tB-A\t",
        "x\tB-O", "\u00a0\tO",
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
# a malformed tag after valid ones that the plain-line path has decoded
@example(["x\tB-A", "y\tI-A", "x\tB-A", "z\tB-", "z\tB-"], TagScheme.IOB2, Source.GOLD)
@example(["-DOCSTART-x\tO", "x\u00a0\tB-A", "y\tI-A\u2003"], TagScheme.IOB2, Source.GOLD)
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


@pytest.mark.parametrize("source", ["Gold", "GOLD", "Predicted", " gold"])
def test_standoff_source_is_matched_exactly(source):
    line = (
        '{"doc_id": "d", "tokens": ["a"], "entities": '
        f'[{{"start": 0, "end": 1, "label": "X", "source": "{source}"}}]}}'
    )
    with pytest.raises(ParseError, match=f"invalid entity source '{source}'"):
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


# values that make a standoff line malformed, by the field they replace;
# "start" to "source" replace a field of one entity, and a line may instead
# repeat one of its entities, so that two spans of one side overlap
_STANDOFF_DEFECTS = {
    "doc_id": ("", 3, None),
    "tokens": (
        None, "a b", {"a": 1}, ["a", 1], ["a", 1.0], ["a", True], ["a", None],
        ["a", ["b"]], ["a", ""], [""], ["a", " "], ["a", "\t"], ["\u3000"],
    ),
    "sentence_starts": (
        [], [1], [0, 0], [2, 0], [0, -1], [0, 99], [0, True], [False], [0, 1.0],
        [0.0], "0", None, {"0": 0},
    ),
    "entities": (None, {}, "e", [[]], ["x"], [None], [{"start": 0, "end": 9}]),
    "start": (True, False, 1.0, 2.5, None, "1", -1, 99),
    "end": (True, False, 1.0, None, "1", 0, 99),
    "label": ("O", " O ", "", " ", 3, None, ["A"]),
    "source": ("Gold", "pred", "", None, 1, [], {}, ["gold"], {"gold": 1}),
}


@st.composite
def _standoff_lines(draw):
    """A valid standoff line, or now and then one with a single defect:
    a field that is missing or holds one of ``_STANDOFF_DEFECTS``."""
    n = draw(st.integers(0, 8))
    tokens = draw(st.lists(st.sampled_from(("a", "b", "O", "x y", "é")), min_size=n, max_size=n))
    entities = []
    for source in ("gold", "predicted"):
        pos = 0  # flat on each side, but one side may overlap the other
        while pos < n and draw(st.sampled_from((True, True, False))):
            start = draw(st.integers(pos, n - 1))
            end = draw(st.integers(start + 1, min(n, start + 3)))
            label = draw(st.sampled_from(("A", "B", " A ")))
            entities.append({"start": start, "end": end, "label": label, "source": source})
            pos = end
    obj = {
        "doc_id": f"d{draw(st.integers(0, 20))}",
        "tokens": tokens,
        "entities": draw(st.permutations(entities)),
    }
    if draw(st.booleans()):
        obj["sentence_starts"] = sorted({0, *draw(st.sets(st.integers(1, max(1, n - 1))))})
    # about one line in three has a defect
    field = draw(st.sampled_from([None] * 18 + [*_STANDOFF_DEFECTS, "overlap"]))
    if field == "overlap":
        if entities:  # a second copy of one entity overlaps it on its side
            obj["entities"].append(dict(draw(st.sampled_from(entities))))
    elif field is not None:
        target = obj
        if field in ("start", "end", "label", "source"):
            if not entities:
                return json.dumps(obj)
            target = draw(st.sampled_from(entities))
        if draw(st.integers(0, 4)) == 0:
            target.pop(field, None)
        else:
            target[field] = draw(st.sampled_from(_STANDOFF_DEFECTS[field]))
    return json.dumps(obj)


def _edited_line(**edits) -> str:
    """A valid standoff line with fields replaced: ``start``, ``end``,
    ``label`` and ``source`` in its entity, the rest in the document."""
    entity = {"start": 0, "end": 2, "label": "A", "source": "gold"}
    obj = {"doc_id": "d", "tokens": ["a", "b", "c"], "entities": [entity]}
    for field, value in edits.items():
        (entity if field in entity else obj)[field] = value
    return json.dumps(obj)


@settings(max_examples=400, deadline=None)
@example(lines=[_edited_line()])
@example(lines=[_edited_line(), _edited_line(tokens="a b c")])
@example(lines=[_edited_line(tokens=["a", 1, "c"])])
@example(lines=[_edited_line(tokens=["a", "", "c"])])
@example(lines=[_edited_line(tokens=["a", " ", "c"])])
@example(lines=[_edited_line(start=False)])
@example(lines=[_edited_line(end=True, start=0)])
@example(lines=[_edited_line(end=2.0)])
@example(lines=[_edited_line(source="pred")])
@example(lines=[_edited_line(source=[])])
@example(lines=[_edited_line(source={"gold": 1})])
@example(lines=[_edited_line(sentence_starts=[0, True])])
@example(lines=[_edited_line(sentence_starts=[0.0])])
@example(lines=[_edited_line(sentence_starts=[1])])
@given(
    lines=st.lists(
        st.one_of(*[_standoff_lines()] * 5, st.sampled_from(("", " "))), max_size=4
    )
)
def test_standoff_reader_matches_the_per_item_oracle(lines):
    content = "\n".join(lines)

    def read(reader):
        """The corpus of one reader, or its ParseError text."""
        try:
            return reader(content)
        except ParseError as exc:
            return str(exc)

    assert read(parse_standoff) == read(oracle_parse_standoff)


# ---------------------------------------------------------------------------
# pairing


def test_pair_corpora_merges_sides():
    gold = parse_iob("x B-A\ny O\n")
    pred = parse_iob("x O\ny B-A\n", source=Source.PREDICTED)
    merged = pair_corpora(gold, pred)
    assert _spans(merged) == [(0, 1, "A")]
    assert _spans(merged, source=Source.PREDICTED) == [(1, 2, "A")]


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


def test_build_document_rejects_a_span_outside_the_document():
    with pytest.raises(ParseError, match=r"span \[1, 3\) outside document 'd' bounds \[0, 2\)"):
        build_document("d", [["a", "b"]], gold=[(1, 3, "X")])


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
    # a whitespace-only token is empty too, as an IOB reader would read it
    for token in ("", " ", "\t\n", "\u3000"):
        with pytest.raises(ValueError, match="non-empty"):
            build_document("d", [["a", token]])


@pytest.mark.parametrize("token", [" ", "\t\n", "\u3000"], ids=["space", "tab", "ideographic"])
def test_standoff_whitespace_only_token_rejected(token):
    # an IOB token cannot be whitespace only, and a mention over such a
    # standoff token would have no text to classify
    line = {"doc_id": "d", "tokens": ["a", token], "entities": []}
    with pytest.raises(ParseError, match="line 1: 'tokens' must be a list of non-empty"):
        parse_standoff(json.dumps(line) + "\n")


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
    try:
        want = "".join(
            json.dumps(obj, ensure_ascii=False, allow_nan=False) + "\n" for obj in objects
        )
    except ValueError:  # NaN or an infinity, which JSON does not allow
        with pytest.raises(ValueError):
            write_jsonl(iter(objects), path)
        return
    write_jsonl(iter(objects), path)
    assert path.read_bytes() == want.encode("utf-8")
