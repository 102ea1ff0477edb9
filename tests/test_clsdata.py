from __future__ import annotations

import logging
import random
import string

import pytest
from hypothesis import given, settings, strategies as st

from entmatch.clsdata import (
    OTHER_LABEL,
    BuilderConfig,
    LabeledText,
    Origin,
    _is_punctuation,
    build_training_set,
    extract_pairs,
    harvest_chunks,
    ingest_external_chunks,
    other_cap,
    read_pairs,
    sample_other,
    write_pairs,
)
from entmatch.corpus import Corpus, build_document
from oracle import oracle_is_punctuation, random_paired_corpus


def _corpus(*docs):
    return Corpus.from_documents(list(docs))


def _doc(doc_id, sentences, gold=()):
    return build_document(doc_id, sentences, gold=list(gold))


# ---------------------------------------------------------------------------
# gold pairs


def test_extract_pairs_keeps_duplicates():
    corpus = _corpus(
        _doc("a", [["cough", "x", "cough"]], [(0, 1, "problem"), (2, 3, "problem")])
    )
    pairs = extract_pairs(corpus)
    assert [(p.text, p.label) for p in pairs] == [
        ("cough", "problem"),
        ("cough", "problem"),
    ]
    assert all(p.origin is Origin.GOLD_ENTITY for p in pairs)


def test_extract_pairs_uses_surface_text():
    corpus = _corpus(_doc("a", [["right", "lobe", "cyst"]], [(0, 3, "finding")]))
    (pair,) = extract_pairs(corpus)
    assert pair.text == "right lobe cyst"


# ---------------------------------------------------------------------------
# chunk harvesting


def test_chunker_splits_on_stopwords():
    config = BuilderConfig(stopwords=frozenset({"the", "was"}))
    corpus = _corpus(_doc("a", [["the", "patient", "was", "stable", "."]]))
    assert harvest_chunks(corpus, config) == ["patient", "stable"]


def test_chunker_excludes_gold_tokens():
    config = BuilderConfig(stopwords=frozenset())
    corpus = _corpus(
        _doc("a", [["fever", "spiked", "overnight"]], [(0, 1, "problem")])
    )
    assert harvest_chunks(corpus, config) == ["spiked overnight"]


def test_chunker_splits_at_sentence_boundaries():
    config = BuilderConfig(stopwords=frozenset())
    corpus = _corpus(_doc("a", [["alpha", "beta"], ["gamma"]]))
    assert harvest_chunks(corpus, config) == ["alpha beta", "gamma"]


def test_chunker_splits_at_punctuation():
    config = BuilderConfig(stopwords=frozenset())
    corpus = _corpus(_doc("a", [["alpha", ",", "beta"]]))
    assert harvest_chunks(corpus, config) == ["alpha", "beta"]


@given(
    st.text(
        st.sampled_from(string.punctuation)
        | st.sampled_from(string.ascii_letters + string.digits + string.whitespace)
        | st.characters(min_codepoint=0x80),
        max_size=8,
    )
)
def test_punctuation_test_matches_the_per_character_oracle(text):
    assert _is_punctuation(text) is oracle_is_punctuation(text)


def test_chunker_trims_edge_digit_tokens():
    config = BuilderConfig(stopwords=frozenset())
    corpus = _corpus(_doc("a", [["12", "lead", "ecg", "3"]]))
    assert harvest_chunks(corpus, config) == ["lead ecg"]


def test_chunker_keeps_interior_digits():
    config = BuilderConfig(stopwords=frozenset())
    corpus = _corpus(_doc("a", [["type", "2", "diabetes"]]))
    assert harvest_chunks(corpus, config) == ["type 2 diabetes"]


def test_chunker_drops_runs_longer_than_cap():
    config = BuilderConfig(stopwords=frozenset(), max_chunk_tokens=2)
    corpus = _corpus(_doc("a", [["a1", "b2x", "c3x", "d4x"]]))
    assert harvest_chunks(corpus, config) == []


def test_chunker_drops_runs_emptied_by_trimming():
    config = BuilderConfig(stopwords=frozenset())
    corpus = _corpus(_doc("a", [["1", "2", "3"]]))
    assert harvest_chunks(corpus, config) == []


# ---------------------------------------------------------------------------
# "other" budget and sampling


def test_other_cap_is_floored_mean():
    pairs = [
        LabeledText("a", "X", Origin.GOLD_ENTITY),
        LabeledText("b", "X", Origin.GOLD_ENTITY),
        LabeledText("c", "X", Origin.GOLD_ENTITY),
        LabeledText("d", "Y", Origin.GOLD_ENTITY),
    ]
    assert other_cap(pairs) == 2  # (3 + 1) / 2 tags


def test_other_cap_requires_pairs():
    with pytest.raises(ValueError):
        other_cap([])


def test_sample_other_is_seeded_and_capped():
    pairs = [LabeledText(t, "X", Origin.GOLD_ENTITY) for t in "abc"]
    candidates = [f"chunk{i}" for i in range(10)]
    a = sample_other(candidates, pairs, BuilderConfig(seed=5))
    b = sample_other(candidates, pairs, BuilderConfig(seed=5))
    c = sample_other(candidates, pairs, BuilderConfig(seed=6))
    assert a == b
    assert len(a) == other_cap(pairs) == 3
    assert a != c
    assert all(p.label == OTHER_LABEL for p in a)
    assert all(p.origin is Origin.SAMPLED_CHUNK for p in a)


def test_sample_other_warns_when_underfull(caplog):
    pairs = [LabeledText(t, "X", Origin.GOLD_ENTITY) for t in "abcdef"]
    with caplog.at_level(logging.WARNING, logger="entmatch.clsdata"):
        sampled = sample_other(["only"], pairs)
    assert [p.text for p in sampled] == ["only"]
    assert any("taking all" in r.message for r in caplog.records)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_built_sets_respect_the_other_cap(seed):
    corpus = random_paired_corpus(random.Random(seed), 4)
    if not any(d.gold_entities for d in corpus.documents):
        return
    training = build_training_set(corpus, BuilderConfig(seed=seed % 100))
    labelled = [p for p in training if p.label != OTHER_LABEL]
    others = [p for p in training if p.label == OTHER_LABEL]
    assert len(others) <= other_cap(labelled)


def test_build_training_set_requires_gold_entities():
    corpus = _corpus(_doc("a", [["no", "entities", "here"]]))
    with pytest.raises(ValueError, match="no gold entities"):
        build_training_set(corpus)


def test_external_chunks_extend_the_pool():
    corpus = _corpus(
        _doc("a", [["x1", "x2", "x3"]], [(0, 1, "A"), (1, 2, "A"), (2, 3, "A")])
    )
    # no harvestable chunks remain, so the external pool is the only source
    training = build_training_set(
        corpus, BuilderConfig(seed=0), external_chunks=["ext one", "ext two"]
    )
    others = [p for p in training if p.label == OTHER_LABEL]
    assert 1 <= len(others) <= 2
    assert all(p.text.startswith("ext") for p in others)


def test_ingest_external_chunks_skips_blanks(tmp_path):
    path = tmp_path / "chunks.txt"
    path.write_text("alpha beta\n\n  \ngamma\n")
    assert ingest_external_chunks(path) == ["alpha beta", "gamma"]


# ---------------------------------------------------------------------------
# serialization


def test_pairs_round_trip(tmp_path):
    pairs = [
        LabeledText("cough syrup", "treatment", Origin.GOLD_ENTITY),
        LabeledText("stable", OTHER_LABEL, Origin.SAMPLED_CHUNK),
    ]
    path = tmp_path / "pairs.jsonl"
    write_pairs(pairs, path)
    assert read_pairs(path) == pairs
