from __future__ import annotations

import hashlib
import json
import os
import random
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from entmatch.classifier import (
    _BATCH_TEXTS,
    _BLOCK_ROWS,
    _HEAD_BYTES,
    _MAGIC,
    ClassifierModel,
    _features,
    _hash64,
    Decision,
    TrainConfig,
    Verdict,
    decide_type5,
    load_external_decisions,
    predict,
    read_decisions,
    train,
    write_classifier_requests,
    write_decisions,
)
from entmatch.clsdata import LabeledText, Origin
from entmatch.corpus import EntityMention, ParseError
from entmatch.matcher import MatchRecord, MatchReport, MismatchType
from entmatch.metrics import UncoveredRecordsError
from oracle import oracle_decide_type5, oracle_train

VOCAB = {"problem": "abcde", "treatment": "mnopq", "other": "uvwxy"}


def separable_pairs(n: int = 200, seed: int = 9) -> list[LabeledText]:
    # disjoint alphabets make classes separable from character n-grams
    rng = random.Random(seed)
    labels = tuple(VOCAB)
    pairs = []
    for i in range(n):
        label = labels[i % len(labels)]
        word = "".join(rng.choice(VOCAB[label]) for _ in range(rng.randint(4, 9)))
        pairs.append(LabeledText(word, label, Origin.GOLD_ENTITY))
    return pairs


SMALL = TrainConfig(buckets=1 << 12)


# ---------------------------------------------------------------------------
# training


def test_training_is_deterministic_per_seed():
    pairs = separable_pairs(60)
    a = train(pairs, SMALL)
    b = train(pairs, SMALL)
    assert a.to_bytes() == b.to_bytes()


def test_different_seed_changes_the_model():
    pairs = separable_pairs(60)
    a = train(pairs, SMALL)
    b = train(pairs, TrainConfig(seed=1, buckets=1 << 12))
    assert a.to_bytes() != b.to_bytes()


def test_separable_set_reaches_high_accuracy():
    pairs = separable_pairs(200)
    model = train(pairs, SMALL)
    assert model.config.epochs == 5
    hits = sum(1 for p in pairs if predict(model, p.text).label == p.label)
    assert hits / len(pairs) >= 0.95


def test_labels_are_sorted_and_deduplicated():
    pairs = separable_pairs(30)
    model = train(pairs, SMALL)
    assert model.labels == ("other", "problem", "treatment")


def test_training_requires_two_labels():
    pairs = [LabeledText("abc", "only", Origin.GOLD_ENTITY)] * 4
    with pytest.raises(ValueError, match="label"):
        train(pairs, SMALL)


def test_training_rejects_blank_text():
    pairs = [
        LabeledText("abc", "A", Origin.GOLD_ENTITY),
        LabeledText(" ", "B", Origin.GOLD_ENTITY),
    ]
    with pytest.raises(ValueError):
        train(pairs, SMALL)


# sha256 of train(separable_pairs(60), SMALL).to_bytes(); a constant, because
# two runs of the same code agree even when a change has moved a model byte
PINNED_MODEL_SHA256 = "a3e2d1a8200c75dbe9d1d876ce0cf36435a0dda3da10862e126dadc531b422ad"


def test_model_bytes_are_pinned():
    blob = train(separable_pairs(60), SMALL).to_bytes()
    assert hashlib.sha256(blob).hexdigest() == PINNED_MODEL_SHA256


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(buckets=1)
    # SGD at a non-finite rate would write a model of NaN weights
    for rate in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="learning rate"):
            TrainConfig(learning_rate=rate)


def _reference_features(text: str, buckets: int) -> dict[int, float]:
    # every feature string hashed from scratch, prefix included
    lowered = text.lower()
    counts: dict[int, float] = {}
    for n in (3, 4, 5):
        for i in range(len(lowered) - n + 1):
            bucket = _hash64(f"c{n}|{lowered[i:i + n]}") % buckets
            counts[bucket] = counts.get(bucket, 0.0) + 1.0
    for word in lowered.split():
        bucket = _hash64(f"w|{word}") % buckets
        counts[bucket] = counts.get(bucket, 0.0) + 1.0
    return counts


# the texts of the featurizer's examples: a lowercasing that lengthens a
# text (İ), two- and three-byte code points, ligatures and four-byte ones
_UNICODE_TEXTS = [
    "İstanbul İİİ", "istanbul", "Straße ΣΊΣΥΦΟΣ naïve", "ǅemal ﬁle",
    "𝔘𝔫𝔦𝔠𝔬𝔡𝔢 😀😀😀", "abc abc", "abcd", "abc",
]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.text(), min_size=1, max_size=6),
    st.integers(2, 64) | st.just(1 << 20),
)
@example(["İstanbul İİİ", "istanbul", "İstanbul İİİ"], 1 << 20)
@example(["Straße ΣΊΣΥΦΟΣ naïve", "ǅemal ﬁle", "𝔘𝔫𝔦𝔠𝔬𝔡𝔢 😀😀😀"], 7)
@example(["abc abc", "abcd", "abc"], 2)
# the unicode texts straddle the end of the first batch, and the last
# batch holds one text
@example(
    [f"t{i} abc" for i in range(_BATCH_TEXTS - 4)] + _UNICODE_TEXTS + ["", "ab"]
    + [f"u{i}" for i in range(_BATCH_TEXTS - 5)],
    64,
)
def test_featurizer_matches_the_reference_construction(texts, buckets):
    bucket, count, bounds = _features(texts, buckets)
    assert len(bounds) == len(texts) + 1 and bounds[0] == 0
    assert bounds[-1] == len(bucket) == len(count)
    for i, text in enumerate(texts):
        expected = _reference_features(text, buckets)
        span = slice(bounds[i], bounds[i + 1])
        assert bucket[span].tolist() == list(expected)
        assert count[span].tolist() == list(expected.values())


def _many_texts(seed: int) -> list[str]:
    """More distinct texts than two batches, short ones among them, each
    drawn once and some a second time."""
    rng = random.Random(seed)
    alphabet = "ab cİß😀ﬁé"
    distinct: dict[str, None] = {}
    while len(distinct) < 2 * _BATCH_TEXTS + 1 + seed % 40:
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 9)))
        if text.strip():  # a blank text fails training, as it should
            distinct[text] = None
    texts = list(distinct)
    return texts + rng.sample(texts, 30)


@st.composite
def pair_sets(draw):
    """Training pairs, the texts of the Type-5 records to decide, and a bucket count."""
    buckets = draw(st.sampled_from([2, 3, 64, 1 << 20]))
    texts = draw(
        st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=10)
        | st.sampled_from([_UNICODE_TEXTS])
        | st.integers(0, 1 << 16).map(_many_texts)
    )
    texts = texts + draw(st.lists(st.sampled_from(texts), max_size=6))  # repeats
    labels = st.sampled_from(["A", "B", "C"])
    pairs = [LabeledText(t, draw(labels), Origin.GOLD_ENTITY) for t in texts]
    decided = draw(st.lists(st.sampled_from(texts) | st.text(max_size=6), max_size=12))
    return pairs, [(t, draw(labels)) for t in decided], buckets


def _type5_report(records: list[tuple[str, str]]) -> MatchReport:
    kind = MismatchType.TYPE5_RIGHT_LABEL_OVERLAP
    return MatchReport.from_records(
        MatchRecord(
            f"d:{i}", "d", kind,
            EntityMention("d", 2 * i, 2 * i + 1, label, text),
            EntityMention("d", 2 * i, 2 * i + 2, label, text),
            1,
        )
        for i, (text, label) in enumerate(records)
    )


def _outcome(function, *args):
    """What ``function`` returns, or the type and message of its ValueError."""
    try:
        return function(*args)
    except ValueError as exc:  # ParseError included
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(pair_sets())
@example(([LabeledText(t, "AB"[i % 2], Origin.GOLD_ENTITY)
           for i, t in enumerate(_UNICODE_TEXTS)],
          [(t, "A") for t in _UNICODE_TEXTS], 1 << 20))
def test_train_and_decide_match_the_per_text_classifier(case):
    # the classifier as it was before the batched featurizer is the oracle:
    # both run the same BLAS kernel, so the bytes agree on any CPU
    pairs, records, buckets = case
    config = TrainConfig(buckets=buckets, epochs=2)
    model = _outcome(train, pairs, config)
    expected = _outcome(oracle_train, pairs, config)
    if not isinstance(model, ClassifierModel):
        assert model == expected
        return
    assert model.to_bytes() == expected.to_bytes()
    report = _type5_report(records)
    assert _outcome(decide_type5, model, report) == _outcome(
        oracle_decide_type5, model, report
    )


# ---------------------------------------------------------------------------
# prediction


def test_confidence_is_the_top_probability():
    model = train(separable_pairs(60), SMALL)
    prediction = predict(model, "mnopq")
    idx, val, _ = _features(["mnopq"], model.config.buckets)
    scores = model.bias + val @ model.gather(idx)
    probs = np.exp(scores - scores.max())
    probs /= probs.sum()
    assert prediction.confidence == pytest.approx(probs.max())
    assert prediction.label == model.labels[int(probs.argmax())] == "treatment"


def test_prediction_ties_break_by_label_order():
    config = TrainConfig(buckets=64)
    zero = ClassifierModel(
        labels=("alpha", "beta"),
        rows=np.zeros(0, dtype=np.int64),
        weights=np.zeros((0, 2)),
        bias=np.zeros(2),
        config=config,
    )
    prediction = predict(zero, "anything")
    assert prediction.label == "alpha"
    assert prediction.confidence == pytest.approx(0.5)


def test_empty_text_rejected():
    model = train(separable_pairs(30), SMALL)
    with pytest.raises(ValueError, match="empty"):
        predict(model, "   ")


# ---------------------------------------------------------------------------
# serialization


def test_serialization_round_trips_bit_exact(tmp_path):
    model = train(separable_pairs(60), SMALL)
    path = tmp_path / "model.entcls"
    model.save(path)
    loaded = ClassifierModel.load(path)
    assert loaded.to_bytes() == model.to_bytes()
    assert loaded.labels == model.labels
    assert loaded.config == model.config
    np.testing.assert_array_equal(loaded.weights, model.weights)


def test_corrupt_magic_rejected(tmp_path):
    model = train(separable_pairs(30), SMALL)
    blob = bytearray(model.to_bytes())
    blob[0] ^= 0xFF
    path = tmp_path / "model.entcls"
    path.write_bytes(blob)
    with pytest.raises(ValueError, match="not a serialized classifier"):
        ClassifierModel.load(path)


def test_truncated_payload_rejected(tmp_path):
    model = train(separable_pairs(30), SMALL)
    path = tmp_path / "model.entcls"
    path.write_bytes(model.to_bytes()[:-16])
    with pytest.raises(ValueError):
        ClassifierModel.load(path)


def _dense_blob(
    weight_bits: np.ndarray, bias_bits: np.ndarray, labels=None, **fields
) -> bytes:
    """A model file whose dense payload holds the given float64 bit patterns.

    ``fields`` replace or add header fields.
    """
    buckets, n_labels = weight_bits.shape
    header = {
        "format_version": 1,
        "labels": labels or [f"L{i}" for i in range(n_labels)],
        "buckets": buckets,
        "seed": 0,
        "epochs": 1,
        "learning_rate": 0.5,
        "dtype": "<f8",
        **fields,
    }
    return (
        _MAGIC + b"\n" + json.dumps(header, sort_keys=True).encode() + b"\n"
        + weight_bits.astype("<i8").tobytes() + bias_bits.astype("<i8").tobytes()
    )


# -0.0, two NaNs, both infinities, 1.0 and the smallest subnormal, as bits
_SPECIAL_BITS = [
    0x8000000000000000 - (1 << 64),
    0x7FF8000000000000,
    0xFFF8000000000001 - (1 << 64),
    0x7FF0000000000000,
    0xFFF0000000000000 - (1 << 64),
    0x3FF0000000000000,
    1,
]
_BITS = st.sampled_from(_SPECIAL_BITS) | st.integers(-(1 << 63), (1 << 63) - 1)
_BUCKET_COUNTS = [2, 3, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 3]


@st.composite
def dense_payloads(draw):
    """A dense model file with a few held rows, and bucket ids to gather."""
    buckets = draw(st.sampled_from(_BUCKET_COUNTS))
    n_labels = draw(st.integers(1, 3))
    edges = [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, buckets - 1]
    rows = st.sampled_from([r for r in edges if r < buckets]) | st.integers(0, buckets - 1)
    weights = np.zeros((buckets, n_labels), dtype=np.int64)
    for row in draw(st.lists(rows, max_size=6)):
        weights[row] = draw(st.lists(_BITS | st.just(0), min_size=n_labels, max_size=n_labels))
    bias = np.array(draw(st.lists(_BITS, min_size=n_labels, max_size=n_labels)))
    idx = draw(st.lists(rows, min_size=1, max_size=12))
    return _dense_blob(weights, bias), np.array(idx, dtype=np.int64)


def _held_at_block_ends() -> tuple[bytes, np.ndarray]:
    # -0.0 rows on the last row of a block and of the payload, a NaN after
    weights = np.zeros((_BLOCK_ROWS + 2, 2), dtype=np.int64)
    weights[_BLOCK_ROWS - 1, 1] = _SPECIAL_BITS[0]
    weights[_BLOCK_ROWS, 0] = _SPECIAL_BITS[1]
    weights[_BLOCK_ROWS + 1] = _SPECIAL_BITS[0]
    idx = np.array([_BLOCK_ROWS + 1, 5, _BLOCK_ROWS - 1, _BLOCK_ROWS, 0])
    return _dense_blob(weights, np.zeros(2, dtype=np.int64)), idx


@settings(max_examples=60, deadline=None)
@given(dense_payloads())
@example(_held_at_block_ends())
def test_sparse_model_matches_the_dense_payload(case):
    # the dense payload itself is the oracle: the model round-trips it byte
    # for byte and gathers its rows bit for bit
    blob, idx = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.entcls"
        path.write_bytes(blob)
        model = ClassifierModel.load(path)
    buckets, n_labels = model.config.buckets, len(model.labels)
    start = len(blob) - (buckets + 1) * n_labels * 8
    dense = np.frombuffer(blob, "<i8", buckets * n_labels, start).reshape(buckets, n_labels)
    assert model.rows.tolist() == np.flatnonzero(dense.any(axis=1)).tolist()
    assert model.gather(idx).view(np.int64).tolist() == dense[idx].tolist()
    assert model.to_bytes() == blob


def test_header_longer_than_the_first_read_round_trips(tmp_path):
    labels = ["x" * _HEAD_BYTES, "y" * (3 * _HEAD_BYTES)]
    weights = np.zeros((4, 2), dtype=np.int64)
    weights[2] = _SPECIAL_BITS[5]
    blob = _dense_blob(weights, np.zeros(2, dtype=np.int64), labels)
    path = tmp_path / "model.entcls"
    path.write_bytes(blob)
    model = ClassifierModel.load(path)
    assert model.labels == tuple(labels) and model.rows.tolist() == [2]
    assert model.to_bytes() == blob


@pytest.mark.parametrize(
    "fields",
    [{"format_version": 2}, {"dtype": ">f4"}, {"format_version": 7, "dtype": ">f4"},
     {"dtype": None}],
    ids=["version-2", "big-endian-float32", "version-7-float32", "null-dtype"],
)
def test_header_of_another_format_is_rejected(tmp_path, fields):
    # the payload has the length a version-1 float64 file would have, so
    # only the header's own claim tells the formats apart
    weights = np.zeros((4, 2), dtype=np.int64)
    weights[1] = _SPECIAL_BITS[5]
    path = tmp_path / "model.entcls"
    path.write_bytes(_dense_blob(weights, np.zeros(2, dtype=np.int64), **fields))
    with pytest.raises(ParseError, match="is not supported"):
        ClassifierModel.load(path)


def test_training_and_model_io_hold_no_dense_matrix(tmp_path):
    # numpy reports its buffers to tracemalloc; one dense matrix is 24 MiB
    config = TrainConfig(buckets=1 << 20)
    path = tmp_path / "model.entcls"
    tracemalloc.start()
    try:
        model = train(separable_pairs(60), config)
        _, train_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        model.save(path)
        _, save_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        loaded = ClassifierModel.load(path)
        _, load_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    dense = config.buckets * len(model.labels) * 8
    assert path.stat().st_size > dense
    assert max(train_peak, save_peak, load_peak) < dense / 4
    assert loaded.rows.tolist() == model.rows.tolist()
    assert loaded.weights.tobytes() == model.weights.tobytes()


def test_training_memory_grows_by_tens_of_bytes_per_feature():
    # 4,000 distinct 10-letter texts over "abc", each in two pairs: 22
    # feature occurrences per text (8 + 7 + 6 grams, 1 word), F = 88,000,
    # and a few thousand held rows R, since the grams repeat.
    #
    # At its peak train is in one of three phases, each holding per
    # feature occurrence:
    # - as _features ends: an int32 bucket and a float64 count (12 B), the
    #   text -> index map (about 100 B a text) and the word cache (about
    #   130 B a word, one word a text here): 22 B;
    # - in np.unique: the bucket, the count, a sorted int32 copy, a bool
    #   mask (17 B) and the text -> index map: 22 B;
    # - in the SGD loop: the count, int32 row positions (12 B) and each
    #   pair's (start, stop, label) triple, 72 B with its list slot, two a
    #   text, which share the text's two slice ends (32 B each): 21 B.
    # So 24 B per occurrence bounds each phase, together with the held rows
    # (an int64 bucket and L float64 weights each, twice for the unique
    # rows and a held copy) and 256 KiB for one batch's temporaries. The
    # classifier that kept two arrays per text and one step array per pair
    # used about twice the bound; an array that owns a text's features
    # (some 300 B), or a view per pair (about 112 B, 224 B a text here),
    # breaks it as well.
    rng = random.Random(5)
    texts: dict[str, None] = {}
    while len(texts) < 4000:
        texts["".join(rng.choice("abc") for _ in range(10))] = None
    pairs = [
        LabeledText(text, "AB"[(i + j) % 2], Origin.GOLD_ENTITY)
        for j in range(2) for i, text in enumerate(texts)
    ]
    occurrences = len(texts) * 22
    config = TrainConfig(epochs=1, buckets=1 << 20)
    train(separable_pairs(10), SMALL)  # numpy's one-time allocations first
    tracemalloc.start()
    try:
        model = train(pairs, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = 2 * len(model.rows) * (8 + 8 * len(model.labels))
    assert peak < 24 * occurrences + held + (1 << 18)


def test_model_file_that_shrinks_while_it_is_read_is_rejected(tmp_path, monkeypatch):
    path = tmp_path / "model.entcls"
    train(separable_pairs(30), SMALL).save(path)
    fromfile = np.fromfile

    def read_then_truncate(file, *args, **kwargs):
        items = fromfile(file, *args, **kwargs)
        os.truncate(file, _HEAD_BYTES // 2)  # after the header, before the payload
        return items

    monkeypatch.setattr(np, "fromfile", read_then_truncate)
    with pytest.raises(ParseError, match="changed while it was read"):
        ClassifierModel.load(path)


def test_header_claiming_a_huge_payload_is_rejected_before_reading_it(tmp_path):
    # 2**40 buckets of two labels would be 16 TiB; the file holds 80 bytes
    header = {
        "format_version": 1, "labels": ["a", "b"], "buckets": 1 << 40,
        "seed": 0, "epochs": 1, "learning_rate": 0.5,
    }
    path = tmp_path / "model.entcls"
    path.write_bytes(_MAGIC + b"\n" + json.dumps(header).encode() + b"\n" + bytes(80))
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="model payload is 80 bytes, expected"):
            ClassifierModel.load(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_bucket_count_above_2_to_the_31_is_refused_before_featurizing(monkeypatch):
    def featurize(*args):
        raise AssertionError("featurized")

    monkeypatch.setattr("entmatch.classifier._features", featurize)
    with pytest.raises(ValueError, match=f"bucket count must be at most {2**31}"):
        train(separable_pairs(12), TrainConfig(buckets=2**31 + 1))


def test_header_with_more_than_2_to_the_31_buckets_is_rejected(tmp_path):
    # without labels the payload is empty, so its length check passes
    header = {
        "format_version": 1, "labels": [], "buckets": 2**31 + 1,
        "seed": 0, "epochs": 1, "learning_rate": 0.5,
    }
    path = tmp_path / "model.entcls"
    path.write_bytes(_MAGIC + b"\n" + json.dumps(header).encode() + b"\n")
    with pytest.raises(ParseError, match=f"'buckets' is {2**31 + 1}, more than {2**31}"):
        ClassifierModel.load(path)


# ---------------------------------------------------------------------------
# type-5 adjudication


def _liver_model(accept: bool):
    # map the fixture's fragment texts to its entity label, or to "other"
    label = "problem" if accept else "other"
    pairs = [
        LabeledText("1cm cyst in the right lobe", label, Origin.GOLD_ENTITY),
        LabeledText("liver", label, Origin.GOLD_ENTITY),
        LabeledText("zzqqy", "filler", Origin.SAMPLED_CHUNK),
        LabeledText("qqzzk", "filler", Origin.SAMPLED_CHUNK),
    ]
    return train(pairs, TrainConfig(buckets=1 << 12, epochs=20))


def test_decide_type5_accepts_label_reproductions(liver_report):
    decisions = decide_type5(_liver_model(accept=True), liver_report)
    assert len(decisions) == 2
    assert all(d.verdict is Verdict.ACCEPT for d in decisions.values())
    assert all(d.predicted_label == "problem" for d in decisions.values())


def test_decide_type5_rejects_other_predictions(liver_report):
    decisions = decide_type5(_liver_model(accept=False), liver_report)
    assert all(d.verdict is Verdict.REJECT for d in decisions.values())
    assert all(d.predicted_label == "other" for d in decisions.values())
    assert all(
        d.confidence is not None and 0.0 <= d.confidence <= 1.0
        for d in decisions.values()
    )


# sha256 of the liver fixture's decision file per _liver_model(accept); a
# constant for the same reason as PINNED_MODEL_SHA256
PINNED_LIVER_DECISIONS_SHA256 = {
    True: "1cc881d332fa8906802b40a3d52fe98d328ac0db0079df60dcafb3172b87ff50",
    False: "b77c6b6d2fc4697083e33a6baf4e4f937505231f9ed66630f1bb80d3cb144efd",
}


@pytest.mark.parametrize("accept", [True, False])
def test_liver_decisions_are_pinned(tmp_path, liver_report, accept):
    path = tmp_path / "decisions.jsonl"
    write_decisions(decide_type5(_liver_model(accept), liver_report), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == PINNED_LIVER_DECISIONS_SHA256[accept]


# ---------------------------------------------------------------------------
# external adjudication protocol


def _respond(report, path, label="problem", confidence=0.9, ids=None):
    rows = [
        {"id": rid, "label": label, "confidence": confidence}
        for rid in (ids if ids is not None else [r.record_id for r in report.type5_records()])
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))


def test_requests_cover_every_type5(tmp_path, liver_report):
    path = tmp_path / "requests.jsonl"
    write_classifier_requests(liver_report, path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["id"] for r in rows] == [
        r.record_id for r in liver_report.type5_records()
    ]
    assert rows[0]["text"] == "1cm cyst in the right lobe"
    assert rows[1]["text"] == "liver"


def test_external_responses_become_decisions(tmp_path, liver_report):
    path = tmp_path / "responses.jsonl"
    _respond(liver_report, path)
    decisions = load_external_decisions(liver_report, path)
    assert all(d.verdict is Verdict.ACCEPT for d in decisions.values())
    assert all(d.confidence == 0.9 for d in decisions.values())


def test_external_other_label_rejects(tmp_path, liver_report):
    path = tmp_path / "responses.jsonl"
    _respond(liver_report, path, label="other")
    decisions = load_external_decisions(liver_report, path)
    assert all(d.verdict is Verdict.REJECT for d in decisions.values())


def test_external_unknown_id_rejected(tmp_path, liver_report):
    path = tmp_path / "responses.jsonl"
    ids = [r.record_id for r in liver_report.type5_records()] + ["ghost:3"]
    _respond(liver_report, path, ids=ids)
    with pytest.raises(ParseError, match="unknown Type-5 record id"):
        load_external_decisions(liver_report, path)


def test_external_duplicate_id_rejected(tmp_path, liver_report):
    path = tmp_path / "responses.jsonl"
    rid = liver_report.type5_records()[0].record_id
    _respond(liver_report, path, ids=[rid, rid])
    with pytest.raises(ParseError, match="duplicate response"):
        load_external_decisions(liver_report, path)


def test_external_missing_id_is_uncovered(tmp_path, liver_report):
    path = tmp_path / "responses.jsonl"
    first = liver_report.type5_records()[0].record_id
    _respond(liver_report, path, ids=[first])
    with pytest.raises(UncoveredRecordsError):
        load_external_decisions(liver_report, path)


def test_external_label_outside_set_rejected(tmp_path, liver_report):
    path = tmp_path / "responses.jsonl"
    _respond(liver_report, path, label="mystery")
    with pytest.raises(ParseError, match="allowed label set"):
        load_external_decisions(liver_report, path)


def test_external_confidence_bounds_enforced(tmp_path, liver_report):
    path = tmp_path / "responses.jsonl"
    _respond(liver_report, path, confidence=1.5)
    with pytest.raises(ParseError, match="confidence"):
        load_external_decisions(liver_report, path)


# ---------------------------------------------------------------------------
# decision persistence


def test_decisions_round_trip(tmp_path, liver_report):
    first_id, second_id = sorted(r.record_id for r in liver_report.type5_records())
    decisions = {
        second_id: Decision(second_id, Verdict.ACCEPT, "problem", 0.75),
        first_id: Decision(first_id, Verdict.REJECT, "other", None),
    }
    path = tmp_path / "decisions.jsonl"
    write_decisions(decisions, path)
    assert read_decisions(path, liver_report) == decisions
    # rows are sorted by record id for reproducible files
    first = json.loads(path.read_text().splitlines()[0])
    assert first["record_id"] == first_id
