"""Independent reference implementations and random-input generators.

The oracle classifies a document by exhaustive scanning with explicit
bookkeeping, sharing no code with the library's staged matcher, and the
recount helpers recompute scores straight from entity lists.
``oracle_parse_iob`` is the two-pass IOB reader that the library's
one-pass ``parse_iob`` replaced, kept as it was, and ``iob2_tags`` encodes
a parsed side back into IOB2 tags. ``oracle_parse_standoff`` is the
standoff reader that checked each token and entity in Python, and
``oracle_scores`` scores a convention by the per-record pass that the
library's tallies replaced, both kept as they were. ``oracle_train`` and
``oracle_decide_type5`` are the classifier's training and Type-5 decision
loops as they were when a per-text ``_Featurizer`` held one pair of arrays
per text and ``train`` one trio per pair, kept as they were.
``oracle_read_jsonl`` and ``oracle_read_ledger`` are the JSONL and record
ledger readers that sent every line through ``parse_json_line`` and every
mention through ``_mention_from_obj``, and ``oracle_is_punctuation`` the
chunker's per-character punctuation test, kept as they were. Tests compare
library output against these.
"""

from __future__ import annotations

import logging
import math
import random
import re
import string
from collections import Counter
from pathlib import Path
from random import Random
from typing import Iterator, Sequence

import numpy as np

from entmatch.classifier import (
    _GRAM_STATES,
    _WEIGHT_LIMIT,
    _WORD_STATE,
    ClassifierModel,
    Decision,
    TrainConfig,
    Verdict,
    _hash64,
    _nonzero_rows,
    _softmax,
)

from entmatch.corpus import (
    Corpus,
    Document,
    EntityMention,
    ParseError,
    Source,
    TagScheme,
    build_document,
    decode_utf8,
    is_int,
    parse_json_line,
)
from entmatch.matcher import GoldKey, MatchRecord, MatchReport, MismatchType
from entmatch.metrics import PRF, Convention

EXACT = MismatchType.EXACT_MATCH
T1 = MismatchType.TYPE1_FALSE_POSITIVE
T2 = MismatchType.TYPE2_FALSE_NEGATIVE
T3 = MismatchType.TYPE3_WRONG_LABEL_RIGHT_SPAN
T4 = MismatchType.TYPE4_WRONG_LABEL_OVERLAP
T5 = MismatchType.TYPE5_RIGHT_LABEL_OVERLAP


def oracle_records(gold, pred):
    """Brute-force staged classification.

    Returns a list of (kind, pred_span_or_None, gold_span_or_None) tuples.
    """

    def ov(a, b):
        return max(0, min(a.end, b.end) - max(a.start, b.start))

    used_gold = set()
    used_pred = set()
    covered = set()
    out = []

    # stage 1: exact pairs
    for pi, p in enumerate(pred):
        for gi, g in enumerate(gold):
            if gi in used_gold:
                continue
            if (p.start, p.end) == (g.start, g.end) and p.label == g.label:
                out.append((EXACT, p.span, g.span))
                used_pred.add(pi)
                used_gold.add(gi)
                break

    # stage 2: span-identical, different label
    for pi, p in enumerate(pred):
        if pi in used_pred:
            continue
        for gi, g in enumerate(gold):
            if gi in used_gold:
                continue
            if (p.start, p.end) == (g.start, g.end) and p.label != g.label:
                out.append((T3, p.span, g.span))
                used_pred.add(pi)
                used_gold.add(gi)
                break

    def best_anchor(p, want_same_label):
        best = None
        best_rank = None
        for gi, g in enumerate(gold):  # every gold, consumed or not
            overlap = ov(p, g)
            if overlap < 1:
                continue
            if (g.label == p.label) != want_same_label:
                continue
            rank = (overlap, -g.start, g.end - g.start)
            if best_rank is None or rank > best_rank:
                best_rank = rank
                best = gi
        return best

    # stage 3: same-label overlaps
    for pi, p in enumerate(pred):
        if pi in used_pred:
            continue
        gi = best_anchor(p, True)
        if gi is not None:
            out.append((T5, p.span, gold[gi].span))
            used_pred.add(pi)
            covered.add(gi)

    # stage 4: different-label overlaps
    for pi, p in enumerate(pred):
        if pi in used_pred:
            continue
        gi = best_anchor(p, False)
        if gi is not None:
            out.append((T4, p.span, gold[gi].span))
            used_pred.add(pi)
            covered.add(gi)

    # stage 5: leftovers
    for pi, p in enumerate(pred):
        if pi not in used_pred:
            out.append((T1, p.span, None))
    for gi, g in enumerate(gold):
        if gi not in used_gold and gi not in covered:
            out.append((T2, None, g.span))
    return out


def oracle_counts(gold, pred) -> Counter:
    return Counter(kind for kind, _, _ in oracle_records(gold, pred))


def recount_exact(corpus: Corpus):
    """(tp, fp, fn) for the exact convention straight from entity lists."""
    tp = 0
    total_gold = 0
    total_pred = 0
    for doc in corpus.documents:
        gold_keys = {(m.start, m.end, m.label) for m in doc.gold_entities}
        total_gold += len(doc.gold_entities)
        total_pred += len(doc.pred_entities)
        tp += sum(
            1 for m in doc.pred_entities if (m.start, m.end, m.label) in gold_keys
        )
    return tp, total_pred - tp, total_gold - tp


def recount_relaxed(corpus: Corpus):
    """Relaxed (tp_pred, tp_gold, fp, fn) recomputed from entity lists.

    A prediction earns credit when it matches a gold exactly or overlaps a
    same-label gold without matching any gold span exactly; a gold earns
    credit when matched exactly or overlapped by a crediting same-label
    prediction anchored to it by the largest-overlap rule.
    """
    tp_pred = tp_gold = total_gold = total_pred = 0
    for doc in corpus.documents:
        records = oracle_records(doc.gold_entities, doc.pred_entities)
        total_gold += len(doc.gold_entities)
        total_pred += len(doc.pred_entities)
        tp_pred += sum(1 for kind, _, _ in records if kind in (EXACT, T5))
        credited = {g for kind, _, g in records if kind in (EXACT, T5) and g}
        tp_gold += len(credited)
    return tp_pred, tp_gold, total_pred - tp_pred, total_gold - tp_gold


# ---------------------------------------------------------------------------
# perturbation


def oracle_perturb(gold: Corpus, plan):
    """``perturb`` by linear scans: each collision check rebuilds and scans
    every other gold span and every span built so far.

    Draws from the same per-document generators in the same order as the
    library. Returns the prediction corpus and the expectation entries as
    ``(doc_id, kind, gold_span, pred_span, gold_label, pred_label)`` tuples.
    """

    def overlaps(span, spans):
        return any(span[0] < e and s < span[1] for s, e in spans)

    def draw(rng):
        r = rng.random()
        threshold = 0.0
        for name, rate in (
            ("extend", plan.extend_rate),
            ("shrink", plan.shrink_rate),
            ("split", plan.split_rate),
            ("relabel", plan.relabel_rate),
            ("drop", plan.drop_rate),
        ):
            threshold += rate
            if r < threshold:
                return name
        return None

    labels = sorted(
        {m.label for d in gold.documents for m in d.gold_entities + d.pred_entities}
    )
    pred_docs = []
    entries = []
    for doc in gold.documents:
        rng = random.Random(f"{plan.seed}:{doc.doc_id}")
        n = len(doc.tokens)
        golds = doc.gold_entities
        built = []

        def expect(kind, gold_span, pred_span, gold_label, pred_label):
            entries.append((doc.doc_id, kind, gold_span, pred_span, gold_label, pred_label))

        for g in golds:
            other_spans = [m.span for m in golds if m is not g]
            placed = [(s, e) for s, e, _ in built]
            operation = draw(rng)
            if operation == "extend":
                k = plan.extend_tokens
                if rng.random() < 0.5:
                    span = (g.start - k, g.end)
                else:
                    span = (g.start, g.end + k)
                if (
                    span[0] >= 0
                    and span[1] <= n
                    and not overlaps(span, other_spans)
                    and not overlaps(span, placed)
                ):
                    built.append((span[0], span[1], g.label))
                    expect(T5, g.span, span, g.label, g.label)
                    continue
            elif operation == "shrink":
                k = plan.shrink_tokens
                if g.end - g.start > k:
                    if rng.random() < 0.5:
                        span = (g.start + k, g.end)
                    else:
                        span = (g.start, g.end - k)
                    built.append((span[0], span[1], g.label))
                    expect(T5, g.span, span, g.label, g.label)
                    continue
            elif operation == "split":
                if g.end - g.start >= 2:
                    middle = rng.randint(g.start + 1, g.end - 1)
                    for span in ((g.start, middle), (middle, g.end)):
                        built.append((span[0], span[1], g.label))
                        expect(T5, g.span, span, g.label, g.label)
                    continue
            elif operation == "relabel":
                alternatives = [lab for lab in labels if lab != g.label]
                if alternatives:
                    label = rng.choice(alternatives)
                    built.append((g.start, g.end, label))
                    expect(T3, g.span, g.span, g.label, label)
                    continue
            elif operation == "drop":
                expect(T2, g.span, None, g.label, None)
                continue
            built.append((g.start, g.end, g.label))
            expect(EXACT, g.span, g.span, g.label, g.label)

        gold_spans = [m.span for m in golds]
        attempts = int(round(plan.insert_rate * max(1, len(golds))))
        for _ in range(attempts):
            if n == 0:
                break
            start = rng.randrange(n)
            end = min(start + rng.randint(1, 2), n)
            span = (start, end)
            placed = [(s, e) for s, e, _ in built]
            if overlaps(span, gold_spans) or overlaps(span, placed):
                continue
            label = rng.choice(labels) if labels else "entity"
            built.append((start, end, label))
            expect(T1, None, span, None, label)

        pred_docs.append(
            Document(
                doc.doc_id,
                doc.tokens,
                doc.sentence_starts,
                [],
                [
                    EntityMention(doc.doc_id, s, e, lab, " ".join(doc.tokens[s:e]))
                    for s, e, lab in built
                ],
            )
        )
    return Corpus.from_documents(pred_docs), entries


# ---------------------------------------------------------------------------
# random input generation


def random_spans(rng: random.Random, n_tokens: int, labels, max_entities: int):
    """Sorted non-overlapping (start, end, label) spans over n_tokens."""
    spans = []
    pos = 0
    while pos < n_tokens and len(spans) < max_entities:
        if rng.random() < 0.55:
            length = rng.randint(1, min(4, n_tokens - pos))
            spans.append((pos, pos + length, rng.choice(labels)))
            pos += length + rng.randint(0, 2)
        else:
            pos += 1
    return spans


def random_paired_document(
    rng: random.Random,
    doc_id: str,
    max_tokens: int = 20,
    max_entities: int = 8,
    labels=("A", "B", "C"),
) -> Document:
    n = rng.randint(1, max_tokens)
    tokens = [f"w{i}" for i in range(n)]
    n_labels = rng.randint(1, len(labels))
    active = labels[:n_labels]
    return build_document(
        doc_id,
        [tokens],
        gold=random_spans(rng, n, active, max_entities),
        pred=random_spans(rng, n, active, max_entities),
    )


def random_paired_corpus(rng: random.Random, n_docs: int, **kwargs) -> Corpus:
    return Corpus.from_documents(
        random_paired_document(rng, f"doc{i:04d}", **kwargs) for i in range(n_docs)
    )


def mentions(doc_id: str, spans) -> list[EntityMention]:
    """Build raw mentions with synthetic token text for matcher-level tests."""
    out = []
    for start, end, label in spans:
        text = " ".join(f"w{i}" for i in range(start, end))
        out.append(EntityMention(doc_id, start, end, label, text))
    return out


# ---------------------------------------------------------------------------
# two-pass IOB reader

log = logging.getLogger(__name__)

_IOB_TAG_RE = re.compile(r"([BI])-(.*)\Z", re.DOTALL)

# A raw token is (text, tag, line number); sentences group them.
_RawSentence = list[tuple[str, str, int]]


def oracle_parse_iob(
    content: bytes | str,
    scheme: TagScheme = TagScheme.IOB2,
    source: Source = Source.GOLD,
) -> Corpus:
    """Parse a token-per-line IOB file into a corpus.

    Lines hold ``token<TAB>tag`` (or single-space separated); blank lines
    separate sentences; ``-DOCSTART- <doc_id>`` starts a new document.
    Files without any ``-DOCSTART-`` marker become a single document
    ``doc0``. Orphan ``I-`` tags under IOB2 are repaired to ``B-`` with a
    logged warning; under IOB1 a fresh ``I-`` legitimately opens an entity.
    """
    text = decode_utf8(content, "IOB file")
    raw_docs: list[tuple[str, list[_RawSentence]]] = []
    seen_ids: set[str] = set()
    sentences: list[_RawSentence] = []
    sentence: _RawSentence = []
    pending_id = "doc0"
    explicit = False

    def flush_sentence() -> None:
        nonlocal sentence
        if sentence:
            sentences.append(sentence)
            sentence = []

    def flush_document(line_no: int | None) -> None:
        nonlocal sentences, explicit
        flush_sentence()
        if sentences or explicit:
            if pending_id in seen_ids:
                raise ParseError(f"duplicate document id {pending_id!r}", line_no)
            seen_ids.add(pending_id)
            raw_docs.append((pending_id, sentences))
        sentences = []
        explicit = False

    for line_no, line in enumerate(text.split("\n"), 1):
        stripped = line.strip()
        if not stripped:
            flush_sentence()
            continue
        if stripped.startswith("-DOCSTART-"):
            flush_document(line_no)
            rest = stripped[len("-DOCSTART-"):].strip()
            pending_id = rest if rest else f"doc{len(raw_docs)}"
            explicit = True
            continue
        if "\t" in line:
            parts = [p.strip() for p in line.split("\t")]
        else:
            parts = stripped.split()
        if len(parts) != 2 or not all(parts):
            raise ParseError(
                f"expected 2 columns (token and tag), got {len(parts)}", line_no
            )
        token_text, tag = parts
        if tag != "O" and not _valid_iob_tag(tag):
            raise ParseError(f"malformed tag {tag!r}", line_no)
        sentence.append((token_text, tag, line_no))
    flush_document(None)

    documents = [
        _document_from_iob(doc_id, doc_sentences, scheme, source)
        for doc_id, doc_sentences in raw_docs
    ]
    return Corpus.from_documents(documents)


def _valid_iob_tag(tag: str) -> bool:
    m = _IOB_TAG_RE.fullmatch(tag)
    return m is not None and m.group(2).strip() not in ("", "O")


def _document_from_iob(
    doc_id: str,
    sentences: list[_RawSentence],
    scheme: TagScheme,
    source: Source,
) -> Document:
    texts = [[t for t, _, _ in s] for s in sentences]
    spans = _decode_tag_spans(sentences, scheme)
    if source is Source.GOLD:
        return build_document(doc_id, texts, gold=spans)
    return build_document(doc_id, texts, pred=spans)


def _decode_tag_spans(
    sentences: list[_RawSentence], scheme: TagScheme
) -> list[tuple[int, int, str]]:
    """Decode IOB tags into (start, end, label) spans over global token indices.

    Entity state resets at sentence boundaries. ``B-`` always opens an
    entity; ``I-`` extends an open same-label entity and otherwise opens
    one (a repair under IOB2, the normal opening form under IOB1).
    """
    spans: list[tuple[int, int, str]] = []
    index = 0
    for sent in sentences:
        open_start: int | None = None
        open_label = ""

        def close(upto: int) -> None:
            nonlocal open_start
            if open_start is not None:
                spans.append((open_start, upto, open_label))
                open_start = None

        for token_text, tag, line_no in sent:
            if tag == "O":
                close(index)
            else:
                marker, label = tag.split("-", 1)
                label = label.strip()
                if marker == "B" or label != open_label or open_start is None:
                    if marker == "I" and scheme is TagScheme.IOB2:
                        log.warning(
                            "line %d: orphan tag I-%s repaired to B-%s",
                            line_no,
                            label,
                            label,
                        )
                    close(index)
                    open_start = index
                    open_label = label
            index += 1
        close(index)
    return spans


def iob2_tags(document: Document, source: Source) -> list[str]:
    """Encode one side of a document back into an IOB2 tag sequence."""
    tags = ["O"] * len(document.tokens)
    for m in document.entities(source):
        tags[m.start] = f"B-{m.label}"
        for i in range(m.start + 1, m.end):
            tags[i] = f"I-{m.label}"
    return tags


# ---------------------------------------------------------------------------
# standoff reader with per-token and per-entity checks in Python


def oracle_parse_standoff(content: bytes | str) -> Corpus:
    """Parse a line-delimited JSON standoff file into a corpus."""
    documents = [
        _document_from_standoff(obj, line_no)
        for line_no, obj in oracle_read_jsonl(content, "standoff file")
    ]
    return Corpus.from_documents(documents)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _document_from_standoff(obj: dict, line_no: int) -> Document:
    doc_id = obj.get("doc_id")
    if not isinstance(doc_id, str) or not doc_id:
        raise ParseError("missing or invalid 'doc_id'", line_no)
    token_texts = obj.get("tokens")
    if not isinstance(token_texts, list) or any(
        not isinstance(t, str) or not t or t.isspace() for t in token_texts
    ):
        raise ParseError("'tokens' must be a list of non-empty strings", line_no)
    starts = obj.get("sentence_starts", [0] if token_texts else [])
    if (
        not isinstance(starts, list)
        or not all(_is_int(s) for s in starts)
        or starts != sorted(set(starts))
        or (token_texts and (not starts or starts[0] != 0))
        or any(s >= len(token_texts) for s in starts)
    ):
        raise ParseError("invalid 'sentence_starts'", line_no)
    tokens = tuple(token_texts)

    raw_entities = obj.get("entities")
    if not isinstance(raw_entities, list):
        raise ParseError("'entities' must be a list", line_no)
    gold: list[EntityMention] = []
    pred: list[EntityMention] = []
    for ent in raw_entities:
        if not isinstance(ent, dict):
            raise ParseError("entity entry must be a JSON object", line_no)
        try:
            start, end = ent["start"], ent["end"]
            label = ent["label"]
            source_value = ent["source"]
        except KeyError as exc:
            raise ParseError(f"entity missing field {exc.args[0]!r}", line_no) from None
        if not _is_int(start) or not _is_int(end):
            raise ParseError("entity span indices must be integers", line_no)
        if end <= start:
            raise ParseError(f"empty or inverted span [{start}, {end})", line_no)
        if start < 0 or end > len(tokens):
            raise ParseError(
                f"span [{start}, {end}) outside document bounds "
                f"[0, {len(tokens)})",
                line_no,
            )
        if not isinstance(label, str) or not label.strip() or label.strip() == "O":
            raise ParseError(f"invalid entity label {label!r}", line_no)
        try:
            source = Source(source_value)
        except ValueError:
            raise ParseError(f"invalid entity source {source_value!r}", line_no) from None
        target = gold if source is Source.GOLD else pred
        text = " ".join(tokens[start:end])
        target.append(EntityMention(doc_id, start, end, label.strip(), text))
    try:
        return Document(doc_id, tokens, tuple(starts), gold, pred)
    except ParseError as exc:
        raise ParseError(str(exc), line_no) from None


# ---------------------------------------------------------------------------
# scoring by one pass over the records

CREDIT_KINDS = {
    Convention.EXACT: frozenset({EXACT}),
    Convention.RELAXED: frozenset({EXACT, T5}),
    Convention.SEMEVAL_STRICT: frozenset({EXACT}),
    Convention.SEMEVAL_EXACT_BOUNDARY: frozenset({EXACT, T3}),
    Convention.SEMEVAL_PARTIAL_BOUNDARY: frozenset({EXACT, T3, T4, T5}),
    Convention.SEMEVAL_TYPE: frozenset({EXACT, T5}),
}


def _gold_key(r: MatchRecord):
    return None if r.gold is None else (r.doc_id, r.gold.start, r.gold.end)


def oracle_credit(records, kinds, accepted=frozenset()):
    """Per-label ``tp_pred`` and ``tp_gold`` from one pass over the records.

    A record earns credit when its kind is in ``kinds`` or it is a Type-5
    record whose id is in ``accepted``; a gold mention earns gold-side
    credit once, with its first credited record.
    """
    tp_pred: Counter[str] = Counter()
    tp_gold: Counter[str] = Counter()
    credited_golds = set()
    for r in records:
        if r.kind in kinds or (r.kind is T5 and r.record_id in accepted):
            if r.pred is not None:
                tp_pred[r.pred.label] += 1
            key = _gold_key(r)
            if key is not None and key not in credited_golds:
                credited_golds.add(key)
                tp_gold[r.gold.label] += 1
    return tp_pred, tp_gold


def oracle_scores(records, kinds, accepted=frozenset()):
    """Overall and per-label scores of a convention, from the records alone."""
    pred_by_label = Counter(r.pred.label for r in records if r.pred is not None)
    gold_labels = {_gold_key(r): r.gold.label for r in records if r.gold is not None}
    gold_by_label = Counter(gold_labels.values())
    tp_pred, tp_gold = oracle_credit(records, kinds, accepted)
    per_label = {
        label: PRF.from_counts(
            tp_pred[label],
            tp_gold[label],
            pred_by_label[label] - tp_pred[label],
            gold_by_label[label] - tp_gold[label],
        )
        for label in sorted(set(pred_by_label) | set(gold_by_label))
    }
    pred_hits, gold_hits = sum(tp_pred.values()), sum(tp_gold.values())
    overall = PRF.from_counts(
        pred_hits,
        gold_hits,
        sum(pred_by_label.values()) - pred_hits,
        len(gold_labels) - gold_hits,
    )
    return overall, per_label


# ---------------------------------------------------------------------------
# the classifier before its batched featurizer


class _Featurizer:
    """Hashed features: character 3-5-grams and words of the lowercased text.

    Each distinct text is featurized once and each distinct gram or word
    hashed once. The caches grow with the texts seen, so an instance lives
    for one call of ``train``, ``predict`` or ``decide_type5`` only.
    """

    def __init__(self, buckets: int):
        self.buckets = buckets
        self._grams: dict[str, int] = {}  # a gram's length is its n
        self._words: dict[str, int] = {}
        self._rows: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def counts(self, text: str) -> dict[int, float]:
        """Bucket -> count, in the order each bucket is first hit."""
        lowered = text.lower()
        counts: dict[int, float] = {}
        grams = self._grams
        for n, state in _GRAM_STATES:
            for i in range(len(lowered) - n + 1):
                gram = lowered[i:i + n]
                bucket = grams.get(gram)
                if bucket is None:
                    bucket = grams[gram] = _hash64(gram, state) % self.buckets
                counts[bucket] = counts.get(bucket, 0.0) + 1.0
        words = self._words
        for word in lowered.split():
            bucket = words.get(word)
            if bucket is None:
                bucket = words[word] = _hash64(word, _WORD_STATE) % self.buckets
            counts[bucket] = counts.get(bucket, 0.0) + 1.0
        return counts

    def __call__(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        """The text's bucket indices and counts as arrays, shared per text."""
        row = self._rows.get(text)
        if row is None:
            import numpy as np

            feats = self.counts(text)
            idx = np.fromiter(feats.keys(), dtype=np.int64, count=len(feats))
            val = np.fromiter(feats.values(), dtype=np.float64, count=len(feats))
            row = self._rows[text] = (idx, val)
        return row


def oracle_train(pairs: Sequence, config: TrainConfig = TrainConfig()) -> ClassifierModel:
    """Train the built-in model on (text, label) pairs.

    Accepts any objects with ``text`` and ``label`` attributes. Examples
    are shuffled once per epoch with a generator seeded from the config,
    so identical inputs and config reproduce the model byte for byte. A
    run that diverges, leaving a weight or bias that is not finite or not
    below ``_WEIGHT_LIMIT`` in magnitude, raises ``ValueError``.
    """
    import numpy as np

    if not pairs:
        raise ValueError("training set is empty")
    labels = sorted({p.label for p in pairs})
    if len(labels) < 2:
        raise ValueError(f"need at least 2 distinct labels, got {labels}")
    label_index = {lab: i for i, lab in enumerate(labels)}

    featurize = _Featurizer(config.buckets)
    lr = config.learning_rate
    # a rate too large overflows; the check after the loop reports it once
    with np.errstate(over="ignore", invalid="ignore"):
        features: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for p in pairs:
            if p.text not in features:
                if not p.text.strip():
                    raise ValueError("training pair with empty text")
                features[p.text] = featurize(p.text)
        del featurize  # its caches are done with once every text has arrays
        # SGD runs on the rows the pairs touch, ascending; each distinct
        # text's buckets become positions among them once
        rows = np.unique(np.concatenate([idx for idx, _ in features.values()]))
        for text, (idx, val) in features.items():
            features[text] = (rows.searchsorted(idx), val)
        examples: list[tuple[np.ndarray, np.ndarray, np.ndarray, int]] = []
        for p in pairs:
            idx, val = features[p.text]
            examples.append((idx, val, lr * val[:, None], label_index[p.label]))
        del features

        weights = np.zeros((len(rows), len(labels)), dtype=np.float64)
        bias = np.zeros(len(labels), dtype=np.float64)
        # the step writes each row back as one opaque element, a byte copy;
        # the ufunc reductions are what .max() and .sum() call
        row_dtype = np.dtype((np.void, weights.itemsize * len(labels)))
        take, put = weights.take, weights.view(row_dtype).put
        exp, top, total = np.exp, np.maximum.reduce, np.add.reduce
        rng = Random(config.seed)
        for _ in range(config.epochs):
            # shuffle's swaps depend on the generator and the length only, so
            # the visiting order is fixed by the seed and the number of pairs
            rng.shuffle(examples)
            for idx, val, step, y in examples:
                w = take(idx, axis=0)
                scores = bias + val @ w
                probs = exp(scores - top(scores))
                probs /= total(probs)
                probs[y] -= 1.0
                w -= step * probs
                put(idx, w.view(row_dtype))
                bias -= lr * probs
    # NaN fails both comparisons, as an infinity fails one; the rows not
    # held are +0.0, hence the initial 0.0
    if not all(
        -_WEIGHT_LIMIT < a.min(initial=0.0) <= a.max(initial=0.0) < _WEIGHT_LIMIT
        for a in (weights, bias)
    ):
        raise ValueError(
            f"training diverged at learning rate {lr}: a weight is not finite "
            f"or beyond {_WEIGHT_LIMIT:g}"
        )
    held = _nonzero_rows(weights)  # a row whose steps cancelled is +0.0 again
    return ClassifierModel(tuple(labels), rows[held], weights[held], bias, config)


def _probabilities(
    model: ClassifierModel, featurize: _Featurizer, text: str
) -> np.ndarray:
    if not text.strip():
        raise ValueError("cannot classify empty text")
    idx, val = featurize(text)
    return _softmax(model.bias + val @ model.gather(idx))


def oracle_decide_type5(model: ClassifierModel, report: MatchReport) -> dict[str, Decision]:
    """Accept a Type-5 record iff the model reproduces its label.

    The confidence is reported alongside but never changes the verdict; a
    predicted ``other`` can never equal an entity label, hence rejects. A
    model whose probabilities for a text are not finite, because its
    weights are not or their sum overflows, raises ``ParseError``.
    """
    import numpy as np

    featurize = _Featurizer(model.config.buckets)
    decisions: dict[str, Decision] = {}
    # a model that overflows is reported once, by the check below
    with np.errstate(over="ignore", invalid="ignore"):
        for record in report.type5_records():
            assert record.pred is not None
            probs = _probabilities(model, featurize, record.pred.text)
            best = int(probs.argmax())  # the first NaN, if there is one
            confidence = float(probs[best])
            if not math.isfinite(confidence):
                raise ParseError(
                    "model gives a non-finite probability for record "
                    f"{record.record_id!r}"
                )
            label = model.labels[best]
            verdict = Verdict.ACCEPT if label == record.pred.label else Verdict.REJECT
            decisions[record.record_id] = Decision(
                record.record_id, verdict, label, confidence
            )
    return decisions


# ---------------------------------------------------------------------------
# the chunker's punctuation test, one character at a time


def oracle_is_punctuation(text: str) -> bool:
    return bool(text) and all(ch in string.punctuation for ch in text)


# ---------------------------------------------------------------------------
# JSONL and record ledger readers that parse every line and mention in Python


def oracle_read_jsonl(content: bytes | str, what: str) -> Iterator[tuple[int, dict]]:
    """Yield ``(line number, object)`` for each non-blank line of a JSONL input."""
    for line_no, line in enumerate(decode_utf8(content, what).split("\n"), 1):
        if line.strip():
            yield line_no, parse_json_line(line, line_no, what)


def _mention_from_obj(
    obj: dict | None, doc_id: str, line_no: int
) -> EntityMention | None:
    if obj is None:
        return None
    try:
        start, end = obj["span"]
        label = obj["label"]
        text = obj["text"]
    except (KeyError, TypeError, ValueError):
        raise ParseError("malformed mention object", line_no) from None
    if not is_int(start) or not is_int(end):
        raise ParseError("mention span indices must be integers", line_no)
    if not isinstance(label, str) or not isinstance(text, str):
        raise ParseError("mention label and text must be strings", line_no)
    try:
        return EntityMention(doc_id, start, end, label, text)
    except ValueError as exc:
        raise ParseError(str(exc), line_no) from None


_KINDS = {k.value: k for k in MismatchType}

_SIDES_BY_KIND = {
    MismatchType.EXACT_MATCH: (True, True),
    MismatchType.TYPE1_FALSE_POSITIVE: (True, False),
    MismatchType.TYPE2_FALSE_NEGATIVE: (False, True),
    MismatchType.TYPE3_WRONG_LABEL_RIGHT_SPAN: (True, True),
    MismatchType.TYPE4_WRONG_LABEL_OVERLAP: (True, True),
    MismatchType.TYPE5_RIGHT_LABEL_OVERLAP: (True, True),
}


def oracle_read_ledger(path: str | Path) -> MatchReport:
    """Reconstruct a full match report from a record ledger file.

    A gold span that two records give different labels raises
    ``ParseError``, as every other defect does.
    """
    content = Path(path).read_bytes()
    records: list[MatchRecord] = []
    seen_ids: set[str] = set()
    gold_labels: dict[GoldKey, str] = {}
    for line_no, obj in oracle_read_jsonl(content, "ledger"):
        record_id = obj.get("record_id")
        doc_id = obj.get("doc_id")
        if not isinstance(record_id, str) or not isinstance(doc_id, str):
            raise ParseError("missing 'record_id' or 'doc_id'", line_no)
        if record_id in seen_ids:
            raise ParseError(f"duplicate record id {record_id!r}", line_no)
        seen_ids.add(record_id)
        raw_kind = obj.get("kind")
        kind = _KINDS.get(raw_kind) if isinstance(raw_kind, str) else None
        if kind is None:
            raise ParseError(f"unknown record kind {raw_kind!r}", line_no)
        pred = _mention_from_obj(obj.get("pred"), doc_id, line_no)
        gold = _mention_from_obj(obj.get("gold"), doc_id, line_no)
        want_pred, want_gold = _SIDES_BY_KIND[kind]
        if (pred is not None) != want_pred or (gold is not None) != want_gold:
            raise ParseError(
                f"record kind {kind.value!r} has the wrong mention sides", line_no
            )
        if gold is not None:
            label = gold_labels.setdefault((doc_id, gold.start, gold.end), gold.label)
            if label != gold.label:
                raise ParseError(
                    f"gold span [{gold.start}, {gold.end}) of document {doc_id!r} "
                    f"has labels {label!r} and {gold.label!r}",
                    line_no,
                )
        overlap = obj.get("overlap_tokens")
        if not is_int(overlap) or overlap < 0:
            raise ParseError("invalid 'overlap_tokens'", line_no)
        records.append(MatchRecord(record_id, doc_id, kind, pred, gold, overlap))
    return MatchReport.from_records(records)
