"""Independent reference implementations and random-input generators.

The oracle classifies a document by exhaustive scanning with explicit
bookkeeping, sharing no code with the library's staged matcher, and the
recount helpers recompute scores straight from entity lists.
``oracle_parse_iob`` is the two-pass IOB reader that the library's
one-pass ``parse_iob`` replaced, kept as it was. Tests compare library
output against these.
"""

from __future__ import annotations

import logging
import random
import re
from collections import Counter

from entmatch.corpus import (
    Corpus,
    Document,
    EntityMention,
    ParseError,
    Source,
    TagScheme,
    build_document,
    decode_utf8,
)
from entmatch.matcher import MismatchType

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

    labels = list(gold.label_set)
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
