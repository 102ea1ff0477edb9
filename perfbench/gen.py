"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed and writes nothing: callers
get text (and the counts the matcher must reproduce) and decide where it
goes. The generators do not import ``entmatch``, so the program under test
never produces its own benchmark inputs.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_left
from collections import Counter
from itertools import accumulate

KINDS = ("exact_match", "type1", "type2", "type3", "type4", "type5")

# ---------------------------------------------------------------------------
# eval_scale: the criterion-10 corpus of tests/test_acceptance.py

SCALE_DOCS = 256
SCALE_TOKENS = 500
SCALE_MAX_GOLD = 122
SCALE_LABELS = ("problem", "treatment", "test")


def _standoff_line(doc_id: str, tokens: list[str], spans) -> str:
    entities = [
        {"start": s, "end": e, "label": label, "source": "gold"} for s, e, label in spans
    ]
    obj = {"doc_id": doc_id, "tokens": tokens, "sentence_starts": [0], "entities": entities}
    return json.dumps(obj, ensure_ascii=False) + "\n"


def scale_corpora(seed: int) -> tuple[str, str, dict[str, int]]:
    """Standoff gold and prediction text plus the mismatch counts they imply.

    At seed 1234 the two texts are byte-identical to the acceptance test's
    ``_scale_corpora()``: the same random draws in the same order, written in
    the layout ``serialize_standoff`` produces (every entity is declared
    ``gold`` because both files are built as gold documents there).
    """
    rng = random.Random(seed)
    tokens = [f"w{i}" for i in range(SCALE_TOKENS)]
    counts = Counter({k: 0 for k in KINDS})
    gold_lines = []
    pred_lines = []
    for d in range(SCALE_DOCS):
        doc_id = f"doc{d:04d}"
        gold_spans = []
        pred_spans = []
        pos = 0
        while pos < SCALE_TOKENS - 4 and len(gold_spans) < SCALE_MAX_GOLD:
            length = rng.randint(1, 3)
            end = min(pos + length, SCALE_TOKENS)
            label = rng.choice(SCALE_LABELS)
            gold_spans.append((pos, end, label))
            roll = rng.random()
            if roll < 0.6:
                pred_spans.append((pos, end, label))
                counts["exact_match"] += 1
            elif roll < 0.75 and end - pos >= 2:
                pred_spans.append((pos, end - 1, label))
                counts["type5"] += 1
            elif roll < 0.85:
                other = rng.choice(SCALE_LABELS)
                pred_spans.append((pos, end, other))
                counts["exact_match" if other == label else "type3"] += 1
            else:
                counts["type2"] += 1
            pos = end + 1
        gold_lines.append(_standoff_line(doc_id, tokens, gold_spans))
        pred_lines.append(_standoff_line(doc_id, tokens, pred_spans))
    return "".join(gold_lines), "".join(pred_lines), dict(counts)


# ---------------------------------------------------------------------------
# Zipfian IOB corpora: cls_refine and judge_external

ZIPF_LABELS = ("PER", "ORG", "LOC", "MISC")
_SUFFIXES = {
    "PER": ("son", "ez", "ova", "ski", "ard"),
    "ORG": ("corp", "tech", "bank", "group", "labs"),
    "LOC": ("ville", "burg", "ton", "stan", "polis"),
    "MISC": ("ism", "cup", "ian", "fest", "ware"),
}
_STOPWORDS = ("the", "of", "and", "in", "to", "a", "for", "with", "on", "was", "by", "at")
_PUNCT = (",", ".", ";", ":", "(", ")")
_ONSETS = "b c d f g h j k l m n p r s t v w z br ch cl dr gr kr pl st th tr".split()
_VOWELS = "a e i o u ai ea ou io".split()

# Per gold mention: which prediction to emit. Type 1 comes from insertions.
ZIPF_PRED_MIX = (("exact_match", 0.70), ("type5", 0.10), ("type3", 0.05), ("type4", 0.05), ("type2", 0.10))
ZIPF_INSERT_RATE = 0.10  # share of long entity-free gaps that get a spurious prediction
ZIPF_ORPHAN_RATE = 0.02  # share of entity starts written as I- after an O tag


class _Zipf:
    """Sample words with probability proportional to 1 / rank."""

    def __init__(self, words: list[str]):
        self.words = words
        self.cum = list(accumulate(1.0 / r for r in range(1, len(words) + 1)))

    def draw(self, rng: random.Random) -> str:
        return self.words[bisect_left(self.cum, rng.random() * self.cum[-1])]


def _vocabulary(rng: random.Random, size: int, suffixes: tuple[str, ...] = ()) -> list[str]:
    words: dict[str, None] = {}
    while len(words) < size:
        stem = "".join(
            rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(rng.randint(1, 3))
        )
        word = stem + rng.choice(suffixes) if suffixes and rng.random() < 0.5 else stem
        words[word.capitalize() if suffixes else word] = None
    return list(words)


def _tag_lines(tokens: list[str], spans, orphan: set[int]) -> list[str]:
    tags = ["O"] * len(tokens)
    for s, e, label in spans:
        tags[s] = f"{'I' if s in orphan else 'B'}-{label}"
        for i in range(s + 1, e):
            tags[i] = f"I-{label}"
    return [f"{t}\t{tag}" for t, tag in zip(tokens, tags)]


def _orphans(rng: random.Random, spans) -> set[int]:
    """Entity starts after an O tag (or at the sentence start) to write as I-.

    Spans are flat, so the token before a start is tagged exactly when some
    span ends there; an I- after a same-label entity would merge the two.
    """
    ends = {e for _, e, _ in spans}
    return {s for s, _, _ in spans if s not in ends and rng.random() < ZIPF_ORPHAN_RATE}


def zipf_corpora(seed: int, docs: int, sentences: int) -> tuple[str, str, dict[str, int]]:
    """IOB2 gold and prediction text over Zipfian vocabularies, plus counts.

    Each sentence alternates filler runs and gold mentions; every mention is
    followed by at least two filler tokens, so a one-token extension never
    touches a neighbour. Each gold mention draws one prediction kind from
    ``ZIPF_PRED_MIX``; inner tokens of long gaps take Type-1 insertions. The
    returned counts are the matcher's expected ``mismatch_counts``.
    """
    rng = random.Random(seed)
    entity_words = {label: _Zipf(_vocabulary(rng, 4000, _SUFFIXES[label])) for label in ZIPF_LABELS}
    filler = _Zipf(_vocabulary(rng, 8000))
    kinds, weights = zip(*ZIPF_PRED_MIX)
    counts = Counter({k: 0 for k in KINDS})
    gold_out: list[str] = []
    pred_out: list[str] = []

    def filler_token() -> str:
        roll = rng.random()
        if roll < 0.35:
            return rng.choice(_STOPWORDS)
        if roll < 0.45:
            return rng.choice(_PUNCT)
        if roll < 0.50:
            return str(rng.randint(1, 2030))
        return filler.draw(rng)

    for d in range(docs):
        doc_id = f"doc{d:04d}"
        gold_out.append(f"-DOCSTART- {doc_id}\n")
        pred_out.append(f"-DOCSTART- {doc_id}\n")
        for _ in range(sentences):
            tokens = [filler_token() for _ in range(rng.randint(0, 3))]
            gold: list[tuple[int, int, str]] = []
            gaps: list[tuple[int, int]] = []
            for _ in range(rng.choice((1, 1, 2, 2, 3, 3, 4))):
                label = rng.choice(ZIPF_LABELS)
                length = rng.choices((1, 2, 3, 4), (30, 35, 25, 10))[0]
                start = len(tokens)
                tokens += [entity_words[label].draw(rng) for _ in range(length)]
                gold.append((start, start + length, label))
                gap_start = len(tokens)
                tokens += [filler_token() for _ in range(rng.randint(2, 6))]
                gaps.append((gap_start, len(tokens)))
            pred: list[tuple[int, int, str]] = []
            for s, e, label in gold:
                kind = rng.choices(kinds, weights)[0]
                other = rng.choice([x for x in ZIPF_LABELS if x != label])
                if kind in ("type5", "type4"):
                    if e - s >= 2 and rng.random() < 0.5:
                        span = (s + 1, e) if rng.random() < 0.5 else (s, e - 1)
                    elif s > 0 and rng.random() < 0.5:  # token s - 1 is filler
                        span = (s - 1, e)
                    else:
                        span = (s, e + 1)
                    pred.append((*span, label if kind == "type5" else other))
                elif kind == "type3":
                    pred.append((s, e, other))
                elif kind == "exact_match":
                    pred.append((s, e, label))
                counts[kind] += 1
            for a, b in gaps:
                if b - a >= 4 and rng.random() < ZIPF_INSERT_RATE:
                    pos = rng.randrange(a + 1, b - 1)
                    pred.append((pos, pos + 1, rng.choice(ZIPF_LABELS)))
                    counts["type1"] += 1
            pred.sort()
            gold_o, pred_o = _orphans(rng, gold), _orphans(rng, pred)
            gold_out.append("\n".join(_tag_lines(tokens, gold, gold_o)) + "\n\n")
            pred_out.append("\n".join(_tag_lines(tokens, pred, pred_o)) + "\n\n")
    return "".join(gold_out), "".join(pred_out), dict(counts)


# ---------------------------------------------------------------------------
# judge_external: external classifier responses and expert scores

RESPONSE_OWN_LABEL_RATE = 0.7


def responses_and_scores(
    seed: int, type5: list[tuple[str, str]], labels: list[str]
) -> tuple[str, str, int]:
    """Response and score files for the given ``(record_id, own label)`` list.

    Returns the response JSONL, the score JSONL and how many responses carry
    the record's own label, which is the accepted count ``refine`` must
    report.
    """
    rng = random.Random(f"responses:{seed}")
    responses = []
    scores = []
    own = 0
    for rid, label in type5:
        if rng.random() < RESPONSE_OWN_LABEL_RATE:
            answer = label
            own += 1
        else:
            answer = rng.choice([x for x in labels + ["other"] if x != label])
        responses.append(
            json.dumps({"id": rid, "label": answer, "confidence": round(rng.random(), 4)}) + "\n"
        )
        scores.append(json.dumps({"record_id": rid, "score": rng.randint(1, 5)}) + "\n")
    return "".join(responses), "".join(scores), own
