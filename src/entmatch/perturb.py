"""Synthetic prediction corpora with a known mismatch inventory.

Each gold mention draws at most one perturbation: extending or shrinking
its span yields a Type-5 record, splitting it yields two Type-5 records
on the same gold, relabelling yields Type 3, dropping yields Type 2, and
spurious insertions into entity-free token ranges yield Type 1. A
perturbation that would collide with another mention is skipped, not
clipped, so the emitted expectation ledger matches the matcher exactly.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Iterable

from .corpus import Corpus, Document, mention_from_tokens, write_jsonl
from .matcher import MismatchType

_Span = tuple[int, int]


@dataclass(frozen=True)
class PerturbationPlan:
    """Per-mention operation rates plus the top-level seed.

    The five entity-operation rates are branch probabilities of one draw
    per gold mention and must sum to at most 1; the remainder keeps the
    mention untouched. ``insert_rate`` scales the number of spurious-span
    attempts per document.
    """

    seed: int = 0
    extend_rate: float = 0.0
    extend_tokens: int = 1
    shrink_rate: float = 0.0
    shrink_tokens: int = 1
    split_rate: float = 0.0
    relabel_rate: float = 0.0
    drop_rate: float = 0.0
    insert_rate: float = 0.0

    def __post_init__(self):
        rates = {
            "extend_rate": self.extend_rate,
            "shrink_rate": self.shrink_rate,
            "split_rate": self.split_rate,
            "relabel_rate": self.relabel_rate,
            "drop_rate": self.drop_rate,
            "insert_rate": self.insert_rate,
        }
        for name, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {rate}")
        entity_total = sum(v for k, v in rates.items() if k != "insert_rate")
        if entity_total > 1.0 + 1e-9:
            raise ValueError(
                f"entity operation rates sum to {entity_total}, must be <= 1"
            )
        if self.extend_tokens < 1 or self.shrink_tokens < 1:
            raise ValueError("extend_tokens and shrink_tokens must be >= 1")


@dataclass(slots=True)
class ExpectedEntry:
    doc_id: str
    kind: MismatchType
    gold_span: _Span | None
    pred_span: _Span | None
    gold_label: str | None
    pred_label: str | None


@dataclass
class ExpectedLedger:
    entries: list[ExpectedEntry]
    counts: dict[MismatchType, int]

    @classmethod
    def from_entries(cls, entries: Iterable[ExpectedEntry]) -> "ExpectedLedger":
        items = list(entries)
        counts = {k: 0 for k in MismatchType}
        for e in items:
            counts[e.kind] += 1
        return cls(items, counts)


def _overlaps(span: _Span, spans: list[_Span]) -> bool:
    """Whether ``span`` overlaps one of ``spans``, which are sorted and flat."""
    # spans[:i] start before span ends; of those, spans[i - 1] ends last
    i = bisect_left(spans, (span[1],))
    return i > 0 and spans[i - 1][1] > span[0]


def _draw_operation(rng: Random, plan: PerturbationPlan) -> str | None:
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


def perturb(gold: Corpus, plan: PerturbationPlan) -> tuple[Corpus, ExpectedLedger]:
    """Generate a prediction corpus and the ledger the matcher must produce.

    Randomness is drawn from per-document generators seeded with the plan
    seed and the document id, so documents perturb independently and the
    whole run is reproducible.

    A document's golds are sorted and flat, and so are the spans built from
    them, in gold order: those built for ``golds[i]`` end at or before the
    start of ``golds[i + 1]``. So an extension of ``golds[i]`` can collide
    only with ``golds[i - 1]``, ``golds[i + 1]`` or the last span built.
    """
    # relabels and insertions draw from the labels of both sides of ``gold``
    labels = sorted(
        {m.label for d in gold.documents for m in d.gold_entities + d.pred_entities}
    )
    pred_docs: list[Document] = []
    entries: list[ExpectedEntry] = []
    for doc in gold.documents:
        rng = Random(f"{plan.seed}:{doc.doc_id}")
        n = len(doc.tokens)
        golds = doc.gold_entities
        built: list[tuple[int, int, str]] = []

        def expect(
            kind: MismatchType,
            gold_span: _Span | None,
            pred_span: _Span | None,
            gold_label: str | None,
            pred_label: str | None,
        ) -> None:
            entries.append(
                ExpectedEntry(doc.doc_id, kind, gold_span, pred_span, gold_label, pred_label)
            )

        for i, g in enumerate(golds):
            operation = _draw_operation(rng, plan)

            if operation == "extend":
                k = plan.extend_tokens
                if rng.random() < 0.5:
                    span = (g.start - k, g.end)
                    fits = span[0] >= max(
                        golds[i - 1].end if i else 0, built[-1][1] if built else 0
                    )
                else:
                    span = (g.start, g.end + k)
                    fits = span[1] <= (golds[i + 1].start if i + 1 < len(golds) else n)
                if fits:
                    built.append((span[0], span[1], g.label))
                    expect(
                        MismatchType.TYPE5_RIGHT_LABEL_OVERLAP,
                        g.span, span, g.label, g.label,
                    )
                    continue
            elif operation == "shrink":
                k = plan.shrink_tokens
                if g.end - g.start > k:
                    if rng.random() < 0.5:
                        span = (g.start + k, g.end)
                    else:
                        span = (g.start, g.end - k)
                    built.append((span[0], span[1], g.label))
                    expect(
                        MismatchType.TYPE5_RIGHT_LABEL_OVERLAP,
                        g.span, span, g.label, g.label,
                    )
                    continue
            elif operation == "split":
                if g.end - g.start >= 2:
                    middle = rng.randint(g.start + 1, g.end - 1)
                    for span in ((g.start, middle), (middle, g.end)):
                        built.append((span[0], span[1], g.label))
                        expect(
                            MismatchType.TYPE5_RIGHT_LABEL_OVERLAP,
                            g.span, span, g.label, g.label,
                        )
                    continue
            elif operation == "relabel":
                alternatives = [lab for lab in labels if lab != g.label]
                if alternatives:
                    label = rng.choice(alternatives)
                    built.append((g.start, g.end, label))
                    expect(
                        MismatchType.TYPE3_WRONG_LABEL_RIGHT_SPAN,
                        g.span, g.span, g.label, label,
                    )
                    continue
            elif operation == "drop":
                expect(MismatchType.TYPE2_FALSE_NEGATIVE, g.span, None, g.label, None)
                continue

            # No operation drawn, or the drawn one was skipped as infeasible.
            built.append((g.start, g.end, g.label))
            expect(MismatchType.EXACT_MATCH, g.span, g.span, g.label, g.label)

        gold_spans = [m.span for m in golds]
        placed = [(s, e) for s, e, _ in built]
        attempts = int(round(plan.insert_rate * max(1, len(golds))))
        for _ in range(attempts):
            if n == 0:
                break
            start = rng.randrange(n)
            end = min(start + rng.randint(1, 2), n)
            span = (start, end)
            if _overlaps(span, gold_spans) or _overlaps(span, placed):
                continue
            label = rng.choice(labels) if labels else "entity"
            insort(placed, span)
            built.append((start, end, label))
            expect(MismatchType.TYPE1_FALSE_POSITIVE, None, span, None, label)

        pred_mentions = [
            mention_from_tokens(doc.doc_id, doc.tokens, *span) for span in built
        ]
        pred_docs.append(
            Document(doc.doc_id, doc.tokens, doc.sentence_starts, [], pred_mentions)
        )

    return Corpus.from_documents(pred_docs), ExpectedLedger.from_entries(entries)


def write_expected_ledger(ledger: ExpectedLedger, path: str | Path) -> None:
    """Write expectations in the same shape as the matcher's record ledger."""

    def side(span: _Span | None, label: str | None) -> dict | None:
        if span is None:
            return None
        return {"span": [span[0], span[1]], "label": label}

    write_jsonl(
        (
            {
                "doc_id": e.doc_id,
                "kind": e.kind.value,
                "pred": side(e.pred_span, e.pred_label),
                "gold": side(e.gold_span, e.gold_label),
            }
            for e in ledger.entries
        ),
        path,
    )
