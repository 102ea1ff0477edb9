"""Synthetic prediction corpora with a known mismatch inventory.

Each gold mention draws at most one perturbation: extending or shrinking
its span yields a Type-5 record, splitting it yields two Type-5 records
on the same gold, relabelling yields Type 3, dropping yields Type 2, and
spurious insertions into entity-free token ranges yield Type 1. A
perturbation that would collide with another mention is skipped, not
clipped, so the returned match report is the matcher's exactly.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from itertools import accumulate
from json.encoder import encode_basestring
from pathlib import Path
from random import Random

from .corpus import Corpus, Document, EntityMention, write_lines
from .matcher import MatchRecord, MatchReport, MismatchType, token_overlap

_EXACT = MismatchType.EXACT_MATCH
_TYPE1 = MismatchType.TYPE1_FALSE_POSITIVE
_TYPE2 = MismatchType.TYPE2_FALSE_NEGATIVE
_TYPE3 = MismatchType.TYPE3_WRONG_LABEL_RIGHT_SPAN
_TYPE5 = MismatchType.TYPE5_RIGHT_LABEL_OVERLAP
# the operations of one gold mention's draw, in the order their rates cut
# [0, 1) into intervals; the rest of [0, 1) draws none
_OPERATIONS = ("extend", "shrink", "split", "relabel", "drop")


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
        for name in [f"{op}_rate" for op in _OPERATIONS] + ["insert_rate"]:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {rate}")
        entity_total = sum(getattr(self, f"{op}_rate") for op in _OPERATIONS)
        if entity_total > 1.0 + 1e-9:
            raise ValueError(
                f"entity operation rates sum to {entity_total}, must be <= 1"
            )
        if self.extend_tokens < 1 or self.shrink_tokens < 1:
            raise ValueError("extend_tokens and shrink_tokens must be >= 1")


def _overlaps(span: tuple[int, int], spans: list[tuple[int, int]]) -> bool:
    """Whether ``span`` overlaps one of ``spans``, which are sorted and flat."""
    # spans[:i] start before span ends; of those, spans[i - 1] ends last
    i = bisect_left(spans, (span[1],))
    return i > 0 and spans[i - 1][1] > span[0]


def perturb(gold: Corpus, plan: PerturbationPlan) -> tuple[Corpus, MatchReport]:
    """Generate a prediction corpus and the match report the matcher must produce.

    Randomness is drawn from per-document generators seeded with the plan
    seed and the document id, so documents perturb independently and the
    whole run is reproducible.

    A document's golds are sorted and flat, and so are the spans built from
    them, in gold order: those built for ``golds[i]`` end at or before the
    start of ``golds[i + 1]``. So an extension of ``golds[i]`` can collide
    only with ``golds[i - 1]``, ``golds[i + 1]`` or the last span built.

    The report's records come in the order the expected ledger lists them:
    each document's golds in order, then its insertions. Their
    ``record_id`` is ``<doc_id>:<ordinal>`` in that order, which is not the
    matcher's order (by prediction start), so an id need not name the same
    record in the report ``classify_corpus`` gives for the same corpora.
    """
    # relabels and insertions draw from the labels of both sides of ``gold``
    labels = sorted(
        {m.label for d in gold.documents for m in d.gold_entities + d.pred_entities}
    )
    # the ends of the operations' intervals
    ends = list(accumulate(getattr(plan, f"{op}_rate") for op in _OPERATIONS))
    pred_docs: list[Document] = []
    records: list[MatchRecord] = []
    for doc in gold.documents:
        doc_id, tokens = doc.doc_id, doc.tokens
        rng = Random(f"{plan.seed}:{doc_id}")
        n = len(tokens)
        golds = doc.gold_entities
        built: list[EntityMention] = []
        first = len(records)

        for i, g in enumerate(golds):
            i_op = bisect_right(ends, rng.random())
            operation = _OPERATIONS[i_op] if i_op < len(_OPERATIONS) else None
            # no operation drawn, or the drawn one infeasible: an exact copy
            kind, label, spans = _EXACT, g.label, ((g.start, g.end),)

            if operation == "extend":
                k = plan.extend_tokens
                if rng.random() < 0.5:
                    span = (g.start - k, g.end)
                    fits = span[0] >= max(
                        golds[i - 1].end if i else 0, built[-1].end if built else 0
                    )
                else:
                    span = (g.start, g.end + k)
                    fits = span[1] <= (golds[i + 1].start if i + 1 < len(golds) else n)
                if fits:
                    kind, spans = _TYPE5, (span,)
            elif operation == "shrink":
                k = plan.shrink_tokens
                if g.end - g.start > k:
                    if rng.random() < 0.5:
                        kind, spans = _TYPE5, ((g.start + k, g.end),)
                    else:
                        kind, spans = _TYPE5, ((g.start, g.end - k),)
            elif operation == "split":
                if g.end - g.start >= 2:
                    middle = rng.randint(g.start + 1, g.end - 1)
                    kind, spans = _TYPE5, ((g.start, middle), (middle, g.end))
            elif operation == "relabel":
                alternatives = [lab for lab in labels if lab != g.label]
                if alternatives:
                    kind, label = _TYPE3, rng.choice(alternatives)
            elif operation == "drop":
                kind, spans = _TYPE2, ()

            for s, e in spans:
                p = EntityMention(doc_id, s, e, label, " ".join(tokens[s:e]))
                built.append(p)
                records.append(
                    MatchRecord(
                        f"{doc_id}:{len(records) - first}",
                        doc_id, kind, p, g, token_overlap(p, g),
                    )
                )
            if not spans:  # a dropped gold
                records.append(
                    MatchRecord(f"{doc_id}:{len(records) - first}", doc_id, kind, None, g, 0)
                )

        gold_spans = [m.span for m in golds]
        placed = [p.span for p in built]
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
            p = EntityMention(doc_id, start, end, label, " ".join(tokens[start:end]))
            built.append(p)
            records.append(
                MatchRecord(f"{doc_id}:{len(records) - first}", doc_id, _TYPE1, p, None, 0)
            )

        pred_docs.append(Document(doc_id, tokens, doc.sentence_starts, [], built))

    return Corpus.from_documents(pred_docs), MatchReport.from_records(records)


def _side_json(m: EntityMention | None) -> str:
    if m is None:
        return "null"
    return f'{{"span": [{m.start}, {m.end}], "label": {encode_basestring(m.label)}}}'


def write_expected_ledger(report: MatchReport, path: str | Path) -> None:
    """Write a report's records in the record ledger's shape, without ids,
    texts and overlaps: ``doc_id``, ``kind``, ``pred`` and ``gold``.

    Each line is ``json.dumps(record, ensure_ascii=False)`` of those four
    fields, built by one f-string as ``matcher.write_ledger`` builds its own.
    """
    write_lines(
        [
            f'{{"doc_id": {encode_basestring(r.doc_id)}, '
            f'"kind": "{r.kind.value}", '
            f'"pred": {_side_json(r.pred)}, "gold": {_side_json(r.gold)}}}\n'
            for r in report.records
        ],
        path,
    )
