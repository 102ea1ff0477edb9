"""Deterministic staged matching of predicted against gold mentions.

Every prediction ends up in exactly one record; a gold mention may anchor
several overlap records without being consumed. Stages run in a fixed
priority order:

1. identical span and label        -> exact match, both sides consumed
2. identical span, different label -> Type 3, both sides consumed
3. same-label overlap              -> Type 5, anchored to the gold with the
   largest token overlap (ties: leftmost start, which a flat side never
   repeats); the prediction is consumed, the anchor is marked covered but
   stays available as an anchor for further predictions
4. different-label overlap         -> Type 4, same anchoring rule
5. leftover predictions            -> Type 1; untouched golds -> Type 2

Overlap is measured in whole tokens, minimum one. A gold consumed in stages
1-2 is never an anchor in stages 3-4: it has its prediction's span, and flat
predictions leave no other prediction overlapping it.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from json.encoder import encode_basestring
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import (
    Corpus,
    EntityMention,
    ParseError,
    Source,
    check_flat,
    open_output,
    read_jsonl,
)


class MismatchType(Enum):
    EXACT_MATCH = "exact_match"
    TYPE1_FALSE_POSITIVE = "type1"
    TYPE2_FALSE_NEGATIVE = "type2"
    TYPE3_WRONG_LABEL_RIGHT_SPAN = "type3"
    TYPE4_WRONG_LABEL_OVERLAP = "type4"
    TYPE5_RIGHT_LABEL_OVERLAP = "type5"

    # Enum hashes a member's name in Python code; members are singletons,
    # so the identity hash is equivalent and runs in C
    __hash__ = object.__hash__


_EXACT, _TYPE1, _TYPE2, _TYPE3, _TYPE4, _TYPE5 = MismatchType  # definition order
ERROR_TYPES: tuple[MismatchType, ...] = tuple(k for k in MismatchType if k is not _EXACT)

# (doc_id, start, end): unique per gold mention because gold spans are flat.
GoldKey = tuple[str, int, int]

_KIND_BITS = {kind: 1 << i for i, kind in enumerate(MismatchType)}


def kinds_mask(kinds: Iterable[MismatchType]) -> int:
    """The bitmask of a set of kinds, as ``MatchReport.gold_masks`` holds them."""
    return sum(_KIND_BITS[kind] for kind in set(kinds))


@dataclass(slots=True)
class MatchRecord:
    record_id: str
    doc_id: str
    kind: MismatchType
    pred: EntityMention | None
    gold: EntityMention | None
    overlap_tokens: int

    def gold_key(self) -> GoldKey | None:
        if self.gold is None:
            return None
        return (self.doc_id, self.gold.start, self.gold.end)


def token_overlap(a: EntityMention, b: EntityMention) -> int:
    return max(0, min(a.end, b.end) - max(b.start, a.start))


def classify_document(
    gold: Sequence[EntityMention], pred: Sequence[EntityMention]
) -> list[MatchRecord]:
    """Classify one document's predictions against its gold mentions.

    Returns one record per prediction in start order, then the Type-2
    records in gold start order, with ids ``<doc_id>:<ordinal>``. That is
    the records sorted by prediction span, then gold span (records without
    a prediction last), and no sort is needed: each side is flat and sorted
    by start, and every prediction lands in exactly one record. The mentions
    may come in any order; overlapping ones on one side raise
    ``ParseError``.
    """
    doc_ids = {m.doc_id for m in [*gold, *pred]}
    if len(doc_ids) > 1:
        raise ValueError(f"mentions from multiple documents: {sorted(doc_ids)}")
    if not doc_ids:
        return []
    doc_id = doc_ids.pop()
    return _classify(
        doc_id,
        check_flat(doc_id, gold, Source.GOLD),
        check_flat(doc_id, pred, Source.PREDICTED),
    )


def _classify(
    doc_id: str, golds: Sequence[EntityMention], preds: Sequence[EntityMention]
) -> list[MatchRecord]:
    """``classify_document`` on sides that are each sorted by start and flat.

    One pass over the predictions emits each record in its final order, so
    nothing is staged or sorted. Span-identical pairing (stages 1-2) is
    unique within flat sides, and anchor choice (stages 3-4) never consumes
    a gold, so settling each prediction on its own equals running the
    stages one after another.
    """
    gold_by_span = {(g.start, g.end): g for g in golds}
    starts = [g.start for g in golds]
    anchored: set[int] = set()  # starts of the golds a prediction's record holds
    records = []
    for i, p in enumerate(preds):
        start, end, label = p.start, p.end, p.label
        g = gold_by_span.get((start, end))
        if g is not None:
            kind = _EXACT if g.label == label else _TYPE3
            overlap = end - start
        else:
            # the golds that overlap p, right to left; rank: token overlap,
            # then leftmost start (distinct on a flat side)
            best_same = best_diff = None
            j = bisect_left(starts, end) - 1
            while j >= 0 and golds[j].end > start:
                g = golds[j]
                rank = (min(end, g.end) - max(start, g.start), -g.start)
                if g.label == label:
                    if best_same is None or rank > best_same[0]:
                        best_same = (rank, g)
                elif best_diff is None or rank > best_diff[0]:
                    best_diff = (rank, g)
                j -= 1
            if best_same is not None:
                kind = _TYPE5
                (overlap, _), g = best_same
            elif best_diff is not None:
                kind = _TYPE4
                (overlap, _), g = best_diff
            else:
                kind, g, overlap = _TYPE1, None, 0
        if g is not None:
            anchored.add(g.start)
        records.append(MatchRecord(f"{doc_id}:{i}", doc_id, kind, p, g, overlap))
    i = len(preds)
    for g in golds:
        if g.start not in anchored:
            records.append(MatchRecord(f"{doc_id}:{i}", doc_id, _TYPE2, None, g, 0))
            i += 1
    return records


@dataclass
class MatchReport:
    """All match records of a corpus plus derived totals.

    Totals are reconstructed from the records themselves: every prediction
    appears in exactly one record and every gold mention in at least one,
    so a report round-trips losslessly through the record ledger.
    Per-label counts tally each record under its gold label when a gold
    side is present, otherwise under its prediction label.

    The tallies that scoring reads are kept as well, so that no convention
    passes over the records again: ``pred_kind_counts`` counts predictions
    by (label, record kind), ``gold_masks`` holds the ``kinds_mask`` of each
    gold's records, ``gold_mask_counts`` counts golds by (label, mask), and
    ``type5`` holds the Type-5 records.
    """

    records: list[MatchRecord]
    counts: dict[MismatchType, int]
    per_label_counts: dict[str, dict[MismatchType, int]]
    gold_total: int
    pred_total: int
    gold_by_label: dict[str, int]
    pred_by_label: dict[str, int]
    pred_kind_counts: dict[tuple[str, MismatchType], int]
    gold_masks: dict[GoldKey, int]
    gold_mask_counts: dict[tuple[str, int], int]
    type5: list[MatchRecord]

    @classmethod
    def from_records(cls, records: Iterable[MatchRecord]) -> "MatchReport":
        recs = list(records)
        # records by (prediction label or None, gold label or None, kind)
        tally: dict[tuple[str | None, str | None, MismatchType], int] = {}
        gold_labels: dict[GoldKey, str] = {}
        gold_masks: dict[GoldKey, int] = {}
        tally_get, mask_get, bits = tally.get, gold_masks.get, _KIND_BITS
        type5 = []
        for r in recs:
            kind, pred, gold = r.kind, r.pred, r.gold
            if gold is None:
                key = (pred.label, None, kind)  # type: ignore[union-attr]
            else:
                label = gold.label
                key = (pred and pred.label, label, kind)
                gold_key = (r.doc_id, gold.start, gold.end)
                gold_labels[gold_key] = label
                gold_masks[gold_key] = mask_get(gold_key, 0) | bits[kind]
                if kind is _TYPE5:
                    type5.append(r)
            tally[key] = tally_get(key, 0) + 1
        counts = dict.fromkeys(MismatchType, 0)
        per_label: dict[str, dict[MismatchType, int]] = {}
        pred_kind_counts: Counter[tuple[str, MismatchType]] = Counter()
        for (pred_label, gold_label, kind), n in tally.items():
            counts[kind] += n
            label = pred_label if gold_label is None else gold_label
            if label not in per_label:
                per_label[label] = dict.fromkeys(MismatchType, 0)
            per_label[label][kind] += n
            if pred_label is not None:
                pred_kind_counts[pred_label, kind] += n
        pred_by_label: Counter[str] = Counter()
        for (label, _), n in pred_kind_counts.items():
            pred_by_label[label] += n
        gold_mask_counts = Counter(zip(gold_labels.values(), gold_masks.values()))
        gold_by_label: Counter[str] = Counter()
        for (label, _), n in gold_mask_counts.items():
            gold_by_label[label] += n
        return cls(
            recs,
            counts,
            per_label,
            len(gold_labels),
            sum(pred_by_label.values()),
            dict(sorted(gold_by_label.items())),
            dict(sorted(pred_by_label.items())),
            dict(pred_kind_counts),
            gold_masks,
            dict(gold_mask_counts),
            type5,
        )

    def error_total(self) -> int:
        return sum(self.counts[k] for k in ERROR_TYPES)

    def type5_records(self) -> list[MatchRecord]:
        return self.type5

    def labels(self) -> list[str]:
        return sorted(set(self.gold_by_label) | set(self.pred_by_label))


def classify_corpus(corpus: Corpus) -> MatchReport:
    """Classify every document of an aligned corpus; records sort by doc id."""
    records: list[MatchRecord] = []
    for doc in sorted(corpus.documents, key=lambda d: d.doc_id):
        records.extend(_classify(doc.doc_id, doc.gold_entities, doc.pred_entities))
    return MatchReport.from_records(records)


# ---------------------------------------------------------------------------
# record ledger (line-delimited JSON)


def _mention_json(m: EntityMention | None) -> str:
    if m is None:
        return "null"
    return (
        f'{{"span": [{m.start}, {m.end}], "label": {encode_basestring(m.label)}, '
        f'"text": {encode_basestring(m.text)}}}'
    )


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
    # type(x) is int excludes bool, as is_int does
    if type(start) is not int or type(end) is not int:
        raise ParseError("mention span indices must be integers", line_no)
    if type(label) is not str or type(text) is not str:
        raise ParseError("mention label and text must be strings", line_no)
    try:
        return EntityMention(doc_id, start, end, label, text)
    except ValueError as exc:
        raise ParseError(str(exc), line_no) from None


_KINDS = {k.value: k for k in MismatchType}
KIND_VALUES = {k: k.value for k in MismatchType}  # Enum.value is a Python property

_SIDES_BY_KIND = {
    MismatchType.EXACT_MATCH: (True, True),
    MismatchType.TYPE1_FALSE_POSITIVE: (True, False),
    MismatchType.TYPE2_FALSE_NEGATIVE: (False, True),
    MismatchType.TYPE3_WRONG_LABEL_RIGHT_SPAN: (True, True),
    MismatchType.TYPE4_WRONG_LABEL_OVERLAP: (True, True),
    MismatchType.TYPE5_RIGHT_LABEL_OVERLAP: (True, True),
}


def write_ledger(report: MatchReport, path: str | Path) -> None:
    """Write the record ledger, one JSON object per record.

    Each line is the bytes ``json.dumps(record, ensure_ascii=False)`` gives,
    built by one f-string with the encoder ``json`` uses for strings; lines
    are streamed, so the ledger is never held whole in memory.
    """
    with open_output(path) as fh:
        fh.writelines(
            f'{{"record_id": {encode_basestring(r.record_id)}, '
            f'"doc_id": {encode_basestring(r.doc_id)}, '
            f'"kind": "{KIND_VALUES[r.kind]}", '
            f'"pred": {_mention_json(r.pred)}, '
            f'"gold": {_mention_json(r.gold)}, '
            f'"overlap_tokens": {r.overlap_tokens}}}\n'
            for r in report.records
        )


def read_ledger(path: str | Path) -> MatchReport:
    """Reconstruct a full match report from a record ledger file.

    A gold span that two records give different labels raises
    ``ParseError``, as every other defect does.
    """
    content = Path(path).read_bytes()
    records: list[MatchRecord] = []
    seen_ids: set[str] = set()
    gold_labels: dict[GoldKey, str] = {}
    for line_no, obj in read_jsonl(content, "ledger"):
        record_id = obj.get("record_id")
        doc_id = obj.get("doc_id")
        if type(record_id) is not str or type(doc_id) is not str:
            raise ParseError("missing 'record_id' or 'doc_id'", line_no)
        if record_id in seen_ids:
            raise ParseError(f"duplicate record id {record_id!r}", line_no)
        seen_ids.add(record_id)
        raw_kind = obj.get("kind")
        kind = _KINDS.get(raw_kind) if type(raw_kind) is str else None
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
        if type(overlap) is not int or overlap < 0:
            raise ParseError("invalid 'overlap_tokens'", line_no)
        records.append(MatchRecord(record_id, doc_id, kind, pred, gold, overlap))
    return MatchReport.from_records(records)
