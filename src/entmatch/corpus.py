"""Readers and writers for gold and predicted entity annotations.

Two ingestion formats are supported: token-per-line IOB files (IOB2 or
IOB1 tag schemes) and line-delimited JSON standoff files. Independently
parsed gold and prediction corpora are paired into a single aligned
corpus before matching.

A document holds what a standoff line holds: its token texts, the token
indices where its sentences start, and its gold and predicted mentions.
Positions are token indices throughout; a mention's surface text is
its covered tokens joined by single spaces.

Every entmatch input file is read through the helpers here:
``decode_utf8`` turns its bytes into text, ``parse_json_line`` turns one
line into a JSON object, ``read_jsonl`` yields that object for each
non-blank line (each raises ``ParseError`` for bad input), and ``is_int``
tells a JSON integer from ``true``/``false``. Every output file is opened
through ``open_output``, and every JSONL output but the record ledger is
written by ``write_jsonl``.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, chain
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

log = logging.getLogger(__name__)

_IOB_TAG_RE = re.compile(r"([BI])-(.*)\Z", re.DOTALL)
_SURROGATE_RE = re.compile("[\ud800-\udfff]")
# A JSON escape of a UTF-16 surrogate: only a line of UTF-8 text that holds
# one can decode to a lone surrogate.
_SURROGATE_ESCAPE_RE = re.compile(r"\\u[dD][89a-fA-F]")


class ParseError(ValueError):
    """Malformed annotation input; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class AlignmentError(ValueError):
    """Gold and prediction corpora do not describe the same documents."""


def decode_utf8(content: bytes | str, what: str) -> str:
    """The text of an input file; bytes that are not UTF-8 raise ``ParseError``."""
    if isinstance(content, str):
        return content
    try:
        return content.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} is not valid UTF-8: {exc}") from None


def read_jsonl(content: bytes | str, what: str) -> Iterator[tuple[int, dict]]:
    """Yield ``(line number, object)`` for each non-blank line of a JSONL input."""
    for line_no, line in enumerate(decode_utf8(content, what).split("\n"), 1):
        if line.strip():
            yield line_no, parse_json_line(line, line_no, what)


def parse_json_line(line: str, line_no: int, what: str) -> dict:
    """The JSON object on one line of a ``what`` input.

    A line that is not JSON, not a JSON object, or holds a lone UTF-16
    surrogate raises ``ParseError``.
    """
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line_no) from None
    if not isinstance(obj, dict):
        raise ParseError(f"{what} line must be a JSON object", line_no)
    if _SURROGATE_ESCAPE_RE.search(line) and has_lone_surrogate(obj):
        raise ParseError(f"{what} line holds a lone UTF-16 surrogate", line_no)
    return obj


# json.dumps(obj, ensure_ascii=False) builds a new encoder on each call
_JSONL_ENCODER = json.JSONEncoder(ensure_ascii=False)


def write_jsonl(objects: Iterable[dict], path: str | Path) -> None:
    """Write one ``json.dumps(obj, ensure_ascii=False)`` line per object."""
    with open_output(path) as fh:
        fh.writelines(_JSONL_ENCODER.encode(obj) + "\n" for obj in objects)


def has_lone_surrogate(value: object) -> bool:
    """Whether a decoded JSON value holds a lone UTF-16 surrogate.

    JSON may escape one (``"\\ud800"``), but no UTF-8 output can encode it.
    """
    # ensure_ascii=False leaves a lone surrogate in the text as it is
    return _SURROGATE_RE.search(json.dumps(value, ensure_ascii=False)) is not None


def open_output(path: str | Path, binary: bool = False) -> IO:
    """Open an output file for writing: created, or truncated where it exists."""
    if binary:
        return open(path, "wb")
    return open(path, "w", encoding="utf-8")


def is_int(value: object) -> bool:
    """Whether a JSON value is an integer; ``true`` and ``false`` are not."""
    return isinstance(value, int) and not isinstance(value, bool)


class Source(Enum):
    GOLD = "gold"
    PREDICTED = "predicted"


class TagScheme(Enum):
    IOB2 = "iob2"
    IOB1 = "iob1"


@dataclass(slots=True)
class EntityMention:
    """A labelled token span; ``start``/``end`` are half-open token indices.

    Its side, gold or predicted, is the ``Document`` list that holds it.
    """

    doc_id: str
    start: int
    end: int
    label: str
    text: str

    def __post_init__(self):
        if self.start < 0 or self.start >= self.end:
            raise ValueError(f"invalid span [{self.start}, {self.end})")
        if not self.label or self.label == "O":
            raise ValueError(f"invalid entity label {self.label!r}")

    @property
    def span(self) -> tuple[int, int]:
        return (self.start, self.end)

    def length(self) -> int:
        return self.end - self.start


@dataclass
class Document:
    """One document; ``sentence_starts`` are the first token index of each sentence.

    Each side's mentions are sorted by start and flat (no two overlap): the
    constructor sorts them and raises ``ParseError`` for an overlap, so
    code that reads a document's mentions neither sorts nor checks them.
    """

    doc_id: str
    tokens: tuple[str, ...]
    sentence_starts: tuple[int, ...]
    gold_entities: list[EntityMention]
    pred_entities: list[EntityMention]

    def __post_init__(self):
        self.gold_entities = check_flat(self.doc_id, self.gold_entities, Source.GOLD)
        self.pred_entities = check_flat(
            self.doc_id, self.pred_entities, Source.PREDICTED
        )

    def entities(self, source: Source) -> list[EntityMention]:
        return self.gold_entities if source is Source.GOLD else self.pred_entities


@dataclass
class Corpus:
    documents: list[Document]
    label_set: tuple[str, ...]

    @classmethod
    def from_documents(cls, documents: Iterable[Document]) -> "Corpus":
        docs = list(documents)
        seen: set[str] = set()
        for doc in docs:
            if doc.doc_id in seen:
                raise ParseError(f"duplicate document id {doc.doc_id!r}")
            seen.add(doc.doc_id)
        labels = sorted(
            {m.label for d in docs for m in d.gold_entities + d.pred_entities}
        )
        return cls(docs, tuple(labels))

    def total_entities(self, source: Source) -> int:
        return sum(len(d.entities(source)) for d in self.documents)


# ---------------------------------------------------------------------------
# document assembly helpers


def mention_from_tokens(
    doc_id: str, tokens: Sequence[str], start: int, end: int, label: str
) -> EntityMention:
    """Build a mention whose surface text is the space-joined covered tokens."""
    if start < 0 or end > len(tokens) or start >= end:
        raise ParseError(
            f"span [{start}, {end}) outside document {doc_id!r} "
            f"bounds [0, {len(tokens)})"
        )
    text = " ".join(tokens[start:end])
    return EntityMention(doc_id, start, end, label.strip(), text)


def check_flat(
    doc_id: str, mentions: Iterable[EntityMention], source: Source
) -> list[EntityMention]:
    """One side of a document sorted by start; an overlap raises ``ParseError``."""
    ordered = sorted(mentions, key=lambda m: (m.start, m.end))
    for a, b in zip(ordered, ordered[1:]):
        if b.start < a.end:
            raise ParseError(
                f"overlapping {source.value} spans [{a.start},{a.end}) and "
                f"[{b.start},{b.end}) in document {doc_id!r}"
            )
    return ordered


def build_document(
    doc_id: str,
    sentences: Sequence[Sequence[str]],
    gold: Iterable[tuple[int, int, str]] = (),
    pred: Iterable[tuple[int, int, str]] = (),
) -> Document:
    """Construct a document from sentence token texts and (start, end, label) spans."""
    tokens = tuple(text for sentence in sentences for text in sentence)
    if not all(tokens):
        raise ValueError("token text must be non-empty")
    offsets = accumulate((len(sentence) for sentence in sentences), initial=0)
    starts = tuple(start for start, sentence in zip(offsets, sentences) if sentence)
    gold_mentions = [mention_from_tokens(doc_id, tokens, *span) for span in gold]
    pred_mentions = [mention_from_tokens(doc_id, tokens, *span) for span in pred]
    return Document(doc_id, tokens, starts, gold_mentions, pred_mentions)


# ---------------------------------------------------------------------------
# IOB parsing


def parse_iob(
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

    Each line is read once and its tag decoded as it is read; a document
    is built when the next ``-DOCSTART-`` or the end of the file closes
    it. Entity state resets at sentence boundaries: ``B-`` always opens an
    entity, and ``I-`` extends an open same-label entity or opens one.
    """
    lines = enumerate(decode_utf8(content, "IOB file").split("\n"), 1)
    documents: list[Document] = []
    seen_ids: set[str] = set()
    doc_id, explicit = "doc0", False
    tokens: list[str] = []
    starts: list[int] = []
    spans: list[list] = []  # [start, end, label] of each mention
    in_sentence = False
    open_label: str | None = None  # the label an I- tag extends
    # a -DOCSTART- after the last line closes the last document
    for line_no, line in chain(lines, [(None, "-DOCSTART-")]):
        stripped = line.strip()
        if not stripped:
            in_sentence, open_label = False, None
            continue
        if stripped.startswith("-DOCSTART-"):
            if tokens or explicit:
                if doc_id in seen_ids:
                    raise ParseError(f"duplicate document id {doc_id!r}", line_no)
                seen_ids.add(doc_id)
                mentions = [
                    EntityMention(doc_id, s, e, label, " ".join(tokens[s:e]))
                    for s, e, label in spans
                ]
                gold, pred = (mentions, []) if source is Source.GOLD else ([], mentions)
                documents.append(
                    Document(doc_id, tuple(tokens), tuple(starts), gold, pred)
                )
            rest = stripped[len("-DOCSTART-"):].strip()
            doc_id, explicit = rest or f"doc{len(documents)}", True
            tokens, starts, spans = [], [], []
            in_sentence, open_label = False, None
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
        if tag == "O":
            open_label = None
        else:
            m = _IOB_TAG_RE.fullmatch(tag)
            label = m.group(2).strip() if m else ""
            if label in ("", "O"):
                raise ParseError(f"malformed tag {tag!r}", line_no)
            if m.group(1) == "I" and label == open_label:
                spans[-1][1] += 1
            else:
                if m.group(1) == "I" and scheme is TagScheme.IOB2:
                    log.warning(
                        "line %d: orphan tag I-%s repaired to B-%s",
                        line_no,
                        label,
                        label,
                    )
                spans.append([len(tokens), len(tokens) + 1, label])
                open_label = label
        if not in_sentence:
            starts.append(len(tokens))
            in_sentence = True
        tokens.append(token_text)
    return Corpus.from_documents(documents)


def iob2_tags(document: Document, source: Source) -> list[str]:
    """Encode one side of a document back into an IOB2 tag sequence."""
    tags = ["O"] * len(document.tokens)
    for m in document.entities(source):
        tags[m.start] = f"B-{m.label}"
        for i in range(m.start + 1, m.end):
            tags[i] = f"I-{m.label}"
    return tags


# ---------------------------------------------------------------------------
# standoff parsing and serialization


def parse_standoff(content: bytes | str) -> Corpus:
    """Parse a line-delimited JSON standoff file into a corpus.

    Each line is one document object with ``doc_id``, ``tokens`` and
    ``entities`` (token-index half-open spans, explicit per-entity
    ``source``). An optional ``sentence_starts`` field preserves sentence
    structure; without it the document is a single sentence.
    """
    documents = [
        _document_from_standoff(obj, line_no)
        for line_no, obj in read_jsonl(content, "standoff file")
    ]
    return Corpus.from_documents(documents)


def _document_from_standoff(obj: dict, line_no: int) -> Document:
    doc_id = obj.get("doc_id")
    if not isinstance(doc_id, str) or not doc_id:
        raise ParseError("missing or invalid 'doc_id'", line_no)
    token_texts = obj.get("tokens")
    if not isinstance(token_texts, list) or any(
        not isinstance(t, str) or not t for t in token_texts
    ):
        raise ParseError("'tokens' must be a list of non-empty strings", line_no)
    starts = obj.get("sentence_starts", [0] if token_texts else [])
    if (
        not isinstance(starts, list)
        or not all(is_int(s) for s in starts)
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
        if not is_int(start) or not is_int(end):
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


def serialize_standoff(corpus: Corpus) -> str:
    """Serialize a corpus to line-delimited JSON standoff, one document per line."""
    lines = []
    for doc in corpus.documents:
        entities = [
            {"start": m.start, "end": m.end, "label": m.label, "source": source.value}
            for source in Source
            for m in doc.entities(source)
        ]
        obj = {
            "doc_id": doc.doc_id,
            "tokens": list(doc.tokens),
            "sentence_starts": list(doc.sentence_starts),
            "entities": entities,
        }
        lines.append(json.dumps(obj, ensure_ascii=False))
    return "".join(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# pairing


def pair_corpora(gold: Corpus, pred: Corpus) -> Corpus:
    """Merge independently parsed gold and prediction corpora.

    Documents are matched by ``doc_id`` and token texts must be identical
    position-by-position (case-sensitive). Every mention from the gold
    corpus becomes a gold mention and every mention from the prediction
    corpus a predicted one, whatever source its file declared. The merged
    sides are checked for overlap again: one standoff file may hold gold-
    and predicted-source mentions that overlap each other.
    """
    pred_map = {d.doc_id: d for d in pred.documents}
    gold_ids = {d.doc_id for d in gold.documents}
    only_gold = sorted(gold_ids - set(pred_map))
    only_pred = sorted(set(pred_map) - gold_ids)
    if only_gold or only_pred:
        parts = []
        if only_gold:
            parts.append(f"only in gold: {', '.join(only_gold)}")
        if only_pred:
            parts.append(f"only in prediction: {', '.join(only_pred)}")
        raise AlignmentError("document sets differ; " + "; ".join(parts))

    merged: list[Document] = []
    for gdoc in gold.documents:
        pdoc = pred_map[gdoc.doc_id]
        if len(gdoc.tokens) != len(pdoc.tokens):
            raise AlignmentError(
                f"document {gdoc.doc_id!r}: token count differs "
                f"({len(gdoc.tokens)} vs {len(pdoc.tokens)})"
            )
        if gdoc.tokens != pdoc.tokens:
            i = next(
                i for i, (a, b) in enumerate(zip(gdoc.tokens, pdoc.tokens)) if a != b
            )
            raise AlignmentError(
                f"document {gdoc.doc_id!r}: token mismatch at index {i}: "
                f"{gdoc.tokens[i]!r} != {pdoc.tokens[i]!r}"
            )
        merged.append(
            Document(
                gdoc.doc_id,
                gdoc.tokens,
                gdoc.sentence_starts,
                gdoc.gold_entities + gdoc.pred_entities,
                pdoc.gold_entities + pdoc.pred_entities,
            )
        )
    return Corpus.from_documents(merged)

