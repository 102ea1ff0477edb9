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
``decode_utf8`` turns its bytes into text, ``decode_json`` turns JSON text
into a value and ``parse_json_line`` one line into a JSON object,
``read_jsonl`` yields that object for each non-blank line (each raises
``ParseError`` for bad input, JSON nested too deeply to decode or an integer
too long to convert included), and ``is_int`` tells a JSON integer from
``true``/``false``. ``scan_jsonl`` decodes a plain line (a JSON object from
its first to its last character) with the decoder's ``scan_once`` alone, for
``read_jsonl`` and the judgement reader, which send every other line through
their own checks. No reader accepts
``NaN``, ``Infinity`` or ``-Infinity``, which RFC 8259 does not allow, and no
writer emits them.

Every output file is opened through ``open_output``. Each JSONL line is the
bytes ``json.dumps(obj, ensure_ascii=False)`` gives. ``serialize_standoff``,
``matcher.write_ledger``, ``perturb.write_expected_ledger``,
``classifier.write_decisions`` and ``clsdata.write_pairs`` format their own
lines with f-strings and ``json``'s string encoder; the classifier requests
go through ``write_jsonl``. Every JSONL writer but the record ledger's builds
all its lines before ``write_lines`` opens its file.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, chain
from json.encoder import encode_basestring
from operator import attrgetter
from pathlib import Path
from typing import IO, Iterable, Iterator, NoReturn, Sequence

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


class NonFiniteNumberError(ValueError):
    """JSON input holds ``NaN``, ``Infinity`` or ``-Infinity``."""


def _reject_constant(name: str) -> NoReturn:
    raise NonFiniteNumberError(f"non-finite number {name}")


# json.loads(text, parse_constant=...) would build a new decoder on each call
_JSON_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def decode_utf8(content: bytes | str, what: str) -> str:
    """The text of an input file without one leading byte order mark; bytes
    that are not UTF-8 raise ``ParseError``."""
    if not isinstance(content, str):
        try:
            content = content.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{what} is not valid UTF-8: {exc}") from None
    return content.removeprefix("\ufeff")


def scan_jsonl(text: str) -> Iterator[tuple[int, str, dict | None]]:
    """Yield ``(line number, line, object)`` for each line of a JSONL text.

    The object is that of a line that is one JSON object from its first to
    its last character, decoded by the decoder's C ``scan_once`` alone; for
    every other line (blank or padded, a byte order mark, a non-object, bad
    JSON, ``NaN``) it is None, and the caller sends the line through its own
    path, which words its error. ``scan_once`` does not look for lone
    surrogates, so in a text that holds a surrogate escape it is None for
    every line.
    """
    scan = None if _SURROGATE_ESCAPE_RE.search(text) else _JSON_DECODER.scan_once
    for line_no, line in enumerate(text.split("\n"), 1):
        if scan is not None:
            try:
                obj, end = scan(line, 0)
            except (StopIteration, ValueError, RecursionError):
                pass
            else:
                if end == len(line) and type(obj) is dict:
                    yield line_no, line, obj
                    continue
        yield line_no, line, None


def read_jsonl(content: bytes | str, what: str) -> Iterator[tuple[int, dict]]:
    """Yield ``(line number, object)`` for each non-blank line of a JSONL input.

    ``scan_jsonl`` decodes each plain line; every other line goes through
    ``parse_json_line``.
    """
    for line_no, line, obj in scan_jsonl(decode_utf8(content, what)):
        if obj is not None:
            yield line_no, obj
        elif line.strip():
            yield line_no, parse_json_line(line, line_no, what)


def decode_json(text: str, line: int | None = None) -> object:
    """``json.loads(text)``, but ``NaN``, ``Infinity`` and ``-Infinity`` raise
    ``NonFiniteNumberError``, and a value nested deeper than the recursion
    limit allows or an integer past ``int``'s digit limit raises
    ``ParseError`` (naming ``line``, given one)."""
    try:
        if text.startswith("\ufeff"):
            return json.loads(text)  # raises the error for a byte order mark
        return _JSON_DECODER.decode(text)
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply", line) from None
    except ValueError as exc:
        if type(exc) is not ValueError:  # JSONDecodeError, NonFiniteNumberError
            raise
        # the decoder's only plain ValueError: int() refusing a long literal
        limit = sys.get_int_max_str_digits()
        raise ParseError(
            f"invalid JSON: an integer of more than {limit} digits", line
        ) from None


def parse_json_line(line: str, line_no: int, what: str) -> dict:
    """The JSON object on one line of a ``what`` input.

    A line that is not JSON, holds a non-finite number literal, is not a
    JSON object, or holds a lone UTF-16 surrogate raises ``ParseError``.
    """
    try:
        obj = decode_json(line, line_no)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line_no) from None
    except NonFiniteNumberError as exc:
        raise ParseError(f"invalid JSON: {exc}", line_no) from None
    if not isinstance(obj, dict):
        raise ParseError(f"{what} line must be a JSON object", line_no)
    if _SURROGATE_ESCAPE_RE.search(line) and has_lone_surrogate(obj, line=line_no):
        raise ParseError(f"{what} line holds a lone UTF-16 surrogate", line_no)
    return obj


# json.dumps(obj, ensure_ascii=False) builds a new encoder on each call
_JSONL_ENCODER = json.JSONEncoder(ensure_ascii=False, allow_nan=False)


def write_jsonl(objects: Iterable[dict], path: str | Path) -> None:
    """Write one ``json.dumps(obj, ensure_ascii=False)`` line per object.

    Every object is encoded before the file is opened, so one that cannot
    be (a float that is not finite raises ``ValueError``) leaves an
    existing file as it was and creates none.
    """
    write_lines([_JSONL_ENCODER.encode(obj) + "\n" for obj in objects], path)


def write_lines(lines: list[str], path: str | Path) -> None:
    """Write ``lines``, built in full by the caller before the file is
    opened, so that a value that cannot be encoded leaves the file as it was."""
    with open_output(path) as fh:
        fh.writelines(lines)


def has_lone_surrogate(
    value: object, allow_nan: bool = True, line: int | None = None
) -> bool:
    """Whether a decoded JSON value holds a lone UTF-16 surrogate.

    JSON may escape one (``"\\ud800"``), but no UTF-8 output can encode it.
    With ``allow_nan=False`` a float that is not finite raises ``ValueError``.
    The encoder needs a little more stack per level than the decoder, so a
    value nested to just under the decoder's limit raises the ``ParseError``
    that ``decode_json`` raises for one nested deeper (naming ``line``).
    """
    try:
        # ensure_ascii=False leaves a lone surrogate in the text as it is
        text = json.dumps(value, ensure_ascii=False, allow_nan=allow_nan)
    except RecursionError:  # nested to just under the decoder's limit
        raise ParseError("invalid JSON: nested too deeply", line) from None
    return _SURROGATE_RE.search(text) is not None


def open_output(path: str | Path, binary: bool = False) -> IO:
    """Open an output file for writing: created, or truncated where it exists."""
    if binary:
        return open(path, "wb")
    return open(path, "w", encoding="utf-8")


def is_int(value: object) -> bool:
    """Whether a JSON value is an integer; ``true`` and ``false`` are not."""
    return type(value) is int


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

    @classmethod
    def from_documents(cls, documents: Iterable[Document]) -> "Corpus":
        docs = list(documents)
        seen: set[str] = set()
        for doc in docs:
            if doc.doc_id in seen:
                raise ParseError(f"duplicate document id {doc.doc_id!r}")
            seen.add(doc.doc_id)
        return cls(docs)

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


_START_END = attrgetter("start", "end")


def check_flat(
    doc_id: str, mentions: Iterable[EntityMention], source: Source
) -> list[EntityMention]:
    """One side of a document sorted by start; an overlap raises ``ParseError``."""
    ordered = sorted(mentions, key=_START_END)
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
    if any(not t or t.isspace() for t in tokens):
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
    ``doc0``. Under either scheme an ``I-`` that continues no open entity of
    its label opens one, so IOB1 and IOB2 decode the same spans; IOB2 also
    logs a warning for each such repair.

    Each line is read once and its tag decoded as it is read; a document
    is built when the next ``-DOCSTART-`` or the end of the file closes
    it. Entity state resets at sentence boundaries: ``B-`` always opens an
    entity, and ``I-`` extends an open same-label entity or opens one.

    A plain line, ``token<TAB>tag`` with no whitespace at either end of
    either part, a tag this call has decoded before and a token that does
    not start with ``-DOCSTART-``, is split once and its tag looked up;
    every other line takes the general path, which strips and checks it.
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
    # each valid tag the general path has met, stripped: (I-, label), and
    # (False, None) for O; no key has a tab or whitespace at either end
    decoded_tags: dict[str, tuple[bool, str | None]] = {"O": (False, None)}
    iob2 = scheme is TagScheme.IOB2
    # a -DOCSTART- after the last line closes the last document
    for line_no, line in chain(lines, [(None, "-DOCSTART-")]):
        token_text, _, tag = line.partition("\t")
        decoded = decoded_tags.get(tag)
        if (
            decoded is None
            or not token_text
            or token_text.strip() != token_text
            or token_text.startswith("-DOCSTART-")
        ):
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
                    gold, pred = (
                        (mentions, []) if source is Source.GOLD else ([], mentions)
                    )
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
            decoded = decoded_tags.get(tag)
            if decoded is None:
                m = _IOB_TAG_RE.fullmatch(tag)
                label = m.group(2).strip() if m else ""
                if label in ("", "O"):
                    raise ParseError(f"malformed tag {tag!r}", line_no)
                decoded = decoded_tags[tag] = (m.group(1) == "I", label)
        inside, label = decoded
        if label is None:
            open_label = None
        elif inside and label == open_label:
            spans[-1][1] += 1
        else:
            if inside and iob2:
                import logging  # only here: a run that logs nothing skips it

                logging.getLogger(__name__).warning(
                    "line %d: orphan tag I-%s repaired to B-%s", line_no, label, label
                )
            spans.append([len(tokens), len(tokens) + 1, label])
            open_label = label
        if not in_sentence:
            starts.append(len(tokens))
            in_sentence = True
        tokens.append(token_text)
    return Corpus.from_documents(documents)


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
    # C-level passes over every token: types first, so that the other two
    # only ever see strings
    if (
        not isinstance(token_texts, list)
        or not set(map(type, token_texts)) <= {str}
        or "" in token_texts
        or any(map(str.isspace, token_texts))
    ):
        raise ParseError("'tokens' must be a list of non-empty strings", line_no)
    starts = obj.get("sentence_starts", [0] if token_texts else [])
    if (
        not isinstance(starts, list)
        or not all(map(is_int, starts))
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
        name = label.strip() if isinstance(label, str) else ""
        if name in ("", "O"):
            raise ParseError(f"invalid entity label {label!r}", line_no)
        # string comparisons: a list or dict here equals neither
        if source_value == "gold":
            target = gold
        elif source_value == "predicted":
            target = pred
        else:
            raise ParseError(f"invalid entity source {source_value!r}", line_no)
        text = " ".join(tokens[start:end])
        target.append(EntityMention(doc_id, start, end, name, text))
    try:
        return Document(doc_id, tokens, tuple(starts), gold, pred)
    except ParseError as exc:
        raise ParseError(str(exc), line_no) from None


def serialize_standoff(corpus: Corpus) -> str:
    """Serialize a corpus to line-delimited JSON standoff, one document per line.

    Each line is ``json.dumps(obj, ensure_ascii=False)`` of the document's
    ``doc_id``, ``tokens``, ``sentence_starts`` and ``entities``, gold
    before predicted.
    """
    lines = []
    for doc in corpus.documents:
        sides = (("gold", doc.gold_entities), ("predicted", doc.pred_entities))
        entities = ", ".join(
            f'{{"start": {m.start}, "end": {m.end}, '
            f'"label": {encode_basestring(m.label)}, "source": "{source}"}}'
            for source, side in sides
            for m in side
        )
        lines.append(
            f'{{"doc_id": {encode_basestring(doc.doc_id)}, '
            f'"tokens": [{", ".join(map(encode_basestring, doc.tokens))}], '
            f'"sentence_starts": [{", ".join(map(str, doc.sentence_starts))}], '
            f'"entities": [{entities}]}}\n'
        )
    return "".join(lines)


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

