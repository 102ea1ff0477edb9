"""Training-set construction for the entity classifier.

Positive pairs are the gold mentions themselves (duplicates kept, one
pair per occurrence). The ``other`` class is drawn from text chunks that
lie entirely outside gold spans: content-token runs delimited by sentence
boundaries, punctuation-only tokens and stopwords, trimmed of leading and
trailing digit-only tokens and length-filtered. The ``other`` sample is
capped at the floor of the mean per-tag pair count so it cannot swamp the
entity classes.
"""

from __future__ import annotations

import logging
import string
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring
from pathlib import Path
from random import Random
from typing import Iterable, Sequence

from .corpus import Corpus, Document, ParseError, decode_utf8, read_jsonl, write_lines

log = logging.getLogger(__name__)

OTHER_LABEL = "other"

DEFAULT_STOPWORDS = frozenset(
    """
    a an the and or but if then than that this these those here there
    of in on at by for with without to from as into onto over under
    is are was were be been being am do does did done have has had having
    will would shall should can could may might must
    it its he him his she her hers they them their we us our you your i me my
    not no nor only own same so too very such both each few more most other some
    all any when where why how again further once while during after before
    """.split()
)


class Origin(Enum):
    GOLD_ENTITY = "gold_entity"
    SAMPLED_CHUNK = "sampled_chunk"
    EXTERNAL_CHUNK = "external_chunk"


@dataclass(slots=True)
class LabeledText:
    text: str
    label: str
    origin: Origin

    def __post_init__(self):
        if not isinstance(self.text, str) or not self.text:
            raise ValueError("labelled text must be a non-empty string")
        if not isinstance(self.label, str) or not self.label:
            raise ValueError("label must be a non-empty string")


@dataclass(frozen=True)
class BuilderConfig:
    seed: int = 0
    max_chunk_tokens: int = 6
    stopwords: frozenset[str] = field(default=DEFAULT_STOPWORDS)

    def __post_init__(self):
        if self.max_chunk_tokens < 1:
            raise ValueError("max_chunk_tokens must be >= 1")


def extract_pairs(corpus: Corpus) -> list[LabeledText]:
    """One (surface text, tag) pair per gold mention, duplicates kept."""
    pairs: list[LabeledText] = []
    for doc in corpus.documents:
        for m in doc.gold_entities:
            pairs.append(LabeledText(m.text, m.label, Origin.GOLD_ENTITY))
    return pairs


def _is_punctuation(text: str) -> bool:
    return bool(text) and not text.strip(string.punctuation)


def _harvest_document(doc: Document, config: BuilderConfig) -> list[list[str]]:
    inside = [False] * len(doc.tokens)
    for m in doc.gold_entities:
        for i in range(m.start, m.end):
            inside[i] = True
    sentence_starts = set(doc.sentence_starts)
    runs: list[list[str]] = []
    current: list[str] = []

    def flush() -> None:
        nonlocal current
        if current:
            runs.append(current)
            current = []

    for i, (token, covered) in enumerate(zip(doc.tokens, inside)):
        # a sentence start closes the run; the new token may still join one
        if i in sentence_starts:
            flush()
        if covered or _is_punctuation(token) or token.lower() in config.stopwords:
            flush()
        else:
            current.append(token)
    flush()
    return runs


def harvest_chunks(corpus: Corpus, config: BuilderConfig = BuilderConfig()) -> list[str]:
    """Candidate ``other`` chunks in deterministic document and token order."""
    chunks: list[str] = []
    for doc in corpus.documents:
        for run in _harvest_document(doc, config):
            while run and run[0].isdigit():
                run = run[1:]
            while run and run[-1].isdigit():
                run = run[:-1]
            if 1 <= len(run) <= config.max_chunk_tokens:
                chunks.append(" ".join(run))
    return chunks


def other_cap(pairs: Sequence[LabeledText]) -> int:
    """Floor of the mean per-tag pair count; the hard ``other`` budget."""
    counts: dict[str, int] = {}
    for p in pairs:
        counts[p.label] = counts.get(p.label, 0) + 1
    if not counts:
        raise ValueError("cannot size the 'other' class without labelled pairs")
    return sum(counts.values()) // len(counts)


def sample_other(
    candidates: Sequence[str],
    pairs: Sequence[LabeledText],
    config: BuilderConfig = BuilderConfig(),
    origin: Origin = Origin.SAMPLED_CHUNK,
) -> list[LabeledText]:
    """Sample ``other`` pairs uniformly without replacement, seeded.

    Takes ``min(cap, len(candidates))`` candidates; logs a warning when the
    pool cannot fill the cap.
    """
    cap = other_cap(pairs)
    k = min(cap, len(candidates))
    if k < cap:
        log.warning(
            "only %d chunk candidates for an 'other' cap of %d; taking all",
            len(candidates),
            cap,
        )
    rng = Random(config.seed)
    return [LabeledText(text, OTHER_LABEL, origin) for text in rng.sample(list(candidates), k)]


def ingest_external_chunks(path: str | Path) -> list[str]:
    """Read precomputed chunk candidates, one per line; blank lines skipped."""
    text = decode_utf8(Path(path).read_bytes(), "chunk file")
    return [line.strip() for line in text.split("\n") if line.strip()]


def build_training_set(
    corpus: Corpus,
    config: BuilderConfig = BuilderConfig(),
    external_chunks: Sequence[str] | None = None,
) -> list[LabeledText]:
    """Gold pairs plus a capped ``other`` sample, ready for training."""
    pairs = extract_pairs(corpus)
    if not pairs:
        raise ValueError("corpus has no gold entities to build pairs from")
    if external_chunks is not None:
        others = sample_other(external_chunks, pairs, config, Origin.EXTERNAL_CHUNK)
    else:
        others = sample_other(harvest_chunks(corpus, config), pairs, config)
    return pairs + others


# ---------------------------------------------------------------------------
# pairs files (line-delimited JSON)


def write_pairs(pairs: Iterable[LabeledText], path: str | Path) -> None:
    """Write one ``json.dumps(pair, ensure_ascii=False)`` line per pair, of its
    ``text``, ``label`` and ``origin``, each built by one f-string."""
    write_lines(
        [
            f'{{"text": {encode_basestring(p.text)}, '
            f'"label": {encode_basestring(p.label)}, "origin": "{p.origin.value}"}}\n'
            for p in pairs
        ],
        path,
    )


def read_pairs(path: str | Path) -> list[LabeledText]:
    pairs: list[LabeledText] = []
    for line_no, obj in read_jsonl(Path(path).read_bytes(), "pairs file"):
        try:
            pair = LabeledText(obj["text"], obj["label"], Origin(obj["origin"]))
        except (KeyError, ValueError):
            raise ParseError("malformed training pair", line_no) from None
        if not pair.text.strip():
            raise ParseError("training pair with empty text", line_no)
        pairs.append(pair)
    return pairs
