"""Trainable entity-text classifier used to refine Type-5 mismatches.

The built-in model is multinomial logistic regression over hashed
character n-grams (n = 3..5) and lowercased word unigrams, trained by
seeded SGD. It maps an entity's surface text to a label from the tag set
plus ``other``; a Type-5 prediction is accepted when the classifier
reproduces the record's own label. An external classifier can stand in
through a line-delimited request/response file protocol.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import asdict, dataclass
from enum import Enum
from json.encoder import encode_basestring
from pathlib import Path
from random import Random
from typing import (
    TYPE_CHECKING,
    BinaryIO,
    Container,
    Iterator,
    Mapping,
    Sequence,
)

from .corpus import (
    ParseError,
    decode_json,
    decode_utf8,
    has_lone_surrogate,
    is_int,
    open_output,
    read_jsonl,
    write_jsonl,
    write_lines,
)
from .matcher import MatchReport

# numpy is imported inside the functions that need it, so that importing the
# package, and every command that runs no model, does not load it
if TYPE_CHECKING:
    import numpy as np

_MAGIC = b"ENTMATCH-CLS1"
_FORMAT_VERSION = 1
_DTYPE = "<f8"
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1
# The featurizer holds buckets in int32 arrays, so 2**31 is the largest count
# whose buckets all fit; the dense model file holds buckets x labels float64s.
_MAX_BUCKETS = 1 << 31
# A text's score for a label is its bias plus its feature counts times their
# weights. Below this magnitude (2**512) no text shorter than about 1e153
# characters can overflow a score, so a trained model scores every text.
_WEIGHT_LIMIT = 2.0**512
_HEADER_FIELDS = (
    ("format_version", int),
    ("labels", list),
    ("buckets", int),
    ("seed", int),
    ("epochs", int),
    ("learning_rate", (int, float)),
)


class Verdict(Enum):
    ACCEPT = "accept"
    REJECT = "reject"


# Enum.value is a Python property, and Verdict(value) a Python call
_VERDICTS = {v.value: v for v in Verdict}
_VERDICT_VALUES = {v: v.value for v in Verdict}


@dataclass(slots=True)
class Decision:
    """Accept/reject verdict for one Type-5 record.

    ``predicted_label`` and ``confidence`` are set when the verdict comes
    from a classifier; a decision file may leave them null (None).
    """

    record_id: str
    verdict: Verdict
    predicted_label: str | None = None
    confidence: float | None = None


# a classifier decision below this confidence is low-confidence, in the
# reports of both refine and judge
LOW_CONFIDENCE = 0.5


@dataclass(frozen=True)
class Prediction:
    label: str
    confidence: float


@dataclass(frozen=True)
class TrainConfig:
    seed: int = 0
    epochs: int = 5
    learning_rate: float = 0.5
    buckets: int = 1 << 20

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if not math.isfinite(self.learning_rate):
            raise ValueError(f"learning rate must be finite, got {self.learning_rate}")
        if self.buckets < 2:
            raise ValueError("bucket count must be >= 2")


def _hash64(feature: str, state: int = _FNV_OFFSET) -> int:
    """FNV-1a over UTF-8 bytes; stable across runs and platforms.

    ``state`` continues a hash, so ``_hash64(b, _hash64(a)) == _hash64(a + b)``.
    """
    h = state
    for byte in feature.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


# hash states after each feature kind's constant prefix: c3|, c4|, c5| and w|
_GRAM_STATES = tuple((n, _hash64(f"c{n}|")) for n in (3, 4, 5))
_WORD_STATE = _hash64("w|")


# distinct texts hashed in one numpy pass. A pass's temporaries grow with
# its code points, while on entity texts the passes take as long in all at
# 16 texts a batch as at 256, so the batch is small.
_BATCH_TEXTS = 64


def _features(
    texts: Sequence[str], buckets: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hashed features: character 3-5-grams and words of each lowercased text.

    The result is flat: text ``i`` owns ``bucket[bounds[i]:bounds[i + 1]]``
    and the same slice of ``count``, its buckets in the order each is first
    hit (3-grams, 4-grams and 5-grams left to right, then words) with how
    often each is hit. The grams of a batch of texts are hashed together,
    FNV-1a over each code point's one to four UTF-8 bytes in ``uint64``
    lanes, which wrap as ``_hash64`` masks; words go through ``_hash64``.
    """
    import numpy as np

    # a text hits at most one bucket per occurrence of a feature: per 3-,
    # 4- and 5-gram and per word
    size = 0
    for text in texts:
        lowered = text.lower()
        n = len(lowered)
        size += max(n - 2, 0) + max(n - 3, 0) + max(n - 4, 0) + len(lowered.split())
    # buckets are below _MAX_BUCKETS, so each fits int32
    bucket = np.empty(size, dtype=np.int32)
    count = np.empty(size, dtype=np.float64)
    bounds = np.zeros(len(texts) + 1, dtype=np.int64)
    prime = np.uint64(_FNV_PRIME)
    words: dict[str, int] = {}
    end = 0
    for lo in range(0, len(texts), _BATCH_TEXTS):
        batch = [text.lower() for text in texts[lo:lo + _BATCH_TEXTS]]
        lengths = np.fromiter(map(len, batch), dtype=np.int64, count=len(batch))
        code = "".join(batch).encode("utf-32-le")
        cp = np.frombuffer(code, dtype="<u4").astype(np.uint64)
        text_of = np.repeat(np.arange(len(batch)), lengths)
        # code points from each one to the end of its text, itself included
        left = np.repeat(np.cumsum(lengths), lengths) - np.arange(len(cp))
        # a code point's UTF-8 bytes: a lead byte, then continuation byte j
        # for each j below its width
        width = 1 + (cp >= 0x80) + (cp >= 0x800) + (cp >= 0x10000)
        tail = 6 * (width - 1)  # the bits that the continuation bytes carry
        marks = np.array((0, 0, 0xC0, 0xE0, 0xF0), dtype=np.uint64)
        lead = cp >> tail.astype(np.uint64) | marks[width]
        follow = [
            (j < width, cp >> (tail - 6 * j).clip(0).astype(np.uint64) & 0x3F | 0x80)
            for j in range(1, int(width.max(initial=1)))
        ]
        hit_buckets, hit_texts = [], []
        for n, state in _GRAM_STATES:
            # the hash of the n code points from each position, also of
            # those that run into the next text, which are then left out
            m = max(len(cp) - n + 1, 0)
            h = np.full(m, state, dtype=np.uint64)
            for k in range(n):
                h ^= lead[k:k + m]
                h *= prime
                for present, byte in follow:
                    np.copyto(h, (h ^ byte[k:k + m]) * prime, where=present[k:k + m])
            starts = np.flatnonzero(left >= n)
            hit_buckets.append((h[starts] % np.uint64(buckets)).astype(np.int64))
            hit_texts.append(text_of[starts])
        word_buckets, word_texts = [], []
        for i, s in enumerate(batch):
            for word in s.split():
                b = words.get(word)
                if b is None:
                    b = words[word] = _hash64(word, _WORD_STATE) % buckets
                word_buckets.append(b)
                word_texts.append(i)
        hit_buckets.append(np.array(word_buckets, dtype=np.int64))
        hit_texts.append(np.array(word_texts, dtype=np.int64))
        hits, hit_text = np.concatenate(hit_buckets), np.concatenate(hit_texts)
        # sorted by text, then bucket: a text's hits are in order and the
        # sort is stable, so each run of one bucket starts at its first hit
        order = np.lexsort((hits, hit_text))
        hits, hit_text = hits[order], hit_text[order]
        new = np.ones(len(order), dtype=bool)
        new[1:] = (hits[1:] != hits[:-1]) | (hit_text[1:] != hit_text[:-1])
        runs = np.flatnonzero(new)
        counts = np.diff(runs, append=len(order))
        by_first = np.lexsort((order[runs], hit_text[runs]))
        runs, counts = runs[by_first], counts[by_first]
        stop = end + len(runs)
        bucket[end:stop] = hits[runs]
        count[end:stop] = counts
        per_text = np.bincount(hit_text[runs], minlength=len(batch))
        bounds[lo + 1:lo + len(batch) + 1] = end + np.cumsum(per_text)
        end = stop
    return bucket[:end], count[:end], bounds


# payload rows read or written at a time, so that no dense matrix is held
_BLOCK_ROWS = 1 << 13
# bytes of a model file read first to find its header line
_HEAD_BYTES = 1 << 12


def _blocks(buckets: int, n_labels: int) -> Iterator[tuple[int, int]]:
    """The ``(lo, hi)`` row ranges of a payload's blocks; none without labels."""
    if n_labels:
        for lo in range(0, buckets, _BLOCK_ROWS):
            yield lo, min(lo + _BLOCK_ROWS, buckets)


def _nonzero_rows(block: np.ndarray) -> np.ndarray:
    """Positions of the rows of a float64 matrix that have any bit set.

    A test on bits, not values, so a ``-0.0`` or NaN row counts as set.
    """
    import numpy as np

    bits = block.view(np.int64)
    mask = 0
    for column in range(bits.shape[1]):
        mask = mask | bits[:, column]
    return np.flatnonzero(mask)


@dataclass
class ClassifierModel:
    """Linear model state plus the hyperparameters it was trained with.

    The weight matrix has one row per bucket of ``config.buckets``, but
    feature hashing leaves most rows +0.0, so the model holds only the
    others: ``rows`` are the ascending buckets whose weights have any bit
    set and ``weights`` holds their values. The model file stores every row.

    Training and decisions reproduce byte for byte only on the same OpenBLAS
    kernel and numpy SIMD level: ``val @ w`` is a BLAS ``gemv``, whose
    summation order depends on the kernel OpenBLAS picks for the CPU, and
    ``np.exp`` has SIMD loops that differ from libm in the last bit. Under
    ``OPENBLAS_CORETYPE=Sandybridge``, for one, the trained bytes differ from
    those of the default kernel on an AVX-512 machine. They depend on the
    kernel, not on OpenBLAS's thread count: each product is one text's
    ``gemv``, too small to be split across threads, so ``train-cls`` and
    ``refine --model``, which load OpenBLAS with one thread, write the bytes
    that a library caller with numpy's default thread pool writes.
    """

    labels: tuple[str, ...]
    rows: np.ndarray  # (n_rows,) int64, ascending
    weights: np.ndarray  # (n_rows, n_labels) float64
    bias: np.ndarray  # (n_labels,) float64
    config: TrainConfig

    def gather(self, idx: np.ndarray) -> np.ndarray:
        """The weight rows of buckets ``idx`` in that order, +0.0 where not held."""
        import numpy as np

        if not len(self.rows):
            return np.zeros((len(idx), len(self.labels)))
        pos = self.rows.searchsorted(idx)
        np.minimum(pos, len(self.rows) - 1, out=pos)
        out = self.weights.take(pos, axis=0)
        out[self.rows.take(pos) != idx] = 0.0
        return out

    def _write(self, fh: BinaryIO) -> None:
        import numpy as np

        header = {
            "format_version": _FORMAT_VERSION,
            "labels": list(self.labels),
            "dtype": _DTYPE,
            **asdict(self.config),
        }
        header_line = json.dumps(header, sort_keys=True, allow_nan=False)
        fh.write(_MAGIC + b"\n" + header_line.encode("utf-8") + b"\n")
        # the dense payload, one zeroed block at a time with its held rows set
        buckets, n_labels = self.config.buckets, len(self.labels)
        block = np.zeros((min(_BLOCK_ROWS, buckets), n_labels), dtype=_DTYPE)
        for lo, hi in _blocks(buckets, n_labels):
            a, b = self.rows.searchsorted((lo, hi))
            held = self.rows[a:b] - lo
            block[held] = self.weights[a:b]
            fh.write(block[: hi - lo])
            block[held] = 0.0
        fh.write(np.ascontiguousarray(self.bias, dtype=_DTYPE))

    def to_bytes(self) -> bytes:
        buffer = io.BytesIO()
        self._write(buffer)
        return buffer.getvalue()

    def save(self, path: str | Path) -> None:
        with open_output(path, binary=True) as fh:
            self._write(fh)

    @classmethod
    def load(cls, path: str | Path) -> "ClassifierModel":
        """Read a model file; any defect in it raises ``ParseError``.

        The payload's length is checked against the header before it is
        read, and it is read in blocks of ``_BLOCK_ROWS`` rows, of which
        only the rows with a bit set are kept.
        """
        import numpy as np

        def read(offset: int, count: int, dtype: str) -> np.ndarray:
            items = np.fromfile(path, dtype, count, offset=offset)
            if len(items) != count:
                raise ParseError(f"model file {path} changed while it was read")
            return items

        size = Path(path).stat().st_size
        prefix = _MAGIC + b"\n"
        head = read(0, min(size, _HEAD_BYTES), "u1").tobytes()
        if not head.startswith(prefix):
            raise ParseError("not a serialized classifier model")
        newline = head.find(b"\n", len(prefix))
        while newline < 0 and len(head) < size:
            searched = len(head)  # a long header: read as much again
            head += read(searched, min(size - searched, searched), "u1").tobytes()
            newline = head.find(b"\n", searched)
        if newline < 0:
            raise ParseError("model header has no terminating newline")
        header_text = decode_utf8(head[len(prefix):newline], "model header")
        try:
            header = decode_json(header_text)
        except ValueError as exc:
            raise ParseError(f"model header is not JSON: {exc}") from None
        if not isinstance(header, dict):
            raise ParseError("model header must be a JSON object")
        for key, kind in _HEADER_FIELDS:
            value = header.get(key)
            if not isinstance(value, kind) or isinstance(value, bool):
                raise ParseError(f"model header field {key!r} is missing or invalid")
        # a header without a dtype is read as holding the one dtype written
        version, dtype = header["format_version"], header.get("dtype", _DTYPE)
        if version != _FORMAT_VERSION or dtype != _DTYPE:
            raise ParseError(
                f"model format {version} with dtype {dtype!r} is not supported; "
                f"expected {_FORMAT_VERSION} with {_DTYPE!r}"
            )
        if not all(isinstance(label, str) for label in header["labels"]):
            raise ParseError("model header field 'labels' must hold strings")
        if has_lone_surrogate(header["labels"]):
            raise ParseError("model header labels hold a lone UTF-16 surrogate")
        labels = tuple(header["labels"])
        try:
            config = TrainConfig(
                seed=header["seed"],
                epochs=header["epochs"],
                learning_rate=float(header["learning_rate"]),
                buckets=header["buckets"],
            )
        except ValueError as exc:
            raise ParseError(f"invalid model header: {exc}") from None
        buckets, n_labels = config.buckets, len(labels)
        start = newline + 1
        payload = size - start
        expected = (buckets * n_labels + n_labels) * 8
        if payload != expected:
            raise ParseError(
                f"model payload is {payload} bytes, expected {expected}"
            )
        if buckets > _MAX_BUCKETS:
            raise ParseError(
                f"model header field 'buckets' is {buckets}, more than {_MAX_BUCKETS}"
            )
        rows = [np.empty(0, dtype=np.int64)]
        weights = [np.empty((0, n_labels))]
        for lo, hi in _blocks(buckets, n_labels):
            block = read(start + lo * n_labels * 8, (hi - lo) * n_labels, _DTYPE)
            block = block.reshape(hi - lo, n_labels)
            held = _nonzero_rows(block)
            rows.append(held + lo)
            weights.append(block[held])
        bias = read(start + buckets * n_labels * 8, n_labels, _DTYPE)
        return cls(labels, np.concatenate(rows), np.concatenate(weights), bias, config)


def _softmax(scores: np.ndarray) -> np.ndarray:
    import numpy as np

    shifted = scores - scores.max()
    exp = np.exp(shifted)
    return exp / exp.sum()


def train(pairs: Sequence, config: TrainConfig = TrainConfig()) -> ClassifierModel:
    """Train the built-in model on (text, label) pairs.

    Accepts any objects with ``text`` and ``label`` attributes. Examples
    are shuffled once per epoch with a generator seeded from the config,
    so identical inputs and config reproduce the model byte for byte. A
    run that diverges, leaving a weight or bias that is not finite or not
    below ``_WEIGHT_LIMIT`` in magnitude, raises ``ValueError``, as does a
    bucket count above ``_MAX_BUCKETS``, before any text is featurized.
    """
    import numpy as np

    if config.buckets > _MAX_BUCKETS:
        raise ValueError(
            f"bucket count must be at most {_MAX_BUCKETS}, got {config.buckets}"
        )
    if not pairs:
        raise ValueError("training set is empty")
    labels = sorted({p.label for p in pairs})
    if len(labels) < 2:
        raise ValueError(f"need at least 2 distinct labels, got {labels}")
    label_index = {lab: i for i, lab in enumerate(labels)}

    # each distinct text is featurized once, in the order it first occurs
    texts: dict[str, int] = {}
    for p in pairs:
        texts.setdefault(p.text, len(texts))
    if any(not text.strip() for text in texts):
        raise ValueError("training pair with empty text")
    bucket, count, bounds = _features(list(texts), config.buckets)
    # SGD runs on the rows the pairs touch, ascending, so each bucket
    # becomes a position among them; a pair is its text's slice and label
    rows = np.unique(bucket).astype(np.int64)
    pos = np.empty(len(bucket), dtype=np.int32)
    for lo in range(0, len(bucket), _BLOCK_ROWS):
        pos[lo:lo + _BLOCK_ROWS] = rows.searchsorted(bucket[lo:lo + _BLOCK_ROWS])
    del bucket
    ends = bounds.tolist()
    examples: list[tuple[int, int, int]] = []
    for p in pairs:
        i = texts[p.text]
        examples.append((ends[i], ends[i + 1], label_index[p.label]))
    del texts, ends, bounds

    lr = config.learning_rate
    weights = np.zeros((len(rows), len(labels)), dtype=np.float64)
    bias = np.zeros(len(labels), dtype=np.float64)
    # the step writes each row back as one opaque element, a byte copy;
    # the ufunc reductions are what .max() and .sum() call
    row_dtype = np.dtype((np.void, weights.itemsize * len(labels)))
    take, put = weights.take, weights.view(row_dtype).put
    exp, top, total = np.exp, np.maximum.reduce, np.add.reduce
    rng = Random(config.seed)
    # a rate too large overflows; the check after the loop reports it once
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.epochs):
            # shuffle's swaps depend on the generator and the length only, so
            # the visiting order is fixed by the seed and the number of pairs
            rng.shuffle(examples)
            for start, stop, y in examples:
                idx, val = pos[start:stop], count[start:stop]
                w = take(idx, axis=0)
                scores = bias + val @ w
                probs = exp(scores - top(scores))
                probs /= total(probs)
                probs[y] -= 1.0
                w -= lr * val[:, None] * probs
                put(idx, w.view(row_dtype))
                bias -= lr * probs
    del examples, pos, count  # freed before the checks below allocate
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
    if len(held) < len(rows):
        rows, weights = rows[held], weights[held]
    return ClassifierModel(tuple(labels), rows, weights, bias, config)


def predict(model: ClassifierModel, text: str) -> Prediction:
    """Score one text; ties go to the earliest label in the model's label set."""
    if not text.strip():
        raise ValueError("cannot classify empty text")
    bucket, count, _ = _features([text], model.config.buckets)
    probs = _softmax(model.bias + count @ model.gather(bucket))
    best = int(probs.argmax())
    return Prediction(model.labels[best], float(probs[best]))


def decide_type5(model: ClassifierModel, report: MatchReport) -> dict[str, Decision]:
    """Accept a Type-5 record iff the model reproduces its label.

    The confidence is reported alongside but never changes the verdict; a
    predicted ``other`` can never equal an entity label, hence rejects. A
    model whose probabilities for a text are not finite, because its
    weights are not or their sum overflows, raises ``ParseError``.
    """
    import numpy as np

    records = report.type5_records()
    texts: dict[str, int] = {}
    for record in records:
        assert record.pred is not None
        texts.setdefault(record.pred.text, len(texts))
    bucket, count, bounds = _features(list(texts), model.config.buckets)
    ends = bounds.tolist()
    decisions: dict[str, Decision] = {}
    # a model that overflows is reported once, by the check below
    with np.errstate(over="ignore", invalid="ignore"):
        for record in records:
            assert record.pred is not None
            if not record.pred.text.strip():
                raise ValueError("cannot classify empty text")
            i = texts[record.pred.text]
            span = slice(ends[i], ends[i + 1])
            probs = _softmax(model.bias + count[span] @ model.gather(bucket[span]))
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
# checks shared by the response, decision and judgement readers


def check_type5_id(
    rid: object,
    type5_ids: Container[str],
    seen: Container[str],
    what: str,
    line_no: int,
) -> str:
    """A line's record id: a string naming a Type-5 record not named before."""
    if type(rid) is not str:
        raise ParseError(f"{what} record id must be a string, got {rid!r}", line_no)
    if rid not in type5_ids:
        raise ParseError(f"unknown Type-5 record id {rid!r}", line_no)
    if rid in seen:
        raise ParseError(f"duplicate {what} for record {rid!r}", line_no)
    return rid


def check_confidence(value: object, line_no: int) -> float:
    """A classifier confidence: a JSON number in [0, 1]."""
    # a float is tested first, as nearly every confidence is one
    if type(value) is not float and not is_int(value) or not 0.0 <= value <= 1.0:
        raise ParseError(f"confidence {value!r} outside [0, 1]", line_no)
    return float(value)


# ---------------------------------------------------------------------------
# external classifier protocol


def write_classifier_requests(report: MatchReport, path: str | Path) -> None:
    """Write one ``{"id", "text"}`` request per Type-5 record."""
    requests = (
        {"id": r.record_id, "text": r.pred.text}  # type: ignore[union-attr]
        for r in report.type5_records()
    )
    write_jsonl(requests, path)


def load_external_decisions(
    report: MatchReport, path: str | Path
) -> dict[str, Decision]:
    """Validate an external response file and convert it to decisions.

    Response ids must be exactly the report's Type-5 record ids; labels
    must be labels present in the report, or ``other``; confidences must
    lie in [0, 1].
    """
    from .metrics import check_covered

    records = {r.record_id: r for r in report.type5_records()}
    allowed = {*report.labels(), "other"}

    responses: dict[str, tuple[str, float]] = {}
    for line_no, obj in read_jsonl(Path(path).read_bytes(), "response file"):
        rid = check_type5_id(obj.get("id"), records, responses, "response", line_no)
        label = obj.get("label")
        if not isinstance(label, str) or label not in allowed:
            raise ParseError(
                f"label {label!r} not in the allowed label set", line_no
            )
        responses[rid] = (label, check_confidence(obj.get("confidence"), line_no))

    decisions: dict[str, Decision] = {}
    for rid in check_covered(report, responses):
        record = records[rid]
        label, confidence = responses[rid]
        assert record.pred is not None
        verdict = Verdict.ACCEPT if label == record.pred.label else Verdict.REJECT
        decisions[rid] = Decision(rid, verdict, label, confidence)
    return decisions


# ---------------------------------------------------------------------------
# decision files


def _confidence_json(value: float | None) -> str:
    """``json.dumps`` of a confidence; one that is not finite raises ``ValueError``."""
    if type(value) is float and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value, ensure_ascii=False, allow_nan=False)


def write_decisions(decisions: Mapping[str, Decision], path: str | Path) -> None:
    """Write one decision per line, sorted by record id.

    Each line is ``json.dumps(decision, ensure_ascii=False)`` of its
    ``record_id``, ``verdict``, ``predicted_label`` and ``confidence``, built
    by one f-string; every line is built before the file is opened, so a
    confidence that is not finite raises ``ValueError`` and writes nothing.
    """
    lines = []
    for _, d in sorted(decisions.items()):
        label = d.predicted_label
        lines.append(
            f'{{"record_id": {encode_basestring(d.record_id)}, '
            f'"verdict": "{_VERDICT_VALUES[d.verdict]}", '
            f'"predicted_label": {"null" if label is None else encode_basestring(label)}, '
            f'"confidence": {_confidence_json(d.confidence)}}}\n'
        )
    write_lines(lines, path)


def read_decisions(path: str | Path, report: MatchReport) -> dict[str, Decision]:
    """Read a decision file whose ids name Type-5 records of ``report``."""
    type5_ids = {r.record_id for r in report.type5_records()}
    decisions: dict[str, Decision] = {}
    for line_no, obj in read_jsonl(Path(path).read_bytes(), "decision file"):
        rid = check_type5_id(
            obj.get("record_id"), type5_ids, decisions, "decision", line_no
        )
        raw = obj.get("verdict")
        verdict = _VERDICTS.get(raw) if type(raw) is str else None
        if verdict is None:
            raise ParseError(f"invalid verdict {raw!r}", line_no)
        label = obj.get("predicted_label")
        if label is not None and not isinstance(label, str):
            raise ParseError(f"invalid predicted label {label!r}", line_no)
        confidence = obj.get("confidence")
        if confidence is not None:
            confidence = check_confidence(confidence, line_no)
        decisions[rid] = Decision(rid, verdict, label, confidence)
    return decisions
