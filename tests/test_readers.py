"""Every input-file reader either returns usable data or raises ParseError.

Each JSONL file kind starts from one valid line; one field of it, at any
depth, is replaced with an arbitrary JSON value, and whatever the reader
returns must survive the use the CLI makes of it. Arbitrary bytes are fed
to each reader as well. A source scan keeps decoding, JSON-line parsing
and the opening of output files in the shared helpers of ``entmatch.corpus``.

``read_jsonl`` and ``read_ledger`` are compared with the readers they
replaced (``oracle_read_jsonl``, ``oracle_read_ledger``) over mixes of plain
and odd lines: each mix gives equal results, or the same ``ParseError``
text and line.
"""

from __future__ import annotations

import ast
import json
from copy import deepcopy
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import entmatch
from entmatch.classifier import load_external_decisions, read_decisions
from entmatch.clsdata import read_pairs
from entmatch.corpus import ParseError, parse_standoff, read_jsonl, serialize_standoff
from entmatch.judgement import UserProfile, human_f, load_judgements
from entmatch.matcher import MismatchType, classify_corpus, read_ledger
from entmatch.metrics import UncoveredRecordsError, learning_based_scores, metric_suite
from oracle import oracle_read_jsonl, oracle_read_ledger

# one document whose two mentions form a single Type-5 record, "d:0"
STANDOFF_LINE = {
    "doc_id": "d",
    "tokens": ["a", "b", "c"],
    "sentence_starts": [0, 2],
    "entities": [
        {"start": 1, "end": 3, "label": "X", "source": "gold"},
        {"start": 0, "end": 2, "label": "X", "source": "predicted"},
    ],
}
REPORT = classify_corpus(parse_standoff(json.dumps(STANDOFF_LINE)))

LEDGER_LINE = {
    "record_id": "d:0",
    "doc_id": "d",
    "kind": "type5",
    "pred": {"span": [0, 2], "label": "X", "text": "a b"},
    "gold": {"span": [1, 3], "label": "X", "text": "b c"},
    "overlap_tokens": 1,
}
PAIRS_LINE = {"text": "a b", "label": "X", "origin": "gold_entity"}
DECISION_LINE = {
    "record_id": "d:0",
    "verdict": "accept",
    "predicted_label": "X",
    "confidence": 0.5,
}
RESPONSE_LINE = {"id": "d:0", "label": "X", "confidence": 0.5}
JUDGEMENT_LINE = {"record_id": "d:0", "score": 3}


def _use_standoff(path: Path) -> None:
    corpus = parse_standoff(path.read_bytes())
    metric_suite(classify_corpus(corpus))
    serialize_standoff(corpus)


def _use_ledger(path: Path) -> None:
    metric_suite(read_ledger(path))


def _use_pairs(path: Path) -> None:
    for pair in read_pairs(path):
        pair.text.strip(), pair.label.strip()
        hash((pair.text, pair.label))


def _check_decisions(decisions) -> None:
    learning_based_scores(REPORT, decisions)
    for d in decisions.values():
        assert d.confidence is None or 0.0 <= d.confidence <= 1.0
        assert d.predicted_label is None or isinstance(d.predicted_label, str)


def _use_decisions(path: Path) -> None:
    _check_decisions(read_decisions(path, REPORT))


def _use_responses(path: Path) -> None:
    _check_decisions(load_external_decisions(REPORT, path))


def _use_judgements(path: Path) -> None:
    records = load_judgements(path, REPORT)
    for profile in UserProfile:
        human_f(REPORT, records, profile)


READERS = {
    "standoff": (STANDOFF_LINE, _use_standoff),
    "ledger": (LEDGER_LINE, _use_ledger),
    "pairs": (PAIRS_LINE, _use_pairs),
    "decisions": (DECISION_LINE, _use_decisions),
    "responses": (RESPONSE_LINE, _use_responses),
    "judgements": (JUDGEMENT_LINE, _use_judgements),
}

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _paths(value, prefix=()):
    """The key path of every value inside ``value``, itself included."""
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, prefix + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _paths(item, prefix + (index,))


def _replaced(value, path, new):
    if not path:
        return new
    copy = deepcopy(value)
    target = copy
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = new
    return copy


def _survives(use, path: Path) -> None:
    try:
        use(path)
    except (ParseError, UncoveredRecordsError):
        pass


@pytest.mark.parametrize("kind", sorted(READERS))
def test_valid_line_is_read(tmp_path, kind):
    line, use = READERS[kind]
    path = tmp_path / "input.jsonl"
    path.write_text(json.dumps(line) + "\n")
    use(path)


@pytest.mark.parametrize("kind", sorted(READERS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_reader_survives_one_replaced_field(tmp_path_factory, kind, data):
    line, use = READERS[kind]
    field = data.draw(st.sampled_from(list(_paths(line))), label="field")
    value = data.draw(JSON_VALUES, label="value")
    path = tmp_path_factory.mktemp(kind) / "input.jsonl"
    path.write_text(json.dumps(_replaced(line, field, value)) + "\n")
    _survives(use, path)


@pytest.mark.parametrize("kind", sorted(READERS))
@settings(max_examples=25, deadline=None)
@given(content=st.binary(max_size=64))
def test_reader_survives_arbitrary_bytes(tmp_path_factory, kind, content):
    path = tmp_path_factory.mktemp(kind) / "input.jsonl"
    path.write_bytes(content)
    _survives(READERS[kind][1], path)


def _functions_containing(text: str) -> set[str]:
    """``module.function`` for every occurrence of ``text`` in the package."""
    found = set()
    for source_path in sorted(Path(entmatch.__file__).parent.glob("*.py")):
        source = source_path.read_text("utf-8")
        functions = [
            node
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for line_no, line in enumerate(source.splitlines(), 1):
            if text in line:
                owners = [f for f in functions if f.lineno <= line_no <= f.end_lineno]
                owner = min(owners, key=lambda f: f.end_lineno - f.lineno, default=None)
                found.add(f"{source_path.stem}.{owner.name if owner else '<module>'}")
    return found


def test_input_files_are_decoded_and_split_in_one_place():
    assert _functions_containing('.decode("utf-8")') == {"corpus.decode_utf8"}
    assert _functions_containing("json.JSONDecodeError") == {"corpus.parse_json_line"}
    assert _functions_containing("read_text(") == set()


def test_output_files_are_opened_in_one_place():
    assert _functions_containing("open(") == {"corpus.open_output"}
    assert _functions_containing(".write_text(") == set()
    assert _functions_containing(".write_bytes(") == set()


# ---------------------------------------------------------------------------
# the line scan against the readers that parsed every line in Python

# lines that a plain scan must not take as they stand: blank and padded
# lines, a carriage return, non-finite numbers, a lone surrogate escape,
# non-objects, trailing data and an object split over two lines
_ODD_LINES = st.sampled_from(
    (
        "", " ", "   ", "\t", "\r", "\u00a0",
        ' {"a": 1}', '{"a": 1} ', '{"a": 1}\r', '\t{"a": 2}', '{"a": 1}\u2028',
        '{"a": NaN}', '{"a": [Infinity]}', '{"a": -Infinity}', '{"a": 1e999}',
        '{"a": "\\ud800"}', '{"a": "x\\uDC00"}', '{"a": "\\ud83d\\ude00"}',
        "[1]", "1", '"x"', "null", "[]", "{}",
        '{"a": 1} x', '{"a": 1}{"b": 2}', '{"a": 1},', '{"a":', "1}", "{bad}",
    )
)
_OBJECT_LINES = st.builds(
    json.dumps,
    st.dictionaries(
        st.sampled_from(("a", "b", "\u00e9")),
        st.none() | st.integers(-2, 2) | st.text(max_size=3) | st.floats(allow_nan=False),
        max_size=2,
    ),
    ensure_ascii=st.booleans(),
)
_BOM = "\ufeff"
# one file in eight starts with a byte order mark, which fails its first line
_BOMS = st.sampled_from((False,) * 7 + (True,))


def _outcome(read):
    """What a reader returns, or the text and line of its ParseError."""
    try:
        return read()
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line)


def _content(lines: list[str], bom: bool) -> bytes:
    return ((_BOM if bom else "") + "\n".join(lines)).encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(st.one_of(_OBJECT_LINES, _OBJECT_LINES, _ODD_LINES), max_size=8),
    bom=_BOMS,
)
@example(lines=['{"a":', "1}"], bom=False)
@example(lines=['{"a": 1}', '{"a": "\\ud800"}', '{"b": 2}'], bom=False)
@example(lines=['{"a": 1}', '{"b": 2}'], bom=True)
def test_jsonl_reader_matches_the_line_by_line_oracle(lines, bom):
    content = _content(lines, bom)
    assert _outcome(lambda: list(read_jsonl(content, "x"))) == _outcome(
        lambda: list(oracle_read_jsonl(content, "x"))
    )


_DELETE = object()
# replacements for one field of a ledger record; _DELETE drops the field
_ODD_VALUES = st.sampled_from(
    (_DELETE, None, True, -1, 0, 2.0, "", "O", "x", [], {}, [0], [1, 0], [0, True],
     [0, 1, 2], "ab", {"span": [0, 1]})
)


@st.composite
def _ledger_lines(draw) -> str:
    """A ledger line: mostly a well-formed record, drawn from few ids and
    spans so that ids repeat and gold spans get conflicting labels; a
    sixth of them with one field replaced or dropped."""
    kind = draw(st.sampled_from(MismatchType))
    doc_id = draw(st.sampled_from(("d", "e")))

    def side():
        start = draw(st.integers(0, 2))
        return {
            "span": [start, start + draw(st.integers(1, 2))],
            "label": draw(st.sampled_from(("X", "X", "X", "Y", "\u00c9"))),
            "text": draw(st.sampled_from(("a", "a b", '"\\'))),
        }

    record = {
        "record_id": f"{doc_id}:{draw(st.integers(0, 9))}",
        "doc_id": doc_id,
        "kind": kind.value,
        "pred": None if kind is MismatchType.TYPE2_FALSE_NEGATIVE else side(),
        "gold": None if kind is MismatchType.TYPE1_FALSE_POSITIVE else side(),
        "overlap_tokens": draw(st.integers(0, 2)),
    }
    if draw(st.sampled_from((False,) * 5 + (True,))):
        field = draw(st.sampled_from(list(_paths(record))[1:]), label="field")
        value = draw(_ODD_VALUES, label="value")
        if value is _DELETE:
            record = deepcopy(record)
            parent = record
            for key in field[:-1]:
                parent = parent[key]
            del parent[field[-1]]
        else:
            record = _replaced(record, field, value)
    return json.dumps(record, ensure_ascii=draw(st.booleans()))


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(_ledger_lines(), max_size=8),
    odd=st.none() | st.tuples(st.integers(0, 8), _ODD_LINES),
    bom=_BOMS,
)
def test_ledger_reader_matches_the_line_by_line_oracle(tmp_path_factory, lines, odd, bom):
    if odd is not None:  # one odd line among the records
        lines.insert(*odd)
    path = tmp_path_factory.mktemp("ledger") / "report.ledger.jsonl"
    path.write_bytes(_content(lines, bom))
    assert _outcome(lambda: read_ledger(path)) == _outcome(lambda: oracle_read_ledger(path))
