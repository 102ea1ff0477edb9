"""Every input-file reader either returns usable data or raises ParseError.

Each JSONL file kind starts from one valid line; one field of it, at any
depth, is replaced with an arbitrary JSON value, and whatever the reader
returns must survive the use the CLI makes of it. Arbitrary bytes are fed
to each reader as well. A source scan keeps decoding, JSON-line parsing
and the opening of output files in the shared helpers of ``entmatch.corpus``.
"""

from __future__ import annotations

import ast
import json
from copy import deepcopy
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import entmatch
from entmatch.classifier import load_external_decisions, read_decisions
from entmatch.clsdata import read_pairs
from entmatch.corpus import ParseError, parse_standoff, serialize_standoff
from entmatch.judgement import UserProfile, human_f, load_judgements
from entmatch.matcher import classify_corpus, read_ledger
from entmatch.metrics import UncoveredRecordsError, learning_based_scores, metric_suite

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
