"""Correctness checks on the files each workload's commands write.

Every check is one operation: ``Ops.check`` counts it as attempted, and as
failed when it returns false or when the files it reads are missing or
malformed. The work counts of a traced iteration are checked too: they are
set by the input, so the benchmark derives each from the files it gave the
program, and a count that differs is a wrong result, not a faster one.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

from gen import KINDS


class Ops:
    """Attempted and failed operations of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: FAILED {name} {detail}".rstrip(), file=sys.stderr)
        return ok

    def check(self, name: str, fn, *args) -> bool:
        """Run ``fn(*args)``, which returns ``(ok, detail)``, as one operation."""
        try:
            ok, detail = fn(*args)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        return self.record(name, ok, detail)


def _jsonl(path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text("utf-8").splitlines() if line]


def _report(path) -> dict:
    return json.loads(Path(path).read_text("utf-8"))


def kind_counts(records) -> dict[str, int]:
    counts = Counter({k: 0 for k in KINDS})
    counts.update(r["kind"] for r in records)
    return dict(counts)


def type5_records(ledger_path) -> list[tuple[str, str]]:
    """``(record_id, prediction label)`` of every Type-5 ledger record."""
    return [(r["record_id"], r["pred"]["label"]) for r in _jsonl(ledger_path) if r["kind"] == "type5"]


def ledger_labels(ledger_path) -> list[str]:
    return sorted({side["label"] for r in _jsonl(ledger_path) for side in (r["pred"], r["gold"]) if side})


def report_counts(report_path, expected: dict[str, int]):
    got = _report(report_path)["summary"]["mismatch_counts"]
    return got == expected, f"report {got} != expected {expected}"


def ledger_matches_report(ledger_path, report_path):
    """Ledger records by kind equal the report's counts, so the ledger holds
    exactly the report's record total."""
    want = _report(report_path)["summary"]["mismatch_counts"]
    got = kind_counts(_jsonl(ledger_path))
    return got == want, f"ledger {got} != report {want}"


def expected_ledger_counts(expected_path) -> dict[str, int]:
    return kind_counts(_jsonl(expected_path))


def one_decision_per_type5(decisions_path, ledger_path):
    got = sorted(d["record_id"] for d in _jsonl(decisions_path))
    want = sorted(rid for rid, _ in type5_records(ledger_path))
    return got == want, f"{len(got)} decisions for {len(want)} Type-5 records"


def learning_f1_sandwiched(refined_path):
    doc = _report(refined_path)
    exact = doc["metrics"]["exact"]["f1"]
    relaxed = doc["metrics"]["relaxed"]["f1"]
    learned = doc["decisions"]["learning_based"]["f1"]
    return exact <= learned <= relaxed, f"exact {exact} learning {learned} relaxed {relaxed}"


def accepted_count(refined_path, want: int):
    got = _report(refined_path)["decisions"]["accepted"]
    return got == want, f"accepted {got} != own-label responses {want}"


def human_f1_sandwiched(judged_path):
    doc = _report(judged_path)
    exact = doc["metrics"]["exact"]["f1"]
    relaxed = doc["metrics"]["relaxed"]["f1"]
    strict = doc["judgement"]["human"]["strict"]["f1"]
    forgiving = doc["judgement"]["human"]["forgiving"]["f1"]
    ok = exact <= strict <= forgiving <= relaxed
    return ok, f"exact {exact} strict {strict} forgiving {forgiving} relaxed {relaxed}"


# ---------------------------------------------------------------------------
# work counts of a traced iteration, derived from the files themselves


def _standoff_counts(text: str) -> tuple[int, int]:
    docs = [json.loads(line) for line in text.splitlines() if line]
    return sum(len(d["tokens"]) for d in docs), sum(len(d["entities"]) for d in docs)


def _iob_counts(text: str) -> tuple[int, int]:
    """Tokens and mentions of IOB2 text; an orphan ``I-`` opens a mention."""
    tokens = mentions = 0
    prev = "O"
    for line in text.splitlines():
        if not line or line.startswith("-DOCSTART-"):
            prev = "O"
            continue
        tag = line.rsplit("\t", 1)[1]
        tokens += 1
        if tag.startswith("B-") or (tag.startswith("I-") and prev[2:] != tag[2:]):
            mentions += 1
        prev = tag
    return tokens, mentions


def corpus_counts(*files: tuple[str, str]) -> dict[str, int]:
    """``corpus.tokens`` and ``corpus.mentions`` of parsing each ``(path, format)``."""
    tokens = mentions = 0
    for path, fmt in files:
        count = _standoff_counts if fmt == "standoff" else _iob_counts
        t, m = count(Path(path).read_text("utf-8"))
        tokens, mentions = tokens + t, mentions + m
    return {"corpus.tokens": tokens, "corpus.mentions": mentions}


def record_counts(expected: dict[str, int]) -> dict[str, int]:
    return {"matcher.records": sum(expected.values()), "matcher.type5": expected["type5"]}


def pair_counts(pairs_path) -> dict[str, int]:
    texts = [p["text"] for p in _jsonl(pairs_path)]
    return {"clsdata.pairs": len(texts), "clsdata.distinct_texts": len(set(texts))}


def line_count(path) -> int:
    return len(_jsonl(path))


def counts_equal(got: dict[str, float], want: dict[str, int]):
    wrong = {k: (got.get(k, 0), v) for k, v in want.items() if got.get(k, 0) != v}
    return not wrong, f"(traced, expected): {wrong}"
