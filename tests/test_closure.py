"""Closure: every file a command writes with exit 0, entmatch reads back.

Over small random corpora and drawn option values, each file that a
command writes with exit 0 is given to every command that reads that kind
of file, which must exit 0 as well:

- ``eval`` -> ``refine`` and ``judge`` (report and ledger)
- ``build-clsdata`` -> ``train-cls`` (pairs)
- ``train-cls`` -> ``refine --model`` (model)
- ``refine`` -> ``judge --decisions`` (decisions)
- ``perturb`` -> ``eval --format standoff`` (gold and prediction)
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from entmatch.cli import EXIT_OK, EXIT_USAGE, main
from entmatch.corpus import Corpus, Document, serialize_standoff
from oracle import random_paired_corpus

# train-cls refuses pairs of one label, and a learning rate at which its
# training diverges, with exit 1
TRAIN_REFUSALS = ("need at least 2 distinct labels", "training diverged")


def _run(*argv: str) -> tuple[int, str]:
    """The exit code and standard error of one command."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    return code, err.getvalue()


def _accepts(*argv: str) -> None:
    code, err = _run(*argv)
    assert code == EXIT_OK, f"{argv[0]} exited {code}: {err.strip()}"


def _side(corpus: Corpus, gold: bool) -> str:
    """The standoff text of one side of ``corpus``."""
    return serialize_standoff(
        Corpus.from_documents(
            Document(
                d.doc_id,
                d.tokens,
                d.sentence_starts,
                d.gold_entities if gold else [],
                [] if gold else d.pred_entities,
            )
            for d in corpus.documents
        )
    )


def _type5_ids(ledger: Path) -> list[str]:
    rows = [json.loads(line) for line in ledger.read_text("utf-8").splitlines()]
    return [row["record_id"] for row in rows if row["kind"] == "type5"]


@st.composite
def _rates(draw) -> list[str]:
    """``perturb`` flags whose five entity-operation rates sum to at most 1."""
    rates = [draw(st.floats(0.0, 1.0)) for _ in range(5)]
    total = sum(rates)
    if total > 1.0:
        rates = [rate / total * 0.999 for rate in rates]
    names = ("extend", "shrink", "split", "relabel", "drop")
    flags = [arg for name, rate in zip(names, rates) for arg in (f"--{name}-rate", repr(rate))]
    return flags + [
        "--extend-tokens", str(draw(st.integers(1, 3))),
        "--shrink-tokens", str(draw(st.integers(1, 3))),
        "--insert-rate", repr(draw(st.floats(0.0, 1.0))),
        "--seed", str(draw(st.integers(0, 1 << 16))),
    ]


_LEARNING_RATES = st.sampled_from((1e-3, 0.5, 1e10, 1e300, 1e308)) | st.floats(
    1e-6, 1e308, allow_nan=False, allow_infinity=False
)


@settings(max_examples=25, deadline=None)
@given(
    corpus_seed=st.integers(0, 1 << 16),
    n_docs=st.integers(1, 4),
    chunk_tokens=st.integers(1, 6),
    learning_rate=_LEARNING_RATES,
    buckets=st.integers(2, 64),
    epochs=st.integers(1, 3),
    perturb_flags=_rates(),
)
def test_every_written_file_is_read_back(
    corpus_seed, n_docs, chunk_tokens, learning_rate, buckets, epochs, perturb_flags
):
    corpus = random_paired_corpus(
        random.Random(corpus_seed), n_docs, max_tokens=12, max_entities=5
    )
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)

        def path(name: str) -> str:
            return str(work / name)

        Path(path("gold.jsonl")).write_text(_side(corpus, gold=True), "utf-8")
        Path(path("pred.jsonl")).write_text(_side(corpus, gold=False), "utf-8")
        standoff = ("--format", "standoff")

        # eval -> refine and judge
        _accepts("eval", path("gold.jsonl"), path("pred.jsonl"), *standoff,
                 "--out", path("report.json"))
        ids = _type5_ids(work / "report.ledger.jsonl")
        Path(path("responses.jsonl")).write_text(
            "".join(
                json.dumps({"id": rid, "label": "other", "confidence": 0.5}) + "\n"
                for rid in ids
            )
        )
        Path(path("scores.tsv")).write_text("".join(f"{rid}\t3\n" for rid in ids))
        _accepts("refine", path("report.json"), "--external-decisions",
                 path("responses.jsonl"), "--out", path("external.json"))
        _accepts("judge", path("report.json"), path("scores.tsv"),
                 "--out", path("judged.json"))

        # perturb -> eval --format standoff
        _accepts("perturb", path("gold.jsonl"), *standoff, *perturb_flags,
                 "--out-prefix", path("syn"))
        _accepts("eval", path("syn.gold.jsonl"), path("syn.pred.jsonl"), *standoff,
                 "--out", path("syn.json"))

        # build-clsdata -> train-cls -> refine --model -> judge --decisions
        code, err = _run("build-clsdata", path("gold.jsonl"), *standoff,
                         "--max-chunk-tokens", str(chunk_tokens),
                         "--out", path("pairs.jsonl"))
        if code != EXIT_OK:  # a corpus without gold entities has no pairs
            assert code == EXIT_USAGE and "no gold entities" in err, err
            return
        code, err = _run("train-cls", path("pairs.jsonl"),
                         "--learning-rate", repr(learning_rate),
                         "--buckets", str(buckets), "--epochs", str(epochs),
                         "--out", path("model.entcls"))
        if code != EXIT_OK:
            assert code == EXIT_USAGE and any(r in err for r in TRAIN_REFUSALS), err
            assert not (work / "model.entcls").exists()
            return
        _accepts("refine", path("report.json"), "--model", path("model.entcls"),
                 "--out", path("refined.json"))
        _accepts("judge", path("refined.json"), path("scores.tsv"), "--decisions",
                 path("refined.decisions.jsonl"), "--out", path("judged-model.json"))
