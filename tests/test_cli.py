from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import random
import stat
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import entmatch
from entmatch.cli import (
    EXIT_ALIGNMENT,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_UNCOVERED,
    EXIT_USAGE,
    _COMMANDS,
    _write_json,
    build_parser,
    main,
)
from entmatch.corpus import Corpus, Document, Source, serialize_standoff, write_jsonl
from oracle import random_paired_corpus

LIVER_TOKENS = "1cm cyst in the right lobe of the liver".split()

GOLD_IOB = (
    "-DOCSTART- liver-1\n"
    + "".join(
        f"{tok}\t{tag}\n"
        for tok, tag in zip(
            LIVER_TOKENS,
            ["B-problem"] + ["I-problem"] * 8,
        )
    )
    + "-DOCSTART- visit-2\n"
    "started\tO\n"
    "cough\tB-treatment\n"
    "syrup\tI-treatment\n"
    "twice\tO\n"
    "daily\tO\n"
    "-DOCSTART- visit-3\n"
    "denies\tO\n"
    "chest\tB-problem\n"
    "pain\tI-problem\n"
    "or\tO\n"
    "fever\tB-problem\n"
)

PRED_IOB = (
    "-DOCSTART- liver-1\n"
    + "".join(
        f"{tok}\t{tag}\n"
        for tok, tag in zip(
            LIVER_TOKENS,
            ["B-problem"] + ["I-problem"] * 5 + ["O", "O", "B-problem"],
        )
    )
    + "-DOCSTART- visit-2\n"
    "started\tO\n"
    "cough\tB-treatment\n"
    "syrup\tI-treatment\n"
    "twice\tO\n"
    "daily\tO\n"
    "-DOCSTART- visit-3\n"
    "denies\tO\n"
    "chest\tB-treatment\n"
    "pain\tI-treatment\n"
    "or\tO\n"
    "fever\tB-problem\n"
)


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "gold.iob").write_text(GOLD_IOB)
    (tmp_path / "pred.iob").write_text(PRED_IOB)
    return tmp_path


def _eval(workspace, *extra):
    out = workspace / "report.json"
    code = main(
        [
            "eval",
            str(workspace / "gold.iob"),
            str(workspace / "pred.iob"),
            "--out",
            str(out),
            *extra,
        ]
    )
    return code, out


def _report_t5_ids(out):
    doc = json.loads(out.read_text())
    ledger = doc["outputs"]["ledger"]
    ids = []
    for line in open(ledger, encoding="utf-8"):
        row = json.loads(line)
        if row["kind"] == "type5":
            ids.append(row["record_id"])
    return ids


def _assert_parse_error(code, capsys):
    err = capsys.readouterr().err
    assert code == EXIT_PARSE
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    return err


# ---------------------------------------------------------------------------
# eval


def test_eval_writes_report_and_ledger(workspace, capsys):
    code, out = _eval(workspace)
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["summary"]["gold_entities"] == 4
    assert doc["summary"]["pred_entities"] == 5
    assert doc["summary"]["mismatch_counts"] == {
        "exact_match": 2,
        "type1": 0,
        "type2": 0,
        "type3": 1,
        "type4": 0,
        "type5": 2,
    }
    assert doc["metrics"]["exact"]["f1_pct"] == "44.44"
    assert doc["metrics"]["relaxed"]["tp_pred"] == 4
    assert (workspace / "report.ledger.jsonl").exists()
    printed = capsys.readouterr().out
    assert "exact F1: 44.44" in printed


def test_eval_reports_are_byte_identical_across_reruns(workspace):
    _, out = _eval(workspace)
    first = out.read_bytes()
    _, out = _eval(workspace)
    assert out.read_bytes() == first


def test_eval_records_input_digests(workspace):
    _, out = _eval(workspace)
    doc = json.loads(out.read_text())
    digest = doc["inputs"]["gold"]["sha256"]
    assert len(digest) == 64 and int(digest, 16) >= 0
    assert doc["inputs"]["pred"]["path"].endswith("pred.iob")


def test_eval_standoff_input_round_trip(workspace):
    # convert by evaluating IOB, then perturb the same gold as standoff
    code, out = _eval(workspace)
    assert code == EXIT_OK
    from entmatch.corpus import parse_iob, serialize_standoff, Source

    gold_corpus = parse_iob(GOLD_IOB)
    pred_corpus = parse_iob(PRED_IOB, source=Source.PREDICTED)
    (workspace / "gold.jsonl").write_text(serialize_standoff(gold_corpus))
    (workspace / "pred.jsonl").write_text(serialize_standoff(pred_corpus))
    out2 = workspace / "report2.json"
    code = main(
        [
            "eval",
            str(workspace / "gold.jsonl"),
            str(workspace / "pred.jsonl"),
            "--format",
            "standoff",
            "--out",
            str(out2),
        ]
    )
    assert code == EXIT_OK
    a = json.loads(out.read_text())
    b = json.loads(out2.read_text())
    assert a["summary"] == b["summary"]
    assert a["metrics"] == b["metrics"]


def test_eval_renders_markdown_next_to_the_report(workspace):
    code, out = _eval(workspace, "--render", "markdown")
    assert code == EXIT_OK
    rendered = out.with_suffix(".md").read_text()
    assert rendered.startswith("# entmatch report")
    assert "| exact |" in rendered


def test_eval_alignment_failure_exits_3(workspace):
    (workspace / "pred.iob").write_text("-DOCSTART- other-doc\nword\tO\n")
    code, _ = _eval(workspace)
    assert code == EXIT_ALIGNMENT


def test_eval_parse_failure_exits_2(workspace):
    (workspace / "pred.iob").write_text("word\tZ-problem\n")
    code, _ = _eval(workspace)
    assert code == EXIT_PARSE


@pytest.mark.parametrize("tag", ["B-O", "I-O", "B- O"])
def test_eval_entity_labelled_o_exits_2(workspace, capsys, tag):
    (workspace / "pred.iob").write_text(f"word\t{tag}\n")
    code, _ = _eval(workspace)
    assert f"line 1: malformed tag {tag!r}" in _assert_parse_error(code, capsys)


def test_eval_boolean_standoff_span_exits_2(workspace, capsys):
    line = {"doc_id": "d", "tokens": ["a", "b"], "entities": []}
    (workspace / "pred.jsonl").write_text(json.dumps(line) + "\n")
    entity = {"start": False, "end": True, "label": "X", "source": "gold"}
    (workspace / "gold.jsonl").write_text(
        json.dumps({**line, "entities": [entity]}) + "\n"
    )
    code = main(
        [
            "eval",
            str(workspace / "gold.jsonl"),
            str(workspace / "pred.jsonl"),
            "--format",
            "standoff",
            "--out",
            str(workspace / "report.json"),
        ]
    )
    _assert_parse_error(code, capsys)


def test_eval_overlap_across_sources_of_one_file_exits_2(workspace, capsys):
    # the two entities parse onto different sides of the gold file's
    # document; pairing makes both gold mentions, and they overlap
    line = {"doc_id": "d", "tokens": ["a", "b", "c"], "entities": []}
    (workspace / "pred.jsonl").write_text(json.dumps(line) + "\n")
    entities = [
        {"start": 0, "end": 2, "label": "X", "source": "gold"},
        {"start": 1, "end": 3, "label": "X", "source": "predicted"},
    ]
    (workspace / "gold.jsonl").write_text(
        json.dumps({**line, "entities": entities}) + "\n"
    )
    code = main(
        [
            "eval",
            str(workspace / "gold.jsonl"),
            str(workspace / "pred.jsonl"),
            "--format",
            "standoff",
            "--out",
            str(workspace / "report.json"),
        ]
    )
    assert "overlapping gold spans" in _assert_parse_error(code, capsys)


@pytest.mark.parametrize("field", ["token", "label"])
def test_eval_lone_surrogate_exits_2(workspace, capsys, field):
    line = {
        "doc_id": "d",
        "tokens": ["a", "b"],
        "entities": [{"start": 0, "end": 2, "label": "X", "source": "gold"}],
    }
    if field == "token":
        line["tokens"][1] = "\ud800"
    else:
        line["entities"][0]["label"] = "\udfff"
    standoff = workspace / "gold.jsonl"
    # json.dumps escapes the surrogate as \ud800, which JSON allows
    standoff.write_text(json.dumps(line) + "\n")
    code = main(
        [
            "eval",
            str(standoff),
            str(standoff),
            "--format",
            "standoff",
            "--out",
            str(workspace / "report.json"),
        ]
    )
    err = _assert_parse_error(code, capsys)
    assert "line 1: standoff file line holds a lone UTF-16 surrogate" in err
    assert not (workspace / "report.ledger.jsonl").exists()


def test_train_cls_on_lone_surrogate_exits_2(workspace, capsys):
    pairs = workspace / "pairs.jsonl"
    good = {"text": "fever", "label": "problem", "origin": "gold_entity"}
    other = {"text": "a\udc00b", "label": "other", "origin": "sampled_chunk"}
    pairs.write_text(json.dumps(good) + "\n" + json.dumps(other) + "\n")
    code = main(["train-cls", str(pairs), "--out", str(workspace / "m.entcls")])
    err = _assert_parse_error(code, capsys)
    assert "line 2: pairs file line holds a lone UTF-16 surrogate" in err


def test_train_cls_with_too_many_buckets_exits_1_before_training(workspace, capsys):
    pairs = workspace / "pairs.jsonl"
    pairs.write_text(
        json.dumps({"text": "fever", "label": "problem", "origin": "gold_entity"})
        + "\n"
        + json.dumps({"text": "the ward", "label": "other", "origin": "sampled_chunk"})
        + "\n"
    )
    model = workspace / "m.entcls"
    code = main(["train-cls", str(pairs), "--buckets", str(2**64), "--out", str(model)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == (
        f"entmatch: error: bucket count must be at most {2**31}, got {2**64}\n"
    )
    assert not model.exists()


def test_eval_missing_file_exits_1(workspace):
    code = main(
        ["eval", str(workspace / "absent.iob"), str(workspace / "pred.iob")]
    )
    assert code == EXIT_USAGE


def test_usage_error_exits_1():
    assert main([]) == EXIT_USAGE
    assert main(["eval"]) == EXIT_USAGE
    assert main(["no-such-command"]) == EXIT_USAGE


# each command's help, a top-level error and a full command line with options
_PARSED_ARGVS = [
    ["--help"],
    ["no-such-command"],
    *([name, "--help"] for name in _COMMANDS),
    ["eval", "g.iob", "p.iob", "--format", "standoff", "--ledger", "l.jsonl"],
    ["refine", "r.json", "--external-decisions", "x.jsonl", "--bogus"],
    ["perturb", "g.iob", "--seed", "3", "--insert-rate", "0.1", "--out-prefix", "s"],
]


@pytest.mark.parametrize("argv", _PARSED_ARGVS)
def test_parser_built_for_its_argv_parses_and_prints_as_the_full_parser(argv, capsys):
    # build_parser(argv) adds arguments only to the subcommands argv names
    results = []
    for parser in (build_parser(), build_parser(argv)):
        try:
            parsed = vars(parser.parse_args(argv))
        except SystemExit as exc:
            parsed = exc.code
        results.append((parsed, capsys.readouterr()))
    assert results[0] == results[1]


def test_version_flag_exits_0(capsys):
    assert main(["--version"]) == 0
    assert "entmatch" in capsys.readouterr().out


@pytest.mark.parametrize("collecting", [True, False])
def test_main_restores_the_cyclic_collector(workspace, capsys, collecting):
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        assert _eval(workspace)[0] == EXIT_OK
        assert gc.isenabled() is collecting
        missing = ["eval", str(workspace / "missing.iob"), str(workspace / "pred.iob")]
        assert main(missing) == EXIT_USAGE
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()


# ---------------------------------------------------------------------------
# output files


def test_eval_overwrites_an_existing_output_in_place(workspace):
    _, out = _eval(workspace)
    ledger = workspace / "report.ledger.jsonl"
    want = {path: path.read_bytes() for path in (out, ledger)}
    inodes = {}
    for path in want:
        path.write_bytes(b"stale\n" * 100_000)
        path.chmod(0o600)
        inodes[path] = path.stat().st_ino
    code, _ = _eval(workspace)
    assert code == EXIT_OK
    for path, content in want.items():
        assert path.read_bytes() == content
        assert path.stat().st_ino == inodes[path]
        assert stat.S_IMODE(path.stat().st_mode) == 0o600


def test_output_through_a_symlink_writes_its_target(workspace):
    _, out = _eval(workspace)
    want = (workspace / "report.ledger.jsonl").read_bytes()
    target = workspace / "real.ledger.jsonl"
    target.write_bytes(b"stale\n" * 100_000)
    link = workspace / "link.ledger.jsonl"
    link.symlink_to(target.name)
    code, _ = _eval(workspace, "--ledger", str(link))
    assert code == EXIT_OK
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_bytes() == want


@pytest.mark.parametrize("flag", ["--out", "--ledger"])
def test_directory_output_exits_1(workspace, capsys, flag):
    target = workspace / "a-directory"
    target.mkdir()
    outputs = {"--out": workspace / "r.json", "--ledger": workspace / "l.jsonl"}
    outputs[flag] = target
    argv = ["eval", str(workspace / "gold.iob"), str(workspace / "pred.iob")]
    for name, path in outputs.items():
        argv += [name, str(path)]
    assert main(argv) == EXIT_USAGE
    assert "Traceback" not in capsys.readouterr().err
    assert target.is_dir()


def test_output_through_a_symlink_loop_exits_1(workspace, capsys):
    loop = workspace / "loop.json"
    loop.symlink_to(loop.name)
    code, _ = _eval(workspace, "--ledger", str(loop))
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def _files(root):
    return {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}


@pytest.mark.parametrize(
    "command, flags",
    [
        ("eval", ["--out", "r.md", "--render", "markdown"]),
        ("eval", ["--out", "r.json", "--ledger", "r.json"]),
        ("eval", ["--out", "r.json", "--ledger", "sub/../r.json"]),
        ("refine", ["--out", "r.json", "--decisions-out", "r.json"]),
        ("refine", ["--out", "r.json", "--decisions-out", "r.md", "--render", "markdown"]),
        ("refine", ["--out", "r.md", "--render", "markdown"]),
        ("judge", ["--out", "r.md", "--render", "markdown"]),
    ],
    ids=[
        "eval-markdown-over-report",
        "eval-ledger-over-report",
        "eval-ledger-over-report-by-another-path",
        "refine-decisions-over-report",
        "refine-decisions-over-markdown",
        "refine-markdown-over-report",
        "judge-markdown-over-report",
    ],
)
def test_two_outputs_given_one_file_exit_1_and_write_nothing(
    workspace, capsys, monkeypatch, command, flags
):
    _, report = _eval(workspace)
    t5_ids = _report_t5_ids(report)
    (workspace / "responses.jsonl").write_text("".join(
        json.dumps({"id": rid, "label": "problem", "confidence": 1.0}) + "\n"
        for rid in t5_ids
    ))
    (workspace / "scores.tsv").write_text("".join(f"{rid}\t3\n" for rid in t5_ids))
    (workspace / "sub").mkdir()
    (workspace / "r.json").write_text("an output that is already there\n")
    monkeypatch.chdir(workspace)
    argv = {
        "eval": ["eval", "gold.iob", "pred.iob"],
        "refine": ["refine", "report.json", "--external-decisions", "responses.jsonl"],
        "judge": ["judge", "report.json", "scores.tsv"],
    }[command]
    before = _files(workspace)
    capsys.readouterr()
    assert main(argv + flags) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert "are the same file" in err
    assert _files(workspace) == before


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "gold.iob", "pred.iob", "--out", "r.json", "--ledger", "gold.iob"],
        ["build-clsdata", "gold.iob", "--out", "sub/../gold.iob"],
        ["train-cls", "pairs.jsonl", "--out", "pairs.jsonl"],
        ["refine", "report.json", "--external-decisions", "responses.jsonl",
         "--decisions-out", "report.ledger.jsonl"],
        ["judge", "report.json", "scores.tsv", "--out", "scores.tsv"],
        ["perturb", "p.gold.jsonl", "--format", "standoff", "--out-prefix", "p"],
    ],
    ids=[
        "eval-ledger-over-gold",
        "build-clsdata-pairs-over-corpus",
        "train-cls-model-over-pairs",
        "refine-decisions-over-the-ledger-the-report-names",
        "judge-report-over-judgements",
        "perturb-gold-over-its-input",
    ],
)
def test_output_that_is_an_input_exits_1_and_writes_nothing(
    workspace, capsys, monkeypatch, argv
):
    from entmatch.corpus import parse_iob, serialize_standoff

    _, report = _eval(workspace)  # names the ledger by its absolute path
    t5_ids = _report_t5_ids(report)
    (workspace / "responses.jsonl").write_text("".join(
        json.dumps({"id": rid, "label": "problem", "confidence": 1.0}) + "\n"
        for rid in t5_ids
    ))
    (workspace / "scores.tsv").write_text("".join(f"{rid}\t3\n" for rid in t5_ids))
    assert main(["build-clsdata", str(workspace / "gold.iob"),
                 "--out", str(workspace / "pairs.jsonl")]) == EXIT_OK
    (workspace / "p.gold.jsonl").write_text(serialize_standoff(parse_iob(GOLD_IOB)))
    (workspace / "sub").mkdir()
    monkeypatch.chdir(workspace)
    before = _files(workspace)
    capsys.readouterr()
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert "are the same file" in err
    assert _files(workspace) == before


# ---------------------------------------------------------------------------
# classifier pipeline


def _train_model(workspace):
    pairs = workspace / "pairs.jsonl"
    code = main(
        [
            "build-clsdata",
            str(workspace / "gold.iob"),
            "--out",
            str(pairs),
        ]
    )
    assert code == EXIT_OK
    model = workspace / "model.entcls"
    code = main(
        [
            "train-cls",
            str(pairs),
            "--buckets",
            str(1 << 12),
            "--epochs",
            "12",
            "--out",
            str(model),
        ]
    )
    assert code == EXIT_OK
    return model


def _child_env():
    """The environment for a child interpreter that imports this ``entmatch``.

    A child may run in another directory, where a relative PYTHONPATH (or
    pytest's ``pythonpath`` setting, which reaches no child) would miss the
    package, so the path of the one this test imported leads PYTHONPATH.
    """
    package_root = os.path.dirname(os.path.dirname(entmatch.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


_MAXRSS_CHILD = (
    "import resource, sys\n"
    "import entmatch.cli\n"
    "code = entmatch.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
    "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
)


def _child_maxrss_kib(*argv):
    """Run the CLI in a fresh interpreter; its peak resident set in KiB."""
    result = subprocess.run(
        [sys.executable, "-c", _MAXRSS_CHILD, *argv],
        env=_child_env(), capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    code, maxrss = result.stdout.split()[-2:]
    assert int(code) == EXIT_OK
    return int(maxrss)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_train_and_refine_peak_rss_is_below_twice_the_model_file(workspace):
    # each command's peak resident set, over a bare interpreter's, stays
    # below twice the model file (40 MB at the default 2**20 buckets). One
    # dense copy of the weights is the file's size and passes this bound;
    # test_training_and_model_io_hold_no_dense_matrix is the test that
    # fails on one.
    _, report = _eval(workspace)
    pairs, model = workspace / "pairs.jsonl", workspace / "model.entcls"
    code = main(["build-clsdata", str(workspace / "gold.iob"), "--out", str(pairs)])
    assert code == EXIT_OK
    bare = _child_maxrss_kib()
    trained = _child_maxrss_kib("train-cls", str(pairs), "--out", str(model))
    refined = _child_maxrss_kib(
        "refine", str(report), "--model", str(model),
        "--out", str(workspace / "refined.json"),
    )
    model_kib = model.stat().st_size / 1024
    assert model_kib > 16 * 1024
    assert trained - bare < 2 * model_kib
    assert refined - bare < 2 * model_kib


def test_build_clsdata_writes_labelled_pairs(workspace):
    pairs_path = workspace / "pairs.jsonl"
    code = main(
        ["build-clsdata", str(workspace / "gold.iob"), "--out", str(pairs_path)]
    )
    assert code == EXIT_OK
    rows = [json.loads(line) for line in pairs_path.read_text().splitlines()]
    labels = {row["label"] for row in rows}
    assert {"problem", "treatment", "other"} <= labels
    texts = {row["text"] for row in rows if row["label"] == "problem"}
    assert "chest pain" in texts and "fever" in texts


@pytest.mark.parametrize(
    "row", [{"text": 5}, {"label": ["X"]}], ids=["integer-text", "list-label"]
)
def test_train_cls_on_pair_of_wrong_type_exits_2(workspace, capsys, row):
    pairs = workspace / "pairs.jsonl"
    good = {"text": "fever", "label": "problem", "origin": "gold_entity"}
    pairs.write_text(
        json.dumps(good) + "\n" + json.dumps({**good, **row}) + "\n"
    )
    code = main(["train-cls", str(pairs), "--out", str(workspace / "m.entcls")])
    _assert_parse_error(code, capsys)


def test_train_cls_on_whitespace_only_text_exits_2(workspace, capsys):
    pairs = workspace / "pairs.jsonl"
    good = {"text": "fever", "label": "problem", "origin": "gold_entity"}
    other = {"text": " \t ", "label": "other", "origin": "sampled_chunk"}
    pairs.write_text(json.dumps(good) + "\n" + json.dumps(other) + "\n")
    code = main(["train-cls", str(pairs), "--out", str(workspace / "m.entcls")])
    err = _assert_parse_error(code, capsys)
    assert "line 2: training pair with empty text" in err


@pytest.mark.parametrize("rate", ["nan", "inf"])
def test_train_cls_with_non_finite_learning_rate_exits_1(workspace, capsys, rate):
    pairs, model = workspace / "pairs.jsonl", workspace / "m.entcls"
    assert main(["build-clsdata", str(workspace / "gold.iob"), "--out", str(pairs)]) == EXIT_OK
    capsys.readouterr()
    code = main(["train-cls", str(pairs), "--learning-rate", rate, "--out", str(model)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert "learning rate must be finite" in err
    assert not model.exists()


def test_train_cls_that_diverges_exits_1(workspace, capsys, recwarn):
    # a finite rate so large that the weights overflow to NaN
    pairs, model = workspace / "pairs.jsonl", workspace / "m.entcls"
    assert main(["build-clsdata", str(workspace / "gold.iob"), "--out", str(pairs)]) == EXIT_OK
    capsys.readouterr()
    code = main(["train-cls", str(pairs), "--learning-rate", "1e308", "--out", str(model)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert "training diverged" in err
    assert not model.exists()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_build_clsdata_on_whitespace_only_standoff_token_exits_2(workspace, capsys):
    # a gold entity over the token would become a training pair of blank text
    line = {
        "doc_id": "d",
        "tokens": ["fever", " ", "cough"],
        "entities": [{"start": 0, "end": 2, "label": "problem", "source": "gold"}],
    }
    standoff, pairs = workspace / "train.jsonl", workspace / "pairs.jsonl"
    standoff.write_text(json.dumps(line) + "\n")
    code = main(
        ["build-clsdata", str(standoff), "--format", "standoff", "--out", str(pairs)]
    )
    err = _assert_parse_error(code, capsys)
    assert "line 1: 'tokens' must be a list of non-empty strings" in err
    assert not pairs.exists()


@pytest.mark.parametrize("flag", ["--stopwords", "--chunks"])
def test_build_clsdata_non_utf8_word_file_exits_2(workspace, capsys, flag):
    words = workspace / "words.txt"
    words.write_bytes(b"the\n\xff\xfe\n")
    code = main(
        [
            "build-clsdata",
            str(workspace / "gold.iob"),
            flag,
            str(words),
            "--out",
            str(workspace / "pairs.jsonl"),
        ]
    )
    assert "UTF-8" in _assert_parse_error(code, capsys)


def test_refine_with_model_appends_decisions(workspace, capsys):
    _, out = _eval(workspace)
    model = _train_model(workspace)
    refined = workspace / "refined.json"
    code = main(
        ["refine", str(out), "--model", str(model), "--out", str(refined)]
    )
    assert code == EXIT_OK
    doc = json.loads(refined.read_text())
    section = doc["decisions"]
    assert section["type5_total"] == 2
    assert section["accepted"] + section["rejected"] == 2
    assert section["source"].startswith("model:")
    lb = section["learning_based"]
    exact = doc["metrics"]["exact"]["f1"]
    relaxed = doc["metrics"]["relaxed"]["f1"]
    assert exact <= lb["f1"] <= relaxed
    decisions_file = workspace / "refined.decisions.jsonl"
    assert decisions_file.exists()
    assert "learning-based F1" in capsys.readouterr().out
    # the original eval sections are preserved untouched
    assert doc["summary"] == json.loads(out.read_text())["summary"]


def test_refine_accept_all_external_matches_relaxed(workspace):
    _, out = _eval(workspace)
    responses = workspace / "responses.jsonl"
    responses.write_text(
        "".join(
            json.dumps({"id": rid, "label": "problem", "confidence": 1.0}) + "\n"
            for rid in _report_t5_ids(out)
        )
    )
    refined = workspace / "refined.json"
    code = main(
        [
            "refine",
            str(out),
            "--external-decisions",
            str(responses),
            "--out",
            str(refined),
        ]
    )
    assert code == EXIT_OK
    doc = json.loads(refined.read_text())
    assert doc["decisions"]["accepted"] == 2
    assert doc["decisions"]["learning_based"]["f1"] == doc["metrics"]["relaxed"]["f1"]


def test_refine_incomplete_external_decisions_exit_4(workspace):
    _, out = _eval(workspace)
    responses = workspace / "responses.jsonl"
    rid = _report_t5_ids(out)[0]
    responses.write_text(
        json.dumps({"id": rid, "label": "problem", "confidence": 1.0}) + "\n"
    )
    code = main(
        ["refine", str(out), "--external-decisions", str(responses)]
    )
    assert code == EXIT_UNCOVERED


def test_refine_requires_exactly_one_decision_source(workspace):
    _, out = _eval(workspace)
    assert main(["refine", str(out)]) == EXIT_USAGE


@pytest.mark.parametrize("command", ["refine", "judge"])
@pytest.mark.parametrize(
    "field, value",
    [("span", [True, 2]), ("text", 5), ("label", ["problem"])],
    ids=["boolean-span", "integer-text", "list-label"],
)
def test_ledger_mention_of_wrong_type_exits_2(
    workspace, capsys, command, field, value
):
    def edit(row):
        row["pred"][field] = value

    code = _run_on_edited_type5_row(workspace, capsys, command, edit)
    _assert_parse_error(code, capsys)


@pytest.mark.parametrize("command", ["refine", "judge"])
@pytest.mark.parametrize("kind", [["type5"], 5, None], ids=["list", "integer", "null"])
def test_ledger_record_of_unknown_kind_exits_2(workspace, capsys, command, kind):
    def edit(row):
        row["kind"] = kind

    code = _run_on_edited_type5_row(workspace, capsys, command, edit)
    err = _assert_parse_error(code, capsys)
    assert f"unknown record kind {kind!r}" in err


def _run_on_edited_type5_row(workspace, capsys, command, edit):
    """Run ``refine --model`` or ``judge`` after ``edit`` changed the ledger
    row of the first Type-5 record; returns the exit code, with only that
    command's output left in ``capsys``."""
    _, out = _eval(workspace)
    judgements = workspace / "judgements.tsv"
    judgements.write_text("".join(f"{rid}\t4\n" for rid in _report_t5_ids(out)))
    model = _train_model(workspace)
    ledger = workspace / "report.ledger.jsonl"
    rows = [json.loads(line) for line in ledger.read_text().splitlines()]
    edit(next(r for r in rows if r["kind"] == "type5"))
    ledger.write_text("".join(json.dumps(r) + "\n" for r in rows))
    capsys.readouterr()
    argv = (
        ["refine", str(out), "--model", str(model)]
        if command == "refine"
        else ["judge", str(out), str(judgements)]
    )
    argv += ["--out", str(workspace / "out.json")]
    return main(argv)


def test_refine_without_ledger_reference_exits_1(workspace):
    report = workspace / "bare.json"
    report.write_text("{}")
    code = main(
        ["refine", str(report), "--external-decisions", str(workspace / "x.jsonl")]
    )
    assert code == EXIT_USAGE


@pytest.mark.parametrize("command", ["refine", "judge"])
def test_relative_ledger_path_resolves_beside_the_report(
    workspace, monkeypatch, capsys, command
):
    # eval stores the ledger path as it was given, relative to its own
    # working directory; refine and judge run here from the parent
    monkeypatch.chdir(workspace)
    argv = ["eval", "gold.iob", "pred.iob", "--out", "report.json",
            "--ledger", "report.ledger.jsonl"]
    assert main(argv) == EXIT_OK
    ids = _report_t5_ids(workspace / "report.json")
    (workspace / "responses.jsonl").write_text(
        "".join(
            json.dumps({"id": rid, "label": "problem", "confidence": 0.5}) + "\n"
            for rid in ids
        )
    )
    (workspace / "judgements.tsv").write_text("".join(f"{rid}\t4\n" for rid in ids))
    monkeypatch.chdir(workspace.parent)
    run = workspace.name
    argv = (
        ["refine", f"{run}/report.json", "--external-decisions", f"{run}/responses.jsonl"]
        if command == "refine"
        else ["judge", f"{run}/report.json", f"{run}/judgements.tsv"]
    )
    argv += ["--out", f"{run}/out.json"]
    assert main(argv) == EXIT_OK
    (workspace / "report.ledger.jsonl").unlink()
    capsys.readouterr()
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "report.ledger.jsonl" in err and f"{run}/report.ledger.jsonl" in err


def _model_blob(header: bytes) -> bytes:
    # two labels over four buckets: 4 * 2 weights and 2 biases
    return b"ENTMATCH-CLS1\n" + header + b"\n" + bytes(8 * (4 * 2 + 2))


_MODEL_HEADER = {
    "format_version": 1,
    "labels": ["other", "problem"],
    "buckets": 4,
    "seed": 0,
    "epochs": 1,
    "learning_rate": 0.5,
}


@pytest.mark.parametrize(
    "header",
    [
        json.dumps({k: v for k, v in _MODEL_HEADER.items() if k != "seed"}).encode(),
        b"{not json",
        b"[1, 2]",
        json.dumps({**_MODEL_HEADER, "buckets": "four"}).encode(),
        json.dumps({**_MODEL_HEADER, "learning_rate": float("nan")}).encode(),
        json.dumps({**_MODEL_HEADER, "learning_rate": float("inf")}).encode(),
        json.dumps({**_MODEL_HEADER, "format_version": 2}).encode(),
        json.dumps({**_MODEL_HEADER, "dtype": ">f4"}).encode(),
    ],
    ids=[
        "missing-key",
        "non-json",
        "non-object",
        "non-integer-buckets",
        "nan-learning-rate",
        "infinite-learning-rate",
        "format-version-2",
        "big-endian-float32-dtype",
    ],
)
def test_refine_with_defective_model_header_exits_2(workspace, capsys, header):
    _, out = _eval(workspace)
    model = workspace / "bad.entcls"
    model.write_bytes(_model_blob(header))
    capsys.readouterr()
    code = main(["refine", str(out), "--model", str(model)])
    err = capsys.readouterr().err
    assert code == EXIT_PARSE
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "claim",
    [{"labels": ["problem"] * 10**6}, {"buckets": 1 << 40}],
    ids=["a-million-labels", "2^40-buckets"],
)
def test_refine_with_a_model_header_claiming_a_huge_payload_exits_2(workspace, capsys, claim):
    # the payload's length is checked against the header before any of it
    # is read, so no claimed matrix is allocated
    _, out = _eval(workspace)
    model = workspace / "huge.entcls"
    model.write_bytes(_model_blob(json.dumps({**_MODEL_HEADER, **claim}).encode()))
    capsys.readouterr()
    code = main(["refine", str(out), "--model", str(model)])
    err = _assert_parse_error(code, capsys)
    assert "model payload is 80 bytes, expected" in err


def test_refine_with_well_formed_model_header_runs(workspace):
    _, out = _eval(workspace)
    model = workspace / "zero.entcls"
    model.write_bytes(_model_blob(json.dumps(_MODEL_HEADER).encode()))
    refined = workspace / "refined.json"
    code = main(["refine", str(out), "--model", str(model), "--out", str(refined)])
    assert code == EXIT_OK


@pytest.mark.parametrize("value", [float("nan"), 1e308], ids=["nan", "overflowing"])
def test_refine_with_non_finite_model_probabilities_exits_2(workspace, capsys, value):
    _, out = _eval(workspace)
    model = workspace / "bad.entcls"
    header = json.dumps({**_MODEL_HEADER, "labels": ["problem", "treatment"]})
    weights = struct.pack("<10d", *[value] * 10)
    model.write_bytes(b"ENTMATCH-CLS1\n" + header.encode() + b"\n" + weights)
    decisions = workspace / "refined.decisions.jsonl"
    capsys.readouterr()
    code = main(["refine", str(out), "--model", str(model),
                 "--out", str(workspace / "refined.json")])
    err = _assert_parse_error(code, capsys)
    assert "model gives a non-finite probability" in err
    assert not decisions.exists()


def test_refine_with_a_model_that_knows_no_type5_label_exits_2(workspace, capsys):
    # the liver report's Type-5 records are labelled "problem"; a model
    # trained on other labels could only reject them all
    _, out = _eval(workspace)
    model = workspace / "foreign.entcls"
    header = json.dumps({**_MODEL_HEADER, "labels": ["X", "Y"]})
    model.write_bytes(_model_blob(header.encode()))
    decisions = workspace / "refined.decisions.jsonl"
    capsys.readouterr()
    code = main(["refine", str(out), "--model", str(model),
                 "--out", str(workspace / "refined.json")])
    err = _assert_parse_error(code, capsys)
    assert "['X', 'Y']" in err and "['problem']" in err
    assert not decisions.exists()


@pytest.mark.parametrize("command", ["refine", "judge"])
@pytest.mark.parametrize("content", ["[1, 2]", "{not json"])
def test_malformed_report_exits_2(workspace, capsys, command, content):
    report = workspace / "bad.json"
    report.write_text(content)
    other = workspace / "x.jsonl"
    argv = (
        ["refine", str(report), "--external-decisions", str(other)]
        if command == "refine"
        else ["judge", str(report), str(other)]
    )
    assert main(argv) == EXIT_PARSE
    assert "report" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["refine", "judge"])
def test_report_that_cannot_be_rendered_exits_2(workspace, capsys, command):
    _, out = _eval(workspace)
    ids = _report_t5_ids(out)
    doc = json.loads(out.read_text())
    del doc["tool"]
    out.write_text(json.dumps(doc))
    responses = workspace / "responses.jsonl"
    responses.write_text(
        "".join(
            json.dumps({"id": rid, "label": "problem", "confidence": 1.0}) + "\n"
            for rid in ids
        )
    )
    judgements = workspace / "judgements.tsv"
    judgements.write_text("".join(f"{rid}\t4\n" for rid in ids))
    argv = (
        ["refine", str(out), "--external-decisions", str(responses)]
        if command == "refine"
        else ["judge", str(out), str(judgements)]
    )
    result = workspace / "result.json"
    capsys.readouterr()
    code = main(argv + ["--render", "markdown", "--out", str(result)])
    assert "report cannot be rendered" in _assert_parse_error(code, capsys)
    assert not result.exists()
    assert not (workspace / "result.decisions.jsonl").exists()


# ---------------------------------------------------------------------------
# judgement pipeline


def test_judge_with_top_scores_matches_relaxed(workspace, capsys):
    _, out = _eval(workspace)
    judgements = workspace / "judgements.tsv"
    judgements.write_text(
        "".join(f"{rid}\t5\n" for rid in _report_t5_ids(out))
    )
    judged = workspace / "judged.json"
    code = main(["judge", str(out), str(judgements), "--out", str(judged)])
    assert code == EXIT_OK
    doc = json.loads(judged.read_text())
    section = doc["judgement"]
    assert section["coverage_pct"] == "100.00"
    relaxed = doc["metrics"]["relaxed"]["f1"]
    assert section["human"]["strict"]["f1"] == relaxed
    assert section["human"]["forgiving"]["f1"] == relaxed
    errors = section["metric_errors_f1_points"]
    assert errors["exact_vs_strict"] <= 0
    assert errors["relaxed_vs_strict"] == 0
    assert "user F1" in capsys.readouterr().out


def test_judge_single_profile_flag(workspace):
    _, out = _eval(workspace)
    judgements = workspace / "judgements.tsv"
    judgements.write_text(
        "".join(f"{rid}\t2\n" for rid in _report_t5_ids(out))
    )
    judged = workspace / "judged.json"
    code = main(
        [
            "judge",
            str(out),
            str(judgements),
            "--profile",
            "strict",
            "--out",
            str(judged),
        ]
    )
    assert code == EXIT_OK
    doc = json.loads(judged.read_text())
    assert list(doc["judgement"]["human"]) == ["strict"]


def test_judge_with_decisions_reports_agreement(workspace):
    _, out = _eval(workspace)
    model = _train_model(workspace)
    refined = workspace / "refined.json"
    main(["refine", str(out), "--model", str(model), "--out", str(refined)])
    judgements = workspace / "judgements.tsv"
    judgements.write_text(
        "".join(f"{rid}\t4\n" for rid in _report_t5_ids(out))
    )
    judged = workspace / "judged.json"
    code = main(
        [
            "judge",
            str(out),
            str(judgements),
            "--decisions",
            str(workspace / "refined.decisions.jsonl"),
            "--out",
            str(judged),
        ]
    )
    assert code == EXIT_OK
    doc = json.loads(judged.read_text())
    assert doc["judgement"]["agreement"]["shared"] == 2
    assert "learning_based_vs_strict" in doc["judgement"]["metric_errors_f1_points"]


def test_judge_unknown_record_exits_2(workspace):
    _, out = _eval(workspace)
    judgements = workspace / "judgements.tsv"
    judgements.write_text("ghost:1\t5\n")
    assert main(["judge", str(out), str(judgements)]) == EXIT_PARSE


def test_judge_non_utf8_decisions_exits_2(workspace, capsys):
    _, out = _eval(workspace)
    judgements = workspace / "judgements.tsv"
    judgements.write_text("".join(f"{rid}\t4\n" for rid in _report_t5_ids(out)))
    decisions = workspace / "decisions.jsonl"
    decisions.write_bytes(b"\xff\xfe")
    code = main(["judge", str(out), str(judgements), "--decisions", str(decisions)])
    assert code == EXIT_PARSE
    assert "UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize(
    "row, message",
    [
        ({"record_id": None}, "must be a string"),
        ({"record_id": 5}, "must be a string"),
        ({"record_id": ["a"]}, "must be a string"),
        ({"record_id": "ghost:1"}, "unknown Type-5 record id"),
        ({"confidence": 7}, "confidence"),
        ({"predicted_label": 5}, "predicted label"),
    ],
    ids=["null-id", "integer-id", "list-id", "unknown-id", "confidence", "label"],
)
def test_judge_decision_not_matching_the_report_exits_2(
    workspace, capsys, row, message
):
    _, out = _eval(workspace)
    ids = _report_t5_ids(out)
    judgements = workspace / "judgements.tsv"
    judgements.write_text("".join(f"{rid}\t4\n" for rid in ids))
    line = {"verdict": "accept", "predicted_label": "problem", "confidence": 0.9}
    lines = [{"record_id": rid, **line} for rid in ids]
    lines[0].update(row)
    decisions = workspace / "decisions.jsonl"
    decisions.write_text("".join(json.dumps(line) + "\n" for line in lines))
    capsys.readouterr()
    code = main(
        [
            "judge",
            str(out),
            str(judgements),
            "--decisions",
            str(decisions),
            "--out",
            str(workspace / "judged.json"),
        ]
    )
    assert message in _assert_parse_error(code, capsys)


def test_judge_incomplete_judgements_exit_4(workspace):
    _, out = _eval(workspace)
    judgements = workspace / "judgements.tsv"
    judgements.write_text(f"{_report_t5_ids(out)[0]}\t5\n")
    assert main(["judge", str(out), str(judgements)]) == EXIT_UNCOVERED


def test_judge_empty_judgements_exit_4(workspace, capsys):
    _, out = _eval(workspace)
    judgements = workspace / "judgements.tsv"
    judgements.write_text("")
    judged = workspace / "judged.json"
    capsys.readouterr()
    code = main(["judge", str(out), str(judgements), "--out", str(judged)])
    assert code == EXIT_UNCOVERED
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not judged.exists()


def test_judge_empty_judgements_without_type5_records_exits_0(workspace, capsys):
    # an empty file judges every Type-5 record when there is none
    (workspace / "pred.iob").write_text(GOLD_IOB)
    _, out = _eval(workspace)
    assert _report_t5_ids(out) == []
    judgements = workspace / "judgements.tsv"
    judgements.write_text("")
    judged = workspace / "judged.json"
    code = main(["judge", str(out), str(judgements), "--out", str(judged)])
    assert code == EXIT_OK, capsys.readouterr().err
    section = json.loads(judged.read_text())["judgement"]
    assert section["judged"] == section["type5_total"] == 0
    assert section["coverage_pct"] == "0.00"
    assert section["score_distribution"]["percentages"] == {str(s): 0.0 for s in range(1, 6)}


def test_judge_decisions_without_type5_records_exits_0(workspace, capsys):
    # refine writes an empty decision file for a report without Type-5
    # records; judge --decisions reads it back with nothing to agree on
    (workspace / "pred.iob").write_text(GOLD_IOB)
    _, out = _eval(workspace)
    model = _train_model(workspace)
    refined = workspace / "refined.json"
    assert main(["refine", str(out), "--model", str(model), "--out", str(refined)]) == EXIT_OK
    judgements = workspace / "judgements.tsv"
    judgements.write_text("")
    judged = workspace / "judged.json"
    decisions = workspace / "refined.decisions.jsonl"
    code = main(["judge", str(refined), str(judgements), "--decisions", str(decisions),
                 "--out", str(judged)])
    assert code == EXIT_OK, capsys.readouterr().err
    agreement = json.loads(judged.read_text())["judgement"]["agreement"]
    assert agreement["shared"] == 0
    assert agreement["disagreement_rate_pct"] == "0.00"


def test_judge_lone_surrogate_in_json_line_exits_2(workspace, capsys):
    _, out = _eval(workspace)
    first, second = _report_t5_ids(out)
    judgements = workspace / "judgements.tsv"
    # json.dumps escapes the surrogate as \ud800, which JSON allows
    line = {"record_id": second, "score": 4, "note": "\ud800"}
    judgements.write_text(f"{first}\t4\n{json.dumps(line)}\n")
    judged = workspace / "judged.json"
    capsys.readouterr()
    code = main(["judge", str(out), str(judgements), "--out", str(judged)])
    err = _assert_parse_error(code, capsys)
    assert "line 2: judgement file line holds a lone UTF-16 surrogate" in err
    assert not judged.exists()


# ---------------------------------------------------------------------------
# non-finite numbers, which JSON (RFC 8259) does not allow


def _with_number(obj, number: str) -> str:
    """``obj`` as JSON text with the string "<number>" replaced by ``number``."""
    return json.dumps(obj).replace('"<number>"', number)


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"])
@pytest.mark.parametrize("command", ["refine", "judge"])
def test_report_holding_a_non_finite_number_exits_2(workspace, capsys, command, number):
    _, out = _eval(workspace)
    ids = _report_t5_ids(out)
    responses = workspace / "responses.jsonl"
    responses.write_text(
        "".join(
            json.dumps({"id": rid, "label": "problem", "confidence": 1.0}) + "\n"
            for rid in ids
        )
    )
    judgements = workspace / "judgements.tsv"
    judgements.write_text("".join(f"{rid}\t4\n" for rid in ids))
    doc = json.loads(out.read_text())
    doc["metrics"]["exact"]["f1"] = "<number>"
    out.write_text(_with_number(doc, number))
    argv = (
        ["refine", str(out), "--external-decisions", str(responses)]
        if command == "refine"
        else ["judge", str(out), str(judgements)]
    )
    result = workspace / "result.json"
    capsys.readouterr()
    code = main(argv + ["--out", str(result)])
    err = _assert_parse_error(code, capsys)
    assert "report holds a number that is not finite" in err
    assert not result.exists()
    assert not (workspace / "result.decisions.jsonl").exists()


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_standoff_line_holding_a_non_finite_literal_exits_2(workspace, capsys, literal):
    # an unknown field is otherwise ignored, so only the literal is at fault
    line = {"doc_id": "d", "tokens": ["a"], "entities": [], "note": "<number>"}
    corpus = workspace / "corpus.jsonl"
    corpus.write_text("\n" + _with_number(line, literal) + "\n")
    report = workspace / "r.json"
    code = main(
        ["eval", str(corpus), str(corpus), "--format", "standoff", "--out", str(report)]
    )
    err = _assert_parse_error(code, capsys)
    assert f"line 2: invalid JSON: non-finite number {literal}" in err
    assert not report.exists()


def test_judgement_line_holding_a_non_finite_literal_exits_2(workspace, capsys):
    _, out = _eval(workspace)
    first, second = _report_t5_ids(out)
    judgements = workspace / "judgements.tsv"
    line = {"record_id": second, "score": 4, "weight": "<number>"}
    judgements.write_text(f"{first}\t4\n{_with_number(line, 'Infinity')}\n")
    judged = workspace / "judged.json"
    capsys.readouterr()
    code = main(["judge", str(out), str(judgements), "--out", str(judged)])
    err = _assert_parse_error(code, capsys)
    assert "line 2: invalid JSON: non-finite number Infinity" in err
    assert not judged.exists()


def test_model_header_holding_a_non_finite_literal_exits_2(workspace, capsys):
    _, out = _eval(workspace)
    model = workspace / "bad.entcls"
    header = _with_number({**_MODEL_HEADER, "note": "<number>"}, "-Infinity")
    model.write_bytes(_model_blob(header.encode()))
    capsys.readouterr()
    code = main(["refine", str(out), "--model", str(model)])
    err = _assert_parse_error(code, capsys)
    assert "model header is not JSON: non-finite number -Infinity" in err


# JSON nested far deeper than the interpreter's recursion limit allows, and
# an integer longer than int()'s 4,300-digit limit for a string
_DEEP_JSON = "[" * 100_000 + "]" * 100_000
_LONG_INTEGER = "9" * 5001


def test_standoff_line_nested_too_deeply_exits_2(workspace, capsys):
    line = {"doc_id": "d", "tokens": ["a"], "entities": [], "note": "<number>"}
    corpus = workspace / "corpus.jsonl"
    corpus.write_text("\n" + _with_number(line, _DEEP_JSON) + "\n")
    report = workspace / "r.json"
    code = main(
        ["eval", str(corpus), str(corpus), "--format", "standoff", "--out", str(report)]
    )
    err = _assert_parse_error(code, capsys)
    assert "line 2: invalid JSON: nested too deeply" in err
    assert not report.exists()


def test_report_nested_too_deeply_exits_2(workspace, capsys):
    _, out = _eval(workspace)
    responses = workspace / "responses.jsonl"
    responses.write_text(
        "".join(
            json.dumps({"id": rid, "label": "problem", "confidence": 1.0}) + "\n"
            for rid in _report_t5_ids(out)
        )
    )
    doc = json.loads(out.read_text())
    doc["note"] = "<number>"
    out.write_text(_with_number(doc, _DEEP_JSON))
    refined = workspace / "refined.json"
    capsys.readouterr()
    code = main(
        ["refine", str(out), "--external-decisions", str(responses), "--out", str(refined)]
    )
    err = _assert_parse_error(code, capsys)
    assert "invalid JSON: nested too deeply" in err
    assert not refined.exists()


def test_model_header_nested_too_deeply_exits_2(workspace, capsys):
    _, out = _eval(workspace)
    model = workspace / "deep.entcls"
    header = _with_number({**_MODEL_HEADER, "note": "<number>"}, _DEEP_JSON)
    model.write_bytes(_model_blob(header.encode()))
    refined = workspace / "refined.json"
    capsys.readouterr()
    code = main(["refine", str(out), "--model", str(model), "--out", str(refined)])
    err = _assert_parse_error(code, capsys)
    assert "invalid JSON: nested too deeply" in err
    assert not refined.exists()


def test_response_confidence_past_the_digit_limit_exits_2(workspace, capsys):
    _, out = _eval(workspace)
    first, second = _report_t5_ids(out)
    responses = workspace / "responses.jsonl"
    lines = [
        json.dumps({"id": first, "label": "problem", "confidence": 1.0}),
        _with_number({"id": second, "label": "problem", "confidence": "<number>"},
                     _LONG_INTEGER),
    ]
    responses.write_text("\n".join(lines) + "\n")
    refined = workspace / "refined.json"
    capsys.readouterr()
    code = main(
        ["refine", str(out), "--external-decisions", str(responses), "--out", str(refined)]
    )
    err = _assert_parse_error(code, capsys)
    assert "line 2: invalid JSON: an integer of more than 4300 digits" in err
    assert len(err) < 200
    assert not refined.exists()


def test_json_writers_refuse_non_finite_numbers(tmp_path):
    # a refusal creates no file and leaves an existing one as it was
    objects = [{"a": 1}, {"confidence": float("nan")}]
    fresh = tmp_path / "out.jsonl"
    with pytest.raises(ValueError):
        write_jsonl(objects, fresh)
    assert not fresh.exists()
    existing = tmp_path / "existing.jsonl"
    existing.write_bytes(b'{"kept": true}\n')
    with pytest.raises(ValueError):
        write_jsonl(objects, existing)
    assert existing.read_bytes() == b'{"kept": true}\n'
    report = tmp_path / "report.json"
    with pytest.raises(ValueError):
        _write_json({"f1": float("inf")}, report)
    assert not report.exists()


@pytest.mark.parametrize("command", ["refine", "judge"])
def test_ledger_giving_one_gold_span_two_labels_exits_2(workspace, capsys, command):
    gold = {"span": [1, 3], "label": "A", "text": "b c"}
    rows = [
        {"record_id": "d:0", "doc_id": "d", "kind": "type5",
         "pred": {"span": [1, 2], "label": "A", "text": "b"}, "gold": gold,
         "overlap_tokens": 1},
        {"record_id": "d:1", "doc_id": "d", "kind": "type2", "pred": None,
         "gold": {**gold, "label": "B"}, "overlap_tokens": 0},
    ]
    ledger = workspace / "l.jsonl"
    ledger.write_text("".join(json.dumps(row) + "\n" for row in rows))
    report = workspace / "r.json"
    report.write_text("{}")
    (workspace / "responses.jsonl").write_text(
        json.dumps({"id": "d:0", "label": "A", "confidence": 1.0}) + "\n"
    )
    (workspace / "scores.tsv").write_text("d:0\t5\n")
    argv = (
        ["refine", str(report), "--external-decisions", str(workspace / "responses.jsonl")]
        if command == "refine"
        else ["judge", str(report), str(workspace / "scores.tsv")]
    )
    code = main(argv + ["--ledger", str(ledger), "--out", str(workspace / "out.json")])
    err = _assert_parse_error(code, capsys)
    assert "line 2: gold span [1, 3) of document 'd' has labels 'A' and 'B'" in err


# ---------------------------------------------------------------------------
# perturbation round trip


def test_perturb_then_eval_reproduces_expected_counts(workspace, capsys):
    prefix = workspace / "synth"
    code = main(
        [
            "perturb",
            str(workspace / "gold.iob"),
            "--split-rate",
            "0.5",
            "--relabel-rate",
            "0.2",
            "--drop-rate",
            "0.1",
            "--insert-rate",
            "0.5",
            "--seed",
            "11",
            "--out-prefix",
            str(prefix),
        ]
    )
    assert code == EXIT_OK
    assert "expected" in capsys.readouterr().out
    expected_rows = [
        json.loads(line)
        for line in (workspace / "synth.expected.jsonl").read_text().splitlines()
    ]
    out = workspace / "synth-report.json"
    code = main(
        [
            "eval",
            str(workspace / "synth.gold.jsonl"),
            str(workspace / "synth.pred.jsonl"),
            "--format",
            "standoff",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    got = doc["summary"]["mismatch_counts"]
    from collections import Counter

    want = Counter(row["kind"] for row in expected_rows)
    assert got == {kind: want.get(kind, 0) for kind in got}


# ---------------------------------------------------------------------------
# output bytes


def _one_side(corpus: Corpus, source: Source) -> str:
    """The standoff text of ``corpus`` with only its ``source`` mentions."""
    return serialize_standoff(
        Corpus.from_documents(
            Document(
                d.doc_id,
                d.tokens,
                d.sentence_starts,
                d.gold_entities if source is Source.GOLD else [],
                d.pred_entities if source is Source.PREDICTED else [],
            )
            for d in corpus.documents
        )
    )


# sha256 of the files that eval (with --render markdown), refine
# --external-decisions and judge --decisions write for random_paired_corpus
# at seed 31; constants, so a change that moves one output byte fails here
PINNED_PIPELINE_SHA256 = {
    "report.json": "8e2cc111b52622ac729304d5b2abdb4eecf86d8822a525679c41516be629f7e2",
    "report.ledger.jsonl": "df4ae60807afdaa04c6d4ef1e465730c6c4925540ec168f74caa08e5c2025233",
    "report.md": "2639fe7e4de367cd1e50403137862c23288f869ff89757eecf297770942d6309",
    "refined.json": "3002c67365a1e75b21d44f86ab22049394ffcd4345e18de9f365d380f0a110a4",
    "refined.decisions.jsonl": "5565da2829dfe8768fca5222b9bcc047f36bac09a36bb752ff41e90d5b37eef9",
    "refined.md": "9bad5aa6c078ce0ec084ee26d19cd197c413b7cdfa027548032e045de3330b19",
    "judged.json": "351dab44d5bb2080946cc8b29faa410caa76536935dbcdb818d70cba400594ba",
    "judged.md": "1e99fa0c7610a76d603df20a6b8d72c147b1f21f57d6a18f505727c60f19a8fd",
}


def test_pipeline_output_files_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    corpus = random_paired_corpus(
        random.Random(31), 60, max_tokens=30, max_entities=10, labels=("A", "B", "C")
    )
    (tmp_path / "gold.jsonl").write_text(_one_side(corpus, Source.GOLD), "utf-8")
    (tmp_path / "pred.jsonl").write_text(_one_side(corpus, Source.PREDICTED), "utf-8")
    render = ["--render", "markdown"]
    argv = ["eval", "gold.jsonl", "pred.jsonl", "--format", "standoff", "--out", "report.json"]
    assert main(argv + render) == EXIT_OK
    rows = [json.loads(line) for line in open("report.ledger.jsonl", encoding="utf-8")]
    type5 = [row for row in rows if row["kind"] == "type5"]
    assert len(type5) > 20
    # the external classifier names another label for every third record,
    # which rejects it, and varies its confidence; the scores cycle through 1..5
    responses = []
    for i, row in enumerate(type5):
        label = row["pred"]["label"]
        if i % 3 == 0:
            label = "B" if label == "A" else "A"
        responses.append({"id": row["record_id"], "label": label, "confidence": (i % 7) / 6})
    (tmp_path / "responses.jsonl").write_text(
        "".join(json.dumps(response) + "\n" for response in responses)
    )
    (tmp_path / "scores.tsv").write_text(
        "".join(f"{row['record_id']}\t{1 + i % 5}\n" for i, row in enumerate(type5))
    )
    argv = ["refine", "report.json", "--external-decisions", "responses.jsonl",
            "--out", "refined.json"]
    assert main(argv + render) == EXIT_OK
    argv = ["judge", "refined.json", "scores.tsv", "--decisions",
            "refined.decisions.jsonl", "--out", "judged.json"]
    assert main(argv + render) == EXIT_OK
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in PINNED_PIPELINE_SHA256
    }
    assert digests == PINNED_PIPELINE_SHA256


# ---------------------------------------------------------------------------
# relations between runs


def _edit_documents(text: str, edit) -> str:
    """Standoff ``text`` with ``edit`` applied to each document's JSON object."""
    return "".join(json.dumps(edit(json.loads(line))) + "\n" for line in text.splitlines())


def _eval_sections(root: Path, name: str, gold: str, pred: str) -> dict:
    """The ``summary`` and ``metrics`` of ``eval`` on standoff ``gold`` and ``pred``."""
    (root / f"{name}.gold.jsonl").write_text(gold, "utf-8")
    (root / f"{name}.pred.jsonl").write_text(pred, "utf-8")
    out = root / f"{name}.json"
    argv = ["eval", str(root / f"{name}.gold.jsonl"), str(root / f"{name}.pred.jsonl"),
            "--format", "standoff", "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == EXIT_OK
    doc = json.loads(out.read_text("utf-8"))
    return {"summary": doc["summary"], "metrics": doc["metrics"]}


def _sides(seed: int, n_docs: int) -> tuple[str, str]:
    corpus = random_paired_corpus(random.Random(seed), n_docs, labels=("A", "B", "C"))
    return _one_side(corpus, Source.GOLD), _one_side(corpus, Source.PREDICTED)


_SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=25, deadline=None)
@given(seed=_SEEDS, n_docs=st.integers(1, 6), side=st.sampled_from([0, 1]),
       order=st.randoms(use_true_random=False))
def test_reordering_the_documents_of_one_input_changes_no_score(seed, n_docs, side, order):
    files = list(_sides(seed, n_docs))
    with tempfile.TemporaryDirectory() as tmp:
        want = _eval_sections(Path(tmp), "a", *files)
        lines = files[side].splitlines(keepends=True)
        order.shuffle(lines)
        files[side] = "".join(lines)
        assert _eval_sections(Path(tmp), "b", *files) == want


@settings(max_examples=25, deadline=None)
@given(seeds=st.tuples(_SEEDS, _SEEDS), n_docs=st.tuples(st.integers(1, 4), st.integers(1, 4)))
def test_eval_of_two_disjoint_corpora_together_sums_their_counts(seeds, n_docs):
    parts = [
        [
            _edit_documents(text, lambda obj: {**obj, "doc_id": prefix + obj["doc_id"]})
            for text in _sides(seed, n)
        ]
        for prefix, seed, n in zip(("x-", "y-"), seeds, n_docs)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        x, y = (_eval_sections(Path(tmp), name, *part) for name, part in zip("xy", parts))
        both = _eval_sections(Path(tmp), "xy", parts[0][0] + parts[1][0],
                              parts[0][1] + parts[1][1])
    summary = both["summary"]
    for key in ("documents", "gold_entities", "pred_entities", "total_errors"):
        assert summary[key] == x["summary"][key] + y["summary"][key]
    for kind, n in summary["mismatch_counts"].items():
        assert n == x["summary"]["mismatch_counts"][kind] + y["summary"]["mismatch_counts"][kind]
    zero = dict.fromkeys(summary["mismatch_counts"], 0)
    for label, by_kind in summary["per_label_mismatch_counts"].items():
        runs = [run["summary"]["per_label_mismatch_counts"].get(label, zero) for run in (x, y)]
        assert by_kind == {kind: sum(run[kind] for run in runs) for kind in by_kind}

    def counts(prf):
        return [prf[key] for key in ("tp_pred", "tp_gold", "fp", "fn")]

    none = dict.fromkeys(("tp_pred", "tp_gold", "fp", "fn"), 0)
    metrics = both["metrics"]
    for conv in set(metrics) - {"per_label", "macro"}:
        assert counts(metrics[conv]) == [
            a + b for a, b in zip(counts(x["metrics"][conv]), counts(y["metrics"][conv]))
        ]
    for conv, by_label in metrics["per_label"].items():
        for label, prf in by_label.items():
            runs = [run["metrics"]["per_label"][conv].get(label, none) for run in (x, y)]
            assert counts(prf) == [a + b for a, b in zip(*map(counts, runs))]


def _renamed_keys(obj, old: str, new: str):
    if isinstance(obj, dict):
        return {(new if k == old else k): _renamed_keys(v, old, new) for k, v in obj.items()}
    return obj


@settings(max_examples=25, deadline=None)
@given(seed=_SEEDS, n_docs=st.integers(1, 6), label=st.sampled_from("ABC"))
def test_renaming_a_label_in_both_inputs_renames_its_keys_only(seed, n_docs, label):
    # the new name sorts where the old one did, so the macro averages add
    # the same per-label floats in the same order
    new = label + "-renamed"

    def rename(obj):
        for entity in obj["entities"]:
            if entity["label"] == label:
                entity["label"] = new
        return obj

    gold, pred = _sides(seed, n_docs)
    with tempfile.TemporaryDirectory() as tmp:
        want = _eval_sections(Path(tmp), "a", gold, pred)
        got = _eval_sections(Path(tmp), "b", _edit_documents(gold, rename),
                             _edit_documents(pred, rename))
    want["summary"]["labels"] = [new if x == label else x for x in want["summary"]["labels"]]
    assert got == _renamed_keys(want, label, new)


# ---------------------------------------------------------------------------
# console entry point


def test_console_script_smoke(workspace):
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "entmatch.cli",
            "eval",
            str(workspace / "gold.iob"),
            str(workspace / "pred.iob"),
            "--out",
            str(workspace / "cli-report.json"),
        ],
        env=_child_env(),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert "exact F1" in result.stdout


# ---------------------------------------------------------------------------
# every input file of every subcommand, fuzzed

# (argv, the input files it reads); all paths are relative to the work dir
_FUZZ_COMMANDS = {
    "eval-iob": (
        ["eval", "gold.iob", "pred.iob", "--out", "o.json"],
        ["gold.iob", "pred.iob"],
    ),
    "eval-standoff": (
        ["eval", "gold.jsonl", "pred.jsonl", "--format", "standoff",
         "--out", "o.json", "--render", "markdown"],
        ["gold.jsonl", "pred.jsonl"],
    ),
    "build-clsdata": (
        ["build-clsdata", "gold.iob", "--chunks", "chunks.txt",
         "--stopwords", "stopwords.txt", "--out", "p.jsonl"],
        ["gold.iob", "chunks.txt", "stopwords.txt"],
    ),
    "train-cls": (
        ["train-cls", "pairs.jsonl", "--buckets", "64", "--epochs", "1",
         "--out", "m.entcls"],
        ["pairs.jsonl"],
    ),
    "refine-model": (
        ["refine", "report.json", "--model", "model.entcls", "--out", "r.json"],
        ["report.json", "report.ledger.jsonl", "model.entcls"],
    ),
    "refine-external": (
        ["refine", "report.json", "--external-decisions", "responses.jsonl",
         "--out", "r.json", "--render", "markdown"],
        ["report.json", "report.ledger.jsonl", "responses.jsonl"],
    ),
    "judge": (
        ["judge", "report.json", "judgements.tsv", "--decisions",
         "decisions.jsonl", "--out", "j.json", "--render", "markdown"],
        ["report.json", "report.ledger.jsonl", "judgements.tsv", "decisions.jsonl"],
    ),
    "perturb": (
        ["perturb", "gold.jsonl", "--format", "standoff", "--split-rate", "0.3",
         "--insert-rate", "0.3", "--out-prefix", "syn"],
        ["gold.jsonl"],
    ),
}

# fragments a mutation may splice in: JSON and IOB syntax, edge values
_FUZZ_FRAGMENTS = [
    b'"', b"{", b"}", b"[", b"]", b",", b":", b"\n", b"\t", b" ", b"\\",
    b"null", b"true", b"-1", b"0", b"1e999", b"NaN", b'"\\ud800"', b'"O"',
    b"B-", b"I-", b"O", b"-DOCSTART-", b"\xff", b"\xc3",
]


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A valid copy of every file the subcommands read, by name."""
    from entmatch.corpus import Source, parse_iob, serialize_standoff

    base = tmp_path_factory.mktemp("fuzz")
    (base / "gold.iob").write_text(GOLD_IOB)
    (base / "pred.iob").write_text(PRED_IOB)
    (base / "gold.jsonl").write_text(serialize_standoff(parse_iob(GOLD_IOB)))
    (base / "pred.jsonl").write_text(
        serialize_standoff(parse_iob(PRED_IOB, source=Source.PREDICTED))
    )
    (base / "chunks.txt").write_text("the right lobe\ntwice daily\n")
    (base / "stopwords.txt").write_text("the\nof\n")
    cwd = os.getcwd()
    os.chdir(base)
    try:
        for argv in (
            ["eval", "gold.iob", "pred.iob", "--out", "report.json"],
            ["build-clsdata", "gold.iob", "--out", "pairs.jsonl"],
            ["train-cls", "pairs.jsonl", "--buckets", "64", "--out", "model.entcls"],
            ["refine", "report.json", "--model", "model.entcls",
             "--decisions-out", "decisions.jsonl", "--out", "refined.json"],
        ):
            assert main(argv) == EXIT_OK
        ids = _report_t5_ids(base / "report.json")
    finally:
        os.chdir(cwd)
    (base / "responses.jsonl").write_text(
        "".join(
            json.dumps({"id": rid, "label": "problem", "confidence": 0.5}) + "\n"
            for rid in ids
        )
    )
    (base / "judgements.tsv").write_text("".join(f"{rid}\t4\n" for rid in ids))
    names = {name for _, files in _FUZZ_COMMANDS.values() for name in files}
    return _FuzzInputs(base, {name: (base / name).read_bytes() for name in names})


class _FuzzInputs:
    """Valid file contents by name, and a directory to run commands in."""

    def __init__(self, base, files: dict[str, bytes]):
        self.base = base
        self.files = files

    def __repr__(self) -> str:
        return f"<{len(self.files)} valid input files>"


@st.composite
def _mutated(draw, valid: bytes):
    """``valid`` with one byte range replaced by fragments or random bytes."""
    start = draw(st.integers(0, len(valid)))
    end = draw(st.integers(start, min(len(valid), start + 16)))
    filler = draw(
        st.lists(st.sampled_from(_FUZZ_FRAGMENTS) | st.binary(max_size=4), max_size=3)
    )
    return valid[:start] + b"".join(filler) + valid[end:]


@pytest.mark.parametrize("command", sorted(_FUZZ_COMMANDS))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_any_input_file_gives_a_documented_exit_code(fuzz_inputs, command, data):
    argv, files = _FUZZ_COMMANDS[command]
    name = data.draw(st.sampled_from(files), label="file")
    content = data.draw(
        st.binary(max_size=64) | _mutated(fuzz_inputs.files[name]), label="content"
    )
    # one directory per command, emptied first so that every file is
    # created anew: on ext4 a file rewritten in place is forced out to disk,
    # which made this loop disk-bound
    work = fuzz_inputs.base / command
    work.mkdir(exist_ok=True)
    for old in work.iterdir():
        old.unlink()
    for other in files:
        valid = fuzz_inputs.files[other]
        (work / other).write_bytes(content if other == name else valid)
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code in range(5)
    assert "Traceback" not in err.getvalue()


# every input argument of every subcommand, as (argv, the input it names);
# paths are relative to the directory of the fuzz test's valid inputs
_DIRECTORY_INPUTS = [
    (["eval", "gold.iob", "pred.iob", "--out", "dir-e.json"], "gold.iob"),
    (["eval", "gold.iob", "pred.iob", "--out", "dir-e.json"], "pred.iob"),
    *(
        (["build-clsdata", "gold.iob", "--chunks", "chunks.txt",
          "--stopwords", "stopwords.txt", "--out", "dir-p.jsonl"], name)
        for name in ("gold.iob", "chunks.txt", "stopwords.txt")
    ),
    (["train-cls", "pairs.jsonl", "--buckets", "64", "--out", "dir-m.entcls"],
     "pairs.jsonl"),
    *(
        (["refine", "report.json", "--model", "model.entcls",
          "--ledger", "report.ledger.jsonl", "--out", "dir-r.json"], name)
        for name in ("report.json", "model.entcls", "report.ledger.jsonl")
    ),
    (["refine", "report.json", "--external-decisions", "responses.jsonl",
      "--out", "dir-r.json"], "responses.jsonl"),
    *(
        (["judge", "report.json", "judgements.tsv", "--decisions", "decisions.jsonl",
          "--ledger", "report.ledger.jsonl", "--out", "dir-j.json"], name)
        for name in ("report.json", "judgements.tsv", "decisions.jsonl",
                     "report.ledger.jsonl")
    ),
    (["perturb", "gold.iob", "--out-prefix", "dir-syn"], "gold.iob"),
]


@pytest.mark.parametrize(
    "argv, name",
    _DIRECTORY_INPUTS,
    ids=[f"{argv[0]}-{name}" for argv, name in _DIRECTORY_INPUTS],
)
def test_directory_input_exits_1(fuzz_inputs, monkeypatch, capsys, argv, name):
    monkeypatch.chdir(fuzz_inputs.base)
    (fuzz_inputs.base / "a-directory").mkdir(exist_ok=True)
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    argv = ["a-directory" if arg == name else arg for arg in argv]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == EXIT_USAGE, err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


# ---------------------------------------------------------------------------
# numpy is loaded only by the commands that run the model

_NUMPY_CHILD = (
    "import sys\n"
    "import entmatch\n"
    "if sys.argv[1:]:\n"
    "    from entmatch.cli import main\n"
    "    print(main(sys.argv[1:]))\n"
    "print('numpy' in sys.modules)\n"
)

# (argv, whether numpy is loaded after it); paths are relative to the
# directory of the fuzz test's valid inputs, outputs are named np-*
_NUMPY_COMMANDS = {
    "import": ([], False),
    "eval-iob": (["eval", "gold.iob", "pred.iob", "--out", "np-e.json"], False),
    "eval-standoff": (
        ["eval", "gold.jsonl", "pred.jsonl", "--format", "standoff",
         "--out", "np-e.json"],
        False,
    ),
    "build-clsdata": (["build-clsdata", "gold.iob", "--out", "np-p.jsonl"], False),
    "perturb": (
        ["perturb", "gold.iob", "--split-rate", "0.5", "--out-prefix", "np-syn"],
        False,
    ),
    "refine-external": (
        ["refine", "report.json", "--external-decisions", "responses.jsonl",
         "--out", "np-r.json", "--decisions-out", "np-d.jsonl"],
        False,
    ),
    "judge": (
        ["judge", "report.json", "judgements.tsv", "--decisions",
         "decisions.jsonl", "--out", "np-j.json"],
        False,
    ),
    "train-cls": (
        ["train-cls", "pairs.jsonl", "--buckets", "64", "--out", "np-m.entcls"],
        True,
    ),
    "refine-model": (
        ["refine", "report.json", "--model", "model.entcls", "--out", "np-r.json",
         "--decisions-out", "np-d.jsonl"],
        True,
    ),
}


@pytest.mark.parametrize("command", list(_NUMPY_COMMANDS))
def test_numpy_is_loaded_only_where_the_model_runs(fuzz_inputs, command):
    argv, loads_numpy = _NUMPY_COMMANDS[command]
    result = subprocess.run(
        [sys.executable, "-c", _NUMPY_CHILD, *argv],
        cwd=fuzz_inputs.base, env=_child_env(), capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.split()
    if argv:
        assert int(lines[-2]) == EXIT_OK, result.stderr
    assert lines[-1] == str(loads_numpy)


# ---------------------------------------------------------------------------
# the model commands load OpenBLAS with one thread

_THREADS_CHILD = (
    "import os, sys\n"
    "if sys.argv[1:]:\n"
    "    from entmatch.cli import main\n"
    "    code = main(sys.argv[1:])\n"
    "else:\n"
    "    import numpy\n"
    "    code = 0\n"
    "with open('/proc/self/status') as fh:\n"
    "    threads = next(line.split()[1] for line in fh if line.startswith('Threads:'))\n"
    "print(code, threads, 'OPENBLAS_NUM_THREADS' in os.environ)\n"
)


def _child_threads(cwd, argv, **variables):
    """Run ``argv`` (or a bare ``import numpy``) in a fresh interpreter whose
    only OpenBLAS thread variables are ``variables``: its exit code, its
    thread count afterwards, and whether ``OPENBLAS_NUM_THREADS`` is then set
    in its ``os.environ``."""
    blas = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in _child_env().items() if k not in blas}
    result = subprocess.run(
        [sys.executable, "-c", _THREADS_CHILD, *argv],
        cwd=cwd, env={**env, **variables}, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    code, threads, leaked = result.stdout.split()[-3:]
    return int(code), int(threads), leaked == "True"


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="reads Threads: from /proc"
)
@pytest.mark.parametrize("command", ["train-cls", "refine-model"])
def test_model_commands_load_openblas_with_one_thread(fuzz_inputs, command):
    argv = _NUMPY_COMMANDS[command][0]
    assert _child_threads(fuzz_inputs.base, argv) == (EXIT_OK, 1, False)
    # a count the user chose is kept: the command runs as many threads as a
    # bare import of numpy does under the same variable
    _, chosen, _ = _child_threads(fuzz_inputs.base, [], OMP_NUM_THREADS="2")
    assert _child_threads(fuzz_inputs.base, argv, OMP_NUM_THREADS="2") == (
        EXIT_OK, chosen, False,
    )
