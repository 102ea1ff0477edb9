from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import stat
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import entmatch
from entmatch.cli import (
    EXIT_ALIGNMENT,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_UNCOVERED,
    EXIT_USAGE,
    main,
)

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


def test_eval_missing_file_exits_1(workspace):
    code = main(
        ["eval", str(workspace / "absent.iob"), str(workspace / "pred.iob")]
    )
    assert code == EXIT_USAGE


def test_usage_error_exits_1():
    assert main([]) == EXIT_USAGE
    assert main(["eval"]) == EXIT_USAGE
    assert main(["no-such-command"]) == EXIT_USAGE


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
def test_train_and_refine_hold_one_copy_of_the_model(workspace):
    # at the default 2**20 buckets the model dwarfs everything else these
    # commands hold, so a second copy of it shows in the peak resident set
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
    ],
    ids=["missing-key", "non-json", "non-object", "non-integer-buckets"],
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


def test_refine_with_well_formed_model_header_runs(workspace):
    _, out = _eval(workspace)
    model = workspace / "zero.entcls"
    model.write_bytes(_model_blob(json.dumps(_MODEL_HEADER).encode()))
    refined = workspace / "refined.json"
    code = main(["refine", str(out), "--model", str(model), "--out", str(refined)])
    assert code == EXIT_OK


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
