"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for extra in (ROOT / "src", ROOT / "tests"):
    if str(extra) not in sys.path:
        sys.path.insert(0, str(extra))

import checks  # noqa: E402
import gen  # noqa: E402
import layertrace  # noqa: E402
import entmatch.cli as cli  # noqa: E402
from entmatch.corpus import Source, pair_corpora, parse_iob  # noqa: E402
from entmatch.matcher import classify_corpus  # noqa: E402


def test_scale_generator_is_the_acceptance_corpus():
    from test_acceptance import _scale_corpora

    gold, pred, _ = gen.scale_corpora(1234)
    assert (gold, pred) == _scale_corpora()


def test_generators_are_deterministic_per_seed_and_differ_across_seeds():
    assert gen.scale_corpora(5) == gen.scale_corpora(5)
    assert gen.scale_corpora(5)[:2] != gen.scale_corpora(6)[:2]
    assert gen.zipf_corpora(5, 4, 6) == gen.zipf_corpora(5, 4, 6)
    assert gen.zipf_corpora(5, 4, 6)[:2] != gen.zipf_corpora(6, 4, 6)[:2]
    type5 = [(f"doc0:{i}", "PER") for i in range(20)]
    labels = list(gen.ZIPF_LABELS)
    assert gen.responses_and_scores(5, type5, labels) == gen.responses_and_scores(5, type5, labels)
    assert gen.responses_and_scores(5, type5, labels) != gen.responses_and_scores(6, type5, labels)


def test_zipf_counts_by_construction_are_what_the_matcher_finds():
    gold, pred, expected = gen.zipf_corpora(7, 20, 20)
    assert all(expected[k] > 0 for k in gen.KINDS)
    report = classify_corpus(pair_corpora(parse_iob(gold), parse_iob(pred, source=Source.PREDICTED)))
    assert {k.value: n for k, n in report.counts.items()} == expected


def _eval(tmp_path) -> tuple[Path, Path, dict]:
    gold, pred, expected = gen.zipf_corpora(3, 5, 10)
    (tmp_path / "gold.iob").write_text(gold, "utf-8")
    (tmp_path / "pred.iob").write_text(pred, "utf-8")
    report, ledger = tmp_path / "report.json", tmp_path / "ledger.jsonl"
    argv = ["eval", str(tmp_path / "gold.iob"), str(tmp_path / "pred.iob"),
            "--out", str(report), "--ledger", str(ledger)]
    assert cli.main(argv) == 0
    return report, ledger, expected


def test_flipped_ledger_kind_fails_its_check(tmp_path):
    report, ledger, expected = _eval(tmp_path)
    ops = checks.Ops()
    assert ops.check("counts", checks.report_counts, report, expected)
    assert ops.check("ledger", checks.ledger_matches_report, ledger, report)
    assert (ops.attempted, ops.failed) == (2, 0)

    lines = ledger.read_text("utf-8").splitlines()
    record = json.loads(lines[0])
    record["kind"] = "type1" if record["kind"] != "type1" else "type2"
    ledger.write_text("\n".join([json.dumps(record)] + lines[1:]) + "\n", "utf-8")
    assert not ops.check("ledger", checks.ledger_matches_report, ledger, report)
    assert (ops.attempted, ops.failed) == (3, 1)


def _bound_targets():
    model = cli.ClassifierModel
    return (
        {name: getattr(cli, name) for name in layertrace.FUNCTIONS},
        {name: model.__dict__[name] for name in layertrace.MODEL_METHODS},
    )


def test_traced_run_restores_every_wrapped_name(tmp_path):
    before = _bound_targets()
    gold, _, _ = gen.zipf_corpora(3, 5, 10)
    (tmp_path / "gold.iob").write_text(gold, "utf-8")
    pairs, model = str(tmp_path / "pairs.jsonl"), str(tmp_path / "model.entcls")
    tracer = layertrace.Tracer()
    with layertrace.traced(cli, tracer):
        assert getattr(cli, "train") is not before[0]["train"]
        for argv in (["build-clsdata", str(tmp_path / "gold.iob"), "--out", pairs],
                     ["train-cls", pairs, "--out", model, "--buckets", "1024"]):
            with tracer.span(layertrace.ROOT_SPAN):
                assert cli.main(argv) == 0
    tracer.finish()

    after = _bound_targets()
    assert all(after[0][name] is fn for name, fn in before[0].items())
    assert all(after[1][name] is fn for name, fn in before[1].items())
    names = Counter(s["name"] for s in tracer.spans)
    assert names[layertrace.ROOT_SPAN] == 2
    assert names["ClassifierModel.save"] == 1 and names["train"] == 1
    assert tracer.counts["clsdata.pairs"] > 0
    assert tracer.counts["classifier.model_bytes"] == Path(model).stat().st_size
    layers = layertrace.self_times(tracer.spans)
    assert layers["cli.self_s"] >= 0 and layers["classifier.train_s"] > 0


def test_traced_block_restores_names_when_the_command_raises():
    before = _bound_targets()
    try:
        with layertrace.traced(cli, layertrace.Tracer()):
            raise RuntimeError("command failed")
    except RuntimeError:
        pass
    after = _bound_targets()
    assert all(after[0][name] is fn for name, fn in before[0].items())
    assert all(after[1][name] is fn for name, fn in before[1].items())


def test_traced_work_counts_equal_the_files_and_a_changed_count_fails(tmp_path):
    gold, pred, expected = gen.zipf_corpora(4, 5, 10)
    (tmp_path / "gold.iob").write_text(gold, "utf-8")
    (tmp_path / "pred.iob").write_text(pred, "utf-8")
    argv = ["eval", str(tmp_path / "gold.iob"), str(tmp_path / "pred.iob"),
            "--out", str(tmp_path / "report.json")]
    tracer = layertrace.Tracer()
    with layertrace.traced(cli, tracer):
        assert cli.main(argv) == 0
    tracer.finish()

    want = {**checks.corpus_counts((tmp_path / "gold.iob", "iob"), (tmp_path / "pred.iob", "iob")),
            **checks.record_counts(expected)}
    ops = checks.Ops()
    assert ops.check("counts", checks.counts_equal, tracer.counts, want)
    tracer.counts["corpus.tokens"] -= 1
    assert not ops.check("counts", checks.counts_equal, tracer.counts, want)
    assert (ops.attempted, ops.failed) == (2, 1)
