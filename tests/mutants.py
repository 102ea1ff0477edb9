"""Mutation check: every mutant of the matcher's spine, of scoring, of the
classifier's featurizer and training loop, of its model's storage, of
the line readers' and writers' plain-line paths, of the JSON gate and of
the model commands' numpy import must fail its tests.

    python3 tests/mutants.py            # run every mutant
    python3 tests/mutants.py NAME ...   # run the named mutants only
    python3 tests/mutants.py --list     # print the table

Each row of ``MUTANTS`` holds a source snippet that must occur exactly once
in ``src/``, its replacement, and the test node ids that must each fail on
the mutant. For each row the script copies ``src/``, ``tests/`` and
``pyproject.toml`` to a temporary directory, applies the one edit there and
runs the node ids with ``pytest --hypothesis-seed=0`` in that copy, so the
checkout is never edited. Before any mutant runs, the node ids must pass on
the unmutated copy.

A row with an ``equivalent`` reason is a mutant that no input can tell from
the original; it must survive, and a kill means the reason is wrong.

The exit status is non-zero when a mutant survives, when a listed test does
not fail on its mutant, when an equivalent mutant is killed, or when a
snippet no longer occurs exactly once (so the table cannot go stale
unnoticed). The script uses the standard library only, and pytest does not
collect it (its name does not start with ``test_``).
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600


@dataclass(frozen=True)
class Mutant:
    name: str
    snippet: str
    replacement: str
    killers: tuple[str, ...]
    equivalent: str | None = None


# the comparisons of the anchor search, as _classify writes them
_RANK_COMPARISONS = """\
                if g.label == label:
                    if best_same is None or rank > best_same[0]:
                        best_same = (rank, g)
                elif best_diff is None or rank > best_diff[0]:
"""


def _compare_on(key: str) -> str:
    """The anchor comparisons with each rank replaced by ``rank<key>``."""
    return (
        _RANK_COMPARISONS.replace("rank >", f"rank{key} >")
        .replace("best_same[0]:", f"best_same[0]{key}:")
        .replace("best_diff[0]:", f"best_diff[0]{key}:")
    )


# the test that compares every convention with the per-record scoring oracle
_SCORING_ORACLE = "tests/test_metrics.py::test_every_convention_matches_the_per_record_oracle"
# the tests that compare the featurizer with the reference construction, and
# training and decisions with the classifier of per-text arrays
_FEATURIZER_ORACLE = "tests/test_classifier.py::test_featurizer_matches_the_reference_construction"
_CLASSIFIER_ORACLE = "tests/test_classifier.py::test_train_and_decide_match_the_per_text_classifier"
# the tests that compare the readers with the ones they replaced
_IOB_ORACLE = "tests/test_corpus.py::test_iob_reader_matches_the_two_pass_oracle"
_JSONL_ORACLE = "tests/test_readers.py::test_jsonl_reader_matches_the_line_by_line_oracle"
_LEDGER_ORACLE = "tests/test_readers.py::test_ledger_reader_matches_the_line_by_line_oracle"

MUTANTS = [
    Mutant(
        "type2-records-first",
        "            i += 1\n    return records\n",
        "            i += 1\n    return records[len(preds):] + records[: len(preds)]\n",
        (
            "tests/test_matcher.py::test_document_records_follow_the_order_contract",
            "tests/test_matcher.py::test_records_sorted_by_pred_then_gold_span",
            "tests/test_cli.py::test_pipeline_output_files_are_pinned",
        ),
    ),
    Mutant(
        "rank-without-overlap",
        _RANK_COMPARISONS,
        _compare_on("[1:]"),
        (
            "tests/test_matcher.py::test_anchor_prefers_larger_overlap",
            "tests/test_matcher.py::test_anchor_overlap_outranks_leftmost_start",
            "tests/test_matcher.py::test_matches_oracle_on_seeded_random_documents",
            "tests/test_acceptance.py::test_criterion_01_matcher_oracle_equivalence",
        ),
    ),
    Mutant(
        "rank-without-leftmost-start",
        _RANK_COMPARISONS,
        _compare_on("[:1]"),
        (
            "tests/test_matcher.py::test_anchor_tie_breaks_leftmost_then_longest",
            "tests/test_matcher.py::test_matches_oracle_on_seeded_random_documents",
        ),
    ),
    Mutant(
        "rank-compared-with-ge",
        _RANK_COMPARISONS,
        _RANK_COMPARISONS.replace("rank >", "rank >="),
        ("tests/test_matcher.py::test_matches_oracle_on_seeded_random_documents",),
        equivalent=(
            "two distinct golds of a flat side never tie on (overlap, start), "
            "so > and >= pick the same anchor"
        ),
    ),
    Mutant(
        "other-label-anchor-preferred",
        """\
            if best_same is not None:
                kind = _TYPE5
                (overlap, _), g = best_same
            elif best_diff is not None:
                kind = _TYPE4
                (overlap, _), g = best_diff
""",
        """\
            if best_diff is not None:
                kind = _TYPE4
                (overlap, _), g = best_diff
            elif best_same is not None:
                kind = _TYPE5
                (overlap, _), g = best_same
""",
        (
            "tests/test_matcher.py::test_same_label_anchor_preferred_over_closer_other_label",
            "tests/test_matcher.py::test_matches_oracle_on_seeded_random_documents",
        ),
    ),
    Mutant(
        "consumed-golds-not-anchors",
        "                g = golds[j]\n",
        "                g = golds[j]\n"
        "                if any((q.start, q.end) == (g.start, g.end) for q in preds):\n"
        "                    j -= 1\n"
        "                    continue\n",
        (
            "tests/test_matcher.py::test_matches_oracle_on_seeded_random_documents",
            "tests/test_acceptance.py::test_criterion_01_matcher_oracle_equivalence",
        ),
        equivalent=(
            "a consumed gold has the span of its own prediction, and the "
            "predictions are flat, so no other prediction overlaps it"
        ),
    ),
    Mutant(
        "span-identical-overlap-zero",
        "            overlap = end - start\n",
        "            overlap = 0\n",
        (
            "tests/test_matcher.py::test_document_records_follow_the_order_contract",
            "tests/test_cli.py::test_pipeline_output_files_are_pinned",
        ),
    ),
    Mutant(
        "gather-takes-every-bucket-as-held",
        "        out[self.rows.take(pos) != idx] = 0.0\n",
        "",
        (
            "tests/test_classifier.py::test_sparse_model_matches_the_dense_payload",
            "tests/test_classifier.py::test_confidence_is_the_top_probability",
        ),
    ),
    Mutant(
        "held-rows-by-value-not-bits",
        """\
    bits = block.view(np.int64)
    mask = 0
    for column in range(bits.shape[1]):
        mask = mask | bits[:, column]
""",
        "    mask = (block != 0).any(axis=1)\n",
        ("tests/test_classifier.py::test_sparse_model_matches_the_dense_payload",),
    ),
    Mutant(
        "writer-block-drops-its-last-row",
        "            a, b = self.rows.searchsorted((lo, hi))\n",
        "            a, b = self.rows.searchsorted((lo, hi - 1))\n",
        ("tests/test_classifier.py::test_sparse_model_matches_the_dense_payload",),
    ),
    Mutant(
        "blocks-one-row-short",
        "            yield lo, min(lo + _BLOCK_ROWS, buckets)\n",
        "            yield lo, min(lo + _BLOCK_ROWS - 1, buckets)\n",
        (
            "tests/test_classifier.py::test_sparse_model_matches_the_dense_payload",
            "tests/test_classifier.py::test_training_and_model_io_hold_no_dense_matrix",
        ),
    ),
    Mutant(
        "features-in-bucket-order",
        "        by_first = np.lexsort((order[runs], hit_text[runs]))\n",
        '        by_first = np.argsort(hit_text[runs], kind="stable")\n',
        (
            _FEATURIZER_ORACLE,
            _CLASSIFIER_ORACLE,
            "tests/test_classifier.py::test_model_bytes_are_pinned",
        ),
    ),
    Mutant(
        "features-without-utf8-continuation-bytes",
        "            for j in range(1, int(width.max(initial=1)))\n",
        "            for j in range(1, 1)\n",
        (_FEATURIZER_ORACLE, _CLASSIFIER_ORACLE),
    ),
    Mutant(
        "batch-drops-its-last-text",
        "        batch = [text.lower() for text in texts[lo:lo + _BATCH_TEXTS]]\n",
        "        batch = [text.lower() for text in texts[lo:lo + _BATCH_TEXTS - 1]]\n",
        (_FEATURIZER_ORACLE, _CLASSIFIER_ORACLE),
    ),
    Mutant(
        "sgd-step-drops-a-text-s-last-feature",
        "                idx, val = pos[start:stop], count[start:stop]\n",
        "                idx, val = pos[start:stop - 1], count[start:stop - 1]\n",
        (
            _CLASSIFIER_ORACLE,
            "tests/test_classifier.py::test_model_bytes_are_pinned",
        ),
    ),
    Mutant(
        "train-keeps-an-array-per-text",
        "    del texts, ends, bounds\n",
        "    kept = [count[a:b].copy() for a, b in zip(ends, ends[1:])]\n"
        "    del texts, ends, bounds\n",
        ("tests/test_classifier.py::test_training_memory_grows_by_tens_of_bytes_per_feature",),
    ),
    Mutant(
        "outputs-not-checked-against-inputs",
        "    for path in filter(None, inputs):\n",
        "    for path in filter(None, ()):\n",
        ("tests/test_cli.py::test_output_that_is_an_input_exits_1_and_writes_nothing",),
    ),
    Mutant(
        "accepted-type5-ignores-credit-from-kinds",
        "                if not report.gold_masks[key] & mask and key not in credited_golds:\n",
        "                if key not in credited_golds:\n",
        (_SCORING_ORACLE,),
    ),
    Mutant(
        "accepted-type5-credits-a-gold-per-record",
        "                if not report.gold_masks[key] & mask and key not in credited_golds:\n",
        "                if not report.gold_masks[key] & mask:\n",
        (
            _SCORING_ORACLE,
            "tests/test_metrics.py::test_sandwich_property",
            "tests/test_judgement.py::test_all_top_scores_reproduce_relaxed",
        ),
    ),
    Mutant(
        "gold-mask-compared-with-eq",
        "        if gold_mask & mask:\n",
        "        if gold_mask == mask:\n",
        (
            _SCORING_ORACLE,
            "tests/test_acceptance.py::test_criterion_05_semeval_mode_ordering",
        ),
    ),
    Mutant(
        "accepted-test-inverted",
        "            if r.record_id in accepted:\n",
        "            if r.record_id not in accepted:\n",
        (
            _SCORING_ORACLE,
            "tests/test_metrics.py::test_accepted_ids_of_other_kinds_earn_no_credit",
        ),
    ),
    Mutant(
        "pred-credit-one-per-tally",
        "            tp_pred[label] += n\n",
        "            tp_pred[label] += 1\n",
        (
            _SCORING_ORACLE,
            "tests/test_acceptance.py::test_criterion_04_liver_fixture",
        ),
    ),
    Mutant(
        "gold-mask-overwritten",
        "                gold_masks[gold_key] = mask_get(gold_key, 0) | bits[kind]\n",
        "                gold_masks[gold_key] = bits[kind]\n",
        (
            _SCORING_ORACLE,
            "tests/test_metrics.py::test_relaxed_matches_recount_on_fuzzed_corpora",
        ),
    ),
    Mutant(
        "gold-mask-keeps-its-first-kind",
        "                gold_masks[gold_key] = mask_get(gold_key, 0) | bits[kind]\n",
        "                gold_masks[gold_key] = mask_get(gold_key, bits[kind])\n",
        (
            _SCORING_ORACLE,
            "tests/test_metrics.py::test_relaxed_matches_recount_on_fuzzed_corpora",
        ),
    ),
    Mutant(
        "pred-tallied-under-gold-label",
        "                pred_kind_counts[pred_label, kind] += n\n",
        "                pred_kind_counts[label, kind] += n\n",
        (
            _SCORING_ORACLE,
            "tests/test_cli.py::test_pipeline_output_files_are_pinned",
        ),
    ),
    Mutant(
        "kinds-mask-without-type3",
        "    return sum(_KIND_BITS[kind] for kind in set(kinds))\n",
        "    return sum(_KIND_BITS[kind] for kind in set(kinds) - {_TYPE3})\n",
        (
            _SCORING_ORACLE,
            "tests/test_metrics.py::test_semeval_exact_boundary_credits_relabelled_spans",
        ),
    ),
    Mutant(
        "gold-masks-paired-with-wrong-labels",
        "        gold_mask_counts = Counter(zip(gold_labels.values(), gold_masks.values()))\n",
        "        gold_mask_counts = Counter(zip(sorted(gold_labels.values()), gold_masks.values()))\n",
        (
            _SCORING_ORACLE,
            "tests/test_cli.py::test_pipeline_output_files_are_pinned",
        ),
    ),
    Mutant(
        "accepted-type5-without-the-kinds-guard",
        "    if accepted and _TYPE5 not in kinds:\n",
        "    if accepted:\n",
        (_SCORING_ORACLE,),
        equivalent=(
            "every caller of _scores that passes accepted ids passes the "
            "exact kinds, which leave Type 5 out"
        ),
    ),
    Mutant(
        "type5-list-needs-agreeing-labels",
        "                if kind is _TYPE5:\n",
        "                if kind is _TYPE5 and pred.label == label:\n",
        (_SCORING_ORACLE,),
        equivalent=(
            "a Type-5 record's prediction carries its gold's label in every "
            "ledger the matcher writes; read_ledger does not yet reject a "
            "hand-written one whose labels differ, on which the mutant differs"
        ),
    ),
    Mutant(
        "model-header-format-unchecked",
        "        if version != _FORMAT_VERSION or dtype != _DTYPE:\n",
        "        if False:\n",
        (
            "tests/test_classifier.py::test_header_of_another_format_is_rejected",
            "tests/test_cli.py::test_refine_with_defective_model_header_exits_2",
        ),
    ),
    Mutant(
        "jsonl-scan-without-end-of-line-check",
        "                if end == len(line) and type(obj) is dict:\n",
        "                if type(obj) is dict:\n",
        (_JSONL_ORACLE, _LEDGER_ORACLE),
    ),
    Mutant(
        "parser-skips-the-named-command",
        "        if argv is None or name in argv:\n",
        "        if argv is None:\n",
        ("tests/test_cli.py::test_parser_built_for_its_argv_parses_and_prints_as_the_full_parser",),
    ),
    Mutant(
        "iob-plain-line-takes-docstart",
        '            or token_text.startswith("-DOCSTART-")\n',
        "",
        (_IOB_ORACLE,),
    ),
    Mutant(
        "iob-plain-line-without-edge-space-test",
        "            or token_text.strip() != token_text\n",
        "",
        (_IOB_ORACLE,),
    ),
    Mutant(
        "standoff-label-not-encoded",
        '''            f'"label": {encode_basestring(m.label)}, "source": "{source}"}}'\n''',
        '''            f'"label": "{m.label}", "source": "{source}"}}'\n''',
        ("tests/test_writers.py::test_standoff_lines_are_json_dumps",),
    ),
    Mutant(
        "decisions-without-finiteness-check",
        "    if type(value) is float and math.isfinite(value):\n",
        "    if type(value) is float:\n",
        ("tests/test_writers.py::test_non_finite_confidence_leaves_the_decision_file_as_it_was",),
    ),
    Mutant(
        "load-keeps-a-dense-copy",
        "        rows = [np.empty(0, dtype=np.int64)]\n",
        "        dense = read(start, buckets * n_labels, _DTYPE)\n"
        "        rows = [np.empty(0, dtype=np.int64)]\n",
        ("tests/test_classifier.py::test_training_and_model_io_hold_no_dense_matrix",),
    ),
    Mutant(
        "single-thread-import-leaks-its-variable",
        "    try:\n"
        '        importlib.import_module("numpy")\n'
        "    finally:\n"
        '        del os.environ["OPENBLAS_NUM_THREADS"]\n',
        '    importlib.import_module("numpy")\n',
        ("tests/test_cli.py::test_model_commands_load_openblas_with_one_thread",),
    ),
    Mutant(
        "json-gate-without-recursion-mapping",
        "    except RecursionError:\n"
        '        raise ParseError("invalid JSON: nested too deeply", line) from None\n',
        "",
        (
            "tests/test_cli.py::test_standoff_line_nested_too_deeply_exits_2",
            "tests/test_cli.py::test_report_nested_too_deeply_exits_2",
            "tests/test_cli.py::test_model_header_nested_too_deeply_exits_2",
        ),
    ),
]


def _locate(snippet: str) -> tuple[Path | None, int]:
    """The source file that holds ``snippet`` and the number of occurrences in src/."""
    found, total = None, 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        n = path.read_text("utf-8").count(snippet)
        if n:
            found, total = path, total + n
    return found, total


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _failed_tests(tree: Path, node_ids: tuple[str, ...]) -> set[str] | None:
    """The node ids among ``node_ids`` that fail in ``tree``; None on a timeout.

    A run that pytest ends for any reason but failing tests (a node id it
    cannot find, a collection error) raises ``RuntimeError``.
    """
    report = tree / "junit.xml"
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)  # pyproject's pythonpath puts the copy's src first
    try:
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", f"--junitxml={report}", *node_ids],
            cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None
    if result.returncode not in (0, 1):
        raise RuntimeError(f"pytest exited {result.returncode}:\n{result.stdout[-2000:]}")
    failed = set()
    for case in ET.parse(report).iter("testcase"):
        if case.find("failure") is None and case.find("error") is None:
            continue
        module = case.get("classname", "").replace(".", "/") + ".py"
        test = case.get("name", "").split("[")[0]
        failed.add(f"{module}::{test}")
    report.unlink()
    return failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="print the table and exit")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [by_name[n] for n in args.names] or MUTANTS
    if args.list:
        for m in chosen:
            mark = f"  (equivalent: {m.equivalent})" if m.equivalent else ""
            print(f"{m.name}: {', '.join(m.killers)}{mark}")
        return 0

    problems = []
    for m in chosen:
        _, count = _locate(m.snippet)
        if count != 1:
            problems.append(f"{m.name}: snippet occurs {count} times in src/, not once")
    if problems:
        print("\n".join(problems))
        return 1

    with tempfile.TemporaryDirectory(prefix="entmatch-mutants-") as tmp:
        base = Path(tmp) / "base"
        _copy_tree(base)
        all_killers = tuple(sorted({k for m in chosen for k in m.killers}))
        failing = _failed_tests(base, all_killers)
        if failing is None or failing:
            print(f"the unmutated tree fails: {sorted(failing) if failing else 'timeout'}")
            return 1
        killed = 0
        for i, m in enumerate(chosen):
            tree = Path(tmp) / f"m{i}"
            _copy_tree(tree)
            path, _ = _locate(m.snippet)
            target = tree / path.relative_to(ROOT)  # type: ignore[union-attr]
            target.write_text(
                target.read_text("utf-8").replace(m.snippet, m.replacement), "utf-8"
            )
            failed = _failed_tests(tree, m.killers)
            shutil.rmtree(tree)
            if failed is None:
                failed = set(m.killers)
                outcome = "killed (timeout)"
            else:
                outcome = "killed" if failed else "survived"
            if m.equivalent:
                if failed:
                    problems.append(f"{m.name}: marked equivalent but killed by {sorted(failed)}")
                outcome += " (equivalent)"
            else:
                missing = sorted(set(m.killers) - failed)
                if not failed:
                    problems.append(f"{m.name}: survived")
                elif missing:
                    problems.append(f"{m.name}: listed tests did not fail: {missing}")
                killed += bool(failed)
            print(f"{m.name}: {outcome}", flush=True)
    expected = sum(1 for m in chosen if not m.equivalent)
    equivalent = len(chosen) - expected
    print(f"{killed} of {expected} mutants killed; {equivalent} marked equivalent")
    if problems:
        print("\n".join(problems))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
