"""Command-line front end and run-report assembly.

Subcommands: ``eval`` (parse, match, score), ``build-clsdata``,
``train-cls``, ``refine`` (apply classifier decisions to Type-5 records),
``judge`` (expert-score benchmarks) and ``perturb`` (synthetic
predictions). Reports are single JSON documents with no timestamps, so a
rerun over identical inputs and configuration is byte-identical.

Exit codes: 0 success, 1 usage, 2 parse error, 3 alignment error,
4 uncovered Type-5 records.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import sys
from pathlib import Path
from typing import Mapping, Sequence

from . import __version__
from .classifier import (
    LOW_CONFIDENCE,
    ClassifierModel,
    Decision,
    TrainConfig,
    Verdict,
    decide_type5,
    load_external_decisions,
    read_decisions,
    train,
    write_decisions,
)
from .clsdata import (
    BuilderConfig,
    build_training_set,
    ingest_external_chunks,
    read_pairs,
    write_pairs,
)
from .corpus import (
    AlignmentError,
    Corpus,
    NonFiniteNumberError,
    ParseError,
    TagScheme,
    decode_json,
    decode_utf8,
    has_lone_surrogate,
    open_output,
    pair_corpora,
    parse_iob,
    parse_standoff,
    serialize_standoff,
)
from .judgement import (
    UserProfile,
    agreement,
    human_f,
    load_judgements,
    metric_error,
    score_distribution,
)
from .matcher import (
    MatchReport,
    MismatchType,
    classify_corpus,
    read_ledger,
    write_ledger,
)
from .metrics import (
    PRF,
    Convention,
    MetricSuite,
    UncoveredRecordsError,
    exact_f,
    learning_based_f,
    learning_based_scores,
    macro_average,
    metric_suite,
    relaxed_f,
)
from .perturb import PerturbationPlan, perturb, write_expected_ledger

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_ALIGNMENT = 3
EXIT_UNCOVERED = 4


class _Parser(argparse.ArgumentParser):
    """argparse with the usage exit code pinned to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# report assembly


def _pct(value: float) -> str:
    return f"{100.0 * value:.2f}"


def _prf_dict(prf: PRF) -> dict:
    return {
        "tp_pred": prf.tp_pred,
        "tp_gold": prf.tp_gold,
        "fp": prf.fp,
        "fn": prf.fn,
        "precision": prf.precision,
        "recall": prf.recall,
        "f1": prf.f1,
        "precision_pct": _pct(prf.precision),
        "recall_pct": _pct(prf.recall),
        "f1_pct": _pct(prf.f1),
    }


def _summary_section(report: MatchReport) -> dict:
    errors = report.error_total()
    type5 = report.counts[MismatchType.TYPE5_RIGHT_LABEL_OVERLAP]
    return {
        "documents": len({r.doc_id for r in report.records}),
        "labels": report.labels(),
        "gold_entities": report.gold_total,
        "pred_entities": report.pred_total,
        "mismatch_counts": {k.value: report.counts[k] for k in MismatchType},
        "per_label_mismatch_counts": {
            label: {k.value: counts[k] for k in MismatchType}
            for label, counts in sorted(report.per_label_counts.items())
        },
        "total_errors": errors,
        "type5_share_of_errors_pct": _pct(type5 / errors) if errors else None,
    }


def _metrics_section(suite: MetricSuite) -> dict:
    section: dict = {
        conv.value: _prf_dict(prf) for conv, prf in suite.overall.items()
    }
    section["per_label"] = {
        conv.value: {label: _prf_dict(prf) for label, prf in by_label.items()}
        for conv, by_label in suite.per_label.items()
    }
    section["macro"] = {}
    for conv, by_label in suite.per_label.items():
        precision, recall, f1 = macro_average(by_label)
        section["macro"][conv.value] = {
            "precision_pct": _pct(precision),
            "recall_pct": _pct(recall),
            "f1_pct": _pct(f1),
        }
    return section


def _decisions_section(
    report: MatchReport,
    decisions: Mapping[str, Decision],
    source: str,
    decisions_path: str,
) -> dict:
    accepted = sum(1 for d in decisions.values() if d.verdict is Verdict.ACCEPT)
    rejected = len(decisions) - accepted
    errors = report.error_total()
    confidences = [d.confidence for d in decisions.values() if d.confidence is not None]
    low = sum(1 for c in confidences if c < LOW_CONFIDENCE)
    overall, per_label = learning_based_scores(report, decisions)
    return {
        "source": source,
        "decisions_file": decisions_path,
        "type5_total": len(decisions),
        "accepted": accepted,
        "rejected": rejected,
        "accepted_share_of_type5_pct": _pct(accepted / len(decisions)) if decisions else None,
        "accepted_share_of_errors_pct": _pct(accepted / errors) if errors else None,
        "low_confidence_share_pct": _pct(low / len(confidences)) if confidences else None,
        "learning_based": _prf_dict(overall),
        "per_label_learning_based": {
            label: _prf_dict(prf) for label, prf in per_label.items()
        },
    }


def _write_text(text: str, path: str | Path) -> None:
    with open_output(path) as fh:
        fh.write(text)


def _write_json(doc: dict, path: str | Path) -> None:
    """Write ``doc``; a float that is not finite raises ``ValueError`` first."""
    text = json.dumps(doc, indent=2, ensure_ascii=False, allow_nan=False)
    _write_text(text + "\n", path)


def _render_markdown(doc: dict) -> str:
    lines = [f"# {doc['tool']['name']} report", ""]
    summary = doc.get("summary")
    if summary:
        lines += [
            "## Match summary",
            "",
            f"- documents: {summary['documents']}",
            f"- gold entities: {summary['gold_entities']}",
            f"- predicted entities: {summary['pred_entities']}",
            f"- total errors: {summary['total_errors']}",
            "",
            "| kind | count |",
            "| --- | --- |",
        ]
        lines += [
            f"| {kind} | {count} |"
            for kind, count in summary["mismatch_counts"].items()
        ]
        lines.append("")
    metrics = doc.get("metrics")
    if metrics:
        lines += ["## Metrics", "", "| convention | precision | recall | F1 |", "| --- | --- | --- | --- |"]
        for conv, prf in metrics.items():
            if conv in ("per_label", "macro"):
                continue
            lines.append(
                f"| {conv} | {prf['precision_pct']} | {prf['recall_pct']} | {prf['f1_pct']} |"
            )
        lines.append("")
    decisions = doc.get("decisions")
    if decisions:
        lines += [
            "## Type-5 decisions",
            "",
            f"- accepted: {decisions['accepted']} / {decisions['type5_total']}",
            f"- accepted share of all errors: {decisions['accepted_share_of_errors_pct']}%",
            f"- learning-based F1: {decisions['learning_based']['f1_pct']}",
            "",
        ]
    judgement = doc.get("judgement")
    if judgement:
        lines += ["## Expert judgement", "", f"- coverage: {judgement['coverage_pct']}%"]
        for profile, prf in judgement["human"].items():
            lines.append(f"- {profile} user F1: {prf['f1_pct']}")
        lines.append("")
    return "\n".join(lines)


def _render_report(doc: dict, render: str) -> str | None:
    """The ``--render markdown`` text of ``doc``, or None without ``--render``.

    ``refine`` and ``judge`` render sections of a report they read, so a
    field the rendering cannot use is a parse error, raised before any
    output file is written.
    """
    if render != "markdown":
        return None
    try:
        return _render_markdown(doc)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ParseError(
            f"report cannot be rendered: missing or malformed field ({exc!r})"
        ) from None


def _report_outputs(args: argparse.Namespace, *others: str) -> list[str]:
    """The report, the other outputs given and, with ``--render``, its markdown."""
    paths = [args.out, *others]
    if args.render == "markdown":
        paths.append(str(Path(args.out).with_suffix(".md")))
    return paths


def _check_outputs(
    outputs: Sequence[str | Path], inputs: Sequence[str | None]
) -> None:
    """Refuse two outputs that are one file, or an output that is an input.

    Commands call it before they read or write anything, so that no output
    replaces a file the command still has to read; ``_load_report`` calls it
    again for the ledger a report names, before reading that ledger.
    """
    # realpath, not Path.resolve, which raises RuntimeError on a symlink loop
    resolved = [os.path.realpath(path) for path in outputs]
    for i, path in enumerate(resolved):
        if path in resolved[:i]:
            first = outputs[resolved.index(path)]
            raise ValueError(f"outputs {first} and {outputs[i]} are the same file")
    for path in filter(None, inputs):
        real = os.path.realpath(path)
        if real in resolved:
            output = outputs[resolved.index(real)]
            raise ValueError(f"output {output} and input {path} are the same file")


def _write_report(doc: dict, out_path: str, markdown: str | None) -> None:
    """Write the JSON report and, given one, its markdown rendering."""
    _write_json(doc, out_path)
    if markdown is not None:
        _write_text(markdown, Path(out_path).with_suffix(".md"))


# ---------------------------------------------------------------------------
# corpus loading


def _load_corpus(path: str, fmt: str, scheme: str) -> tuple[Corpus, str]:
    """The corpus in ``path`` and the sha256 of the bytes it was parsed from."""
    data = Path(path).read_bytes()
    if fmt == "standoff":
        corpus = parse_standoff(data)
    else:
        corpus = parse_iob(data, TagScheme(scheme))
    return corpus, hashlib.sha256(data).hexdigest()


def _load_report(
    path: str, ledger: str | None, outputs: Sequence[str | Path]
) -> tuple[dict, MatchReport]:
    """A run report and the match report of its ledger (or of ``ledger``).

    A ledger path stored in the report is tried as it is, then relative to
    the report's directory, since ``eval`` stores it as it was given; the
    one found must not be one of the command's ``outputs``. A report that
    holds a number that is not finite (``NaN``, ``1e999``) raises
    ``ParseError``.
    """
    text = decode_utf8(Path(path).read_bytes(), "report")
    try:
        doc = decode_json(text)
    except NonFiniteNumberError:
        raise ParseError("report holds a number that is not finite") from None
    except ValueError as exc:
        raise ParseError(f"report is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("report must be a JSON object")
    try:
        surrogate = has_lone_surrogate(doc, allow_nan=False)
    except ValueError:
        raise ParseError("report holds a number that is not finite") from None
    if surrogate:
        raise ParseError("report holds a lone UTF-16 surrogate")
    if ledger:
        return doc, read_ledger(ledger)
    named = doc.get("outputs")
    stored = named.get("ledger") if isinstance(named, dict) else None
    if not isinstance(stored, str) or not stored:
        raise ValueError("report names no ledger; pass --ledger explicitly")
    beside = Path(path).parent / stored
    for candidate in (Path(stored), beside):
        if candidate.exists():
            _check_outputs(outputs, [str(candidate)])
            return doc, read_ledger(candidate)
    raise ValueError(f"no such ledger file: {stored} (nor {beside})")


# OpenBLAS reads the first of these that is set, when numpy loads it
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _import_numpy_single_threaded() -> None:
    """Import numpy with OpenBLAS on one thread, unless the user chose a count.

    The classifier's products are per-text ``gemv`` calls of a few hundred
    values, too small to gain from threads, and starting OpenBLAS's worker
    pool costs about as much as the rest of the import. The variable is
    read once, as numpy loads, and removed again, so child processes and
    later code see the user's environment. Where numpy is already imported
    this changes nothing. Commands call it just before their first numpy
    use: called before ``refine --model`` read its report, it raised the
    command's peak resident set by about 1.4 MB.
    """
    if any(name in os.environ for name in _BLAS_THREAD_VARIABLES):
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        importlib.import_module("numpy")
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_eval(args: argparse.Namespace) -> int:
    ledger_path = args.ledger or str(Path(args.out).with_suffix(".ledger.jsonl"))
    _check_outputs(_report_outputs(args, ledger_path), [args.gold, args.pred])
    gold, gold_sha256 = _load_corpus(args.gold, args.format, args.scheme)
    pred, pred_sha256 = _load_corpus(args.pred, args.format, args.scheme)
    corpus = pair_corpora(gold, pred)
    report = classify_corpus(corpus)
    write_ledger(report, ledger_path)
    suite = metric_suite(report)
    doc = {
        "tool": {"name": "entmatch", "version": __version__},
        "config": {
            "command": "eval",
            "format": args.format,
            "scheme": args.scheme,
        },
        "inputs": {
            "gold": {"path": args.gold, "sha256": gold_sha256},
            "pred": {"path": args.pred, "sha256": pred_sha256},
        },
        "outputs": {"ledger": ledger_path},
        "summary": _summary_section(report),
        "metrics": _metrics_section(suite),
    }
    _write_report(doc, args.out, _render_report(doc, args.render))
    exact = suite.overall[Convention.EXACT]
    relaxed = suite.overall[Convention.RELAXED]
    print(f"exact F1: {_pct(exact.f1)}  relaxed F1: {_pct(relaxed.f1)}")
    print(f"report: {args.out}  ledger: {ledger_path}")
    return EXIT_OK


def _cmd_build_clsdata(args: argparse.Namespace) -> int:
    _check_outputs([args.out], [args.train, args.chunks, args.stopwords])
    corpus, _ = _load_corpus(args.train, args.format, args.scheme)
    stopwords = None
    if args.stopwords:
        stopwords = frozenset(
            w.strip().lower()
            for w in decode_utf8(
                Path(args.stopwords).read_bytes(), "stopword file"
            ).split("\n")
            if w.strip()
        )
    config = BuilderConfig(
        seed=args.seed,
        max_chunk_tokens=args.max_chunk_tokens,
        **({"stopwords": stopwords} if stopwords is not None else {}),
    )
    external = ingest_external_chunks(args.chunks) if args.chunks else None
    pairs = build_training_set(corpus, config, external)
    write_pairs(pairs, args.out)
    labels = sorted({p.label for p in pairs})
    print(f"wrote {len(pairs)} pairs ({len(labels)} labels) to {args.out}")
    return EXIT_OK


def _cmd_train_cls(args: argparse.Namespace) -> int:
    _check_outputs([args.out], [args.pairs])
    pairs = read_pairs(args.pairs)
    config = TrainConfig(
        seed=args.seed,
        epochs=args.epochs,
        learning_rate=args.learning_rate,
        buckets=args.buckets,
    )
    _import_numpy_single_threaded()
    model = train(pairs, config)
    model.save(args.out)
    print(f"trained on {len(pairs)} pairs, labels: {', '.join(model.labels)}")
    print(f"model: {args.out}")
    return EXIT_OK


def _cmd_refine(args: argparse.Namespace) -> int:
    decisions_path = args.decisions_out or str(
        Path(args.out).with_suffix(".decisions.jsonl")
    )
    outputs = _report_outputs(args, decisions_path)
    _check_outputs(
        outputs, [args.report, args.ledger, args.model, args.external_decisions]
    )
    doc, report = _load_report(args.report, args.ledger, outputs)
    if args.model:
        _import_numpy_single_threaded()
        model = ClassifierModel.load(args.model)
        # a model that knows none of the Type-5 labels rejects every record
        type5_labels = {r.pred.label for r in report.type5_records()}  # type: ignore[union-attr]
        if type5_labels and type5_labels.isdisjoint(model.labels):
            raise ParseError(
                f"model labels {list(model.labels)} include none of the report's "
                f"Type-5 labels {sorted(type5_labels)}"
            )
        decisions = decide_type5(model, report)
        source = f"model:{args.model}"
    else:
        decisions = load_external_decisions(report, args.external_decisions)
        source = f"external:{args.external_decisions}"
    doc["decisions"] = _decisions_section(report, decisions, source, decisions_path)
    markdown = _render_report(doc, args.render)
    write_decisions(decisions, decisions_path)
    _write_report(doc, args.out, markdown)
    lb = doc["decisions"]["learning_based"]
    print(
        f"accepted {doc['decisions']['accepted']} of "
        f"{doc['decisions']['type5_total']} Type-5 records  "
        f"learning-based F1: {lb['f1_pct']}"
    )
    return EXIT_OK


def _cmd_judge(args: argparse.Namespace) -> int:
    outputs = _report_outputs(args)
    _check_outputs(outputs, [args.report, args.judgements, args.decisions, args.ledger])
    doc, report = _load_report(args.report, args.ledger, outputs)
    judgements = load_judgements(args.judgements, report)
    profiles = [UserProfile(args.profile)] if args.profile else list(UserProfile)
    # coverage first: a file that covers no record exits 4, as a partial one does
    human = {p: human_f(report, judgements, p) for p in profiles}
    distribution = score_distribution(judgements)
    exact = exact_f(report)
    relaxed = relaxed_f(report)
    type5_total = len(report.type5_records())

    section: dict = {
        "file": args.judgements,
        "judged": len(judgements),
        "type5_total": type5_total,
        # every Type-5 record is judged: human_f has checked it
        "coverage_pct": _pct(1.0 if type5_total else 0.0),
        "score_distribution": {
            "counts": {str(s): c for s, c in distribution.counts.items()},
            "percentages": {str(s): p for s, p in distribution.percentages.items()},
            "share_at_least": {
                str(t): p for t, p in distribution.share_at_least.items()
            },
        },
        "human": {p.value: _prf_dict(prf) for p, prf in human.items()},
    }
    errors = {}
    for p, human_prf in human.items():
        errors[f"exact_vs_{p.value}"] = metric_error(exact, human_prf)
        errors[f"relaxed_vs_{p.value}"] = metric_error(relaxed, human_prf)
    if args.decisions:
        decisions = read_decisions(args.decisions, report)
        learning = learning_based_f(report, decisions)
        section["learning_based"] = _prf_dict(learning)
        for p, human_prf in human.items():
            errors[f"learning_based_vs_{p.value}"] = metric_error(learning, human_prf)
        stats = agreement(decisions, judgements)
        section["agreement"] = {
            "shared": stats.shared,
            "expert_accept_given_classifier_accept_pct": _pct(
                stats.expert_accept_given_classifier_accept
            ),
            "classifier_accept_given_expert_accept_pct": _pct(
                stats.classifier_accept_given_expert_accept
            ),
            "disagreement_rate_pct": _pct(stats.disagreement_rate),
            "low_confidence_disagreement_share_pct": _pct(
                stats.low_confidence_disagreement_share
            ),
            "confidence_by_outcome": {
                name: {
                    "mean": round(summary.mean, 4),
                    "std": round(summary.std, 4),
                    "count": summary.count,
                }
                for name, summary in stats.confidence_by_outcome.items()
            },
        }
    section["metric_errors_f1_points"] = {
        name: round(value, 4) for name, value in errors.items()
    }
    doc["judgement"] = section
    _write_report(doc, args.out, _render_report(doc, args.render))
    for p, prf in human.items():
        print(f"{p.value} user F1: {_pct(prf.f1)}")
    return EXIT_OK


def _cmd_perturb(args: argparse.Namespace) -> int:
    prefix = Path(args.out_prefix)
    gold_path = prefix.with_name(prefix.name + ".gold.jsonl")
    pred_path = prefix.with_name(prefix.name + ".pred.jsonl")
    expected_path = prefix.with_name(prefix.name + ".expected.jsonl")
    _check_outputs([gold_path, pred_path, expected_path], [args.gold])
    corpus, _ = _load_corpus(args.gold, args.format, args.scheme)
    plan = PerturbationPlan(
        seed=args.seed,
        extend_rate=args.extend_rate,
        extend_tokens=args.extend_tokens,
        shrink_rate=args.shrink_rate,
        shrink_tokens=args.shrink_tokens,
        split_rate=args.split_rate,
        relabel_rate=args.relabel_rate,
        drop_rate=args.drop_rate,
        insert_rate=args.insert_rate,
    )
    pred, expected = perturb(corpus, plan)
    _write_text(serialize_standoff(corpus), gold_path)
    _write_text(serialize_standoff(pred), pred_path)
    write_expected_ledger(expected, expected_path)
    summary = "  ".join(f"{k.value}={expected.counts[k]}" for k in MismatchType)
    print(f"expected {summary}")
    print(f"gold: {gold_path}  pred: {pred_path}  expected: {expected_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring


def _add_format_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("iob", "standoff"), default="iob")
    sub.add_argument("--scheme", choices=("iob2", "iob1"), default="iob2")


def _eval_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("gold")
    sub.add_argument("pred")
    _add_format_flags(sub)
    sub.add_argument("--out", default="report.json")
    sub.add_argument("--ledger", default=None)
    sub.add_argument("--render", choices=("none", "markdown"), default="none")
    sub.set_defaults(func=_cmd_eval)


def _build_clsdata_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("train")
    _add_format_flags(sub)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--max-chunk-tokens", type=int, default=6)
    sub.add_argument("--chunks", default=None, help="precomputed chunk file, one per line")
    sub.add_argument("--stopwords", default=None, help="stopword file, one word per line")
    sub.add_argument("--out", default="pairs.jsonl")
    sub.set_defaults(func=_cmd_build_clsdata)


def _train_cls_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("pairs")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--epochs", type=int, default=5)
    sub.add_argument("--learning-rate", type=float, default=0.5)
    sub.add_argument("--buckets", type=int, default=1 << 20)
    sub.add_argument("--out", default="model.entcls")
    sub.set_defaults(func=_cmd_train_cls)


def _refine_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("report")
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", default=None)
    group.add_argument("--external-decisions", default=None)
    sub.add_argument("--ledger", default=None)
    sub.add_argument("--decisions-out", default=None)
    sub.add_argument("--out", default="refined.json")
    sub.add_argument("--render", choices=("none", "markdown"), default="none")
    sub.set_defaults(func=_cmd_refine)


def _judge_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("report")
    sub.add_argument("judgements")
    sub.add_argument("--decisions", default=None, help="decision file for agreement stats")
    sub.add_argument("--profile", choices=("strict", "forgiving"), default=None)
    sub.add_argument("--ledger", default=None)
    sub.add_argument("--out", default="judged.json")
    sub.add_argument("--render", choices=("none", "markdown"), default="none")
    sub.set_defaults(func=_cmd_judge)


def _perturb_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("gold")
    _add_format_flags(sub)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--extend-rate", type=float, default=0.0)
    sub.add_argument("--extend-tokens", type=int, default=1)
    sub.add_argument("--shrink-rate", type=float, default=0.0)
    sub.add_argument("--shrink-tokens", type=int, default=1)
    sub.add_argument("--split-rate", type=float, default=0.0)
    sub.add_argument("--relabel-rate", type=float, default=0.0)
    sub.add_argument("--drop-rate", type=float, default=0.0)
    sub.add_argument("--insert-rate", type=float, default=0.0)
    sub.add_argument("--out-prefix", required=True)
    sub.set_defaults(func=_cmd_perturb)


# subcommand -> (its help line, the function that adds its arguments)
_COMMANDS = {
    "eval": ("match predictions and score them", _eval_arguments),
    "build-clsdata": ("build classifier training pairs", _build_clsdata_arguments),
    "train-cls": ("train the entity classifier", _train_cls_arguments),
    "refine": ("apply Type-5 decisions to a report", _refine_arguments),
    "judge": ("benchmark against expert judgements", _judge_arguments),
    "perturb": ("generate a synthetic prediction corpus", _perturb_arguments),
}


def build_parser(argv: Sequence[str] | None = None) -> argparse.ArgumentParser:
    """The command-line parser.

    Every subcommand is listed, for ``--help`` and an unknown command's
    error. With ``argv``, only the subcommands it names get their arguments,
    the one it runs among them: argparse builds a help formatter for each
    argument it adds, which cost milliseconds per command for the five
    subcommands a run never parses.
    """
    parser = _Parser(prog="entmatch", description=__doc__)
    parser.add_argument("--version", action="version", version=f"entmatch {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments) in _COMMANDS.items():
        sub = commands.add_parser(name, help=help_line)
        if argv is None or name in argv:
            add_arguments(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    # A command builds hundreds of thousands of objects (mentions, records,
    # parsed JSON) that form no reference cycles and live until it ends; the
    # cyclic collector would traverse them again and again and free almost
    # nothing, so it is paused while the command runs.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except UncoveredRecordsError as exc:
        print(f"entmatch: error: {exc}", file=sys.stderr)
        return EXIT_UNCOVERED
    except ParseError as exc:
        print(f"entmatch: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except AlignmentError as exc:
        print(f"entmatch: alignment error: {exc}", file=sys.stderr)
        return EXIT_ALIGNMENT
    except FileNotFoundError as exc:
        print(f"entmatch: error: no such file: {exc.filename}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"entmatch: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if collecting:
            gc.enable()


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
