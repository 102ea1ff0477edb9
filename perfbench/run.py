"""End-to-end and per-layer benchmark of the entmatch CLI.

    python3 perfbench/run.py --workload eval_scale --seed 1 --trace 0

Generates the workload's inputs from ``--seed`` (untimed), measures the
import cost of a fresh interpreter, then runs the workload's command
sequence again and again for ``--seconds`` seconds (default: ``run_seconds``
of BENCHMARK.json, which its runner passes). Each command runs in a
fresh interpreter, as a CLI user runs it, one after the other (closed loop,
one client); its time is taken around ``entmatch.cli.main``. Every output is
checked. With ``--trace 1`` half the time is spent on traced iterations,
which give the per-layer numbers. The last line of standard output is one
JSON object with the metrics ``BENCHMARK.json`` lists for the chosen mode.
See README.md for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import checks
import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_SAMPLES = 9
# Type-5-heavy perturbation with insertions: about half the records are Type 5.
PERTURB_FLAGS = [
    "--extend-rate", "0.25", "--shrink-rate", "0.2", "--split-rate", "0.1",
    "--relabel-rate", "0.05", "--drop-rate", "0.05", "--insert-rate", "0.1",
]
ZIPF_DOCS, ZIPF_SENTENCES = 80, 40  # ~50k tokens, ~7.7k gold mentions
COMMAND_METRICS = ("eval_s", "build_clsdata_s", "train_cls_s", "refine_s", "perturb_s", "judge_s")


class Run:
    """One benchmark run: its files, operations and samples."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.ops = checks.Ops()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.traced = False
        self.iteration = 0
        self.rss_kb = 0
        self.layers: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.spans: list[dict] = []
        self.entmatch_file: str | None = None
        self._children = 0

    def path(self, name: str) -> str:
        return str(self.work / name)

    def child(self, argv: list[str] | None, trace: bool = False, report: str | None = None) -> dict | None:
        """Run ``child.py`` on one command; None when it left no result."""
        self._children += 1
        result_path = self.work / f"child{self._children}.json"
        spec_path = self.work / "child-spec.json"
        spec = {"argv": argv, "trace": trace, "report": report, "result": str(result_path)}
        spec_path.write_text(json.dumps(spec), "utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        with open(self.work / "stderr.log", "ab") as err:
            subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(spec_path)],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err, check=False,
            )
        if not result_path.exists():
            return None
        result = json.loads(result_path.read_text("utf-8"))
        result_path.unlink()
        entmatch_file = Path(result["entmatch_file"]).resolve()
        if not entmatch_file.is_relative_to(SRC):
            sys.exit(f"perfbench: imported {entmatch_file}, not the checkout's src/")
        self.entmatch_file = str(entmatch_file)
        return result

    def command(self, metric: str, argv: list[str], report: str | None = None) -> float | None:
        """Run one CLI command as one operation; its wall seconds, or None."""
        result = self.child(argv, self.traced, report)
        ok = result is not None and result["exit"] == 0
        self.ops.record(f"{argv[0]} (iteration {self.iteration})", ok, "" if ok else self._stderr_tail())
        if not ok:
            return None
        if self.traced:
            for name, value in {**result["layers"], **result["counts"]}.items():
                self.layers[self.iteration][name] += value
            prefix = f"{self.iteration}.{self._children}."
            for s in result["spans"]:
                parent = None if s["parent"] is None else prefix + str(s["parent"])
                self.spans.append({
                    "run": f"{self.workload}:{self.seed}:{self.iteration}", "command": argv[0],
                    "id": prefix + str(s["id"]), "parent": parent, "name": s["name"],
                    "start": s["start"], "end": s["end"],
                })
        else:
            self.samples[metric].append(result["wall_s"])
            self.rss_kb = max(self.rss_kb, result["maxrss_kb"])
        return result["wall_s"]

    def _stderr_tail(self) -> str:
        lines = (self.work / "stderr.log").read_text("utf-8", "replace").splitlines()
        return lines[-1] if lines else ""


# ---------------------------------------------------------------------------
# workloads: prepare() writes the inputs (untimed), iterate() runs one
# command sequence and returns its summed command seconds, or None on failure,
# and counts() gives the work counts a traced iteration must report


def prepare_eval_scale(run: Run) -> dict:
    gold, pred, expected = gen.scale_corpora(run.seed)
    Path(run.path("gold.jsonl")).write_text(gold, "utf-8")
    Path(run.path("pred.jsonl")).write_text(pred, "utf-8")
    return {"expected": expected}


def iterate_eval_scale(run: Run, state: dict) -> float | None:
    return _eval(run, state["expected"], "standoff", run.path("gold.jsonl"), run.path("pred.jsonl"))


def counts_eval_scale(run: Run, state: dict) -> dict[str, int]:
    return {
        **checks.corpus_counts((run.path("gold.jsonl"), "standoff"), (run.path("pred.jsonl"), "standoff")),
        **checks.record_counts(state["expected"]),
    }


def _eval(run: Run, expected: dict, fmt: str, gold: str, pred: str) -> float | None:
    """Run and check ``eval``; None when it failed or its outputs are wrong."""
    report, ledger = run.path("report.json"), run.path("report.ledger.jsonl")
    wall = run.command("eval_s", ["eval", gold, pred, "--format", fmt, "--out", report, "--ledger", ledger],
                       report)
    if wall is None:
        return None
    counted = run.ops.check("eval mismatch_counts", checks.report_counts, report, expected)
    if not run.ops.check("eval ledger", checks.ledger_matches_report, ledger, report) or not counted:
        return None
    return wall


def prepare_cls_refine(run: Run) -> dict:
    gold, pred, expected = gen.zipf_corpora(run.seed, ZIPF_DOCS, ZIPF_SENTENCES)
    Path(run.path("gold.iob")).write_text(gold, "utf-8")
    Path(run.path("pred.iob")).write_text(pred, "utf-8")
    return {"expected": expected}


def iterate_cls_refine(run: Run, state: dict) -> float | None:
    wall = _eval(run, state["expected"], "iob", run.path("gold.iob"), run.path("pred.iob"))
    pairs, model = run.path("pairs.jsonl"), run.path("model.entcls")
    refined, decisions = run.path("refined.json"), run.path("refined.decisions.jsonl")
    for metric, argv, report in (
        ("build_clsdata_s", ["build-clsdata", run.path("gold.iob"), "--out", pairs], None),
        ("train_cls_s", ["train-cls", pairs, "--out", model], None),
        ("refine_s", ["refine", run.path("report.json"), "--model", model,
                      "--out", refined, "--decisions-out", decisions], refined),
    ):
        if wall is None:
            return None
        step = run.command(metric, argv, report)
        wall = None if step is None else wall + step
    if wall is None:
        return None
    ledger = run.path("report.ledger.jsonl")
    run.ops.check("refine decisions", checks.one_decision_per_type5, decisions, ledger)
    run.ops.check("refine F1 sandwich", checks.learning_f1_sandwiched, refined)
    return wall


def counts_cls_refine(run: Run, state: dict) -> dict[str, int]:
    gold, pred = (run.path("gold.iob"), "iob"), (run.path("pred.iob"), "iob")
    return {
        **checks.corpus_counts(gold, pred, gold),  # eval, then build-clsdata
        **checks.record_counts(state["expected"]),
        **checks.pair_counts(run.path("pairs.jsonl")),
        "classifier.decided": state["expected"]["type5"],
    }


def prepare_judge_external(run: Run) -> dict:
    gold, _, _ = gen.zipf_corpora(run.seed, ZIPF_DOCS, ZIPF_SENTENCES)
    Path(run.path("source.iob")).write_text(gold, "utf-8")
    return {}


def iterate_judge_external(run: Run, state: dict) -> float | None:
    prefix = run.path("synthetic")
    perturb = run.command("perturb_s", ["perturb", run.path("source.iob"), "--seed", str(run.seed),
                                        *PERTURB_FLAGS, "--out-prefix", prefix])
    if perturb is None:
        return None
    expected = checks.expected_ledger_counts(prefix + ".expected.jsonl")
    evaluated = _eval(run, expected, "standoff", prefix + ".gold.jsonl", prefix + ".pred.jsonl")
    if evaluated is None:
        return None
    # The external classifier's responses and the expert scores are inputs
    # keyed by record id, so they are written once eval has named the records.
    ledger = run.path("report.ledger.jsonl")
    responses, scores, own = gen.responses_and_scores(
        run.seed, checks.type5_records(ledger), checks.ledger_labels(ledger))
    Path(run.path("responses.jsonl")).write_text(responses, "utf-8")
    Path(run.path("scores.jsonl")).write_text(scores, "utf-8")
    refined, decisions, judged = run.path("refined.json"), run.path("decisions.jsonl"), run.path("judged.json")
    refine = run.command("refine_s", ["refine", run.path("report.json"), "--external-decisions",
                                      run.path("responses.jsonl"), "--out", refined,
                                      "--decisions-out", decisions], refined)
    if refine is None:
        return None
    run.ops.check("refine accepted", checks.accepted_count, refined, own)
    judge = run.command("judge_s", ["judge", refined, run.path("scores.jsonl"),
                                    "--decisions", decisions, "--out", judged], judged)
    if judge is None:
        return None
    run.ops.check("judge F1 sandwich", checks.human_f1_sandwiched, judged)
    return perturb + evaluated + refine + judge


def counts_judge_external(run: Run, state: dict) -> dict[str, int]:
    prefix = run.path("synthetic")
    return {
        **checks.corpus_counts((run.path("source.iob"), "iob"), (prefix + ".gold.jsonl", "standoff"),
                               (prefix + ".pred.jsonl", "standoff")),
        **checks.record_counts(checks.expected_ledger_counts(prefix + ".expected.jsonl")),
        "judgement.judged": checks.line_count(run.path("scores.jsonl")),
    }


WORKLOADS = {
    "eval_scale": (prepare_eval_scale, iterate_eval_scale, counts_eval_scale),
    "cls_refine": (prepare_cls_refine, iterate_cls_refine, counts_cls_refine),
    "judge_external": (prepare_judge_external, iterate_judge_external, counts_judge_external),
}


# ---------------------------------------------------------------------------
# measurement and reporting


def measure(run: Run, iterate, counts, state: dict, seconds: float) -> list[float]:
    """Iterate until the next iteration would end after ``seconds``; at least once.

    A traced iteration's work counts are checked against ``counts``."""
    walls = []
    deadline = time.perf_counter() + seconds
    while True:
        run.iteration += 1
        started = time.perf_counter()
        try:
            wall = iterate(run, state)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            # an output the program wrote could not be read back
            run.ops.record(f"iteration {run.iteration}", False, f"{type(exc).__name__}: {exc}")
            wall = None
        if wall is not None:
            walls.append(wall)
            if run.traced:
                run.ops.check("traced work counts",
                              lambda: checks.counts_equal(run.layers[run.iteration], counts(run, state)))
        if time.perf_counter() + (time.perf_counter() - started) > deadline:
            return walls


def summary(values: list[float]) -> dict:
    """Median, mean, sample count and the highest percentile the samples support.

    Of n samples, the largest is the p(100 (n - 1) / n) point: that share of
    the samples lies below it.
    """
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered) if ordered else None,
           "mean": statistics.mean(ordered) if ordered else None, "n": n, "samples": values}
    if n >= 2:
        out["percentile"] = round(100 * (n - 1) / n, 1)
        out["percentile_value"] = ordered[-1]
    return out


def environment(entmatch_file: str | None) -> dict:
    try:
        from importlib.metadata import version

        numpy_version = version("numpy")
    except ImportError:
        numpy_version = None
    git = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False,
        env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
    ) if shutil.which("git") else None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "entmatch_file": entmatch_file,
        "git_commit": git.stdout.strip() if git and git.returncode == 0 else None,
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    # The runner of BENCHMARK.json passes --seconds <run_seconds> on every run.
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Terminated runs still stop their command process and remove their files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "entmatch" / "__init__.py").is_file():
        print(f"perfbench: no entmatch package under {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work.mkdir()
    try:
        return _bench(args, spec, Run(args.workload, args.seed, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _bench(args, spec: dict, run: Run) -> int:
    prepare, iterate, counts = WORKLOADS[args.workload]
    state = prepare(run)

    if run.child(None) is None:  # compiles bytecode; untimed, as after an install
        print("perfbench: cannot import entmatch from src/", file=sys.stderr)
        return 1
    setup = [r["import_s"] for r in (run.child(None) for _ in range(SETUP_SAMPLES)) if r]

    budget = args.seconds / 2 if args.trace else args.seconds
    walls = measure(run, iterate, counts, state, budget)
    traced_walls: list[float] = []
    if args.trace:
        run.traced = True
        traced_walls = measure(run, iterate, counts, state, budget)

    results = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(run.entmatch_file),
        "setup_s": summary(setup),
        "wall_s": summary(walls),
        **{m: summary(run.samples[m]) for m in COMMAND_METRICS if run.samples[m]},
        "peak_rss_mb": run.rss_kb / 1024,
        "ops_attempted": run.ops.attempted,
        "ops_failed": run.ops.failed,
    }
    end_to_end = {
        "setup_s": results["setup_s"]["median"],
        # The mean, not the median: this host alternates between fast and slow
        # periods tens of seconds long, and a run's median snaps to whichever
        # period holds most of its few iterations (see README.md).
        "wall_s": results["wall_s"]["mean"],
        "peak_rss_mb": results["peak_rss_mb"],
    }
    per_layer = {}
    if args.trace and run.layers and walls and traced_walls:
        # Median over traced iterations; 0 where the workload never calls the layer.
        for m in spec["per_layer"]:
            value = statistics.median_low(it.get(m["name"], 0) for it in run.layers.values())
            per_layer[m["name"]] = value if m["unit"] == "s" else int(value)
        per_layer["trace_overhead_s"] = statistics.mean(traced_walls) - statistics.mean(walls)
        results["per_layer"] = per_layer
        spans_path = WORK / f"{args.workload}-s{args.seed}.spans.jsonl"
        spans_path.write_text("".join(json.dumps(s) + "\n" for s in run.spans), "utf-8")
        results["spans_file"] = str(spans_path)
    (WORK / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(results, indent=2) + "\n", "utf-8")

    _print_human(results, spec)
    chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = per_layer if args.trace else end_to_end
    missing = [m["name"] for m in chosen if values.get(m["name"]) is None]
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": run.ops.failed == 0,
        "attempted": run.ops.attempted,
        "failed": run.ops.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen},
    }))
    return 0


def _print_human(results: dict, spec: dict) -> None:
    print(f"workload {results['workload']}  seed {results['seed']}  trace {results['trace']}")
    for key, value in results["environment"].items():
        print(f"  env.{key}: {value}")
    for name in ("setup_s", "wall_s", *COMMAND_METRICS):
        if name in results:
            s = results[name]
            if not s["n"]:
                print(f"  {name}: no successful sample")
                continue
            tail = (f", p{s['percentile']:g} {s['percentile_value']:.4f} s" if "percentile" in s
                    else ", one sample")
            print(f"  {name}: median {s['median']:.4f} s (n={s['n']}{tail}), mean {s['mean']:.4f} s")
    print(f"  peak_rss_mb: {results['peak_rss_mb']:.1f} MB")
    print(f"  ops_attempted: {results['ops_attempted']} count")
    print(f"  ops_failed: {results['ops_failed']} count")
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    layers = results.get("per_layer", {})
    for name, value in layers.items():
        print(f"  {name}: {value} {units[name]}")
    if layers.get("clsdata.pairs"):
        share = layers["clsdata.distinct_texts"] / layers["clsdata.pairs"]
        print(f"  clsdata distinct texts: {share:.1%} of {layers['clsdata.pairs']} pairs")


if __name__ == "__main__":
    sys.exit(main())
