"""Run one entmatch command in a fresh interpreter and record what it cost.

    python3 perfbench/child.py SPEC_FILE

SPEC_FILE holds a JSON object with ``argv`` (the CLI arguments, or null to
time the import alone), ``trace`` (wrap the layer functions), ``report``
(the report file the command writes, or null) and ``result`` (the file this
script writes its JSON result to). The ``entmatch`` import is timed first,
before this script imports anything else, so it pays for every module the
CLI needs; command times exclude it. ``PYTHONPATH`` decides which
``entmatch`` is imported and the result names the file it came from.
"""

import sys
import time


def main() -> None:
    started = time.perf_counter()
    import entmatch.cli as cli

    import_s = time.perf_counter() - started
    import json
    import os
    import resource

    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    result = {"import_s": import_s, "entmatch_file": sys.modules["entmatch"].__file__}
    if spec["argv"] is not None:
        if spec["trace"]:
            import layertrace

            tracer = layertrace.Tracer()
            with layertrace.traced(cli, tracer):
                with tracer.span(layertrace.ROOT_SPAN):
                    code = cli.main(spec["argv"])
            tracer.finish()
            if spec["report"] and os.path.exists(spec["report"]):
                tracer.counts["cli.report_bytes"] += os.path.getsize(spec["report"])
            root = tracer.spans[0]
            result["wall_s"] = root["end"] - root["start"]
            result["spans"] = tracer.spans
            result["layers"] = dict(layertrace.self_times(tracer.spans))
            result["counts"] = dict(tracer.counts)
        else:
            started = time.perf_counter()
            code = cli.main(spec["argv"])
            result["wall_s"] = time.perf_counter() - started
        result["exit"] = code
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    sys.stdout.flush()
    sys.stderr.flush()
    # Skip interpreter teardown: freeing a large corpus object by object
    # costs run time and measures nothing the command's user waits for.
    os._exit(0)


if __name__ == "__main__":
    main()
