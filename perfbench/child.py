"""Run one factormom CLI command in this fresh process and record its cost.

usage: python child.py RESULT_JSON TRACE(0|1) [CLI ARGS ...]

Times ``import factormom.cli``, then calls ``factormom.cli.main(CLI ARGS)``
(with the span tracer installed when TRACE is 1) and writes the import time,
the ``main`` wall time, the exit code, the process's peak RSS and, when
traced, the spans and counters to RESULT_JSON. With no CLI arguments it
only imports, as a set-up probe.
"""

import json
import resource
import sys
import time


def main() -> int:
    result_path, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    t0 = time.perf_counter()
    import factormom.cli

    record = {"import_s": time.perf_counter() - t0, "module_file": factormom.cli.__file__}
    if argv:
        entry = factormom.cli.main
        tracer = None
        if traced:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install(factormom)
            entry = tracer.wrap(tracing.ROOT_SPAN, entry)
        t1 = time.perf_counter()
        try:
            record["exit_code"] = entry(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            record["exit_code"] = exc.code
        except Exception as exc:  # any escaped exception fails the command
            record["exit_code"] = None
            record["error"] = f"{type(exc).__name__}: {exc}"
        record["main_s"] = time.perf_counter() - t1
        if tracer is not None:
            record["trace"] = tracer.export()
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
