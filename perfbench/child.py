"""Runs one CLI request in a fresh interpreter and records how long it took.

Usage: python3 child.py RESULT_JSON TRACE REQUEST_ID -- CLI_ARGV...

The package is imported before the clock starts, so the time between the
parent's spawn and the start of ``cli.main`` is set-up (interpreter start
plus ``import nablamu``), and ``verdict_s`` covers ``cli.main`` alone.  The
CLI's own stdout passes through untouched.  With TRACE=1 the package's
public functions are wrapped first and the spans go to RESULT_JSON.trace.
"""

import json
import marshal
import sys
import time
import traceback


def main() -> int:
    result_path, trace, request_id = sys.argv[1], sys.argv[2] == "1", int(sys.argv[3])
    argv = sys.argv[sys.argv.index("--") + 1 :]
    import nablamu.cli

    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    run = nablamu.cli.main
    record = {"request": request_id, "crash": None}
    start = time.perf_counter()
    try:
        rc = run(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        record["crash"] = traceback.format_exc(limit=-3)
        traceback.print_exc()
        rc = 70
    record["verdict_s"] = time.perf_counter() - start
    sys.stdout.flush()
    record["rc"] = rc
    if tracer is not None:
        # marshal, not JSON: a heavy request leaves ~10^5 spans
        with open(result_path + ".trace", "wb") as fh:
            marshal.dump(tracer.dump(), fh)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, separators=(",", ":"))
    return rc


if __name__ == "__main__":
    sys.exit(main())
