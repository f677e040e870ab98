"""One `jc` invocation with timing, for the traced run of the cli workload.

    python3 perfbench/cliprobe.py <0|1> <jc arguments...>

Behaves like `python -m jcontainers.cli <jc arguments...>` (same stdout,
same exit code) and adds one line to stderr:

    PERFBENCH {"import_ms": ..., "dispatch_ms": ..., "summary": {...}}

With a first argument of 1 the library's public functions are traced and
``summary`` holds their span totals and counters; with 0 it is empty, so the
untraced pass pays only the timing.
"""

import json
import sys
import time

start = time.perf_counter()
import jcontainers.cli as cli  # noqa: E402

imported = time.perf_counter()

import spans  # noqa: E402  (this script's directory is on sys.path)


def main() -> int:
    traced = sys.argv[1] == "1"
    tracer = spans.Tracer()
    if traced:
        tracer.install()
        tracer.start()
    t0 = time.perf_counter()
    code = cli.dispatch(sys.argv[2:])
    dispatch_ms = 1000.0 * (time.perf_counter() - t0)
    tracer.stop()
    sys.stdout.flush()
    tracer.count_search_nodes()
    report = {
        "import_ms": 1000.0 * (imported - start),
        "dispatch_ms": dispatch_ms,
        "summary": tracer.summary(),
    }
    sys.stderr.write("PERFBENCH " + json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
