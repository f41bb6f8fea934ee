"""Traced stand-in for `python -m robustsysid.cli` in the cli workload.

Imports robustsysid.cli and records how long the fresh interpreter took to
get there, from the parent's spawn time in BENCH_SPAWN_T (perf_counter reads
the system-wide monotonic clock, so the two processes' readings compare).
Then it wraps the package's layer functions and cli.dispatch, runs the
command, and writes its spans and counters to BENCH_TRACE_OUT.
"""

import json
import os
import sys
import time

import robustsysid.cli as cli

STARTUP_S = time.perf_counter() - float(os.environ["BENCH_SPAWN_T"])

import tracing  # noqa: E402  (after the timed import)


def main() -> int:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = tracer.wrap("cli.dispatch", cli.dispatch)(sys.argv[1:])
    finally:
        tracer.uninstall()
    tracer.counts["cli.startup_ms"] += 1e3 * STARTUP_S
    with open(os.environ["BENCH_TRACE_OUT"], "w") as fh:
        json.dump(tracer.export(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
