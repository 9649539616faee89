"""Entry point for one traced CLI call: ``python3 perfbench/trace_cli.py
ARGS...`` behaves like ``python3 -m jacobsthal ARGS...`` and also writes
the call's spans as JSON to the file named by ``PERFBENCH_TRACE_OUT``.

``PERFBENCH_LAUNCH`` carries the parent's ``time.perf_counter()`` just
before it started this process; on Linux that clock is the system-wide
CLOCK_MONOTONIC, so the difference to this process's own reading after
the package import is the interpreter start-up and import time.
"""

import json
import os
import sys
import time

import jacobsthal.cli as cli
from tracing import Recorder


def main() -> int:
    ready = time.perf_counter()
    rec = Recorder()
    rec.install()
    i = rec.open(rec.name_id("cli.run"))
    try:
        code = cli.run(sys.argv[1:])
    finally:
        rec.close(i)
        sys.stdout.flush()
    payload = {"startup_s": ready - float(os.environ["PERFBENCH_LAUNCH"]),
               "spans": rec.spans()}
    with open(os.environ["PERFBENCH_TRACE_OUT"], "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
