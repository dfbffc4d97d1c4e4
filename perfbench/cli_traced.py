"""Run one liaison CLI command with the benchmark's spans installed.

    python perfbench/cli_traced.py SESSION COMMAND [ARGS...] [OPTIONS]

Behaves like ``python -m liaison.cli``; on exit it also writes one line,
``perfbench-spans {json}``, to stderr with the span summary and the time
taken to import ``liaison.cli``.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracer import SPANS_MARKER, Tracer  # noqa: E402

if __name__ == "__main__":
    started = perf_counter()
    import liaison.cli

    import_s = perf_counter() - started
    with Tracer() as tracer:
        code = liaison.cli.main(sys.argv[1:])
    print(SPANS_MARKER + json.dumps({"summary": tracer.summary(), "import_s": import_s}), file=sys.stderr)
    sys.exit(code)
