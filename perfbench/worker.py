"""Processes started by run.py; each prints one JSON object on stdout.

    python perfbench/worker.py generate WORKLOAD SEED COUNT
        prints the text of COUNT operations (see workloads.generate)

    python perfbench/worker.py measure WORKLOAD MODE LIMIT SECONDS < TEXT
        parses the operations, checks op 0 as the warm-up, then runs the rest:
        MODE "setup" stops after the warm-up, "timed" runs until SECONDS have
        passed or the operations run out, "prefix" runs the first LIMIT
        without tracing and "traced" the same LIMIT with the tracer on.

The library comes from the checkout's own src/, never from site-packages.
"""

import contextlib
import gc
import json
import random
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracer import SPANS_MARKER, Tracer, merge

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

LAUNCHER = Path(__file__).resolve().parent / "cli_traced.py"


def _kernel_inputs():
    rng = random.Random(5)
    return [{tuple(rng.randrange(4) for _ in range(4)): rng.randrange(1, 31) for _ in range(24)}
            for _ in range(2)]


KERNEL_INPUTS = _kernel_inputs()


def calibrate():
    """Seconds taken by a fixed pure-Python kernel: a sparse product of two
    polynomials over F31, dict and tuple work like the engine's own.  It does
    not use the library, so a change to the library cannot move it."""
    f, g = KERNEL_INPUTS
    started = perf_counter()
    h = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
            h[e] = (h.get(e, 0) + c1 * c2) % 31
    sorted(h.items())
    return perf_counter() - started


def _checked(op, launcher=None):
    """(ok, error text): an exception or a wrong answer is a failure."""
    try:
        return bool(op.run(launcher)), None
    except Exception:  # a failure is counted and the run continues
        return False, traceback.format_exc(limit=3)


def measure(workload, mode, limit, seconds):
    import_start = perf_counter()
    import workloads
    import_s = perf_counter() - import_start
    parse_start = perf_counter()
    ops = workloads.parse(workload, sys.stdin.read())
    parse_s = perf_counter() - parse_start
    # the parsed inputs live for the whole run: keep the collector from
    # walking them, so that op times do not depend on how many were generated
    gc.collect()
    gc.freeze()
    ok, error = _checked(ops[0])
    failed = [] if ok else [(0, error)]
    result = {"import_s": import_s, "parse_s": parse_s, "first_op_at": perf_counter(),
              "times": [], "calibration": [], "nvars": [], "attempted": 1}
    if mode == "setup":
        result["failed"] = failed
        return result
    timed = ops[1:1 + limit] if mode in ("prefix", "traced") else ops[1:]
    summaries = []
    launcher = LAUNCHER if mode == "traced" and workload == "cli_fixtures" else None
    tracer = Tracer() if mode == "traced" and launcher is None else None
    cli_extra = {"import_s": 0.0, "command_s": 0.0}
    loop_start = perf_counter()
    with tracer or contextlib.nullcontext():
        for index, op in enumerate(timed, start=1):
            if mode == "timed" and perf_counter() - loop_start >= seconds:
                break
            result["calibration"].append(calibrate())
            started = perf_counter()
            ok, error = _checked(op, launcher)
            result["times"].append(perf_counter() - started)
            result["nvars"].append(op.nvars)
            if launcher is not None and ok:
                spans = _child_spans(op.stderr)
                ok = spans is not None
                if ok:
                    summaries.append(spans["summary"])
                    cli_extra["import_s"] += spans["import_s"]
                    cli_extra["command_s"] += op.command_s
            if not ok:
                failed.append((index, error or getattr(op, "stderr", "")[-500:]))
    result["wall_s"] = perf_counter() - loop_start
    result["attempted"] += len(result["times"])
    result["failed"] = failed
    who = resource.RUSAGE_CHILDREN if workload == "cli_fixtures" else resource.RUSAGE_SELF
    result["maxrss_kb"] = resource.getrusage(who).ru_maxrss
    if tracer is not None:
        result["trace"] = tracer.summary()
    elif launcher is not None:
        result["trace"] = {**merge(summaries), "cli": cli_extra}
    return result


def _child_spans(stderr):
    for line in reversed(stderr.splitlines()):
        if line.startswith(SPANS_MARKER):
            return json.loads(line[len(SPANS_MARKER):])
    return None


def main(argv):
    if argv[0] == "generate":
        import workloads
        sys.stdout.write(workloads.generate(argv[1], int(argv[2]), int(argv[3])))
        return 0
    if argv[0] == "measure":
        json.dump(measure(argv[1], argv[2], int(argv[3]), float(argv[4])), sys.stdout)
        return 0
    raise SystemExit(f"unknown role {argv[0]!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
