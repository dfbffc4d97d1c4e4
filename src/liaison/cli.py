"""Command-line interface: run one command against a session file.

    liaison SESSION COMMAND [ARGS...] [--mode both] [--seed 0] [--json]

A command's usage string, such as IDEAL POINT, is its argument schema: one
session name per word, looked up as the word's kind and passed on in order.
Each handler returns (result, text, verdict); a command with no verdict
passes True.  main alone turns that into output: the exit code from the
verdict (0 True, 1 False, 3 None, the inconclusive one; 2 is an error),
and with --json a stable document (byte-stable for a fixed session,
command, and seed) holding the result as JSON data, its witness, and the
points tested: the command's POINT arguments, then the point of each of
the result's point_reports.  Timings are only included when --timings is
passed, so they never break stability.
"""

import argparse
import json
import os
import sys
import time

from .doublelines import ClassificationDiscrepancy, classify
from .ideals import (
    hilbert_data,
    ideal_colon,
    ideal_intersect,
    saturate,
)
from .linkage import LinkedTriple, doubling_check, link, verify_linked_triple
from .localrings import GORENSTEIN_NOTES, local_ci_test, local_gorenstein, local_mu, translate_to_origin
from .reports import json_value
from .sessions import Session, parse_session

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_ERROR = 2
EXIT_INCONCLUSIVE = 3
_EXIT_CODES = {True: EXIT_OK, False: EXIT_FALSE, None: EXIT_INCONCLUSIVE}


def _ideal_strings(I):
    return [str(g) for g in I.groebner().elements]


def _cmd_gb(opts, I):
    gens = _ideal_strings(I)
    text = ["reduced Groebner basis (" + str(I.ring.order) + "):"] + ["  " + g for g in gens]
    return {"generators": gens, "order": str(I.ring.order)}, text, True

def _binary_ideal_command(operation, label):
    def run(opts, I, J):
        gens = _ideal_strings(operation(I, J))
        text = [f"{label}({opts.args[0]}, {opts.args[1]}):"] + ["  " + g for g in gens]
        return {"generators": gens}, text, True

    return run


def _cmd_hilbert(opts, I):
    data = hilbert_data(I)
    text = [
        f"Krull dimension (cone): {data.krull_dimension}",
        f"projective dimension:   {data.projective_dimension}",
        f"degree:                 {data.degree}",
        f"numerator coefficients: {list(data.numerator)}",
    ]
    return data, text, True


def _cmd_localize(opts, I, p):
    J = translate_to_origin(I, p)
    gens = [str(g) for g in J.gens]
    text = [f"chart ideal at {p} in {J.ring!r}:"] + ["  " + g for g in gens]
    return {"generators": gens, "chart_ring": repr(J.ring)}, text, True


def _cmd_mu(opts, I, p):
    mu = local_mu(translate_to_origin(I, p))
    return {"mu": mu}, [f"mu at {p}: {mu}"], True


def _cmd_lci(opts, I, p):
    report = local_ci_test(I, p, seed=opts.seed)
    text = [
        f"point {p}: mu = {report.mu}, codim = {report.codim}, "
        f"lci = {report.lci}, gorenstein = {report.gorenstein}"
    ]
    return report, text, report.lci


def _cmd_gorenstein(opts, I, p):
    invariants = local_gorenstein(translate_to_origin(I, p), seed=opts.seed)
    length, socle_dim, gor = invariants
    text = f"point {p}: length = {length}, socle_dim = {socle_dim}, gorenstein = {gor}"
    if length is None:
        text += f"; {GORENSTEIN_NOTES[gor]}"
    return invariants, [text], gor


def _cmd_verify_triple(opts, base, first, second):
    report = verify_linked_triple(LinkedTriple(base, first, second), seed=opts.seed)
    text = [
        f"colon symmetry: {report.colon_first and report.colon_second}",
        f"dimensions: {report.dimensions}",
        f"degrees: {report.degrees} additive={report.degree_additive}",
        f"gorenstein at the cone origin: {report.gorenstein_ok}",
        f"passed: {report.passed}",
    ]
    return report, text, report.passed


def _cmd_doubling(opts, base, first):
    verdict = doubling_check(base, first)
    return {"doubling": verdict}, [f"doubling: {verdict}"], verdict


def _cmd_classify(opts, L1, L2):
    verdict = classify(L1, L2, mode=opts.mode)
    text = [
        f"lal: {verdict.lal}",
        f"case: {verdict.case_tag}",
        f"mode: {verdict.mode}" + (
            f" (oracle: {verdict.oracle_verdict})" if verdict.oracle_verdict else ""
        ),
    ]
    if verdict.witness:
        text.append(f"witness: {verdict.witness}")
    return verdict, text, verdict.lal


_COMMANDS = {
    "gb": (_cmd_gb, "IDEAL"),
    "intersect": (_binary_ideal_command(ideal_intersect, "intersect"), "IDEAL IDEAL"),
    "colon": (_binary_ideal_command(ideal_colon, "colon"), "IDEAL IDEAL"),
    "saturate": (_binary_ideal_command(saturate, "saturate"), "IDEAL IDEAL"),
    "hilbert": (_cmd_hilbert, "IDEAL"),
    "localize": (_cmd_localize, "IDEAL POINT"),
    "gorenstein": (_cmd_gorenstein, "IDEAL POINT"),
    "mu": (_cmd_mu, "IDEAL POINT"),
    "lci": (_cmd_lci, "IDEAL POINT"),
    "link": (_binary_ideal_command(link, "link"), "IDEAL IDEAL"),
    "verify-triple": (_cmd_verify_triple, "IDEAL IDEAL IDEAL"),
    "doubling": (_cmd_doubling, "IDEAL IDEAL"),
    "classify": (_cmd_classify, "DLINE DLINE"),
}

_KINDS = {"IDEAL": Session.lookup_ideal, "POINT": Session.lookup_point,
          "DLINE": Session.lookup_dline}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="liaison",
        description="exact linkage computations over a session file",
    )
    parser.add_argument("session", help="path to the session file")
    parser.add_argument("command", choices=sorted(_COMMANDS), help="command to run")
    parser.add_argument("args", nargs="*", help="names declared in the session")
    parser.add_argument("--mode", default="both", choices=["conditions", "oracle", "both"],
                        help="classification mode (classify only)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the Artinian slices (lci, gorenstein, verify-triple only)")
    parser.add_argument("--json", action="store_true", help="emit the stable JSON document")
    parser.add_argument("--timings", action="store_true",
                        help="include wall-clock timings in the JSON output")
    return parser


def main(argv=None):
    parser = build_parser()
    opts = parser.parse_args(argv)
    handler, usage = _COMMANDS[opts.command]
    kinds = usage.split()
    if len(opts.args) != len(kinds):
        print(f"error: {opts.command} expects {usage}", file=sys.stderr)
        return EXIT_ERROR
    try:
        with open(opts.session, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    phase = "session parse"
    try:
        session = parse_session(text)
        phase = opts.command
        started = time.perf_counter()
        values = [_KINDS[kind](session, name) for kind, name in zip(kinds, opts.args)]
        result, lines, verdict = handler(opts, *values)
    except (KeyError, ValueError, ClassificationDiscrepancy) as exc:
        # ParseError is a ValueError whose first argument carries line and col
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:
        # an internal failure must not exit 1, which reads as a false verdict
        detail = " ".join(str(exc).split())
        print(f"error: internal failure in {phase}: {type(exc).__name__}: {detail}",
              file=sys.stderr)
        return EXIT_ERROR
    elapsed = time.perf_counter() - started
    if opts.json:
        points = [v for kind, v in zip(kinds, values) if kind == "POINT"]
        points += [r.point for r in getattr(result, "point_reports", ())]
        document = {
            "schema": 1,
            "command": opts.command,
            "inputs": list(opts.args),
            "result": json_value(result),
            "witnesses": getattr(result, "witness", None),
            "points_tested": [str(p) for p in points],
            "seed": opts.seed,
            "timings": {"seconds": round(elapsed, 6)} if opts.timings else None,
        }
        lines = [json.dumps(document, indent=2, sort_keys=True)]
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (say, a pipe into head): the output
        # is cut short, an error and never the false verdict of exit 1.
        # stdout points at devnull, so that nothing written to it later,
        # the flush at exit included, fails again.
        sys.stdout = open(os.devnull, "w", encoding="utf-8")
        print("error: stdout closed before the output was written", file=sys.stderr)
        return EXIT_ERROR
    return _EXIT_CODES[verdict]


if __name__ == "__main__":
    sys.exit(main())
