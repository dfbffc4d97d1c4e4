"""Perf recorder: repeated runs of perfbench/run.py, kept as one JSON file or
compared in pairs with another commit.

    python tests/bench.py record --runs 5 --out BENCH_n.json
    python tests/bench.py compare REF --pairs 10

Each run is `perfbench/run.py --workload W --seed 0 --seconds S --trace 0`,
unchanged, in a fresh process, over every workload of BENCHMARK.json with
S its run_seconds; `record` may pick --seconds.

`record` runs each workload N times and writes the provenance perfbench/run.py
reports (the git SHA, a hash of src/liaison and perfbench/*.py, the Python
version, the vCPU count and the CPU model), whether src/, perfbench/ or
BENCHMARK.json differ from that SHA ("dirty"), a hash of perfbench/ with
BENCHMARK.json and, per workload and metric, its unit and every value with
its median and quartiles.

`compare` extracts REF with `git archive` into a temporary directory and
refuses it when its perfbench/ or BENCHMARK.json differ from this tree's.
It runs N pairs per workload, REF's tree (the parent) against a copy of
this one (the change) in the same directory, alternating which side runs
first, and prints, per workload and end-to-end metric, the parent's median
and quartiles, the change's median, the pairs each side won and the gain
and regression verdicts (see verdict).

The script reads numbers and sets no gate of its own.  It exits 1 only on a
run that is not correct, has failed > 0 or does not finish, and prints that
run's side, workload and seed.  It writes nothing but --out, never under
tests/golden/ or perfbench/.  The runs inherit the environment unchanged:
redirecting bytecode (PYTHONPYCACHEPREFIX) would also bypass the standard
library's cached bytecode and triple the cost of every CLI start.  Standard
library only; not collected by pytest.
"""

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from cli_equivalence import extract

ROOT = Path(__file__).resolve().parent.parent
SEED = 0
# a run that outlives perfbench/run.py's own deadline has hung
RUN_TIMEOUT_S = 600


class BadRun(RuntimeError):
    pass


def _quartiles(values):
    """(q1, median, q3) of values, by the inclusive method; a single value
    is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summary(values):
    q1, median, q3 = _quartiles(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def verdict(parent, change, better, bound):
    """The verdicts on one metric from paired runs, parent[i] and change[i]
    being pair i, better "higher" or "lower" and bound the relative
    worsening BENCHMARK.json allows.

    A pair is won by the side that reads better; a tie counts for neither.
    The gain holds when the change wins at least 9 pairs in 10 and its
    median is better than the parent's by more than the parent's
    interquartile range.  The regression verdict is "unresolved" when the
    parent's IQR exceeds the bound (relative to its median), unless every
    change run beats every parent run; else "regression" when the change's
    median is worse than the parent's by more than the bound; else "within
    bound".
    """
    sign = 1 if better == "higher" else -1
    q1, median, q3 = _quartiles(parent)
    change_median = statistics.median(change)
    change_wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    parent_wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    lead = sign * (change_median - median)
    if q3 - q1 > bound * abs(median) and not all(sign * (c - p) > 0 for c in change for p in parent):
        regression = "unresolved"
    elif lead < -bound * abs(median):
        regression = "regression"
    else:
        regression = "within bound"
    return {
        "parent_median": median, "parent_q1": q1, "parent_q3": q3, "change_median": change_median,
        "change_wins": change_wins, "parent_wins": parent_wins, "pairs": len(parent),
        "gain": 10 * change_wins >= 9 * len(parent) and lead > q3 - q1,
        "regression": regression,
    }


def _benchmark_sha256(tree):
    """Hash of every file under tree/perfbench, bytecode aside, and of
    tree/BENCHMARK.json, by path relative to tree."""
    digest = hashlib.sha256()
    files = [p for p in (tree / "perfbench").rglob("*") if p.is_file() and "__pycache__" not in p.parts]
    for path in sorted(files) + [tree / "BENCHMARK.json"]:
        digest.update(path.relative_to(tree).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def _run(tree, side, workload, seconds):
    """The report of one run of perfbench/run.py in tree (its provenance
    and its metrics, each a value with its unit); BadRun when the run is
    not correct, has failures or does not finish."""
    where = f"{side}: workload {workload}, seed {SEED}"
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
               "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(command, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BadRun(f"{where}: no result in {RUN_TIMEOUT_S} s") from None
    # the report line comes just before the result line
    try:
        report, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    except ValueError:
        raise BadRun(f"{where}: exit {proc.returncode}, no result\n{proc.stderr[-2000:]}") from None
    if result["correct"] is not True or result["failed"] > 0:
        raise BadRun(f"{where}: correct {result['correct']}, failed {result['failed']}")
    return report


def record(benchmark, runs, seconds, out):
    measured = {}
    for workload in (w["name"] for w in benchmark["workloads"]):
        reports = [_run(ROOT, "this tree", workload, seconds) for _ in range(runs)]
        measured[workload] = {
            name: {"unit": metric["unit"], **summary([r["metrics"][name]["value"] for r in reports])}
            for name, metric in reports[0]["metrics"].items()
        }
        print(f"{workload}: {runs} runs", flush=True)
    provenance = reports[0]["provenance"]
    status = subprocess.run(["git", "status", "--porcelain", "--", "src", "perfbench", "BENCHMARK.json"],
                            cwd=ROOT, capture_output=True, text=True).stdout
    document = {
        **provenance,
        "dirty": None if provenance["git_sha"] is None else status != "",
        "benchmark_sha256": _benchmark_sha256(ROOT),
        "seed": SEED,
        "seconds": seconds,
        "runs": runs,
        "workloads": measured,
    }
    out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")


def _print_table(workload, rows):
    print(f"\n{workload}")
    print(f"  {'metric':<12} {'parent q1':>11} {'median':>11} {'q3':>11} {'change':>11}"
          f"  {'wins c/p':>8}  gain  regression")
    for name, v in rows:
        print(f"  {name:<12} {v['parent_q1']:11.5g} {v['parent_median']:11.5g} {v['parent_q3']:11.5g}"
              f" {v['change_median']:11.5g}  {v['change_wins']:>3}/{v['parent_wins']:<4}"
              f"  {'yes' if v['gain'] else 'no':<4}  {v['regression']}")


def compare(benchmark, ref, pairs):
    with tempfile.TemporaryDirectory(prefix="liaison-bench-") as tmp:
        parent = Path(tmp) / "parent"
        if not extract(ref, parent):
            return 2
        # the change runs from a copy beside the parent, so that the two
        # sides differ in their code alone, not in where it lies
        change = Path(tmp) / "change"
        shutil.copytree(ROOT, change, ignore=shutil.ignore_patterns(".git", "__pycache__", ".*_cache"))
        if _benchmark_sha256(parent) != _benchmark_sha256(change):
            print(f"error: {ref}'s perfbench/ or BENCHMARK.json differ from this tree's", file=sys.stderr)
            return 2
        trees = {"parent": parent, "change": change}
        seconds = benchmark["run_seconds"]
        print(f"{ref} (parent) against this tree (change): {pairs} pairs per workload, seed {SEED}, "
              f"--seconds {seconds}")
        for workload in (w["name"] for w in benchmark["workloads"]):
            values = {"parent": [], "change": []}
            for i in range(pairs):
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    values[side].append(_run(trees[side], side, workload, seconds)["metrics"])
            rows = [
                (m["name"], verdict([v[m["name"]]["value"] for v in values["parent"]],
                                    [v[m["name"]]["value"] for v in values["change"]], m["better"], m["bound"]))
                for m in benchmark["end_to_end"]
            ]
            _print_table(workload, rows)
            sys.stdout.flush()
    return 0


def main(argv=None):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    recorder = commands.add_parser("record", help="write repeated runs to --out")
    recorder.add_argument("--runs", type=int, required=True)
    recorder.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    recorder.add_argument("--out", type=Path, required=True)
    comparer = commands.add_parser("compare", help="pair runs with another commit")
    comparer.add_argument("ref")
    comparer.add_argument("--pairs", type=int, required=True)
    opts = parser.parse_args(argv)
    count = opts.runs if opts.command == "record" else opts.pairs
    if count < 1:
        parser.error("need at least one run")
    if opts.command == "record":
        out = opts.out.resolve()
        if any(out.is_relative_to(ROOT / d) for d in ("perfbench", "tests/golden")):
            parser.error("--out may not lie under perfbench/ or tests/golden/")
    try:
        if opts.command == "record":
            record(benchmark, opts.runs, opts.seconds, out)
            return 0
        return compare(benchmark, opts.ref, opts.pairs)
    except BadRun as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
