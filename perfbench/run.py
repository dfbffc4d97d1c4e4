"""Benchmark of the liaison engine and CLI.

    python3 perfbench/run.py --workload meeting --seed 0 --seconds 24 --trace 0

Workloads: meeting, same_support, triples, cli_fixtures (or `all`, which runs
each in turn).  Each is a closed loop with one client: the next operation
starts when the previous one has been checked.  See README.md in this
directory for why each workload exists and which metrics should move.

With --trace 0 the run measures the end-to-end metrics for --seconds in one
fresh process, with operation times scaled to the reference host's speed
(see _at_reference_speed).  With --trace 1 it runs a fixed prefix of the
inputs twice in fresh processes, untraced and traced, and reports the
per-layer metrics.  The second-to-last stdout line is a full report
(provenance, error rate, sample counts); the last line is
{"correct", "attempted", "failed", "metrics"}.

Seeds below 1000 are for tuning; seeds from 1000 up are held out, so a
claim can be re-checked on inputs its author never tuned against.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
HELD_OUT_FROM = 1000
# seconds the calibration kernel (worker.calibrate) takes on the reference
# host, an Intel Xeon with 2 vCPUs under Python 3.11.7, in its fast state
REFERENCE_CALIBRATION_S = 0.00075
SETUP_REPEATS = 3
UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms"}
DEADLINE_S = 170

# per workload: operations generated per measured second (headroom over
# today's rate; a run ends early if they run out) and the fixed number of
# operations in a traced run, so that traced counts repeat exactly
WORKLOADS = {
    "meeting": {"per_second": 25, "trace_ops": 40},
    "same_support": {"per_second": 10, "trace_ops": 20},
    "triples": {"per_second": 9, "trace_ops": 20},
    "cli_fixtures": {"per_second": 10, "trace_ops": 22},
}

CALLS_AND_SELF = (
    "groebner.buchberger", "groebner.module_groebner", "groebner.syzygies", "groebner.normal_form",
    "ideals.ideal_intersect", "ideals.ideal_colon", "ideals.saturate", "ideals.hilbert_data",
    "localrings.local_mu", "localrings.artinian_reduce", "localrings.local_component",
    "localrings.artinian_invariants", "localrings.local_ci_test", "localrings.translate_to_origin",
    "doublelines.oracle_lal",
)
SELF_ONLY = (
    "doublelines.classify_meeting_pair", "doublelines.classify_same_support_pair",
    "linkage.verify_linked_triple", "sessions.parse_session",
)


class BenchmarkError(RuntimeError):
    pass


def _child(argv, stdin, deadline):
    """Run a helper process to completion; its stdout, or BenchmarkError."""
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *argv], input=stdin, capture_output=True,
                              text=True, cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{argv[0]} {argv[1]} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"{argv[0]} {argv[1]} failed:\n{proc.stderr[-2000:]}")
    return proc.stdout


def _measure(workload, mode, text, deadline, limit=0, seconds=0.0):
    spawned = time.perf_counter()
    result = json.loads(_child(["measure", workload, mode, str(limit), str(seconds)], text, deadline))
    result["setup_s"] = result["first_op_at"] - spawned
    return result


def _at_reference_speed(result):
    """Operation times scaled by the host's speed next to each operation:
    time * reference / calibration, with the calibration taken as the median
    of the nine samples around the operation."""
    cal = result["calibration"]
    return [t * REFERENCE_CALIBRATION_S / statistics.median(cal[max(0, j - 4):j + 5])
            for j, t in enumerate(result["times"])]


def _timings(times_ms, passed):
    return {"ops_per_s": passed / (sum(times_ms) / 1000.0), "op_p50_ms": statistics.median(times_ms),
            "op_p90_ms": statistics.quantiles(times_ms, n=10, method="inclusive")[8]}


def _end_to_end(workload, seed, seconds, deadline):
    count = 2 + int(seconds * WORKLOADS[workload]["per_second"])
    started = time.perf_counter()
    text = _child(["generate", workload, str(seed), str(count)], None, deadline)
    generate_s = time.perf_counter() - started
    runs = [_measure(workload, "setup", text, deadline) for _ in range(SETUP_REPEATS - 1)]
    timed = _measure(workload, "timed", text, deadline, seconds=seconds)
    runs.append(timed)
    done = len(timed["times"])
    if done < 2:
        raise BenchmarkError("fewer than two timed operations")
    passed = done - sum(1 for index, _ in timed["failed"] if index > 0)
    scaled_ms = [t * 1000.0 for t in _at_reference_speed(timed)]
    slowdown = statistics.median(timed["calibration"]) / REFERENCE_CALIBRATION_S
    setup_s = generate_s + statistics.median(r["setup_s"] for r in runs)
    metrics = {name: (value, UNITS[name]) for name, value in _timings(scaled_ms, passed).items()}
    metrics["setup_s"] = (setup_s / slowdown, "s")
    metrics["peak_rss_mb"] = (timed["maxrss_kb"] / 1024.0, "MB")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(len(r["failed"]) for r in runs)
    details = {
        "error_rate": {"value": failed / attempted, "unit": "ratio"},
        "host_slowdown": slowdown,
        "raw_metrics": {**_timings([t * 1000.0 for t in timed["times"]], passed), "setup_s": setup_s},
        "percentile_samples": done,
        "samples_above_p90": sum(1 for t in scaled_ms if t > metrics["op_p90_ms"][0]),
        "timed_wall_s": timed["wall_s"],
        "generated_ops": count,
        "setup_parts_s": {"generate": generate_s, "measuring_process": [r["setup_s"] for r in runs],
                          "import": [r["import_s"] for r in runs], "parse": [r["parse_s"] for r in runs]},
        "failures": [f for r in runs for f in r["failed"]][:5],
    }
    if workload == "triples":
        by_nvars = {}
        for t, n in zip(scaled_ms, timed["nvars"]):
            by_nvars.setdefault(str(n), []).append(t)
        details["op_p50_ms_by_nvars"] = {n: statistics.median(v) for n, v in sorted(by_nvars.items())}
    return metrics, attempted, failed, details


def _per_layer(workload, seed, deadline):
    limit = WORKLOADS[workload]["trace_ops"]
    text = _child(["generate", workload, str(seed), str(limit + 1)], None, deadline)
    plain = _measure(workload, "prefix", text, deadline, limit=limit)
    traced = _measure(workload, "traced", text, deadline, limit=limit)
    functions = traced["trace"]["functions"]

    def stat(name, key):
        return functions.get(name, {}).get(key, 0)

    metrics = {}
    for name in CALLS_AND_SELF:
        metrics[f"{name}.calls"] = (stat(name, "calls"), "count")
        metrics[f"{name}.self_s"] = (stat(name, "self_s"), "s")
    for name in SELF_ONLY:
        metrics[f"{name}.self_s"] = (stat(name, "self_s"), "s")
    gb_calls = stat("groebner.buchberger", "calls")
    metrics["groebner.buchberger.repeats"] = (stat("groebner.buchberger", "repeats"), "count")
    metrics["groebner.buchberger.repeat_ratio"] = (
        stat("groebner.buchberger", "repeats") / gb_calls if gb_calls else 0.0, "ratio")
    reduce_calls = stat("localrings.artinian_reduce", "calls")
    metrics["localrings.artinian_reduce.forms_mean"] = (
        stat("localrings.artinian_reduce", "forms") / reduce_calls if reduce_calls else 0.0, "count")
    metrics["localrings.artinian_reduce.inconclusive"] = (stat("localrings.artinian_reduce", "inconclusive"), "count")
    metrics["doublelines.oracle_lal.points_tested"] = (stat("doublelines.oracle_lal", "points_tested"), "count")
    cli = traced["trace"].get("cli", {})
    metrics["cli.import_s"] = (cli.get("import_s", 0.0), "s")
    metrics["cli.command_s"] = (cli.get("command_s", 0.0), "s")
    wall = traced["wall_s"]
    toplevel = traced["trace"]["toplevel_s"]
    metrics["trace.ops"] = (len(traced["times"]), "count")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.self_total_s"] = (sum(f["self_s"] for f in functions.values()), "s")
    metrics["trace.unwrapped_s"] = (wall - toplevel, "s")
    metrics["trace.overhead_ratio"] = (wall / plain["wall_s"], "ratio")
    runs = (plain, traced)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(len(r["failed"]) for r in runs)
    details = {"error_rate": {"value": failed / attempted, "unit": "ratio"},
               "traced_ops": len(traced["times"]), "untraced_wall_s": plain["wall_s"],
               "failures": [f for r in runs for f in r["failed"]][:5]}
    return metrics, attempted, failed, details


def provenance():
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "liaison").glob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"git_sha": sha, "source_sha256": digest.hexdigest(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu": cpu}


def run(workload, seed, seconds, trace):
    deadline = time.monotonic() + DEADLINE_S
    if trace:
        metrics, attempted, failed, details = _per_layer(workload, seed, deadline)
    else:
        metrics, attempted, failed, details = _end_to_end(workload, seed, seconds, deadline)
    report = {
        "workload": workload, "seed": seed,
        "seed_role": "held-out" if seed >= HELD_OUT_FROM else "tuning",
        "seconds": seconds, "trace": trace, "load": "closed loop, one client",
        "provenance": provenance(), **details,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": report["metrics"]}
    return report, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    if not (ROOT / "src" / "liaison" / "__init__.py").is_file():
        print(f"error: no liaison sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if opts.workload == "all" else [opts.workload]
    try:
        for name in names:
            report, result = run(name, opts.seed, opts.seconds, bool(opts.trace))
            print(json.dumps(report))
            if opts.workload == "all":
                shown = {"error_rate": report["error_rate"], **report["metrics"]}
                for metric, value in shown.items():
                    print(f"  {name:13s} {metric:44s} {value['value']:12.6g} {value['unit']}")
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if opts.workload != "all":
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
