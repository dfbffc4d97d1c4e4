"""Self-test of the benchmark at minimum size.

    python3 perfbench/selftest.py

Checks, for every workload, that every end-to-end and per-layer metric named
in BENCHMARK.json is emitted with its unit and that no operation fails; that
the traced run is wired as documented (local_mu only on meeting, the repeat
ratio reported with its base, self times plus the unwrapped remainder adding
up to the traced wall time); that a deliberately wrong expected answer is
counted as a failure; and that the benchmark refuses to run without the
library's sources.  Exits 0 when everything holds.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from worker import _checked  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], capture_output=True,
                          text=True, cwd=cwd, timeout=600)


def check_workload(name):
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        proc = bench("--workload", name, "--seed", "0", "--seconds", "1", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        report, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, report["failures"]
        assert report["error_rate"] == {"value": 0.0, "unit": "ratio"}
        metrics = result["metrics"]
        assert set(metrics) == {m["name"] for m in declared}, set(metrics) ^ {m["name"] for m in declared}
        for m in declared:
            assert metrics[m["name"]]["unit"] == m["unit"], m
            assert isinstance(metrics[m["name"]]["value"], (int, float)), m
        if trace:
            value = {k: v["value"] for k, v in metrics.items()}
            mu_calls = value["localrings.local_mu.calls"]
            assert (mu_calls > 0) if name == "meeting" else (name == "cli_fixtures" or mu_calls == 0), mu_calls
            if name in ("same_support", "triples"):
                assert value["groebner.buchberger.calls"] > 0 and value["groebner.buchberger.repeats"] > 0
            total = value["trace.self_total_s"] + value["trace.unwrapped_s"]
            assert abs(total - value["trace.wall_s"]) < 1e-6 * max(1.0, value["trace.wall_s"]), value
    print(f"selftest: {name}: metrics, units, error rate and trace wiring ok")


def check_wrong_answers_fail():
    """A wrong expected answer must be counted, not passed."""
    blocks = workloads.generate("meeting", 0, 3).split("## ")[1:]
    header, _, body = blocks[1].partition("\n")
    meta = json.loads(header)
    meta["lal"] = not meta["lal"]  # op 1, the first timed one, now expects the wrong verdict
    blocks[1] = json.dumps(meta) + "\n" + body
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), "measure", "meeting", "prefix", "2", "0"],
                          input="".join("## " + b for b in blocks), capture_output=True, text=True,
                          cwd=ROOT, timeout=300)
    result = json.loads(proc.stdout)
    assert result["attempted"] == 3 and [f[0] for f in result["failed"]] == [1], result["failed"]

    op = workloads.parse("same_support", workloads.generate("same_support", 0, 1))[0]
    op.meta["lal"] = not op.meta["lal"]
    assert _checked(op) == (False, None)

    op = workloads.parse("triples", workloads.generate("triples", 0, 1))[0]
    op.session.ideals["A2"] = op.session.ideals["A1"]  # not a linked triple
    assert _checked(op)[0] is False

    op = workloads.parse("cli_fixtures", workloads.generate("cli_fixtures", 0, 22))
    golden = next(o for o in op if o.golden is not None)
    golden.golden = golden.golden.replace("true", "false", 1).replace("1", "2", 1)
    assert _checked(golden) == (False, None)
    print("selftest: wrong expected answers are counted as failures")


def check_refuses_without_sources():
    with tempfile.TemporaryDirectory(dir=ROOT) as bare:
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("--workload", "meeting", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout
    print("selftest: refuses to run without the library's sources")


def main():
    for name in (w["name"] for w in SPEC["workloads"]):
        check_workload(name)
    check_wrong_answers_fail()
    check_refuses_without_sources()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
