"""The four benchmark workloads: input generation, parsing and checked runs.

Each workload turns a seed into a list of operations written as text blocks:
a ``## {json}`` header carrying the expected answer, then a session file body
in the syntax of ``liaison.sessions``.  Generation runs in its own process;
the measuring process parses the text into fresh objects, so no state built
while generating can reach the timed phase.

Expected answers come from how an input was built (the meeting bucket, the
trace of N, the linked-triple construction, the golden bytes), never from
re-running the code being timed.

The library is called through the ``liaison`` package namespace
(``liaison.classify``, not a local import), so that the tracer's wrappers
see the top-level call.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import liaison
from liaison.generators import (
    random_ci_linked_triple,
    random_meeting_instance,
    random_same_support_instance,
)

ROOT = Path(__file__).resolve().parent.parent
# CLI children import the checkout's own library
CLI_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))

# bucket -> verdict implied by the construction in random_meeting_instance
MEETING_BUCKETS = {"a": True, "b_hold": True, "b_violate": False, "one_sided": False}

# variable count of each triple, cycled: 3/10 Artinian (2 variables), 4/10 in
# three and 3/10 in four variables.  The four-variable triples form the tail,
# and the median and 90th percentile fall inside a group, not on a boundary.
TRIPLE_PLAN = (2, 2, 2, 3, 3, 3, 3, 4, 4, 4)
# base generators of degree at most 2: with degree 3, verifying one
# four-variable triple takes 0.1 to 1.4 s (coefficient of variation ~0.75),
# and the few such triples in a run decide its throughput
TRIPLE_MAX_DEGREE = 2
TRIPLE_NAMES = {2: ["x1", "x2"], 3: ["x", "y", "z"], 4: ["x", "y", "z", "u"]}

# One CLI command per entry: (golden file or None, session, arguments,
# expected exit code, expected fields of the JSON "result").  Where a golden
# file exists the whole output must match it byte for byte; otherwise the
# exit code and the result fields stated by the fixture's comments (or, for
# the Hilbert degrees, by the acceptance criteria) are checked.
CLI_COMMANDS = (
    ("fossum_verify_triple", "fossum", ["verify-triple", "B", "A1", "A2"], 0, {}),
    ("fossum_colon", "fossum", ["colon", "B", "A1"], 0, {}),
    ("fossum_doubling", "fossum", ["doubling", "B", "A1"], 1, {}),
    ("paper_colon", "double_lines", ["colon", "Y", "I1"], 0, {}),
    ("classify_pm", "double_lines", ["classify", "L1", "L2", "--mode", "both"], 0, {}),
    ("classify_meeting_a", "double_lines", ["classify", "M1", "M2", "--mode", "both"], 0, {}),
    ("classify_meeting_b", "double_lines", ["classify", "B1", "B2", "--mode", "both"], 0, {}),
    ("classify_violating", "double_lines", ["classify", "V1", "V2", "--mode", "both"], 1, {}),
    ("classify_disjoint", "double_lines", ["classify", "D1", "D2", "--mode", "both"], 0, {}),
    ("gorenstein_at_point", "double_lines", ["gorenstein", "Y", "P"], 0, {}),
    ("hilbert_double_line", "double_lines", ["hilbert", "I1"], 0, {}),
    (None, "fossum", ["colon", "B", "A2"], 0, {"generators": ["x1", "x2^2"]}),
    (None, "fossum", ["doubling", "B", "A2"], 1, {"doubling": False}),
    (None, "fossum", ["hilbert", "B"], 0, {"degree": 4}),
    (None, "fossum", ["hilbert", "A1"], 0, {"degree": 2}),
    (None, "double_lines", ["link", "Y", "I1"], 0,
     {"generators": ["x*z - y*u", "x^2", "x*y", "y^2"]}),
    (None, "double_lines", ["classify", "O1", "O2", "--mode", "both"], 1, {"lal": False}),
    (None, "double_lines", ["hilbert", "Y"], 0, {"degree": 4}),
    (None, "double_lines", ["mu", "I1", "P"], 0, {"mu": 2}),
    (None, "double_lines", ["lci", "I1", "S"], 0, {"lci": True}),
    (None, "double_lines", ["lci", "Y", "P"], 0, {"lci": True}),
    (None, "double_lines", ["intersect", "I1", "I2"], 0, {}),
)


def _block(meta, lines):
    return "## " + json.dumps(meta, sort_keys=True) + "\n" + "\n".join(lines) + "\n"


def _ring_line(ring):
    return f"ring {ring.field!r}[{','.join(ring.variables)}] order grevlex"


def _dline_line(name, line):
    v1, v2 = (line.ring.variables[k] for k in line.support)
    f, g = line.forms
    return f"dline {name} support {v1},{v2} pair ({f}, {g})"


def _ideal_line(name, ideal):
    return f"ideal {name} = " + ", ".join(str(g) for g in ideal.gens)


def generate(workload, seed, count):
    """Text of `count` operations for a workload, determined by the seed."""
    rng = random.Random(f"{workload}/{seed}")
    blocks = []
    if workload == "meeting":
        ring = liaison.make_ring(["x", "y", "z", "u"], "F31", "grevlex")
        buckets = list(MEETING_BUCKETS)
        for i in range(count):
            bucket = buckets[i % len(buckets)]
            L1, L2 = random_meeting_instance(ring, bucket, rng)
            meta = {"bucket": bucket, "lal": MEETING_BUCKETS[bucket], "seed": rng.randrange(10**6)}
            blocks.append(_block(meta, [_ring_line(ring), _dline_line("L1", L1), _dline_line("L2", L2)]))
    elif workload == "same_support":
        ring = liaison.make_ring(["x", "y", "z", "u"], "F31", "grevlex")
        for i in range(count):
            # one in three traceless: the two kinds differ ~3x in cost, and
            # with half of each the median would sit on the gap between them
            traceless = i % 3 == 0
            L1, L2, _N = random_same_support_instance(ring, rng, traceless)
            meta = {"lal": traceless, "seed": rng.randrange(10**6)}
            blocks.append(_block(meta, [_ring_line(ring), _dline_line("L1", L1), _dline_line("L2", L2)]))
    elif workload == "triples":
        rings = {n: liaison.make_ring(names, "F31", "grevlex") for n, names in TRIPLE_NAMES.items()}
        for i in range(count):
            nvars = TRIPLE_PLAN[i % len(TRIPLE_PLAN)]
            triple = None
            while triple is None:
                triple = random_ci_linked_triple(rings[nvars], rng, max_degree=TRIPLE_MAX_DEGREE)
            base, first, second = triple.ideals()
            meta = {"nvars": nvars, "seed": rng.randrange(10**6)}
            lines = [_ring_line(rings[nvars]), _ideal_line("B", base),
                     _ideal_line("A1", first), _ideal_line("A2", second)]
            blocks.append(_block(meta, lines))
    elif workload == "cli_fixtures":
        # every pass runs each command once, in a seeded order
        order = []
        while len(order) < count:
            indices = list(range(len(CLI_COMMANDS)))
            rng.shuffle(indices)
            order.extend(indices)
        blocks = [_block({"command": k}, []) for k in order[:count]]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return "".join(blocks)


class Operation:
    """One parsed input with its expected answer; run() returns True when
    the answer checks out and False (or raises) when it does not."""

    def __init__(self, workload, meta, body):
        self.workload = workload
        self.meta = meta
        self.nvars = meta.get("nvars")
        if workload == "cli_fixtures":
            golden, session, args, exit_code, fields = CLI_COMMANDS[meta["command"]]
            self.argv = [str(ROOT / "fixtures" / f"{session}.session"), *args, "--json", "--seed", "0"]
            self.golden = (ROOT / "tests" / "golden" / f"{golden}.json").read_text() if golden else None
            self.exit_code = exit_code
            self.fields = fields
        else:
            self.session = liaison.parse_session(body)

    def run(self, launcher=None):
        """Run the operation.  For the CLI, `launcher` replaces `-m liaison.cli`
        and the command also reports --timings, which the check removes."""
        if self.workload == "meeting" or self.workload == "same_support":
            L1 = self.session.lookup_dline("L1")
            L2 = self.session.lookup_dline("L2")
            verdict = liaison.classify(L1, L2, mode="both", seed=self.meta["seed"])
            return verdict.lal == self.meta["lal"]
        if self.workload == "triples":
            s = self.session
            triple = liaison.LinkedTriple(s.lookup_ideal("B"), s.lookup_ideal("A1"), s.lookup_ideal("A2"))
            report = liaison.verify_linked_triple(triple, seed=self.meta["seed"])
            return report.passed is True and all(r[2] == 1 for r in report.point_reports)
        return self._run_cli(launcher)

    def _run_cli(self, launcher):
        head = [sys.executable, "-m", "liaison.cli"] if launcher is None else [sys.executable, str(launcher)]
        tail = [] if launcher is None else ["--timings"]
        proc = subprocess.run(head + self.argv + tail, capture_output=True, text=True,
                              cwd=ROOT, env=CLI_ENV, timeout=120)
        self.stderr = proc.stderr
        if proc.returncode != self.exit_code:
            return False
        out = proc.stdout
        document = json.loads(out)
        if launcher is not None:
            self.command_s = document["timings"]["seconds"]
            document["timings"] = None
            out = json.dumps(document, indent=2, sort_keys=True) + "\n"
        if self.golden is not None:
            return out == self.golden
        return all(_same(document["result"].get(k), v) for k, v in self.fields.items())


def _same(found, expected):
    """Generator lists are compared as sets: the fixture states the ideal,
    not the order in which the reduced basis is printed."""
    if isinstance(expected, list):
        return isinstance(found, list) and sorted(found) == sorted(expected)
    return found == expected


def parse(workload, text):
    """Fresh Operation objects from generated text."""
    ops = []
    for chunk in text.split("## ")[1:]:
        header, _, body = chunk.partition("\n")
        ops.append(Operation(workload, json.loads(header), body))
    return ops
