"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the PASS lines
inline).  Golden JSON files live in tests/golden and can be regenerated by
running with the environment variable GOLDEN_REGEN=1.
"""

import json
import os
import random
import time
from pathlib import Path

import pytest

from liaison import (
    DoubleLine,
    Ideal,
    LinkedTriple,
    RationalPoint,
    buchberger,
    classify,
    double_line_ideal,
    doubling_check,
    hilbert_data,
    ideal_colon,
    ideal_equal,
    link,
    local_mu,
    make_ring,
    normal_form,
    socle_lemma_test,
    verify_linked_triple,
)
from liaison.generators import (
    random_ci_linked_triple,
    random_meeting_instance,
    random_monomial_ideal,
    random_same_support_instance,
)
from liaison.ideals import minimal_monomial_generators
from liaison.localrings import socle_dimensions
from liaison.polynomials import Polynomial

from launcher import FIXTURES, run_cli, session_path

GOLDEN = Path(__file__).resolve().parent / "golden"


def _report(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_01_paper_colon_fixture():
    R = make_ring(["x", "y", "z", "u"], "Q", "grevlex")
    x, y, z, u = R.gens()
    started = time.perf_counter()
    Y = Ideal(R, [x**2, y**2])
    I1 = Ideal(R, [z * x + u * y, x**2, x * y, y**2])
    I2 = Ideal(R, [z * x - u * y, x**2, x * y, y**2])
    assert ideal_equal(ideal_colon(Y, I1), I2)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(1, f"(x^2,y^2) : (zx+uy,...) = (zx-uy,...) exactly in {elapsed:.3f}s")


def test_criterion_02_fossum_fixture():
    R = make_ring(["x1", "x2"], "Q", "grevlex")
    x1, x2 = R.gens()
    started = time.perf_counter()
    B = Ideal(R, [x1**2 + x1 * x2, x2**2])
    A1 = Ideal(R, [x1, x2**2])
    A2 = Ideal(R, [x1 + x2, x2**2])
    assert ideal_equal(ideal_colon(B, A1), A2)
    assert ideal_equal(ideal_colon(B, A2), A1)
    # each ideal is supported at the origin alone: its socle is read off its
    # own basis, not off the complete-intersection shortcut
    length_b, socle_b = socle_dimensions(B.groebner(), ())
    length_1 = socle_dimensions(A1.groebner(), ())[0]
    length_2 = socle_dimensions(A2.groebner(), ())[0]
    assert (length_b, length_1, length_2) == (4, 2, 2)
    assert socle_b == 1
    assert doubling_check(B, A1) is False
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(2, f"links, lengths 4=2+2, socle 1, not a doubling, in {elapsed:.3f}s")


def test_criterion_03_meeting_agreement_campaign():
    ring = make_ring(["x", "y", "z", "u"], "F31", "grevlex")
    rng = random.Random(2024)
    started = time.perf_counter()
    total = 0
    per_case = 50
    for case, expected in (
        ("a", True),
        ("b_hold", True),
        ("b_violate", False),
        ("one_sided", False),
    ):
        for _ in range(per_case):
            L1, L2 = random_meeting_instance(ring, case, rng)
            verdict = classify(L1, L2, mode="both", seed=rng.randrange(10**6))
            assert verdict.lal == expected, (
                f"bucket {case}: conditions/oracle disagreement or wrong verdict "
                f"on {L1} vs {L2}"
            )
            total += 1
    elapsed = time.perf_counter() - started
    assert total >= 200
    assert elapsed < 60.0
    _report(3, f"{total} meeting instances, conditions == oracle 100%, {elapsed:.1f}s")


def test_criterion_04_same_support_campaign():
    ring = make_ring(["x", "y", "z", "u"], "F31", "grevlex")
    rng = random.Random(4096)
    started = time.perf_counter()
    total = 0
    positives = 0
    for i in range(100):
        traceless = i % 2 == 0
        L1, L2, N = random_same_support_instance(ring, rng, traceless)
        verdict = classify(L1, L2, mode="both", seed=rng.randrange(10**6))
        assert verdict.lal == traceless, (traceless, N)
        if verdict.lal:
            positives += 1
            assert verdict.case_tag == "same_support_pm"
            # the classifier's verification already enforced the witness's
            # colon identities; re-check link(Y, I1) = I2 here independently
            from liaison import parse_polynomial

            Y = Ideal(ring, [parse_polynomial(s, ring) for s in verdict.witness["extension"]])
            assert ideal_equal(link(Y, double_line_ideal(L1)), double_line_ideal(L2))
        total += 1
    elapsed = time.perf_counter() - started
    assert total >= 100 and positives == 50
    assert elapsed < 60.0
    _report(4, f"{total} same-support instances, verdict == traceless(N), {elapsed:.1f}s")


@pytest.fixture(scope="module")
def generated_triples():
    """Random linked triples passing colon symmetry: 40 Artinian (2 vars),
    30 over 3 variables, 30 over 4 variables."""
    plan = ((["x1", "x2"], 40), (["x", "y", "z"], 30), (["x", "y", "z", "u"], 30))
    rng = random.Random(515)
    triples = []
    for names, wanted in plan:
        ring = make_ring(names, "F31", "grevlex")
        got = 0
        attempts = 0
        while got < wanted:
            attempts += 1
            assert attempts < wanted * 60, "generator rejection rate too high"
            triple = random_ci_linked_triple(ring, rng)
            if triple is None:
                continue
            triples.append((len(names), triple))
            got += 1
    return triples


def test_criterion_05_theorem_gor_property_suite(generated_triples):
    started = time.perf_counter()
    rng = random.Random(99)
    count = 0
    for nvars, triple in generated_triples:
        report = verify_linked_triple(triple, seed=rng.randrange(10**6))
        assert report.colon_first and report.colon_second
        assert report.degree_additive, report.as_dict()
        assert report.gorenstein_ok is True, report.as_dict()
        for _point, _length, socle_dim, _gor in report.point_reports:
            assert socle_dim == 1
        count += 1
    elapsed = time.perf_counter() - started
    assert count >= 100
    _report(
        5,
        f"{count} triples: colon symmetry, degree additivity, socle_dim 1 at "
        f"the cone origin, {elapsed:.1f}s",
    )


def test_criterion_06_socle_lemma_suite(generated_triples):
    artinian = [t for nvars, t in generated_triples if nvars == 2]
    assert len(artinian) >= 30
    for triple in artinian:
        report = socle_lemma_test(triple)
        assert report.all_equal, report.as_dict()
    _report(6, f"{len(artinian)} Artinian triples: all three socle subspaces coincide")


def test_criterion_07_mu_monomial_oracle():
    rng = random.Random(7171)
    count = 0
    for _ in range(100):
        nvars = rng.randint(2, 4)
        ring = make_ring([f"x{i}" for i in range(nvars)], "F31", "grevlex")
        I = random_monomial_ideal(ring, rng, max_gens=6)
        minimal = minimal_monomial_generators([g.leading_monomial() for g in I.gens])
        origin = RationalPoint.affine(ring, [0] * nvars)
        assert local_mu(I, origin) == len(minimal), (I.gens, minimal)
        count += 1
    _report(7, f"{count} monomial ideals: local_mu equals minimal-generator count")


def test_criterion_08_engine_sanity():
    rng = random.Random(8282)
    ring = make_ring(["x", "y", "z"], "F31", "grevlex")

    def random_poly():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            e = tuple(rng.randint(0, 3) for _ in range(3))
            terms[e] = rng.randint(0, 30)
        return Polynomial.from_dict(ring, terms)

    canonicity = 0
    membership = 0
    while canonicity < 100:
        gens = [p for p in (random_poly() for _ in range(rng.randint(2, 4))) if not p.is_zero()]
        if not gens:
            continue
        G1 = buchberger(list(gens))
        shuffled = list(gens)
        rng.shuffle(shuffled)
        G2 = buchberger(shuffled)
        assert G1.elements == G2.elements
        canonicity += 1
    while membership < 100:
        gens = [p for p in (random_poly() for _ in range(rng.randint(1, 3))) if not p.is_zero()]
        if not gens:
            continue
        G = buchberger(gens)
        f = Polynomial.zero(ring)
        for g in gens:
            f = f + random_poly() * g
        assert normal_form(f, G).is_zero()
        membership += 1
    _report(8, f"{canonicity} permutation-canonicity + {membership} membership checks")


def test_criterion_09_degrees():
    R = make_ring(["x", "y", "z", "u"], "Q", "grevlex")
    x, y, z, u = R.gens()
    lines = [
        Ideal(R, [z * x + u * y, x**2, x * y, y**2]),
        Ideal(R, [z * x - u * y, x**2, x * y, y**2]),
        Ideal(R, [y * x + u * z, x**2, x * z, z**2]),
    ]
    for I in lines:
        assert hilbert_data(I).degree == 2
    assert hilbert_data(Ideal(R, [x**2, x * y, y**2])).degree == 3
    assert hilbert_data(Ideal(R, [x**2, y**2])).degree == 4
    _report(9, "degrees: 2 per double line, 3 for (x,y)^2, 4 for (x^2,y^2)")


DOUBLE_LINES = FIXTURES / "double_lines.session"
FOSSUM = FIXTURES / "fossum.session"
# One session per order that no fixture uses.  Each term prints in the
# order's direction and each basis lists its elements ascending under it,
# so the bytes pin both.
LEX = (
    "ring Q[x,y,z] order lex\n"
    "ideal I = x^2 + y*z - 2*z, x*y - z^2 + y, y^2 - x*z\n"
    "ideal J = x*z - y + 1, y*z - z^2\n"
)
BLOCK = (
    "ring F31[t,x,y,z] order block(1)\n"
    "ideal I = t*x - y^2 + z, t*y - x*z, x^2 - y*z\n"
    "ideal J = t*z - x, y^2 - 5*x*z\n"
)

# Every golden file with the command that writes it: (golden; session, its
# fixture or text; arguments before --json; exit code)
GOLDEN_COMMANDS = [
    ("fossum_verify_triple", FOSSUM, ["verify-triple", "B", "A1", "A2"], 0),
    ("fossum_colon", FOSSUM, ["colon", "B", "A1"], 0),
    ("fossum_doubling", FOSSUM, ["doubling", "B", "A1"], 1),
    ("paper_colon", DOUBLE_LINES, ["colon", "Y", "I1"], 0),
    ("classify_pm", DOUBLE_LINES, ["classify", "L1", "L2", "--mode", "both"], 0),
    ("classify_meeting_a", DOUBLE_LINES, ["classify", "M1", "M2", "--mode", "both"], 0),
    ("classify_meeting_b", DOUBLE_LINES, ["classify", "B1", "B2", "--mode", "both"], 0),
    ("classify_violating", DOUBLE_LINES, ["classify", "V1", "V2", "--mode", "both"], 1),
    ("classify_disjoint", DOUBLE_LINES, ["classify", "D1", "D2", "--mode", "both"], 0),
    ("gorenstein_at_point", DOUBLE_LINES, ["gorenstein", "Y", "P"], 0),
    ("hilbert_double_line", DOUBLE_LINES, ["hilbert", "I1"], 0),
    # the one golden that runs the Artinian reduction and its socle: the
    # chart ideal of I1 at S is no graded complete intersection
    ("lci_at_smooth_point", DOUBLE_LINES, ["lci", "I1", "S"], 0),
    # the intersection's generators are its reduced basis, in the order the
    # elimination gives them: the bytes pin both
    ("intersect_double_lines", DOUBLE_LINES, ["intersect", "I1", "I2"], 0),
    ("gb_lex", LEX, ["gb", "I"], 0),
    ("intersect_lex", LEX, ["intersect", "I", "J"], 0),
    ("gb_block", BLOCK, ["gb", "I"], 0),
    ("intersect_block", BLOCK, ["intersect", "I", "J"], 0),
]


def test_criterion_10_cli_golden_files(tmp_path):
    regen = os.environ.get("GOLDEN_REGEN") == "1"
    GOLDEN.mkdir(exist_ok=True)
    for name, session, args, code in GOLDEN_COMMANDS:
        session_file = session_path(tmp_path, session)
        runs = [run_cli(session_file, *args, "--json") for _ in range(2)]
        for run in runs:
            assert run.returncode == code, f"{name}: exit {run.returncode}: {run.stderr}"
        first = runs[0].stdout
        assert first == runs[1].stdout, f"{name}: output not byte-stable across runs"
        json.loads(first)  # must be valid JSON
        path = GOLDEN / f"{name}.json"
        if regen:
            path.write_text(first)
        # a deleted golden fails too: only GOLDEN_REGEN=1 writes one
        assert path.exists(), f"{name}: golden file missing (regenerate with GOLDEN_REGEN=1)"
        assert first == path.read_text(), f"{name}: output differs from golden file"
    _report(10, f"{len(GOLDEN_COMMANDS)} golden JSON documents byte-stable")
