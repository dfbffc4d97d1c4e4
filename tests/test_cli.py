import io
import json
import os
import sys

import pytest

from launcher import FIXTURES, run_cli, session_path
from test_acceptance import BLOCK, GOLDEN, LEX
from test_sessions import INT_DIGITS


def test_colon_prints_paper_generators():
    proc = run_cli(str(FIXTURES / "double_lines.session"), "colon", "Y", "I1")
    assert proc.returncode == 0
    assert "x*z - y*u" in proc.stdout
    assert "x^2" in proc.stdout and "x*y" in proc.stdout and "y^2" in proc.stdout


def test_verify_triple_fossum():
    proc = run_cli(str(FIXTURES / "fossum.session"), "verify-triple", "B", "A1", "A2")
    assert proc.returncode == 0
    assert "passed: True" in proc.stdout
    assert "(4, 2, 2)" in proc.stdout


def test_doubling_false_exit_code():
    proc = run_cli(str(FIXTURES / "fossum.session"), "doubling", "B", "A1")
    assert proc.returncode == 1
    assert "False" in proc.stdout


def test_classify_violating_pair_exits_one():
    proc = run_cli(
        str(FIXTURES / "double_lines.session"), "classify", "V1", "V2", "--mode", "both"
    )
    assert proc.returncode == 1
    assert "lal: False" in proc.stdout


def test_classify_linked_pair_exits_zero():
    proc = run_cli(
        str(FIXTURES / "double_lines.session"), "classify", "L1", "L2", "--mode", "both"
    )
    assert proc.returncode == 0
    assert "same_support_pm" in proc.stdout


def test_unknown_name_exits_two():
    proc = run_cli(str(FIXTURES / "fossum.session"), "gb", "NOPE")
    assert proc.returncode == 2
    assert "unknown ideal" in proc.stderr


def test_parse_error_exits_two(tmp_path):
    bad = tmp_path / "bad.session"
    bad.write_text("ring Q[x] order lex\nideal I = x +\n")
    proc = run_cli(str(bad), "gb", "I")
    assert proc.returncode == 2
    assert "line 2" in proc.stderr


def test_dline_whose_forms_share_a_zero_exits_two(tmp_path):
    # z*u and z*(z+u) vanish together at (z:u) = (0:1): the session parse
    # hands the constructor's refusal on as an input error
    bad = tmp_path / "bad.session"
    bad.write_text("ring Q[x,y,z,u] order grevlex\ndline L support x,y pair (z*u, z*(z+u))\n")
    proc = run_cli(str(bad), "classify", "L", "L")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: line 2 col 1: forms share a zero on the support line (resultant 0)\n"


def test_trailing_input_after_point_exits_two(tmp_path):
    bad = tmp_path / "bad.session"
    bad.write_text("ring Q[x,y,z,u] order grevlex\nideal Y = x^2, y^2\npoint P = (0:0:0:1) junk\n")
    proc = run_cli(str(bad), "gorenstein", "Y", "P")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: line 3 col 21: trailing input 'junk'")


def test_zero_denominator_mod_p_exits_two(tmp_path):
    bad = tmp_path / "bad.session"
    bad.write_text("ring F3[x,y] order grevlex\nideal I = 1/3*x, y\n")
    proc = run_cli(str(bad), "gb", "I")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: line 2 col 13")
    assert len(proc.stderr.strip().splitlines()) == 1


def test_deeply_nested_session_exits_two(tmp_path):
    # nesting past MAX_PAREN_DEPTH is an input error at the ( that crosses
    # it, not an internal failure
    bad = tmp_path / "bad.session"
    bad.write_text("ring Q[x] order lex\nideal I = " + "(" * 3000 + "x" + ")" * 3000 + "\n")
    proc = run_cli(str(bad), "gb", "I")
    assert proc.returncode == 2
    assert proc.stderr == "error: line 2 col 111: parentheses nested deeper than 100 levels\n"


def test_modulus_above_the_prime_bound_exits_two(tmp_path):
    # 2^61 - 1 is prime, but trial division would take minutes: it is
    # refused at the field token before any primality test
    bad = tmp_path / "bad.session"
    bad.write_text("ring F2305843009213693951[x,y]\nideal I = x\n")
    proc = run_cli(str(bad), "gb", "I")
    assert proc.returncode == 2
    assert proc.stderr == (
        "error: line 1 col 6: prime modulus 2305843009213693951 is not below the bound 2^31\n"
    )


@pytest.mark.skipif(not INT_DIGITS, reason="this interpreter reads integers of any length")
def test_oversized_exponent_exits_two(tmp_path):
    bad = tmp_path / "bad.session"
    bad.write_text("ring Q[x] order lex\nideal I = x^" + "9" * (INT_DIGITS + 1) + "\n")
    proc = run_cli(str(bad), "gb", "I")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert len(proc.stderr.strip().splitlines()) == 1


def test_point_past_the_digit_limit_prints_exactly(tmp_path):
    # (1/N : 0 : N), N = 10^4000 - 1, scales to (1/N^2 : 0 : 1): the
    # denominator N^2 = 10^8000 - 2*10^4000 + 1 has 8000 digits, more than
    # str() writes of an int by default
    nines = "9" * 4000
    session = tmp_path / "big.session"
    session.write_text(f"ring Q[x,y,z]\nideal L = y\npoint P = (1/{nines}:0:{nines})\n")
    proc = run_cli(str(session), "lci", "L", "P", "--json")
    assert proc.returncode == 0, proc.stderr
    point = "(1/" + "9" * 3999 + "8" + "0" * 3999 + "1:0:1)"
    assert proc.stdout == (
        '{\n  "command": "lci",\n  "inputs": [\n    "L",\n    "P"\n  ],\n'
        f'  "points_tested": [\n    "{point}"\n  ],\n'
        '  "result": {\n    "codim": 1,\n    "gorenstein": true,\n    "lci": true,\n'
        '    "length": 1,\n    "mu": 1,\n    "note": "",\n'
        f'    "point": "{point}",\n'
        '    "socle_dim": 1\n  },\n  "schema": 1,\n  "seed": 0,\n'
        '  "timings": null,\n  "witnesses": null\n}\n'
    )


def test_power_too_large_to_expand_exits_two(tmp_path):
    bad = tmp_path / "bad.session"
    bad.write_text("ring Q[x,y,z] order grevlex\nideal I = (x+y+z)^200\n")
    proc = run_cli(str(bad), "gb", "I")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: line 2 col 19: power may expand to 20301 terms")


def test_internal_failure_exits_two_not_false(monkeypatch, capsys):
    from liaison import cli

    def broken(opts, I):
        raise ZeroDivisionError("inverse of zero\nsecond line")

    monkeypatch.setitem(cli._COMMANDS, "gb", (broken, "IDEAL"))
    code = cli.main([str(FIXTURES / "fossum.session"), "gb", "B"])
    assert code == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err == "error: internal failure in gb: ZeroDivisionError: inverse of zero second line\n"


def test_closed_stdout_exits_two_not_false(monkeypatch, capsys):
    # a reader that stops early (say, a pipe into head) cuts the output
    # short: an error, never the false verdict of exit 1
    from liaison import cli

    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = cli.main([str(FIXTURES / "double_lines.session"), "hilbert", "I1", "--json"])
    # stdout now points at devnull, so the flush at exit stays quiet
    assert sys.stdout.name == os.devnull
    sys.stdout.close()
    assert code == cli.EXIT_ERROR
    assert capsys.readouterr().err == "error: stdout closed before the output was written\n"


def test_closed_stdout_pipe_exits_two_without_traceback():
    # the read end is closed before the child starts, so its first write
    # fails: one line on stderr, no traceback and nothing from the exit flush
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_cli(FIXTURES / "double_lines.session", "hilbert", "I1", stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == "error: stdout closed before the output was written\n"


def test_missing_file_exits_two(tmp_path):
    proc = run_cli(str(tmp_path / "absent.session"), "gb", "I")
    assert proc.returncode == 2


def test_wrong_arity_exits_two():
    proc = run_cli(str(FIXTURES / "fossum.session"), "colon", "B")
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["mu", "I1", "NOPE"], "unknown point 'NOPE'"),
        (["classify", "L1", "NOPE"], "unknown double line 'NOPE'"),
        (["mu", "I1"], "mu expects IDEAL POINT"),
        (["classify", "L1", "L2", "L1"], "classify expects DLINE DLINE"),
    ],
    ids=["unknown-point", "unknown-dline", "too-few", "too-many"],
)
def test_unknown_names_and_wrong_arity_exit_two(capsys, argv, message):
    from liaison import cli

    assert cli.main([str(FIXTURES / "double_lines.session"), *argv]) == cli.EXIT_ERROR
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_json_schema_fields():
    proc = run_cli(str(FIXTURES / "fossum.session"), "gb", "B", "--json")
    doc = json.loads(proc.stdout)
    assert doc["schema"] == 1
    assert doc["command"] == "gb"
    assert doc["inputs"] == ["B"]
    assert doc["seed"] == 0
    assert doc["timings"] is None
    assert "result" in doc and "witnesses" in doc and "points_tested" in doc


# (fixture, argv, points_tested, whether the result carries a witness): the
# command's POINT arguments, then the points of the result's point_reports
POINT_CASES = [
    *[
        ("double_lines.session", [command, "I1", name], [point], False)
        for command in ("localize", "mu", "lci", "gorenstein")
        for name, point in (("P", "(0:0:0:1)"), ("S", "(0:0:1:1)"))
    ],
    ("double_lines.session", ["gb", "I1"], [], False),
    ("double_lines.session", ["colon", "Y", "I1"], [], False),
    ("double_lines.session", ["hilbert", "I1"], [], False),
    ("fossum.session", ["doubling", "B", "A1"], [], False),
    ("fossum.session", ["verify-triple", "B", "A1", "A2"], ["(0,0)"], False),
    ("double_lines.session", ["classify", "M1", "M2"], ["(0:0:0:1)"], True),
    ("double_lines.session", ["classify", "L1", "L2"], [], True),
    ("double_lines.session", ["classify", "D1", "D2"], [], False),
]


@pytest.mark.parametrize(
    "fixture, argv, points, witnessed", POINT_CASES, ids=[" ".join(c[1]) for c in POINT_CASES]
)
def test_points_tested_and_witnesses_of_each_command_kind(capsys, fixture, argv, points, witnessed):
    from liaison import cli

    code = cli.main([str(FIXTURES / fixture), *argv, "--json"])
    assert code != cli.EXIT_ERROR
    doc = json.loads(capsys.readouterr().out)
    assert doc["points_tested"] == points
    if witnessed:
        assert doc["witnesses"] is not None
        assert doc["witnesses"] == doc["result"]["witness"]
    else:
        assert doc["witnesses"] is None


def test_json_byte_stable_across_runs():
    commands = [
        ("fossum.session", ["verify-triple", "B", "A1", "A2", "--seed", "7"]),
        ("double_lines.session", ["classify", "M1", "M2", "--mode", "both", "--seed", "7"]),
        ("double_lines.session", ["colon", "Y", "I1"]),
    ]
    for fixture, args in commands:
        first = run_cli(str(FIXTURES / fixture), *args, "--json")
        second = run_cli(str(FIXTURES / fixture), *args, "--json")
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode


def test_json_round_trip_ideal_generators():
    from liaison import Ideal, ideal_equal, parse_polynomial, parse_session

    proc = run_cli(str(FIXTURES / "double_lines.session"), "colon", "Y", "I1", "--json")
    doc = json.loads(proc.stdout)
    session = parse_session((FIXTURES / "double_lines.session").read_text())
    R = session.ring
    reparsed = Ideal(R, [parse_polynomial(s, R) for s in doc["result"]["generators"]])
    assert ideal_equal(reparsed, session.ideals["I2"])


def test_gorenstein_command_and_exit_codes():
    proc = run_cli(str(FIXTURES / "double_lines.session"), "gorenstein", "Y", "P")
    assert proc.returncode == 0
    assert "gorenstein = True" in proc.stdout


def test_lci_and_mu_commands():
    proc = run_cli(str(FIXTURES / "double_lines.session"), "mu", "I1", "P", "--json")
    assert json.loads(proc.stdout)["result"]["mu"] == 2
    proc = run_cli(str(FIXTURES / "double_lines.session"), "lci", "I1", "S")
    assert proc.returncode == 0


def test_lci_codim_follows_dimension_beyond_curves(tmp_path):
    session = tmp_path / "lci.session"
    session.write_text(
        "ring Q[x,y,z,u] order grevlex\n"
        "ideal POINT = x, y, z\n"
        "ideal SURFACE = x\n"
        "point P = (0:0:0:1)\n"
    )
    for name, codim in (("POINT", 3), ("SURFACE", 1)):
        proc = run_cli(str(session), "lci", name, "P", "--json")
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)["result"]
        assert (report["mu"], report["codim"], report["lci"]) == (codim, codim, True)


def test_intersect_saturate_link_hilbert_localize():
    base = str(FIXTURES / "double_lines.session")
    assert run_cli(base, "intersect", "I1", "I2").returncode == 0
    assert run_cli(base, "saturate", "Y", "I1").returncode == 0
    assert run_cli(base, "link", "Y", "I1").returncode == 0
    proc = run_cli(base, "hilbert", "I1", "--json")
    assert json.loads(proc.stdout)["result"]["degree"] == 2
    assert run_cli(base, "localize", "I1", "P").returncode == 0


# Byte checks of single goldens, by the session text and command that
# criterion 10's table writes them with; only that test regenerates them.
def test_intersect_matches_golden_bytes():
    # the intersection's generators are its reduced basis, in the order the
    # elimination gives them: the bytes pin both
    proc = run_cli(FIXTURES / "double_lines.session", "intersect", "I1", "I2", "--json")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "intersect_double_lines.json").read_text()


@pytest.mark.parametrize("order", ["block", "lex"])
@pytest.mark.parametrize("command", [["gb", "I"], ["intersect", "I", "J"]])
def test_lex_and_block_output_matches_golden_bytes(tmp_path, order, command):
    session = session_path(tmp_path, {"lex": LEX, "block": BLOCK}[order])
    proc = run_cli(session, *command, "--json")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / f"{command[0]}_{order}.json").read_text()


@pytest.mark.parametrize(
    "point, generators",
    [
        ("P", ["x*z + y", "x^2", "x*y", "y^2"]),
        ("S", ["x*z + x + y", "x^2", "x*y", "y^2"]),
    ],
)
def test_localize_prints_chart_generators(point, generators):
    # the chart variable u is dropped; at S = (0:0:1:1) z is also shifted
    proc = run_cli(str(FIXTURES / "double_lines.session"), "localize", "I1", point, "--json")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)["result"]
    assert result == {"chart_ring": "Q[x,y,z] grevlex", "generators": generators}


@pytest.mark.parametrize("command", ["lci", "mu", "gorenstein", "localize"])
def test_inhomogeneous_ideal_at_projective_point_exits_two(tmp_path, command):
    # x + y^2 is a hypersurface, not a curve: no chart ideal, no verdict
    session = tmp_path / "inhomogeneous.session"
    session.write_text(
        "ring Q[x,y,z,u] order grevlex\n"
        "ideal I = x + y^2\n"
        "point P = (0:0:0:1)\n"
    )
    proc = run_cli(str(session), command, "I", "P")
    assert proc.returncode == 2
    assert "homogeneous" in proc.stderr


def test_lci_of_a_line_beside_a_plane_exits_zero(tmp_path):
    # a plane and a line; at a point of the line only, the local leading
    # ideal sees the line alone: codim 2, mu 2, so lci
    session = tmp_path / "mixed.session"
    session.write_text(
        "ring Q[x,y,z,u] order grevlex\n"
        "ideal I = x*y, x*z\n"
        "point P = (1:0:0:1)\n"
    )
    proc = run_cli(str(session), "lci", "I", "P", "--json")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)["result"]
    assert (report["mu"], report["codim"], report["lci"], report["gorenstein"]) == (2, 2, True, True)


# I = x*y*(x^2 - y^2) * (x, y) over F3: not a complete intersection, and
# every F3-linear form vanishes on one of the four lines of its zero set, so
# no cut is zero-dimensional
NON_CI_SESSION = (
    "ring F3[x,y,z] order grevlex\n"
    "ideal I = x^4*y - x^2*y^3, x^3*y^2 - x*y^4\n"
)


def test_gorenstein_inconclusive_exits_three(tmp_path):
    session = tmp_path / "allateral.session"
    session.write_text(NON_CI_SESSION + "point P = (0:0:1)\n")
    proc = run_cli(str(session), "gorenstein", "I", "P")
    assert proc.returncode == 3
    assert "inconclusive" in proc.stdout


def test_lci_where_no_cut_is_zero_dimensional_exits_one(tmp_path):
    # the codimension needs no cut: the local dimension 1 is read off the
    # local leading ideal, so mu = 2 against codim 1 is a definite False
    session = tmp_path / "allateral.session"
    session.write_text(NON_CI_SESSION + "point P = (0:0:1)\n")
    proc = run_cli(str(session), "lci", "I", "P", "--json")
    assert proc.returncode == 1, proc.stderr
    report = json.loads(proc.stdout)["result"]
    assert (report["mu"], report["codim"], report["lci"], report["gorenstein"]) == (2, 1, False, None)
    assert "inconclusive" in report["note"]


def test_gorenstein_at_a_smooth_conic_point_does_not_depend_on_the_seed(tmp_path):
    # the length is the multiplicity 1 at every seed, also at seed 8, whose
    # first form drawn is the tangent line
    session = tmp_path / "conic.session"
    session.write_text(
        "ring F31[x,y,u] order grevlex\n"
        "ideal C = 3*x^2 + 17*x*y + 2*y^2 + 23*x*u + 24*y*u + 6*u^2\n"
        "point P = (0:2:1)\n"
    )
    documents = []
    for seed in (0, 1, 2, 3, 8):
        proc = run_cli(session, "gorenstein", "C", "P", "--seed", seed, "--json")
        assert proc.returncode == 0, proc.stderr
        documents.append(json.loads(proc.stdout))
        assert documents[-1].pop("seed") == seed
    assert documents[0]["result"] == {"gorenstein": True, "length": 1, "socle_dim": 1}
    assert all(document == documents[0] for document in documents)


def test_gorenstein_of_complete_intersection_is_definite(tmp_path):
    # the hypersurface x*y*(x + y)*(x + 2y) over F3 admits no certified
    # slice, but a complete intersection needs none: type 1, length deg 4
    session = tmp_path / "hypersurface.session"
    session.write_text(
        "ring F3[x,y,z] order grevlex\n"
        "ideal H = x^3*y - x*y^3\n"
        "point P = (0:0:1)\n"
    )
    proc = run_cli(str(session), "gorenstein", "H", "P", "--json")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)["result"]
    assert (result["length"], result["socle_dim"], result["gorenstein"]) == (4, 1, True)


def test_lci_of_complete_intersection_agrees_with_gorenstein(tmp_path):
    # the same hypersurface: lci reads its chart ideal as a complete
    # intersection too, so both commands give Gorenstein True
    session = tmp_path / "hypersurface.session"
    session.write_text(
        "ring F3[x,y,z] order grevlex\n"
        "ideal H = x^3*y - x*y^3\n"
        "point P = (0:0:1)\n"
    )
    proc = run_cli(str(session), "lci", "H", "P", "--json")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)["result"]
    assert (result["mu"], result["codim"], result["lci"]) == (1, 1, True)
    assert (result["length"], result["socle_dim"], result["gorenstein"]) == (4, 1, True)


def _int_refusal(text):
    """The interpreter's message refusing int(text), or None."""
    try:
        int(text)
    except ValueError as exc:
        return str(exc)


# one digit more than the interpreter reads into an int; where it has no
# such limit, the row that needs one is skipped
LONG_LITERAL = "7" * (INT_DIGITS + 1)
LONG_LITERAL_REFUSAL = _int_refusal(LONG_LITERAL)

# One CLI run per row: (session, its fixture or text; arguments; exit code;
# what the output holds: fields of the JSON result, the one error line on
# stderr, or None for the exit code alone)
CLI_CHECKS = {
    "lci-at-the-meeting-point": (FIXTURES / "double_lines.session", ["lci", "Y", "P"], 0, None),
    # a graded Artinian reduction with two cuts, which no golden covers
    "triple-with-two-cuts": (FIXTURES / "double_lines.session", ["verify-triple", "Y", "I1", "I2"], 0, None),
    # the local leading ideal sees only the point's germ: at a point of a
    # line beside a disjoint plane, lci
    "f31-line-beside-a-plane": (
        "ring F31[a,b,c,d,e] order grevlex\n"
        "ideal I = a*d, a*e, b*d, b*e, c*d, c*e\n"
        "point P = (0:0:0:0:1)\n",
        ["lci", "I", "P"], 0, None,
    ),
    # the verdicts of test_gorenstein_of_complete_intersection_is_definite
    # and test_lci_where_no_cut_is_zero_dimensional_exits_one in plain text
    "f3-hypersurface": (
        "ring F3[x,y,z] order grevlex\nideal H = x^3*y - x*y^3\npoint P = (0:0:1)\n",
        ["gorenstein", "H", "P"], 0, None,
    ),
    "f3-non-ci-lci": (NON_CI_SESSION + "point P = (0:0:1)\n", ["lci", "I", "P"], 1, None),
    # only a slice with a zero coefficient is a parameter on the cone over the
    # F3-points (0:0:1), (1:1:0), (1:2:0) (see
    # test_slices_over_f3_may_have_a_zero_coefficient): a definite False
    "f3-three-point-cone": (
        "ring F3[x,y,z,w] order grevlex\n"
        "ideal I = y*z, x*z, x^2 + 2*y^2\n"
        "point P = (0:0:0:1)\n",
        ["gorenstein", "I", "P", "--json"], 1, {"gorenstein": False, "length": 3, "socle_dim": 2},
    ),
    # one level past MAX_PAREN_DEPTH is a parse error, not an internal failure
    "101-parentheses": (
        "ring Q[x,y]\nideal I = " + "(" * 101 + "x" + ")" * 101 + "\n",
        ["gb", "I"], 2, "line 2 col 111: parentheses nested deeper than 100 levels",
    ),
    # a wrong second beside two complete intersections: det C is not in it
    "wrong-second": (
        "ring Q[x1,x2]\n"
        "ideal B = x1^2 + x1*x2, x2^2\n"
        "ideal A1 = x1, x2^2\n"
        "ideal A2 = x1 - x2, x2^2\n",
        ["verify-triple", "B", "A1", "A2", "--json"], 1, {"colon_first": False},
    ),
    # second holds det C, contains base, has codimension 2 and the h-vector
    # linkage predicts, yet base = z*(x, y) has codimension 1: base's Hilbert
    # data come from its basis, and the triple is refused
    "codim-one-base": (
        "ring Q[x,y,z] order grevlex\n"
        "ideal B = x*z, y*z\n"
        "ideal A1 = x, y\n"
        "ideal A2 = z^2, x*z, y*z, x^3 + y^3\n",
        ["verify-triple", "B", "A1", "A2"], 2, "dimension mismatch between the three ideals: (2, 1, 1)",
    ),
    # (x, y, z) contains (x^2, y^2), but its quotient has the smaller
    # dimension: link refuses the pair
    "link-of-unequal-dimensions": (
        "ring Q[x,y,z,u] order grevlex\nideal B = x^2, y^2\nideal A = x, y, z\n",
        ["link", "B", "A"], 2, "link requires quotients of equal dimension",
    ),
    # a coefficient the interpreter refuses to read is a parse error at its
    # token, not an error with no position
    "coefficient-past-the-digit-limit": pytest.param(
        f"ring Q[x]\nideal I = {LONG_LITERAL}*x\n",
        ["gb", "I"], 2, f"line 2 col 11: {LONG_LITERAL_REFUSAL}",
        marks=pytest.mark.skipif(not INT_DIGITS, reason="this interpreter reads integers of any length"),
    ),
}


@pytest.mark.parametrize("session, argv, code, expected", CLI_CHECKS.values(), ids=CLI_CHECKS)
def test_cli_check(tmp_path, session, argv, code, expected):
    proc = run_cli(session_path(tmp_path, session), *argv)
    assert proc.returncode == code, proc.stderr
    if isinstance(expected, dict):
        result = json.loads(proc.stdout)["result"]
        assert {key: result[key] for key in expected} == expected
    elif expected is not None:
        assert proc.stderr == f"error: {expected}\n"


def _read_digits(digits):
    """The integer a decimal string denotes, read 1000 digits at a time, so
    that no conversion meets the interpreter's limit."""
    value = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i : i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def test_coefficients_past_the_digit_limit_are_printed(tmp_path):
    # 2^15000 has 4516 digits, past the interpreter's default limit on
    # int-to-str conversion (4300), yet within the parser's power bound; the
    # basis prints it exact
    session = session_path(tmp_path, "ring Q[x,y]\nideal I = 2^15000*x + y\n")
    proc = run_cli(session, "gb", "I", "--json")
    assert proc.returncode == 0, proc.stderr
    (generator,) = json.loads(proc.stdout)["result"]["generators"]
    head, digits, tail = generator[:6], generator[6:-2], generator[-2:]
    assert (head, tail) == ("x + 1/", "*y") and digits.isdigit()
    assert _read_digits(digits) == 2**15000


def test_verify_triple_failed_exact_check_exits_one(tmp_path):
    # the slice budget runs out on B, but colon symmetry and degree
    # additivity have already failed: a false verdict, not an inconclusive one
    session = tmp_path / "allateral.session"
    session.write_text(NON_CI_SESSION.replace("ideal I", "ideal B") + "ideal A = x\n")
    proc = run_cli(str(session), "verify-triple", "B", "A", "A")
    assert "colon symmetry: False" in proc.stdout
    assert "gorenstein at the cone origin: None" in proc.stdout
    assert "passed: False" in proc.stdout
    assert proc.returncode == 1


# two planes (a, b) cap (c, d) of P^4 meeting in the point P
PLANES_SESSION = (
    "ring Q[a,b,c,d,e] order grevlex\n"
    "ideal B = a*c, a*d, b*c, b*d\n"
    "ideal A1 = a, b\n"
    "ideal A2 = c, d\n"
    "point P = (0:0:0:0:1)\n"
)


def test_refuted_cohen_macaulayness_exits_one(tmp_path):
    # the two planes of PLANES_SESSION are not Cohen-Macaulay at P (a
    # failed length check): gorenstein and lci give a false verdict, and so
    # does verify-triple, whose exact checks all pass on them
    session = tmp_path / "planes.session"
    session.write_text(PLANES_SESSION)
    proc = run_cli(str(session), "gorenstein", "B", "P", "--json")
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout)["result"]
    assert (result["length"], result["socle_dim"], result["gorenstein"]) == (None, None, False)
    # the text says why the refuted verdict has no length, as lci's note does
    proc = run_cli(str(session), "gorenstein", "B", "P")
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == (
        "point (0:0:0:0:1): length = None, socle_dim = None, gorenstein = False; "
        "not Cohen-Macaulay: the length check of the Artinian reduction failed\n"
    )
    proc = run_cli(str(session), "lci", "B", "P", "--json")
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout)["result"]
    assert (result["mu"], result["codim"], result["lci"], result["gorenstein"]) == (4, 2, False, False)
    proc = run_cli(str(session), "verify-triple", "B", "A1", "A2")
    assert "colon symmetry: True" in proc.stdout and "additive=True" in proc.stdout
    assert "gorenstein at the cone origin: False" in proc.stdout
    assert proc.returncode == 1, proc.stderr


FOSSUM_CONE_SESSION = "ring Q[x1,x2,t] order grevlex\nideal B = x1^2 + x1*x2, x2^2\npoint P = (0:0:1)\n"


@pytest.mark.parametrize(
    "session, name, point, expected, code",
    [
        # decided: the Fossum base, whose chart at P is the Fossum ideal itself
        (FOSSUM_CONE_SESSION, "B", "P", (4, 1, True), 0),
        # decided with a reduction: the double line I1 is not a complete
        # intersection, and at the smooth point S of its support it is
        # Cohen-Macaulay of multiplicity 2
        (FIXTURES / "double_lines.session", "I1", "S", (2, 1, True), 0),
        # refuted: a failed length check
        (PLANES_SESSION, "B", "P", (None, None, False), 1),
        # inconclusive: the slice budget is spent
        (NON_CI_SESSION + "point P = (0:0:1)\n", "I", "P", (None, None, None), 3),
    ],
    ids=["decided", "decided-by-reduction", "refuted", "inconclusive"],
)
def test_local_gorenstein_has_one_shape_in_every_outcome(tmp_path, session, name, point, expected, code):
    # every outcome is one GorensteinInvariants, never a bare None, and the
    # gorenstein command prints it under the same three keys; lci at the
    # same point reports the same invariants
    from liaison.localrings import (
        GorensteinInvariants,
        local_ci_test,
        local_gorenstein,
        translate_to_origin,
    )
    from liaison.sessions import parse_session

    path = session_path(tmp_path, session)
    parsed = parse_session(path.read_text())
    I, P = parsed.ideals[name], parsed.points[point]
    invariants = local_gorenstein(translate_to_origin(I, P))
    assert isinstance(invariants, GorensteinInvariants)
    assert invariants == expected
    report = local_ci_test(I, P)
    assert (report.length, report.socle_dim, report.gorenstein) == expected
    proc = run_cli(str(path), "gorenstein", name, point, "--json")
    assert proc.returncode == code, proc.stderr
    result = json.loads(proc.stdout)["result"]
    assert set(result) == {"gorenstein", "length", "socle_dim"}
    assert result == invariants._asdict()


def test_verify_triple_exhausted_budget_exits_three(monkeypatch, capsys, tmp_path):
    from liaison import cli, localrings

    # a Gorenstein base that is not a complete intersection, so its verdict
    # needs a slice; with no draws allowed it is inconclusive
    session = tmp_path / "gorenstein_points.session"
    session.write_text(
        "ring Q[x,y,z,u] order grevlex\n"
        "ideal B = x*y, x*z, y*z, x^2 - y^2, x^2 - z^2\n"
        "ideal A1 = x, y, z^2\n"
        "ideal A2 = z, y^2, x*y, x^2\n"
    )
    monkeypatch.setattr(localrings, "SLICE_BUDGET", 0)
    code = cli.main([str(session), "verify-triple", "B", "A1", "A2"])
    out = capsys.readouterr().out
    assert "colon symmetry: True" in out and "additive=True" in out
    assert "gorenstein at the cone origin: None" in out
    assert "passed: None" in out
    assert code == cli.EXIT_INCONCLUSIVE
    code = cli.main([str(session), "verify-triple", "B", "A1", "A2", "--json"])
    result = json.loads(capsys.readouterr().out)["result"]
    assert (result["gorenstein_ok"], result["passed"]) == (None, None)
    assert code == cli.EXIT_INCONCLUSIVE


def test_gorenstein_contradiction_exits_two_not_a_verdict(monkeypatch, capsys, tmp_path):
    from liaison import cli, linkage

    session = tmp_path / "fat_point.session"
    session.write_text("ring Q[x,y] order grevlex\nideal B = x^2, x*y, y^2\nideal A = x, y\n")
    monkeypatch.setattr(linkage, "local_gorenstein", lambda I, seed=0: (3, 1, True))
    code = cli.main([str(session), "verify-triple", "B", "A", "A", "--json"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_ERROR
    assert captured.out == ""
    assert "internal failure in verify-triple" in captured.err and "h-vector" in captured.err


def test_timings_flag_included_only_on_request():
    proc = run_cli(str(FIXTURES / "fossum.session"), "gb", "B", "--json", "--timings")
    doc = json.loads(proc.stdout)
    assert doc["timings"] is not None and "seconds" in doc["timings"]
