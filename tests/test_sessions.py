import sys
import time

import pytest

from liaison import Ideal, ParseError, ideal_equal, make_ring, parse_polynomial, parse_session
from liaison.sessions import MAX_PAREN_DEPTH, MAX_POWER_BITS, MAX_POWER_TERMS

FOSSUM = """\
# comment line
ring Q[x1,x2] order grevlex
ideal B = x1^2 + x1*x2, x2^2
ideal A1 = x1, x2^2   # trailing comment
"""


def test_parse_basic_session():
    s = parse_session(FOSSUM)
    assert s.ring.variables == ("x1", "x2")
    x1, x2 = s.ring.gens()
    assert ideal_equal(s.ideals["B"], Ideal(s.ring, [x1**2 + x1 * x2, x2**2]))
    assert ideal_equal(s.ideals["A1"], Ideal(s.ring, [x1, x2**2]))


def test_parse_prime_field_and_orders():
    s = parse_session("ring F31[x,y] order lex\nideal I = 32*x + y\n")
    assert s.ring.field.characteristic == 31
    x, y = s.ring.gens()
    assert ideal_equal(s.ideals["I"], Ideal(s.ring, [x + y]))
    s2 = parse_session("ring Q[t,x,y] order block(1)\n")
    assert s2.ring.order.kind == "block"


def test_parse_four_generator_ideal():
    s = parse_session("ring Q[x,y,z,u] order grevlex\nideal I1 = z*x+u*y, x^2, x*y, y^2\n")
    assert len(s.ideals["I1"].gens) == 4


def test_parse_dline_and_point():
    text = (
        "ring Q[x,y,z,u] order grevlex\n"
        "dline L1 support x,y pair (z, u)\n"
        "point P = (0:0:0:1)\n"
    )
    s = parse_session(text)
    L = s.dlines["L1"]
    assert L.support == (0, 1)
    assert s.points["P"].chart == 3


def test_dline_and_point_reject_trailing_input():
    for line, junk, col in (
        ("dline L support x,y pair (z, u) extra", "extra", 33),
        ("point P = (0:0:0:1) junk", "junk", 21),
    ):
        with pytest.raises(ParseError, match=f"trailing input '{junk}'") as info:
            parse_session("ring Q[x,y,z,u] order grevlex\n" + line + "\n")
        assert (info.value.line, info.value.col) == (2, col)


def test_parse_rational_coefficients():
    s = parse_session("ring Q[x] order lex\nideal I = 1/2*x + 3\n")
    from fractions import Fraction

    (g,) = s.ideals["I"].gens
    assert g.coefficient((1,)) == Fraction(1, 2)



def test_denominator_zero_modulo_p_rejected_at_its_token():
    with pytest.raises(ParseError, match="denominator 3 is zero in F3") as info:
        parse_session("ring F3[x,y] order grevlex\nideal I = 1/3*x, y\n")
    assert (info.value.line, info.value.col) == (2, 13)
    with pytest.raises(ParseError, match="denominator 6 is zero in F3"):
        parse_session("ring F3[x,y] order grevlex\npoint P = (1/6:1)\n")
    with pytest.raises(ParseError, match="denominator 0 is zero in Q"):
        parse_session("ring Q[x] order lex\nideal I = 1/0*x\n")
    s = parse_session("ring F3[x,y] order grevlex\nideal I = 1/2*x\n")
    assert s.ideals["I"].gens[0].coefficient((1, 0)) == 2

def test_syntax_error_position():
    with pytest.raises(ParseError) as info:
        parse_session("ring Q[x] order lex\nideal I = x +\n")
    assert info.value.line == 2
    assert "expected" in str(info.value)


def test_unknown_variable_reported():
    with pytest.raises(ParseError, match="unknown variable"):
        parse_session("ring Q[x] order lex\nideal I = y\n")


def test_duplicate_name_rejected():
    with pytest.raises(ParseError, match="already defined"):
        parse_session("ring Q[x] order lex\nideal I = x\nideal I = x^2\n")


def test_single_ring_per_file():
    with pytest.raises(ParseError, match="single ring"):
        parse_session("ring Q[x] order lex\nring Q[y] order lex\n")


def test_ring_must_come_first():
    with pytest.raises(ParseError, match="ring must be declared first"):
        parse_session("ideal I = x\n")


def test_characteristic_two_rejected_in_session():
    with pytest.raises(ParseError, match="characteristic 2"):
        parse_session("ring F2[x,y,z,u] order grevlex\n")


def test_point_coordinate_count_checked():
    with pytest.raises(ParseError, match="coordinates"):
        parse_session("ring Q[x,y] order lex\npoint P = (1:2:3)\n")


def test_unexpected_character():
    with pytest.raises(ParseError, match="unexpected character"):
        parse_session("ring Q[x] order lex\nideal I = x @ y\n")


def test_parse_polynomial_round_trip():
    R = make_ring(["x", "y", "z"], "Q", "grevlex")
    f = parse_polynomial("(x + y)^2 - 2*z + 1/3", R)
    assert str(f) == "x^2 + 2*x*y + y^2 - 2*z + 1/3"
    assert parse_polynomial(str(f), R) == f


def test_parse_polynomial_rejects_trailing():
    R = make_ring(["x"], "Q")
    with pytest.raises(ParseError, match="trailing"):
        parse_polynomial("x x", R)


def test_power_too_large_to_expand_is_refused_at_the_exponent():
    text = "ring Q[x,y,z] order grevlex\nideal I = (x+y+z)^200\n"
    start = time.perf_counter()
    with pytest.raises(ParseError, match="power may expand to 20301 terms") as info:
        parse_session(text)
    assert time.perf_counter() - start < 1.0
    assert (info.value.line, info.value.col) == (2, 19)


def test_powers_within_the_term_bound_expand():
    R = make_ring(["x", "y", "z"], "Q", "grevlex")
    assert parse_polynomial("x^100", R) == R.variable("x") ** 100
    # C(45, 2) = 990 terms, just under the bound; one more factor is over it
    assert len(parse_polynomial("(x+y+z)^43", R).terms) == 990 <= MAX_POWER_TERMS
    with pytest.raises(ParseError, match="1035 terms"):
        parse_polynomial("(x+y+z)^44", R)
    assert len(parse_polynomial("(x+1)^100", R).terms) == 101
    assert parse_polynomial("0^5", R).is_zero()


def test_power_with_too_many_coefficient_bits_is_refused_at_the_exponent():
    # single-term bases pass the term bound at once; over Q their
    # coefficients still grow with the exponent
    R = make_ring(["x", "y", "z"], "Q", "grevlex")
    start = time.perf_counter()
    for text, col in (("2^1000000000", 3), ("(3*x)^99999999999", 7), ("(x^2+y*z)^999", 11)):
        with pytest.raises(ParseError, match="coefficient bits, more than") as info:
            parse_polynomial(text, R)
        assert info.value.col == col
    assert time.perf_counter() - start < 1.0
    assert parse_polynomial("x^1000000", R) == R.variable("x") ** 1000000
    assert parse_polynomial("2^200000", R).leading_coefficient() == 2**200000 <= 2**MAX_POWER_BITS
    assert len(parse_polynomial("(x+2*y+3*z)^43", R).terms) == 990


def test_prime_field_powers_have_no_coefficient_bound():
    F = make_ring(["x"], "F31", "grevlex")
    p = parse_polynomial("(3*x)^99999999999", F)
    assert p.leading_coefficient() == pow(3, 99999999999, 31)


def _nested(depth):
    return "(" * depth + "x" + ")" * depth


def test_parentheses_nest_up_to_the_depth_bound():
    assert MAX_PAREN_DEPTH == 100
    session = parse_session("ring Q[x,y]\nideal I = " + _nested(100) + ", y\n")
    R = session.ring
    assert session.ideals["I"].gens == (R.variable("x"), R.variable("y"))
    assert parse_polynomial(_nested(100), R) == R.variable("x")
    assert parse_polynomial("(" * 100 + "x + 1)^2" + ")" * 99, R) == (R.variable("x") + 1) ** 2


def test_parentheses_past_the_depth_bound_fail_at_the_crossing_paren():
    prefix = "ideal I = y, "
    for depth in (101, 400, 3000):
        with pytest.raises(ParseError, match="nested deeper than 100 levels") as info:
            parse_session("ring Q[x,y]\n" + prefix + _nested(depth) + "\n")
        assert (info.value.line, info.value.col) == (2, len(prefix) + 101)
    R = make_ring(["x", "y"], "Q", "grevlex")
    with pytest.raises(ParseError, match="nested deeper") as info:
        parse_polynomial("y*" + _nested(101), R)
    assert (info.value.line, info.value.col) == (1, 103)
    # the depth is that of the open parentheses, not their count on a line
    assert parse_polynomial("+".join([_nested(100)] * 3), R) == R.variable("x").scale(3)


def test_long_runs_of_unary_signs_parse_by_their_parity():
    R = make_ring(["x", "y"], "Q", "grevlex")
    x, y = R.gens()
    assert parse_polynomial("-" * 1200 + "x", R) == x
    assert parse_polynomial("-" * 1201 + "x", R) == -x
    assert parse_polynomial("y - " + "+-" * 600 + "x^2", R) == y - x**2
    session = parse_session("ring Q[x,y]\nideal I = " + "-" * 1200 + "x, " + "-" * 1199 + "y\n")
    assert session.ideals["I"].gens == (x, -y)
    # a sign binds looser than a power: -x^2 is -(x^2)
    assert parse_polynomial("---x^2", R) == -(x**2)


def test_modulus_past_the_prime_bound_is_refused_at_the_field_token():
    start = time.perf_counter()
    with pytest.raises(ParseError, match="not below the bound 2\\^31") as info:
        parse_session("ring F2305843009213693951[x,y]\nideal I = x\n")
    assert time.perf_counter() - start < 1.0
    assert (info.value.line, info.value.col) == (1, 6)
    assert parse_session("ring F2147483647[x,y]\n").ring.field.p == 2**31 - 1


@pytest.mark.parametrize(
    "text, message, line, col",
    [
        ("ring Q[x,y] order foo\n", "unknown order 'foo'", 1, 19),
        ("ring Q[x,y,z,u]\ndline L support w,y pair (z, u)\n", "unknown variable 'w'", 2, 17),
        ("ring Q[x,y,z,u]\ndline L support x,w pair (z, u)\n", "unknown variable 'w'", 2, 19),
        ("ring Q[x,x]\n", "duplicate variable name 'x'", 1, 10),
        ("ring Q[x,y] order block(2)\n", "block size must satisfy 1 <= k < number of variables", 1, 25),
        ("ring Q[x,y,z,u]\npoint P = (0:0:0:0)\n", "projective point needs a nonzero coordinate", 2, 1),
        ("ring Q[x,y]\nfoo X = 1\n", "unknown declaration 'foo' (expected ring, ideal, dline, or point)", 2, 1),
        ("", "empty session: no ring declared", 1, 1),
        ("# only a comment\n\n   # another\n", "empty session: no ring declared", 1, 1),
        ("ring Q[x,y]\nideal I x\n", "expected '=', found 'x'", 2, 9),
        ("ring Q[x,y]\npoint P = (1:2:3)\n", "wrong number of coordinates: 3 for 2 variables", 2, 1),
    ],
)
def test_session_errors_name_their_position(text, message, line, col):
    with pytest.raises(ParseError) as info:
        parse_session(text)
    assert str(info.value) == f"line {line} col {col}: {message}"
    assert (info.value.line, info.value.col) == (line, col)


def test_signed_point_coordinates_are_read_in_the_field():
    session = parse_session("ring F31[x,y,z,u]\npoint P = (-1:0:0:1)\npoint Q = (30:0:0:1)\n")
    assert session.points["P"] == session.points["Q"]
    assert session.points["P"].coordinates == (30, 0, 0, 1)


# the most digits the interpreter reads into an int (CPython 3.10.7 and
# later); 0 where it has no such limit
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not INT_DIGITS, reason="this interpreter reads integers of any length")
def test_integer_literals_past_the_digit_limit_fail_at_their_token():
    # a literal one digit longer than the interpreter reads is refused by
    # int(); the refusal is a parse error at that literal, wherever it is
    digits = "7" * (INT_DIGITS + 1)
    with pytest.raises(ValueError) as refusal:
        int(digits)
    for text, line, col in (
        (f"ring Q[x]\nideal I = {digits}*x\n", 2, 11),  # a coefficient
        (f"ring Q[x]\nideal I = 1/{digits}*x\n", 2, 13),  # a denominator
        (f"ring Q[x]\nideal I = x^{digits}\n", 2, 13),  # an exponent
        (f"ring Q[x,y]\npoint P = (1:{digits})\n", 2, 14),  # a point coordinate
        (f"ring Q[x,y] order block({digits})\n", 1, 25),  # a block size
    ):
        with pytest.raises(ParseError) as info:
            parse_session(text)
        assert str(info.value) == f"line {line} col {col}: {refusal.value}"
        assert (info.value.line, info.value.col) == (line, col)
