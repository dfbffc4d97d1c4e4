import random

import pytest

from liaison import Polynomial, make_ring, parse_polynomial, substitute


def _random_poly(ring, rng, max_terms=4, max_exp=3):
    terms = {}
    pool = (
        list(range(-4, 5))
        if ring.field.characteristic == 0
        else list(range(ring.field.characteristic))
    )
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_exp) for _ in range(ring.nvars))
        terms[e] = rng.choice(pool)
    return Polynomial.from_dict(ring, terms)


def test_product_difference_of_squares():
    R = make_ring(["x", "y"], "Q", "grevlex")
    x, y = R.gens()
    assert (x + y) * (x - y) == x**2 - y**2


def test_sum_cancels():
    R = make_ring(["x", "y"], "Q", "grevlex")
    x, y = R.gens()
    assert (x**2 + x * y) + (-(x**2)) == x * y


def test_freshman_dream_mod_three():
    R = make_ring(["x"], "F3", "lex")
    x = R.variable("x")
    assert (x + 1) ** 3 == x**3 + 1


def test_mixed_rings_rejected():
    R1 = make_ring(["x", "y"], "Q")
    R2 = make_ring(["x", "z"], "Q")
    with pytest.raises(ValueError):
        R1.variable("x") + R2.variable("x")


def test_ring_axioms_randomized():
    rng = random.Random(7)
    for field in ("Q", "F31"):
        R = make_ring(["x", "y", "z"], field, "grevlex")
        for _ in range(40):
            a, b, c = (_random_poly(R, rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c


def test_leading_term_of_product():
    rng = random.Random(11)
    R = make_ring(["x", "y", "z"], "Q", "grevlex")
    checked = 0
    while checked < 25:
        a, b = _random_poly(R, rng), _random_poly(R, rng)
        if a.is_zero() or b.is_zero():
            continue
        prod = a * b
        lm = tuple(
            s + t for s, t in zip(a.leading_monomial(), b.leading_monomial())
        )
        assert prod.leading_monomial() == lm
        assert prod.leading_coefficient() == R.field.mul(
            a.leading_coefficient(), b.leading_coefficient()
        )
        checked += 1


def test_substitute_dehomogenize():
    R = make_ring(["x", "y", "z", "u"], "Q", "grevlex")
    x, y, z, u = R.gens()
    f = z * x + u * y
    result = substitute(f, {"x": x, "y": y, "z": z, "u": R.one()})
    assert result == z * x + y


def test_substitute_shift():
    R = make_ring(["x", "y"], "Q", "grevlex")
    x, y = R.gens()
    assert substitute(x**2, {"x": x + y, "y": y}) == x**2 + 2 * x * y + y**2


def test_substitute_identity_is_identity():
    rng = random.Random(3)
    R = make_ring(["x", "y", "z"], "Q", "grevlex")
    identity = {v: R.variable(v) for v in R.variables}
    for _ in range(20):
        f = _random_poly(R, rng)
        assert substitute(f, identity) == f


def test_substitute_linear_change_preserves_homogeneous_degree():
    rng = random.Random(5)
    R = make_ring(["x", "y", "z"], "Q", "grevlex")
    x, y, z = R.gens()
    # an invertible linear change of coordinates
    change = {"x": x + y, "y": y + z, "z": z}
    for d in (1, 2, 3):
        for _ in range(10):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                e = [0] * 3
                left = d
                for i in range(2):
                    k = rng.randint(0, left)
                    e[i] = k
                    left -= k
                e[2] = left
                terms[tuple(e)] = rng.randint(1, 5)
            f = Polynomial.from_dict(R, terms)
            g = substitute(f, change)
            assert g.is_homogeneous()
            assert g.total_degree() == d


def test_substitute_missing_variable_rejected():
    R = make_ring(["x", "y"], "Q")
    with pytest.raises(ValueError):
        substitute(R.variable("x"), {"x": R.variable("x")})


def test_evaluate():
    R = make_ring(["x", "y"], "F31", "grevlex")
    x, y = R.gens()
    f = x**2 + 2 * y
    assert f.evaluate([3, 5]) == (9 + 10) % 31


def test_print_parse_round_trip():
    rng = random.Random(13)
    for field in ("Q", "F31"):
        R = make_ring(["x", "y", "z"], field, "grevlex")
        for _ in range(40):
            f = _random_poly(R, rng)
            assert parse_polynomial(str(f), R) == f


def test_string_forms():
    from fractions import Fraction

    R = make_ring(["x", "y"], "Q", "grevlex")
    x, y = R.gens()
    assert str(x**2 - y) == "x^2 - y"
    assert str(Polynomial.zero(R)) == "0"
    assert str(-x) == "-x"
    assert str(x.scale(0)) == "0"
    assert str(x.scale(Fraction(-1, 2))) == "-1/2*x"
