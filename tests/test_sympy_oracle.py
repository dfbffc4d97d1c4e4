"""Reduced Groebner bases and colon ideals checked against an independent
engine, sympy.

Both sides' bases are made monic and compared as sets, so the check pins
the basis itself, including the monomial order, which comes from the ring
alone.  sympy's colon generators are compared as an ideal, through the
reduced basis they generate here.  sympy prints residues mod p
symmetrically; they are reduced to least non-negative residues before the
comparison.
"""

import random
from fractions import Fraction

import pytest

from liaison import (
    Ideal,
    Polynomial,
    buchberger,
    ideal_colon,
    ideal_equal,
    ideal_intersect,
    ideal_product,
    ideal_sum,
    make_ring,
)
from liaison.generators import random_form_dense

sympy = pytest.importorskip("sympy")

P = 31


def _family(ring, seed, homogeneous):
    """Three dense forms of degree 1 or 2; inhomogeneous ones get a dense
    form of one degree less added."""
    rng = random.Random(seed)
    gens = []
    for _ in range(3):
        degree = rng.choice([1, 2, 2])
        f = random_form_dense(ring, degree, rng)
        if not homogeneous:
            f = f + random_form_dense(ring, degree - 1, rng, allow_zero=True)
        gens.append(f)
    return gens


def _to_sympy(f, symbols):
    terms = []
    for e, c in f.terms.items():
        coeff = sympy.Rational(c.numerator, c.denominator) if isinstance(c, Fraction) else c
        terms.append(coeff * sympy.Mul(*[s**k for s, k in zip(symbols, e)]))
    return sympy.Add(*terms)


def _from_sympy(poly, ring):
    if ring.field.characteristic:
        terms = {e: int(c) % P for e, c in poly.terms()}
    else:
        terms = {e: Fraction(int(c.p), int(c.q)) for e, c in poly.terms()}
    return Polynomial.from_dict(ring, terms).monic()


@pytest.mark.parametrize("order", ["lex", "grevlex"])
@pytest.mark.parametrize("field", ["Q", f"F{P}"])
def test_reduced_basis_matches_sympy(field, order):
    ring = make_ring(["x", "y", "z"], field, order)
    symbols = sympy.symbols("x y z")
    domain = {"modulus": P} if ring.field.characteristic else {"domain": "QQ"}
    for seed in range(10):
        for homogeneous in (True, False):
            gens = _family(ring, seed, homogeneous)
            ours = buchberger(gens).elements
            theirs = sympy.groebner(
                [_to_sympy(g, symbols) for g in gens], *symbols, order=order, **domain
            )
            theirs = [_from_sympy(g, ring) for g in theirs.polys]
            assert len(ours) == len(theirs), (field, order, seed, homogeneous)
            assert set(ours) == set(theirs), (field, order, seed, homogeneous)


def _colon_case(ring, seed):
    """I = A cap B or A*B for two ideals A, B of two forms each, and J = A,
    every other time after a linear form, so that most colons are neither I
    nor the unit ideal and some differ from the colon by J's last generator."""
    rng = random.Random(seed)
    A, B = (Ideal(ring, [random_form_dense(ring, rng.choice([1, 2]), rng) for _ in range(2)])
            for _ in range(2))
    I = ideal_intersect(A, B) if seed % 2 else ideal_product(A, B)
    J = ideal_sum(Ideal(ring, [random_form_dense(ring, 1, rng)]), A) if seed % 4 >= 2 else A
    return I, J


@pytest.mark.parametrize("field", ["Q", f"F{P}"])
def test_colon_matches_sympy(field):
    ring = make_ring(["x", "y", "z"], field, "grevlex")
    symbols = sympy.symbols("x y z")
    domain = sympy.GF(P) if ring.field.characteristic else sympy.QQ
    theirs_ring = domain.old_poly_ring(*symbols)
    for seed in range(8):
        I, J = _colon_case(ring, seed)
        theirs = theirs_ring.ideal(*[_to_sympy(g, symbols) for g in I.gens]).quotient(
            theirs_ring.ideal(*[_to_sympy(g, symbols) for g in J.gens])
        )
        gens = [
            _from_sympy(sympy.Poly(theirs_ring.to_sympy(g), *symbols, domain=domain), ring)
            for g in theirs.gens
        ]
        assert ideal_equal(ideal_colon(I, J), Ideal(ring, gens)), (field, seed)
