"""Reduced Groebner bases checked against an independent engine, sympy.

Both sides are made monic and compared as sets, so the check pins the
basis itself, including the monomial order, which comes from the ring
alone.  sympy prints residues mod p symmetrically; they are reduced to
least non-negative residues before the comparison.
"""

import random
from fractions import Fraction

import pytest

from liaison import Polynomial, buchberger, make_ring
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
