"""Ideal-level algebra: sum, product, intersection, colon, saturation,
elimination, equality, and Hilbert data (dimension and degree).

Intersections use the t-trick (eliminate t from t*I + (1-t)*J); colon ideals
reduce to intersections via (I : f) = (1/f)*(I cap (f)); saturation is the
stabilized iterated colon.  Dimension and degree come from the Hilbert
series of the leading-term ideal.
"""

from dataclasses import dataclass

from .groebner import GroebnerBasis, buchberger, normal_form
from .polynomials import (
    Polynomial,
    mono_div,
    mono_divides,
    mono_gcd,
    substitute,
)
from .rings import MonomialOrder, make_ring


class Ideal:
    """An ideal given by generators, caching one Groebner basis: the
    reduced basis for its ring's order.

    The cache is write-once: concurrent readers may duplicate the
    computation but always observe the same canonical reduced basis.
    """

    __slots__ = ("ring", "gens", "_gb")

    def __init__(self, ring, gens):
        gens = tuple(g for g in gens if not g.is_zero())
        for g in gens:
            if g.ring != ring:
                raise ValueError("generator from a different ring context")
        self.ring = ring
        self.gens = gens
        self._gb = None

    @classmethod
    def zero(cls, ring):
        return cls(ring, [])

    def groebner(self):
        if self._gb is None:
            if not self.gens:
                self._gb = GroebnerBasis(self.ring, [])
            else:
                self._gb = buchberger(list(self.gens))
        return self._gb

    def contains(self, f):
        if f.is_zero():
            return True
        return normal_form(f, self.groebner()).is_zero()

    def contains_ideal(self, other):
        return all(self.contains(g) for g in other.gens)

    def is_zero(self):
        return not self.groebner().elements

    def is_unit(self):
        return self.groebner().is_unit_ideal()

    def is_homogeneous(self):
        return all(g.is_homogeneous() for g in self.gens)

    def __repr__(self):
        return "Ideal(" + ", ".join(str(g) for g in self.gens) + ")"


def ideal_sum(I, J):
    _check_same_ring(I, J)
    return Ideal(I.ring, list(I.gens) + list(J.gens))


def ideal_product(I, J):
    _check_same_ring(I, J)
    return Ideal(I.ring, [f * g for f in I.gens for g in J.gens])


def ideal_equal(I, J):
    """Equality of ideals: identical reduced Groebner bases for the ring's order."""
    _check_same_ring(I, J)
    return I.groebner().elements == J.groebner().elements


def _check_same_ring(I, J):
    if I.ring != J.ring:
        raise ValueError("ideals live in different ring contexts")


def _fresh_name(taken, stem):
    if stem not in taken:
        return stem
    k = 0
    while f"{stem}{k}" in taken:
        k += 1
    return f"{stem}{k}"


def map_to_ring(f, target):
    """Move f into another ring (same field) holding its variables by name."""
    assignment = {name: Polynomial.variable(target, name) for name in f.ring.variables}
    return substitute(f, assignment, ring=target)


def ideal_intersect(I, J):
    """I cap J via elimination: eliminate t from t*I + (1-t)*J."""
    _check_same_ring(I, J)
    ring = I.ring
    if not I.gens:
        return Ideal(ring, [])
    if not J.gens:
        return Ideal(ring, [])
    tname = _fresh_name(set(ring.variables), "t")
    ext = make_ring([tname] + list(ring.variables), ring.field, MonomialOrder("block", 1))
    t = Polynomial.variable(ext, tname)
    one = Polynomial.constant(ext, 1)
    gens = [t * map_to_ring(f, ext) for f in I.gens]
    gens += [(one - t) * map_to_ring(g, ext) for g in J.gens]
    gb = buchberger(gens)
    kept = [g for g in gb.elements if all(e[0] == 0 for e in g.terms)]
    back = {tname: Polynomial.zero(ring)}
    for name in ring.variables:
        back[name] = Polynomial.variable(ring, name)
    return Ideal(ring, [substitute(g, back, ring=ring) for g in kept])


def exact_divide(g, f):
    """Quotient g / f when f divides g exactly; raises otherwise."""
    if f.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    ring = g.ring
    field = ring.field
    lm, lc = f.leading_term()
    quotient = Polynomial.zero(ring)
    rem = g
    while not rem.is_zero():
        e, c = rem.leading_term()
        if not mono_divides(lm, e):
            raise ValueError("exact division has a nonzero remainder")
        q = Polynomial.monomial(ring, mono_div(e, lm), field.div(c, lc))
        quotient = quotient + q
        rem = rem - q * f
    return quotient


def colon_by_poly(I, f):
    """(I : f) = (1/f) * (I cap (f)) for a single nonzero polynomial f."""
    if f.is_zero():
        raise ValueError("colon by the zero polynomial")
    W = ideal_intersect(I, Ideal(I.ring, [f]))
    return Ideal(I.ring, [exact_divide(g, f) for g in W.gens])


def ideal_colon(I, J):
    """(I : J) = {f : f*J inside I}, the intersection of (I : g) over gens of J."""
    _check_same_ring(I, J)
    gens = [g for g in J.gens if not g.is_zero()]
    if not gens:
        raise ValueError("colon by the zero ideal")
    result = None
    for g in gens:
        piece = colon_by_poly(I, g)
        result = piece if result is None else ideal_intersect(result, piece)
    return Ideal(I.ring, result.groebner().elements)


def saturate(I, J):
    """(I : J^infinity): iterate the colon until it stabilizes."""
    current = I
    while True:
        nxt = ideal_colon(current, J)
        if ideal_equal(nxt, current):
            return current
        current = nxt


def eliminate(I, names):
    """Generators of I cap k[remaining variables].

    Builds a ring with the eliminated variables moved in front under a block
    order, takes the Groebner basis, and keeps the elements free of them.
    """
    names = list(names)
    ring = I.ring
    for name in names:
        ring.index(name)
    if not names:
        return I
    remaining = [v for v in ring.variables if v not in names]
    if not remaining:
        gb = I.groebner()
        if gb.is_unit_ideal():
            return Ideal(ring, [Polynomial.constant(ring, 1)])
        return Ideal(ring, [])
    perm = make_ring(names + remaining, ring.field, MonomialOrder("block", len(names)))
    moved = [map_to_ring(g, perm) for g in I.gens]
    if not moved:
        return Ideal(ring, [])
    gb = buchberger(moved)
    killed = set(range(len(names)))
    kept = [g for g in gb.elements if all(all(e[i] == 0 for i in killed) for e in g.terms)]
    return Ideal(ring, [map_to_ring(g, ring) for g in kept])


# -- leading-term combinatorics ----------------------------------------------


def minimal_monomial_generators(monomials):
    """Divisibility-minimal subset of a set of exponent tuples."""
    mons = sorted(set(monomials), key=lambda e: (sum(e), e))
    out = []
    for m in mons:
        if not any(mono_divides(g, m) for g in out):
            out.append(m)
    return out


def leading_term_ideal(gb):
    return minimal_monomial_generators(gb.leading_monomials())


def is_zero_dimensional(gb):
    """Whether the quotient by the ideal is a finite-dimensional vector space."""
    if gb.is_unit_ideal():
        return True
    if not gb.elements:
        return gb.ring.nvars == 0
    lts = leading_term_ideal(gb)
    n = gb.ring.nvars
    for i in range(n):
        if not any(sum(m) == m[i] and m[i] > 0 for m in lts):
            return False
    return True


def standard_monomials(gb):
    """All monomials outside the leading-term ideal; requires dimension zero."""
    if not is_zero_dimensional(gb):
        raise ValueError("standard monomial enumeration needs a zero-dimensional ideal")
    lts = leading_term_ideal(gb)
    n = gb.ring.nvars
    seen = set()
    frontier = [(0,) * n]
    out = []
    while frontier:
        m = frontier.pop()
        if m in seen:
            continue
        seen.add(m)
        if any(mono_divides(g, m) for g in lts):
            continue
        out.append(m)
        for i in range(n):
            nxt = list(m)
            nxt[i] += 1
            frontier.append(tuple(nxt))
    out.sort(key=lambda e: (sum(e), e))
    return out


# -- Hilbert series ----------------------------------------------------------


def _poly1_sub(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)]


def _poly1_shift(a, k):
    return [0] * k + list(a)


def _trim(a):
    while a and a[-1] == 0:
        a = a[:-1]
    return a


def _numerator(mingens):
    """Hilbert series numerator of R/(monomial ideal) over (1-t)^n.

    Recursion: N(I + (m)) = N(I) - t^deg(m) * N(I : m), with monomial colons
    computed directly.
    """
    if not mingens:
        return [1]
    if any(sum(m) == 0 for m in mingens):
        return []
    gens = sorted(mingens, key=lambda e: (sum(e), e))
    m = gens[-1]
    rest = gens[:-1]
    head = _numerator(rest)
    colon = minimal_monomial_generators([mono_div(g, mono_gcd(g, m)) for g in rest])
    tail = _numerator(colon)
    return _trim(_poly1_sub(head, _poly1_shift(tail, sum(m))))


def _divide_by_one_minus_t(coeffs):
    """Quotient by (1-t); valid when the value at t=1 is zero."""
    out = []
    acc = 0
    for c in coeffs:
        acc += c
        out.append(acc)
    if not out or out[-1] != 0:
        raise ArithmeticError("Hilbert numerator does not vanish at t=1; (1-t) does not divide it")
    return _trim(out[:-1]) or [0]


@dataclass(frozen=True)
class HilbertData:
    krull_dimension: int
    projective_dimension: int
    degree: int
    numerator: tuple

    def as_dict(self):
        return {
            "krull_dimension": self.krull_dimension,
            "projective_dimension": self.projective_dimension,
            "degree": self.degree,
            "numerator": list(self.numerator),
        }


def hilbert_data(I):
    """Krull dimension, degree, and Hilbert numerator of a homogeneous ideal.

    The Hilbert series of R/I is N(t)/(1-t)^n; writing N = (1-t)^c Q with
    Q(1) != 0 gives codimension c, affine (cone) dimension n - c, projective
    dimension n - c - 1, and degree Q(1).
    """
    if not I.is_homogeneous():
        raise ValueError("hilbert_data needs a homogeneous ideal")
    gb = I.groebner()
    n = I.ring.nvars
    mingens = leading_term_ideal(gb)
    numer = _numerator(mingens)
    numer = _trim(numer)
    if not numer:
        # unit ideal: empty scheme
        return HilbertData(-1, -2, 0, (0,))
    q = list(numer)
    codim = 0
    while sum(q) == 0:
        q = _divide_by_one_minus_t(q)
        codim += 1
    degree = sum(q)
    dim = n - codim
    return HilbertData(dim, dim - 1, degree, tuple(numer))
