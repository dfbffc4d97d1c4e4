"""Ideal-level algebra: sum, product, intersection, colon, saturation,
elimination, equality, local leading ideals, and Hilbert data.

Intersections use the t-trick (eliminate t from t*I + (1-t)*J), local
leading ideals a t-homogenization; a colon by (g_1..g_s) is one chain of s
intersections, K_i = (I cap g_i*K_(i-1)) / g_i, each quotient read off
groebner.divide by (g_i); saturation is the stabilized iterated colon.
Dimension and degree come from the Hilbert series of the leading-term
ideal, local ones from that of the local leading ideal.  Two forms whose
restrictions to the plane x3 = ... = xn = 0 share no zero on P^1 are a
regular sequence (affine dimension theorem, Hartshorne I.7.2; Bruns-Herzog,
Thm 2.1.2), and their Hilbert series is read off their degrees, with no
basis.
"""

from dataclasses import dataclass, field as dc_field

from .groebner import (
    GroebnerBasis, buchberger, divide, elimination_basis, normal_form, reduced_basis,
)
from .polynomials import (
    Polynomial, binary_forms_have_common_zero, mono_div, mono_divides, mono_gcd, mono_lcm,
)
from .reports import Report
from .rings import GREVLEX, MonomialOrder, make_ring


class Ideal:
    """An ideal given by generators, caching three computed facts once
    asked for: one Groebner basis (the reduced basis for its ring's order),
    its Hilbert data (see hilbert_data), and its local leading ideal and
    tangent cone at the origin (see local_leading_ideal).

    All three caches are write-once: concurrent readers may duplicate the
    computation but always observe the same canonical value.
    """

    __slots__ = ("ring", "gens", "_gb", "_hilbert", "_local")

    def __init__(self, ring, gens):
        gens = tuple(g for g in gens if not g.is_zero())
        for g in gens:
            if g.ring != ring:
                raise ValueError("generator from a different ring context")
        self.ring = ring
        self.gens = gens
        self._gb = None
        self._hilbert = None
        self._local = None

    @classmethod
    def zero(cls, ring):
        return cls(ring, [])

    @classmethod
    def from_groebner(cls, gb):
        """The ideal generated by a reduced Groebner basis, holding it as its
        cached basis."""
        ideal = cls(gb.ring, gb.elements)
        ideal._gb = gb
        return ideal

    def groebner(self):
        if self._gb is None:
            if not self.gens:
                self._gb = GroebnerBasis(self.ring, [])
            else:
                self._gb = buchberger(list(self.gens))
        return self._gb

    def contains(self, f):
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
    """Equality of ideals, by containment both ways, whatever bases either
    side holds.

    J's basis decides whether every generator of I lies in J; only then is
    I's basis computed to test J's generators, so a pair with I not inside
    J costs one basis.
    """
    _check_same_ring(I, J)
    return J.contains_ideal(I) and I.contains_ideal(J)


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
    if target.field != f.ring.field:
        raise ValueError("cannot move a polynomial to another coefficient field")
    slots = [target.index(name) for name in f.ring.variables]
    n = target.nvars
    terms = {}
    for e, c in f.terms.items():
        moved = [0] * n
        for i, a in zip(slots, e):
            moved[i] = a
        terms[tuple(moved)] = c
    return Polynomial(target, terms)


def ideal_intersect(I, J):
    """I cap J via elimination: eliminate t from t*I + (1-t)*J.

    t is a new first variable under block(1), so t*f has exponents (1,)+e
    and (1-t)*g has (0,)+e and (1,)+e.  For monomial generators m of I and
    m' of J, lcm(m, m') lies in I cap J: the divisibility-minimal ones are
    entered too, without t, which leaves the ideal unchanged.  The monomial
    part, every t*m, (1-t)*m' and minimal lcm(m, m'), is already a
    Groebner basis (Buchberger's criterion): two monomials (a t*m or an
    lcm) have S-polynomial 0, and so do two (1-t)*m', made monic as
    t*m' - m'; t*m and (1-t)*m' give lcm(m, m'), and (1-t)*m' and an lcm
    c give -lcm(m', c), each divisible by an lcm.  So it enters
    elimination_basis as the loop's basis, with no pairs among it, and
    only the t-lifts of the other generators make pairs.  Under grevlex
    the t-free part of the reduced block(1) basis, which elimination_basis
    returns, is the reduced grevlex basis of I cap J (elimination theorem),
    and the result holds it.
    """
    _check_same_ring(I, J)
    ring = I.ring
    if not I.gens or not J.gens:
        return Ideal(ring, [])
    tname = _fresh_name(set(ring.variables), "t")
    ext = make_ring([tname, *ring.variables], ring.field, MonomialOrder("block", 1))
    neg, one = ring.field.neg, ring.field.one

    def t_times(f):
        return Polynomial(ext, {(1, *e): c for e, c in f.terms.items()})

    def one_minus_t_times(g):
        terms = {(0, *e): c for e, c in g.terms.items()}
        terms.update({(1, *e): neg(c) for e, c in g.terms.items()})
        return Polynomial(ext, terms)

    basis, gens = [], []
    for K, lift in ((I, t_times), (J, one_minus_t_times)):
        for f in K.gens:
            (basis if len(f.terms) == 1 else gens).append(lift(f))
    mI, mJ = ([e for f in K.gens if len(f.terms) == 1 for e in f.terms] for K in (I, J))
    lcms = minimal_monomial_generators(mono_lcm(m, n) for m in mI for n in mJ)
    basis += [Polynomial(ext, {(0, *e): one}) for e in lcms]
    kept = [
        Polynomial(ring, {e[1:]: c for e, c in g.terms.items()})
        for g in elimination_basis(gens, basis)
    ]
    if ring.order == GREVLEX:
        return Ideal.from_groebner(GroebnerBasis(ring, kept))
    return Ideal(ring, kept)


def local_leading_ideal(J):
    """(L, cone): the leading ideal of J in the local ring at the origin, a
    monomial ideal holding its basis, and the tangent cone of J there.

    Lazard's method (Greuel-Pfister, Sec. 1.7): homogenize J's generators by
    a new first variable t and take one reduced block(1) basis; as block(1)
    puts the higher power of t first among monomials of one degree, the
    dehomogenized basis is a standard basis of J for a local degree order.
    L holds its leading monomials, the cone its lowest forms; both have the
    Hilbert function of the associated graded ring, so hilbert_data(L) gives
    the local dimension and multiplicity.  The standard monomials of a
    zero-dimensional L count the local length too, but no library code
    reads it here: localrings counts lengths in grevlex bases of ideals
    supported at the origin, with no t.  A homogeneous J takes no t: it
    equals its tangent cone, and L is read off J's own reduced basis.
    Computed once and held by J; a homogeneous J, its own cone, holds L alone.
    """
    held = J._local
    if held is None:
        ring = J.ring
        if J.is_homogeneous():
            leading, cone = J.groebner().leading_monomials(), None
        else:
            tname = _fresh_name(set(ring.variables), "t")
            ext = make_ring([tname, *ring.variables], ring.field, MonomialOrder("block", 1))
            forms = []
            for f in J.gens:
                top = f.total_degree()
                forms.append(Polynomial(ext, {(top - sum(e), *e): c for e, c in f.terms.items()}))
            lifted = [(g, g.leading_monomial()) for g in buchberger(forms)]
            leading = [lm[1:] for _, lm in lifted]
            cone = Ideal(ring, [
                Polynomial(ring, {e[1:]: c for e, c in g.terms.items() if e[0] == lm[0]})
                for g, lm in lifted
            ])
        monomials = [Polynomial.monomial(ring, e) for e in leading]
        held = J._local = (Ideal.from_groebner(reduced_basis(ring, monomials)), cone)
    L, cone = held
    return L, J if cone is None else cone


def ideal_colon(I, J):
    """(I : J) = {f : f*J inside I}, by one chain over the generators g_i of J:
    K_0 = R and K_i = (I cap g_i*K_(i-1)) / g_i = {f in K_(i-1) : f*g_i in I},
    so K_s = (I : J) after s intersections.  The quotients by g_i are read off
    divide by the basis (g_i made monic), exact up to the unit lc(g_i); as
    I cap g_i*K_(i-1) lies in (g_i), a nonzero remainder is an internal fault
    and raises RuntimeError."""
    _check_same_ring(I, J)
    if not J.gens:
        raise ValueError("colon by the zero ideal")
    ring = I.ring
    K = Ideal(ring, [Polynomial.constant(ring, 1)])
    for g in J.gens:
        W = ideal_intersect(I, Ideal(ring, [g * k for k in K.gens]))
        principal = GroebnerBasis(ring, [g.monic()])
        divisions = [divide(w, principal) for w in W.gens]
        if any(not remainder.is_zero() for _, remainder in divisions):
            raise RuntimeError("colon: a generator of I cap g*K lies outside (g)")
        K = Ideal(ring, [q for (q,), _ in divisions])
    return Ideal.from_groebner(K.groebner())


def saturate(I, J):
    """(I : J^infinity): iterate the colon until it stabilizes.

    K lies in (K : J) for every K, so the chain only grows, and one
    containment decides that it has stopped: current contains the next
    colon.
    """
    current = I
    while True:
        nxt = ideal_colon(current, J)
        if current.contains_ideal(nxt):
            return current
        current = nxt


def eliminate(I, names):
    """Generators of I cap k[remaining variables].

    Builds a ring with the eliminated variables moved in front under a block
    order; elimination_basis gives the reduced basis of the elimination
    ideal there, whose elements, free of them, are moved back.
    """
    names = list(names)
    ring = I.ring
    for name in names:
        ring.index(name)
    if not names:
        return I
    remaining = [v for v in ring.variables if v not in names]
    if not remaining:
        return Ideal(ring, [Polynomial.constant(ring, 1)] if I.is_unit() else [])
    perm = make_ring(names + remaining, ring.field, MonomialOrder("block", len(names)))
    moved = [map_to_ring(g, perm) for g in I.gens]
    if not moved:
        return Ideal(ring, [])
    return Ideal(ring, [map_to_ring(g, ring) for g in elimination_basis(moved)])


# -- leading-term combinatorics ----------------------------------------------


def minimal_monomial_generators(monomials):
    """Divisibility-minimal subset of a set of exponent tuples."""
    mons = sorted(set(monomials), key=lambda e: (sum(e), e))
    out = []
    for m in mons:
        if not any(mono_divides(g, m) for g in out):
            out.append(m)
    return out


def is_zero_dimensional(gb):
    """Whether the quotient by the ideal is a finite-dimensional vector space."""
    if gb.is_unit_ideal():
        return True
    lts = gb.leading_monomials()
    n = gb.ring.nvars
    for i in range(n):
        if not any(sum(m) == m[i] and m[i] > 0 for m in lts):
            return False
    return True


def standard_monomials(gb):
    """All monomials outside the leading-term ideal; requires dimension zero."""
    if not is_zero_dimensional(gb):
        raise ValueError("standard monomial enumeration needs a zero-dimensional ideal")
    lts = gb.leading_monomials()
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


def _trim(a):
    while a and a[-1] == 0:
        a = a[:-1]
    return a


def sub_shifted(a, b, k):
    """a(t) - t^k * b(t) without trailing zeros, k >= 0; polynomials in t
    are coefficient sequences, constant term first."""
    out = list(a) + [0] * (k + len(b) - len(a))
    for i, c in enumerate(b, start=k):
        out[i] -= c
    return _trim(out)


def _numerator(mingens):
    """Hilbert series numerator of R/(monomial ideal) over (1-t)^n.

    N(I + (m)) = N(I) - t^deg(m) * N(I : m), with monomial colons computed
    directly, taken over the sorted generators m_k in one loop: N <- N -
    t^deg(m_k) * N((m_1, ..., m_(k-1)) : m_k).  Only the colons recurse, so
    the depth does not grow with the number of generators.
    """
    if any(sum(m) == 0 for m in mingens):
        return []
    gens = sorted(mingens, key=lambda e: (sum(e), e))
    numer = [1]
    for k, m in enumerate(gens):
        colon = minimal_monomial_generators([mono_div(g, mono_gcd(g, m)) for g in gens[:k]])
        numer = sub_shifted(numer, _numerator(colon), sum(m))
    return numer


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
class HilbertData(Report):
    krull_dimension: int
    projective_dimension: int
    degree: int
    numerator: tuple
    # the numerator over (1-t)^codim, whose coefficients sum to the degree
    h_vector: tuple = dc_field(default=(), metadata={"json": None})


def hilbert_data(I):
    """Krull dimension, degree, and Hilbert numerator of a homogeneous ideal.

    The Hilbert series of R/I is N(t)/(1-t)^n; writing N = (1-t)^c Q with
    Q(1) != 0 gives codimension c, affine (cone) dimension n - c, projective
    dimension n - c - 1, degree Q(1), and the h-vector Q.  Two forms that
    the section certificate of _hilbert_data proves a regular sequence get
    N in closed form; any other ideal reads it off its Groebner basis.
    Computed once per Ideal and held by it, like its Groebner basis.
    """
    if I._hilbert is None:
        if not I.is_homogeneous():
            raise ValueError("hilbert_data needs a homogeneous ideal")
        I._hilbert = _hilbert_data(I)
    return I._hilbert


def _hilbert_data(I):
    """Hilbert data of homogeneous I, with no Groebner basis for two forms
    of positive degrees d1, d2 in n >= 2 variables that the section
    certificate proves a regular sequence.

    Certificate: restrict both forms to the plane x3 = ... = xn = 0 by
    dropping every term in those variables.  If neither restriction is zero
    and they share no zero on P^1 (binary_forms_have_common_zero), V(I)
    meets the plane only at the origin, so dim R/I <= n - 2 (affine
    dimension theorem, Hartshorne I.7.2); Krull's height theorem gives
    dim R/I >= n - 2.  Two forms generating an ideal of codimension 2 are a
    regular sequence (R is Cohen-Macaulay; Bruns-Herzog, Thm 2.1.2), and
    each regular form of degree d multiplies the Hilbert series by 1 - t^d:
    numerator (1-t^d1)(1-t^d2).  Every other ideal, a failed certificate
    included, takes the numerator of its basis's leading monomials.  Either
    numerator gives codimension, degree and h-vector by division by (1-t).
    """
    n = I.ring.nvars
    numer = None
    if len(I.gens) == 2 and n >= 2:
        d1, d2 = (g.total_degree() for g in I.gens)
        sections = [
            Polynomial(I.ring, {e: c for e, c in g.terms.items() if not any(e[2:])})
            for g in I.gens
        ]
        if (min(d1, d2) > 0 and all(sections)
                and not binary_forms_have_common_zero(*sections, (0, 1))):
            factor = sub_shifted([1], [1], d1)  # 1 - t^d1
            numer = sub_shifted(factor, factor, d2)  # times 1 - t^d2
    if numer is None:
        numer = _numerator(I.groebner().leading_monomials())
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
    return HilbertData(dim, dim - 1, degree, tuple(numer), tuple(q))
