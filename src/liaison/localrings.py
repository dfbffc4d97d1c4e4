"""Local analysis at a rational point: length, socle dimension, Gorenstein
verdicts, local minimal generator counts, and local complete-intersection
tests.

All localization is made computable by translating the point to the origin
of an affine chart.  The local minimal generator count is dim_k(I/mI), m the
ideal of the origin (Nakayama), read off the constant parts of the Schreyer
syzygies of I's own reduced basis.  The Artinian invariants of a
zero-dimensional Q are linear algebra on the origin's primary component
Q + (x_1^d, ..., x_n^d), d = dim_k R/Q, in its basis of standard monomials,
with no primary decomposition: the length is the count of standard
monomials, and the socle is the common kernel of the matrices of
multiplication by the variables, one routine (socle_dimensions) for every
caller.  Q is its own origin component exactly when n normal forms put
every x_i^d in Q, graded Q included.
A graded complete intersection, chart ideals included, is Gorenstein of
type 1 with length its degree, with no computation beyond its Hilbert data.
Otherwise the local leading ideal (Lazard) gives the local dimension d and
multiplicity e, and one cut by d linear forms, with no colon and no second
Lazard basis, certifies the local ring Cohen-Macaulay when its length is e,
else refutes it: a chart ideal's cut adds (x_1^(e+1), ..., x_n^(e+1)) and
is counted in its own grevlex basis (see artinian_reduce).  The local
codimension, the chart's variables minus d, is always exact.
"""

import random
from collections import namedtuple
from dataclasses import dataclass

from .groebner import normal_form, reduced_basis, schreyer_constants
from .ideals import (
    Ideal,
    hilbert_data,
    ideal_sum,
    is_zero_dimensional,
    local_leading_ideal,
    standard_monomials,
)
from .linalg import rank, rref
from .polynomials import Polynomial, coefficient_text, substitute
from .reports import Report
from .rings import GREVLEX, make_ring

# tuples of linear forms drawn before a Gorenstein verdict is inconclusive
SLICE_BUDGET = 8

# the Gorenstein invariants of a local ring; a tuple, so callers index or unpack it
GorensteinInvariants = namedtuple("GorensteinInvariants", "length socle_dim gorenstein")

# the note on a verdict with no length, by that verdict: inconclusive or refuted
GORENSTEIN_NOTES = {
    None: "inconclusive Gorenstein verdict: no Artinian reduction (slice budget spent)",
    False: "not Cohen-Macaulay: the length check of the Artinian reduction failed",
}


@dataclass(frozen=True)
class RationalPoint:
    """A rational point, either affine or in a projective chart.

    For a projective point, `chart` is the index of the last nonzero
    coordinate, scaled to 1; `coordinates` always holds the full tuple.
    """

    chart: object  # int chart index, or the string "affine"
    coordinates: tuple

    @classmethod
    def affine(cls, ring, coords):
        coords = tuple(ring.field.normalize(c) for c in coords)
        if len(coords) != ring.nvars:
            raise ValueError(f"wrong number of coordinates: {len(coords)} for {ring.nvars} variables")
        return cls("affine", coords)

    @classmethod
    def projective(cls, ring, coords):
        field = ring.field
        coords = tuple(field.normalize(c) for c in coords)
        if len(coords) != ring.nvars:
            raise ValueError(f"wrong number of coordinates: {len(coords)} for {ring.nvars} variables")
        if all(c == field.zero for c in coords):
            raise ValueError("projective point needs a nonzero coordinate")
        chart = max(i for i, c in enumerate(coords) if c != field.zero)
        inv = field.inv(coords[chart])
        coords = tuple(field.mul(c, inv) for c in coords)
        return cls(chart, coords)

    @property
    def is_affine(self):
        return self.chart == "affine"

    def __str__(self):
        sep = "," if self.is_affine else ":"
        return "(" + sep.join(map(coefficient_text, self.coordinates)) + ")"


@dataclass
class LocalPointReport(Report):
    """Local invariants of an ideal at a rational point."""

    mu: int
    codim: int
    lci: bool
    length: int | None = None
    socle_dim: int | None = None
    gorenstein: bool | None = None
    point: RationalPoint | None = None
    note: str = ""


def vanishes_at(I, point):
    return all(g.evaluate(point.coordinates) == I.ring.field.zero for g in I.gens)


def translate_to_origin(I, point):
    """Affine chart ideal of I with the point moved to the origin.

    Projective points need a homogeneous I: each form is dehomogenized by
    dropping its exponent of the chart variable (set to 1 and removed from
    the ring), which keeps its terms apart, as a form's degree fixes that
    exponent.  Affine points keep the ring.  The remaining variables are
    then shifted by the point's coordinates, unless all of them are zero.

    At the vertex of the last variable of a grevlex ring only, a basis I
    holds is dehomogenized, a Groebner basis of the chart ideal as grevlex
    breaks degree ties by that variable (Cox-Little-O'Shea, Ch. 8 sec. 4),
    and re-reduced with no S-pairs ((a,b,c) cap (d,e) turns ae into a); the
    chart ideal holds it and keeps the dehomogenized generators.
    """
    ring = I.ring
    if not vanishes_at(I, point):
        raise ValueError(f"point {point} is not on the zero set of the ideal")
    target, gens, coords = ring, I.gens, point.coordinates
    if not point.is_affine:
        if not I.is_homogeneous():
            raise ValueError(f"projective point {point} needs a homogeneous ideal")
        chart = point.chart
        names = [v for i, v in enumerate(ring.variables) if i != chart]
        order = ring.order if ring.order.kind in ("lex", "grevlex") else None
        target = make_ring(names, ring.field, order or "grevlex")

        def dehomogenize(g):
            return Polynomial(target, {e[:chart] + e[chart + 1 :]: c for e, c in g.terms.items()})

        gens = [dehomogenize(g) for g in gens]
        coords = coords[:chart] + coords[chart + 1 :]
        held = I.held_groebner()
        vertex = all(c == ring.field.zero for c in coords)
        if held is not None and vertex and chart == ring.nvars - 1 and ring.order == GREVLEX:
            return Ideal.holding(gens, reduced_basis(target, [dehomogenize(g) for g in held]))
    if any(c != ring.field.zero for c in coords):
        assignment = {
            name: Polynomial.variable(target, name) + Polynomial.constant(target, c)
            for name, c in zip(target.variables, coords)
        }
        gens = [substitute(g, assignment, ring=target) for g in gens]
    return Ideal(target, gens)


def local_mu(I):
    """Minimal number of generators of I localized at the origin.

    mu = dim_k(I/mI), m the ideal of the origin (Nakayama).  I/mI is killed
    by m, so it is already local.  With G = (g_1..g_s) the reduced basis of
    I, R^s -> I has the syzygies of G as kernel, so k^s -> I/mI has as
    kernel their values at the origin, spanned by the constant parts of the
    Schreyer syzygies (see groebner.schreyer_constants): mu = s - rank C.
    """
    ring = I.ring
    if any(g.constant_term() != ring.field.zero for g in I.gens):
        raise ValueError("origin is not on the zero set of the ideal")
    if not I.gens:
        return 0
    gb = I.groebner()
    return len(gb) - rank(schreyer_constants(gb), ring.field)


def _coordinates(f, gb, index):
    """The normal form of f modulo gb as a column over the standard
    monomials, index numbering them."""
    column = [gb.ring.field.zero] * len(index)
    for e, c in normal_form(f, gb).terms.items():
        column[index[e]] = c
    return column


def _multiplication_matrices(gb, std):
    """The matrices M_1, ..., M_n of multiplication by the variables on
    R/(gb), in the basis std of standard monomials, stacked as one list of
    rows: column j of M_i is the normal form of x_i * std[j]."""
    ring = gb.ring
    field = ring.field
    index = {e: j for j, e in enumerate(std)}
    rows = []
    for i in range(ring.nvars):
        columns = []
        for b in std:
            e = b[:i] + (b[i] + 1,) + b[i + 1 :]
            if e in index:  # a standard monomial is its own column
                column = [field.zero] * len(std)
                column[index[e]] = field.one
            else:
                column = _coordinates(Polynomial.monomial(ring, e), gb, index)
            columns.append(column)
        rows.extend(list(row) for row in zip(*columns))
    return rows


def artinian_invariants(Q):
    """GorensteinInvariants (length, socle_dim, gorenstein) of the local ring
    of a zero-dimensional Q at the origin.

    The local ring is R/Q_0, Q_0 the origin's primary component of Q = Q_0
    cap Q'.  With d = dim_k R/Q and J = (x_1^d, ..., x_n^d), J lies in Q_0,
    as each x_i is nilpotent of index at most d on R/Q_0, and J + Q' = R, as
    V(J) is the origin alone; so Q_0 = Q_0(J + Q') lies in J + Q, which lies
    in Q_0.  One rule for every Q: socle_dimensions on Q's basis gives d
    first, and n normal forms decide whether J lies in Q.  It does when Q is
    Q_0 (a graded Q, which vanishes from degree d on, and artinian_reduce's
    chart output), and d and the socle are Q_0's; else Q_0 takes one
    Groebner basis of Q + J and a second socle_dimensions call.  gorenstein
    means socle_dim 1.
    """
    ring = Q.ring
    if any(g.constant_term() != ring.field.zero for g in Q.gens):
        raise ValueError("origin is not on the zero set of the ideal")
    gb = Q.groebner()
    length, socle_dim = socle_dimensions(gb, ())
    powers = [v**length for v in ring.gens()]
    if any(normal_form(p, gb) for p in powers):
        length, socle_dim = socle_dimensions(Ideal(ring, [*gb.elements, *powers]).groebner(), ())
    return GorensteinInvariants(length, socle_dim, socle_dim == 1)


def socle_dimensions(gb, carriers):
    """(length, socle_dim, *carrier socle dims) of R/Q, gb the reduced basis
    of a zero-dimensional Q: dim_k R/Q, the dimension of the socle at the
    origin, then that of its meet with the image of each ideal in carriers.

    With d = dim_k R/Q, the number of standard monomials, and M = (M_1;
    ...; M_n) the stacked multiplication matrices, the socle (Q : m)/Q is
    ker M, of dimension d - rank(M).  The image of (Q : m) cap J in R/Q is
    ((Q : m) cap (Q + J))/Q by the modular law, as Q lies in (Q : m),
    whether or not Q lies in J.  That is ker M cap ker P, P the projection
    R/Q -> R/(Q + J), of dimension d - rank(M; P).
    """
    ring = gb.ring
    std = standard_monomials(gb)
    d = len(std)
    socle_rows, _ = rref(_multiplication_matrices(gb, std), ring.field)
    dims = [d, d - len(socle_rows)]
    for J in carriers:
        target = Ideal(ring, [*gb.elements, *J.gens]).groebner()
        index = {e: i for i, e in enumerate(standard_monomials(target))}
        columns = [_coordinates(Polynomial.monomial(ring, b), target, index) for b in std]
        dims.append(d - rank(socle_rows + list(zip(*columns)), ring.field))
    return tuple(dims)


def artinian_reduce(I, seed=0):
    """Cut by random linear forms down to a local ring of dimension zero.

    Returns (Q, forms): a zero-dimensional Q with the origin component of
    I + (forms), certifying R/I Cohen-Macaulay at the origin; False for Q
    when the length check refutes that; None when the slice budget is spent
    first (inconclusive).  The local leading ideal L of I and its tangent
    cone C, held by I once computed (local_leading_ideal), give the local
    dimension d and multiplicity e.  d forms h are drawn at once, up to
    SLICE_BUDGET tuples, until C + (h) is zero-dimensional.  Their
    coefficients come from the field's sample and 0: over F3 the cone over
    (0:0:1), (1:1:0), (1:2:0) has parameters, y + z among them, but none
    whose coefficients are all nonzero.  (h) is then a reduction of m on
    R/I, and the local length l of R/(I + (h)) is e if R/I is
    Cohen-Macaulay, else above e (Serre; Matsumura, Thm 17.11).
    Q = I + (h) + J counts l in its own grevlex basis, J chosen by whether
    I is homogeneous.  A homogeneous I equals its tangent cone and all its
    components pass the origin, so J = 0 and Q is the drawn cut, whose
    basis the draw holds.  Any other I takes J = (x_1^(e+1), ...,
    x_n^(e+1)), coprime to the components away from the origin, so Q =
    Q_0 + J, Q_0 the origin's.  The ideals Q_0 + m^j
    fall strictly until they reach Q_0 (Nakayama), so R/(Q_0 + m^(e+1)), a
    quotient of R/Q, has length at least min(l, e + 1): for l > e the count
    refutes, and for l = e, m^e lies in Q_0, so does J, and Q = Q_0.  The
    exponent e would not do: (x^2, xy + xz^2), a plane with an embedded
    curve, has e = 1, and its cut plus (x, y, z) is m, of length 1.
    """
    rng = random.Random(seed)
    ring = I.ring
    sample = [ring.field.zero, *ring.field.random_sample()]
    L, cone = local_leading_ideal(I)
    data = hilbert_data(L)
    forms, cut = [], cone
    if data.krull_dimension > 0:
        for _ in range(SLICE_BUDGET):
            forms = [
                sum((v.scale(rng.choice(sample)) for v in ring.gens()), Polynomial.zero(ring))
                for _ in range(data.krull_dimension)
            ]
            cut = ideal_sum(cone, Ideal(ring, forms))
            if is_zero_dimensional(cut.groebner()):
                break
        else:
            return None, forms
    if not I.is_homogeneous():
        cut = ideal_sum(I, Ideal(ring, [*forms, *(v ** (data.degree + 1) for v in ring.gens())]))
    if len(standard_monomials(cut.groebner())) != data.degree:
        return False, forms
    return cut, forms


def is_graded_complete_intersection(I):
    """Whether homogeneous I is generated by codim(I) forms: a graded
    complete intersection, as c forms generating an ideal of codimension c
    are a regular sequence (R is Cohen-Macaulay; Bruns-Herzog, Thm 2.1.2).
    The codimension comes from hilbert_data, which certifies two forms
    whose section by x3 = ... = xn = 0 is coprime with no Groebner basis
    (affine dimension theorem, Hartshorne I.7.2).  False for other input,
    the unit ideal, and a complete intersection given with redundant
    generators."""
    if not I.is_homogeneous():
        return False
    dim = hilbert_data(I).krull_dimension
    return dim >= 0 and len(I.gens) == I.ring.nvars - dim


def _reduced_at_origin(I, seed):
    """(codim, invariants) of the local ring of I at the origin: codim is
    nvars minus the local dimension, read off the local leading ideal L
    that I holds, the one artinian_reduce reads, in every outcome (even
    when the slice budget is spent before any draw).  invariants is the
    GorensteinInvariants of local_gorenstein."""
    if is_graded_complete_intersection(I):
        data = hilbert_data(I)
        return I.ring.nvars - data.krull_dimension, GorensteinInvariants(data.degree, 1, True)
    Q, _forms = artinian_reduce(I, seed=seed)
    codim = I.ring.nvars - hilbert_data(local_leading_ideal(I)[0]).krull_dimension
    if not isinstance(Q, Ideal):  # Q is the verdict: False refuted, None inconclusive
        return codim, GorensteinInvariants(None, None, Q)
    return codim, artinian_invariants(Q)


def local_gorenstein(I, seed=0):
    """GorensteinInvariants (length, socle_dim, gorenstein) of the local ring
    of I at the origin, in each of three outcomes.

    A graded complete intersection (is_graded_complete_intersection) is
    Gorenstein of type 1 with length deg R/I (Bruns-Herzog, Prop. 3.1.20),
    with no reduction.  Other I are read off the Artinian reduction, whose
    length is the local multiplicity: decided, (length, socle_dim, True or
    False); refuted, (None, None, False), when its length check refutes
    Cohen-Macaulayness (no length or socle, which would depend on the cut);
    inconclusive, (None, None, None), when the slice budget is spent."""
    return _reduced_at_origin(I, seed)[1]


def local_ci_test(I, point, seed=0):
    """Local complete-intersection test at a rational point, with the
    Gorenstein verdict there.

    I must be homogeneous, else ValueError.  mu = dim_k(I/mI) after
    translating the point to the origin (see local_mu); lci means mu equals
    the local codimension, which is exact: the chart's variables minus the
    local dimension (see _reduced_at_origin).  The Gorenstein invariants
    come from the same reduction, and so does the note: GORENSTEIN_NOTES
    of the verdict (refuted or inconclusive) when they have no length, else
    empty.
    """
    if not I.is_homogeneous():
        raise ValueError("local_ci_test needs a homogeneous ideal")
    J = translate_to_origin(I, point)
    mu = local_mu(J)
    codim, invariants = _reduced_at_origin(J, seed)
    note = GORENSTEIN_NOTES[invariants.gorenstein] if invariants.length is None else ""
    return LocalPointReport(
        mu=mu, codim=codim, lci=mu == codim, **invariants._asdict(), point=point, note=note
    )
