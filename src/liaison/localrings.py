"""Local analysis at a rational point: length, socle dimension, Gorenstein
verdicts, local minimal generator counts, and local complete-intersection
tests.

The local minimal generator count at any rational point p of V(I) is
dim_k(I/m_p I) (Nakayama), read off the values at p of the Schreyer
syzygies of I's own reduced basis, with no chart.  Every other
local invariant is computed at the origin of an affine chart, to which
translate_to_origin moves the point, or refuses it by _check_point, the
module's one refusal.  The Artinian invariants are
linear algebra on the origin's primary component Q_0 of a cut, in its
basis of standard monomials, with no primary decomposition: the Artinian
reduction's cut is Q_0 itself, certified by its length check (see
artinian_reduce), the length is the count of standard monomials, and the
socle is the common kernel of the matrices of multiplication by the
variables, one routine (socle_dimensions) for every caller.
Every local Gorenstein or Cohen-Macaulay verdict comes from
local_gorenstein.  A graded complete intersection, chart ideals included,
is Gorenstein of type 1 with length its degree, with no computation beyond
its Hilbert data.  Otherwise the
local leading ideal (Lazard) gives the local dimension d and multiplicity
e, and one cut by d linear forms, with no colon and no second Lazard
basis, certifies the local ring Cohen-Macaulay when its length is e, else
refutes it: a chart ideal's cut adds (x_1^(e+1), ..., x_n^(e+1)) and is
counted in its own grevlex basis (see artinian_reduce).  The local
codimension, the chart's variables minus d, is always exact, and is read
off the local leading ideal for every chart ideal, complete intersections
included.
"""

import random
from collections import namedtuple
from dataclasses import dataclass

from .groebner import normal_form, syzygy_values
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
from .rings import make_ring

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


def _check_point(I, point):
    """The library's one zero-set check: raise the ValueError of a point off
    V(I), then of a projective point, I not homogeneous."""
    if any(g.evaluate(point.coordinates) != I.ring.field.zero for g in I.gens):
        raise ValueError(f"point {point} is not on the zero set of the ideal")
    if not (point.is_affine or I.is_homogeneous()):
        raise ValueError(f"projective point {point} needs a homogeneous ideal")


def translate_to_origin(I, point):
    """Affine chart ideal of I with the point moved to the origin.

    Projective points need a homogeneous I: each form is dehomogenized by
    dropping its exponent of the chart variable (set to 1 and removed from
    the ring), which keeps its terms apart, as a form's degree fixes that
    exponent.  Affine points keep the ring.  The remaining variables are
    then shifted by the point's coordinates, unless all of them are zero.
    """
    _check_point(I, point)
    ring = I.ring
    target, gens, coords = ring, I.gens, point.coordinates
    if not point.is_affine:
        chart = point.chart
        names = [v for i, v in enumerate(ring.variables) if i != chart]
        order = ring.order if ring.order.kind in ("lex", "grevlex") else None
        target = make_ring(names, ring.field, order or "grevlex")
        gens = [
            Polynomial(target, {e[:chart] + e[chart + 1 :]: c for e, c in g.terms.items()})
            for g in gens
        ]
        coords = coords[:chart] + coords[chart + 1 :]
    if any(c != ring.field.zero for c in coords):
        assignment = {
            name: Polynomial.variable(target, name) + Polynomial.constant(target, c)
            for name, c in zip(target.variables, coords)
        }
        gens = [substitute(g, assignment, ring=target) for g in gens]
    return Ideal(target, gens)


def local_mu(I, point):
    """Minimal number of generators of I localized at a rational point p of
    V(I), with no chart.

    mu = dim_k(I/m_p I) (Nakayama).  With G = (g_1..g_s) the reduced basis
    of I and S a matrix whose columns generate its syzygies, R^t -> R^s ->
    I -> 0 is exact; tensoring with k(p) = R/m_p is right exact, so mu =
    s - rank S(p), S the Schreyer syzygies (groebner.syzygy_values).  A
    projective point is read at its coordinates, the chart's scaled to 1:
    for homogeneous I, inverting the chart variable x_c makes I its chart
    ideal I' extended along the free map R' -> R'[x_c, 1/x_c], so
    I (x) k(p) = I' (x) k(p') and mu is the chart's.  A point off V(I), or
    a projective point of an I not homogeneous, raises _check_point's
    ValueError before any basis is taken.
    """
    _check_point(I, point)
    gb = I.groebner()
    return len(gb) - rank(syzygy_values(gb, point.coordinates), I.ring.field)


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
    field = ring.field
    # 0 and the field's sample; over F_p that is all of F_p, a range and not
    # a list of p integers, and rng.choice draws alike from both
    sample = range(field.p) if field.characteristic else [field.zero, *field.random_sample()]
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


def local_gorenstein(I, seed=0):
    """GorensteinInvariants (length, socle_dim, gorenstein) of the local ring
    of I at the origin, in each of three outcomes; the one library caller
    of artinian_reduce.

    A graded complete intersection (is_graded_complete_intersection) is
    Gorenstein of type 1 with length deg R/I (Bruns-Herzog, Prop. 3.1.20),
    with no reduction.  Any other I must vanish at the origin, else
    _check_point's ValueError there, raised after the shortcut, which never
    fires off the origin (a homogeneous I other than R vanishes there), and
    is read off the Artinian reduction, whose length is the local
    multiplicity: decided, (length, socle_dim, socle_dim == 1), both read by
    socle_dimensions off the basis of the cut the reduction certified, the
    origin's primary component of I + (h), with no second basis and no
    normal form of a power; on a zero-dimensional I no form is drawn, and
    the cut is I's own origin component, its components away from the
    origin dropped; refuted, (None, None, False), when its length check
    refutes Cohen-Macaulayness (no length or socle, which would depend on
    the cut); inconclusive, (None, None, None), when the slice budget is
    spent.  So the length is not None exactly when R/I is certified
    Cohen-Macaulay at the origin."""
    if is_graded_complete_intersection(I):
        return GorensteinInvariants(hilbert_data(I).degree, 1, True)
    _check_point(I, RationalPoint.affine(I.ring, [0] * I.ring.nvars))
    Q, _forms = artinian_reduce(I, seed=seed)
    if not isinstance(Q, Ideal):  # Q is the verdict: False refuted, None inconclusive
        return GorensteinInvariants(None, None, Q)
    length, socle_dim = socle_dimensions(Q.groebner(), ())
    return GorensteinInvariants(length, socle_dim, socle_dim == 1)


def local_ci_test(I, point, seed=0):
    """Local complete-intersection test at a rational point, with the
    Gorenstein verdict there.

    It answers at every rational point p of V(I) and refuses only through
    _check_point (p off V(I), or p projective and I not homogeneous).
    mu = dim_k(I/m_p I) is read off I's own basis at p (local_mu), with no
    chart; lci means mu equals the local codimension, which is exact: the
    variables of the chart ideal J minus the local dimension, read off the
    local leading ideal L that J holds, by one rule for every chart ideal
    (a homogeneous J reads L off its own reduced basis; any other takes
    its one Lazard basis here and holds it for its reduction), in every
    outcome.  J is kept for that codimension and for the Gorenstein
    invariants, local_gorenstein's at J's origin, and the note is
    GORENSTEIN_NOTES of the verdict when they have no length, else empty.
    """
    J = translate_to_origin(I, point)
    mu = local_mu(I, point)
    codim = J.ring.nvars - hilbert_data(local_leading_ideal(J)[0]).krull_dimension
    invariants = local_gorenstein(J, seed=seed)
    note = GORENSTEIN_NOTES[invariants.gorenstein] if invariants.length is None else ""
    return LocalPointReport(
        mu=mu, codim=codim, lci=mu == codim, **invariants._asdict(), point=point, note=note
    )
