"""Linkage of ideals: construct and verify linked triples, test the
Gorenstein property of extensions, doubling, regular-element transfer, and
socle agreement.

A triple (base, first, second) is linked when base is contained in both
links and the colon relations (base : first) = second and (base : second) =
first hold with all three quotients of equal dimension.  verify_linked_triple
proves both colon relations by a certificate when the theory allows it:
R/base Gorenstein, the h-vector of second equal to the one linkage predicts
(Peskine-Szpiro), and second inside (base : first).  When base and first
are both generated by codim forms, base = C*first and second only has to
contain det C, read off the division that proves base inside first;
otherwise R/first must be Cohen-Macaulay and first*second inside base.
Both local questions, R/base Gorenstein and R/first Cohen-Macaulay, are
read off local_gorenstein at the origin of the cone, the one door to the
Artinian reduction.  Where no certificate applies it computes the two
colons.
The dualizing modules of the theory are never materialized; every check is
phrased in the colon, length, Hilbert-series and socle arithmetic the
proofs themselves reduce to, so the reports flag themselves as
necessary-condition verification.  A base that is not a graded complete
intersection has its socle read off the certified cut R/Q of the Artinian
reduction, a graded complete-intersection base needs none, and
socle_lemma_test reads the multiplication matrices of R/base (see
localrings).
"""

from collections import namedtuple
from dataclasses import dataclass, field as dc_field

from .groebner import divide
from .ideals import (
    Ideal,
    hilbert_data,
    ideal_colon,
    ideal_equal,
    ideal_product,
    is_zero_dimensional,
    sub_shifted,
)
from .localrings import (
    GorensteinInvariants,
    RationalPoint,
    is_graded_complete_intersection,
    local_gorenstein,
    socle_dimensions,
)
from .polynomials import Polynomial
from .reports import Report

NECESSARY_CONDITION_NOTE = (
    "necessary-condition verification: colon symmetry, lengths, and socles "
    "are the computable shadows of the defining exact sequences"
)


@dataclass(frozen=True)
class LinkedTriple:
    """base = the extension ideal; first and second = the linked pair."""

    base: Ideal
    first: Ideal
    second: Ideal

    def ideals(self):
        return (self.base, self.first, self.second)


def link(base, first):
    """The linked ideal (base : first); requires base inside first and,
    for homogeneous input, equal dimensions."""
    if base.ring != first.ring:
        raise ValueError("ideals live in different ring contexts")
    if not first.contains_ideal(base):
        raise ValueError("link requires the base ideal to sit inside the linked one")
    if base.is_homogeneous() and first.is_homogeneous() and not first.is_unit():
        if hilbert_data(base).krull_dimension != hilbert_data(first).krull_dimension:
            raise ValueError("link requires quotients of equal dimension")
    return ideal_colon(base, first)


def doubling_check(base, first):
    """Whether base presents a doubling of first: self-linked with doubled
    multiplicity."""
    linked = link(base, first)
    if not ideal_equal(linked, first):
        return False
    return hilbert_data(base).degree == 2 * hilbert_data(first).degree


# the Gorenstein invariants at one point; a tuple, so callers index or unpack it
PointInvariants = namedtuple("PointInvariants", ("point", *GorensteinInvariants._fields))


@dataclass
class TripleReport(Report):
    containments: tuple  # (first contains base, second contains base)
    colon_first: bool  # (base : first) == second
    colon_second: bool  # (base : second) == first
    dimensions: tuple  # equal, else verify_linked_triple raised ValueError
    degrees: tuple
    degree_additive: bool
    point_reports: list = dc_field(metadata={"json": "point_invariants"})
    gorenstein_ok: bool | None
    passed: bool | None  # None: every exact check passed, the Gorenstein verdict is open
    note: str = NECESSARY_CONDITION_NOTE


def _determinant(ring, rows):
    """Determinant of a square matrix of polynomials (1 when it is empty),
    expanded along the first row."""
    if not rows:
        return Polynomial.constant(ring, 1)
    total = Polynomial.zero(ring)
    for j, entry in enumerate(rows[0]):
        if not entry.is_zero():
            term = entry * _determinant(ring, [row[:j] + row[j + 1 :] for row in rows[1:]])
            total = total - term if j % 2 else total + term
    return total


def _linked_by_certificate(triple, quotients, seed):
    """Whether both colon relations of a triple follow from cheap facts,
    given R/base Gorenstein, base inside first and second, and three
    quotients of equal dimension.  quotients[i] lists the quotients of the
    i-th generator of base divided by first's reduced basis (groebner.divide).
    False means only "not certified".

    With R/base Gorenstein and R/first Cohen-Macaulay of the same
    dimension, L = (base : first) is Cohen-Macaulay with h-vector
    h_base(t) - t^s * h_first(1/t), s = deg h_base, and (base : L) = first
    (Peskine-Szpiro 1974; Migliore 1998, ch. 5).  Once second is shown
    inside L, equal h-vectors in equal dimension give equal Hilbert series,
    so second = L and both relations hold.  Two routes show it:

    - Determinant: base has exactly c = codim generators g and first's
      reduced basis f exactly c elements, so both are regular sequences
      (R is Cohen-Macaulay; Bruns-Herzog, Thm 2.1.2) and the quotients
      give g = C*f.  Then L = base + (det C) (Peskine-Szpiro), so second
      contains L when it contains det C.
    - Product: first*second inside base gives second inside L.  R/first is
      certified Cohen-Macaulay exactly when local_gorenstein(first) has a
      length: a graded complete intersection, or a completed Artinian
      reduction; a refuted or inconclusive verdict leaves it uncertified.
      Only this route covers a Cohen-Macaulay first that is not a complete
      intersection.
    """
    base, first, second = triple.ideals()
    h_base, h_first, h_second = (hilbert_data(I).h_vector for I in triple.ideals())
    s = len(h_base) - 1
    if len(h_first) - 1 > s:
        return False
    predicted = sub_shifted(h_base, h_first[::-1], s - (len(h_first) - 1))
    if tuple(predicted) != h_second:
        return False
    if is_graded_complete_intersection(base) and len(first.groebner()) == len(base.gens):
        return second.contains(_determinant(base.ring, quotients))
    return (
        base.contains_ideal(ideal_product(first, second))
        and local_gorenstein(first, seed=seed).length is not None
    )


def verify_linked_triple(triple, seed=0):
    """Full verification report for a linked triple.

    Checks containments, colon symmetry, degree additivity (the length
    shadow of the two exact sequences), and the Gorenstein verdict of the
    extension at the origin of the affine cone: the ideals are homogeneous,
    so that local ring decides it for the graded ring.  The report lists the
    point tested, and its passed is decided here alone: True when every
    exact check passed and R/base is Gorenstein, False when one failed or
    R/base is not Gorenstein, None when all passed and the Gorenstein
    verdict is inconclusive (the slice budget ran out).  Unequal dimensions
    raise ValueError.  A Gorenstein verdict on a base whose h-vector is not
    symmetric is an internal contradiction: it raises RuntimeError.

    When the base is Gorenstein and both containments hold, colon symmetry
    is first tried by certificate (see _linked_by_certificate), which sets
    both flags to True or leaves them undecided.  The division of base's
    generators by first's basis that decides the first containment also
    gives the certificate its quotients.  Every undecided case computes
    the two colons, so the report does not depend on which path decided it.
    """
    base, first, second = triple.ideals()
    if not (base.ring == first.ring == second.ring):
        raise ValueError("triple mixes ring contexts")
    if not all(I.is_homogeneous() for I in triple.ideals()):
        raise ValueError("verification needs homogeneous ideals (dimension bookkeeping)")
    gb = first.groebner()
    division = [divide(g, gb) for g in base.gens]
    containments = (all(r.is_zero() for _, r in division), second.contains_ideal(base))
    data = [hilbert_data(I) for I in triple.ideals()]
    dims = tuple(d.krull_dimension for d in data)
    degs = tuple(d.degree for d in data)
    if not dims[0] == dims[1] == dims[2]:
        raise ValueError(f"dimension mismatch between the three ideals: {dims}")

    origin = RationalPoint.affine(base.ring, [0] * base.ring.nvars)
    length, socle_dim, gor = local_gorenstein(base, seed=seed)
    h = data[0].h_vector
    if gor is True and h != h[::-1]:
        # a graded Gorenstein quotient has a symmetric h-vector (Stanley)
        raise RuntimeError(f"Gorenstein verdict contradicts the h-vector {list(h)} of the base")

    quotients = [q for q, _ in division]
    if gor is True and all(containments) and _linked_by_certificate(triple, quotients, seed):
        colon_first = colon_second = True
    else:
        colon_first = ideal_equal(ideal_colon(base, first), second)
        colon_second = ideal_equal(ideal_colon(base, second), first)
    degree_additive = degs[0] == degs[1] + degs[2]
    return TripleReport(
        containments=containments,
        colon_first=colon_first,
        colon_second=colon_second,
        dimensions=dims,
        degrees=degs,
        degree_additive=degree_additive,
        point_reports=[PointInvariants(origin, length, socle_dim, gor)],
        gorenstein_ok=gor,
        passed=gor if all((*containments, colon_first, colon_second, degree_additive)) else False,
    )


@dataclass
class RegularTransferReport(Report):
    regular_base: bool
    regular_first: bool
    regular_second: bool
    consistent: bool


def is_regular(h, I):
    """Whether h is a nonzerodivisor on R/I: (I : h) = I.  I lies in (I : h)
    for every h, so one containment decides: I contains (I : h)."""
    return I.contains_ideal(ideal_colon(I, Ideal(I.ring, [h])))


def regular_element_transfer_test(triple, h):
    """An element is regular on the extension iff it is regular on both
    linked quotients; each is certified by is_regular."""
    if h.is_zero() or h.constant_term() != triple.base.ring.field.zero:
        raise ValueError("test element must be a nonzero non-unit through the origin")
    r_base, r_first, r_second = (is_regular(h, I) for I in triple.ideals())
    return RegularTransferReport(
        regular_base=r_base,
        regular_first=r_first,
        regular_second=r_second,
        consistent=(r_base == (r_first and r_second)),
    )


@dataclass
class SocleLemmaReport(Report):
    socle_dim: int
    dims: tuple
    all_equal: bool


def socle_lemma_test(triple):
    """For an Artinian linked triple, the socle of the extension agrees with
    the socles of both kernel carriers.

    socle(B) is (base : m)/base; the carrier socles are the images of
    (base : m) cap second and (base : m) cap first in R/base.  All three
    are read off the multiplication matrices of R/base, the carriers' with
    one projection each (localrings.socle_dimensions).  Both carrier socles
    lie inside socle(B), so they agree with it exactly when their
    dimensions do.
    """
    base, first, second = triple.ideals()
    for I in triple.ideals():
        if not is_zero_dimensional(I.groebner()):
            raise ValueError("socle_lemma_test needs Artinian quotients")
    dims = socle_dimensions(base.groebner(), (second, first))[1:]
    return SocleLemmaReport(socle_dim=dims[0], dims=dims, all_equal=len(set(dims)) == 1)
