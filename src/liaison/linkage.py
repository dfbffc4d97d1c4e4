"""Linkage of ideals: construct and verify linked triples, test the
Gorenstein property of extensions, doubling, regular-element transfer, and
socle agreement.

A triple (base, first, second) is linked when base is contained in both
links and the colon relations (base : first) = second and (base : second) =
first hold with all three quotients of equal dimension.  verify_linked_triple
proves both colon relations by a certificate when the theory allows it:
R/base Gorenstein and R/first Cohen-Macaulay (both read off the generator
count of a complete intersection, else certified by Artinian reduction),
first*second inside base, and the h-vector of second equal to the one
linkage predicts (Peskine-Szpiro).  Otherwise it computes the two colons.
The dualizing modules of the theory are never materialized; every check is
phrased in the colon, length, Hilbert-series and socle arithmetic the
proofs themselves reduce to, so the reports flag themselves as
necessary-condition verification.  All socles are read off the
multiplication matrices of R/base (see localrings).
"""

from dataclasses import dataclass, field as dc_field

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
    RationalPoint,
    artinian_reduce,
    is_graded_complete_intersection,
    local_gorenstein,
    socle_dimensions,
)

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


@dataclass
class TripleReport:
    containments: tuple = (False, False)
    colon_first: bool = False  # (base : first) == second
    colon_second: bool = False  # (base : second) == first
    dimensions: tuple = ()
    dimensions_equal: bool = False
    degrees: tuple = ()
    degree_additive: bool = False
    point_reports: list = dc_field(default_factory=list)
    gorenstein_ok: bool | None = None
    passed: bool = False
    note: str = NECESSARY_CONDITION_NOTE

    @property
    def exact_checks_passed(self):
        """Containments, colon symmetry, dimensions and degree additivity:
        the checks that need no random slice."""
        flags = (self.colon_first, self.colon_second, self.dimensions_equal, self.degree_additive)
        return all(self.containments) and all(flags)

    @property
    def points_tested(self):
        return [report[0] for report in self.point_reports]

    def as_dict(self):
        return {
            "containments": list(self.containments),
            "colon_first": self.colon_first,
            "colon_second": self.colon_second,
            "dimensions": list(self.dimensions),
            "dimensions_equal": self.dimensions_equal,
            "degrees": list(self.degrees),
            "degree_additive": self.degree_additive,
            "points_tested": [str(p) for p in self.points_tested],
            "point_invariants": [
                {"point": str(p), "length": l, "socle_dim": s, "gorenstein": g}
                for (p, l, s, g) in self.point_reports
            ],
            "gorenstein_ok": self.gorenstein_ok,
            "passed": self.passed,
            "note": self.note,
        }


def _linked_by_certificate(triple, seed):
    """Whether both colon relations of a triple follow from cheap facts,
    given R/base Gorenstein and three quotients of equal dimension.  False
    means only "not certified".

    With R/base Gorenstein and R/first Cohen-Macaulay of the same
    dimension, L = (base : first) is Cohen-Macaulay with h-vector
    h_base(t) - t^s * h_first(1/t), s = deg h_base, and (base : L) = first
    (Peskine-Szpiro 1974; Migliore 1998, ch. 5).  base inside second and
    first*second inside base give second inside L; equal h-vectors in equal
    dimension give equal Hilbert series, so second = L and both relations
    hold.  R/first is certified Cohen-Macaulay when first is a graded
    complete intersection (localrings.is_graded_complete_intersection;
    Bruns-Herzog, Thm 2.1.2), else by a completed artinian_reduce(first);
    a refuted or inconclusive reduction leaves it uncertified.
    """
    base, first, second = triple.ideals()
    h_base, h_first, h_second = (hilbert_data(I).h_vector for I in triple.ideals())
    s = len(h_base) - 1
    if len(h_first) - 1 > s:
        return False
    predicted = sub_shifted(h_base, h_first[::-1], s - (len(h_first) - 1))
    return (
        tuple(predicted) == h_second
        and base.contains_ideal(ideal_product(first, second))
        and (
            is_graded_complete_intersection(first)
            or isinstance(artinian_reduce(first, seed=seed)[0], Ideal)
        )
    )


def verify_linked_triple(triple, seed=0):
    """Full verification report for a linked triple.

    Checks containments, colon symmetry, equal dimensions, degree additivity
    (the length shadow of the two exact sequences), and the Gorenstein
    verdict of the extension at the origin of the affine cone: the ideals
    are homogeneous, so that local ring decides it for the graded ring.
    The report lists the point tested.  A Gorenstein verdict on a base
    whose h-vector is not symmetric is an internal contradiction: it
    raises RuntimeError and is never reported.

    When the base is Gorenstein and both containments hold, colon symmetry
    is first tried by certificate (see _linked_by_certificate), which sets
    both flags to True or leaves them undecided.  Every undecided case
    computes the two colons, so the report does not depend on which path
    decided it.
    """
    base, first, second = triple.ideals()
    if not (base.ring == first.ring == second.ring):
        raise ValueError("triple mixes ring contexts")
    if not all(I.is_homogeneous() for I in triple.ideals()):
        raise ValueError("verification needs homogeneous ideals (dimension bookkeeping)")
    report = TripleReport()
    report.containments = (first.contains_ideal(base), second.contains_ideal(base))
    data = [hilbert_data(I) for I in triple.ideals()]
    dims = tuple(d.krull_dimension for d in data)
    degs = tuple(d.degree for d in data)
    report.dimensions = dims
    report.dimensions_equal = dims[0] == dims[1] == dims[2]
    if not report.dimensions_equal:
        raise ValueError(f"dimension mismatch between the three ideals: {dims}")
    report.degrees = degs
    report.degree_additive = degs[0] == degs[1] + degs[2]

    origin = RationalPoint.affine(base.ring, [0] * base.ring.nvars)
    length, socle_dim, gor = local_gorenstein(base, seed=seed) or (None, None, None)
    h = data[0].h_vector
    if gor is True and h != h[::-1]:
        # a graded Gorenstein quotient has a symmetric h-vector (Stanley)
        raise RuntimeError(f"Gorenstein verdict contradicts the h-vector {list(h)} of the base")
    report.point_reports.append((origin, length, socle_dim, gor))
    report.gorenstein_ok = gor

    if gor is True and all(report.containments) and _linked_by_certificate(triple, seed):
        report.colon_first = report.colon_second = True
    else:
        report.colon_first = ideal_equal(ideal_colon(base, first), second)
        report.colon_second = ideal_equal(ideal_colon(base, second), first)
    report.passed = report.exact_checks_passed and gor is True
    return report


@dataclass
class RegularTransferReport:
    regular_base: bool
    regular_first: bool
    regular_second: bool
    consistent: bool

    def as_dict(self):
        return {
            "regular_base": self.regular_base,
            "regular_first": self.regular_first,
            "regular_second": self.regular_second,
            "consistent": self.consistent,
        }


def is_regular(h, I):
    """Whether h is a nonzerodivisor on R/I: (I : h) = I."""
    return ideal_equal(ideal_colon(I, Ideal(I.ring, [h])), I)


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
class SocleLemmaReport:
    socle_dim: int
    dims: tuple
    all_equal: bool

    def as_dict(self):
        return {"socle_dim": self.socle_dim, "dims": list(self.dims), "all_equal": self.all_equal}


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
