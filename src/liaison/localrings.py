"""Local analysis at a rational point: length, socle dimension, Gorenstein
verdicts, local minimal generator counts, and local complete-intersection
tests.

All localization is made computable by translating the point to the origin
of an affine chart.  The local minimal generator count is dim_k(I/mI), m the
ideal of the origin (Nakayama), read off from normal forms modulo a Groebner
basis of mI.  The Artinian invariants of a zero-dimensional Q come from
standard monomial counts of Q, (Q : m) and (Q : m^inf), with no primary
decomposition: the components of Q away from the origin drop out of both
differences.  Gorenstein-ness of a positive-dimensional local ring is decided
after cutting by certified-regular linear forms.
"""

import random
from dataclasses import dataclass

from .groebner import buchberger, normal_form
from .ideals import (
    Ideal,
    ideal_colon,
    ideal_equal,
    ideal_sum,
    is_zero_dimensional,
    saturate,
    standard_monomials,
)
from .linalg import rank
from .polynomials import Polynomial, substitute
from .rings import make_ring

# linear forms sampled per slice before a Gorenstein verdict is given up as
# inconclusive
SLICE_BUDGET = 8


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
            raise ValueError("wrong number of coordinates")
        return cls("affine", coords)

    @classmethod
    def projective(cls, ring, coords):
        field = ring.field
        coords = tuple(field.normalize(c) for c in coords)
        if len(coords) != ring.nvars:
            raise ValueError("wrong number of coordinates")
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
        return "(" + sep.join(str(c) for c in self.coordinates) + ")"


@dataclass
class LocalPointReport:
    """Local invariants of an ideal at a rational point."""

    mu: int
    codim: int
    lci: bool
    length: int | None = None
    socle_dim: int | None = None
    gorenstein: bool | None = None
    point: RationalPoint | None = None
    note: str = ""

    def as_dict(self):
        return {
            "mu": self.mu,
            "codim": self.codim,
            "lci": self.lci,
            "length": self.length,
            "socle_dim": self.socle_dim,
            "gorenstein": self.gorenstein,
            "point": str(self.point) if self.point is not None else None,
            "note": self.note,
        }


def origin_ideal(ring):
    return Ideal(ring, ring.gens())


def vanishes_at(I, point):
    return all(g.evaluate(point.coordinates) == I.ring.field.zero for g in I.gens)


def translate_to_origin(I, point):
    """Affine chart ideal of I with the point moved to the origin.

    Projective points: the chart variable is set to 1 and dropped from the
    ring; the remaining variables are shifted by the point's coordinates.
    Affine points: a plain shift in the same ring.
    """
    ring = I.ring
    if not vanishes_at(I, point):
        raise ValueError(f"point {point} is not on the zero set of the ideal")
    if point.is_affine:
        assignment = {
            name: Polynomial.variable(ring, name) + Polynomial.constant(ring, c)
            for name, c in zip(ring.variables, point.coordinates)
        }
        return Ideal(ring, [substitute(g, assignment, ring=ring) for g in I.gens])
    chart = point.chart
    names = [v for i, v in enumerate(ring.variables) if i != chart]
    order = ring.order if ring.order.kind in ("lex", "grevlex") else None
    target = make_ring(names, ring.field, order or "grevlex")
    assignment = {}
    for i, name in enumerate(ring.variables):
        if i == chart:
            assignment[name] = Polynomial.constant(target, 1)
        else:
            assignment[name] = Polynomial.variable(target, name) + Polynomial.constant(
                target, point.coordinates[i]
            )
    return Ideal(target, [substitute(g, assignment, ring=target) for g in I.gens])


def local_mu(I):
    """Minimal number of generators of I localized at the origin.

    mu = dim_k(I/mI), m the ideal of the origin (Nakayama).  I/mI is killed
    by m, so it is already local: it is spanned by the generators' normal
    forms modulo a Groebner basis of mI, and mu is their rank over k.
    """
    ring = I.ring
    field = ring.field
    if any(g.constant_term() != field.zero for g in I.gens):
        raise ValueError("origin is not on the zero set of the ideal")
    if not I.gens:
        return 0
    mI = buchberger(list(dict.fromkeys(v * g for v in ring.gens() for g in I.gens)))
    forms = [normal_form(g, mI).terms for g in I.gens]
    monomials = sorted({e for f in forms for e in f})
    return rank([[f.get(e, field.zero) for e in monomials] for f in forms], field)


def artinian_invariants(Q):
    """(length, socle_dim, gorenstein) of the local ring of a zero-dimensional
    Q at the origin.

    Both are differences of standard monomial counts, so Q may have other
    components away from the origin.  (Q : m)/Q is killed by m, hence is the
    socle: socle_dim = #std(Q) - #std(Q : m).  (Q : m^inf) is the
    intersection of the other components, so by the Chinese remainder
    theorem length = #std(Q) - #std(Q : m^inf).  gorenstein means socle_dim 1.
    """
    ring = Q.ring
    if any(g.constant_term() != ring.field.zero for g in Q.gens):
        raise ValueError("origin is not on the zero set of the ideal")
    gb = Q.groebner()
    if not is_zero_dimensional(gb):
        raise ValueError("artinian_invariants needs a zero-dimensional ideal")
    count = len(standard_monomials(gb))
    m = origin_ideal(ring)
    socle_preimage = ideal_colon(Q, m)
    socle_dim = count - len(standard_monomials(socle_preimage.groebner()))
    length = count - len(standard_monomials(saturate(socle_preimage, m).groebner()))
    return length, socle_dim, socle_dim == 1


def is_regular(h, I):
    """Whether h is a nonzerodivisor on R/I, certified by (I : h) = I."""
    return ideal_equal(ideal_colon(I, Ideal(I.ring, [h])), I)


def find_regular_linear_form(I, rng):
    """Rejection-sample a linear form vanishing at the origin with the
    certificate (I : h) = I; None after SLICE_BUDGET samples."""
    ring = I.ring
    field = ring.field
    sample = field.random_sample()
    variables = ring.gens()
    for _ in range(SLICE_BUDGET):
        coeffs = [rng.choice(sample) for _ in variables]
        h = Polynomial.zero(ring)
        for c, v in zip(coeffs, variables):
            h = h + v.scale(c)
        if h.is_zero():
            continue
        if is_regular(h, I):
            return h
    return None


def artinian_reduce(I, seed=0):
    """Cut by certified-regular linear forms until dimension zero.  Returns
    (Q, forms), Q the sliced ideal as it is (components away from the origin
    included; artinian_invariants reads past them), or (None, forms) when no
    certified form is found within SLICE_BUDGET samples."""
    rng = random.Random(seed)
    forms = []
    current = I
    while not is_zero_dimensional(current.groebner()):
        h = find_regular_linear_form(current, rng)
        if h is None:
            return None, forms
        forms.append(h)
        current = ideal_sum(current, Ideal(current.ring, [h]))
    return current, forms


def local_gorenstein(I, seed=0):
    """(length, socle_dim, gorenstein) of the local ring of I at the origin,
    read off the Artinian reduction; None when no certified-regular slice is
    found within the budget (inconclusive, never guessed)."""
    Q, _forms = artinian_reduce(I, seed=seed)
    return None if Q is None else artinian_invariants(Q)


def local_ci_test(I, point, seed=0, compute_gorenstein=True):
    """Local complete-intersection test at a rational point.

    mu = dim_k(I/mI) after translating the point to the origin (see
    local_mu); lci means mu equals the local codimension, which for this
    library's scoped inputs, curves of pure dimension one, is ambient minus
    one.  The Gorenstein verdict is filled via Artinian reduction by
    certified-regular slices; when no certified slice is found the verdict
    is None with an explanatory note (never guessed).
    """
    J = translate_to_origin(I, point)
    mu = local_mu(J)
    codim = J.ring.nvars - 1
    report = LocalPointReport(mu=mu, codim=codim, lci=(mu == codim), point=point)
    if not compute_gorenstein:
        report.note = "gorenstein not requested"
        return report
    invariants = local_gorenstein(J, seed=seed)
    if invariants is None:
        report.note = "inconclusive: no certified-regular slice found within budget"
        return report
    report.length, report.socle_dim, report.gorenstein = invariants
    return report
